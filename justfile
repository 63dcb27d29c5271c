# Each recipe forwards to the cargo alias of the same name, documented
# in .cargo/config.toml; `bench` and `smoke` group them.

bench: repro-check bench-smoke

smoke: obs-smoke faults-smoke serve-smoke fleet-smoke superblock-smoke engine-smoke telemetry-smoke multicore-smoke security-smoke docs-check

repro-check:
    cargo repro-check

bench-smoke:
    cargo bench-smoke

superblock-smoke:
    cargo superblock-smoke

engine-smoke:
    cargo engine-smoke

obs-smoke:
    cargo obs-smoke

faults-smoke:
    cargo faults-smoke

serve-smoke:
    cargo serve-smoke

telemetry-smoke:
    cargo telemetry-smoke

multicore-smoke:
    cargo multicore-smoke

fleet-smoke:
    cargo fleet-smoke

security-smoke:
    cargo security-smoke

docs-check:
    cargo docs-check

test:
    cargo test --workspace
