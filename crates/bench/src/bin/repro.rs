//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro                # run everything
//! repro fig3 fig12     # run selected experiments
//! repro check --threads 4   # CI gate on an explicit worker count
//! repro obs-smoke      # tiny observability end-to-end check
//! repro faults         # 11-app fault-injection campaign (base vs VCFR)
//! repro faults-smoke   # 1-app seeded campaign + determinism check
//! repro frontier       # entropy/security frontier sweep (Pareto table)
//! repro frontier --shard 0/2  # one shard of the sweep (fleet node)
//! repro frontier-smoke # full sweep: thread-stable, equal to results/frontier/
//! repro throughput     # superblock fast-path rate on the no-stall program
//! repro telemetry-smoke  # manifests + checkpoints byte-identical, tap on vs off
//! repro multicore-smoke  # VCFR+base shared-L2 cells, rerand mid-run, thread-stable
//! repro fig3 --scale 4 # matrix over the scale-4 suite (longer runs)
//! ```
//!
//! Whenever the simulation matrix runs, per-run wall-clock timing is
//! written to `BENCH_repro.json` in the current directory and one run
//! manifest per (app, configuration) cell goes to `results/manifests/`.
//! The worker count comes from `--threads N` (or `N` via `--threads=N`),
//! falling back to `RAYON_NUM_THREADS` and then the machine's
//! parallelism.

use std::path::Path;
use vcfr_bench::experiments::{self as ex, Matrix, MatrixTiming};
use vcfr_bench::{campaign, manifests};
use vcfr_obs::{CycleAccounting, Manifest};

fn want(args: &[String], name: &str) -> bool {
    args.is_empty() || args.iter().any(|a| a == name)
}

fn header(title: &str, paper: &str) {
    println!("\n=== {title} ===");
    println!("    paper: {paper}");
}

/// Pulls `--threads N` / `--threads=N` out of `args` (so the remaining
/// arguments are plain experiment names), returning the worker count.
fn parse_threads(args: &mut Vec<String>) -> usize {
    let mut threads = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--threads" && i + 1 < args.len() {
            threads = args[i + 1].parse::<usize>().ok();
            args.drain(i..i + 2);
        } else if let Some(v) = args[i].strip_prefix("--threads=") {
            threads = v.parse::<usize>().ok();
            args.remove(i);
        } else {
            i += 1;
        }
    }
    threads.filter(|&n| n > 0).unwrap_or_else(ex::default_threads)
}

/// Pulls `--scale N` / `--scale=N` out of `args`, returning the
/// workload scale factor (default 1, the calibrated suite). `check`
/// always gates on scale 1 — its bands are calibrated for the unscaled
/// programs.
fn parse_scale(args: &mut Vec<String>) -> u64 {
    let mut scale = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--scale" && i + 1 < args.len() {
            scale = args[i + 1].parse::<u64>().ok();
            args.drain(i..i + 2);
        } else if let Some(v) = args[i].strip_prefix("--scale=") {
            scale = v.parse::<u64>().ok();
            args.remove(i);
        } else {
            i += 1;
        }
    }
    scale.filter(|&n| n > 0).unwrap_or(1)
}

/// Pulls `--shard i/n` / `--shard=i/n` out of `args`, returning the
/// shard coordinates when present (the fleet runs one `repro frontier
/// --shard i/n` per node and merges the manifest trees).
fn parse_shard(args: &mut Vec<String>) -> Option<(usize, usize)> {
    let mut shard = None;
    let mut i = 0;
    while i < args.len() {
        let spec = if args[i] == "--shard" && i + 1 < args.len() {
            let v = args[i + 1].clone();
            args.drain(i..i + 2);
            Some(v)
        } else if let Some(v) = args[i].strip_prefix("--shard=") {
            let v = v.to_string();
            args.remove(i);
            Some(v)
        } else {
            i += 1;
            None
        };
        if let Some(v) = spec {
            shard = v.split_once('/').and_then(|(a, b)| {
                Some((a.parse::<usize>().ok()?, b.parse::<usize>().ok()?))
            });
        }
    }
    shard.filter(|&(i, n)| n > 0 && i < n)
}

/// The workload the frontier sweeps: compact enough that the region
/// span — the attacker's search space — is set by `entropy_bits` at
/// every standard point.
const FRONTIER_APP: &str = "sjeng";

/// Runs the entropy/security frontier sweep (optionally one shard of
/// it), prints the Pareto table, and writes one manifest per point to
/// `out_dir`.
fn run_frontier_cmd(
    threads: usize,
    shard: Option<(usize, usize)>,
    out_dir: &Path,
) -> Vec<vcfr_bench::FrontierRow> {
    let w = vcfr_workloads::by_name(FRONTIER_APP).expect("frontier app exists");
    let points: Vec<vcfr_bench::FrontierPoint> = match shard {
        Some((i, n)) => vcfr_bench::shard_frontier(&vcfr_bench::FRONTIER_POINTS, n).swap_remove(i),
        None => vcfr_bench::FRONTIER_POINTS.to_vec(),
    };
    let fz = vcfr_bench::frontier_fuzz_config();
    eprintln!(
        "frontier: {FRONTIER_APP} x {} point(s), {} trials x {} probes per point, {} thread(s) ...",
        points.len(),
        fz.trials,
        fz.probes_per_trial,
        threads
    );
    let rows = vcfr_bench::run_frontier(&w, &points, &fz, threads);
    header(
        "Entropy/security frontier - Pareto table",
        "attacker success vs slowdown vs fault-detection coverage per entropy point",
    );
    let summaries: Vec<_> = rows.iter().map(|r| r.summary()).collect();
    print!("{}", vcfr_bench::frontier_pareto_table(&summaries));
    let ms = manifests::build_frontier_manifests(&rows, &fz, threads);
    match manifests::write_manifests(out_dir, &ms) {
        Ok(n) => eprintln!("wrote {n} frontier manifests to {}/", out_dir.display()),
        Err(e) => eprintln!("warning: could not write frontier manifests: {e}"),
    }
    rows
}

/// End-to-end check of the frontier: the full five-point campaign at 1
/// and 2 worker threads, manifests byte-identical across thread counts
/// and equal (host block stripped) to the checked-in
/// `results/frontier/*.json`, span strictly growing with entropy, and
/// the manifest round-trip reproducing every headline number.
fn frontier_smoke() -> bool {
    let w = vcfr_workloads::by_name(FRONTIER_APP).expect("frontier app exists");
    let points = vcfr_bench::FRONTIER_POINTS;
    let fz = vcfr_bench::frontier_fuzz_config();
    let checked_in = Path::new("results/frontier");
    eprintln!(
        "frontier-smoke: {FRONTIER_APP} x {} points, {} trials x {} probes, against {}/",
        points.len(),
        fz.trials,
        fz.probes_per_trial,
        checked_in.display()
    );
    let mut ok = true;

    let rows1 = vcfr_bench::run_frontier(&w, &points, &fz, 1);
    let rows2 = vcfr_bench::run_frontier(&w, &points, &fz, 2);
    let ms1 = manifests::build_frontier_manifests(&rows1, &fz, 1);
    let ms2 = manifests::build_frontier_manifests(&rows2, &fz, 2);
    for (a, b) in ms1.iter().zip(&ms2) {
        if a.canonical_bytes() != b.canonical_bytes() {
            eprintln!("FAIL {}: canonical manifest differs between 1 and 2 threads", a.file_name());
            ok = false;
        } else {
            println!("PASS {:<28} thread-stable", a.file_name());
        }
    }
    for m in &ms1 {
        let path = checked_in.join(m.file_name());
        let stored = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Manifest::from_str(&text).map_err(|e| e.to_string()));
        match stored {
            Ok(s) if s.canonical_bytes() == m.canonical_bytes() => {
                println!("PASS {:<28} matches {}", m.file_name(), path.display());
            }
            Ok(_) => {
                eprintln!("FAIL {}: canonical bytes differ from {}", m.file_name(), path.display());
                ok = false;
            }
            Err(e) => {
                eprintln!("FAIL {}: cannot read {}: {e}", m.file_name(), path.display());
                ok = false;
            }
        }
    }
    for pair in rows1.windows(2) {
        if pair[0].span_bytes >= pair[1].span_bytes {
            eprintln!(
                "FAIL: span must grow with entropy ({} vs {})",
                pair[0].span_bytes, pair[1].span_bytes
            );
            ok = false;
        }
    }
    for (row, m) in rows1.iter().zip(&ms1) {
        match manifests::frontier_summary_from_manifest(m) {
            Some(s) if s == row.summary() => {
                println!(
                    "PASS {:<28} atk {:.3}, slowdown {:.3}x, cover {:.3}",
                    m.file_name(),
                    s.attack_success,
                    s.slowdown,
                    s.fault_coverage
                );
            }
            Some(_) => {
                eprintln!("FAIL {}: manifest summary differs from the run", m.file_name());
                ok = false;
            }
            None => {
                eprintln!("FAIL {}: manifest does not read back as a frontier point", m.file_name());
                ok = false;
            }
        }
    }
    if let Err(e) = manifests::write_manifests(Path::new("target/frontier-smoke-manifests"), &ms1)
    {
        eprintln!("FAIL: could not write manifests: {e}");
        ok = false;
    }
    println!("frontier-smoke: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// Runs the no-stall superblock throughput measurement and prints both
/// rates; returns the fast-path run for the artefact writer.
fn throughput() -> (ex::RunTiming, ex::RunTiming) {
    let (on, off) = ex::nostall_throughput();
    header(
        "Superblock fast path - no-stall replay throughput",
        "decode-once straight-line replay with batched cycle accounting",
    );
    println!("{:<24} {:>14} {:>14}", "configuration", "insts", "insts/s");
    for r in [&on, &off] {
        println!(
            "{:<24} {:>14} {:>14.2e}",
            if r.superblock { "superblocks on" } else { "superblocks off" },
            r.instructions,
            r.insts_per_s
        );
    }
    println!(
        "speedup: {:.2}x{}",
        on.insts_per_s / off.insts_per_s.max(1e-9),
        if on.insts_per_s >= 100e6 { "  (>= 100M insts/s)" } else { "" }
    );
    (on, off)
}

/// Writes the benchmark artefacts of a matrix run: the timing record
/// (`BENCH_repro.json`, shared writer in `vcfr-obs`) and one run
/// manifest per (app, configuration) cell under `results/manifests/`.
fn write_artifacts(m: &Matrix, t: &MatrixTiming) {
    // The artefact also records the superblock fast-path rate on the
    // no-stall program (superblocks on and off), so the throughput
    // claim regenerates with every matrix run.
    let (sb_on, sb_off) = ex::nostall_throughput();
    eprintln!(
        "superblock no-stall throughput: {:.1}M insts/s on, {:.1}M off",
        sb_on.insts_per_s / 1e6,
        sb_off.insts_per_s / 1e6
    );
    let mut timed = t.clone();
    timed.runs.push(sb_on);
    timed.runs.push(sb_off);
    match manifests::bench_record(&timed).write_to(Path::new("BENCH_repro.json")) {
        Ok(()) => eprintln!(
            "wrote BENCH_repro.json ({} runs, {:.2}s matrix wall, {} thread{})",
            timed.runs.len(),
            t.wall_s,
            t.threads,
            if t.threads == 1 { "" } else { "s" }
        ),
        Err(e) => eprintln!("warning: could not write BENCH_repro.json: {e}"),
    }
    let ms = manifests::build_matrix_manifests(m, t);
    match manifests::write_manifests(Path::new("results/manifests"), &ms) {
        Ok(n) => eprintln!("wrote {n} run manifests to results/manifests/"),
        Err(e) => eprintln!("warning: could not write run manifests: {e}"),
    }
}

/// Tiny end-to-end check of the observability layer: runs one small app
/// through all five configurations, audits the cycle accounting of every
/// cell, and verifies manifests round-trip and are canonically identical
/// across worker-thread counts.
fn obs_smoke() -> bool {
    let mut w = vcfr_workloads::by_name("bzip2").expect("bzip2 exists");
    w.max_insts = w.max_insts.min(60_000);
    let suite = [w];
    eprintln!("obs-smoke: bzip2 x 5 configs, {} inst budget per run", suite[0].max_insts);

    let (m1, t1) = ex::matrix_over(&suite, 1);
    let (m2, t2) = ex::matrix_over(&suite, 2);
    let ms1 = manifests::build_matrix_manifests(&m1, &t1);
    let ms2 = manifests::build_matrix_manifests(&m2, &t2);
    let mut ok = true;

    // Manifests are byte-identical across thread counts once the
    // volatile host block is stripped.
    for (a, b) in ms1.iter().zip(&ms2) {
        if a.canonical_bytes() != b.canonical_bytes() {
            eprintln!("FAIL {}: canonical manifest differs between 1 and 2 threads", a.file_name());
            ok = false;
        }
    }

    // Every cell's cycle accounting passes the audit; the identity terms
    // survive the manifest round trip.
    let dir = Path::new("target/obs-smoke-manifests");
    if let Err(e) = manifests::write_manifests(dir, &ms1) {
        eprintln!("FAIL: could not write manifests: {e}");
        return false;
    }
    for m in &ms1 {
        let text = match std::fs::read_to_string(dir.join(m.file_name())) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL {}: unreadable: {e}", m.file_name());
                ok = false;
                continue;
            }
        };
        let back = match Manifest::from_str(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("FAIL {}: {e}", m.file_name());
                ok = false;
                continue;
            }
        };
        let audit = back.json().get("audit").and_then(CycleAccounting::from_json);
        let Some(accounting) = audit else {
            eprintln!("FAIL {}: manifest has no audit block", m.file_name());
            ok = false;
            continue;
        };
        let report = accounting.audit();
        if report.passed() {
            println!(
                "PASS {:<22} {:>9} cycles, coverage {:.3}",
                m.file_name(),
                accounting.cycles,
                accounting.coverage()
            );
        } else {
            ok = false;
            for f in &report.failures {
                eprintln!("FAIL {}: {f}", m.file_name());
            }
        }
    }
    println!("obs-smoke: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// End-to-end gate on the telemetry tap's zero-observability cost: the
/// simulated results must be byte-identical with progress events on or
/// off. Checks (1) canonical matrix manifests across {tap off, tap on}
/// × {1, 2} worker threads, (2) mid-run checkpoints from a tapped and
/// an untapped session, and (3) that the tap actually fired.
fn telemetry_smoke() -> bool {
    use std::sync::atomic::{AtomicU64, Ordering};
    use vcfr_core::DrcConfig;
    use vcfr_sim::{Mode, Session, SimConfig};

    let mut w = vcfr_workloads::by_name("bzip2").expect("bzip2 exists");
    w.max_insts = w.max_insts.min(60_000);
    let suite = [w];
    eprintln!(
        "telemetry-smoke: bzip2 x 5 configs, {} inst budget, tap on/off x 1/2 threads",
        suite[0].max_insts
    );
    let mut ok = true;

    // (1) Manifests: tap off on one thread is the reference; every other
    // (tap, threads) combination must produce the same canonical bytes.
    let (m_ref, t_ref) = ex::matrix_over(&suite, 1);
    let ms_ref = manifests::build_matrix_manifests(&m_ref, &t_ref);
    let events = AtomicU64::new(0);
    for threads in [1usize, 2] {
        for tap in [false, true] {
            if threads == 1 && !tap {
                continue; // that is the reference run
            }
            let (m, t) = if tap {
                ex::matrix_over_tapped(
                    &suite,
                    threads,
                    10_000,
                    &|_| {
                        events.fetch_add(1, Ordering::Relaxed);
                    },
                    &|_| {},
                )
            } else {
                ex::matrix_over(&suite, threads)
            };
            let ms = manifests::build_matrix_manifests(&m, &t);
            for (a, b) in ms_ref.iter().zip(&ms) {
                if a.canonical_bytes() == b.canonical_bytes() {
                    println!(
                        "PASS {:<22} identical (tap {}, {} thread{})",
                        a.file_name(),
                        if tap { "on" } else { "off" },
                        threads,
                        if threads == 1 { "" } else { "s" }
                    );
                } else {
                    eprintln!(
                        "FAIL {}: manifest differs with tap {} on {} thread(s)",
                        a.file_name(),
                        if tap { "on" } else { "off" },
                        threads
                    );
                    ok = false;
                }
            }
        }
    }
    let fired = events.load(Ordering::Relaxed);
    if fired == 0 {
        eprintln!("FAIL: the telemetry tap never fired");
        ok = false;
    } else {
        println!("PASS tap fired {fired} progress events across the tapped runs");
    }

    // (2) Checkpoints: drive a tapped and an untapped session to the
    // same instruction boundary; the checkpoint payloads must be
    // byte-identical (the progress cursor lives outside them).
    let w = &suite[0];
    let rp = ex::randomize_workload(&w.image);
    let cfg = SimConfig::default();
    let mode = || Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
    let mut tapped = Session::new(mode(), &cfg, w.max_insts)
        .expect("session builds")
        .with_progress(5_000, |_| {});
    let mut plain = Session::new(mode(), &cfg, w.max_insts).expect("session builds");
    tapped.run_for(20_000).expect("tapped chunk runs");
    plain.run_for(20_000).expect("plain chunk runs");
    if tapped.checkpoint() == plain.checkpoint() {
        println!(
            "PASS checkpoint identical at {} instructions, tap on vs off",
            plain.instructions()
        );
    } else {
        eprintln!("FAIL: checkpoint differs between tapped and untapped sessions");
        ok = false;
    }

    println!("telemetry-smoke: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// End-to-end gate on the multicore rerand cells: a VCFR core swaps its
/// live layout mid-run while a baseline sibling streams through the
/// shared L2. Checks (1) canonical manifests byte-identical across 1
/// vs 2 worker threads, (2) rerand epochs fired on the VCFR core and
/// only there, (3) every cell's aggregate cycle accounting audits, and
/// (4) the VCFR core's architectural output matches a solo in-order
/// baseline run of the same app.
fn multicore_smoke() -> bool {
    use vcfr_sim::{simulate, Mode, SimConfig};

    let budget = 120_000;
    eprintln!(
        "multicore-smoke: VCFR+base pairings over the shared L2, {} inst budget per core, \
         rerand every {} insts",
        budget,
        ex::MULTICORE_RERAND_EPOCH
    );
    let cells1 = ex::multicore_rerand_cells(1, budget);
    let cells2 = ex::multicore_rerand_cells(2, budget);
    let ms1 = manifests::build_multicore_manifests(&cells1, 1);
    let ms2 = manifests::build_multicore_manifests(&cells2, 2);
    let mut ok = true;

    for (a, b) in ms1.iter().zip(&ms2) {
        if a.canonical_bytes() != b.canonical_bytes() {
            eprintln!(
                "FAIL {}: canonical manifest differs between 1 and 2 threads",
                a.file_name()
            );
            ok = false;
        }
    }

    for (cell, m) in cells1.iter().zip(&ms1) {
        let (core0, core1) = (&cell.output.per_core[0], &cell.output.per_core[1]);
        if core0.rerand_epochs == 0 {
            eprintln!("FAIL {}: the VCFR core never re-randomized", m.file_name());
            ok = false;
        }
        if core1.rerand_epochs != 0 {
            eprintln!(
                "FAIL {}: the baseline sibling recorded {} rerand epochs",
                m.file_name(),
                core1.rerand_epochs
            );
            ok = false;
        }
        let report = cell.output.stats.accounting().audit();
        if !report.passed() {
            ok = false;
            for f in &report.failures {
                eprintln!("FAIL {}: {f}", m.file_name());
            }
            continue;
        }
        // Re-randomizing next to a streaming sibling must not change
        // what the program computes: the VCFR core's output equals a
        // solo in-order baseline run of the same app.
        let w = vcfr_workloads::by_name(cell.vcfr_app).expect("known workload");
        let solo = simulate(Mode::Baseline(&w.image), &SimConfig::default(), budget)
            .expect("solo baseline runs");
        if cell.output.outcomes[0].output != solo.outcome.output {
            eprintln!(
                "FAIL {}: the VCFR core's output differs from the solo baseline",
                m.file_name()
            );
            ok = false;
            continue;
        }
        println!(
            "PASS {:<28} {:>2} epoch swaps, contention {:>6} cycles, shared-L2 miss {:.1}%",
            m.file_name(),
            core0.rerand_epochs,
            cell.output.stats.contention_stall_cycles,
            100.0 * cell.output.shared_l2.miss_rate()
        );
    }

    if let Err(e) =
        manifests::write_manifests(Path::new("target/multicore-smoke-manifests"), &ms1)
    {
        eprintln!("FAIL: could not write manifests: {e}");
        ok = false;
    }
    println!("multicore-smoke: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// Runs the fault-injection campaign over `suite`, prints the coverage
/// table, and writes one manifest per (app, configuration) cell under
/// `out_dir`.
fn run_faults(
    suite: &[vcfr_workloads::Workload],
    threads: usize,
    out_dir: &Path,
) -> Vec<campaign::CampaignCell> {
    eprintln!(
        "fault campaign: {} app(s) x {{base, vcfr128}}, {} faults per run, {} thread(s) ...",
        suite.len(),
        campaign::FAULTS_PER_RUN,
        threads
    );
    let cells = campaign::run_campaign(suite, threads);
    header(
        "Fault-injection campaign - detection coverage",
        "the dependability half: the mediation layer detects corrupted control-flow state",
    );
    print!("{}", campaign::coverage_table(&cells));
    let ms = manifests::build_campaign_manifests(&cells, threads);
    match manifests::write_manifests(out_dir, &ms) {
        Ok(n) => eprintln!("wrote {n} campaign manifests to {}/", out_dir.display()),
        Err(e) => eprintln!("warning: could not write campaign manifests: {e}"),
    }
    cells
}

/// Tiny end-to-end check of the fault campaign: one app, seeded
/// schedule, manifests byte-identical across worker-thread counts, every
/// cell's cycle accounting auditable, and VCFR strictly ahead of the
/// baseline on detection coverage.
fn faults_smoke() -> bool {
    let mut w = vcfr_workloads::by_name("bzip2").expect("bzip2 exists");
    w.max_insts = w.max_insts.min(60_000);
    let suite = [w];
    eprintln!("faults-smoke: bzip2 x {{base, vcfr128}}, {} inst budget", suite[0].max_insts);

    let cells = run_faults(&suite, 1, Path::new("target/faults-smoke-manifests"));
    let again = campaign::run_campaign(&suite, 2);
    let ms1 = manifests::build_campaign_manifests(&cells, 1);
    let ms2 = manifests::build_campaign_manifests(&again, 2);
    let mut ok = true;

    for (a, b) in ms1.iter().zip(&ms2) {
        if a.canonical_bytes() != b.canonical_bytes() {
            eprintln!(
                "FAIL {}: canonical manifest differs between 1 and 2 threads",
                a.file_name()
            );
            ok = false;
        }
    }
    for (cell, m) in cells.iter().zip(&ms1) {
        let audit = m.json().get("audit").and_then(CycleAccounting::from_json);
        match audit.map(|a| a.audit()) {
            Some(report) if report.passed() => {
                println!(
                    "PASS {:<26} {:>3} injected, coverage {:.3}",
                    m.file_name(),
                    cell.faults.injected,
                    cell.faults.coverage()
                );
            }
            Some(report) => {
                ok = false;
                for f in &report.failures {
                    eprintln!("FAIL {}: {f}", m.file_name());
                }
            }
            None => {
                ok = false;
                eprintln!("FAIL {}: manifest has no audit block", m.file_name());
            }
        }
    }
    let (base, vcfr) = (&cells[0], &cells[1]);
    if vcfr.faults.coverage() <= base.faults.coverage() {
        eprintln!(
            "FAIL: vcfr coverage {:.3} does not beat baseline {:.3}",
            vcfr.faults.coverage(),
            base.faults.coverage()
        );
        ok = false;
    }
    println!("faults-smoke: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// CI gate: recompute the headline numbers and fail (exit 1) when any
/// leaves its calibrated band.
fn check(threads: usize) -> bool {
    let (m, timing) = ex::run_matrix_timed(threads);
    write_artifacts(&m, &timing);
    let mut ok = true;
    let mut gate = |name: &str, value: f64, lo: f64, hi: f64| {
        let pass = (lo..=hi).contains(&value);
        println!(
            "{} {:<28} {:>8.3}  (band {:.3}..{:.3})",
            if pass { "PASS" } else { "FAIL" },
            name,
            value,
            lo,
            hi
        );
        ok &= pass;
    };
    gate("fig4 naive norm IPC mean", ex::mean(ex::fig4(&m).iter().map(|r| r.1)), 0.50, 0.75);
    gate("fig12 vcfr speedup geomean", ex::geomean(ex::fig12(&m).iter().map(|r| r.1)), 1.4, 2.6);
    gate("fig13 vcfr@64 norm IPC mean", ex::mean(ex::fig13(&m).iter().map(|r| r.3)), 0.94, 1.0);
    gate(
        "fig14 drc512 miss mean (%)",
        ex::mean(ex::fig14(&m).iter().map(|r| r.1)),
        0.0,
        10.0,
    );
    gate("fig15 drc power mean (%)", ex::mean(ex::fig15(&m).iter().map(|r| r.1)), 0.0, 1.0);
    let f11 = ex::fig11();
    gate("fig11 removal mean (%)", ex::mean(f11.iter().map(|r| r.removal_pct)), 97.0, 100.0);
    gate(
        "fig11 payloads after (total)",
        f11.iter().map(|r| r.payloads_after as f64).sum(),
        0.0,
        0.0,
    );
    ok
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = parse_threads(&mut args);
    let scale = parse_scale(&mut args);
    let shard = parse_shard(&mut args);
    if args.iter().any(|a| a == "check") {
        if scale != 1 {
            eprintln!("note: check gates on the calibrated scale-1 suite; --scale ignored");
        }
        let ok = check(threads);
        std::process::exit(if ok { 0 } else { 1 });
    }
    if args.iter().any(|a| a == "obs-smoke") {
        std::process::exit(if obs_smoke() { 0 } else { 1 });
    }
    if args.iter().any(|a| a == "faults-smoke") {
        std::process::exit(if faults_smoke() { 0 } else { 1 });
    }
    if args.iter().any(|a| a == "frontier-smoke") {
        std::process::exit(if frontier_smoke() { 0 } else { 1 });
    }
    if args.iter().any(|a| a == "telemetry-smoke") {
        std::process::exit(if telemetry_smoke() { 0 } else { 1 });
    }
    if args.iter().any(|a| a == "multicore-smoke") {
        std::process::exit(if multicore_smoke() { 0 } else { 1 });
    }
    if args.iter().any(|a| a == "throughput") {
        let (on, _) = throughput();
        std::process::exit(if on.insts_per_s > 0.0 { 0 } else { 1 });
    }
    if want(&args, "faults") {
        run_faults(&vcfr_workloads::spec_suite(), threads, Path::new("results/faults"));
    }
    if want(&args, "frontier") {
        run_frontier_cmd(threads, shard, Path::new("results/frontier"));
    }
    let needs_matrix =
        ["fig3", "fig4", "fig12", "fig13", "fig14", "fig15"].iter().any(|e| want(&args, e));
    let matrix: Option<Matrix> = needs_matrix.then(|| {
        eprintln!(
            "running the 11-app x 5-config simulation matrix on {threads} thread(s){} ...",
            if scale != 1 { format!(" at scale {scale}") } else { String::new() }
        );
        // Live per-cell progress lines (stderr, wall-clock only — the
        // observer cannot perturb the simulated results).
        let suite = vcfr_workloads::spec_suite_scaled(scale);
        let total = suite.len() * ex::MODE_NAMES.len();
        let done = std::sync::atomic::AtomicUsize::new(0);
        let (m, timing) = ex::matrix_over_observed(&suite, threads, &|r| {
            let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            eprintln!(
                "  [{n:>3}/{total}] {:<10} {:<8} {:>11} insts in {:>6.2}s ({:>6.1}M insts/s)",
                r.app,
                r.mode,
                r.instructions,
                r.wall_s,
                r.insts_per_s / 1e6
            );
        });
        write_artifacts(&m, &timing);
        m
    });

    if want(&args, "fig2") {
        header("Figure 2 - instruction-level emulation slowdown", "hundreds of times vs native");
        println!("{:<12} {:>14} {:>12}", "app", "emulated CPI", "slowdown");
        let rows = ex::fig2();
        for r in &rows {
            println!("{:<12} {:>14.1} {:>11.0}x", r.name, r.emulated_cpi, r.slowdown);
        }
        println!(
            "{:<12} {:>14} {:>11.0}x",
            "mean",
            "",
            ex::mean(rows.iter().map(|r| r.slowdown))
        );
    }

    if let Some(m) = matrix.as_ref() {
        if want(&args, "fig3") {
            header(
                "Figure 3 - naive hardware ILR cache impact",
                "IL1 miss ratio avg 9.4x; prefetch useless +28%; L2 pressure +36%",
            );
            println!(
                "{:<12} {:>10} {:>10} {:>12} {:>20} {:>16}",
                "app", "base IL1%", "naive IL1%", "miss ratio", "prefetch useless +pp",
                "L2 pressure +%"
            );
            let rows = ex::fig3(m);
            for r in &rows {
                println!(
                    "{:<12} {:>10.3} {:>10.2} {:>11.0}x {:>20.1} {:>16.1}",
                    r.name, r.base_il1_pct, r.naive_il1_pct, r.il1_miss_ratio,
                    r.prefetch_useless_delta_pct, r.l2_pressure_increase_pct
                );
            }
            println!(
                "{:<12} {:>10.3} {:>10.2} {:>11.0}x {:>20.1} {:>16.1}",
                "mean",
                ex::mean(rows.iter().map(|r| r.base_il1_pct)),
                ex::mean(rows.iter().map(|r| r.naive_il1_pct)),
                ex::geomean(rows.iter().map(|r| r.il1_miss_ratio)),
                ex::mean(rows.iter().map(|r| r.prefetch_useless_delta_pct)),
                ex::mean(rows.iter().map(|r| r.l2_pressure_increase_pct)),
            );
        }

        if want(&args, "fig4") {
            header("Figure 4 - naive hardware ILR normalized IPC", "mean ~= 0.61-0.66");
            println!("{:<12} {:>16}", "app", "normalized IPC");
            let rows = ex::fig4(m);
            for (n, v) in &rows {
                println!("{n:<12} {v:>16.3}");
            }
            println!("{:<12} {:>16.3}", "mean", ex::mean(rows.iter().map(|r| r.1)));
        }
    }

    if want(&args, "table1") {
        header("Table I - qualitative comparison", "as printed");
        print!("{}", ex::table1());
    }

    if want(&args, "table2") {
        header(
            "Table II - static control-flow statistics",
            "direct >> indirect; xalan has the most indirect calls",
        );
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>12}",
            "app", "direct", "indirect", "calls", "ind. calls"
        );
        for (n, s) in ex::table2() {
            println!(
                "{:<12} {:>10} {:>10} {:>10} {:>12}",
                n, s.direct_transfers, s.indirect_transfers, s.function_calls,
                s.indirect_function_calls
            );
        }
    }

    if want(&args, "fig9") {
        header("Figure 9 - functions with/without ret", "both populations present");
        println!("{:<12} {:>10} {:>12}", "app", "with ret", "without ret");
        for (n, w, wo) in ex::fig9() {
            println!("{n:<12} {w:>10} {wo:>12}");
        }
    }

    if want(&args, "fig11") {
        header(
            "Figure 11 / SecV-B - gadget removal and payload assembly",
            "~98% gadgets removed; payloads before: all, after: none",
        );
        println!(
            "{:<12} {:>10} {:>10} {:>16} {:>15}",
            "app", "gadgets", "removed%", "payloads before", "payloads after"
        );
        let rows = ex::fig11();
        for r in &rows {
            println!(
                "{:<12} {:>10} {:>9.1}% {:>16} {:>15}",
                r.name, r.total_gadgets, r.removal_pct, r.payloads_before, r.payloads_after
            );
        }
        println!(
            "{:<12} {:>10} {:>9.1}%",
            "mean",
            "",
            ex::mean(rows.iter().map(|r| r.removal_pct))
        );
    }

    if want(&args, "ablations") {
        header(
            "Ablations - DRC design space, context switches, page confinement",
            "extensions beyond the paper (DESIGN.md SS6)",
        );
        println!("{:<42} {:>10} {:>10} {:>24}", "setting", "norm IPC", "DRC miss", "note");
        for r in ex::ablations() {
            println!(
                "{:<42} {:>10.3} {:>9.1}% {:>24}",
                r.setting, r.normalized_ipc, r.drc_miss_pct, r.note
            );
        }

        header(
            "SecIV-A option 1 - software return-address randomization",
            "call -> push+jmp expansion 'expands size of the original program'",
        );
        println!("{:<12} {:>15} {:>12} {:>10}", "app", "calls expanded", "extra bytes", "growth");
        for (n, calls, bytes, pct) in ex::call_expansion() {
            println!("{n:<12} {calls:>15} {bytes:>12} {pct:>9.2}%");
        }

        header(
            "SecV-C entropy - bits of placement uncertainty per instruction",
            "large randomization space at instruction granularity",
        );
        for (n, bits) in ex::entropy() {
            println!("{n:<12} {bits:>6.1} bits");
        }
    }

    if want(&args, "variance") {
        header(
            "Layout sensitivity - 5 random layouts per app",
            "conclusions should not depend on the particular layout drawn",
        );
        println!(
            "{:<12} {:>12} {:>10} {:>12} {:>10}",
            "app", "naive mean", "spread", "VCFR mean", "spread"
        );
        for (n, nm, ns, vm, vs) in
            ex::seed_variance(&["bzip2", "hmmer", "h264ref", "lbm"], &[1, 2, 3, 4, 5])
        {
            println!("{n:<12} {nm:>12.3} {ns:>10.3} {vm:>12.3} {vs:>10.3}");
        }
    }

    if want(&args, "multicore") {
        header(
            "SecIV-D demo - two cores, shared L2 (hmmer + h264ref)",
            "randomization applies to multi-core 'with ease' (read-only text)",
        );
        println!(
            "{:<16} {:>16} {:>16} {:>14}",
            "pairing", "core0 norm IPC", "core1 norm IPC", "L2 miss rate"
        );
        for (p, a, b, l2) in ex::multicore_demo() {
            println!("{p:<16} {a:>16.3} {b:>16.3} {l2:>13.1}%");
        }

        header(
            "Multicore rerand cells - VCFR core + baseline sibling",
            "live re-randomization on one core while the other streams the shared L2",
        );
        println!(
            "{:<18} {:>12} {:>14} {:>18} {:>14}",
            "pairing", "epoch swaps", "core0 IPC", "contention cycles", "L2 miss rate"
        );
        let cells = ex::multicore_rerand_cells(threads, 300_000);
        for c in &cells {
            println!(
                "{:<18} {:>12} {:>14.3} {:>18} {:>13.1}%",
                format!("{}+{}", c.vcfr_app, c.base_app),
                c.output.per_core[0].rerand_epochs,
                c.output.per_core[0].ipc(),
                c.output.stats.contention_stall_cycles,
                100.0 * c.output.shared_l2.miss_rate()
            );
        }
        let ms = manifests::build_multicore_manifests(&cells, threads);
        match manifests::write_manifests(Path::new("results/manifests"), &ms) {
            Ok(n) => eprintln!("wrote {n} multicore manifests to results/manifests/"),
            Err(e) => eprintln!("warning: could not write multicore manifests: {e}"),
        }
    }

    if want(&args, "ooo") {
        header(
            "SecIX preview - 4-wide out-of-order core",
            "future work: 'extend the idea to the out-of-order superscalar processor'",
        );
        println!(
            "{:<12} {:>10} {:>16} {:>16}",
            "app", "base IPC", "naive norm IPC", "VCFR norm IPC"
        );
        let rows = ex::ooo_preview();
        for (n, b, nv, vc) in &rows {
            println!("{n:<12} {b:>10.3} {nv:>16.3} {vc:>16.3}");
        }
        println!(
            "{:<12} {:>10.3} {:>16.3} {:>16.3}",
            "mean",
            ex::mean(rows.iter().map(|r| r.1)),
            ex::mean(rows.iter().map(|r| r.2)),
            ex::mean(rows.iter().map(|r| r.3)),
        );
    }

    if let Some(m) = matrix.as_ref() {
        if want(&args, "fig12") {
            header("Figure 12 - VCFR speedup over naive hardware ILR", "mean 1.63x");
            println!("{:<12} {:>10}", "app", "speedup");
            let rows = ex::fig12(m);
            for (n, v) in &rows {
                println!("{n:<12} {v:>9.2}x");
            }
            println!("{:<12} {:>9.2}x", "mean", ex::geomean(rows.iter().map(|r| r.1)));
        }

        if want(&args, "fig13") {
            header(
                "Figure 13 - normalized IPC vs DRC size",
                "512: ~98.9%; 64: ~97.9% of baseline",
            );
            println!("{:<12} {:>10} {:>10} {:>10}", "app", "DRC 512", "DRC 128", "DRC 64");
            let rows = ex::fig13(m);
            for (n, a, b, c) in &rows {
                println!("{n:<12} {a:>10.3} {b:>10.3} {c:>10.3}");
            }
            println!(
                "{:<12} {:>10.3} {:>10.3} {:>10.3}",
                "mean",
                ex::mean(rows.iter().map(|r| r.1)),
                ex::mean(rows.iter().map(|r| r.2)),
                ex::mean(rows.iter().map(|r| r.3)),
            );
        }

        if want(&args, "fig14") {
            header("Figure 14 - DRC miss rates", "512 entries: 4.5% avg; 64 entries: 20.6% avg");
            println!("{:<12} {:>10} {:>10}", "app", "DRC 512", "DRC 64");
            let rows = ex::fig14(m);
            for (n, a, b) in &rows {
                println!("{n:<12} {a:>9.1}% {b:>9.1}%");
            }
            println!(
                "{:<12} {:>9.1}% {:>9.1}%",
                "mean",
                ex::mean(rows.iter().map(|r| r.1)),
                ex::mean(rows.iter().map(|r| r.2)),
            );
        }

        if want(&args, "fig15") {
            header("Figure 15 - DRC dynamic power overhead", "0.18% of CPU dynamic power avg");
            println!("{:<12} {:>12}", "app", "overhead");
            let rows = ex::fig15(m);
            for (n, v) in &rows {
                println!("{n:<12} {v:>11.3}%");
            }
            println!("{:<12} {:>11.3}%", "mean", ex::mean(rows.iter().map(|r| r.1)));
        }
    }
}
