//! The `matrix` workload: the paper's 11 applications × {base, naive,
//! vcfr512, vcfr128, vcfr64} through `vcfr_bench::matrix_over` at scale
//! 4, plus the 55 run manifests `repro` would write.
//!
//! It exercises the cycle engine, the superblock path, caches and the
//! DRC; it barely touches the rewriter and never the gadget fuzzer, the
//! service or checkpoints. Every number it simulates comes from the fixed
//! experiment seed, so `--seed` does not change it.

use crate::trace::{median, SpanId, Tracer};
use crate::{overhead, repeat_for, timed, Checks, Layers, Measured, Opts, SETUPS};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vcfr_bench::experiments::randomize_workload;
use vcfr_bench::{
    build_matrix_manifests, matrix_over, matrix_over_tapped, parallel_map, AppResults,
    MatrixTiming, RunTiming, MODE_NAMES,
};
use vcfr_isa::Machine;
use vcfr_obs::{fingerprint, Json, ProgressEvent};
use vcfr_workloads::{spec_suite_scaled, Workload};

/// Which suite the workload simulates.
#[derive(Clone, Debug)]
pub struct Config {
    /// `vcfr_workloads::spec_suite_scaled` factor.
    pub scale: u64,
    /// Keep only these applications (all when `None`).
    pub apps: Option<Vec<&'static str>>,
    /// Cap every application's instruction budget.
    pub budget_cap: Option<u64>,
}

impl Config {
    /// The benchmark's matrix: the whole suite at scale 4 (scale 1 is
    /// too short a request to time steadily).
    pub fn standard() -> Config {
        Config { scale: 4, apps: None, budget_cap: None }
    }

    fn suite(&self) -> Vec<Workload> {
        let mut suite = spec_suite_scaled(self.scale);
        if let Some(apps) = &self.apps {
            suite.retain(|w| apps.contains(&w.name));
        }
        if let Some(cap) = self.budget_cap {
            for w in &mut suite {
                w.max_insts = w.max_insts.min(cap);
            }
        }
        suite
    }
}

/// One matrix request and what it produced.
struct Request {
    secs: f64,
    matrix: Vec<AppResults>,
    timing: MatrixTiming,
    manifest_s: f64,
    manifest_bytes: usize,
    digest: String,
    audits_passed: Vec<bool>,
    /// Superblock-replayed and total instructions (traced requests only).
    sb: (u64, u64),
}

thread_local! {
    /// The last progress reading of the cell running on this worker
    /// thread; the cell's completion callback runs on the same thread.
    static LAST_EVENT: Cell<Option<ProgressEvent>> = const { Cell::new(None) };
}

/// Runs the matrix once, then builds its manifests. With tracing on, a
/// telemetry tap that fires only at the end of each cell collects the
/// superblock share, and each cell becomes a `sim.session` span.
fn request(suite: &[Workload], threads: usize, tracer: &Tracer, parent: Option<SpanId>) -> Request {
    let sb = Mutex::new((0u64, 0u64));
    let t0 = Instant::now();
    let (matrix, timing) = if tracer.is_on() {
        let on_progress = |e: &ProgressEvent| LAST_EVENT.with(|c| c.set(Some(*e)));
        let on_cell = |r: &RunTiming| {
            let end = Instant::now();
            let start = end.checked_sub(Duration::from_secs_f64(r.wall_s)).unwrap_or(end);
            tracer.record("sim.session", parent, 0, start, end);
            if let Some(e) = LAST_EVENT.with(Cell::take) {
                let mut s = sb.lock().expect("sb tally");
                s.0 += e.sb_insts;
                s.1 += e.instructions;
            }
        };
        matrix_over_tapped(suite, threads, u64::MAX, &on_progress, &on_cell)
    } else {
        matrix_over(suite, threads)
    };
    let (manifests, manifest_s) = timed(|| {
        tracer.span("obs.manifest_build", parent, 0, |_| build_matrix_manifests(&matrix, &timing))
    });
    let secs = t0.elapsed().as_secs_f64();
    let canon: Vec<String> = manifests.iter().map(|m| m.canonical_bytes()).collect();
    let audits_passed = manifests
        .iter()
        .map(|m| m.json().get_path("audit.passed") == Some(&Json::Bool(true)))
        .collect();
    Request {
        secs,
        matrix,
        timing,
        manifest_s,
        manifest_bytes: canon.iter().map(String::len).sum(),
        digest: fingerprint(&canon.concat()),
        audits_passed,
        sb: sb.into_inner().expect("sb tally"),
    }
}

/// Runs requests for `seconds`, checking each one; returns the requests
/// that completed.
fn measure(
    suite: &[Workload],
    opts: &Opts,
    seconds: f64,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Vec<Request> {
    let cells = (suite.len() * MODE_NAMES.len()) as u64;
    let mut done = Vec::new();
    repeat_for(seconds, || {
        let t = Instant::now();
        let r = tracer.span("bench.matrix", None, done.len() as u64, |p| {
            catch_unwind(AssertUnwindSafe(|| request(suite, opts.threads, tracer, p)))
        });
        match r {
            Ok(r) => {
                for (i, ok) in r.audits_passed.iter().enumerate() {
                    checks.check(*ok, || format!("matrix cell {i}: cycle audit failed"));
                }
                let first = done.first().map_or(&r.digest, |f: &Request| &f.digest);
                checks
                    .check(*first == r.digest, || "matrix digest changed between requests".into());
                let secs = r.secs;
                done.push(r);
                secs
            }
            Err(_) => {
                // A panic covers the cross-mode output assertion too.
                for _ in 0..cells {
                    checks.check(false, || "matrix request panicked".into());
                }
                t.elapsed().as_secs_f64()
            }
        }
    });
    done
}

/// Generates the suite and randomizes every application once, as
/// `matrix_over`'s first stage does; returns the suite and the
/// generation and randomization seconds.
fn setup(cfg: &Config, threads: usize, tracer: &Tracer) -> (Vec<Workload>, f64, f64) {
    let (suite, gen_s) = timed(|| tracer.span("workloads.generate", None, 0, |_| cfg.suite()));
    let (_, rand_s) = timed(|| {
        tracer.span("bench.randomize_stage", None, 0, |_| {
            parallel_map(suite.iter().collect(), threads, |_, w: &Workload| {
                randomize_workload(&w.image)
            })
        })
    });
    (suite, gen_s, rand_s)
}

/// The `matrix` workload.
pub fn run(opts: &Opts, cfg: &Config, tracer: &Tracer) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut suite = Vec::new();
    let mut gen_ms = Vec::new();
    for _ in 0..SETUPS {
        let (s, gen_s, rand_s) = setup(cfg, opts.threads, tracer);
        m.setup_s.push(gen_s + rand_s);
        gen_ms.push(gen_s * 1e3);
        suite = s;
    }
    if suite.is_empty() {
        return Err("the configured suite is empty".into());
    }

    // Untraced requests give the end-to-end numbers; a traced run spends
    // half its time on them, to report the tracing overhead.
    let plain_s = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let plain = measure(&suite, opts, plain_s, &Tracer::new(false), &mut m.checks);
    m.latency_s = plain.iter().map(|r| r.secs).collect();
    m.timed_s = m.latency_s.iter().sum();
    m.ops = plain.iter().map(|r| r.timing.runs.len() as u64).sum();
    m.sim_insts = plain.iter().flat_map(|r| &r.timing.runs).map(|c| c.instructions).sum();
    m.digest = plain.first().map(|r| r.digest.clone()).unwrap_or_default();
    if !opts.trace {
        return Ok(m);
    }

    let traced = measure(&suite, opts, opts.seconds / 2.0, tracer, &mut m.checks);
    for r in &traced {
        m.checks.check(r.digest == m.digest, || "tracing changed the matrix digest".into());
    }
    m.layers = layers(&suite, opts, tracer, &traced, &m.latency_s, &gen_ms);
    Ok(m)
}

/// The per-layer readings of the traced requests, plus a replay of the
/// rewriter and `Machine::new` calls the matrix makes once per app.
fn layers(
    suite: &[Workload],
    opts: &Opts,
    tracer: &Tracer,
    traced: &[Request],
    plain_latency: &[f64],
    gen_ms: &[f64],
) -> Layers {
    let mut l = Layers::new();
    let n = traced.len().max(1) as f64;
    let (randomize_ms, machine_us) = tracer.span("bench.replay", None, 0, |p| {
        let mut rand_ms = 0.0;
        let mut new_us = Vec::new();
        for (i, w) in suite.iter().enumerate() {
            let (_, s) = timed(|| {
                tracer.span("rewriter.randomize", p, i as u64, |_| randomize_workload(&w.image))
            });
            rand_ms += s * 1e3;
            let (_, s) =
                timed(|| tracer.span("isa.machine_new", p, i as u64, |_| Machine::new(&w.image)));
            new_us.push(s * 1e6);
        }
        (rand_ms, new_us)
    });
    l.insert("workloads.generate_ms".into(), median(gen_ms));
    l.insert("rewriter.randomize_ms".into(), randomize_ms);
    l.insert("rewriter.randomize_calls".into(), suite.len() as f64);
    l.insert("isa.machine_new_us".into(), median(&machine_us));

    for mode in MODE_NAMES {
        let cells = || traced.iter().flat_map(|r| &r.timing.runs).filter(move |c| c.mode == mode);
        let wall: f64 = cells().map(|c| c.wall_s).sum();
        let insts: u64 = cells().map(|c| c.instructions).sum();
        l.insert(format!("sim.session_ms.{mode}"), wall * 1e3 / n);
        l.insert(format!("sim.ns_per_inst.{mode}"), wall * 1e9 / insts.max(1) as f64);
    }
    let (sb, insts) = traced.iter().fold((0, 0), |a, r| (a.0 + r.sb.0, a.1 + r.sb.1));
    l.insert("sim.sb_inst_share".into(), sb as f64 / insts.max(1) as f64);
    if let Some(r) = traced.first() {
        for (mode, pick) in [
            ("vcfr512", (|a: &AppResults| a.vcfr512.drc) as fn(&AppResults) -> _),
            ("vcfr128", |a: &AppResults| a.vcfr128.drc),
            ("vcfr64", |a: &AppResults| a.vcfr64.drc),
        ] {
            let drc = r.matrix.iter().filter_map(pick);
            let (lookups, misses) = drc.fold((0, 0), |a, d| (a.0 + d.lookups, a.1 + d.misses));
            l.insert(format!("core.drc.lookup.{mode}"), lookups as f64);
            l.insert(format!("core.drc.miss.{mode}"), misses as f64);
        }
    }

    let mut rand_s = Vec::new();
    let (mut idle, mut busy) = (0.0, 0.0);
    for r in traced {
        let makespan = r.timing.wall_s - r.timing.randomize_s;
        let cell_sum: f64 = r.timing.runs.iter().map(|c| c.wall_s).sum();
        idle += makespan - cell_sum / opts.threads as f64;
        busy += cell_sum / (opts.threads as f64 * makespan.max(1e-9));
        rand_s.push(r.timing.randomize_s);
    }
    l.insert("bench.randomize_stage_s".into(), median(&rand_s));
    l.insert("bench.tail_idle_s".into(), idle / n);
    l.insert("bench.worker_busy_frac".into(), busy / n);
    let manifests = n * (suite.len() * MODE_NAMES.len()) as f64;
    l.insert(
        "obs.manifest_build_ms".into(),
        traced.iter().map(|r| r.manifest_s * 1e3).sum::<f64>() / manifests,
    );
    l.insert(
        "obs.manifest_bytes".into(),
        traced.iter().map(|r| r.manifest_bytes as f64).sum::<f64>() / manifests,
    );
    let traced_latency: Vec<f64> = traced.iter().map(|r| r.secs).collect();
    l.insert("trace.overhead_frac".into(), overhead(plain_latency, &traced_latency));
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config { scale: 1, apps: Some(vec!["bzip2", "hmmer"]), budget_cap: Some(30_000) }
    }

    #[test]
    fn digest_is_independent_of_threads_and_tracing() {
        let suite = tiny().suite();
        let off = Tracer::new(false);
        let on = Tracer::new(true);
        let one = request(&suite, 1, &off, None);
        let two = request(&suite, 2, &off, None);
        let traced = request(&suite, 2, &on, None);
        assert_eq!(one.digest, two.digest);
        assert_eq!(one.digest, traced.digest);
        assert!(one.audits_passed.iter().all(|&ok| ok));
        assert_eq!(on.ms_of("sim.session").len(), 10, "one span per cell");
        assert!(traced.sb.1 > 0, "the end-of-cell tap reports instructions");
    }
}
