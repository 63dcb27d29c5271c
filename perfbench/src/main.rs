//! `vcfr-perfbench` — the end-to-end and per-layer benchmark of the
//! VCFR workspace.
//!
//! ```text
//! vcfr-perfbench --workload <matrix|frontier|service> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run builds its inputs from `--seed`, sets the workload up
//! several times (the median is `setup_s`), measures back-to-back
//! requests for `--seconds`, checks every output, and prints one JSON
//! line last on stdout: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones of
//! `BENCHMARK.json`; with `--trace 1` they are its per-layer ones, from
//! spans this crate records around calls into the workspace's public
//! functions. Everything else (host block, checks, spans) goes to
//! stderr and to a JSON report under the cargo target directory. See
//! `perfbench/README.md`.

mod alloc;
mod frontier;
mod matrix;
mod service;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{median, Tracer};
use vcfr_obs::{parse_json, Json};

/// The metric catalogue: names, units and directions live in one place.
const CATALOGUE: &str = include_str!("../../BENCHMARK.json");

/// Digests of the simulated results at [`DEFAULT_SEED`], per workload.
const EXPECTED: &str = include_str!("../expected.json");

/// The experiment seed; the recorded digests are for this seed.
pub const DEFAULT_SEED: u64 = 2015;

/// Worker threads and client connections: the 2-core host the baseline
/// in the README was measured on.
pub const THREADS: usize = 2;

/// Times the workload is set up per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed the generated inputs derive from.
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Worker threads (and service clients).
    pub threads: usize,
    /// Directory for scratch state (the service daemon's job store).
    pub scratch: PathBuf,
}

/// Operation outcomes: every check counts one attempted operation, and
/// a failed check counts it failed.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (a panic, a refused submit, a failed
    /// audit, an output that differs from its reference).
    pub failed: u64,
    /// What failed, for the report.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 32 {
                self.notes.push(what());
            }
        }
    }
}

/// Per-layer readings of one traced run, by catalogue name.
pub type Layers = BTreeMap<String, f64>;

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Latency of each request of the untraced measured section: a whole
    /// matrix, a whole frontier campaign, or one service job.
    pub latency_s: Vec<f64>,
    /// Host seconds the untraced measured section took.
    pub timed_s: f64,
    /// Simulated instructions committed in that section.
    pub sim_insts: u64,
    /// Operations completed in that section: matrix cells, fuzz probes,
    /// or service jobs.
    pub ops: u64,
    /// Output checks.
    pub checks: Checks,
    /// Digest of the simulated results (compared against
    /// `expected.json` at the default seed).
    pub digest: String,
    /// Per-layer readings (traced runs only).
    pub layers: Layers,
}

/// Runs `request` back to back until `seconds` of wall time have passed
/// (at least once). Each call returns the seconds it measured, which
/// excludes its own output checks.
pub fn repeat_for(seconds: f64, mut request: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut out = vec![request()];
    while start.elapsed().as_secs_f64() < seconds {
        out.push(request());
    }
    out
}

/// Times `f`, returning its result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Relative slowdown of the traced requests against the untraced ones.
pub fn overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    median(traced) / median(untraced).max(1e-12) - 1.0
}

/// The process's peak resident set so far, in MiB (`VmHWM`; 0 where
/// `/proc` does not report it).
fn peak_rss_mb() -> f64 {
    let read = || -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    };
    read().unwrap_or(0.0)
}

/// The revision of the checkout, read from `.git` without running git
/// (`unknown` outside a git work tree).
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(r) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host block every report carries: numbers from different hosts
/// are not a trend.
fn host_block(threads: usize) -> Json {
    let mut h = Json::obj();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    h.set("cores", Json::U64(cores as u64));
    h.set(
        "cargo_profile",
        Json::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
    );
    h.set("threads", Json::U64(threads as u64));
    h.set("git_revision", Json::Str(git_revision()));
    h
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn catalogue(section: &str) -> Vec<(String, String)> {
    let doc = parse_json(CATALOGUE).expect("BENCHMARK.json is valid JSON");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists the section")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// The recorded digest of `workload` at the default seed.
fn expected_digest(workload: &str) -> Option<String> {
    parse_json(EXPECTED).ok()?.get(workload)?.as_str().map(str::to_string)
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1 (got {other:?})")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "matrix" | "frontier" | "service") {
        return Err(format!("unknown workload {workload:?} (matrix, frontier, service)"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let scratch = target.join("perfbench").join(format!("{workload}-{}", std::process::id()));
    Ok(Opts { workload, seed, seconds, trace, threads: THREADS, scratch })
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <matrix|frontier|service> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(opts.trace);
    let result = match opts.workload.as_str() {
        "matrix" => matrix::run(&opts, &matrix::Config::standard(), &tracer),
        "frontier" => frontier::run(&opts, &frontier::Config::standard(opts.seed), &tracer),
        _ => service::run(&opts, &service::Config::standard(opts.seed), &tracer),
    };
    let _ = std::fs::remove_dir_all(&opts.scratch);
    let mut m = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };

    // The matrix ignores --seed, so its digest is checked on every run.
    let checked_seed = opts.workload == "matrix" || opts.seed == DEFAULT_SEED;
    if checked_seed {
        let want = expected_digest(&opts.workload);
        m.checks.check(want.as_deref() == Some(m.digest.as_str()), || {
            format!("digest {} differs from expected.json ({want:?})", m.digest)
        });
    }

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let section = if opts.trace { "per_layer" } else { "end_to_end" };
    if opts.trace {
        values.extend(m.layers.iter().map(|(k, v)| (k.clone(), *v)));
        values.insert("host.peak_rss_mb".into(), peak_rss_mb());
    } else {
        let secs = m.timed_s.max(1e-9);
        values.insert("setup_s".into(), median(&m.setup_s));
        values.insert("wall_s".into(), median(&m.latency_s));
        values.insert("peak_heap_mb".into(), alloc::peak_mb());
        values.insert("sim_minsts_per_s".into(), m.sim_insts as f64 / 1e6 / secs);
        values.insert("ops_per_s".into(), m.ops as f64 / secs);
    }
    let names = catalogue(section);
    for k in values.keys() {
        assert!(names.iter().any(|(n, _)| n == k), "metric {k} is missing from BENCHMARK.json");
    }
    let mut metrics = Json::obj();
    for (name, unit) in &names {
        let mut v = Json::obj();
        v.set("value", Json::F64(values.get(name).copied().unwrap_or(0.0)));
        v.set("unit", Json::Str(unit.clone()));
        metrics.set(name, v);
    }

    let correct = m.checks.failed == 0;
    let mut line = Json::obj();
    line.set("correct", Json::Bool(correct));
    line.set("attempted", Json::U64(m.checks.attempted.max(1)));
    line.set("failed", Json::U64(m.checks.failed));
    line.set("metrics", metrics);

    let mut report = Json::obj();
    report.set("workload", Json::Str(opts.workload.clone()));
    report.set("seed", Json::U64(opts.seed));
    report.set("seconds", Json::F64(opts.seconds));
    report.set("host", host_block(opts.threads));
    report.set("digest", Json::Str(m.digest.clone()));
    report.set("digest_checked", Json::Bool(checked_seed));
    report.set("requests", Json::U64(m.latency_s.len() as u64));
    if m.latency_s.len() <= 64 {
        report.set("request_s", Json::Arr(m.latency_s.iter().map(|&s| Json::F64(s)).collect()));
    }
    report.set("error_rate", Json::F64(m.checks.failed as f64 / m.checks.attempted.max(1) as f64));
    report
        .set("failures", Json::Arr(m.checks.notes.iter().map(|n| Json::Str(n.clone())).collect()));
    report.set("result", line.clone());
    eprintln!("{}", report.pretty());
    if opts.trace {
        let (spans, totals) = trace::to_json(&tracer.spans());
        report.set("span_totals", totals);
        report.set("spans", spans);
    }
    let path = opts.scratch.with_file_name(format!(
        "{}-seed{}-trace{}.json",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    ));
    match std::fs::create_dir_all(path.parent().expect("scratch has a parent"))
        .and_then(|()| std::fs::write(&path, report.pretty()))
    {
        Ok(()) => eprintln!("perfbench: report written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    println!("{}", line.compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
