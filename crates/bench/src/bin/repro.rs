//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro                # run everything
//! repro fig3 fig12     # run selected experiments
//! repro check --threads 4   # CI gate on an explicit worker count
//! repro obs-smoke      # tiny observability end-to-end check
//! repro faults         # 11-app fault-injection campaign (base vs VCFR)
//! repro faults-smoke   # 1-app seeded campaign + full campaign vs results/faults/
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
//! parallelism. A malformed or out-of-range `--threads`, `--scale` or
//! `--shard` exits with status 2 and a message naming the flag.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use vcfr_bench::campaign::{self, CampaignCell};
use vcfr_bench::experiments::{self as ex, Matrix, MatrixTiming, MulticoreCell};
use vcfr_bench::smoke::{self, Verdict};
use vcfr_bench::{manifests, FrontierPoint, FrontierRow};
use vcfr_obs::{Manifest, ProgressEvent};
use vcfr_workloads::{Workload, MAX_SCALE};

fn want(args: &[String], name: &str) -> bool {
    args.is_empty() || args.iter().any(|a| a == name)
}

fn header(title: &str, paper: &str) {
    println!("\n=== {title} ===");
    println!("    paper: {paper}");
}

/// The options `repro` takes besides experiment names.
#[derive(Debug, PartialEq)]
struct Opts {
    threads: usize,
    scale: u64,
    shard: Option<(usize, usize)>,
}

impl Opts {
    /// Pulls `--threads`, `--scale` and `--shard` out of `args`, leaving
    /// the experiment names. `--scale` defaults to 1, the calibrated
    /// suite (`check` always gates on it); a `--shard i/n` runs one
    /// shard of the frontier sweep (the fleet runs one per node and
    /// merges the manifest trees).
    ///
    /// # Errors
    ///
    /// A message naming the flag when its value is missing, malformed
    /// or out of range.
    fn parse(args: &mut Vec<String>) -> Result<Opts, String> {
        let threads = take_flag(args, "threads", "a worker count of at least 1", |v| {
            v.parse().ok().filter(|&n: &usize| n > 0)
        })?;
        let scale = take_flag(args, "scale", &format!("a scale from 1 to {MAX_SCALE}"), |v| {
            v.parse().ok().filter(|n| (1..=MAX_SCALE).contains(n))
        })?;
        let shard = take_flag(args, "shard", "a shard i/n with i < n", |v| {
            let (i, n) = v.split_once('/')?;
            let (i, n) = (i.parse().ok()?, n.parse().ok()?);
            (i < n).then_some((i, n))
        })?;
        Ok(Opts {
            threads: threads.unwrap_or_else(ex::default_threads),
            scale: scale.unwrap_or(1),
            shard,
        })
    }
}

/// Removes every `--name V` / `--name=V` from `args` and returns the
/// last `V` as `parse` reads it (`None` when the flag is absent).
fn take_flag<T>(
    args: &mut Vec<String>,
    name: &str,
    expected: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let (bare, with_eq) = (format!("--{name}"), format!("--{name}="));
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        let value = if args[i] == bare && i + 1 < args.len() {
            args.drain(i..i + 2).nth(1).expect("two arguments drained")
        } else if args[i] == bare {
            return Err(format!("--{name} needs {expected}"));
        } else if let Some(v) = args[i].strip_prefix(&with_eq) {
            let v = v.to_string();
            args.remove(i);
            v
        } else {
            i += 1;
            continue;
        };
        out =
            Some(parse(&value).ok_or_else(|| format!("--{name} needs {expected}, got {value:?}"))?);
    }
    Ok(out)
}

/// Writes one section's manifests to `dir`, reporting on stderr.
fn write_tree(what: &str, dir: &str, ms: &[Manifest]) {
    match manifests::write_manifests(Path::new(dir), ms) {
        Ok(n) => eprintln!("wrote {n} {what} manifests to {dir}/"),
        Err(e) => eprintln!("warning: could not write {what} manifests: {e}"),
    }
}

// ---------------------------------------------------------------------
// Campaigns: results and manifests at a worker-thread count, shared by
// the sections that print them and the smokes that gate them.
// ---------------------------------------------------------------------

/// The simulation matrix over `suite`, tapped every `every` instructions
/// when `every > 0`.
fn matrix_campaign(
    suite: &[Workload],
    every: u64,
    tap: &(dyn Fn(&ProgressEvent) + Sync),
    threads: usize,
) -> (Matrix, Vec<Manifest>) {
    let (m, t) = ex::matrix_over_tapped(suite, threads, every, tap, &|_| {});
    let ms = manifests::build_matrix_manifests(&m, &t);
    (m, ms)
}

/// The fault-injection campaign over `suite`.
fn faults_campaign(suite: &[Workload], threads: usize) -> (Vec<CampaignCell>, Vec<Manifest>) {
    let cells = campaign::run_campaign(suite, threads);
    let ms = manifests::build_campaign_manifests(&cells, threads);
    (cells, ms)
}

/// The workload the frontier sweeps: compact enough that the region
/// span — the attacker's search space — is set by `entropy_bits` at
/// every standard point.
const FRONTIER_APP: &str = "sjeng";

/// The entropy/security frontier over `points`.
fn frontier_campaign(
    points: &[FrontierPoint],
    threads: usize,
) -> (Vec<FrontierRow>, Vec<Manifest>) {
    let w = vcfr_workloads::by_name(FRONTIER_APP).expect("frontier app exists");
    let fz = vcfr_bench::frontier_fuzz_config();
    let rows = vcfr_bench::run_frontier(&w, points, &fz, threads);
    let ms = manifests::build_frontier_manifests(&rows, &fz, threads);
    (rows, ms)
}

/// The multicore rerand cells at a per-core `budget`.
fn multicore_campaign(budget: u64, threads: usize) -> (Vec<MulticoreCell>, Vec<Manifest>) {
    let cells = ex::multicore_rerand_cells(threads, budget);
    let ms = manifests::build_multicore_manifests(&cells, threads);
    (cells, ms)
}

// ---------------------------------------------------------------------
// Smokes: each names its campaign, the shared checks of
// `vcfr_bench::smoke` it applies, and its own domain assertions.
// ---------------------------------------------------------------------

/// A smoke: its checks fold into the verdict.
type Smoke = fn(&mut Verdict);

/// `repro <name>` runs the smoke and exits 0 on PASS, 1 on FAIL.
const SMOKES: [(&str, Smoke); 5] = [
    ("obs-smoke", obs_smoke),
    ("faults-smoke", faults_smoke),
    ("frontier-smoke", frontier_smoke),
    ("telemetry-smoke", telemetry_smoke),
    ("multicore-smoke", multicore_smoke),
];

/// bzip2 on a 60,000-instruction budget: the suite of the small smokes.
fn bzip2_suite() -> [Workload; 1] {
    let mut w = vcfr_workloads::by_name("bzip2").expect("bzip2 exists");
    w.max_insts = w.max_insts.min(60_000);
    [w]
}

/// The observability layer: one app through the five-configuration
/// matrix.
fn obs_smoke(v: &mut Verdict) {
    let suite = bzip2_suite();
    let (_, ms) = smoke::thread_stable(v, |t| matrix_campaign(&suite, 0, &|_| {}, t));
    smoke::round_trips(v, &ms, Path::new("target/obs-smoke-manifests"));
    smoke::audits_close(v, &ms);
}

/// Fault injection: the seeded one-app campaign, with VCFR strictly
/// ahead of the baseline on detection coverage, then the full 11-app
/// campaign against the checked-in `results/faults/`.
fn faults_smoke(v: &mut Verdict) {
    let suite = bzip2_suite();
    let (cells, ms) = smoke::thread_stable(v, |t| faults_campaign(&suite, t));
    smoke::round_trips(v, &ms, Path::new("target/faults-smoke-manifests"));
    smoke::audits_close(v, &ms);
    let (base, vcfr) = (cells[0].faults.coverage(), cells[1].faults.coverage());
    v.check(vcfr > base, format_args!("vcfr coverage {vcfr:.3} beats baseline {base:.3}"));
    let spec = vcfr_workloads::spec_suite();
    let (_, full) = smoke::thread_stable(v, |t| faults_campaign(&spec, t));
    smoke::audits_close(v, &full);
    smoke::matches_tree(v, &full, Path::new("results/faults"));
}

/// The security frontier: the full five-point sweep against the
/// checked-in `results/frontier/`; span strictly grows with entropy and
/// every manifest reads back as its row's headline numbers.
fn frontier_smoke(v: &mut Verdict) {
    let (rows, ms) =
        smoke::thread_stable(v, |t| frontier_campaign(&vcfr_bench::FRONTIER_POINTS, t));
    smoke::matches_tree(v, &ms, Path::new("results/frontier"));
    smoke::round_trips(v, &ms, Path::new("target/frontier-smoke-manifests"));
    smoke::audits_close(v, &ms);
    for p in rows.windows(2) {
        let (a, b) = (p[0].span_bytes, p[1].span_bytes);
        v.check(a < b, format_args!("span grows with entropy: {a} < {b}"));
    }
    for (row, m) in rows.iter().zip(&ms) {
        let s = row.summary();
        v.check(
            manifests::frontier_summary_from_manifest(m).as_ref() == Some(&s),
            format_args!(
                "{:<28} reads back atk {:.3}, slowdown {:.3}x, cover {:.3}",
                m.file_name(),
                s.attack_success,
                s.slowdown,
                s.fault_coverage
            ),
        );
    }
}

/// The telemetry tap costs no result byte: matrix manifests with the
/// tap off and on agree (each thread-stable), the tap fired, and a
/// tapped and an untapped session checkpoint identically mid-run.
fn telemetry_smoke(v: &mut Verdict) {
    use vcfr_sim::{Mode, Session, SimConfig};
    let suite = bzip2_suite();
    let (_, off) = smoke::thread_stable(v, |t| matrix_campaign(&suite, 0, &|_| {}, t));
    let events = AtomicU64::new(0);
    let tap = |_: &ProgressEvent| {
        events.fetch_add(1, Ordering::Relaxed);
    };
    let (_, on) = smoke::thread_stable(v, |t| matrix_campaign(&suite, 10_000, &tap, t));
    smoke::same_bytes(v, &off, &on, "tap off vs on");
    let fired = events.load(Ordering::Relaxed);
    v.check(fired > 0, format_args!("tap fired {fired} progress events across the tapped runs"));

    // The progress cursor lives outside the checkpoint payload.
    let w = &suite[0];
    let rp = ex::randomize_workload(&w.image);
    let cfg = SimConfig::default();
    let mode = || Mode::Vcfr { program: &rp, drc: vcfr_core::DrcConfig::direct_mapped(128) };
    let mut tapped = Session::new(mode(), &cfg, w.max_insts)
        .expect("session builds")
        .with_progress(5_000, |_| {});
    let mut plain = Session::new(mode(), &cfg, w.max_insts).expect("session builds");
    tapped.run_for(20_000).expect("tapped chunk runs");
    plain.run_for(20_000).expect("plain chunk runs");
    v.check(
        tapped.checkpoint() == plain.checkpoint(),
        format_args!(
            "checkpoint identical at {} instructions, tap on vs off",
            plain.instructions()
        ),
    );
}

/// The multicore rerand cells: a VCFR core swaps its live layout
/// mid-run while a baseline sibling streams through the shared L2.
/// Epochs fire on core 0 only, and the VCFR core computes what a solo
/// baseline run of its app does.
fn multicore_smoke(v: &mut Verdict) {
    use vcfr_sim::{Mode, SimConfig};
    let budget = 120_000;
    let (cells, ms) = smoke::thread_stable(v, |t| multicore_campaign(budget, t));
    smoke::round_trips(v, &ms, Path::new("target/multicore-smoke-manifests"));
    smoke::audits_close(v, &ms);
    for (cell, m) in cells.iter().zip(&ms) {
        let (core0, core1) = (&cell.output.per_core[0], &cell.output.per_core[1]);
        v.check(
            core0.rerand_epochs > 0 && core1.rerand_epochs == 0,
            format_args!(
                "{:<28} {} epoch swaps on core 0, {} on core 1; contention {} cycles, \
                 shared-L2 miss {:.1}%",
                m.file_name(),
                core0.rerand_epochs,
                core1.rerand_epochs,
                cell.output.stats.contention_stall_cycles,
                100.0 * cell.output.shared_l2.miss_rate()
            ),
        );
        let w = vcfr_workloads::by_name(cell.vcfr_app).expect("known workload");
        let solo = ex::run_cell(Mode::Baseline(&w.image), &SimConfig::default(), budget);
        v.check(
            cell.output.outcomes[0].output == solo.outcome.output,
            format_args!("{:<28} VCFR core output equals a solo baseline run", m.file_name()),
        );
    }
}

// ---------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------

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
    write_tree("run", "results/manifests", &manifests::build_matrix_manifests(m, t));
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
    let Opts { threads, scale, shard } = Opts::parse(&mut args).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2)
    });
    if args.iter().any(|a| a == "check") {
        if scale != 1 {
            eprintln!("note: check gates on the calibrated scale-1 suite; --scale ignored");
        }
        let ok = check(threads);
        std::process::exit(if ok { 0 } else { 1 });
    }
    if let Some((name, run)) = SMOKES.iter().find(|(n, _)| args.iter().any(|a| a == n)) {
        let mut v = Verdict::default();
        run(&mut v);
        println!("{name}: {}", if v.ok() { "PASS" } else { "FAIL" });
        std::process::exit(if v.ok() { 0 } else { 1 });
    }
    if args.iter().any(|a| a == "throughput") {
        let (on, _) = throughput();
        std::process::exit(if on.insts_per_s > 0.0 { 0 } else { 1 });
    }
    if want(&args, "faults") {
        eprintln!("fault campaign: 11 apps x {{base, vcfr128}}, {threads} thread(s) ...");
        let (cells, ms) = faults_campaign(&vcfr_workloads::spec_suite(), threads);
        header(
            "Fault-injection campaign - detection coverage",
            "the dependability half: the mediation layer detects corrupted control-flow state",
        );
        print!("{}", campaign::coverage_table(&cells));
        write_tree("campaign", "results/faults", &ms);
    }
    if want(&args, "frontier") {
        let points = match shard {
            Some((i, n)) => {
                vcfr_bench::shard_frontier(&vcfr_bench::FRONTIER_POINTS, n).swap_remove(i)
            }
            None => vcfr_bench::FRONTIER_POINTS.to_vec(),
        };
        eprintln!("frontier: {FRONTIER_APP} x {} point(s), {threads} thread(s) ...", points.len());
        let (rows, ms) = frontier_campaign(&points, threads);
        header(
            "Entropy/security frontier - Pareto table",
            "attacker success vs slowdown vs fault-detection coverage per entropy point",
        );
        let summaries: Vec<_> = rows.iter().map(|r| r.summary()).collect();
        print!("{}", vcfr_bench::frontier_pareto_table(&summaries));
        write_tree("frontier", "results/frontier", &ms);
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
        let done = AtomicUsize::new(0);
        let (m, timing) = ex::matrix_over_tapped(&suite, threads, 0, &|_| {}, &|r| {
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
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
        let rows = ex::fig2(threads);
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
        for r in ex::ablations(threads) {
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
            ex::seed_variance(&["bzip2", "hmmer", "h264ref", "lbm"], &[1, 2, 3, 4, 5], threads)
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
        for (p, a, b, l2) in ex::multicore_demo(threads) {
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
        let (cells, ms) = multicore_campaign(300_000, threads);
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
        write_tree("multicore", "results/manifests", &ms);
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
        let rows = ex::ooo_preview(threads);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<(Opts, Vec<String>), String> {
        let mut args: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        Opts::parse(&mut args).map(|o| (o, args))
    }

    #[test]
    fn accepts_both_flag_forms_and_leaves_the_experiment_names() {
        let (o, rest) =
            parse(&["fig3", "--threads", "3", "--scale=4", "frontier", "--shard", "1/2"])
                .expect("valid flags");
        assert_eq!(o, Opts { threads: 3, scale: 4, shard: Some((1, 2)) });
        assert_eq!(rest, ["fig3", "frontier"]);
        let (o, _) =
            parse(&["--threads=2", "--scale", "1024", "--shard=0/1"]).expect("valid flags");
        assert_eq!(o, Opts { threads: 2, scale: 1024, shard: Some((0, 1)) });
        let (o, _) = parse(&["--threads", "1", "--threads", "5"]).expect("valid flags");
        assert_eq!((o.threads, o.scale, o.shard), (5, 1, None), "the last value wins");
    }

    #[test]
    fn refuses_malformed_and_out_of_range_values_naming_the_flag() {
        for (argv, flag) in [
            (&["--shard", "3/2"][..], "--shard"),
            (&["--shard", "0/0"], "--shard"),
            (&["--shard=1"], "--shard"),
            (&["--shard", "a/b"], "--shard"),
            (&["--scale", "0"], "--scale"),
            (&["--scale", "5000"], "--scale"),
            (&["--scale=x"], "--scale"),
            (&["--threads", "0"], "--threads"),
            (&["--threads=-1"], "--threads"),
            (&["check", "--threads"], "--threads"),
        ] {
            let e = parse(argv).expect_err(&format!("{argv:?} must be refused"));
            assert!(e.starts_with(flag), "{argv:?}: {e}");
        }
    }
}
