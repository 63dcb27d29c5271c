//! The `frontier` workload: `vcfr_bench::run_frontier` on sjeng at two
//! entropy points (e13 and e24, sparsity 2) with one fuzzing budget, plus
//! the frontier manifests `repro frontier` would write.
//!
//! It covers the attacker half (gadget scan, one `randomize` per trial,
//! one `scattered_machine` per probe) and the defender's clean and
//! faulted VCFR runs. At e24 probe set-up dominates; at e13 it is small,
//! so the two points respond differently to set-up and decode changes.
//! `--seed` drives the fuzzer (`FuzzConfig::seed`).

use crate::trace::{median, SpanId, Tracer};
use crate::{overhead, repeat_for, timed, Checks, Layers, Measured, Opts, SETUPS};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use vcfr_bench::experiments::SEED;
use vcfr_bench::{
    build_frontier_manifests, fault_plan_for, parallel_map, run_frontier, FrontierPoint,
    FrontierRow,
};
use vcfr_gadget::{fuzz_trial, seed_corpus, splitmix64, AttackSurface, FuzzConfig, TrialReport};
use vcfr_isa::{Addr, Machine};
use vcfr_obs::{fingerprint, Json};
use vcfr_rewriter::{randomize, RandomizeConfig};
use vcfr_sim::{Mode, Session, SimConfig};
use vcfr_workloads::{by_name, Workload};

/// What the workload attacks and with what budget.
#[derive(Clone, Debug)]
pub struct Config {
    /// Application under attack.
    pub app: &'static str,
    /// Entropy points.
    pub points: Vec<FrontierPoint>,
    /// Attacker budget; its seed is the run's `--seed`.
    pub fuzz: FuzzConfig,
    /// Cap the application's instruction budget.
    pub budget_cap: Option<u64>,
}

impl Config {
    /// The benchmark's frontier: sjeng at e13 and e24, 2 trials × 32
    /// probes per point.
    pub fn standard(seed: u64) -> Config {
        Config {
            app: "sjeng",
            points: vec![
                FrontierPoint { entropy_bits: 13, sparsity: 2 },
                FrontierPoint { entropy_bits: 24, sparsity: 2 },
            ],
            fuzz: FuzzConfig { seed, trials: 2, probes_per_trial: 32, exec_budget: 4096 },
            budget_cap: None,
        }
    }

    fn workload(&self) -> Option<Workload> {
        let mut w = by_name(self.app)?;
        if let Some(cap) = self.budget_cap {
            w.max_insts = w.max_insts.min(cap);
        }
        Some(w)
    }

    /// `(point index, trial)` for every trial of the campaign.
    fn grid(&self) -> Vec<(usize, u32)> {
        (0..self.points.len()).flat_map(|p| (0..self.fuzz.trials).map(move |t| (p, t))).collect()
    }
}

/// One campaign request and what it produced.
struct Request {
    secs: f64,
    rows: Vec<FrontierRow>,
    digest: String,
    audits_passed: Vec<bool>,
}

/// Runs the campaign once and builds its manifests.
fn request(w: &Workload, cfg: &Config, threads: usize) -> Request {
    let t0 = Instant::now();
    let rows = run_frontier(w, &cfg.points, &cfg.fuzz, threads);
    let manifests = build_frontier_manifests(&rows, &cfg.fuzz, threads);
    let secs = t0.elapsed().as_secs_f64();
    let summaries: Vec<_> = rows.iter().map(FrontierRow::summary).collect();
    let mut text = format!("{summaries:?}");
    for m in &manifests {
        text.push_str(&m.canonical_bytes());
    }
    Request {
        secs,
        rows,
        digest: fingerprint(&text),
        audits_passed: manifests
            .iter()
            .map(|m| m.json().get_path("audit.passed") == Some(&Json::Bool(true)))
            .collect(),
    }
}

fn measure(
    w: &Workload,
    cfg: &Config,
    opts: &Opts,
    seconds: f64,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Vec<Request> {
    let mut done: Vec<Request> = Vec::new();
    repeat_for(seconds, || {
        let t = Instant::now();
        let r = tracer.span("bench.frontier", None, done.len() as u64, |_| {
            catch_unwind(AssertUnwindSafe(|| request(w, cfg, opts.threads)))
        });
        match r {
            Ok(r) => {
                for (i, ok) in r.audits_passed.iter().enumerate() {
                    checks.check(*ok, || format!("frontier point {i}: cycle audit failed"));
                }
                let first = done.first().map_or(&r.digest, |f| &f.digest);
                checks.check(*first == r.digest, || {
                    "frontier digest changed between requests".into()
                });
                let secs = r.secs;
                done.push(r);
                secs
            }
            Err(_) => {
                for _ in &cfg.points {
                    checks.check(false, || "frontier request panicked".into());
                }
                t.elapsed().as_secs_f64()
            }
        }
    });
    done
}

/// What replaying one trial call by call observed.
#[derive(Debug, PartialEq)]
struct Replay {
    report: TrialReport,
    steps: u64,
    mapped_hits: u64,
}

/// Replays `fuzz_trial` through the public calls it makes — one
/// `randomize`, then per probe a `launch_against`, which builds a fresh
/// `scattered_machine` — with a span around each, and one extra timed
/// `scattered_machine` per probe to split probe set-up from execution.
/// The probe sequence mirrors `vcfr_gadget::fuzz_trial`; the caller
/// checks that both report the same trial.
fn replay_trial(
    tracer: &Tracer,
    parent: Option<SpanId>,
    surface: &AttackSurface<'_>,
    seeds: &[Vec<u64>],
    cfg: &Config,
    point: usize,
    trial: u32,
) -> Replay {
    let fz = &cfg.fuzz;
    let req = (point * fz.trials as usize) as u64 + u64::from(trial);
    let mut out = Replay {
        report: TrialReport {
            trial,
            succeeded: false,
            probes_spent: 0,
            pages_discovered: 0,
            chains_extended: 0,
        },
        steps: 0,
        mapped_hits: 0,
    };
    let mut layout_state = fz.seed ^ 0x5ec0_4d0a_11ab_1e5e ^ u64::from(trial);
    let rcfg =
        RandomizeConfig::from_params(splitmix64(&mut layout_state), &cfg.points[point].params());
    let rp = tracer.span("rewriter.randomize", parent, req, |_| randomize(surface.image(), &rcfg));
    let Ok(rp) = rp else { return out };
    let (lo, hi) = rp.region;
    let span = u64::from(hi.wrapping_sub(lo)).max(1);

    let mut state = fz.seed ^ u64::from(trial).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut corpus: Vec<Vec<u64>> = seeds.iter().filter(|c| !c.is_empty()).cloned().collect();
    if corpus.is_empty() {
        corpus.push(vec![0]);
    }
    let mut hot: Vec<Addr> = Vec::new();
    let mut pages: BTreeSet<Addr> = BTreeSet::new();
    for probe in 0..fz.probes_per_trial {
        let guess = if !hot.is_empty() && splitmix64(&mut state) & 1 == 1 {
            let h = hot[(splitmix64(&mut state) % hot.len() as u64) as usize];
            let jitter = (splitmix64(&mut state) % 33) as Addr;
            h.wrapping_add(jitter).wrapping_sub(16).clamp(lo, hi - 1)
        } else {
            lo.wrapping_add((splitmix64(&mut state) % span) as Addr)
        };
        let pick = (splitmix64(&mut state) % corpus.len() as u64) as usize;
        let mut words = corpus[pick].clone();
        words[0] = u64::from(guess);
        tracer.span("isa.scattered_machine", parent, req, |_| drop(rp.scattered_machine()));
        let run = tracer.span("gadget.launch_against", parent, req, |_| {
            surface.launch_against(&rp, &words, fz.exec_budget)
        });
        out.steps += run.steps;
        out.mapped_hits += u64::from(run.steps > 0);
        out.report.probes_spent = probe + 1;
        out.report.pages_discovered = pages.len();
        if run.shell() {
            out.report.succeeded = true;
            return out;
        }
        if run.steps > 0 {
            pages.insert(guess >> 12);
            hot.push(guess);
            if corpus.len() < 64 {
                corpus.push(words);
                out.report.chains_extended += 1;
            }
        }
    }
    out.report.pages_discovered = pages.len();
    out
}

/// The attacker half, trial by trial through `fuzz_trial`, each trial
/// then replayed call by call. Returns each trial's report, seconds, and
/// replay.
fn attack_pass(
    surface: &AttackSurface<'_>,
    seeds: &[Vec<u64>],
    cfg: &Config,
    threads: usize,
    tracer: &Tracer,
) -> Vec<(TrialReport, f64, Replay)> {
    parallel_map(cfg.grid(), threads, |i, (p, t)| {
        let params = cfg.points[p].params();
        let ((report, sp), secs) = timed(|| {
            tracer.span("gadget.fuzz_trial", None, i as u64, |sp| {
                (fuzz_trial(surface, seeds, &params, &cfg.fuzz, t), sp)
            })
        });
        let replay = replay_trial(tracer, sp, surface, seeds, cfg, p, t);
        (report, secs, replay)
    })
}

/// The defender half outside `run_frontier`: the baseline, and per point
/// the clean and the faulted VCFR run, checked against the campaign's
/// rows. Returns the simulated instructions of one campaign and the
/// faulted runs' milliseconds.
fn defender_pass(
    w: &Workload,
    cfg: &Config,
    rows: &[FrontierRow],
    tracer: &Tracer,
    checks: &mut Checks,
) -> (u64, f64) {
    let base = tracer
        .span("sim.session", None, 0, |_| {
            Session::new(Mode::Baseline(&w.image), &SimConfig::default(), w.max_insts)
                .and_then(|mut s| s.run())
        })
        .map(|o| o.output.stats);
    let mut insts = 0;
    let mut faulted_ms = 0.0;
    match base {
        Ok(b) => insts += b.instructions,
        Err(e) => checks.check(false, || format!("frontier baseline failed: {e}")),
    }
    for (i, (point, row)) in cfg.points.iter().zip(rows).enumerate() {
        let params = point.params();
        let run = || -> Result<(u64, f64), String> {
            let rp = tracer
                .span("rewriter.randomize", None, i as u64, |_| {
                    randomize(&w.image, &RandomizeConfig::from_params(SEED, &params))
                })
                .map_err(|e| e.to_string())?;
            let sim = SimConfig::builder()
                .rand_params(Some(params))
                .build()
                .map_err(|e| e.to_string())?;
            let mode = || Mode::Vcfr { program: &rp, drc: params.drc };
            let clean = tracer
                .span("sim.session", None, i as u64, |_| {
                    Session::new(mode(), &sim, w.max_insts).and_then(|mut s| s.run())
                })
                .map_err(|e| e.to_string())?;
            let plan = fault_plan_for(w.name, w.max_insts);
            let (faulted, secs) = timed(|| {
                tracer.span("sim.faulted_run", None, i as u64, |_| {
                    Session::new(mode(), &sim, w.max_insts)
                        .map(|s| s.with_faults(&plan))
                        .and_then(|mut s| s.run())
                })
            });
            let faulted = faulted.map_err(|e| e.to_string())?;
            if clean.output.stats != row.stats || faulted.faults != row.faults {
                return Err(format!("{}: a direct run disagrees with run_frontier", point.label()));
            }
            Ok((clean.output.stats.instructions + faulted.output.stats.instructions, secs * 1e3))
        };
        match run() {
            Ok((n, ms)) => {
                insts += n;
                faulted_ms += ms;
                checks.check(true, String::new);
            }
            Err(e) => checks.check(false, || e),
        }
    }
    (insts, faulted_ms)
}

/// The `frontier` workload.
pub fn run(opts: &Opts, cfg: &Config, tracer: &Tracer) -> Result<Measured, String> {
    let mut m = Measured::default();
    let (mut gen_ms, mut scan_ms) = (Vec::new(), Vec::new());
    let mut w = None;
    for _ in 0..SETUPS {
        let (wl, gen_s) = timed(|| tracer.span("workloads.generate", None, 0, |_| cfg.workload()));
        let wl = wl.ok_or_else(|| format!("unknown workload {}", cfg.app))?;
        let (_, scan_s) = timed(|| {
            tracer.span("gadget.scan", None, 0, |_| {
                let surface = AttackSurface::scan(&wl.image);
                seed_corpus(&surface)
            })
        });
        // The defender's randomize stage: one layout per point.
        let (_, rand_s) = timed(|| {
            tracer.span("bench.randomize_stage", None, 0, |_| {
                for p in &cfg.points {
                    let _ = randomize(&wl.image, &RandomizeConfig::from_params(SEED, &p.params()));
                }
            })
        });
        m.setup_s.push(gen_s + scan_s + rand_s);
        gen_ms.push(gen_s * 1e3);
        scan_ms.push(scan_s * 1e3);
        w = Some(wl);
    }
    let w = w.expect("set up at least once");
    let plain_s = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let plain = measure(&w, cfg, opts, plain_s, &Tracer::new(false), &mut m.checks);
    let Some(first) = plain.first() else {
        return Ok(m); // every request panicked; the checks say so
    };
    m.latency_s = plain.iter().map(|r| r.secs).collect();
    m.timed_s = m.latency_s.iter().sum();
    m.digest = first.digest.clone();

    // A campaign's work is its whole probe budget: a trial that spawns a
    // shell early ends early, and counting only the probes spent would
    // make the unit of work depend on which seed wins.
    let budget = u64::from(cfg.fuzz.trials) * u64::from(cfg.fuzz.probes_per_trial);
    m.ops = budget * (cfg.points.len() * plain.len()) as u64;
    let (insts, faulted_ms) = defender_pass(&w, cfg, &first.rows, tracer, &mut m.checks);
    m.sim_insts = insts * plain.len() as u64;
    if !opts.trace {
        return Ok(m);
    }

    // Trial by trial through `fuzz_trial`, each replayed call by call,
    // cross-checked against the campaign's rows.
    let per_point = cfg.fuzz.trials as usize;
    let surface = AttackSurface::scan(&w.image);
    let seeds = seed_corpus(&surface);
    let trials = attack_pass(&surface, &seeds, cfg, opts.threads, tracer);
    for (row, mine) in first.rows.iter().zip(trials.chunks(per_point)) {
        let successes = mine.iter().filter(|t| t.0.succeeded).count() as u32;
        let pages: usize = mine.iter().map(|t| t.0.pages_discovered).sum();
        m.checks.check(successes == row.successes && pages == row.pages_leaked, || {
            format!("{}: fuzz_trial disagrees with run_frontier", row.point.label())
        });
    }
    for (i, (report, _, replay)) in trials.iter().enumerate() {
        m.checks.check(replay.report == *report, || {
            format!("trial {i}: the replay diverged from fuzz_trial")
        });
    }
    let traced = measure(&w, cfg, opts, opts.seconds / 2.0, tracer, &mut m.checks);
    for r in &traced {
        m.checks.check(r.digest == m.digest, || "tracing changed the frontier digest".into());
    }
    let mut l = Layers::new();
    l.insert("workloads.generate_ms".into(), median(&gen_ms));
    l.insert("gadget.scan_ms".into(), median(&scan_ms));
    let randomize_ms = tracer.ms_of("rewriter.randomize");
    l.insert("rewriter.randomize_ms".into(), randomize_ms.iter().sum());
    l.insert("rewriter.randomize_calls".into(), randomize_ms.len() as f64);
    let machine_us: Vec<f64> = (0..16)
        .map(|i| {
            timed(|| tracer.span("isa.machine_new", None, i, |_| Machine::new(&w.image))).1 * 1e6
        })
        .collect();
    l.insert("isa.machine_new_us".into(), median(&machine_us));

    let span_at = |name: &str, point: usize| -> Vec<f64> {
        let reqs = (point * per_point) as u64..((point + 1) * per_point) as u64;
        tracer
            .spans()
            .into_iter()
            .filter(|s| s.name == name && reqs.contains(&s.req))
            .map(|s| s.ms())
            .collect()
    };
    for (p, point) in cfg.points.iter().enumerate() {
        let e = format!("e{}", point.entropy_bits);
        let trial_ms: Vec<f64> =
            trials[p * per_point..(p + 1) * per_point].iter().map(|t| t.1 * 1e3).collect();
        l.insert(format!("gadget.trial_ms.{e}"), median(&trial_ms));
        let scatter: Vec<f64> =
            span_at("isa.scattered_machine", p).iter().map(|ms| ms * 1e3).collect();
        l.insert(format!("isa.scattered_machine_us.{e}"), median(&scatter));
        let probe: Vec<f64> =
            span_at("gadget.launch_against", p).iter().map(|ms| ms * 1e3).collect();
        l.insert(format!("gadget.probe_us.{e}"), median(&probe));
    }
    let replays = || trials.iter().map(|t| &t.2);
    let replayed: u64 = replays().map(|r| u64::from(r.report.probes_spent)).sum();
    l.insert("gadget.probes".into(), replayed as f64);
    l.insert("gadget.probe_steps".into(), replays().map(|r| r.steps).sum::<u64>() as f64);
    l.insert(
        "gadget.mapped_hit_ratio".into(),
        replays().map(|r| r.mapped_hits).sum::<u64>() as f64 / replayed.max(1) as f64,
    );
    l.insert("sim.faulted_run_ms".into(), faulted_ms);
    let traced_latency: Vec<f64> = traced.iter().map(|r| r.secs).collect();
    l.insert("trace.overhead_frac".into(), overhead(&m.latency_s, &traced_latency));
    m.layers = l;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> Config {
        Config {
            app: "sjeng",
            points: vec![
                FrontierPoint { entropy_bits: 13, sparsity: 2 },
                FrontierPoint { entropy_bits: 15, sparsity: 2 },
            ],
            fuzz: FuzzConfig { seed, trials: 2, probes_per_trial: 8, exec_budget: 1024 },
            budget_cap: Some(30_000),
        }
    }

    #[test]
    fn digest_is_independent_of_threads_and_tracing() {
        let cfg = tiny(7);
        let w = cfg.workload().unwrap();
        let opts = |threads| Opts {
            workload: "frontier".into(),
            seed: 7,
            seconds: 1e-9,
            trace: false,
            threads,
            scratch: std::env::temp_dir(),
        };
        let mut checks = Checks::default();
        let one = measure(&w, &cfg, &opts(1), 1e-9, &Tracer::new(false), &mut checks);
        let two = measure(&w, &cfg, &opts(2), 1e-9, &Tracer::new(true), &mut checks);
        assert_eq!(one[0].digest, two[0].digest);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        assert_ne!(one[0].digest, request(&w, &tiny(8), 2).digest, "the seed drives the fuzzer");
    }

    #[test]
    fn replay_reproduces_every_trial() {
        let cfg = tiny(2015);
        let w = cfg.workload().unwrap();
        let surface = AttackSurface::scan(&w.image);
        let seeds = seed_corpus(&surface);
        let tracer = Tracer::new(true);
        let trials = attack_pass(&surface, &seeds, &cfg, 2, &tracer);
        assert_eq!(trials.len(), 4);
        for (report, _, replay) in &trials {
            assert_eq!(replay.report, *report);
        }
        let launches = tracer.ms_of("gadget.launch_against").len() as u64;
        assert_eq!(launches, trials.iter().map(|t| u64::from(t.0.probes_spent)).sum::<u64>());
    }
}
