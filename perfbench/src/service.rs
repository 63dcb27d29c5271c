//! The `service` workload: an in-process `vcfr_service::serve` daemon
//! with two workers, driven by two closed-loop clients. Each client
//! submits a job from a seeded mix over the suite applications ×
//! {base, vcfr128} (300k instructions, a checkpoint every 50k), polls
//! `fetch` until the manifest arrives, then submits the next one.
//!
//! It uses the simulator through chunked `run_for` calls and checkpoint
//! writes, plus the JSON-lines dispatch and the job store — none of which
//! the `matrix` or `frontier` workloads touch. `--seed` drives the job
//! mix. Every fetched manifest is compared with an in-process `Session`
//! run of the same spec.

use crate::trace::{median, quantile, SpanId, Tracer};
use crate::{overhead, timed, Checks, Layers, Measured, Opts, SETUPS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vcfr_bench::{build_engine_manifest, ModeSpec};
use vcfr_core::DrcConfig;
use vcfr_gadget::splitmix64;
use vcfr_isa::Machine;
use vcfr_obs::{fingerprint, Json, Manifest};
use vcfr_rewriter::{randomize, RandomizeConfig, RandomizedProgram};
use vcfr_service::{serve, Client, JobSpec, ServeOptions, ServiceError, ENDPOINT_FILE};
use vcfr_sim::{Mode, Session, SessionStatus, SimConfig};
use vcfr_workloads::{by_name, Workload, SPEC_NAMES};

/// A job that has not finished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The job mix.
#[derive(Clone, Debug)]
pub struct Config {
    /// Applications jobs are drawn from.
    pub apps: Vec<&'static str>,
    /// Modes jobs are drawn from.
    pub modes: Vec<ModeSpec>,
    /// Instruction budget of every job.
    pub max_insts: u64,
    /// Instructions between checkpoints.
    pub checkpoint_every: u64,
    /// Seed of the mix.
    pub seed: u64,
}

impl Config {
    /// The benchmark's mix: the 11 suite applications × {base, vcfr128},
    /// 300k instructions per job, a checkpoint every 50k.
    pub fn standard(seed: u64) -> Config {
        Config {
            apps: SPEC_NAMES.to_vec(),
            modes: vec![ModeSpec::Base, ModeSpec::vcfr_default()],
            max_insts: 300_000,
            checkpoint_every: 50_000,
            seed,
        }
    }

    /// The next job of a client whose mix state is `state`.
    fn draw(&self, state: &mut u64) -> JobSpec {
        let r = splitmix64(state);
        let mut spec = JobSpec::new(self.apps[(r % self.apps.len() as u64) as usize]);
        spec.mode = self.modes[((r >> 32) % self.modes.len() as u64) as usize];
        spec.max_insts = self.max_insts;
        spec.checkpoint_every = self.checkpoint_every;
        spec
    }

    /// Every distinct spec the mix can draw, in a fixed order.
    fn all_specs(&self) -> Vec<JobSpec> {
        let mut out = Vec::new();
        for app in &self.apps {
            for mode in &self.modes {
                let mut spec = JobSpec::new(app);
                spec.mode = *mode;
                spec.max_insts = self.max_insts;
                spec.checkpoint_every = self.checkpoint_every;
                out.push(spec);
            }
        }
        out
    }
}

/// A daemon serving from its own thread. Dropping it shuts it down and
/// waits for the thread.
struct Daemon {
    dir: PathBuf,
    thread: Option<JoinHandle<Result<(), ServiceError>>>,
}

impl Daemon {
    /// Starts a daemon on a fresh state directory and waits until it
    /// answers a ping.
    fn start(dir: &Path, workers: usize) -> Result<(Daemon, Client), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let opts = ServeOptions { dir: dir.to_path_buf(), port: 0, workers, queue_capacity: 16 };
        let mut d = Daemon {
            dir: dir.to_path_buf(),
            thread: Some(std::thread::spawn(move || serve(&opts))),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !dir.join(ENDPOINT_FILE).exists() {
            if d.thread.as_ref().is_some_and(JoinHandle::is_finished) {
                let ended = d.thread.take().expect("checked above").join();
                return Err(format!("the daemon exited at start-up: {ended:?}"));
            }
            if Instant::now() > deadline {
                return Err("the daemon published no endpoint within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut c = Client::connect(dir).map_err(|e| e.to_string())?;
        c.ping().map_err(|e| e.to_string())?;
        Ok((d, c))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            if let Ok(mut c) = Client::connect(&self.dir) {
                if c.shutdown().is_ok() {
                    let _ = thread.join();
                }
            }
        }
    }
}

/// One job as a client saw it.
#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    latency_s: f64,
    manifest: Result<String, String>,
    instructions: u64,
    checkpoints: u64,
    polls: u64,
    span: Option<SpanId>,
}

/// Submits `spec`, polls `fetch` until its manifest arrives, and returns
/// what happened.
fn one_job(client: &mut Client, spec: JobSpec, tracer: &Tracer, req: u64) -> JobRecord {
    let t0 = Instant::now();
    let (result, span) = tracer.span("service.job", None, req, |sp| {
        let mut run = || -> Result<(String, Json, u64), String> {
            let id = tracer
                .span("service.submit", sp, req, |_| client.submit(&spec))
                .map_err(|e| format!("submit refused: {e}"))?;
            let mut polls = 0;
            loop {
                polls += 1;
                let (job, manifest) = tracer
                    .span("service.fetch", sp, req, |_| client.fetch(id))
                    .map_err(|e| e.to_string())?;
                if let Some((_, text)) = manifest {
                    return Ok((text, job, polls));
                }
                if job.get("phase").and_then(Json::as_str) == Some("failed") {
                    return Err(format!("job {id} failed: {:?}", job.get("error")));
                }
                if t0.elapsed() > JOB_TIMEOUT {
                    return Err(format!("job {id} did not finish within {JOB_TIMEOUT:?}"));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        (run(), sp)
    });
    let latency_s = t0.elapsed().as_secs_f64();
    let field = |job: &Json, k: &str| job.get(k).and_then(Json::as_u64).unwrap_or(0);
    match result {
        Ok((text, job, polls)) => JobRecord {
            spec,
            latency_s,
            manifest: Ok(text),
            instructions: field(&job, "instructions"),
            checkpoints: field(&job, "checkpoints"),
            polls,
            span,
        },
        Err(e) => JobRecord {
            spec,
            latency_s,
            manifest: Err(e),
            instructions: 0,
            checkpoints: 0,
            polls: 0,
            span,
        },
    }
}

/// The outcome of one measured section.
struct Section {
    jobs: Vec<JobRecord>,
    secs: f64,
}

/// Drives one closed-loop client per entry of `draws` for `seconds`; a
/// client starts no job after the deadline but finishes the one in
/// flight. `draws` holds each client's mix state, so consecutive
/// sections continue the same sequences.
fn measure(
    dir: &Path,
    cfg: &Config,
    draws: &mut [u64],
    seconds: f64,
    tracer: &Tracer,
) -> Result<Section, String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<Result<Vec<JobRecord>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = draws
            .iter_mut()
            .enumerate()
            .map(|(c, state)| {
                s.spawn(move || {
                    let mut client = Client::connect(dir).map_err(|e| e.to_string())?;
                    let mut jobs = Vec::new();
                    while jobs.is_empty() || Instant::now() < deadline {
                        let req = ((c as u64) << 32) | jobs.len() as u64;
                        jobs.push(one_job(&mut client, cfg.draw(state), tracer, req));
                    }
                    Ok(jobs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("a client panicked".into())))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let mut jobs = Vec::new();
    for r in per_client {
        jobs.extend(r?);
    }
    Ok(Section { jobs, secs })
}

/// What the in-process reference run of one spec observed.
struct Reference {
    manifest: String,
    checkpoint_bytes: Vec<usize>,
    manifest_s: f64,
}

/// Runs `spec` in-process the way the daemon's worker does — randomize,
/// `Session::new`, `run_for` chunks with a checkpoint after each — and
/// returns its canonical manifest.
fn reference(
    w: &Workload,
    spec: &JobSpec,
    tracer: &Tracer,
    parent: Option<SpanId>,
    req: u64,
) -> Result<Reference, String> {
    let sim = SimConfig::builder()
        .engine(spec.engine)
        .rerand_epoch(spec.rerand_epoch)
        .drc_entries(spec.mode.drc_entries())
        .build()
        .map_err(|e| e.to_string())?;
    let rp: Option<RandomizedProgram> = match spec.mode {
        ModeSpec::Base => None,
        _ => Some(
            tracer
                .span("rewriter.randomize", parent, req, |_| {
                    randomize(&w.image, &RandomizeConfig::with_seed(spec.seed))
                })
                .map_err(|e| e.to_string())?,
        ),
    };
    let mode = match (spec.mode, &rp) {
        (ModeSpec::Vcfr { drc_entries }, Some(rp)) => {
            Mode::Vcfr { program: rp, drc: DrcConfig::direct_mapped(drc_entries) }
        }
        (ModeSpec::Naive, Some(rp)) => Mode::NaiveIlr(rp),
        _ => Mode::Baseline(&w.image),
    };
    let mut session = tracer
        .span("sim.session_new", parent, req, |_| Session::new(mode, &sim, spec.max_insts))
        .map_err(|e| e.to_string())?
        .with_sampling((spec.max_insts / 10).max(1));
    let mut checkpoint_bytes = Vec::new();
    loop {
        match tracer.span("sim.run_for", parent, req, |_| session.run_for(spec.checkpoint_every)) {
            Err(e) => return Err(e.to_string()),
            Ok(SessionStatus::Running) => {
                let bytes = tracer.span("sim.checkpoint", parent, req, |_| session.checkpoint());
                checkpoint_bytes.push(bytes.len());
            }
            Ok(SessionStatus::Done(out)) => {
                let (m, manifest_s) = timed(|| {
                    tracer.span("obs.manifest_build", parent, req, |_| {
                        build_engine_manifest(
                            &spec.workload,
                            &spec.manifest_mode(),
                            spec.engine,
                            &out.output.stats,
                            &out.samples,
                            Json::obj(),
                        )
                        .canonical_bytes()
                    })
                });
                return Ok(Reference { manifest: m, checkpoint_bytes, manifest_s });
            }
        }
    }
}

/// Sum of the workers' busy seconds, from the `metrics` op.
fn busy_secs(client: &mut Client) -> Result<f64, String> {
    let m = client.metrics().map_err(|e| e.to_string())?;
    let workers = m.get("workers").and_then(Json::as_arr).ok_or("metrics lack workers")?;
    Ok(workers.iter().filter_map(|w| w.get("busy_secs").and_then(Json::as_f64)).sum())
}

/// Checks every job against the reference manifest of its spec.
fn check_jobs(
    jobs: &[JobRecord],
    refs: &BTreeMap<String, Result<Reference, String>>,
    checks: &mut Checks,
) {
    for j in jobs {
        let key = j.spec.manifest_file_name();
        let verdict = match (&j.manifest, refs.get(&key)) {
            (Err(e), _) => Err(e.clone()),
            (_, None) => Err(format!("{key}: no reference run")),
            (_, Some(Err(e))) => Err(format!("{key}: reference run failed: {e}")),
            (Ok(text), Some(Ok(r))) => {
                let audited = Manifest::from_str(text)
                    .is_ok_and(|m| m.json().get_path("audit.passed") == Some(&Json::Bool(true)));
                if text != &r.manifest {
                    Err(format!("{key}: the daemon's manifest differs from the in-process run"))
                } else if !audited {
                    Err(format!("{key}: cycle audit failed"))
                } else {
                    Ok(())
                }
            }
        };
        checks.check(verdict.is_ok(), || verdict.unwrap_err());
    }
}

/// The `service` workload.
pub fn run(opts: &Opts, cfg: &Config, tracer: &Tracer) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut gen_ms = Vec::new();
    let mut suite = BTreeMap::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        // Stop the previous daemon before timing the next start.
        drop(daemon.take());
        let t0 = Instant::now();
        let (s, gen_s) = timed(|| {
            tracer.span("workloads.generate", None, 0, |_| {
                cfg.apps.iter().filter_map(|a| Some((*a, by_name(a)?))).collect::<BTreeMap<_, _>>()
            })
        });
        let dir = opts.scratch.join(format!("daemon-{i}"));
        let (d, client) =
            tracer.span("service.start", None, i as u64, |_| Daemon::start(&dir, opts.threads))?;
        m.setup_s.push(t0.elapsed().as_secs_f64());
        gen_ms.push(gen_s * 1e3);
        suite = s;
        daemon = Some((d, client, dir));
    }
    let (_daemon, mut control, dir) = daemon.expect("set up at least once");
    if suite.len() != cfg.apps.len() {
        return Err("the job mix names an unknown application".into());
    }
    let mut draws: Vec<u64> = (0..opts.threads as u64)
        .map(|c| cfg.seed ^ (c + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();

    let plain_s = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let Section { jobs: plain, secs } =
        measure(&dir, cfg, &mut draws, plain_s, &Tracer::new(false))?;
    m.timed_s = secs;
    m.latency_s = plain.iter().map(|j| j.latency_s).collect();
    m.ops = plain.iter().filter(|j| j.manifest.is_ok()).count() as u64;
    m.sim_insts = plain.iter().map(|j| j.instructions).sum();

    let mut traced = Vec::new();
    let mut l = Layers::new();
    if opts.trace {
        let ping_ms: Vec<f64> = (0..20)
            .map(|i| timed(|| tracer.span("service.ping", None, i, |_| control.ping())).1 * 1e3)
            .collect();
        let busy0 = busy_secs(&mut control)?;
        let Section { jobs, secs } = measure(&dir, cfg, &mut draws, opts.seconds / 2.0, tracer)?;
        let busy = busy_secs(&mut control)? - busy0;
        l.insert("service.ping_rtt_ms".into(), median(&ping_ms));
        l.insert("service.worker_utilization".into(), busy / (secs * opts.threads as f64));
        let latency_ms: Vec<f64> = jobs.iter().map(|j| j.latency_s * 1e3).collect();
        l.insert("service.job_p50_ms".into(), median(&latency_ms));
        l.insert("service.job_p90_ms".into(), quantile(&latency_ms, 0.9));
        l.insert("service.submit_ms".into(), median(&tracer.ms_of("service.submit")));
        l.insert("service.fetch_ms".into(), median(&tracer.ms_of("service.fetch")));
        let n = jobs.len().max(1) as f64;
        l.insert(
            "service.fetch_polls".into(),
            jobs.iter().map(|j| j.polls).sum::<u64>() as f64 / n,
        );
        l.insert(
            "service.checkpoints_written".into(),
            jobs.iter().map(|j| j.checkpoints).sum::<u64>() as f64,
        );
        l.insert(
            "trace.overhead_frac".into(),
            overhead(&m.latency_s, &jobs.iter().map(|j| j.latency_s).collect::<Vec<_>>()),
        );
        traced = jobs;
    }

    // Reference runs of every spec the mix can draw; traced, each hangs
    // under the first traced job of its spec.
    let mut refs = BTreeMap::new();
    for (i, spec) in cfg.all_specs().iter().enumerate() {
        let key = spec.manifest_file_name();
        let parent = traced.iter().find(|j| j.spec == *spec).and_then(|j| j.span);
        let r = reference(&suite[spec.workload.as_str()], spec, tracer, parent, i as u64);
        refs.insert(key, r);
    }
    check_jobs(&plain, &refs, &mut m.checks);
    check_jobs(&traced, &refs, &mut m.checks);
    let mut digest = String::new();
    for (key, r) in &refs {
        match r {
            Ok(r) => digest.push_str(&r.manifest),
            Err(e) => m.checks.check(false, || format!("{key}: reference run failed: {e}")),
        }
    }
    m.digest = fingerprint(&digest);

    if opts.trace {
        let ok: Vec<&Reference> = refs.values().filter_map(|r| r.as_ref().ok()).collect();
        let us = |name| tracer.ms_of(name).iter().map(|ms| ms * 1e3).collect::<Vec<_>>();
        l.insert("workloads.generate_ms".into(), median(&gen_ms));
        let randomize_ms = tracer.ms_of("rewriter.randomize");
        l.insert("rewriter.randomize_ms".into(), randomize_ms.iter().sum());
        l.insert("rewriter.randomize_calls".into(), randomize_ms.len() as f64);
        l.insert("sim.session_new_us".into(), median(&us("sim.session_new")));
        l.insert("sim.run_for_ms".into(), median(&tracer.ms_of("sim.run_for")));
        l.insert("sim.checkpoint_us".into(), median(&us("sim.checkpoint")));
        let bytes: Vec<f64> =
            ok.iter().flat_map(|r| &r.checkpoint_bytes).map(|&b| b as f64).collect();
        l.insert("sim.checkpoint_bytes".into(), median(&bytes));
        let n = ok.len().max(1) as f64;
        l.insert(
            "obs.manifest_build_ms".into(),
            ok.iter().map(|r| r.manifest_s * 1e3).sum::<f64>() / n,
        );
        l.insert(
            "obs.manifest_bytes".into(),
            ok.iter().map(|r| r.manifest.len() as f64).sum::<f64>() / n,
        );
        let machine_us: Vec<f64> = suite
            .values()
            .map(|w| {
                timed(|| tracer.span("isa.machine_new", None, 0, |_| Machine::new(&w.image))).1
                    * 1e6
            })
            .collect();
        l.insert("isa.machine_new_us".into(), median(&machine_us));
        m.layers = l;
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> Config {
        Config {
            apps: vec!["bzip2", "hmmer"],
            modes: vec![ModeSpec::Base, ModeSpec::vcfr_default()],
            max_insts: 20_000,
            checkpoint_every: 5_000,
            seed,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vcfr-perfbench-{tag}-{}", std::process::id()))
    }

    #[test]
    fn the_mix_depends_only_on_the_seed() {
        let draw = |seed| {
            let cfg = tiny(seed);
            let mut state = seed;
            (0..16).map(|_| cfg.draw(&mut state).manifest_file_name()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn daemon_manifests_match_in_process_runs_across_workers_and_tracing() {
        let cfg = tiny(11);
        let suite: BTreeMap<_, _> = cfg.apps.iter().map(|a| (*a, by_name(a).unwrap())).collect();
        let mut digests = Vec::new();
        for (workers, trace) in [(1, false), (2, true)] {
            let dir = scratch(&format!("w{workers}"));
            let tracer = Tracer::new(trace);
            let (daemon, _) = Daemon::start(&dir, workers).unwrap();
            let mut draws = vec![1, 2];
            let jobs = measure(&dir, &cfg, &mut draws, 0.2, &tracer).unwrap().jobs;
            drop(daemon);
            let _ = std::fs::remove_dir_all(&dir);
            let refs: BTreeMap<_, _> = cfg
                .all_specs()
                .iter()
                .map(|s| {
                    (
                        s.manifest_file_name(),
                        reference(&suite[s.workload.as_str()], s, &tracer, None, 0),
                    )
                })
                .collect();
            let mut checks = Checks::default();
            check_jobs(&jobs, &refs, &mut checks);
            assert!(checks.attempted >= 2);
            assert_eq!(checks.failed, 0, "{:?}", checks.notes);
            let all: String = refs.values().map(|r| r.as_ref().unwrap().manifest.clone()).collect();
            digests.push(fingerprint(&all));
            if trace {
                assert!(!tracer.ms_of("service.submit").is_empty());
                assert!(!tracer.ms_of("sim.checkpoint").is_empty());
            }
        }
        assert_eq!(digests[0], digests[1]);
    }
}
