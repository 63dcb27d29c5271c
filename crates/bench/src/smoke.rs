//! The determinism checks every `repro` smoke shares, written once.
//!
//! A smoke declares a *campaign* — a function from a worker-thread
//! count to its results and their run manifests — and names the checks
//! it applies:
//!
//! * [`thread_stable`] — canonical bytes equal at 1 and 2 threads;
//! * [`audits_close`] — every manifest's `audit` block passes;
//! * [`round_trips`] — written, parsed back, canonical bytes equal;
//! * [`matches_tree`] — canonical bytes equal to a checked-in tree.
//!
//! Each check prints a `PASS` line (stdout) or a `FAIL` line (stderr)
//! per manifest and folds the outcome into a [`Verdict`]; the smoke adds
//! only its own domain assertions through [`Verdict::check`].

use crate::manifests::write_manifests;
use std::fmt::Display;
use std::path::Path;
use vcfr_obs::{CycleAccounting, Manifest};

/// The running outcome of one smoke: every failed check clears it.
#[derive(Debug)]
pub struct Verdict {
    ok: bool,
}

impl Default for Verdict {
    fn default() -> Verdict {
        Verdict { ok: true }
    }
}

impl Verdict {
    /// Whether every check so far passed.
    pub fn ok(&self) -> bool {
        self.ok
    }

    /// Records one check: `PASS <what>` on stdout, or `FAIL <what>` on
    /// stderr and the verdict fails.
    pub fn check(&mut self, pass: bool, what: impl Display) {
        if pass {
            println!("PASS {what}");
        } else {
            eprintln!("FAIL {what}");
            self.ok = false;
        }
    }
}

/// Runs `campaign` at 1 and at 2 worker threads and checks the two
/// manifest lists agree in canonical bytes, manifest by manifest.
/// Returns the 1-thread run for the smoke's further checks.
pub fn thread_stable<T>(
    v: &mut Verdict,
    campaign: impl Fn(usize) -> (T, Vec<Manifest>),
) -> (T, Vec<Manifest>) {
    let (out, ms) = campaign(1);
    let (_, again) = campaign(2);
    same_bytes(v, &ms, &again, "1 vs 2 threads");
    (out, ms)
}

/// Checks `a` and `b` name the same manifests with the same canonical
/// bytes, in order; `what` says which two runs they came from.
pub fn same_bytes(v: &mut Verdict, a: &[Manifest], b: &[Manifest], what: &str) {
    v.check(a.len() == b.len(), format_args!("{what}: {} vs {} manifests", a.len(), b.len()));
    for (x, y) in a.iter().zip(b) {
        let same = x.file_name() == y.file_name() && x.canonical_bytes() == y.canonical_bytes();
        v.check(same, format_args!("{:<28} canonical bytes equal, {what}", x.file_name()));
    }
}

/// Re-runs the cycle-accounting audit on the terms each manifest's
/// `audit` block carries (the in-order identities; multicore manifests
/// carry the per-core sums, on which they close unchanged).
pub fn audits_close(v: &mut Verdict, ms: &[Manifest]) {
    for m in ms {
        let Some(a) = m.json().get("audit").and_then(CycleAccounting::from_json) else {
            v.check(false, format_args!("{}: manifest has no audit block", m.file_name()));
            continue;
        };
        let report = a.audit();
        v.check(
            report.passed(),
            format_args!(
                "{:<28} audit closes: {} cycles, coverage {:.3}{}",
                m.file_name(),
                a.cycles,
                a.coverage(),
                report.failures.iter().map(|f| format!("; {f}")).collect::<String>()
            ),
        );
    }
}

/// Writes `ms` to `dir`, parses every file back, and checks it has the
/// canonical bytes of the manifest it came from.
pub fn round_trips(v: &mut Verdict, ms: &[Manifest], dir: &Path) {
    if let Err(e) = write_manifests(dir, ms) {
        v.check(false, format_args!("cannot write {}: {e}", dir.display()));
        return;
    }
    for m in ms {
        same_as_file(v, m, dir, "round-trips through");
    }
}

/// Checks the checked-in tree `dir` holds exactly `ms`: one file per
/// manifest with its canonical bytes, and no other manifest.
pub fn matches_tree(v: &mut Verdict, ms: &[Manifest], dir: &Path) {
    for m in ms {
        same_as_file(v, m, dir, "matches");
    }
    let stored = std::fs::read_dir(dir).map_or(0, |es| {
        es.filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .count()
    });
    v.check(
        stored == ms.len(),
        format_args!("{} holds {stored} manifests; the run made {}", dir.display(), ms.len()),
    );
}

/// Compares `m` with the manifest stored under its file name in `dir`.
fn same_as_file(v: &mut Verdict, m: &Manifest, dir: &Path, verb: &str) {
    let path = dir.join(m.file_name());
    let stored = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| Manifest::from_str(&text).map_err(|e| e.to_string()));
    let why = match stored {
        Ok(s) if s.canonical_bytes() == m.canonical_bytes() => String::new(),
        Ok(_) => ": canonical bytes differ".to_string(),
        Err(e) => format!(": {e}"),
    };
    v.check(why.is_empty(), format_args!("{:<28} {verb} {}{why}", m.file_name(), path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcfr_obs::{Json, Snapshot};

    fn manifest(app: &str, threads: u64) -> Manifest {
        let mut config = Json::obj();
        config.set("fingerprint", Json::Str("f".into()));
        let mut host = Json::obj();
        host.set("threads", Json::U64(threads));
        let mut m = Manifest::new(app, "base");
        m.set_config(config).set_counters(&Snapshot::default()).set_host(host);
        m
    }

    #[test]
    fn thread_stable_ignores_the_host_block_only() {
        let mut v = Verdict::default();
        let (out, ms) = thread_stable(&mut v, |t| (t, vec![manifest("a", t as u64)]));
        assert!(v.ok());
        assert_eq!((out, ms.len()), (1, 1));
        let mut v = Verdict::default();
        thread_stable(&mut v, |t| ((), vec![manifest(if t == 1 { "a" } else { "b" }, 1)]));
        assert!(!v.ok(), "different manifests must fail");
        let mut v = Verdict::default();
        thread_stable(&mut v, |t| ((), vec![manifest("a", 1); t]));
        assert!(!v.ok(), "a missing manifest must fail");
    }

    #[test]
    fn trees_must_hold_exactly_the_run() {
        let dir = std::env::temp_dir().join(format!("vcfr-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ms = vec![manifest("a", 1), manifest("b", 1)];
        let mut v = Verdict::default();
        round_trips(&mut v, &ms, &dir);
        matches_tree(&mut v, &ms, &dir);
        assert!(v.ok());
        matches_tree(&mut v, &ms[..1], &dir);
        assert!(!v.ok(), "an extra stored manifest must fail");
        let mut v = Verdict::default();
        matches_tree(&mut v, &[manifest("c", 1)], &dir);
        assert!(!v.ok(), "a missing file must fail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audits_need_an_audit_block() {
        let mut v = Verdict::default();
        audits_close(&mut v, &[manifest("a", 1)]);
        assert!(!v.ok());
    }
}
