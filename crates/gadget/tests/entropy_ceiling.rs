//! The fuzzer at the top corner of the validated parameter domain
//! (`entropy_bits = 29`, `sparsity = 1024`: a 512 MiB randomization
//! region) completes within bounded host memory.
//!
//! This file is its own test binary on purpose: the bound is checked
//! against the process's peak resident set (`VmHWM`), which no other
//! test may share.
//!
//! The bound is 64 MiB, far below the 512 MiB span. The rewriter
//! materialises only the region's code-bearing pages (a few hundred for
//! sjeng) and the trial's one machine loads just those; every per-probe
//! structure — decode slots, the dirty-page reset, chunked fall-through
//! successors — grows with the pages a probe touches, not with the
//! span. The trial peaked at about 10 MiB on a 2-core x86-64 Linux host.
//! With a dense region image and the machine it was loaded into, the
//! same trial peaked at about 0.52 GiB; building a machine per probe,
//! with dense per-byte indexes, needed several GiB per probe.

use vcfr_core::{DrcConfig, RandParams, MAX_ENTROPY_BITS, MAX_SPARSITY};
use vcfr_gadget::{fuzz_trial, seed_corpus, AttackSurface, FuzzConfig};

/// Peak resident set bound for the whole process, in bytes.
const PEAK_RSS_BOUND: u64 = 64 << 20; // 64 MiB

/// The process's peak resident set in bytes (`VmHWM`), where the
/// platform reports it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[test]
fn fuzzing_the_widest_validated_layout_stays_within_bounded_memory() {
    let params = RandParams {
        entropy_bits: MAX_ENTROPY_BITS,
        sparsity: MAX_SPARSITY,
        rerand_epoch: None,
        drc: DrcConfig::direct_mapped(128),
    };
    params.validate().expect("the corner is inside the validated domain");
    let w = vcfr_workloads::by_name("sjeng").unwrap();
    assert_eq!(params.span_bytes(w.image.text().bytes.len()), 1 << 29, "a 512 MiB region");

    let surface = AttackSurface::scan(&w.image);
    let seeds = seed_corpus(&surface);
    let fz = FuzzConfig { seed: 2015, trials: 1, probes_per_trial: 8, exec_budget: 4096 };
    let report = fuzz_trial(&surface, &seeds, &params, &fz, 0);
    assert_eq!(report.trial, 0);
    assert!(report.probes_spent >= 1 && report.probes_spent <= 8, "{report:?}");
    // The layout randomized: a failed randomize reports zero probes.
    assert!(report.succeeded || report.probes_spent == 8, "{report:?}");

    if cfg!(target_os = "linux") {
        let peak = peak_rss_bytes().expect("Linux reports VmHWM");
        assert!(
            peak <= PEAK_RSS_BOUND,
            "peak RSS {} MiB exceeds the {} MiB bound",
            peak >> 20,
            PEAK_RSS_BOUND >> 20
        );
        eprintln!("e29/s1024 trial: peak RSS {} MiB", peak >> 20);
    }
}
