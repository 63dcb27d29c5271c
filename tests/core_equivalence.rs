//! Cross-model consistency: the in-order and out-of-order cores are two
//! *timing* views over the same architectural machine, so their
//! functional outcomes and event counts must agree exactly.

use vcfr::core::DrcConfig;
use vcfr::rewriter::{randomize, RandomizeConfig};
use vcfr::sim::{simulate, EngineKind, Mode, Session, SessionOutcome, SimConfig};

/// Runs `mode` to completion on the engine kind `engine`.
fn run_on(engine: EngineKind, mode: Mode, max_insts: u64) -> SessionOutcome {
    let cfg = SimConfig { engine, ..SimConfig::default() };
    Session::new(mode, &cfg, max_insts).unwrap().run().unwrap()
}

#[test]
fn inorder_and_ooo_agree_architecturally() {
    for name in ["bzip2", "sjeng"] {
        let w = vcfr::workloads::by_name(name).unwrap();
        let cfg = SimConfig::default();
        let a = simulate(Mode::Baseline(&w.image), &cfg, w.max_insts).unwrap();
        let b = run_on(EngineKind::Ooo, Mode::Baseline(&w.image), w.max_insts).output;
        assert_eq!(a.outcome.output, b.outcome.output, "{name}");
        assert_eq!(a.stats.instructions, b.stats.instructions, "{name}");
        // Branch event counts are trace properties, identical by
        // construction.
        assert_eq!(a.stats.branch.predictions, b.stats.branch.predictions, "{name}");
        // The wider core must not be slower.
        assert!(b.stats.ipc() >= 0.9 * a.stats.ipc(), "{name}");
    }
}

#[test]
fn vcfr_drc_event_counts_match_across_cores() {
    let w = vcfr::workloads::by_name("hmmer").unwrap();
    let cfg = SimConfig::default();
    let rp = randomize(&w.image, &RandomizeConfig::with_seed(5)).unwrap();
    let mode = || Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
    let a = simulate(mode(), &cfg, w.max_insts).unwrap();
    let b = run_on(EngineKind::Ooo, mode(), w.max_insts).output;
    // Both cores drive the one mediation layer and control resolver, and
    // which lookups happen is a property of the trace, not the timing.
    assert_eq!(a.stats.drc.unwrap(), b.stats.drc.unwrap());
}

#[test]
fn singlecore_and_multicore_agree_for_one_core() {
    // A one-core "multi-core" run is just the in-order model with the
    // shared-L2 plumbing; IPC should be close.
    let w = vcfr::workloads::by_name("lbm").unwrap();
    let cfg = SimConfig::default();
    let solo = simulate(Mode::Baseline(&w.image), &cfg, 300_000).unwrap();
    let multi = run_on(EngineKind::Multicore { cores: 1 }, Mode::Baseline(&w.image), 300_000)
        .multicore
        .unwrap();
    assert_eq!(multi.per_core.len(), 1);
    assert_eq!(multi.per_core[0].instructions, solo.stats.instructions);
    let ratio = multi.per_core[0].ipc() / solo.stats.ipc();
    assert!((0.8..1.25).contains(&ratio), "ipc ratio {ratio}");
}
