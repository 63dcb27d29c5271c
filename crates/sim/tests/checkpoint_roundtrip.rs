//! End-to-end checkpoint/resume contract over a real workload: a
//! mid-run snapshot restored into a *freshly constructed* session must
//! finish with byte-identical results, and damaged or mismatched
//! snapshots must be rejected, never silently half-restored.

use vcfr_core::DrcConfig;
use vcfr_rewriter::{randomize, RandomizeConfig};
use vcfr_sim::{
    CheckpointError, EngineKind, Mode, Session, SessionStatus, SimConfig, VcfrError,
    CHECKPOINT_MAGIC,
};
use vcfr_workloads::by_name;

const BUDGET: u64 = 40_000;

fn cfg() -> SimConfig {
    SimConfig { rerand_epoch: Some(9_000), ..SimConfig::default() }
}

/// A VCFR session over the bzip2 workload with sampling on — the same
/// shape the batch service runs.
fn fresh(rp: &vcfr_rewriter::RandomizedProgram) -> Session<'_> {
    Session::new(
        Mode::Vcfr { program: rp, drc: DrcConfig::direct_mapped(64) },
        &cfg(),
        BUDGET,
    )
    .expect("session builds")
    .with_sampling(BUDGET / 10)
}

#[test]
fn mid_run_snapshot_resumes_bit_identically() {
    let w = by_name("bzip2").expect("bzip2 exists");
    let rp = randomize(&w.image, &RandomizeConfig::with_seed(7)).expect("randomizes");

    let mut straight = fresh(&rp);
    let reference = straight.run().expect("straight run finishes");

    let mut first = fresh(&rp);
    assert!(
        matches!(first.run_for(12_000).expect("chunk runs"), SessionStatus::Running),
        "the snapshot is taken mid-run, not after completion"
    );
    let snap = first.checkpoint();
    assert_eq!(&snap[..8], &CHECKPOINT_MAGIC[..], "envelope leads with the magic");
    drop(first);

    let mut resumed = fresh(&rp);
    resumed.restore(&snap).expect("snapshot restores");
    let out = resumed.run().expect("resumed run finishes");

    assert_eq!(out.output.stats, reference.output.stats);
    assert_eq!(out.output.outcome, reference.output.outcome);
    assert_eq!(out.samples, reference.samples);

    // Byte-level identity, not just field equality: the final engine
    // snapshots of the two histories serialize to the same bytes.
    assert_eq!(straight.checkpoint(), resumed.checkpoint());
}

#[test]
fn corrupted_snapshots_are_rejected() {
    let w = by_name("bzip2").expect("bzip2 exists");
    let rp = randomize(&w.image, &RandomizeConfig::with_seed(7)).expect("randomizes");
    let mut s = fresh(&rp);
    s.run_for(8_000).expect("chunk runs");
    let snap = s.checkpoint();

    // A flipped payload byte fails the integrity hash.
    let mut bad = snap.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    assert!(matches!(
        fresh(&rp).restore(&bad),
        Err(VcfrError::Checkpoint(CheckpointError::Corrupt))
    ));

    // A damaged magic never reaches the payload at all.
    let mut bad = snap.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        fresh(&rp).restore(&bad),
        Err(VcfrError::Checkpoint(CheckpointError::Wire(_)))
    ));

    // Truncation is detected, not read past.
    let short = &snap[..snap.len() - 3];
    assert!(fresh(&rp).restore(short).is_err());
}

#[test]
fn version_and_context_mismatches_are_rejected() {
    let w = by_name("bzip2").expect("bzip2 exists");
    let rp = randomize(&w.image, &RandomizeConfig::with_seed(7)).expect("randomizes");
    let mut s = fresh(&rp);
    s.run_for(8_000).expect("chunk runs");
    let snap = s.checkpoint();

    // The version lives right after the magic; a future format must be
    // refused with the found version, per the policy in docs/service.md.
    let mut future = snap.clone();
    future[8] += 1;
    match fresh(&rp).restore(&future) {
        Err(VcfrError::Checkpoint(CheckpointError::Version { found })) => {
            assert_eq!(found, vcfr_sim::CHECKPOINT_VERSION + 1);
        }
        other => panic!("expected a version rejection, got {other:?}"),
    }

    // A session with a different configuration refuses the snapshot.
    let mut other = Session::new(
        Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
        &cfg(),
        BUDGET,
    )
    .expect("session builds")
    .with_sampling(BUDGET / 10);
    assert!(matches!(
        other.restore(&snap),
        Err(VcfrError::Checkpoint(CheckpointError::ContextMismatch))
    ));
}

/// The in-order and multicore payload bytes are pinned by their FNV-1a
/// hash, which the envelope stores in its last 8 bytes. Both runs are
/// VCFR with epoch swaps landing while return addresses are live on the
/// stack, so the pins cover the DRC, the stack-slot bitmap and maps, the
/// epoch tables and the trace ring. A change to either hash changes the
/// checkpoint format and needs a version bump.
#[test]
fn inorder_and_multicore_payload_bytes_are_pinned() {
    let w = by_name("sjeng").expect("sjeng exists");
    let rp = randomize(&w.image, &RandomizeConfig::with_seed(7)).expect("randomizes");
    let mode = Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(64) };
    for (engine, pinned) in [
        (EngineKind::InOrder, 0xc110_01bf_3633_ebb6u64),
        (EngineKind::Multicore { cores: 2 }, 0x0bf2_d653_d7c0_210b),
    ] {
        let cfg = SimConfig { engine, rerand_epoch: Some(1_999), ..SimConfig::default() };
        let mut s = Session::new(mode, &cfg, 20_000).expect("session builds");
        assert!(matches!(s.run_for(9_000).expect("chunk runs"), SessionStatus::Running));
        let stats = s.stats_now();
        assert!(stats.rerand_epochs > 0, "{engine:?}: no epoch swap before the snapshot");
        // Swaps cost 200 + 2 per table entry; anything beyond that is the
        // 4-cycle rewrite of a live return-address slot.
        let quiet = stats.rerand_epochs * (200 + 2 * rp.table.len() as u64);
        assert!(stats.rerand_stall_cycles > quiet, "{engine:?}: no swap landed mid-call");
        let snap = s.checkpoint();
        let hash = u64::from_le_bytes(snap[snap.len() - 8..].try_into().expect("8 bytes"));
        assert_eq!(hash, pinned, "{engine:?}: payload hash {hash:#018x}");
    }
}
