//! Differential test for the superblock fast path: for every workload
//! and a matrix of configurations, a run with superblocks enabled must
//! be *bit-identical* to the same run with them disabled — same stats
//! snapshot, same architectural outcome, same interval samples, same
//! fault records, same end-of-run trace ring, and same checkpoint bytes
//! at a mid-run boundary.
//!
//! This is the contract `docs/superblocks.md` documents: the fast path
//! is a throughput optimization with no observable footprint.

use vcfr_core::DrcConfig;
use vcfr_isa::{AluOp, Asm, Cond, Reg};
use vcfr_rewriter::{randomize, RandomizeConfig};
use vcfr_sim::{FaultPlan, Mode, Session, SessionOutcome, SessionStatus, SimConfig, TraceEvent};
use vcfr_workloads::Workload;

const SEED: u64 = 2015;

/// The five configurations of the differential matrix.
#[derive(Clone, Copy, Debug)]
enum Config {
    /// Baseline mode, no randomization.
    Base,
    /// Naive hardware ILR: every fetch from the scattered address.
    Naive,
    /// VCFR with a 128-entry direct-mapped DRC.
    Vcfr128,
    /// VCFR with live re-randomization epochs.
    Rerand,
    /// VCFR with a scheduled fault-injection campaign.
    Faulted,
}

const CONFIGS: [Config; 5] =
    [Config::Base, Config::Naive, Config::Vcfr128, Config::Rerand, Config::Faulted];

struct Run {
    outcome: SessionOutcome,
    mid_checkpoint: Vec<u8>,
    trace: Vec<TraceEvent>,
}

/// Runs `w` under `c`, sampling ten intervals, checkpointing once
/// roughly a third of the way in, with the superblock path forced on
/// or off.
fn run(w: &Workload, c: Config, superblocks: bool) -> Run {
    let rp = randomize(&w.image, &RandomizeConfig::with_seed(SEED)).unwrap();
    let cfg = match c {
        Config::Rerand => SimConfig { rerand_epoch: Some(40_000), ..SimConfig::default() },
        _ => SimConfig::default(),
    };
    let mode = match c {
        Config::Base => Mode::Baseline(&w.image),
        Config::Naive => Mode::NaiveIlr(&rp),
        _ => Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
    };
    let mut s = Session::new(mode, &cfg, w.max_insts)
        .unwrap()
        .with_sampling((w.max_insts / 10).max(1))
        .with_superblocks(superblocks);
    if let Config::Faulted = c {
        s = s.with_faults(&FaultPlan::generate(SEED, 12, w.max_insts / 2));
    }
    // `max_insts` is a generous budget, not the actual run length: cap
    // the pre-checkpoint slice low enough that every workload is still
    // mid-flight when the checkpoint is taken.
    let mut mid_checkpoint = Vec::new();
    match s.run_for((w.max_insts / 3).min(20_000)) {
        Ok(SessionStatus::Running) => mid_checkpoint = s.checkpoint(),
        Ok(SessionStatus::Done(_)) => {}
        Err(e) => panic!("{}/{c:?}: {e}", w.name),
    }
    let outcome = s.run().unwrap_or_else(|e| panic!("{}/{c:?}: {e}", w.name));
    Run { outcome, mid_checkpoint, trace: s.trace_events() }
}

fn assert_identical(w: &Workload, c: Config) {
    let on = run(w, c, true);
    let off = run(w, c, false);
    let tag = format!("{}/{c:?}", w.name);
    assert_eq!(on.outcome.output.stats, off.outcome.output.stats, "{tag}: stats diverge");
    assert_eq!(on.outcome.output.outcome, off.outcome.output.outcome, "{tag}: outcome diverges");
    assert_eq!(on.outcome.samples, off.outcome.samples, "{tag}: samples diverge");
    assert_eq!(on.outcome.records, off.outcome.records, "{tag}: fault records diverge");
    assert_eq!(on.outcome.faults, off.outcome.faults, "{tag}: fault stats diverge");
    assert_eq!(on.mid_checkpoint, off.mid_checkpoint, "{tag}: checkpoint bytes diverge");
    assert_eq!(on.trace, off.trace, "{tag}: trace rings diverge");
}

/// A checkpoint taken under one setting must restore and finish
/// identically under the other (the toggle is not part of the context
/// fingerprint).
#[test]
fn checkpoints_interchange_across_the_toggle() {
    let w = vcfr_workloads::by_name("bzip2").unwrap();
    let on = run(&w, Config::Vcfr128, true);
    assert!(!on.mid_checkpoint.is_empty());

    let rp = randomize(&w.image, &RandomizeConfig::with_seed(SEED)).unwrap();
    let cfg = SimConfig::default();
    let mode = Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
    let mut resumed = Session::new(mode, &cfg, w.max_insts)
        .unwrap()
        .with_sampling((w.max_insts / 10).max(1))
        .with_superblocks(false);
    resumed.restore(&on.mid_checkpoint).unwrap();
    let out = resumed.run().unwrap();
    assert_eq!(out.output.stats, on.outcome.output.stats);
    assert_eq!(out.output.outcome, on.outcome.output.outcome);
    assert_eq!(out.samples, on.outcome.samples);
}

/// `CALLS` calls of a function whose body is one straight-line run that
/// loads its own return-address slot, overwrites it (with the same
/// value), and loads it again. With `slot_disp` 0 the slot is the one
/// the call marked; with 8 it is an unmarked word above it.
fn slot_program(slot_disp: i32) -> vcfr_isa::Image {
    let mut a = Asm::new(0x1000);
    a.mov_ri(Reg::Rcx, CALLS as i64);
    let top = a.here();
    a.call_named("f");
    a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
    a.cmp_i(Reg::Rcx, 0);
    a.jcc(Cond::Ne, top);
    a.emit_output(Reg::Rax);
    a.halt();
    a.func("f");
    a.alu_ri(AluOp::Add, Reg::Rax, 3);
    a.load(Reg::Rbx, Reg::Rsp, slot_disp); // marked: one DRC lookup
    a.alu_rr(AluOp::Add, Reg::Rax, Reg::Rbx);
    a.store(Reg::Rsp, slot_disp, Reg::Rbx); // overwrite: clears the mark
    a.load(Reg::Rdx, Reg::Rsp, slot_disp); // unmarked now: no lookup
    a.alu_ri(AluOp::Xor, Reg::Rax, 0x55);
    a.ret();
    a.finish().unwrap()
}

const CALLS: u64 = 24;

/// Runs `img` under VCFR in 7-instruction slices, checkpointing after
/// each; returns the outcome, every checkpoint, the trace ring and the
/// number of replayed instructions.
fn run_sliced(
    img: &vcfr_isa::Image,
    superblocks: bool,
) -> (SessionOutcome, Vec<Vec<u8>>, Vec<TraceEvent>, u64) {
    let rp = randomize(img, &RandomizeConfig::with_seed(SEED)).unwrap();
    let mode = Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(64) };
    let mut s =
        Session::new(mode, &SimConfig::default(), 1_000_000).unwrap().with_superblocks(superblocks);
    let mut checkpoints = Vec::new();
    loop {
        match s.run_for(7).unwrap() {
            SessionStatus::Running => checkpoints.push(s.checkpoint()),
            SessionStatus::Done(out) => {
                return (*out, checkpoints, s.trace_events(), s.progress_now().sb_insts)
            }
        }
    }
}

/// No suite workload loads or overwrites a marked return-address slot
/// outside a call or return, so the grid alone cannot tell whether
/// replay runs the §IV-C stack-slot mediation. This program does both
/// inside a replayed block.
#[test]
fn replayed_blocks_mediate_marked_stack_slots() {
    let img = slot_program(0);
    let (on, on_ckpts, on_trace, replayed) = run_sliced(&img, true);
    let (off, off_ckpts, off_trace, _) = run_sliced(&img, false);
    assert!(replayed > 0, "the slot accesses ran in replayed blocks");
    assert_eq!(on.output.stats, off.output.stats, "stats diverge");
    assert_eq!(on.output.outcome, off.output.outcome, "outcome diverges");
    assert_eq!(on_trace, off_trace, "trace rings diverge");
    assert!(on_ckpts.len() > CALLS as usize);
    assert_eq!(on_ckpts, off_ckpts, "checkpoint bytes diverge");

    // The twin touches an unmarked word instead: the difference in DRC
    // lookups is exactly one de-randomized load per call, so the mark
    // was both honoured by the first load and cleared by the overwrite.
    let (twin, ..) = run_sliced(&slot_program(8), true);
    let lookups = |o: &SessionOutcome| o.output.stats.drc.expect("vcfr run").lookups;
    assert_eq!(lookups(&on), lookups(&twin) + CALLS);
}

// One test per workload so failures localize and the matrix runs in
// parallel under the default test harness.
macro_rules! equiv {
    ($($test:ident => $name:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                let w = vcfr_workloads::by_name($name).unwrap();
                for c in CONFIGS {
                    assert_identical(&w, c);
                }
            }
        )*
    };
}

equiv! {
    equiv_bzip2 => "bzip2",
    equiv_gcc => "gcc",
    equiv_mcf => "mcf",
    equiv_hmmer => "hmmer",
    equiv_sjeng => "sjeng",
    equiv_libquantum => "libquantum",
    equiv_h264ref => "h264ref",
    equiv_lbm => "lbm",
    equiv_xalan => "xalan",
    equiv_namd => "namd",
    equiv_soplex => "soplex",
    equiv_memcpy => "memcpy",
    equiv_python => "python",
}
