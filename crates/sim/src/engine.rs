//! The trace-driven cycle engine: an in-order single-issue pipeline
//! (fetch → decode → alloc → exec → commit) timed over the architectural
//! instruction stream of the functional interpreter.
//!
//! Three execution modes reproduce the paper's three machines:
//!
//! * [`Mode::Baseline`] — the original binary, no randomization;
//! * [`Mode::NaiveIlr`] — straightforward hardware ILR: instructions are
//!   fetched from their *scattered* randomized addresses (the address
//!   mapping itself is free, as the paper assumes), destroying fetch
//!   locality;
//! * [`Mode::Vcfr`] — virtual control flow randomization: fetch stays in
//!   the original space, and a [`vcfr_core::Drc`] translates at control
//!   transfers, calls, returns and marked stack loads, walking the
//!   in-memory tables through the unified L2 on a miss. That mediation
//!   layer lives in `mediation.rs`, shared with the other engines.

use crate::config::SimConfig;
use crate::faults::{
    ContainmentPolicy, FaultOutcome, FaultPersistence, FaultPlan, FaultRecord, FaultStats,
    FaultTarget, ScheduledFault,
};
use crate::hierarchy::MemoryHierarchy;
use crate::mediation::Mediation;
use crate::predict::Predictors;
use crate::stats::SimStats;
use std::collections::VecDeque;
use std::fmt;
use vcfr_core::{DrcConfig, RandAddr};
use vcfr_isa::wire::{Reader, WireError, Writer};
use vcfr_isa::{Addr, ExecError, Image, Inst, MemAccess, RunOutcome, SbInst, StepInfo};
use vcfr_obs::TraceRing;
use vcfr_rewriter::RandomizedProgram;

/// Which machine to simulate.
#[derive(Clone, Copy, Debug)]
pub enum Mode<'a> {
    /// The original binary with no randomization.
    Baseline(&'a Image),
    /// Straightforward hardware ILR over the scattered layout.
    NaiveIlr(&'a RandomizedProgram),
    /// Virtual control flow randomization with a DRC of the given
    /// geometry.
    Vcfr {
        /// The randomized program (layout + tables).
        program: &'a RandomizedProgram,
        /// DRC geometry.
        drc: DrcConfig,
    },
}

impl<'a> Mode<'a> {
    /// The image the architecture executes (always the original
    /// semantics).
    pub(crate) fn image_ref(&self) -> &'a Image {
        match *self {
            Mode::Baseline(img) => img,
            Mode::NaiveIlr(rp) | Mode::Vcfr { program: rp, .. } => &rp.original,
        }
    }

    /// The address the instruction at architectural `pc` is fetched from:
    /// its scattered address under naive ILR, `pc` itself otherwise. The
    /// branch predictors are indexed in this space too.
    pub(crate) fn fetch_addr(&self, pc: Addr) -> Addr {
        match self {
            Mode::NaiveIlr(rp) => rp.rand_or_orig(pc),
            _ => pc,
        }
    }

    /// The randomized program and DRC geometry of a VCFR machine (`None`
    /// for the other two).
    pub(crate) fn vcfr(&self) -> Option<(&'a RandomizedProgram, DrcConfig)> {
        match *self {
            Mode::Vcfr { program, drc } => Some((program, drc)),
            _ => None,
        }
    }
}

/// Extra execution latency of long-running operations, shared by the
/// in-order and out-of-order cores.
pub(crate) fn exec_extra_cycles(inst: &Inst) -> u64 {
    use vcfr_isa::AluOp::*;
    match inst {
        Inst::AluRR { op, .. } | Inst::AluRI { op, .. } => match op {
            Mul => 2,
            Div | Rem => 12,
            _ => 0,
        },
        _ => 0,
    }
}

/// One entry in the post-mortem trace ring: something the pipeline did
/// at a point in simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Committed-instruction sequence number (1-based).
    pub seq: u64,
    /// Architectural PC of the instruction the event belongs to.
    pub pc: Addr,
    /// Simulated cycle the event is anchored to.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The kinds of pipeline events the trace ring records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The instruction left the timing model.
    Commit,
    /// Instruction fetch stalled (IL1 miss, iTLB walk).
    FetchStall {
        /// Stall cycles.
        cycles: u64,
    },
    /// The front end was redirected (misprediction, BTB miss,
    /// DRC-miss redirect).
    Redirect {
        /// Cycle fetch resumes at.
        resume_at: u64,
    },
    /// A DRC miss walked the in-memory translation tables.
    DrcWalk {
        /// Walk latency in cycles.
        cycles: u64,
    },
    /// A scheduled fault was injected into the mediation state.
    FaultInjected {
        /// Where the flip landed.
        target: FaultTarget,
    },
    /// The mediation layer detected an injected fault.
    FaultDetected {
        /// Where the flip landed.
        target: FaultTarget,
    },
    /// An epoch re-randomization swapped the live layout and tables.
    Rerand {
        /// Pipeline pause charged for the swap.
        cycles: u64,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} pc={:#x} cycle={} ", self.seq, self.pc, self.cycle)?;
        match self.kind {
            TraceEventKind::Commit => write!(f, "commit"),
            TraceEventKind::FetchStall { cycles } => write!(f, "fetch stall {cycles}"),
            TraceEventKind::Redirect { resume_at } => {
                write!(f, "redirect, fetch resumes at {resume_at}")
            }
            TraceEventKind::DrcWalk { cycles } => write!(f, "drc walk {cycles}"),
            TraceEventKind::FaultInjected { target } => write!(f, "fault injected into {target}"),
            TraceEventKind::FaultDetected { target } => write!(f, "fault in {target} detected"),
            TraceEventKind::Rerand { cycles } => write!(f, "rerand epoch swap, {cycles} cycles"),
        }
    }
}

/// A simulation failure.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The program faulted architecturally.
    Exec {
        /// The architectural fault.
        cause: ExecError,
        /// The last pipeline events before the fault (contents of the
        /// trace ring, oldest first; empty when tracing is disabled or
        /// the fault did not pass through the timing engine).
        trace: Vec<TraceEvent>,
    },
    /// An injected sticky fault could not be contained under
    /// [`ContainmentPolicy::Halt`]: the machine stopped rather than run
    /// on corrupted translation state.
    Fault {
        /// Committed-instruction count at the halt.
        at_inst: u64,
        /// The structure holding the uncorrectable fault.
        target: FaultTarget,
        /// The last pipeline events before the halt.
        trace: Vec<TraceEvent>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Exec { cause, trace } => {
                write!(f, "architectural fault: {cause}")?;
                if !trace.is_empty() {
                    write!(f, "\nlast {} pipeline events:", trace.len())?;
                    for e in trace {
                        write!(f, "\n  {e}")?;
                    }
                }
                Ok(())
            }
            SimError::Fault { at_inst, target, trace } => {
                write!(f, "uncorrectable sticky fault in {target} at instruction {at_inst} (policy: halt)")?;
                if !trace.is_empty() {
                    write!(f, "\nlast {} pipeline events:", trace.len())?;
                    for e in trace {
                        write!(f, "\n  {e}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> SimError {
        SimError::Exec { cause: e, trace: Vec::new() }
    }
}

/// The result of a simulation: timing statistics plus the architectural
/// outcome (output values, stop reason).
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Timing and event counters.
    pub stats: SimStats,
    /// The functional result.
    pub outcome: RunOutcome,
}

/// Pipeline depth between fetch completion and execute.
const DECODE_DEPTH: u64 = 3;

pub(crate) struct Engine<'a> {
    pub(crate) cfg: SimConfig,
    /// The machine this core simulates.
    pub(crate) mode: Mode<'a>,
    pub(crate) hier: MemoryHierarchy,
    pub(crate) pred: Predictors,
    pub(crate) fetch_time: u64,
    pub(crate) backend_time: u64,
    pub(crate) redirect_at: u64,
    pub(crate) window_line: Option<Addr>,
    pub(crate) iq: VecDeque<u64>,
    /// The VCFR mediation layer (`None` outside VCFR mode).
    pub(crate) med: Option<Mediation<'a>>,
    pub(crate) fstats: FaultStats,
    pub(crate) frecords: Vec<FaultRecord>,
    pub(crate) fetch_stall: u64,
    pub(crate) load_stall: u64,
    pub(crate) redirect_stall: u64,
    pub(crate) drc_walk: u64,
    pub(crate) exec_extra: u64,
    pub(crate) instructions: u64,
    pub(crate) trace: TraceRing<TraceEvent>,
    /// PC of the instruction currently stepping (for events recorded in
    /// helpers that don't see `StepInfo`).
    pub(crate) cur_pc: Addr,
}

/// Per-instruction timing precompute for superblock replay: everything
/// `Engine::step` needs from `StepInfo` for an eligible instruction
/// (no control transfer, fault or stop), flattened so the batched path
/// touches no decoder state. Built once, when the block is formed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReplayInst {
    /// Architectural pc (what trace events carry).
    pub(crate) pc: Addr,
    /// Address the instruction's bytes are fetched from: `pc` in
    /// baseline and VCFR modes, its scattered address under naive ILR.
    pub(crate) fetch: Addr,
    /// Address of the fetched instruction's final byte (`fetch + len - 1`).
    pub(crate) last: Addr,
    /// Extra execute cycles ([`exec_extra_cycles`]), e.g. 2 for `mul`.
    pub(crate) extra: u64,
    /// Whether the instruction makes one data access
    /// ([`Inst::accesses_memory`]).
    pub(crate) mem: bool,
}

impl ReplayInst {
    /// The precompute for `s`, fetched from `fetch`.
    pub(crate) fn new(s: &SbInst, fetch: Addr) -> ReplayInst {
        ReplayInst {
            pc: s.pc,
            fetch,
            last: fetch + s.len as Addr - 1,
            extra: exec_extra_cycles(&s.inst),
            mem: s.inst.accesses_memory(),
        }
    }
}

/// Records one trace event. A free function so call sites can borrow the
/// ring alongside other `Engine` fields (e.g. while the DRC is borrowed).
#[inline]
fn trace_push(trace: &mut TraceRing<TraceEvent>, seq: u64, pc: Addr, cycle: u64, kind: TraceEventKind) {
    trace.push(TraceEvent { seq, pc, cycle, kind });
}

impl<'a> Engine<'a> {
    pub(crate) fn new(cfg: &SimConfig, mode: Mode<'a>) -> Engine<'a> {
        let mut hier = MemoryHierarchy::new(cfg);
        let med = Mediation::new(&mode, cfg, &mut hier);
        Engine {
            cfg: *cfg,
            mode,
            hier,
            pred: Predictors::new(cfg),
            fetch_time: 0,
            backend_time: 0,
            redirect_at: 0,
            window_line: None,
            iq: VecDeque::new(),
            med,
            fstats: FaultStats::default(),
            frecords: Vec::new(),
            fetch_stall: 0,
            load_stall: 0,
            redirect_stall: 0,
            drc_walk: 0,
            exec_extra: 0,
            instructions: 0,
            trace: TraceRing::new(cfg.trace_events),
            cur_pc: 0,
        }
    }

    /// Packages an architectural fault with the post-mortem trace.
    pub(crate) fn fault(&self, cause: ExecError) -> SimError {
        SimError::Exec { cause, trace: self.trace.to_vec() }
    }

    fn redirect(&mut self, at: u64) {
        if at > self.redirect_at {
            // A redirect only stalls fetch for the cycles past the point
            // fetch has already reached. When it lands exactly on (or
            // behind) `fetch_time`, the front end never waits: the
            // contribution is zero, not a wrapped subtraction.
            self.redirect_stall += at.saturating_sub(self.redirect_at.max(self.fetch_time));
            self.redirect_at = at;
            trace_push(
                &mut self.trace,
                self.instructions,
                self.cur_pc,
                at,
                TraceEventKind::Redirect { resume_at: at },
            );
        }
    }

    /// One instruction through the timing model.
    pub(crate) fn step(&mut self, info: &StepInfo) {
        self.instructions += 1;
        self.cur_pc = info.pc;
        let cfg = self.cfg;

        // Context-switch DRC flushes and live re-randomization (§V-C):
        // both land before the instruction's fetch.
        if self.med.as_mut().is_some_and(|m| m.tick(self.instructions)) {
            self.rerand();
        }

        // ---- fetch ------------------------------------------------------
        let mut start = self.fetch_time.max(self.redirect_at);
        if self.iq.len() >= cfg.iq_entries {
            if let Some(oldest) = self.iq.pop_front() {
                start = start.max(oldest);
            }
        }
        let mut stall = 0;
        let line_bytes = cfg.il1.line_bytes as Addr;
        let fetch_pc = self.mode.fetch_addr(info.pc);
        let first = fetch_pc & !(line_bytes - 1);
        let last = (fetch_pc + info.len as Addr - 1) & !(line_bytes - 1);
        let mut line = first;
        loop {
            if self.window_line != Some(line) {
                stall += self.hier.fetch_line(line, start);
                self.window_line = Some(line);
            }
            if line == last {
                break;
            }
            line += line_bytes;
        }
        let fetch_done = start + 1 + stall;
        self.fetch_stall += stall;
        self.fetch_time = fetch_done;
        if stall > 0 {
            trace_push(
                &mut self.trace,
                self.instructions,
                info.pc,
                fetch_done,
                TraceEventKind::FetchStall { cycles: stall },
            );
        }

        // ---- backend ----------------------------------------------------
        let exec_start = (self.backend_time + 1).max(fetch_done + DECODE_DEPTH);
        self.iq.push_back(exec_start);

        let extra = exec_extra_cycles(&info.inst);
        self.exec_extra += extra;
        let mut exec_end = exec_start + extra;
        for acc in info.mem_accesses() {
            let lat = self.hier.data_access(acc.addr, acc.write, exec_start);
            self.load_stall += lat;
            exec_end += lat;
        }

        // ---- VCFR mediation layer ----------------------------------------
        if let Some(med) = &mut self.med {
            exec_end += med.mediate(info, &mut self.hier, exec_start, |cycles| {
                self.drc_walk += cycles;
                let walk = TraceEventKind::DrcWalk { cycles };
                trace_push(&mut self.trace, self.instructions, info.pc, exec_start, walk);
            });
        }

        // ---- control flow ------------------------------------------------
        if let Some(cf) = info.control {
            let (med, hier) = (self.med.as_mut(), &mut self.hier);
            let r = self.pred.resolve(info.pc, cf, &self.mode, med, hier, fetch_done, exec_end);
            self.walked(r.walk, exec_end);
            if let Some(at) = r.redirect {
                self.redirect(at);
            }
            // A taken transfer resets the byte queue: the fetch unit
            // re-fetches the target line even when it is the line it was
            // already streaming (XIOSim's byteQ behaviour).
            if cf.taken_target().is_some() {
                self.window_line = None;
            }
        }

        self.backend_time = exec_end;
        trace_push(&mut self.trace, self.instructions, info.pc, exec_end, TraceEventKind::Commit);
    }

    /// Replays a run of superblock instructions through the timing model.
    ///
    /// Bit-for-bit equivalent to calling [`Engine::step`] once per
    /// instruction when every instruction is superblock-eligible (no
    /// control transfer, no fault, no stop) and `accesses` holds the
    /// data accesses the machine reported for the run, in order — one
    /// for each instruction whose `mem` flag is set. The per-step work
    /// that is provably a no-op for such instructions — the mediation
    /// tick (the caller caps `insts` short of
    /// [`Mediation::next_boundary`]), the call and return half of
    /// [`Mediation::mediate`], and the control-flow hand-off — is
    /// skipped; everything else runs exactly as in `step`: cache, TLB
    /// and prefetcher state advanced by `fetch_line` even on hits, the
    /// data accesses, the §IV-C stack-slot mediation (through the same
    /// [`Mediation::mediate_slot`]), and the FetchStall/Commit/DrcWalk
    /// trace events.
    pub(crate) fn replay_block(&mut self, insts: &[ReplayInst], accesses: &[MemAccess]) {
        let cfg = self.cfg;
        let line_bytes = cfg.il1.line_bytes as Addr;
        let line_mask = !(line_bytes - 1);
        let mut accesses = accesses.iter();
        for ri in insts {
            self.instructions += 1;
            self.cur_pc = ri.pc;

            // ---- fetch --------------------------------------------------
            let mut start = self.fetch_time.max(self.redirect_at);
            if self.iq.len() >= cfg.iq_entries {
                if let Some(oldest) = self.iq.pop_front() {
                    start = start.max(oldest);
                }
            }
            let mut stall = 0;
            let first = ri.fetch & line_mask;
            let last = ri.last & line_mask;
            let mut line = first;
            loop {
                if self.window_line != Some(line) {
                    stall += self.hier.fetch_line(line, start);
                    self.window_line = Some(line);
                }
                if line == last {
                    break;
                }
                line += line_bytes;
            }
            let fetch_done = start + 1 + stall;
            self.fetch_stall += stall;
            self.fetch_time = fetch_done;
            if stall > 0 {
                trace_push(
                    &mut self.trace,
                    self.instructions,
                    ri.pc,
                    fetch_done,
                    TraceEventKind::FetchStall { cycles: stall },
                );
            }

            // ---- backend ------------------------------------------------
            let exec_start = (self.backend_time + 1).max(fetch_done + DECODE_DEPTH);
            self.iq.push_back(exec_start);
            self.exec_extra += ri.extra;
            let mut exec_end = exec_start + ri.extra;
            if ri.mem {
                let acc = *accesses.next().expect("one access per memory instruction");
                let lat = self.hier.data_access(acc.addr, acc.write, exec_start);
                self.load_stall += lat;
                exec_end += lat;
                if let Some(med) = &mut self.med {
                    let walk = med.mediate_slot(acc, &mut self.hier, exec_start);
                    exec_end += self.walked(walk, exec_start);
                }
            }
            self.backend_time = exec_end;
            trace_push(&mut self.trace, self.instructions, ri.pc, exec_end, TraceEventKind::Commit);
        }
        debug_assert!(accesses.next().is_none(), "every access belongs to an instruction");
    }

    /// Counts `cycles` of DRC table walk started at cycle `now` and, when
    /// there are any, records a DrcWalk trace event. Returns `cycles`.
    fn walked(&mut self, cycles: u64, now: u64) -> u64 {
        if cycles > 0 {
            self.drc_walk += cycles;
            let walk = TraceEventKind::DrcWalk { cycles };
            trace_push(&mut self.trace, self.instructions, self.cur_pc, now, walk);
        }
        cycles
    }

    /// Performs an epoch swap on the mediation layer (§V-C). The whole
    /// pause is charged by advancing both clocks, so the cycle-accounting
    /// floor identity (`cycles ≥ busy + load + rerand`) holds exactly.
    fn rerand(&mut self) {
        let Some(med) = &mut self.med else { return };
        let cost = med.swap_epoch();
        let now = self.backend_time.max(self.fetch_time) + cost;
        self.fetch_time = now;
        self.backend_time = now;
        self.redirect_at = self.redirect_at.max(now);
        self.window_line = None;
        trace_push(
            &mut self.trace,
            self.instructions,
            self.cur_pc,
            now,
            TraceEventKind::Rerand { cycles: cost },
        );
    }

    /// Injects one scheduled fault, classifying its outcome against the
    /// live structures. Injection is counterfactual — the golden
    /// architectural run is never corrupted — but detected faults charge
    /// their trap-and-refill recovery to the pipeline, and a sticky table
    /// fault either triggers an emergency re-randomization or halts the
    /// machine, per `policy`.
    pub(crate) fn inject_fault(
        &mut self,
        f: &ScheduledFault,
        policy: ContainmentPolicy,
    ) -> Result<FaultOutcome, SimError> {
        trace_push(
            &mut self.trace,
            self.instructions,
            self.cur_pc,
            self.backend_time,
            TraceEventKind::FaultInjected { target: f.target },
        );
        let image = self.mode.image_ref();
        let bit = 1u32 << (f.bit % 32);
        let outcome = match (f.target, self.med.as_mut()) {
            // Baseline machine: the mediation hardware does not exist, so
            // flips aimed at it land in dead state; a corrupted PC is only
            // caught when it leaves the text segment.
            (
                FaultTarget::DrcEntry | FaultTarget::TableSlot | FaultTarget::StackBitmap,
                None,
            ) => FaultOutcome::Masked,
            (FaultTarget::Rpc | FaultTarget::Upc, None) => {
                if image.in_text(self.cur_pc ^ bit) {
                    FaultOutcome::Silent
                } else {
                    FaultOutcome::DetectedDecodeFailure
                }
            }
            // A flip in a valid DRC entry trips its parity on the next
            // probe and the entry scrubs (the refill is a natural miss, so
            // no extra charge); an invalid entry absorbs the flip.
            (FaultTarget::DrcEntry, Some(med)) => {
                if med.drc.scrub_entry(f.lane as usize) {
                    FaultOutcome::DetectedParityScrub
                } else {
                    FaultOutcome::Masked
                }
            }
            // Table slots are parity-protected too. A transient flip
            // scrubs and the slot rewrites from the layout; a sticky one
            // keeps re-asserting and must be contained.
            (FaultTarget::TableSlot, Some(_)) => match f.persistence {
                FaultPersistence::Transient => FaultOutcome::DetectedParityScrub,
                FaultPersistence::Sticky => match policy {
                    ContainmentPolicy::Recover => {
                        self.rerand();
                        self.fstats.emergency_rerands += 1;
                        FaultOutcome::Contained
                    }
                    ContainmentPolicy::Halt => {
                        return Err(SimError::Fault {
                            at_inst: self.instructions,
                            target: f.target,
                            trace: self.trace.to_vec(),
                        });
                    }
                },
            },
            // A flipped randomized PC almost never lands on another valid
            // randomized address: de-randomization rejects it — the same
            // prohibited/unmapped check that stops an attacker. Classify
            // through the pure table walk so the DRC state and stats of
            // the golden run are untouched.
            (FaultTarget::Rpc, Some(med)) => {
                match med.table().derand(RandAddr(med.rand_of(self.cur_pc) ^ bit)) {
                    Err(_) => FaultOutcome::DetectedTranslationFault,
                    Ok(o) if o.raw() == self.cur_pc => FaultOutcome::Masked,
                    Ok(_) => FaultOutcome::Silent,
                }
            }
            // A flipped un-randomized (fetch-space) PC: the TLB
            // page-visibility bit catches wanders into table pages,
            // decode catches exits from the text segment.
            (FaultTarget::Upc, Some(_)) => {
                let flipped = self.cur_pc ^ bit;
                if !self.hier.dtlb.user_visible(flipped) {
                    self.hier.dtlb.record_visibility_fault();
                    FaultOutcome::DetectedVisibilityFault
                } else if !image.in_text(flipped) {
                    FaultOutcome::DetectedDecodeFailure
                } else {
                    FaultOutcome::Silent
                }
            }
            // A flipped bitmap word either spuriously de-randomizes a
            // plain value or returns a raw randomized address — both fail
            // de-randomization when any slot is live; an idle bitmap
            // absorbs the flip.
            (FaultTarget::StackBitmap, Some(med)) => {
                if med.bitmap.marked_count() > 0 {
                    FaultOutcome::DetectedTranslationFault
                } else {
                    FaultOutcome::Masked
                }
            }
        };
        if outcome.detected() {
            trace_push(
                &mut self.trace,
                self.instructions,
                self.cur_pc,
                self.backend_time,
                TraceEventKind::FaultDetected { target: f.target },
            );
            // Trap-and-refill recovery for faults caught on the fetch
            // path (containment already charged the full swap).
            if outcome != FaultOutcome::Contained && outcome != FaultOutcome::DetectedParityScrub
            {
                let resume =
                    self.backend_time.max(self.fetch_time) + self.cfg.mispredict_penalty;
                self.redirect(resume);
            }
        }
        Ok(outcome)
    }

    pub(crate) fn stats_now(&self) -> SimStats {
        SimStats {
            instructions: self.instructions,
            cycles: self.backend_time.max(self.fetch_time),
            il1: self.hier.il1.stats(),
            dl1: self.hier.dl1.stats(),
            l2: self.hier.l2.stats(),
            itlb: self.hier.itlb.stats(),
            dtlb: self.hier.dtlb.stats(),
            dram: self.hier.dram.stats(),
            branch: self.pred.stats,
            drc: self.med.as_ref().map(|m| m.drc.stats()),
            drc_walk_cycles: self.drc_walk,
            fetch_stall_cycles: self.fetch_stall,
            load_stall_cycles: self.load_stall,
            redirect_stall_cycles: self.redirect_stall,
            l2_reads_from_l1: self.hier.l2_reads_from_l1,
            exec_extra_cycles: self.exec_extra,
            rerand_epochs: self.med.as_ref().map_or(0, |m| m.rerand_epochs),
            rerand_stall_cycles: self.med.as_ref().map_or(0, |m| m.rerand_stall),
            contention_stall_cycles: self.hier.contention_cycles,
        }
    }

    /// Serialises the entire engine state in field-declaration order
    /// (checkpoint support). The configuration and mode are *not*
    /// written: the checkpoint envelope's context fingerprint pins them,
    /// and [`Engine::restore`] rebuilds from the same ones.
    pub(crate) fn save(&self, w: &mut Writer) {
        self.hier.save(w);
        self.pred.save(w);
        w.u64(self.fetch_time);
        w.u64(self.backend_time);
        w.u64(self.redirect_at);
        match self.window_line {
            Some(line) => {
                w.u8(1);
                w.u32(line);
            }
            None => w.u8(0),
        }
        w.u64(self.iq.len() as u64);
        for &t in &self.iq {
            w.u64(t);
        }
        Mediation::save(self.med.as_ref(), w);
        save_fault_stats(&self.fstats, w);
        w.u64(self.frecords.len() as u64);
        for rec in &self.frecords {
            w.u64(rec.at_inst);
            w.u8(target_tag(rec.target));
            w.u8(persistence_tag(rec.persistence));
            w.u8(outcome_tag(rec.outcome));
        }
        w.u64(self.fetch_stall);
        w.u64(self.load_stall);
        w.u64(self.redirect_stall);
        w.u64(self.drc_walk);
        w.u64(self.exec_extra);
        w.u64(self.instructions);
        w.u64(self.trace.total_pushed());
        let items = self.trace.to_vec();
        w.u64(items.len() as u64);
        for e in &items {
            save_trace_event(e, w);
        }
        w.u32(self.cur_pc);
    }

    /// Rebuilds an engine from [`Engine::save`] output. `cfg` and `mode`
    /// must match the configuration the saved engine ran under (the
    /// checkpoint envelope enforces this before the bytes get here).
    pub(crate) fn restore(
        cfg: &SimConfig,
        mode: Mode<'a>,
        r: &mut Reader<'_>,
    ) -> Result<Engine<'a>, WireError> {
        let hier = MemoryHierarchy::restore(cfg, r)?;
        let pred = Predictors::restore(cfg, r)?;
        let fetch_time = r.u64()?;
        let backend_time = r.u64()?;
        let redirect_at = r.u64()?;
        let window_line = match r.u8()? {
            0 => None,
            1 => Some(r.u32()?),
            tag => return Err(WireError::BadTag { tag }),
        };
        let n_iq = r.u64()?;
        if n_iq > 1 << 20 {
            return Err(WireError::LengthOutOfRange { len: n_iq });
        }
        let mut iq = VecDeque::with_capacity(n_iq as usize);
        for _ in 0..n_iq {
            iq.push_back(r.u64()?);
        }
        let med = Mediation::restore(&mode, cfg, r)?;
        let fstats = load_fault_stats(r)?;
        let n_rec = r.u64()?;
        if n_rec > 1 << 32 {
            return Err(WireError::LengthOutOfRange { len: n_rec });
        }
        let mut frecords = Vec::with_capacity(n_rec as usize);
        for _ in 0..n_rec {
            frecords.push(FaultRecord {
                at_inst: r.u64()?,
                target: target_from_tag(r.u8()?)?,
                persistence: persistence_from_tag(r.u8()?)?,
                outcome: outcome_from_tag(r.u8()?)?,
            });
        }
        let fetch_stall = r.u64()?;
        let load_stall = r.u64()?;
        let redirect_stall = r.u64()?;
        let drc_walk = r.u64()?;
        let exec_extra = r.u64()?;
        let instructions = r.u64()?;
        let pushed = r.u64()?;
        let n_trace = r.u64()?;
        if n_trace > 1 << 24 || n_trace > pushed {
            return Err(WireError::LengthOutOfRange { len: n_trace });
        }
        let mut items = Vec::with_capacity(n_trace as usize);
        for _ in 0..n_trace {
            items.push(load_trace_event(r)?);
        }
        let trace = TraceRing::from_parts(cfg.trace_events, items, pushed);
        let cur_pc = r.u32()?;
        Ok(Engine {
            cfg: *cfg,
            mode,
            hier,
            pred,
            fetch_time,
            backend_time,
            redirect_at,
            window_line,
            iq,
            med,
            fstats,
            frecords,
            fetch_stall,
            load_stall,
            redirect_stall,
            drc_walk,
            exec_extra,
            instructions,
            trace,
            cur_pc,
        })
    }
}

fn target_tag(t: FaultTarget) -> u8 {
    match t {
        FaultTarget::DrcEntry => 0,
        FaultTarget::TableSlot => 1,
        FaultTarget::Rpc => 2,
        FaultTarget::Upc => 3,
        FaultTarget::StackBitmap => 4,
    }
}

fn target_from_tag(tag: u8) -> Result<FaultTarget, WireError> {
    Ok(match tag {
        0 => FaultTarget::DrcEntry,
        1 => FaultTarget::TableSlot,
        2 => FaultTarget::Rpc,
        3 => FaultTarget::Upc,
        4 => FaultTarget::StackBitmap,
        tag => return Err(WireError::BadTag { tag }),
    })
}

fn persistence_tag(p: FaultPersistence) -> u8 {
    match p {
        FaultPersistence::Transient => 0,
        FaultPersistence::Sticky => 1,
    }
}

fn persistence_from_tag(tag: u8) -> Result<FaultPersistence, WireError> {
    Ok(match tag {
        0 => FaultPersistence::Transient,
        1 => FaultPersistence::Sticky,
        tag => return Err(WireError::BadTag { tag }),
    })
}

fn outcome_tag(o: FaultOutcome) -> u8 {
    match o {
        FaultOutcome::DetectedParityScrub => 0,
        FaultOutcome::DetectedTranslationFault => 1,
        FaultOutcome::DetectedVisibilityFault => 2,
        FaultOutcome::DetectedDecodeFailure => 3,
        FaultOutcome::Silent => 4,
        FaultOutcome::Masked => 5,
        FaultOutcome::Contained => 6,
    }
}

fn outcome_from_tag(tag: u8) -> Result<FaultOutcome, WireError> {
    Ok(match tag {
        0 => FaultOutcome::DetectedParityScrub,
        1 => FaultOutcome::DetectedTranslationFault,
        2 => FaultOutcome::DetectedVisibilityFault,
        3 => FaultOutcome::DetectedDecodeFailure,
        4 => FaultOutcome::Silent,
        5 => FaultOutcome::Masked,
        6 => FaultOutcome::Contained,
        tag => return Err(WireError::BadTag { tag }),
    })
}

fn save_fault_stats(s: &FaultStats, w: &mut Writer) {
    w.u64(s.injected);
    w.u64(s.detected_parity);
    w.u64(s.detected_translation);
    w.u64(s.detected_visibility);
    w.u64(s.detected_decode);
    w.u64(s.contained);
    w.u64(s.silent);
    w.u64(s.masked);
    w.u64(s.emergency_rerands);
}

fn load_fault_stats(r: &mut Reader<'_>) -> Result<FaultStats, WireError> {
    Ok(FaultStats {
        injected: r.u64()?,
        detected_parity: r.u64()?,
        detected_translation: r.u64()?,
        detected_visibility: r.u64()?,
        detected_decode: r.u64()?,
        contained: r.u64()?,
        silent: r.u64()?,
        masked: r.u64()?,
        emergency_rerands: r.u64()?,
    })
}

fn save_trace_event(e: &TraceEvent, w: &mut Writer) {
    w.u64(e.seq);
    w.u32(e.pc);
    w.u64(e.cycle);
    match e.kind {
        TraceEventKind::Commit => w.u8(0),
        TraceEventKind::FetchStall { cycles } => {
            w.u8(1);
            w.u64(cycles);
        }
        TraceEventKind::Redirect { resume_at } => {
            w.u8(2);
            w.u64(resume_at);
        }
        TraceEventKind::DrcWalk { cycles } => {
            w.u8(3);
            w.u64(cycles);
        }
        TraceEventKind::FaultInjected { target } => {
            w.u8(4);
            w.u8(target_tag(target));
        }
        TraceEventKind::FaultDetected { target } => {
            w.u8(5);
            w.u8(target_tag(target));
        }
        TraceEventKind::Rerand { cycles } => {
            w.u8(6);
            w.u64(cycles);
        }
    }
}

fn load_trace_event(r: &mut Reader<'_>) -> Result<TraceEvent, WireError> {
    let seq = r.u64()?;
    let pc = r.u32()?;
    let cycle = r.u64()?;
    let kind = match r.u8()? {
        0 => TraceEventKind::Commit,
        1 => TraceEventKind::FetchStall { cycles: r.u64()? },
        2 => TraceEventKind::Redirect { resume_at: r.u64()? },
        3 => TraceEventKind::DrcWalk { cycles: r.u64()? },
        4 => TraceEventKind::FaultInjected { target: target_from_tag(r.u8()?)? },
        5 => TraceEventKind::FaultDetected { target: target_from_tag(r.u8()?)? },
        6 => TraceEventKind::Rerand { cycles: r.u64()? },
        tag => return Err(WireError::BadTag { tag }),
    };
    Ok(TraceEvent { seq, pc, cycle, kind })
}

/// One interval of a sampled simulation (see [`simulate_sampled`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalSample {
    /// Index of the first instruction in the interval.
    pub first_inst: u64,
    /// Instructions in the interval.
    pub instructions: u64,
    /// Cycles the interval took.
    pub cycles: u64,
    /// Interval IPC.
    pub ipc: f64,
    /// Interval IL1 miss rate.
    pub il1_miss_rate: f64,
    /// Interval DRC miss rate (0 outside VCFR mode).
    pub drc_miss_rate: f64,
}

/// Runs one program to completion (or `max_insts`) under `mode`.
///
/// # Errors
///
/// Returns [`SimError::Exec`] when the program faults; reaching
/// `max_insts` is *not* an error — the run is truncated, mirroring the
/// paper's 500-million-instruction windows.
///
/// # Example
///
/// ```
/// use vcfr_isa::{Asm, Reg};
/// use vcfr_sim::{simulate, Mode, SimConfig};
///
/// let mut a = Asm::new(0x1000);
/// a.mov_ri(Reg::Rax, 7);
/// a.emit_output(Reg::Rax);
/// a.halt();
/// let img = a.finish().unwrap();
/// let out = simulate(Mode::Baseline(&img), &SimConfig::default(), 1_000).unwrap();
/// assert_eq!(out.outcome.output, vec![7]);
/// assert!(out.stats.cycles > 0);
/// ```
pub fn simulate(mode: Mode<'_>, cfg: &SimConfig, max_insts: u64) -> Result<SimOutput, SimError> {
    let outcome = crate::session::Session::new(mode, cfg, max_insts)
        .and_then(|mut s| s.run())
        .map_err(unwrap_sim_error)?;
    Ok(outcome.output)
}

/// Collapses a [`crate::VcfrError`] back into the legacy [`SimError`]
/// signature of [`simulate`] and friends. Configuration and checkpoint
/// errors cannot arise on these paths (they take no checkpoint and any
/// config reaches the engine unvalidated, as before), so they panic.
fn unwrap_sim_error(e: crate::VcfrError) -> SimError {
    match e {
        crate::VcfrError::Sim(e) => e,
        other => panic!("legacy simulate entry point hit a non-simulation error: {other}"),
    }
}

/// The result of a fault-injection run (see [`simulate_faulted`]).
#[derive(Clone, Debug)]
pub struct FaultedRun {
    /// Timing statistics and architectural outcome. Injection is
    /// counterfactual, so the functional output equals an un-faulted
    /// run's; only the timing carries the recovery costs.
    pub sim: SimOutput,
    /// Aggregate fault counters.
    pub faults: FaultStats,
    /// Per-fault resolutions, in injection order.
    pub records: Vec<FaultRecord>,
}

/// Like [`simulate`], but injects the scheduled faults of `plan` and
/// classifies how the machine resolves each one — the dependability
/// campaign's inner loop. The same `(mode, cfg, max_insts, plan)` always
/// produces the same result, bit for bit.
///
/// # Errors
///
/// Returns [`SimError::Exec`] when the program faults architecturally,
/// and [`SimError::Fault`] when a sticky table fault hits under
/// [`ContainmentPolicy::Halt`].
pub fn simulate_faulted(
    mode: Mode<'_>,
    cfg: &SimConfig,
    max_insts: u64,
    plan: &FaultPlan,
) -> Result<FaultedRun, SimError> {
    let outcome = crate::session::Session::new(mode, cfg, max_insts)
        .map(|s| s.with_faults(plan))
        .and_then(|mut s| s.run())
        .map_err(unwrap_sim_error)?;
    Ok(FaultedRun { sim: outcome.output, faults: outcome.faults, records: outcome.records })
}

/// Like [`simulate`], but additionally returns one [`IntervalSample`] per
/// `interval` committed instructions — the phase-behaviour view
/// (per-interval IPC, IL1 and DRC miss rates).
///
/// # Errors
///
/// Same conditions as [`simulate`].
pub fn simulate_sampled(
    mode: Mode<'_>,
    cfg: &SimConfig,
    max_insts: u64,
    interval: u64,
) -> Result<(SimOutput, Vec<IntervalSample>), SimError> {
    let outcome = crate::session::Session::new(mode, cfg, max_insts)
        .map(|s| s.with_sampling(interval))
        .and_then(|mut s| s.run())
        .map_err(unwrap_sim_error)?;
    Ok((outcome.output, outcome.samples))
}


#[cfg(test)]
mod tests {
    use super::*;
    use vcfr_isa::{AluOp, Asm, Cond, Machine, Reg};
    use vcfr_rewriter::{randomize, RandomizeConfig};

    /// A loop calling ~120 small functions per iteration: the hot code
    /// footprint (~10 KB) fits the 32 KB IL1 in the original layout but
    /// occupies ~1800 lines when scattered per instruction — exactly the
    /// regime in which naive hardware ILR thrashes.
    fn workload() -> Image {
        const FUNCS: usize = 120;
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rcx, 40);
        a.mov_ri(Reg::Rax, 0);
        let top = a.here();
        for i in 0..FUNCS {
            a.call_named(&format!("f{i}"));
        }
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.emit_output(Reg::Rax);
        a.halt();
        for i in 0..FUNCS {
            a.func(&format!("f{i}"));
            for _ in 0..6 {
                a.alu_ri(AluOp::Add, Reg::Rax, 1);
            }
            a.ret();
        }
        a.finish().unwrap()
    }

    #[test]
    fn redirect_landing_on_fetch_time_adds_no_stall() {
        // Pin the boundary semantics of redirect-stall accounting: a
        // redirect resolving exactly at (or before) the cycle fetch has
        // already reached costs the front end nothing, but still moves
        // the resume point so later fetches cannot start earlier.
        let cfg = SimConfig::default();
        let img = workload();
        let mut e = Engine::new(&cfg, Mode::Baseline(&img));
        e.fetch_time = 100;

        // Exactly on fetch_time: zero stall, redirect point recorded.
        e.redirect(100);
        assert_eq!(e.redirect_stall, 0);
        assert_eq!(e.redirect_at, 100);

        // Behind fetch_time but ahead of redirect_at (mid-flight branch
        // resolved while fetch ran ahead): still free — this is the case
        // the old unchecked subtraction would have underflowed on.
        e.fetch_time = 200;
        e.redirect(150);
        assert_eq!(e.redirect_stall, 0);
        assert_eq!(e.redirect_at, 150);

        // Past fetch_time: only the cycles beyond fetch_time count.
        e.redirect(230);
        assert_eq!(e.redirect_stall, 30);
        assert_eq!(e.redirect_at, 230);

        // Not past the previous redirect: ignored entirely.
        e.redirect(210);
        assert_eq!(e.redirect_stall, 30);
        assert_eq!(e.redirect_at, 230);
    }

    #[test]
    fn replay_block_matches_stepwise_accounting() {
        // The batched replay path must leave the engine in the exact
        // state stepping would. One machine drives two engines: one
        // steps every instruction, the other replays each eligible run
        // as a batch (as the session does) and steps the rest; then both
        // are serialized and compared. The runs mix ALU work with loads,
        // stores, pushes and pops, and in VCFR mode load and overwrite
        // the marked return-address slot.
        let mut a = Asm::new(0x1000);
        let data = a.data_zeroed(64);
        a.mov_ri(Reg::Rcx, 12);
        a.mov_ri(Reg::Rdx, data.0 as i64);
        let top = a.here();
        a.call_named("f");
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.halt();
        a.func("f");
        for i in 0..8 {
            a.alu_ri(AluOp::Add, Reg::Rax, i + 1);
            a.alu_ri(AluOp::Mul, Reg::Rbx, 3); // exercises exec_extra
            a.load(Reg::Rsi, Reg::Rsp, 0); // the return-address slot
            a.push(Reg::Rax);
            a.push_i(i);
            a.store_idx(Reg::Rdx, Reg::Rcx, 2, 0, Reg::Rax);
            a.pop(Reg::Rdi);
            a.pop(Reg::R8);
            a.store(Reg::Rsp, 0, Reg::Rsi); // rewrites it with itself
            a.load_b(Reg::R9, Reg::Rdx, 5);
            a.store_b(Reg::Rdx, 6, Reg::R9);
            a.cmp_i(Reg::Rax, 7);
        }
        a.ret();
        let img = a.finish().unwrap();
        let rp = randomize(&img, &RandomizeConfig::with_seed(7)).unwrap();
        let cfg = SimConfig::default();
        let drc = DrcConfig::direct_mapped(16);

        for (name, mode) in [
            ("base", Mode::Baseline(&img)),
            ("naive", Mode::NaiveIlr(&rp)),
            ("vcfr", Mode::Vcfr { program: &rp, drc }),
        ] {
            let mut stepped = Engine::new(&cfg, mode);
            let mut batched = Engine::new(&cfg, mode);
            let mut m = Machine::new(mode.image_ref());
            let (mut batch, mut accesses) = (Vec::new(), Vec::new());
            let mut replayed = 0;
            while let Some(info) = m.step().unwrap() {
                stepped.step(&info);
                if vcfr_isa::superblock_eligible(&info.inst) {
                    let s = vcfr_isa::SbInst { pc: info.pc, inst: info.inst, len: info.len };
                    batch.push(ReplayInst::new(&s, mode.fetch_addr(info.pc)));
                    accesses.extend(info.mem_accesses());
                    continue;
                }
                replayed += batch.len();
                batched.replay_block(&batch, &accesses);
                batch.clear();
                accesses.clear();
                batched.step(&info);
            }
            assert!(batch.is_empty(), "{name}: the run ends on halt");
            assert!(replayed > 1000, "{name}: {replayed} replayed instructions");
            if let Mode::NaiveIlr(_) = mode {
                let pc = 0x1000 + 10;
                assert_ne!(mode.fetch_addr(pc), pc, "naive fetches are scattered");
            }

            let mut wa = Writer::with_magic(*b"VCFRTEST");
            stepped.save(&mut wa);
            let mut wb = Writer::with_magic(*b"VCFRTEST");
            batched.save(&mut wb);
            assert_eq!(wa.into_bytes(), wb.into_bytes(), "{name}");
            assert_eq!(batched.instructions, stepped.instructions, "{name}");
            assert_eq!(batched.cur_pc, stepped.cur_pc, "{name}");
            if let Some(d) = batched.stats_now().drc {
                // Per call: randomize the return address, de-randomize
                // the target and the return, and de-randomize the first
                // (replayed) load of the marked slot — the store then
                // clears the mark, so the later loads cost nothing.
                assert_eq!(d.rand_lookups, 12, "{name}");
                assert_eq!(d.derand_lookups, 12 * 3, "{name}");
            }
        }
    }

    #[test]
    fn baseline_reaches_high_ipc_on_a_hot_loop() {
        let img = workload();
        let out = simulate(Mode::Baseline(&img), &SimConfig::default(), 1_000_000).unwrap();
        assert_eq!(out.outcome.output, vec![40 * 120 * 6]);
        let ipc = out.stats.ipc();
        assert!(ipc > 0.7, "baseline IPC {ipc} too low");
        assert!(out.stats.il1.miss_rate() < 0.05, "il1 {}", out.stats.il1.miss_rate());
    }

    #[test]
    fn naive_ilr_destroys_fetch_locality() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let base = simulate(Mode::Baseline(&img), &SimConfig::default(), 1_000_000).unwrap();
        let naive = simulate(Mode::NaiveIlr(&rp), &SimConfig::default(), 1_000_000).unwrap();
        // Same architectural result.
        assert_eq!(naive.outcome.output, base.outcome.output);
        // Dramatically worse IL1 behaviour and IPC.
        assert!(
            naive.stats.il1.miss_rate() > 4.0 * base.stats.il1.miss_rate().max(1e-6),
            "naive {} vs base {}",
            naive.stats.il1.miss_rate(),
            base.stats.il1.miss_rate()
        );
        assert!(naive.stats.ipc() < base.stats.ipc());
    }

    #[test]
    fn vcfr_preserves_locality_and_ipc() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig::default();
        let base = simulate(Mode::Baseline(&img), &cfg, 1_000_000).unwrap();
        let naive = simulate(Mode::NaiveIlr(&rp), &cfg, 1_000_000).unwrap();
        let vcfr = simulate(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &cfg,
            1_000_000,
        )
        .unwrap();
        assert_eq!(vcfr.outcome.output, base.outcome.output);
        // VCFR keeps the IL1 behaviour of the baseline ...
        assert!(vcfr.stats.il1.miss_rate() < 2.0 * base.stats.il1.miss_rate().max(1e-4));
        // ... and sits between baseline and naive in IPC, close to base.
        // (This microbench has 120 uniformly hot call sites — far harsher
        // on the DRC than SPEC-like code — so the bound is loose here;
        // the workload-level experiments assert the ~2% paper bound.)
        assert!(vcfr.stats.ipc() > naive.stats.ipc());
        assert!(vcfr.stats.ipc() > 0.8 * base.stats.ipc());
        // The DRC actually worked.
        let drc = vcfr.stats.drc.expect("vcfr mode records DRC stats");
        assert!(drc.lookups > 0);
    }

    #[test]
    fn drc_size_monotonicity() {
        // A call-heavy workload with many distinct sites.
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rcx, 300);
        let top = a.here();
        for i in 0..40 {
            a.call_named(&format!("f{i}"));
        }
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.halt();
        for i in 0..40 {
            a.func(&format!("f{i}"));
            a.alu_ri(AluOp::Add, Reg::Rax, 1);
            a.ret();
        }
        let img = a.finish().unwrap();
        let rp = randomize(&img, &RandomizeConfig::with_seed(2)).unwrap();
        let cfg = SimConfig::default();
        let small = simulate(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(16) },
            &cfg,
            1_000_000,
        )
        .unwrap();
        let large = simulate(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(512) },
            &cfg,
            1_000_000,
        )
        .unwrap();
        let ms = small.stats.drc.unwrap().miss_rate();
        let ml = large.stats.drc.unwrap().miss_rate();
        assert!(ms > ml, "16-entry miss rate {ms} should exceed 512-entry {ml}");
        assert!(large.stats.ipc() >= small.stats.ipc());
    }

    #[test]
    fn truncation_at_max_insts() {
        let img = workload();
        let out = simulate(Mode::Baseline(&img), &SimConfig::default(), 100).unwrap();
        assert_eq!(out.stats.instructions, 100);
    }

    #[test]
    fn branch_predictor_learns_the_loop() {
        // A long-running tight loop: the single conditional branch must
        // become near-perfectly predicted.
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rcx, 20_000);
        let top = a.here();
        a.call_named("leaf");
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.halt();
        a.func("leaf");
        a.ret();
        let img = a.finish().unwrap();
        let out = simulate(Mode::Baseline(&img), &SimConfig::default(), 1_000_000).unwrap();
        assert!(out.stats.branch.mispredict_rate() < 0.01);
        assert!(out.stats.branch.ras_mispredictions < 10);
    }

    #[test]
    fn sampled_simulation_partitions_the_run() {
        let img = workload();
        let (out, samples) =
            simulate_sampled(Mode::Baseline(&img), &SimConfig::default(), 1_000_000, 10_000)
                .unwrap();
        assert!(!samples.is_empty());
        let total_insts: u64 = samples.iter().map(|s| s.instructions).sum();
        assert_eq!(total_insts, out.stats.instructions);
        let total_cycles: u64 = samples.iter().map(|s| s.cycles).sum();
        // Interval cycles tile the run (up to the max(fetch, backend)
        // slack in the final snapshot).
        assert!(total_cycles <= out.stats.cycles + samples.len() as u64);
        for s in &samples {
            assert!(s.ipc > 0.0 && s.ipc <= 1.0 + 1e-9);
            assert!((0.0..=1.0).contains(&s.il1_miss_rate));
        }
    }

    #[test]
    fn sampling_interval_of_one_yields_one_sample_per_instruction() {
        let img = workload();
        let (out, samples) =
            simulate_sampled(Mode::Baseline(&img), &SimConfig::default(), 500, 1).unwrap();
        assert_eq!(samples.len() as u64, out.stats.instructions);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.first_inst, i as u64);
            assert_eq!(s.instructions, 1);
        }
        // Interval 0 clamps to 1 rather than dividing by zero.
        let (_, zero) =
            simulate_sampled(Mode::Baseline(&img), &SimConfig::default(), 500, 0).unwrap();
        assert_eq!(zero.len(), samples.len());
    }

    #[test]
    fn sampling_interval_longer_than_the_run_yields_one_final_sample() {
        let img = workload();
        let (out, samples) =
            simulate_sampled(Mode::Baseline(&img), &SimConfig::default(), 1_000, u64::MAX)
                .unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].first_inst, 0);
        assert_eq!(samples[0].instructions, out.stats.instructions);
    }

    #[test]
    fn last_partial_interval_is_flushed_and_samples_tile_the_run() {
        let img = workload();
        let (out, samples) =
            simulate_sampled(Mode::Baseline(&img), &SimConfig::default(), 1_000, 300).unwrap();
        assert_eq!(out.stats.instructions, 1_000, "workload outlives the window");
        let lens: Vec<u64> = samples.iter().map(|s| s.instructions).collect();
        assert_eq!(lens, vec![300, 300, 300, 100], "three full intervals + the partial tail");
        // Intervals are contiguous and partition the run exactly.
        let mut next = 0;
        for s in &samples {
            assert_eq!(s.first_inst, next);
            next += s.instructions;
        }
        assert_eq!(next, out.stats.instructions);
    }

    #[test]
    fn exec_fault_propagates_with_trace() {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rax, 1);
        a.mov_ri(Reg::Rbx, 0);
        a.alu_rr(AluOp::Div, Reg::Rax, Reg::Rbx);
        a.halt();
        let img = a.finish().unwrap();
        let err = simulate(Mode::Baseline(&img), &SimConfig::default(), 100).unwrap_err();
        let SimError::Exec { cause, trace } = &err else {
            panic!("expected an architectural fault, got {err:?}");
        };
        assert!(matches!(cause, ExecError::DivideByZero { .. }));
        // The two movs committed before the fault; their events are in
        // the post-mortem ring and in the rendered error.
        assert!(!trace.is_empty());
        assert!(trace.iter().any(|e| e.kind == TraceEventKind::Commit));
        let shown = err.to_string();
        assert!(shown.contains("architectural fault"));
        assert!(shown.contains("pipeline events"));
        assert!(shown.contains("commit"));
    }

    #[test]
    fn tracing_can_be_disabled() {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rax, 1);
        a.mov_ri(Reg::Rbx, 0);
        a.alu_rr(AluOp::Div, Reg::Rax, Reg::Rbx);
        a.halt();
        let img = a.finish().unwrap();
        let cfg = SimConfig { trace_events: 0, ..SimConfig::default() };
        let err = simulate(Mode::Baseline(&img), &cfg, 100).unwrap_err();
        let SimError::Exec { trace, .. } = &err else {
            panic!("expected an architectural fault, got {err:?}");
        };
        assert!(trace.is_empty());
        assert!(!err.to_string().contains("pipeline events"));
    }

    #[test]
    fn cycle_accounting_audit_passes_in_every_mode() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig::default();
        for (name, out) in [
            ("base", simulate(Mode::Baseline(&img), &cfg, 200_000).unwrap()),
            ("naive", simulate(Mode::NaiveIlr(&rp), &cfg, 200_000).unwrap()),
            (
                "vcfr",
                simulate(
                    Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
                    &cfg,
                    200_000,
                )
                .unwrap(),
            ),
        ] {
            let report = out.stats.accounting().audit();
            assert!(report.passed(), "{name}: {:?}", report.failures);
        }
    }

    #[test]
    fn rerand_epochs_swap_layouts_without_changing_the_output() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig::default();
        let still = simulate(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &cfg,
            300_000,
        )
        .unwrap();
        // The microbench commits ~38k instructions; an 8k epoch gives
        // several swaps before the run ends.
        let ecfg = SimConfig { rerand_epoch: Some(8_000), ..cfg };
        let swapped = simulate(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &ecfg,
            300_000,
        )
        .unwrap();
        // Same architectural result; the swaps only cost time.
        assert_eq!(swapped.outcome.output, still.outcome.output);
        assert!(swapped.stats.rerand_epochs >= 3, "epochs {}", swapped.stats.rerand_epochs);
        assert!(swapped.stats.rerand_stall_cycles > 0);
        assert!(swapped.stats.cycles > still.stats.cycles, "swaps are not free");
        // The pause is visible and the identities still hold.
        let report = swapped.stats.accounting().audit();
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn rerand_epoch_runs_are_deterministic() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(3)).unwrap();
        let cfg = SimConfig { rerand_epoch: Some(9_000), ..SimConfig::default() };
        let mode = || Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
        let a = simulate(mode(), &cfg, 200_000).unwrap();
        let b = simulate(mode(), &cfg, 200_000).unwrap();
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.rerand_stall_cycles, b.stats.rerand_stall_cycles);
        assert_eq!(a.stats.rerand_epochs, b.stats.rerand_epochs);
    }

    #[test]
    fn faulted_runs_are_deterministic_and_counterfactual() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig::default();
        // Schedule within the run's ~38k committed instructions so every
        // fault actually injects.
        let plan = FaultPlan::generate(2015, 48, 30_000);
        let mode = || Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
        let clean = simulate(mode(), &cfg, 150_000).unwrap();
        let a = simulate_faulted(mode(), &cfg, 150_000, &plan).unwrap();
        let b = simulate_faulted(mode(), &cfg, 150_000, &plan).unwrap();
        // Injection never corrupts the architectural run ...
        assert_eq!(a.sim.outcome.output, clean.outcome.output);
        // ... and the whole faulted run is reproducible, records and all.
        assert_eq!(a.records, b.records);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.sim.stats.cycles, b.sim.stats.cycles);
        assert_eq!(a.faults.injected, 48);
        assert_eq!(a.records.len(), 48);
        // Recovery has a price: detected faults slow the run down.
        if a.faults.detected() > 0 {
            assert!(a.sim.stats.cycles >= clean.stats.cycles);
        }
        // The timing stays auditable under injection.
        let report = a.sim.stats.accounting().audit();
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn vcfr_detects_more_faults_than_the_baseline() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig::default();
        let plan = FaultPlan::generate(2015, 64, 30_000);
        let base = simulate_faulted(Mode::Baseline(&img), &cfg, 150_000, &plan).unwrap();
        let vcfr = simulate_faulted(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &cfg,
            150_000,
            &plan,
        )
        .unwrap();
        assert_eq!(base.faults.injected, vcfr.faults.injected);
        // The mediation layer is exactly the hardware that notices
        // corrupted control-flow state: coverage must improve.
        assert!(
            vcfr.faults.coverage() > base.faults.coverage(),
            "vcfr {} vs base {}",
            vcfr.faults.coverage(),
            base.faults.coverage()
        );
        assert!(vcfr.faults.detected() > base.faults.detected());
        // Baseline masks every flip aimed at hardware it doesn't have.
        assert_eq!(base.faults.detected_parity, 0);
        assert_eq!(base.faults.detected_translation, 0);
        assert_eq!(base.faults.detected_visibility, 0);
    }

    #[test]
    fn sticky_table_faults_trigger_emergency_rerand_under_recover() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig::default();
        let plan = FaultPlan {
            faults: vec![ScheduledFault {
                at_inst: 500,
                target: FaultTarget::TableSlot,
                bit: 3,
                lane: 9,
                persistence: FaultPersistence::Sticky,
            }],
            policy: ContainmentPolicy::Recover,
        };
        let out = simulate_faulted(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &cfg,
            50_000,
            &plan,
        )
        .unwrap();
        assert_eq!(out.faults.contained, 1);
        assert_eq!(out.faults.emergency_rerands, 1);
        assert_eq!(out.sim.stats.rerand_epochs, 1, "the repair is an epoch swap");
        assert!(out.sim.stats.rerand_stall_cycles > 0);
        assert_eq!(out.records[0].outcome, FaultOutcome::Contained);
    }

    #[test]
    fn sticky_table_faults_halt_under_the_halt_policy() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig::default();
        let plan = FaultPlan {
            faults: vec![ScheduledFault {
                at_inst: 500,
                target: FaultTarget::TableSlot,
                bit: 3,
                lane: 9,
                persistence: FaultPersistence::Sticky,
            }],
            policy: ContainmentPolicy::Halt,
        };
        let err = simulate_faulted(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &cfg,
            50_000,
            &plan,
        )
        .unwrap_err();
        match &err {
            SimError::Fault { at_inst, target, trace } => {
                assert_eq!(*at_inst, 500);
                assert_eq!(*target, FaultTarget::TableSlot);
                assert!(!trace.is_empty(), "the post-mortem ring is attached");
            }
            other => panic!("expected SimError::Fault, got {other:?}"),
        }
        let shown = err.to_string();
        assert!(shown.contains("uncorrectable sticky fault"));
        assert!(shown.contains("table-slot"));
    }
}
