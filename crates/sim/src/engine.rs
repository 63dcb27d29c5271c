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
//!   the original space, and a [`Drc`] translates at control transfers,
//!   calls, returns and marked stack loads, walking the in-memory tables
//!   through the unified L2 on a miss.

use crate::config::{DrcBacking, SimConfig};
use crate::faults::{
    ContainmentPolicy, FaultOutcome, FaultPersistence, FaultPlan, FaultRecord, FaultStats,
    FaultTarget, ScheduledFault,
};
use crate::flatmap::FlatMap;
use crate::hierarchy::MemoryHierarchy;
use crate::predict::{BranchStats, Btb, Gshare, Ras};
use crate::stats::SimStats;
use std::collections::VecDeque;
use std::fmt;
use vcfr_core::{
    rerandomize, Drc, DrcConfig, LayoutMap, OrigAddr, RandAddr, StackBitmap, TranslationTable,
};
use vcfr_isa::wire::{Reader, WireError, Writer};
use vcfr_isa::{Addr, ControlFlow, ExecError, Image, Inst, MemAccess, RunOutcome, SbInst, StepInfo};
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

impl Mode<'_> {
    /// The image the architecture executes (always the original
    /// semantics).
    pub(crate) fn image_ref(&self) -> &Image {
        match self {
            Mode::Baseline(img) => img,
            Mode::NaiveIlr(rp) | Mode::Vcfr { program: rp, .. } => &rp.original,
        }
    }
}

/// Extra execution latency of long-running operations, shared by the
/// in-order and out-of-order cores.
pub(crate) fn exec_extra_cycles(inst: &Inst) -> u64 {
    Engine::exec_extra(inst)
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
    /// The engine was asked to mediate a VCFR control transfer but was
    /// built without a DRC — a mode/configuration mismatch that would
    /// otherwise corrupt the timing model silently.
    MissingDrc,
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
            SimError::MissingDrc => write!(
                f,
                "engine has no DRC but was asked to mediate a VCFR transfer (mode/configuration mismatch)"
            ),
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

/// Fixed cost of an epoch swap: drain the pipeline, flush the DRC, and
/// switch the table base registers. Shared with the out-of-order core.
pub(crate) const RERAND_QUIESCE_CYCLES: u64 = 200;
/// Per-entry cost of rebuilding the in-memory translation tables.
pub(crate) const RERAND_ENTRY_CYCLES: u64 = 2;
/// Per-slot cost of rewriting a live randomized return address.
const RERAND_SLOT_CYCLES: u64 = 4;

pub(crate) struct Engine {
    pub(crate) cfg: SimConfig,
    pub(crate) hier: MemoryHierarchy,
    pub(crate) gshare: Gshare,
    pub(crate) btb: Btb,
    pub(crate) ras: Ras,
    pub(crate) bstats: BranchStats,
    pub(crate) fetch_time: u64,
    pub(crate) backend_time: u64,
    pub(crate) redirect_at: u64,
    pub(crate) window_line: Option<Addr>,
    pub(crate) iq: VecDeque<u64>,
    pub(crate) drc: Option<Drc>,
    pub(crate) bitmap: StackBitmap,
    pub(crate) stack_rand: FlatMap,
    /// Original return address held by each marked slot, kept in lockstep
    /// with `stack_rand` so epoch swaps can re-randomize live slots.
    pub(crate) stack_orig: FlatMap,
    /// Layout of the current re-randomization epoch (None before the
    /// first swap: `rp.layout` is live).
    pub(crate) epoch_layout: Option<LayoutMap>,
    /// Tables of the current epoch, rebuilt at `rp.table.base()` so the
    /// invisible TLB pages stay valid across swaps.
    pub(crate) epoch_table: Option<TranslationTable>,
    pub(crate) rerand_epochs: u64,
    pub(crate) rerand_stall: u64,
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
    /// Extra execute cycles (`Engine::exec_extra`), e.g. 2 for `mul`.
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
            extra: Engine::exec_extra(&s.inst),
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

impl Engine {
    pub(crate) fn new(cfg: &SimConfig, drc: Option<DrcConfig>) -> Engine {
        Engine {
            cfg: *cfg,
            hier: MemoryHierarchy::new(cfg),
            gshare: Gshare::new(cfg.gshare),
            btb: Btb::new(cfg.btb),
            ras: Ras::new(cfg.ras_entries),
            bstats: BranchStats::default(),
            fetch_time: 0,
            backend_time: 0,
            redirect_at: 0,
            window_line: None,
            iq: VecDeque::new(),
            drc: drc.map(Drc::new),
            bitmap: StackBitmap::new(),
            stack_rand: FlatMap::new(),
            stack_orig: FlatMap::new(),
            epoch_layout: None,
            epoch_table: None,
            rerand_epochs: 0,
            rerand_stall: 0,
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

    fn exec_extra(inst: &Inst) -> u64 {
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

    /// One instruction through the timing model. `fetch_pc` is the
    /// address instruction bytes are fetched from (mode-dependent);
    /// `key` maps architectural addresses into predictor space.
    pub(crate) fn step(
        &mut self,
        info: &StepInfo,
        fetch_pc: Addr,
        key: &impl Fn(Addr) -> Addr,
        vcfr: Option<&RandomizedProgram>,
    ) {
        self.instructions += 1;
        self.cur_pc = info.pc;
        let cfg = self.cfg;

        // Context-switch model: periodically invalidate the DRC (other
        // processes own it in between).
        if let (Some(interval), Some(drc)) = (cfg.drc_flush_interval, self.drc.as_mut()) {
            if interval > 0 && self.instructions.is_multiple_of(interval) {
                drc.flush();
            }
        }

        // Live re-randomization (§V-C): every N instructions a VCFR run
        // swaps to a fresh layout, paying the flush-and-rebuild pause.
        if let (Some(epoch), Some(rp)) = (cfg.rerand_epoch, vcfr) {
            if epoch > 0 && self.instructions.is_multiple_of(epoch) {
                self.rerand_swap(rp);
            }
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

        let extra = Engine::exec_extra(&info.inst);
        self.exec_extra += extra;
        let mut exec_end = exec_start + extra;
        for acc in info.mem_accesses() {
            let lat = self.hier.data_access(acc.addr, acc.write, exec_start);
            self.load_stall += lat;
            exec_end += lat;
        }

        // ---- VCFR mediation layer ----------------------------------------
        if let (Some(rp), Some(_)) = (vcfr, self.drc.as_ref()) {
            self.vcfr_events(info, rp, exec_start, &mut exec_end);
        }

        // ---- control flow ------------------------------------------------
        if let Some(cf) = info.control {
            self.control(info, cf, key, vcfr, fetch_done, exec_end);
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
    /// for each instruction whose `mem` flag is set. `vcfr` is the
    /// randomized program in VCFR mode and `None` otherwise, as for
    /// `step`. The per-step work that is provably a no-op for such
    /// instructions — the DRC flush / rerand epoch checks (the caller
    /// caps `insts` so no boundary falls inside the batch), the call and
    /// return half of `vcfr_events`, and the control-flow hand-off — is
    /// skipped; everything else runs exactly as in `step`: cache, TLB
    /// and prefetcher state advanced by `fetch_line` even on hits, the
    /// data accesses, the §IV-C stack-slot mediation (through the same
    /// [`Engine::mediate_slot`]), and the FetchStall/Commit/DrcWalk
    /// trace events.
    pub(crate) fn replay_block(
        &mut self,
        insts: &[ReplayInst],
        accesses: &[MemAccess],
        vcfr: Option<&RandomizedProgram>,
    ) {
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
                if let Some(rp) = vcfr {
                    exec_end += self.mediate_slot(acc, rp, exec_start);
                }
            }
            self.backend_time = exec_end;
            trace_push(&mut self.trace, self.instructions, ri.pc, exec_end, TraceEventKind::Commit);
        }
        debug_assert!(accesses.next().is_none(), "every access belongs to an instruction");
    }

    fn vcfr_events(
        &mut self,
        info: &StepInfo,
        rp: &RandomizedProgram,
        exec_start: u64,
        exec_end: &mut u64,
    ) {
        // A call's return-address push and a return's pop are the
        // protocol itself, handled below; every other access goes
        // through the stack-slot mediation.
        let call = matches!(
            info.control,
            Some(ControlFlow::Call { .. }) | Some(ControlFlow::IndirectCall { .. })
        );
        let ret = matches!(info.control, Some(ControlFlow::Return { .. }));
        for acc in info.mem_accesses() {
            let protocol = if acc.write { call } else { ret };
            if !protocol {
                *exec_end += self.mediate_slot(acc, rp, exec_start);
            }
        }

        match info.control {
            // A call pushes the *randomized* return address: one
            // randomization lookup, plus bitmap marking of the slot. The
            // walk on a miss happens in the store's shadow (the push need
            // not retire before younger instructions execute on an
            // in-order store buffer), so it contributes table traffic but
            // no stall.
            Some(ControlFlow::Call { ret_addr, .. })
            | Some(ControlFlow::IndirectCall { ret_addr, .. }) => {
                let table = self.epoch_table.as_ref().unwrap_or(&rp.table);
                let drc = self.drc.as_mut().expect("vcfr mode has a DRC");
                if let Ok(l) = drc.randomize(OrigAddr(ret_addr), table) {
                    if !l.hit {
                        self.walk(l.entry_addr, exec_start);
                    }
                    if let Some(push) = info.mem_accesses().find(|a| a.write) {
                        self.bitmap.mark(push.addr);
                        self.stack_rand.insert(push.addr, l.translated);
                        self.stack_orig.insert(push.addr, ret_addr);
                    }
                }
            }
            // Return-address bookkeeping; the de-randomization of the
            // popped target happens in the control-flow handler, where
            // prediction correctness decides whether the walk is on the
            // critical path.
            Some(ControlFlow::Return { .. }) => {
                if let Some(pop) = info.mem_accesses().next() {
                    self.unmark(pop.addr);
                }
            }
            _ => {}
        }
    }

    /// Stack-slot hygiene and marked-slot loads (§IV-C) for one data
    /// access that is not a call's return-address push or a return's
    /// pop: an overwrite of a slot holding a randomized return address
    /// clears the mark, and a read of one is transparently
    /// de-randomized — one DRC lookup, plus the table walk on a miss,
    /// which the load waits for. Returns the cycles the access is
    /// delayed by. [`Engine::step`] and [`Engine::replay_block`] both
    /// mediate through here, so there is one copy of this hardware.
    /// `cur_pc` must already name the accessing instruction (it tags the
    /// DrcWalk trace event).
    fn mediate_slot(&mut self, acc: MemAccess, rp: &RandomizedProgram, exec_start: u64) -> u64 {
        if !self.bitmap.is_marked(acc.addr) {
            return 0;
        }
        if acc.write {
            self.unmark(acc.addr);
            return 0;
        }
        let Some(v) = self.stack_rand.get(acc.addr) else {
            return 0;
        };
        let table = self.epoch_table.as_ref().unwrap_or(&rp.table);
        match self.drc.as_mut().expect("vcfr mode has a DRC").derandomize(RandAddr(v), table) {
            Ok(l) if !l.hit => self.walk(l.entry_addr, exec_start),
            _ => 0,
        }
    }

    /// Forgets the randomized return address held by stack slot `slot`.
    fn unmark(&mut self, slot: Addr) {
        self.bitmap.clear(slot);
        self.stack_rand.remove(slot);
        self.stack_orig.remove(slot);
    }

    /// Walks the translation tables for a DRC miss on the entry at
    /// `entry_addr`, starting at cycle `now`: counts the walk cycles,
    /// records a DrcWalk trace event when there are any, and returns
    /// them so the caller can decide whether they stall the pipeline.
    fn walk(&mut self, entry_addr: Addr, now: u64) -> u64 {
        let walk = match self.cfg.drc_backing {
            DrcBacking::SharedL2 => self.hier.table_walk(entry_addr, now),
            DrcBacking::Dedicated { latency } => latency,
        };
        self.drc_walk += walk;
        if walk > 0 {
            trace_push(
                &mut self.trace,
                self.instructions,
                self.cur_pc,
                now,
                TraceEventKind::DrcWalk { cycles: walk },
            );
        }
        walk
    }

    /// De-randomizes a transfer target through the DRC; returns the walk
    /// latency on a miss (0 on a hit). The *caller* decides whether that
    /// latency lands on the critical path: when the orig-space predictors
    /// were right, fetch already streams down the correct path and the
    /// walk completes in its shadow; only a redirect must wait for it.
    fn vcfr_derand(&mut self, target: Addr, rp: &RandomizedProgram, now: u64) -> u64 {
        let table = self.epoch_table.as_ref().unwrap_or(&rp.table);
        let rand = match &self.epoch_layout {
            Some(m) => m.to_rand(OrigAddr(target)).map(|r| r.raw()).unwrap_or(target),
            None => rp.rand_or_orig(target),
        };
        match self.drc.as_mut().expect("vcfr mode has a DRC").derandomize(RandAddr(rand), table) {
            Ok(l) if !l.hit => self.walk(l.entry_addr, now),
            _ => 0,
        }
    }

    /// Swaps to a freshly re-randomized layout (§V-C): the pipeline
    /// quiesces, the DRC is flushed, the in-memory tables are rebuilt at
    /// the same base, and every live marked stack slot is rewritten to
    /// hold its new randomized return address. The whole pause is charged
    /// by advancing both clocks, so the cycle-accounting floor identity
    /// (`cycles ≥ busy + load + rerand`) holds exactly.
    fn rerand_swap(&mut self, rp: &RandomizedProgram) {
        self.rerand_epochs += 1;
        // Deterministic per epoch: seeded by the epoch ordinal alone.
        let seed = 0x5eed_0000_0000_0000u64 ^ self.rerand_epochs;
        let cur = self.epoch_layout.as_ref().unwrap_or(&rp.layout);
        let fresh = rerandomize(cur, rp.region.0, rp.region.1, seed);
        let mut table = TranslationTable::from_layout(&fresh, rp.table.base());
        for a in rp.table.unrandomized_addrs() {
            table.add_unrandomized(a);
        }
        // Hardware rewrites live randomized return addresses in place;
        // slots holding fail-over (un-randomized) addresses keep them.
        let remapped: Vec<(Addr, u32)> = self
            .stack_orig
            .iter()
            .map(|(slot, orig)| {
                (slot, fresh.to_rand(OrigAddr(orig)).map(|r| r.raw()).unwrap_or(orig))
            })
            .collect();
        let slots = remapped.len() as u64;
        for (slot, rand) in remapped {
            self.stack_rand.insert(slot, rand);
        }
        if let Some(drc) = self.drc.as_mut() {
            drc.flush();
        }
        let cost = RERAND_QUIESCE_CYCLES
            + table.len() as u64 * RERAND_ENTRY_CYCLES
            + slots * RERAND_SLOT_CYCLES;
        let now = self.backend_time.max(self.fetch_time) + cost;
        self.rerand_stall += cost;
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
        self.epoch_layout = Some(fresh);
        self.epoch_table = Some(table);
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
        image: &Image,
        rp: Option<&RandomizedProgram>,
        policy: ContainmentPolicy,
    ) -> Result<FaultOutcome, SimError> {
        trace_push(
            &mut self.trace,
            self.instructions,
            self.cur_pc,
            self.backend_time,
            TraceEventKind::FaultInjected { target: f.target },
        );
        let bit = 1u32 << (f.bit % 32);
        let outcome = match (f.target, rp) {
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
            (FaultTarget::DrcEntry, Some(_)) => match self.drc.as_mut() {
                Some(drc) => {
                    if drc.scrub_entry(f.lane as usize) {
                        FaultOutcome::DetectedParityScrub
                    } else {
                        FaultOutcome::Masked
                    }
                }
                None => FaultOutcome::Masked,
            },
            // Table slots are parity-protected too. A transient flip
            // scrubs and the slot rewrites from the layout; a sticky one
            // keeps re-asserting and must be contained.
            (FaultTarget::TableSlot, Some(rp)) => match f.persistence {
                FaultPersistence::Transient => FaultOutcome::DetectedParityScrub,
                FaultPersistence::Sticky => match policy {
                    ContainmentPolicy::Recover => {
                        self.rerand_swap(rp);
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
            (FaultTarget::Rpc, Some(rp)) => {
                let rand = match &self.epoch_layout {
                    Some(m) => {
                        m.to_rand(OrigAddr(self.cur_pc)).map(|r| r.raw()).unwrap_or(self.cur_pc)
                    }
                    None => rp.rand_or_orig(self.cur_pc),
                };
                let table = self.epoch_table.as_ref().unwrap_or(&rp.table);
                match table.derand(RandAddr(rand ^ bit)) {
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
            (FaultTarget::StackBitmap, Some(_)) => {
                if self.bitmap.marked_count() > 0 {
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

    fn control(
        &mut self,
        info: &StepInfo,
        cf: ControlFlow,
        key: &impl Fn(Addr) -> Addr,
        vcfr: Option<&RandomizedProgram>,
        fetch_done: u64,
        exec_end: u64,
    ) {
        let cfg = self.cfg;
        let kpc = key(info.pc);
        match cf {
            ControlFlow::Branch { taken, target } => {
                self.bstats.predictions += 1;
                let predicted = self.gshare.predict(kpc);
                self.gshare.update(kpc, taken);
                if predicted != taken {
                    self.bstats.mispredictions += 1;
                    // A mispredicted *taken* branch redirects to a
                    // randomized target: the redirect waits for the DRC.
                    let walk = match (taken, vcfr) {
                        (true, Some(rp)) => self.vcfr_derand(target, rp, exec_end),
                        _ => 0,
                    };
                    self.redirect(exec_end + cfg.mispredict_penalty + walk);
                } else if taken {
                    self.taken_target_lookup(kpc, key(target), target, vcfr, fetch_done, exec_end);
                }
            }
            ControlFlow::Jump { target } => {
                self.taken_target_lookup(kpc, key(target), target, vcfr, fetch_done, exec_end);
            }
            ControlFlow::Call { target, ret_addr } => {
                self.taken_target_lookup(kpc, key(target), target, vcfr, fetch_done, exec_end);
                self.ras.push(key(ret_addr));
            }
            ControlFlow::IndirectCall { target, ret_addr } => {
                self.indirect_target_lookup(kpc, key(target), target, vcfr, exec_end);
                self.ras.push(key(ret_addr));
            }
            ControlFlow::IndirectJump { target } => {
                self.indirect_target_lookup(kpc, key(target), target, vcfr, exec_end);
            }
            ControlFlow::Return { target } => {
                self.bstats.ras_predictions += 1;
                // The popped randomized return address always consults the
                // DRC to recover the orig-space fetch address; a correct
                // RAS prediction hides the walk.
                let walk = match vcfr {
                    Some(rp) => self.vcfr_derand(target, rp, exec_end),
                    None => 0,
                };
                match self.ras.pop() {
                    Some(p) if p == key(target) => {}
                    _ => {
                        self.bstats.ras_mispredictions += 1;
                        self.redirect(exec_end + cfg.mispredict_penalty + walk);
                    }
                }
            }
        }
    }

    fn taken_target_lookup(
        &mut self,
        kpc: Addr,
        ktarget: Addr,
        target: Addr,
        vcfr: Option<&RandomizedProgram>,
        fetch_done: u64,
        exec_end: u64,
    ) {
        self.bstats.btb_lookups += 1;
        match self.btb.lookup(kpc) {
            Some(t) if t == ktarget => {}
            found => {
                if found.is_none() {
                    self.bstats.btb_misses += 1;
                } else {
                    self.bstats.btb_wrong_target += 1;
                }
                // In VCFR mode a BTB miss means the cached translation is
                // absent too: the redirect additionally waits for the DRC.
                let walk = match vcfr {
                    Some(rp) => self.vcfr_derand(target, rp, exec_end),
                    None => 0,
                };
                self.redirect(fetch_done + self.cfg.btb_miss_penalty + walk);
                self.btb.update(kpc, ktarget);
            }
        }
    }

    fn indirect_target_lookup(
        &mut self,
        kpc: Addr,
        ktarget: Addr,
        target: Addr,
        vcfr: Option<&RandomizedProgram>,
        exec_end: u64,
    ) {
        self.bstats.btb_lookups += 1;
        // Indirect targets live in the randomized space; every resolution
        // consults the DRC (hidden when the BTB was right).
        let walk = match vcfr {
            Some(rp) => self.vcfr_derand(target, rp, exec_end),
            None => 0,
        };
        match self.btb.lookup(kpc) {
            Some(t) if t == ktarget => {}
            found => {
                if found.is_none() {
                    self.bstats.btb_misses += 1;
                } else {
                    self.bstats.btb_wrong_target += 1;
                }
                self.redirect(exec_end + self.cfg.mispredict_penalty + walk);
                self.btb.update(kpc, ktarget);
            }
        }
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
            branch: self.bstats,
            drc: self.drc.as_ref().map(|d| d.stats()),
            drc_walk_cycles: self.drc_walk,
            fetch_stall_cycles: self.fetch_stall,
            load_stall_cycles: self.load_stall,
            redirect_stall_cycles: self.redirect_stall,
            l2_reads_from_l1: self.hier.l2_reads_from_l1,
            exec_extra_cycles: self.exec_extra,
            rerand_epochs: self.rerand_epochs,
            rerand_stall_cycles: self.rerand_stall,
            contention_stall_cycles: self.hier.contention_cycles,
        }
    }

    /// Serialises the entire engine state in field-declaration order
    /// (checkpoint support). The configuration itself is *not* written:
    /// the checkpoint envelope's context fingerprint pins it, and
    /// [`Engine::restore`] rebuilds from the same `cfg`.
    pub(crate) fn save(&self, w: &mut Writer) {
        self.hier.save(w);
        self.gshare.save(w);
        self.btb.save(w);
        self.ras.save(w);
        let b = &self.bstats;
        w.u64(b.predictions);
        w.u64(b.mispredictions);
        w.u64(b.btb_lookups);
        w.u64(b.btb_misses);
        w.u64(b.btb_wrong_target);
        w.u64(b.ras_predictions);
        w.u64(b.ras_mispredictions);
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
        match &self.drc {
            Some(d) => {
                w.u8(1);
                d.save(w);
            }
            None => w.u8(0),
        }
        self.bitmap.save(w);
        self.stack_rand.save(w);
        self.stack_orig.save(w);
        match &self.epoch_layout {
            Some(m) => {
                w.u8(1);
                m.save(w);
            }
            None => w.u8(0),
        }
        match &self.epoch_table {
            Some(t) => {
                w.u8(1);
                t.save(w);
            }
            None => w.u8(0),
        }
        w.u64(self.rerand_epochs);
        w.u64(self.rerand_stall);
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

    /// Rebuilds an engine from [`Engine::save`] output. `cfg` and `drc`
    /// must match the configuration the saved engine ran under (the
    /// checkpoint envelope enforces this before the bytes get here).
    pub(crate) fn restore(
        cfg: &SimConfig,
        drc: Option<DrcConfig>,
        r: &mut Reader<'_>,
    ) -> Result<Engine, WireError> {
        let hier = MemoryHierarchy::restore(cfg, r)?;
        let gshare = Gshare::restore(cfg.gshare, r)?;
        let btb = Btb::restore(cfg.btb, r)?;
        let ras = Ras::restore(r)?;
        let bstats = BranchStats {
            predictions: r.u64()?,
            mispredictions: r.u64()?,
            btb_lookups: r.u64()?,
            btb_misses: r.u64()?,
            btb_wrong_target: r.u64()?,
            ras_predictions: r.u64()?,
            ras_mispredictions: r.u64()?,
        };
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
        let drc = match (r.u8()?, drc) {
            (0, None) => None,
            (1, Some(cfg)) => Some(Drc::restore(cfg, r)?),
            (tag, _) => return Err(WireError::BadTag { tag }),
        };
        let bitmap = StackBitmap::restore(r)?;
        let stack_rand = FlatMap::restore(r)?;
        let stack_orig = FlatMap::restore(r)?;
        let epoch_layout = match r.u8()? {
            0 => None,
            1 => Some(LayoutMap::restore(r)?),
            tag => return Err(WireError::BadTag { tag }),
        };
        let epoch_table = match r.u8()? {
            0 => None,
            1 => Some(TranslationTable::restore(r)?),
            tag => return Err(WireError::BadTag { tag }),
        };
        let rerand_epochs = r.u64()?;
        let rerand_stall = r.u64()?;
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
            hier,
            gshare,
            btb,
            ras,
            bstats,
            fetch_time,
            backend_time,
            redirect_at,
            window_line,
            iq,
            drc,
            bitmap,
            stack_rand,
            stack_orig,
            epoch_layout,
            epoch_table,
            rerand_epochs,
            rerand_stall,
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
        let mut e = Engine::new(&cfg, None);
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
            let (vcfr, drc, scattered) = match mode {
                Mode::Baseline(_) => (None, None, false),
                Mode::NaiveIlr(_) => (None, None, true),
                Mode::Vcfr { program, drc } => (Some(program), Some(drc), false),
            };
            let fetch = |a: Addr| if scattered { rp.rand_or_orig(a) } else { a };
            let mut stepped = Engine::new(&cfg, drc);
            let mut batched = Engine::new(&cfg, drc);
            let mut m = Machine::new(mode.image_ref());
            let (mut batch, mut accesses) = (Vec::new(), Vec::new());
            let mut replayed = 0;
            while let Some(info) = m.step().unwrap() {
                stepped.step(&info, fetch(info.pc), &fetch, vcfr);
                if vcfr_isa::superblock_eligible(&info.inst) {
                    let s = vcfr_isa::SbInst { pc: info.pc, inst: info.inst, len: info.len };
                    batch.push(ReplayInst::new(&s, fetch(info.pc)));
                    accesses.extend(info.mem_accesses());
                    continue;
                }
                replayed += batch.len();
                batched.replay_block(&batch, &accesses, vcfr);
                batch.clear();
                accesses.clear();
                batched.step(&info, fetch(info.pc), &fetch, vcfr);
            }
            assert!(batch.is_empty(), "{name}: the run ends on halt");
            assert!(replayed > 1000, "{name}: {replayed} replayed instructions");
            if scattered {
                assert_ne!(fetch(0x1000 + 10), 0x1000 + 10, "naive fetches are scattered");
            }

            let mut wa = Writer::with_magic(*b"VCFRTEST");
            stepped.save(&mut wa);
            let mut wb = Writer::with_magic(*b"VCFRTEST");
            batched.save(&mut wb);
            assert_eq!(wa.into_bytes(), wb.into_bytes(), "{name}");
            assert_eq!(batched.instructions, stepped.instructions, "{name}");
            assert_eq!(batched.cur_pc, stepped.cur_pc, "{name}");
            if let Some(d) = &batched.drc {
                // Per call: randomize the return address, de-randomize
                // the target and the return, and de-randomize the first
                // (replayed) load of the marked slot — the store then
                // clears the mark, so the later loads cost nothing.
                assert_eq!(d.stats().rand_lookups, 12, "{name}");
                assert_eq!(d.stats().derand_lookups, 12 * 3, "{name}");
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
