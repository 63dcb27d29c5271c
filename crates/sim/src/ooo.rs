//! Out-of-order superscalar extension — the paper's §IX future work
//! ("we will explore and extend the idea to the out-of-order superscalar
//! processor").
//!
//! A trace-driven dataflow model: instructions dispatch in order at up to
//! `width` per cycle into a `rob_entries`-deep window, issue when their
//! register/flag/memory-order dependences are satisfied (execution
//! resources are idealised — a standard limit-study simplification,
//! stated here so the numbers are read correctly), and commit in order at
//! up to `width` per cycle. The front end, memory hierarchy, predictors
//! and the VCFR/DRC mediation layer are the same components the in-order
//! model uses, so the three machines (baseline / naive ILR / VCFR) remain
//! directly comparable.
//!
//! The core is a first-class [`crate::Session`] backend
//! ([`crate::EngineKind::Ooo`]): it tracks redirect stall cycles, pays
//! epoch re-randomization pauses, serialises into checkpoints, and keeps
//! a front-end floor identity the audit can check exactly — the fetch
//! clock absorbs every fetch, redirect and rerand stall cycle serially,
//! so `cycles ≥ fetch_stall + redirect_stall + rerand_stall` always. Its
//! mediation layer and control resolver are the in-order core's own
//! ([`crate::mediation`], [`crate::predict`]), stack-slot hygiene and
//! the live return-address rewrite of an epoch swap included.

use crate::config::SimConfig;
use crate::engine::{exec_extra_cycles, Mode};
use crate::hierarchy::MemoryHierarchy;
use crate::mediation::Mediation;
use crate::predict::Predictors;
use crate::stats::SimStats;
use std::collections::VecDeque;
use vcfr_isa::wire::{Reader, WireError, Writer};
use vcfr_isa::{Addr, Reg, StepInfo};

/// Geometry of the out-of-order core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OooConfig {
    /// Fetch/dispatch/commit width (instructions per cycle).
    pub width: usize,
    /// Reorder-buffer depth.
    pub rob_entries: usize,
}

impl Default for OooConfig {
    fn default() -> OooConfig {
        OooConfig { width: 4, rob_entries: 128 }
    }
}

/// Pipeline depth between fetch and dispatch.
const DECODE_DEPTH: u64 = 4;
/// Depth between the last execution cycle and retirement.
const COMMIT_DEPTH: u64 = 2;

pub(crate) struct OooEngine<'a> {
    pub(crate) cfg: SimConfig,
    pub(crate) ooo: OooConfig,
    /// The machine this core simulates.
    pub(crate) mode: Mode<'a>,
    pub(crate) hier: MemoryHierarchy,
    pub(crate) pred: Predictors,
    // Front end.
    pub(crate) fetch_cycle: u64,
    pub(crate) fetch_slots: usize,
    pub(crate) redirect_at: u64,
    pub(crate) window_line: Option<Addr>,
    // Dataflow state.
    pub(crate) reg_ready: [u64; 16],
    pub(crate) flags_ready: u64,
    pub(crate) last_store_done: u64,
    // In-order retire bookkeeping.
    pub(crate) rob: VecDeque<u64>,
    pub(crate) lsq: VecDeque<u64>,
    pub(crate) commit_cycle: u64,
    pub(crate) commit_slots: usize,
    pub(crate) last_retire: u64,
    /// The VCFR mediation layer (`None` outside VCFR mode).
    pub(crate) med: Option<Mediation<'a>>,
    pub(crate) drc_walk: u64,
    pub(crate) fetch_stall: u64,
    pub(crate) load_stall: u64,
    pub(crate) redirect_stall: u64,
    pub(crate) exec_extra: u64,
    pub(crate) instructions: u64,
}

impl<'a> OooEngine<'a> {
    pub(crate) fn new(cfg: &SimConfig, ooo: OooConfig, mode: Mode<'a>) -> OooEngine<'a> {
        let mut hier = MemoryHierarchy::new(cfg);
        let med = Mediation::new(&mode, cfg, &mut hier);
        OooEngine {
            cfg: *cfg,
            ooo,
            mode,
            hier,
            pred: Predictors::new(cfg),
            fetch_cycle: 0,
            fetch_slots: 0,
            redirect_at: 0,
            window_line: None,
            reg_ready: [0; 16],
            flags_ready: 0,
            last_store_done: 0,
            rob: VecDeque::new(),
            lsq: VecDeque::new(),
            commit_cycle: 0,
            commit_slots: 0,
            last_retire: 0,
            med,
            drc_walk: 0,
            fetch_stall: 0,
            load_stall: 0,
            redirect_stall: 0,
            exec_extra: 0,
            instructions: 0,
        }
    }

    /// Drains a pending front-end redirect: fetch jumps forward to the
    /// resolution point and the skipped cycles are charged as redirect
    /// stall. A redirect landing on (or behind) the current fetch cycle
    /// contributes zero — `saturating_sub`, never a wrapped subtraction.
    fn drain_redirect(&mut self) {
        let lost = self.redirect_at.saturating_sub(self.fetch_cycle);
        if lost > 0 {
            self.redirect_stall += lost;
            self.fetch_cycle = self.redirect_at;
            self.fetch_slots = 0;
        }
    }

    /// Performs an epoch swap on the mediation layer (§V-C): the whole
    /// window drains, and both the fetch and commit clocks advance past
    /// the pause, so the front-end floor identity stays exact.
    fn rerand(&mut self) {
        let Some(med) = &mut self.med else { return };
        let cost = med.swap_epoch();
        let now = self.last_retire.max(self.fetch_cycle) + cost;
        self.fetch_cycle = now;
        self.fetch_slots = 0;
        self.redirect_at = self.redirect_at.max(now);
        self.window_line = None;
        self.rob.clear();
        self.lsq.clear();
        self.commit_cycle = now;
        self.commit_slots = 0;
        self.last_retire = now;
    }

    /// One instruction through the timing model.
    pub(crate) fn step(&mut self, info: &StepInfo) {
        self.instructions += 1;
        let cfg = self.cfg;

        // Context-switch DRC flushes and live re-randomization (§V-C).
        if self.med.as_mut().is_some_and(|m| m.tick(self.instructions)) {
            self.rerand();
        }

        // ---- fetch (width per cycle, same byte-queue/line model) -------
        self.drain_redirect();
        let line_bytes = cfg.il1.line_bytes as Addr;
        let fetch_pc = self.mode.fetch_addr(info.pc);
        let first = fetch_pc & !(line_bytes - 1);
        let last = (fetch_pc + info.len as Addr - 1) & !(line_bytes - 1);
        let mut stall = 0;
        let mut line = first;
        loop {
            if self.window_line != Some(line) {
                stall += self.hier.fetch_line(line, self.fetch_cycle);
                self.window_line = Some(line);
            }
            if line == last {
                break;
            }
            line += line_bytes;
        }
        if stall > 0 {
            self.fetch_cycle += stall;
            self.fetch_slots = 0;
            self.fetch_stall += stall;
        }
        let fetch_done = self.fetch_cycle;
        self.fetch_slots += 1;
        if self.fetch_slots >= self.ooo.width {
            self.fetch_cycle += 1;
            self.fetch_slots = 0;
        }

        // ---- dispatch: in order, ROB-limited -----------------------------
        let mut dispatch = fetch_done + DECODE_DEPTH;
        if self.rob.len() >= self.ooo.rob_entries {
            if let Some(oldest_retire) = self.rob.pop_front() {
                dispatch = dispatch.max(oldest_retire);
            }
        }

        // ---- issue: dataflow ---------------------------------------------
        let mut ready = dispatch;
        for r in info.inst.reads().iter() {
            ready = ready.max(self.reg_ready[r.index()]);
        }
        if info.inst.reads_flags() {
            ready = ready.max(self.flags_ready);
        }
        // Conservative memory ordering: loads wait for the youngest older
        // store, stores serialise behind each other.
        let is_load = info.mem_accesses().any(|a| !a.write);
        let is_store = info.mem_accesses().any(|a| a.write);
        if is_load || is_store {
            ready = ready.max(self.last_store_done);
            // LSQ capacity: a memory op cannot enter until the oldest
            // in-flight one completes when the queue is full.
            if self.lsq.len() >= self.cfg.lsq_entries {
                if let Some(oldest) = self.lsq.pop_front() {
                    ready = ready.max(oldest);
                }
            }
        }

        let extra = exec_extra_cycles(&info.inst);
        self.exec_extra += extra;
        let mut lat = 1 + extra;
        for acc in info.mem_accesses() {
            let l = self.hier.data_access(acc.addr, acc.write, ready);
            self.load_stall += l;
            if !acc.write {
                lat += l;
            }
        }

        // ---- VCFR mediation: a marked-slot load waits for its walk -------
        if let Some(med) = &mut self.med {
            lat += med.mediate(info, &mut self.hier, ready, |cycles| self.drc_walk += cycles);
        }
        let mut exec_done = ready + lat;

        // ---- control flow ----------------------------------------------------
        if let Some(cf) = info.control {
            let (med, hier) = (self.med.as_mut(), &mut self.hier);
            let r = self.pred.resolve(info.pc, cf, &self.mode, med, hier, fetch_done, exec_done);
            self.drc_walk += r.walk;
            if let Some(at) = r.redirect {
                self.redirect_at = self.redirect_at.max(at);
            }
            if cf.taken_target().is_some() {
                self.window_line = None;
            }
            // A resolved transfer pins the dataflow: younger instructions
            // were fetched after the redirect anyway.
            exec_done = exec_done.max(ready + 1);
        }

        // ---- writeback ----------------------------------------------------
        for r in info.inst.writes().iter() {
            // Stack-pointer updates are cheap renames in real cores: they
            // complete at dispatch, not after the memory access.
            let done = if r == Reg::Rsp { ready + 1 } else { exec_done };
            self.reg_ready[r.index()] = self.reg_ready[r.index()].max(done);
        }
        if info.inst.writes_flags() {
            self.flags_ready = self.flags_ready.max(exec_done);
        }
        if is_store {
            self.last_store_done = self.last_store_done.max(exec_done);
        }
        if is_load || is_store {
            self.lsq.push_back(exec_done);
        }

        // ---- in-order commit, width per cycle ------------------------------
        let mut retire = (exec_done + COMMIT_DEPTH).max(self.last_retire);
        if retire > self.commit_cycle {
            self.commit_cycle = retire;
            self.commit_slots = 0;
        }
        self.commit_slots += 1;
        if self.commit_slots >= self.ooo.width {
            self.commit_cycle += 1;
            self.commit_slots = 0;
        }
        retire = retire.max(self.commit_cycle);
        self.last_retire = retire;
        self.rob.push_back(retire);
    }

    pub(crate) fn stats_now(&self) -> SimStats {
        SimStats {
            instructions: self.instructions,
            cycles: self.last_retire.max(self.fetch_cycle),
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

    /// Serialises the engine in field-declaration order (checkpoint
    /// support). The geometry (`width`, `rob_entries`) is written too, so
    /// a restored engine cannot silently run a different window.
    pub(crate) fn save(&self, w: &mut Writer) {
        w.u64(self.ooo.width as u64);
        w.u64(self.ooo.rob_entries as u64);
        self.hier.save(w);
        self.pred.save(w);
        w.u64(self.fetch_cycle);
        w.u64(self.fetch_slots as u64);
        w.u64(self.redirect_at);
        match self.window_line {
            Some(line) => {
                w.u8(1);
                w.u32(line);
            }
            None => w.u8(0),
        }
        for r in self.reg_ready {
            w.u64(r);
        }
        w.u64(self.flags_ready);
        w.u64(self.last_store_done);
        w.u64(self.rob.len() as u64);
        for &t in &self.rob {
            w.u64(t);
        }
        w.u64(self.lsq.len() as u64);
        for &t in &self.lsq {
            w.u64(t);
        }
        w.u64(self.commit_cycle);
        w.u64(self.commit_slots as u64);
        w.u64(self.last_retire);
        Mediation::save(self.med.as_ref(), w);
        w.u64(self.drc_walk);
        w.u64(self.fetch_stall);
        w.u64(self.load_stall);
        w.u64(self.redirect_stall);
        w.u64(self.exec_extra);
        w.u64(self.instructions);
    }

    /// Rebuilds an engine from [`OooEngine::save`] output. `cfg` and
    /// `mode` must match the configuration the saved engine ran under
    /// (the checkpoint envelope enforces this before the bytes get here).
    pub(crate) fn restore(
        cfg: &SimConfig,
        mode: Mode<'a>,
        r: &mut Reader<'_>,
    ) -> Result<OooEngine<'a>, WireError> {
        let width = r.u64()?;
        let rob_entries = r.u64()?;
        if width == 0 || width > 1 << 10 || rob_entries > 1 << 20 {
            return Err(WireError::LengthOutOfRange { len: width.max(rob_entries) });
        }
        let ooo = OooConfig { width: width as usize, rob_entries: rob_entries as usize };
        let hier = MemoryHierarchy::restore(cfg, r)?;
        let pred = Predictors::restore(cfg, r)?;
        let fetch_cycle = r.u64()?;
        let fetch_slots = r.u64()? as usize;
        let redirect_at = r.u64()?;
        let window_line = match r.u8()? {
            0 => None,
            1 => Some(r.u32()?),
            tag => return Err(WireError::BadTag { tag }),
        };
        let mut reg_ready = [0u64; 16];
        for slot in reg_ready.iter_mut() {
            *slot = r.u64()?;
        }
        let flags_ready = r.u64()?;
        let last_store_done = r.u64()?;
        let n_rob = r.u64()?;
        if n_rob > 1 << 20 {
            return Err(WireError::LengthOutOfRange { len: n_rob });
        }
        let mut rob = VecDeque::with_capacity(n_rob as usize);
        for _ in 0..n_rob {
            rob.push_back(r.u64()?);
        }
        let n_lsq = r.u64()?;
        if n_lsq > 1 << 20 {
            return Err(WireError::LengthOutOfRange { len: n_lsq });
        }
        let mut lsq = VecDeque::with_capacity(n_lsq as usize);
        for _ in 0..n_lsq {
            lsq.push_back(r.u64()?);
        }
        let commit_cycle = r.u64()?;
        let commit_slots = r.u64()? as usize;
        let last_retire = r.u64()?;
        let med = Mediation::restore(&mode, cfg, r)?;
        Ok(OooEngine {
            cfg: *cfg,
            ooo,
            mode,
            hier,
            pred,
            fetch_cycle,
            fetch_slots,
            redirect_at,
            window_line,
            reg_ready,
            flags_ready,
            last_store_done,
            rob,
            lsq,
            commit_cycle,
            commit_slots,
            last_retire,
            med,
            drc_walk: r.u64()?,
            fetch_stall: r.u64()?,
            load_stall: r.u64()?,
            redirect_stall: r.u64()?,
            exec_extra: r.u64()?,
            instructions: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineKind;
    use crate::engine::{simulate, SimOutput};
    use crate::Session;
    use vcfr_core::DrcConfig;
    use vcfr_isa::{AluOp, Asm, Cond, Image, Machine, Reg};
    use vcfr_rewriter::{randomize, RandomizeConfig};

    /// Runs `mode` on the session's out-of-order core.
    fn ooo(mode: Mode, cfg: &SimConfig, max_insts: u64) -> SimOutput {
        let cfg = SimConfig { engine: EngineKind::Ooo, ..*cfg };
        Session::new(mode, &cfg, max_insts).unwrap().run().unwrap().output
    }

    /// Runs `mode` on an out-of-order core of a geometry the session does
    /// not build.
    fn ooo_geometry(mode: Mode, geometry: OooConfig, max_insts: u64) -> SimStats {
        let mut machine = Machine::new(mode.image_ref());
        let mut engine = OooEngine::new(&SimConfig::default(), geometry, mode);
        while engine.instructions < max_insts {
            let Some(info) = machine.step().unwrap() else { break };
            engine.step(&info);
        }
        engine.stats_now()
    }

    /// Independent parallel work: an OoO core must beat the scalar core.
    fn ilp_workload() -> Image {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rcx, 2_000);
        let top = a.here();
        // Eight independent chains per iteration.
        for r in [Reg::Rax, Reg::Rdx, Reg::Rsi, Reg::Rdi, Reg::R8, Reg::R9, Reg::R10, Reg::R11]
        {
            a.alu_ri(AluOp::Add, r, 3);
            a.alu_ri(AluOp::Xor, r, 0x55);
        }
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.halt();
        a.finish().unwrap()
    }

    /// A single serial dependence chain: OoO gains nothing.
    fn serial_workload() -> Image {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rcx, 2_000);
        let top = a.here();
        for _ in 0..8 {
            a.alu_ri(AluOp::Add, Reg::Rax, 3);
            a.alu_ri(AluOp::Mul, Reg::Rax, 3);
        }
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.halt();
        a.finish().unwrap()
    }

    /// Data-dependent branches off an LCG: gshare cannot learn them, so
    /// the run is mispredict-heavy.
    fn branchy_workload() -> Image {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rax, 12345);
        a.mov_ri(Reg::Rcx, 2_000);
        let top = a.here();
        a.alu_ri(AluOp::Mul, Reg::Rax, 1103515);
        a.alu_ri(AluOp::Add, Reg::Rax, 12345);
        a.mov_rr(Reg::Rdx, Reg::Rax);
        // Branch on a *high* bit: the low bits of an LCG are short-period
        // and gshare learns them.
        a.alu_ri(AluOp::And, Reg::Rdx, 0x10_0000);
        a.cmp_i(Reg::Rdx, 0);
        let skip = a.label();
        a.jcc(Cond::Eq, skip);
        a.alu_ri(AluOp::Add, Reg::Rsi, 1);
        a.bind(skip);
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn ooo_exploits_ilp() {
        let img = ilp_workload();
        let cfg = SimConfig::default();
        let scalar = simulate(Mode::Baseline(&img), &cfg, 1_000_000).unwrap();
        let wide = ooo(Mode::Baseline(&img), &cfg, 1_000_000);
        assert!(
            wide.stats.ipc() > 1.8 * scalar.stats.ipc(),
            "ooo {} vs scalar {}",
            wide.stats.ipc(),
            scalar.stats.ipc()
        );
        assert!(wide.stats.ipc() <= 4.0 + 1e-9);
    }

    #[test]
    fn serial_chains_cap_ooo_gains() {
        let img = serial_workload();
        let cfg = SimConfig::default();
        let wide = ooo(Mode::Baseline(&img), &cfg, 1_000_000);
        // The mul-latency chain limits IPC well below width.
        assert!(wide.stats.ipc() < 1.5, "ipc {}", wide.stats.ipc());
    }

    #[test]
    fn width_one_ooo_tracks_the_inorder_core() {
        let img = ilp_workload();
        let narrow =
            ooo_geometry(Mode::Baseline(&img), OooConfig { width: 1, rob_entries: 128 }, 1_000_000);
        // Width-1 caps at IPC 1 regardless of ILP.
        assert!(narrow.ipc() <= 1.0 + 1e-9);
        assert!(narrow.ipc() > 0.5);
    }

    #[test]
    fn vcfr_overhead_stays_small_on_the_ooo_core() {
        let img = ilp_workload();
        let cfg = SimConfig::default();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let base = ooo(Mode::Baseline(&img), &cfg, 1_000_000);
        let naive = ooo(Mode::NaiveIlr(&rp), &cfg, 1_000_000);
        let vcfr = ooo(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &cfg,
            1_000_000,
        );
        assert_eq!(base.outcome.output, vcfr.outcome.output);
        assert!(vcfr.stats.ipc() > 0.85 * base.stats.ipc());
        assert!(vcfr.stats.ipc() >= naive.stats.ipc());
    }

    #[test]
    fn rob_depth_matters_under_memory_latency() {
        // Pointer-chase-ish loads: a deeper window overlaps more misses.
        let mut a = Asm::new(0x1000);
        let buf = a.data_zeroed(1 << 16);
        a.mov_ri(Reg::Rbx, buf.0 as i64);
        a.mov_ri(Reg::Rcx, 3_000);
        a.mov_ri(Reg::Rdx, 0);
        let top = a.here();
        // Two independent strided loads per iteration.
        a.load_idx(Reg::Rax, Reg::Rbx, Reg::Rdx, 3, 0);
        a.load_idx(Reg::R8, Reg::Rbx, Reg::Rdx, 3, 8 * 1024);
        a.alu_ri(AluOp::Add, Reg::Rdx, 17);
        a.alu_ri(AluOp::And, Reg::Rdx, 0xfff);
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.halt();
        let img = a.finish().unwrap();
        let geometry = |rob_entries| OooConfig { width: 4, rob_entries };
        let shallow = ooo_geometry(Mode::Baseline(&img), geometry(4), 1_000_000);
        let deep = ooo_geometry(Mode::Baseline(&img), geometry(256), 1_000_000);
        assert!(deep.ipc() >= shallow.ipc());
    }

    /// The redirect-drain regression (PR 6's fix, ported): a redirect
    /// landing behind or exactly on the fetch cycle contributes zero
    /// stall — never a wrapped subtraction — and only the cycles past the
    /// fetch point are charged.
    #[test]
    fn redirect_landing_on_or_behind_fetch_adds_no_stall() {
        let cfg = SimConfig::default();
        let img = serial_workload();
        let mut e = OooEngine::new(&cfg, OooConfig::default(), Mode::Baseline(&img));
        e.fetch_cycle = 100;
        e.redirect_at = 90; // stale redirect behind fetch
        e.drain_redirect();
        assert_eq!(e.redirect_stall, 0);
        assert_eq!(e.fetch_cycle, 100);
        e.redirect_at = 100; // landing exactly on the fetch cycle
        e.drain_redirect();
        assert_eq!(e.redirect_stall, 0);
        assert_eq!(e.fetch_cycle, 100);
        e.redirect_at = 130; // a genuine drain charges the gap
        e.drain_redirect();
        assert_eq!(e.redirect_stall, 30);
        assert_eq!(e.fetch_cycle, 130);
    }

    /// Mispredict-heavy runs now report their redirect cycles, and the
    /// front-end floor identity holds: the fetch clock absorbs fetch,
    /// redirect and rerand stalls serially.
    #[test]
    fn mispredicts_charge_redirect_stall_on_the_ooo_core() {
        let img = branchy_workload();
        let cfg = SimConfig::default();
        let out = ooo(Mode::Baseline(&img), &cfg, 1_000_000);
        assert!(out.stats.branch.mispredictions > 100, "{:?}", out.stats.branch);
        assert!(out.stats.redirect_stall_cycles > 0);
        assert!(
            out.stats.cycles
                >= out.stats.fetch_stall_cycles
                    + out.stats.redirect_stall_cycles
                    + out.stats.rerand_stall_cycles,
            "front-end floor violated: {:?}",
            out.stats
        );
    }

    #[test]
    fn rerand_epochs_fire_on_the_ooo_core() {
        let img = ilp_workload();
        let cfg = SimConfig::builder()
            .rerand_epoch(Some(8_000))
            .drc_entries(Some(128))
            .build()
            .unwrap();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let vcfr = ooo(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &cfg,
            50_000,
        );
        let cfg = SimConfig { rerand_epoch: None, ..cfg };
        let base = ooo(Mode::Baseline(&img), &cfg, 50_000);
        assert_eq!(base.outcome.output, vcfr.outcome.output, "swaps must stay transparent");
        assert!(vcfr.stats.rerand_epochs >= 3, "{:?}", vcfr.stats.rerand_epochs);
        assert!(vcfr.stats.rerand_stall_cycles > 0);
        assert!(vcfr.stats.cycles > base.stats.cycles, "the pause must cost cycles");
    }

    /// Serialise mid-run, restore, and finish: the restored engine must
    /// produce bit-identical statistics to the uninterrupted run.
    #[test]
    fn save_restore_roundtrip_is_bit_identical() {
        let img = branchy_workload();
        let cfg = SimConfig::default();
        let rp = randomize(&img, &RandomizeConfig::with_seed(3)).unwrap();
        let drc = DrcConfig::direct_mapped(64);
        let split = 5_000u64;

        let mode = Mode::Vcfr { program: &rp, drc };
        let run = |resume: bool| {
            let mut machine = Machine::new(&rp.original);
            let mut engine = OooEngine::new(&cfg, OooConfig::default(), mode);
            let mut saved: Option<Vec<u8>> = None;
            while let Some(info) = machine.step().unwrap() {
                engine.step(&info);
                if engine.instructions == split {
                    const MAGIC: [u8; 8] = *b"OOOTEST1";
                    let mut w = Writer::with_magic(MAGIC);
                    engine.save(&mut w);
                    saved = Some(w.into_bytes());
                    if resume {
                        let bytes = saved.clone().unwrap();
                        let mut r = Reader::with_magic(&bytes, MAGIC).unwrap();
                        engine = OooEngine::restore(&cfg, mode, &mut r).unwrap();
                        assert!(r.is_exhausted(), "trailing bytes after restore");
                    }
                }
            }
            (engine.stats_now(), saved.unwrap())
        };
        let (straight, bytes_a) = run(false);
        let (resumed, bytes_b) = run(true);
        assert_eq!(bytes_a, bytes_b, "save is deterministic");
        assert_eq!(straight, resumed, "resume diverged from the uninterrupted run");
    }
}
