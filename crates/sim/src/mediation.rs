//! The paper's §IV hardware mediation layer, in one copy that the
//! in-order, out-of-order and multicore engines all drive: the DRC and
//! its table walk, the §IV-C stack-slot bitmap with the randomized
//! return addresses it marks, and the §V-C epoch re-randomization.
//!
//! [`Mediation`] exists only for a [`Mode::Vcfr`] run, so an engine
//! cannot mediate without a DRC. It computes costs and returns them; it
//! keeps no engine clock and records no trace event. Each engine decides
//! what a returned walk or swap cost does to its own pipeline.

use crate::config::{DrcBacking, SimConfig};
use crate::engine::Mode;
use crate::flatmap::FlatMap;
use crate::hierarchy::MemoryHierarchy;
use vcfr_core::{rerandomize, Drc, LayoutMap, OrigAddr, RandAddr, StackBitmap, TranslationTable};
use vcfr_isa::wire::{Reader, WireError, Writer};
use vcfr_isa::{Addr, ControlFlow, MemAccess, StepInfo};
use vcfr_rewriter::RandomizedProgram;

/// Fixed cost of an epoch swap: drain the pipeline, flush the DRC, and
/// switch the table base registers.
const RERAND_QUIESCE_CYCLES: u64 = 200;
/// Per-entry cost of rebuilding the in-memory translation tables.
const RERAND_ENTRY_CYCLES: u64 = 2;
/// Per-slot cost of rewriting a live randomized return address.
const RERAND_SLOT_CYCLES: u64 = 4;
/// Pages above the table base hidden from user space.
const TABLE_PAGES: u32 = 64;

/// The mediation hardware of one VCFR core.
pub(crate) struct Mediation<'a> {
    rp: &'a RandomizedProgram,
    backing: DrcBacking,
    /// Context-switch DRC flush period in instructions (`None` = never).
    flush_every: Option<u64>,
    /// Re-randomization epoch in instructions (`None` = never).
    epoch_every: Option<u64>,
    /// No flush or epoch lands before this instruction number. Derived
    /// state, never saved: 0 makes the next tick recompute it.
    due: u64,
    pub(crate) drc: Drc,
    pub(crate) bitmap: StackBitmap,
    stack_rand: FlatMap,
    /// Original return address held by each marked slot, kept in lockstep
    /// with `stack_rand` so epoch swaps can re-randomize live slots.
    stack_orig: FlatMap,
    /// Layout of the current epoch (None before the first swap: `rp.layout`
    /// is live).
    epoch_layout: Option<LayoutMap>,
    /// Tables of the current epoch, rebuilt at `rp.table.base()` so the
    /// invisible TLB pages stay valid across swaps.
    epoch_table: Option<TranslationTable>,
    pub(crate) rerand_epochs: u64,
    pub(crate) rerand_stall: u64,
}

/// The first multiple of `every` after `done`: the instruction number a
/// periodic event lands on (`u64::MAX` when there is no period).
fn next_multiple(every: Option<u64>, done: u64) -> u64 {
    every.map_or(u64::MAX, |v| (done / v + 1) * v)
}

impl<'a> Mediation<'a> {
    /// The mediation layer for `mode`, or `None` when the mode has none
    /// (baseline, naive ILR). Hides the translation-table pages from user
    /// space in `hier`'s dTLB (the page-visibility bit).
    pub(crate) fn new(
        mode: &Mode<'a>,
        cfg: &SimConfig,
        hier: &mut MemoryHierarchy,
    ) -> Option<Mediation<'a>> {
        let (rp, drc) = mode.vcfr()?;
        let base = rp.table.base();
        for page in 0..TABLE_PAGES {
            hier.dtlb.set_invisible(base + page * 4096);
        }
        Some(Mediation::empty(rp, cfg, Drc::new(drc)))
    }

    /// A layer around `drc` with no marked slot and no epoch swapped yet.
    fn empty(rp: &'a RandomizedProgram, cfg: &SimConfig, drc: Drc) -> Mediation<'a> {
        Mediation {
            rp,
            backing: cfg.drc_backing,
            flush_every: cfg.drc_flush_interval.filter(|&v| v > 0),
            epoch_every: cfg.rerand_epoch.filter(|&v| v > 0),
            due: 0,
            drc,
            bitmap: StackBitmap::new(),
            stack_rand: FlatMap::new(),
            stack_orig: FlatMap::new(),
            epoch_layout: None,
            epoch_table: None,
            rerand_epochs: 0,
            rerand_stall: 0,
        }
    }

    /// The first instruction number after `done` on which a DRC flush or
    /// an epoch swap lands (`u64::MAX` when neither is configured). The
    /// superblock batch clamp and [`Mediation::tick`] both use it, so the
    /// rule "an instruction landing on a multiple fires the event" lives
    /// here only.
    pub(crate) fn next_boundary(&self, done: u64) -> u64 {
        next_multiple(self.flush_every, done).min(next_multiple(self.epoch_every, done))
    }

    /// The per-instruction tick, called before instruction number `n`
    /// (1-based) fetches. Flushes the DRC on a context-switch boundary
    /// (other processes own it in between) and returns whether an epoch
    /// swap is due, which the engine performs with
    /// [`Mediation::swap_epoch`].
    pub(crate) fn tick(&mut self, n: u64) -> bool {
        if n < self.due {
            return false;
        }
        self.due = self.next_boundary(n);
        if next_multiple(self.flush_every, n - 1) == n {
            self.drc.flush();
        }
        next_multiple(self.epoch_every, n - 1) == n
    }

    /// The randomized address of orig-space `addr` in the live epoch
    /// (addresses left unrandomized map to themselves).
    pub(crate) fn rand_of(&self, addr: Addr) -> Addr {
        match &self.epoch_layout {
            Some(m) => m.to_rand(OrigAddr(addr)).map(|r| r.raw()).unwrap_or(addr),
            None => self.rp.rand_or_orig(addr),
        }
    }

    /// The live epoch's translation tables.
    pub(crate) fn table(&self) -> &TranslationTable {
        self.epoch_table.as_ref().unwrap_or(&self.rp.table)
    }

    /// Cycles of the table walk for a DRC miss on the entry at
    /// `entry_addr`, started at cycle `now`.
    fn walk(&self, hier: &mut MemoryHierarchy, entry_addr: Addr, now: u64) -> u64 {
        match self.backing {
            DrcBacking::SharedL2 => hier.table_walk(entry_addr, now),
            DrcBacking::Dedicated { latency } => latency,
        }
    }

    /// The data-side mediation of one instruction, at cycle `now`. A
    /// call's push randomizes the return address through the DRC and
    /// marks the slot; a return's pop clears its slot; every other access
    /// goes through [`Mediation::mediate_slot`]. `on_walk` receives the
    /// cycles of each table walk, in order. Returns the cycles the
    /// instruction's loads wait for: the push's walk happens in the
    /// store's shadow and is not among them.
    pub(crate) fn mediate(
        &mut self,
        info: &StepInfo,
        hier: &mut MemoryHierarchy,
        now: u64,
        mut on_walk: impl FnMut(u64),
    ) -> u64 {
        let push_ret = match info.control {
            Some(ControlFlow::Call { ret_addr, .. })
            | Some(ControlFlow::IndirectCall { ret_addr, .. }) => Some(ret_addr),
            _ => None,
        };
        let ret = matches!(info.control, Some(ControlFlow::Return { .. }));
        let mut stall = 0;
        for acc in info.mem_accesses() {
            let protocol = if acc.write { push_ret.is_some() } else { ret };
            if !protocol {
                let walk = self.mediate_slot(acc, hier, now);
                if walk > 0 {
                    on_walk(walk);
                }
                stall += walk;
            }
        }
        if let Some(ret_addr) = push_ret {
            let table = self.epoch_table.as_ref().unwrap_or(&self.rp.table);
            if let Ok(l) = self.drc.randomize(OrigAddr(ret_addr), table) {
                if !l.hit {
                    let walk = self.walk(hier, l.entry_addr, now);
                    if walk > 0 {
                        on_walk(walk);
                    }
                }
                if let Some(push) = info.mem_accesses().find(|a| a.write) {
                    self.bitmap.mark(push.addr);
                    self.stack_rand.insert(push.addr, l.translated);
                    self.stack_orig.insert(push.addr, ret_addr);
                }
            }
        } else if ret {
            if let Some(pop) = info.mem_accesses().next() {
                self.unmark(pop.addr);
            }
        }
        stall
    }

    /// Stack-slot hygiene and marked-slot loads (§IV-C) for one data
    /// access that is not a call's return-address push or a return's
    /// pop: an overwrite of a slot holding a randomized return address
    /// clears the mark, and a read of one is transparently de-randomized
    /// — one DRC lookup, plus the table walk on a miss, which the load
    /// waits for. Returns the walk cycles.
    pub(crate) fn mediate_slot(
        &mut self,
        acc: MemAccess,
        hier: &mut MemoryHierarchy,
        now: u64,
    ) -> u64 {
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
        let table = self.epoch_table.as_ref().unwrap_or(&self.rp.table);
        match self.drc.derandomize(RandAddr(v), table) {
            Ok(l) if !l.hit => self.walk(hier, l.entry_addr, now),
            _ => 0,
        }
    }

    /// Forgets the randomized return address held by stack slot `slot`.
    fn unmark(&mut self, slot: Addr) {
        self.bitmap.clear(slot);
        self.stack_rand.remove(slot);
        self.stack_orig.remove(slot);
    }

    /// De-randomizes the transfer target `target` (orig space) through
    /// the DRC in the live epoch's layout; returns the walk cycles on a
    /// miss, 0 on a hit. The caller decides whether they land on the
    /// critical path.
    pub(crate) fn derandomize_target(
        &mut self,
        target: Addr,
        hier: &mut MemoryHierarchy,
        now: u64,
    ) -> u64 {
        let rand = self.rand_of(target);
        let table = self.epoch_table.as_ref().unwrap_or(&self.rp.table);
        match self.drc.derandomize(RandAddr(rand), table) {
            Ok(l) if !l.hit => self.walk(hier, l.entry_addr, now),
            _ => 0,
        }
    }

    /// Swaps to a freshly re-randomized layout (§V-C): the DRC is
    /// flushed, the in-memory tables are rebuilt at the same base, and
    /// every live marked stack slot is rewritten to hold its new
    /// randomized return address. Returns the pause in cycles (quiesce,
    /// table rebuild, slot rewrites); the engine advances its own clocks
    /// past it.
    pub(crate) fn swap_epoch(&mut self) -> u64 {
        self.rerand_epochs += 1;
        // Deterministic per epoch: seeded by the epoch ordinal alone.
        let seed = 0x5eed_0000_0000_0000u64 ^ self.rerand_epochs;
        let rp = self.rp;
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
        self.drc.flush();
        let cost = RERAND_QUIESCE_CYCLES
            + table.len() as u64 * RERAND_ENTRY_CYCLES
            + slots * RERAND_SLOT_CYCLES;
        self.rerand_stall += cost;
        self.epoch_layout = Some(fresh);
        self.epoch_table = Some(table);
        cost
    }

    /// Serialises `med` (checkpoint support): the DRC, bitmap, slot maps,
    /// epoch layout and tables, and the rerand counters, in that order. A
    /// machine without the layer writes the empty state, so every engine
    /// payload has the same shape.
    pub(crate) fn save(med: Option<&Mediation<'_>>, w: &mut Writer) {
        let Some(m) = med else {
            w.u8(0);
            StackBitmap::new().save(w);
            FlatMap::new().save(w);
            FlatMap::new().save(w);
            w.u8(0);
            w.u8(0);
            w.u64(0);
            w.u64(0);
            return;
        };
        w.u8(1);
        m.drc.save(w);
        m.bitmap.save(w);
        m.stack_rand.save(w);
        m.stack_orig.save(w);
        match &m.epoch_layout {
            Some(l) => {
                w.u8(1);
                l.save(w);
            }
            None => w.u8(0),
        }
        match &m.epoch_table {
            Some(t) => {
                w.u8(1);
                t.save(w);
            }
            None => w.u8(0),
        }
        w.u64(m.rerand_epochs);
        w.u64(m.rerand_stall);
    }

    /// Rebuilds the layer [`Mediation::save`] wrote for `mode` under
    /// `cfg` (the checkpoint envelope pins both before the bytes get
    /// here). The dTLB state comes back with the hierarchy, so no page is
    /// hidden again.
    pub(crate) fn restore(
        mode: &Mode<'a>,
        cfg: &SimConfig,
        r: &mut Reader<'_>,
    ) -> Result<Option<Mediation<'a>>, WireError> {
        let vcfr = mode.vcfr();
        let drc = match (r.u8()?, vcfr) {
            (0, None) => None,
            (1, Some((_, drc))) => Some(Drc::restore(drc, r)?),
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
        Ok(vcfr.zip(drc).map(|((rp, _), drc)| Mediation {
            bitmap,
            stack_rand,
            stack_orig,
            epoch_layout,
            epoch_table,
            rerand_epochs,
            rerand_stall,
            ..Mediation::empty(rp, cfg, drc)
        }))
    }
}
