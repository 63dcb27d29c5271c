//! Branch prediction: 2-level gshare direction predictor, set-associative
//! branch target buffer, and a return address stack — the §VI-C predictor
//! complement — plus [`Predictors`], the one control resolver every
//! engine's front end shares.

use crate::config::{BtbConfig, GshareConfig, SimConfig};
use crate::engine::Mode;
use crate::hierarchy::MemoryHierarchy;
use crate::mediation::Mediation;
use vcfr_isa::wire::{Reader, WireError, Writer};
use vcfr_isa::{Addr, ControlFlow};

/// Direction-predictor counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches predicted.
    pub predictions: u64,
    /// Direction mispredictions.
    pub mispredictions: u64,
    /// BTB lookups for taken transfers.
    pub btb_lookups: u64,
    /// BTB lookups that missed (target unknown at fetch).
    pub btb_misses: u64,
    /// BTB hits whose stored target was wrong (indirects that moved).
    pub btb_wrong_target: u64,
    /// Return-address-stack predictions.
    pub ras_predictions: u64,
    /// RAS mispredictions (overflowed or clobbered stack).
    pub ras_mispredictions: u64,
}

impl BranchStats {
    /// Conditional-direction misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

/// 2-level gshare: global history XORed into a pattern history table of
/// 2-bit saturating counters.
#[derive(Clone, Debug)]
pub struct Gshare {
    history: u64,
    mask: u64,
    pht: Vec<u8>,
}

impl Gshare {
    /// Creates a predictor with `cfg.history_bits` of global history.
    pub fn new(cfg: GshareConfig) -> Gshare {
        let bits = cfg.history_bits.clamp(4, 24);
        Gshare { history: 0, mask: (1u64 << bits) - 1, pht: vec![1u8; 1usize << bits] }
    }

    fn index(&self, pc: Addr) -> usize {
        ((((pc >> 1) as u64) ^ self.history) & self.mask) as usize
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: Addr) -> bool {
        self.pht[self.index(pc)] >= 2
    }

    /// Trains the predictor with the resolved direction and shifts the
    /// global history.
    pub fn update(&mut self, pc: Addr, taken: bool) {
        let i = self.index(pc);
        let c = &mut self.pht[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = ((self.history << 1) | taken as u64) & self.mask;
    }

    /// Serialises the history register and pattern table (checkpoint
    /// support).
    pub fn save(&self, w: &mut Writer) {
        w.u64(self.history);
        w.bytes(&self.pht);
    }

    /// Rebuilds a predictor from [`Gshare::save`] output; `cfg` must
    /// match the saved predictor's configuration.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated input or a table size that disagrees
    /// with `cfg`.
    pub fn restore(cfg: GshareConfig, r: &mut Reader<'_>) -> Result<Gshare, WireError> {
        let mut g = Gshare::new(cfg);
        g.history = r.u64()?;
        let pht = r.bytes()?;
        if pht.len() != g.pht.len() {
            return Err(WireError::LengthOutOfRange { len: pht.len() as u64 });
        }
        g.pht.copy_from_slice(pht);
        Ok(g)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct BtbLine {
    valid: bool,
    tag: Addr,
    target: Addr,
    lru: u64,
}

/// Set-associative branch target buffer.
#[derive(Clone, Debug)]
pub struct Btb {
    sets: usize,
    ways: usize,
    lines: Vec<BtbLine>,
    tick: u64,
}

impl Btb {
    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics when entries do not divide into a power-of-two set count.
    pub fn new(cfg: BtbConfig) -> Btb {
        let sets = cfg.entries / cfg.ways;
        assert!(sets.is_power_of_two() && sets > 0, "BTB sets must be a power of two");
        Btb { sets, ways: cfg.ways, lines: vec![BtbLine::default(); cfg.entries], tick: 0 }
    }

    fn set_of(&self, pc: Addr) -> usize {
        ((pc >> 1) as usize) & (self.sets - 1)
    }

    /// The predicted target for the transfer at `pc`, if cached.
    pub fn lookup(&mut self, pc: Addr) -> Option<Addr> {
        self.tick += 1;
        let base = self.set_of(pc) * self.ways;
        for w in 0..self.ways {
            let line = &mut self.lines[base + w];
            if line.valid && line.tag == pc {
                line.lru = self.tick;
                return Some(line.target);
            }
        }
        None
    }

    /// Installs or updates the target for `pc`.
    pub fn update(&mut self, pc: Addr, target: Addr) {
        self.tick += 1;
        let base = self.set_of(pc) * self.ways;
        // Update in place when present.
        for w in 0..self.ways {
            let line = &mut self.lines[base + w];
            if line.valid && line.tag == pc {
                line.target = target;
                line.lru = self.tick;
                return;
            }
        }
        let victim = (base..base + self.ways)
            .min_by_key(|&i| if self.lines[i].valid { self.lines[i].lru + 1 } else { 0 })
            .expect("ways > 0");
        self.lines[victim] = BtbLine { valid: true, tag: pc, target, lru: self.tick };
    }

    /// Serialises every line plus the LRU tick (checkpoint support).
    pub fn save(&self, w: &mut Writer) {
        for line in &self.lines {
            w.u8(u8::from(line.valid));
            w.u32(line.tag);
            w.u32(line.target);
            w.u64(line.lru);
        }
        w.u64(self.tick);
    }

    /// Rebuilds a BTB from [`Btb::save`] output; `cfg` must match the
    /// saved BTB's geometry.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated input or a malformed valid flag.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` itself is degenerate (see [`Btb::new`]).
    pub fn restore(cfg: BtbConfig, r: &mut Reader<'_>) -> Result<Btb, WireError> {
        let mut b = Btb::new(cfg);
        for line in &mut b.lines {
            let valid = r.u8()?;
            if valid > 1 {
                return Err(WireError::BadTag { tag: valid });
            }
            let tag = r.u32()?;
            let target = r.u32()?;
            let lru = r.u64()?;
            *line = BtbLine { valid: valid == 1, tag, target, lru };
        }
        b.tick = r.u64()?;
        Ok(b)
    }
}

/// A fixed-depth return address stack that wraps on overflow, as
/// hardware RASes do.
#[derive(Clone, Debug)]
pub struct Ras {
    stack: Vec<Addr>,
    top: usize,
    depth: usize,
}

impl Ras {
    /// Creates a RAS with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics when `entries` is zero.
    pub fn new(entries: usize) -> Ras {
        assert!(entries > 0, "RAS needs at least one entry");
        Ras { stack: vec![0; entries], top: 0, depth: 0 }
    }

    /// Pushes a return address (a `call` retired).
    pub fn push(&mut self, ret: Addr) {
        self.top = (self.top + 1) % self.stack.len();
        self.stack[self.top] = ret;
        self.depth = (self.depth + 1).min(self.stack.len());
    }

    /// Pops the predicted return address (a `ret` fetched); `None` when
    /// the stack has underflowed.
    pub fn pop(&mut self) -> Option<Addr> {
        if self.depth == 0 {
            return None;
        }
        let v = self.stack[self.top];
        self.top = (self.top + self.stack.len() - 1) % self.stack.len();
        self.depth -= 1;
        Some(v)
    }

    /// Serialises the stack contents and cursors (checkpoint support).
    pub fn save(&self, w: &mut Writer) {
        w.u64(self.stack.len() as u64);
        for v in &self.stack {
            w.u32(*v);
        }
        w.u64(self.top as u64);
        w.u64(self.depth as u64);
    }

    /// Rebuilds a RAS from [`Ras::save`] output.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated input or out-of-range cursors.
    pub fn restore(r: &mut Reader<'_>) -> Result<Ras, WireError> {
        let n = r.u64()?;
        if n == 0 || n > 1 << 20 {
            return Err(WireError::LengthOutOfRange { len: n });
        }
        let mut ras = Ras::new(n as usize);
        for slot in &mut ras.stack {
            *slot = r.u32()?;
        }
        let top = r.u64()?;
        let depth = r.u64()?;
        if top >= n || depth > n {
            return Err(WireError::LengthOutOfRange { len: top.max(depth) });
        }
        ras.top = top as usize;
        ras.depth = depth as usize;
        Ok(ras)
    }
}

/// The front end's predictors and their counters, with the one step
/// that resolves a control transfer against them.
pub(crate) struct Predictors {
    gshare: Gshare,
    btb: Btb,
    ras: Ras,
    pub(crate) stats: BranchStats,
    mispredict_penalty: u64,
    btb_miss_penalty: u64,
}

/// What resolving one control transfer cost the front end.
pub(crate) struct Resolution {
    /// Cycles of the DRC table walk the target's de-randomization took
    /// (0 on a DRC hit or outside VCFR).
    pub(crate) walk: u64,
    /// The cycle fetch resumes at, when the transfer redirected it.
    pub(crate) redirect: Option<u64>,
}

impl Predictors {
    pub(crate) fn new(cfg: &SimConfig) -> Predictors {
        Predictors {
            gshare: Gshare::new(cfg.gshare),
            btb: Btb::new(cfg.btb),
            ras: Ras::new(cfg.ras_entries),
            stats: BranchStats::default(),
            mispredict_penalty: cfg.mispredict_penalty,
            btb_miss_penalty: cfg.btb_miss_penalty,
        }
    }

    /// Resolves the transfer `cf` of the instruction at `pc`, fetched by
    /// `fetch_done` and executed by `exec_end`. The predictors work in
    /// `mode`'s fetch space. In VCFR mode the target is de-randomized
    /// through `med` whenever the hardware consults the DRC, and its walk
    /// latency lands on the critical path only when the transfer
    /// redirects (§IV-B): when the predictors were right, fetch already
    /// streams down the correct path and the walk completes in its
    /// shadow.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn resolve(
        &mut self,
        pc: Addr,
        cf: ControlFlow,
        mode: &Mode<'_>,
        mut med: Option<&mut Mediation<'_>>,
        hier: &mut MemoryHierarchy,
        fetch_done: u64,
        exec_end: u64,
    ) -> Resolution {
        let key = |a: Addr| mode.fetch_addr(a);
        let mut derand = |target: Addr| match med.as_deref_mut() {
            Some(m) => m.derandomize_target(target, hier, exec_end),
            None => 0,
        };
        let kpc = key(pc);
        let mispredict = exec_end + self.mispredict_penalty;
        let (walk, redirect) = match cf {
            ControlFlow::Branch { taken, target } => {
                self.stats.predictions += 1;
                let predicted = self.gshare.predict(kpc);
                self.gshare.update(kpc, taken);
                if predicted != taken {
                    self.stats.mispredictions += 1;
                    // A mispredicted *taken* branch redirects to a
                    // randomized target: the redirect waits for the DRC.
                    let walk = if taken { derand(target) } else { 0 };
                    (walk, Some(mispredict + walk))
                } else if taken && !self.btb_hit(kpc, key(target)) {
                    let walk = derand(target);
                    (walk, Some(fetch_done + self.btb_miss_penalty + walk))
                } else {
                    (0, None)
                }
            }
            // A direct transfer the BTB did not know redirects once it
            // decodes; in VCFR mode the cached translation is absent too,
            // so the redirect also waits for the DRC.
            ControlFlow::Jump { target } | ControlFlow::Call { target, .. } => {
                if self.btb_hit(kpc, key(target)) {
                    (0, None)
                } else {
                    let walk = derand(target);
                    (walk, Some(fetch_done + self.btb_miss_penalty + walk))
                }
            }
            // Indirect targets live in the randomized space: every
            // resolution consults the DRC, hidden when the BTB was right.
            ControlFlow::IndirectJump { target } | ControlFlow::IndirectCall { target, .. } => {
                let walk = derand(target);
                (walk, (!self.btb_hit(kpc, key(target))).then_some(mispredict + walk))
            }
            // The popped randomized return address always consults the
            // DRC to recover the orig-space fetch address; a correct RAS
            // prediction hides the walk.
            ControlFlow::Return { target } => {
                self.stats.ras_predictions += 1;
                let walk = derand(target);
                if self.ras.pop() == Some(key(target)) {
                    (walk, None)
                } else {
                    self.stats.ras_mispredictions += 1;
                    (walk, Some(mispredict + walk))
                }
            }
        };
        if let ControlFlow::Call { ret_addr, .. } | ControlFlow::IndirectCall { ret_addr, .. } = cf
        {
            self.ras.push(key(ret_addr));
        }
        Resolution { walk, redirect }
    }

    /// Looks up the taken transfer at `kpc` in the BTB. On a miss or a
    /// stale target, counts it and installs `ktarget`. Returns whether
    /// the BTB predicted `ktarget`.
    fn btb_hit(&mut self, kpc: Addr, ktarget: Addr) -> bool {
        self.stats.btb_lookups += 1;
        match self.btb.lookup(kpc) {
            Some(t) if t == ktarget => true,
            found => {
                if found.is_none() {
                    self.stats.btb_misses += 1;
                } else {
                    self.stats.btb_wrong_target += 1;
                }
                self.btb.update(kpc, ktarget);
                false
            }
        }
    }

    /// Serialises the predictors and their counters (checkpoint
    /// support).
    pub(crate) fn save(&self, w: &mut Writer) {
        self.gshare.save(w);
        self.btb.save(w);
        self.ras.save(w);
        let b = &self.stats;
        for v in [
            b.predictions,
            b.mispredictions,
            b.btb_lookups,
            b.btb_misses,
            b.btb_wrong_target,
            b.ras_predictions,
            b.ras_mispredictions,
        ] {
            w.u64(v);
        }
    }

    /// Rebuilds the predictors from [`Predictors::save`] output under the
    /// configuration they were saved with.
    pub(crate) fn restore(cfg: &SimConfig, r: &mut Reader<'_>) -> Result<Predictors, WireError> {
        Ok(Predictors {
            gshare: Gshare::restore(cfg.gshare, r)?,
            btb: Btb::restore(cfg.btb, r)?,
            ras: Ras::restore(r)?,
            stats: BranchStats {
                predictions: r.u64()?,
                mispredictions: r.u64()?,
                btb_lookups: r.u64()?,
                btb_misses: r.u64()?,
                btb_wrong_target: r.u64()?,
                ras_predictions: r.u64()?,
                ras_mispredictions: r.u64()?,
            },
            mispredict_penalty: cfg.mispredict_penalty,
            btb_miss_penalty: cfg.btb_miss_penalty,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_learns_a_loop() {
        let mut g = Gshare::new(GshareConfig { history_bits: 10 });
        let pc = 0x1040;
        // Warm up on always-taken long enough for the history register to
        // saturate at all-ones and train that index.
        for _ in 0..32 {
            g.update(pc, true);
        }
        assert!(g.predict(pc));
    }

    #[test]
    fn gshare_tracks_alternation_via_history() {
        let mut g = Gshare::new(GshareConfig { history_bits: 10 });
        let pc = 0x2000;
        let mut correct = 0;
        let mut total = 0;
        let mut taken = false;
        for i in 0..400 {
            taken = !taken;
            if i >= 100 {
                total += 1;
                if g.predict(pc) == taken {
                    correct += 1;
                }
            }
            g.update(pc, taken);
        }
        // With history the alternating pattern becomes near-perfect.
        assert!(correct as f64 / total as f64 > 0.9, "{correct}/{total}");
    }

    #[test]
    fn btb_stores_and_replaces() {
        let mut b = Btb::new(BtbConfig { entries: 8, ways: 2 });
        b.update(0x1000, 0x2000);
        assert_eq!(b.lookup(0x1000), Some(0x2000));
        b.update(0x1000, 0x3000);
        assert_eq!(b.lookup(0x1000), Some(0x3000));
        assert_eq!(b.lookup(0x1001), None);
    }

    #[test]
    fn btb_lru_per_set() {
        // 1 set × 2 ways: three distinct pcs force an eviction.
        let mut b = Btb::new(BtbConfig { entries: 2, ways: 2 });
        b.update(0x10, 1);
        b.update(0x20, 2);
        b.lookup(0x10); // refresh
        b.update(0x30, 3); // evicts 0x20
        assert_eq!(b.lookup(0x10), Some(1));
        assert_eq!(b.lookup(0x20), None);
        assert_eq!(b.lookup(0x30), Some(3));
    }

    #[test]
    fn predictors_save_restore_roundtrip() {
        use vcfr_isa::wire::{Reader, Writer};
        let mut g = Gshare::new(GshareConfig { history_bits: 8 });
        let mut b = Btb::new(BtbConfig { entries: 8, ways: 2 });
        let mut ras = Ras::new(4);
        for i in 0..50u32 {
            g.update(0x1000 + i * 4, i % 3 != 0);
            b.update(0x1000 + (i % 5) * 4, 0x2000 + i);
        }
        ras.push(0x100);
        ras.push(0x200);
        let mut w = Writer::with_magic(*b"VCFRTEST");
        g.save(&mut w);
        b.save(&mut w);
        ras.save(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        let g2 = Gshare::restore(GshareConfig { history_bits: 8 }, &mut r).unwrap();
        let mut b2 = Btb::restore(BtbConfig { entries: 8, ways: 2 }, &mut r).unwrap();
        let mut ras2 = Ras::restore(&mut r).unwrap();
        assert!(r.is_exhausted());
        for i in 0..60u32 {
            let pc = 0x1000 + i * 4;
            assert_eq!(g2.predict(pc), g.predict(pc), "pc {pc:#x}");
            assert_eq!(b2.lookup(pc), b.lookup(pc), "pc {pc:#x}");
        }
        assert_eq!(ras2.pop(), ras.pop());
        assert_eq!(ras2.pop(), ras.pop());
        assert_eq!(ras2.pop(), None);
    }

    #[test]
    fn gshare_restore_rejects_mismatched_table_size() {
        use vcfr_isa::wire::{Reader, Writer};
        let g = Gshare::new(GshareConfig { history_bits: 8 });
        let mut w = Writer::with_magic(*b"VCFRTEST");
        g.save(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        assert!(Gshare::restore(GshareConfig { history_bits: 10 }, &mut r).is_err());
    }

    #[test]
    fn ras_matches_call_ret_nesting() {
        let mut r = Ras::new(4);
        r.push(0x100);
        r.push(0x200);
        assert_eq!(r.pop(), Some(0x200));
        assert_eq!(r.pop(), Some(0x100));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ras_wraps_on_overflow() {
        let mut r = Ras::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // overwrites 1
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        // Depth saturated at 2; the clobbered entry is gone.
        assert_eq!(r.pop(), None);
    }
}
