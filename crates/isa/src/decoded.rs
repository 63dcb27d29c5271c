//! Decoded-instruction index over a program's code ranges.
//!
//! The interpreter memoises each decoded instruction per program
//! counter. A `HashMap` memo pays a hash per executed instruction; this
//! index instead keeps one `u32` slot per *byte* of every code range,
//! pointing into a shared instruction pool. A fetch is then: locate the
//! range (programs have one or two), index the slot, index the pool — no
//! hashing anywhere on the per-instruction path.
//!
//! The slots are lazily chunked ([`crate::slots`]): a scattered layout
//! spreads a few thousand instructions over a region of up to 2^29
//! bytes, and only the 1 KiB stretches that hold a decoded instruction
//! (or an ILR fall-through successor) cost host memory.
//!
//! The same byte-granular layout carries the ILR fall-through successor
//! map (the rewriter's "rewrite rules"), which the interpreter consults
//! on every instruction to compute the sequential successor.

use crate::image::{Image, SectionKind};
use crate::inst::Inst;
use crate::slots::{ByteSlots, EMPTY};
use crate::Addr;
use std::collections::HashMap;

#[derive(Clone, Debug)]
struct CodeRange {
    /// Byte → pool slot ([`EMPTY`] when not decoded).
    slots: ByteSlots,
    /// Byte → fall-through successor ([`EMPTY`] when absent: fall back
    /// to `pc + len`). No instruction can start at the last byte of the
    /// address space, so a successor never legitimately equals the
    /// sentinel; entries that would collide go to the spill map.
    fall: ByteSlots,
}

impl CodeRange {
    fn new(lo: Addr, hi: Addr) -> CodeRange {
        CodeRange { slots: ByteSlots::new(lo, hi), fall: ByteSlots::new(lo, hi) }
    }

    #[inline]
    fn contains(&self, addr: Addr) -> bool {
        self.slots.contains(addr)
    }
}

/// A lazily-filled index of decoded instructions (plus the ILR
/// fall-through successors) across a program's code ranges.
///
/// # Example
///
/// ```
/// use vcfr_isa::{Asm, DecodedImage, Reg};
/// let mut a = Asm::new(0x1000);
/// a.mov_ri(Reg::Rax, 1);
/// a.halt();
/// let img = a.finish().unwrap();
/// let mut d = DecodedImage::new(&img);
/// assert!(d.contains(img.entry));
/// assert!(d.get(img.entry).is_none()); // not decoded yet
/// ```
#[derive(Clone, Debug, Default)]
pub struct DecodedImage {
    ranges: Vec<CodeRange>,
    pool: Vec<Inst>,
    /// Fall-through entries outside every range (or colliding with the
    /// sentinel); consulted only when range lookup fails.
    fall_spill: HashMap<Addr, Addr>,
    /// Whether any fall-through entry exists at all: lets the interpreter
    /// skip the lookup entirely in the (common) unmapped case.
    has_fall: bool,
}

impl DecodedImage {
    /// Builds an index covering `image`'s text sections.
    pub fn new(image: &Image) -> DecodedImage {
        let mut d = DecodedImage::default();
        for s in image.sections.iter().filter(|s| s.kind == SectionKind::Text) {
            d.add_range(s.base, s.end());
        }
        d
    }

    /// Adds the code range `[lo, hi)` to the index.
    pub fn add_range(&mut self, lo: Addr, hi: Addr) {
        self.ranges.push(CodeRange::new(lo, hi));
    }

    /// Whether `addr` falls inside any indexed code range.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        self.ranges.iter().any(|r| r.contains(addr))
    }

    #[inline]
    fn find(&self, addr: Addr) -> Option<&CodeRange> {
        self.ranges.iter().find(|r| r.contains(addr))
    }

    /// The memoised instruction at `pc`, when one has been recorded.
    #[inline]
    pub fn get(&self, pc: Addr) -> Option<Inst> {
        let slot = self.find(pc)?.slots.get(pc);
        if slot == EMPTY {
            None
        } else {
            Some(self.pool[slot as usize])
        }
    }

    /// Records the decoded instruction at `pc`. Addresses outside every
    /// range are not memoised (callers re-decode them; execution outside
    /// declared code ranges is a corner case for attack drivers only).
    pub fn insert(&mut self, pc: Addr, inst: Inst) {
        let slot = self.pool.len() as u32;
        let Some(r) = self.ranges.iter_mut().find(|r| r.contains(pc)) else {
            return;
        };
        if r.slots.get(pc) == EMPTY {
            r.slots.set(pc, slot);
            self.pool.push(inst);
        }
    }

    /// Forgets every memoised instruction, keeping the ranges and the
    /// fall-through map. A machine that is reset between runs calls
    /// this, so the memo lives for one run and an instruction written
    /// into a code range during one run is never served to the next.
    pub fn clear_memo(&mut self) {
        self.pool.clear();
        for r in &mut self.ranges {
            r.slots.clear();
        }
    }

    /// Installs the ILR fall-through successor map.
    pub fn set_fallthrough(&mut self, map: &HashMap<Addr, Addr>) {
        for r in &mut self.ranges {
            r.fall.clear();
        }
        self.fall_spill.clear();
        self.has_fall = !map.is_empty();
        for (&pc, &succ) in map {
            match self.ranges.iter_mut().find(|r| r.contains(pc)) {
                Some(r) if succ != EMPTY => r.fall.set(pc, succ),
                _ => {
                    self.fall_spill.insert(pc, succ);
                }
            }
        }
    }

    /// The fall-through successor recorded for `pc`, if any.
    #[inline]
    pub fn fall(&self, pc: Addr) -> Option<Addr> {
        if !self.has_fall {
            return None;
        }
        if let Some(r) = self.find(pc) {
            let succ = r.fall.get(pc);
            if succ != EMPTY {
                return Some(succ);
            }
            // Ranges never hold sentinel-valued successors, but a spill
            // entry may shadow an in-range pc that set_fallthrough could
            // not place.
            if self.fall_spill.is_empty() {
                return None;
            }
        }
        self.fall_spill.get(&pc).copied()
    }

    /// Number of distinct instructions memoised so far.
    pub fn decoded_count(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Section;

    fn img(ranges: &[(Addr, usize)]) -> Image {
        Image {
            sections: ranges
                .iter()
                .map(|&(base, len)| Section {
                    kind: SectionKind::Text,
                    base,
                    bytes: vec![0; len],
                })
                .collect(),
            entry: ranges[0].0,
            stack_top: 0xf000,
            symbols: vec![],
            relocs: vec![],
        }
    }

    #[test]
    fn memoises_in_range_only() {
        let mut d = DecodedImage::new(&img(&[(0x1000, 16)]));
        assert!(d.get(0x1000).is_none());
        d.insert(0x1000, Inst::Nop);
        d.insert(0x9000, Inst::Halt); // outside: dropped
        assert_eq!(d.get(0x1000), Some(Inst::Nop));
        assert!(d.get(0x9000).is_none());
        assert_eq!(d.decoded_count(), 1);
    }

    #[test]
    fn first_insert_wins() {
        let mut d = DecodedImage::new(&img(&[(0x1000, 16)]));
        d.insert(0x1002, Inst::Nop);
        d.insert(0x1002, Inst::Halt);
        assert_eq!(d.get(0x1002), Some(Inst::Nop));
        assert_eq!(d.decoded_count(), 1);
    }

    #[test]
    fn multiple_ranges_and_added_ranges() {
        let mut d = DecodedImage::new(&img(&[(0x1000, 16), (0x4000, 16)]));
        d.add_range(0x8000, 0x8010);
        assert!(d.contains(0x4008) && d.contains(0x8008));
        assert!(!d.contains(0x1010));
        d.insert(0x800f, Inst::Halt);
        assert_eq!(d.get(0x800f), Some(Inst::Halt));
    }

    #[test]
    fn clear_memo_forgets_instructions_but_keeps_the_fall_map() {
        let mut d = DecodedImage::new(&img(&[(0x1000, 16)]));
        let mut m = HashMap::new();
        m.insert(0x1004u32, 0x100au32);
        d.set_fallthrough(&m);
        d.insert(0x1000, Inst::Nop);
        d.clear_memo();
        assert!(d.get(0x1000).is_none());
        assert_eq!(d.decoded_count(), 0);
        assert_eq!(d.fall(0x1004), Some(0x100a));
        d.insert(0x1000, Inst::Halt);
        assert_eq!(d.get(0x1000), Some(Inst::Halt));
    }

    #[test]
    fn fallthrough_in_range_and_spill() {
        let mut d = DecodedImage::new(&img(&[(0x1000, 16)]));
        assert_eq!(d.fall(0x1000), None);
        let mut m = HashMap::new();
        m.insert(0x1004u32, 0x100au32); // in range
        m.insert(0x7000u32, 0x7004u32); // outside: spills
        d.set_fallthrough(&m);
        assert_eq!(d.fall(0x1004), Some(0x100a));
        assert_eq!(d.fall(0x7000), Some(0x7004));
        assert_eq!(d.fall(0x1005), None);
        // Reinstalling replaces the previous map.
        d.set_fallthrough(&HashMap::new());
        assert_eq!(d.fall(0x1004), None);
    }

    #[test]
    fn sentinel_valued_successor_spills() {
        let mut d = DecodedImage::new(&img(&[(0x1000, 16)]));
        let mut m = HashMap::new();
        m.insert(0x1002u32, EMPTY);
        d.set_fallthrough(&m);
        assert_eq!(d.fall(0x1002), Some(EMPTY));
    }
}
