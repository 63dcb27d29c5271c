//! Lazily-chunked per-byte `u32` slots over one code range.
//!
//! [`crate::DecodedImage`] (decoded-instruction slots and ILR
//! fall-through successors) and [`crate::SuperblockCache`] (block ids)
//! each keep one `u32` per byte of a code range. A randomized range is
//! mostly empty — a scattered layout spreads a few thousand instructions
//! over up to 2^29 bytes — so the slots live in 4 KiB chunks (1024
//! slots, 1 KiB of address each) that are allocated on first write. A
//! range costs one pointer per chunk up front, and host memory grows
//! with the addresses actually recorded, not with the span.

use crate::Addr;

/// Slots per chunk: one chunk is 4 KiB of `u32`s.
const CHUNK_SHIFT: u32 = 10;
const CHUNK_SLOTS: usize = 1 << CHUNK_SHIFT;
const CHUNK_MASK: usize = CHUNK_SLOTS - 1;

/// The value every slot holds until it is written.
pub(crate) const EMPTY: u32 = u32::MAX;

type Chunk = [u32; CHUNK_SLOTS];

/// One `u32` slot per byte of `[lo, hi)`, [`EMPTY`] until written.
#[derive(Clone, Debug)]
pub(crate) struct ByteSlots {
    lo: Addr,
    hi: Addr,
    chunks: Vec<Option<Box<Chunk>>>,
    /// Indices of the allocated chunks, so [`ByteSlots::clear`] costs
    /// what was written rather than the span.
    live: Vec<u32>,
}

impl ByteSlots {
    /// Empty slots covering `[lo, hi)`.
    pub(crate) fn new(lo: Addr, hi: Addr) -> ByteSlots {
        let len = hi.wrapping_sub(lo) as usize;
        ByteSlots { lo, hi, chunks: vec![None; len.div_ceil(CHUNK_SLOTS)], live: Vec::new() }
    }

    /// Whether `addr` falls inside the range.
    #[inline]
    pub(crate) fn contains(&self, addr: Addr) -> bool {
        addr >= self.lo && addr < self.hi
    }

    /// The slot of `addr`, which must be inside the range.
    #[inline]
    pub(crate) fn get(&self, addr: Addr) -> u32 {
        let off = addr.wrapping_sub(self.lo) as usize;
        match &self.chunks[off >> CHUNK_SHIFT] {
            Some(c) => c[off & CHUNK_MASK],
            None => EMPTY,
        }
    }

    /// Writes the slot of `addr`, which must be inside the range.
    pub(crate) fn set(&mut self, addr: Addr, val: u32) {
        let off = addr.wrapping_sub(self.lo) as usize;
        let ci = off >> CHUNK_SHIFT;
        let chunk = self.chunks[ci].get_or_insert_with(|| {
            self.live.push(ci as u32);
            Box::new([EMPTY; CHUNK_SLOTS])
        });
        chunk[off & CHUNK_MASK] = val;
    }

    /// Empties every slot and frees the chunks.
    pub(crate) fn clear(&mut self) {
        for ci in self.live.drain(..) {
            self.chunks[ci as usize] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_start_empty_and_chunks_allocate_on_write() {
        let mut s = ByteSlots::new(0x1000, 0x1000 + 3 * CHUNK_SLOTS as Addr + 5);
        assert_eq!(s.chunks.len(), 4);
        assert!(s.live.is_empty());
        assert_eq!(s.get(0x1000), EMPTY);
        s.set(0x1000 + 3 * CHUNK_SLOTS as Addr + 4, 7); // last byte, partial chunk
        s.set(0x1001, 9);
        assert_eq!(s.live, vec![3, 0]);
        assert_eq!(s.get(0x1001), 9);
        assert_eq!(s.get(0x1000 + 3 * CHUNK_SLOTS as Addr + 4), 7);
        assert_eq!(s.get(0x1002), EMPTY);
        assert!(s.chunks[1].is_none() && s.chunks[2].is_none());
    }

    #[test]
    fn clear_frees_every_chunk() {
        let mut s = ByteSlots::new(0, 4 * CHUNK_SLOTS as Addr);
        s.set(5, 1);
        s.set(3 * CHUNK_SLOTS as Addr, 2);
        s.clear();
        assert!(s.live.is_empty());
        assert!(s.chunks.iter().all(Option::is_none));
        assert_eq!(s.get(5), EMPTY);
        s.set(5, 3);
        assert_eq!(s.get(5), 3);
    }

    #[test]
    fn contains_is_half_open() {
        let s = ByteSlots::new(0x2000, 0x2010);
        assert!(s.contains(0x2000) && s.contains(0x200f));
        assert!(!s.contains(0x1fff) && !s.contains(0x2010));
    }
}
