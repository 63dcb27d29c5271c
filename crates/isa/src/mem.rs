//! Sparse, page-granular flat memory.

use crate::wire::{Reader, WireError, Writer};
use crate::Addr;
use std::fmt;

const PAGE_SHIFT: u32 = 12;
/// Bytes per page.
pub(crate) const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: Addr = (PAGE_SIZE as Addr) - 1;
/// Pages in the 32-bit address space.
const NUM_PAGES: usize = 1 << (32 - PAGE_SHIFT);
/// Pages per leaf table.
const LEAF_SHIFT: u32 = 10;
const LEAF_PAGES: usize = 1 << LEAF_SHIFT;
const LEAF_MASK: usize = LEAF_PAGES - 1;
/// Leaf tables in the directory.
const DIR_LEN: usize = NUM_PAGES >> LEAF_SHIFT;

type Page = [u8; PAGE_SIZE];

/// One directory entry's worth of pages (4 MiB of address space), with
/// a dirty bit per page.
#[derive(Clone)]
struct Leaf {
    pages: [Option<Box<Page>>; LEAF_PAGES],
    dirty: [u64; LEAF_PAGES / 64],
}

impl Leaf {
    fn new() -> Box<Leaf> {
        Box::new(Leaf { pages: [const { None }; LEAF_PAGES], dirty: [0; LEAF_PAGES / 64] })
    }
}

/// A sparse byte-addressable memory covering the full 32-bit address space.
///
/// Pages (4 KiB) are allocated lazily on first touch; reads of untouched
/// memory return zero, as a freshly mapped anonymous page would.
///
/// The page table has two levels: a 1024-entry directory of lazily
/// allocated 1024-page leaves. An access is two indexed loads with no
/// hashing, an empty memory costs one 8 KiB directory, and word and bulk
/// accesses that stay within one page go through a single page lookup
/// and a slice copy.
///
/// Every write marks its page dirty. [`Mem::mark_clean`] clears the
/// marks and [`Mem::revert_dirty`] puts back exactly the pages written
/// since — what [`crate::Machine::reset`] uses to rewind a machine
/// without rebuilding it.
///
/// # Example
///
/// ```
/// use vcfr_isa::Mem;
/// let mut m = Mem::new();
/// m.write_u64(0x8000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x8000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x9000), 0); // untouched page reads as zero
/// ```
#[derive(Clone)]
pub struct Mem {
    /// A fixed-size array, so indexing it with a 10-bit directory index
    /// needs no bounds check.
    dir: Box<[Option<Box<Leaf>>; DIR_LEN]>,
    live: usize,
    /// Indices of the pages whose dirty bit is set, in first-write order.
    dirty: Vec<u32>,
}

impl Default for Mem {
    fn default() -> Mem {
        Mem { dir: Box::new([const { None }; DIR_LEN]), live: 0, dirty: Vec::new() }
    }
}

impl fmt::Debug for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mem").field("pages", &self.live).finish()
    }
}

impl Mem {
    /// Creates an empty memory.
    pub fn new() -> Mem {
        Mem::default()
    }

    /// Number of 4 KiB pages currently materialised.
    pub fn page_count(&self) -> usize {
        self.live
    }

    #[inline]
    fn page(&self, addr: Addr) -> Option<&Page> {
        let idx = (addr >> PAGE_SHIFT) as usize;
        self.dir[idx >> LEAF_SHIFT].as_ref()?.pages[idx & LEAF_MASK].as_deref()
    }

    #[inline]
    fn page_mut(&mut self, addr: Addr) -> &mut Page {
        let idx = (addr >> PAGE_SHIFT) as usize;
        let leaf = self.dir[idx >> LEAF_SHIFT].get_or_insert_with(Leaf::new);
        let i = idx & LEAF_MASK;
        let bit = 1u64 << (i % 64);
        if leaf.dirty[i / 64] & bit == 0 {
            leaf.dirty[i / 64] |= bit;
            self.dirty.push(idx as u32);
        }
        let slot = &mut leaf.pages[i];
        if slot.is_none() {
            *slot = Some(Box::new([0u8; PAGE_SIZE]));
            self.live += 1;
        }
        slot.as_deref_mut().expect("slot just filled")
    }

    /// Clears every page's dirty mark: the current contents become the
    /// state [`Mem::revert_dirty`] rewinds to.
    pub fn mark_clean(&mut self) {
        for idx in self.dirty.drain(..) {
            let idx = idx as usize;
            let leaf = self.dir[idx >> LEAF_SHIFT].as_mut().expect("dirty pages have a leaf");
            leaf.dirty[(idx & LEAF_MASK) / 64] &= !(1u64 << (idx % 64));
        }
    }

    /// Puts back every page written since the last [`Mem::mark_clean`]
    /// and clears the marks. For each such page, `clean` is handed the
    /// page's base address and a zeroed 4 KiB buffer; it fills in the
    /// page's clean contents and returns whether the page was mapped in
    /// the clean state. Pages it reports unmapped are dropped, so
    /// [`Mem::page_count`] returns to its clean value too.
    pub fn revert_dirty(&mut self, mut clean: impl FnMut(Addr, &mut [u8]) -> bool) {
        for idx in self.dirty.drain(..) {
            let idx = idx as usize;
            let leaf = self.dir[idx >> LEAF_SHIFT].as_mut().expect("dirty pages have a leaf");
            let i = idx & LEAF_MASK;
            leaf.dirty[i / 64] &= !(1u64 << (i % 64));
            // Only a write sets the mark, and a write materialises its page.
            let slot = &mut leaf.pages[i];
            let page = slot.as_deref_mut().expect("dirty pages are materialised");
            page.fill(0);
            if !clean((idx as Addr) << PAGE_SHIFT, page) {
                *slot = None;
                self.live -= 1;
            }
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: Addr) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: Addr, val: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = val;
    }

    /// Reads a little-endian 64-bit word (may straddle pages).
    #[inline]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE - 8 {
            match self.page(addr) {
                Some(p) => {
                    u64::from_le_bytes(p[off..off + 8].try_into().expect("8-byte slice"))
                }
                None => 0,
            }
        } else {
            let mut b = [0u8; 8];
            self.read_bytes(addr, &mut b);
            u64::from_le_bytes(b)
        }
    }

    /// Writes a little-endian 64-bit word (may straddle pages).
    #[inline]
    pub fn write_u64(&mut self, addr: Addr, val: u64) {
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE - 8 {
            self.page_mut(addr)[off..off + 8].copy_from_slice(&val.to_le_bytes());
        } else {
            self.write_bytes(addr, &val.to_le_bytes());
        }
    }

    /// Fills `out` with the bytes starting at `addr` (wrapping at the top
    /// of the address space).
    pub fn read_bytes(&self, addr: Addr, out: &mut [u8]) {
        let mut addr = addr;
        let mut out = out;
        while !out.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = out.len().min(PAGE_SIZE - off);
            let (chunk, rest) = out.split_at_mut(n);
            match self.page(addr) {
                Some(p) => chunk.copy_from_slice(&p[off..off + n]),
                None => chunk.fill(0),
            }
            out = rest;
            addr = addr.wrapping_add(n as Addr);
        }
    }

    /// Serialises the materialised pages (checkpoint support): the page
    /// count followed by each live page's index and raw bytes, in
    /// ascending index order, so the byte form is deterministic.
    pub fn save(&self, w: &mut Writer) {
        w.u64(self.live as u64);
        for (d, leaf) in self.dir.iter().enumerate() {
            let Some(leaf) = leaf else { continue };
            for (i, page) in leaf.pages.iter().enumerate() {
                if let Some(p) = page {
                    w.u32(((d << LEAF_SHIFT) | i) as u32);
                    w.bytes(&p[..]);
                }
            }
        }
    }

    /// Length in bytes of what [`Mem::save`] writes.
    pub fn saved_len(&self) -> usize {
        8 + self.live * (4 + 8 + PAGE_SIZE)
    }

    /// Rebuilds a memory from [`Mem::save`] output, restoring the exact
    /// set of materialised pages. Every restored page counts as dirty.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated or malformed input; a page index that
    /// is out of range, repeated, or not above its predecessor (so
    /// [`Mem::save`] could not have written it) is
    /// [`WireError::BadPageIndex`].
    pub fn restore(r: &mut Reader<'_>) -> Result<Mem, WireError> {
        let live = r.u64()?;
        if live > NUM_PAGES as u64 {
            return Err(WireError::LengthOutOfRange { len: live });
        }
        let mut mem = Mem::new();
        let mut prev: Option<u32> = None;
        for _ in 0..live {
            let index = r.u32()?;
            if index as usize >= NUM_PAGES || prev.is_some_and(|p| index <= p) {
                return Err(WireError::BadPageIndex { index });
            }
            prev = Some(index);
            let bytes = r.bytes()?;
            if bytes.len() != PAGE_SIZE {
                return Err(WireError::LengthOutOfRange { len: bytes.len() as u64 });
            }
            mem.page_mut(index << PAGE_SHIFT).copy_from_slice(bytes);
        }
        Ok(mem)
    }

    /// Writes `bytes` starting at `addr` (wrapping at the top of the
    /// address space).
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        let mut addr = addr;
        let mut bytes = bytes;
        while !bytes.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = bytes.len().min(PAGE_SIZE - off);
            let (chunk, rest) = bytes.split_at(n);
            self.page_mut(addr)[off..off + n].copy_from_slice(chunk);
            bytes = rest;
            addr = addr.wrapping_add(n as Addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Mem::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(0xffff_fff0), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn byte_and_word_access_agree() {
        let mut m = Mem::new();
        m.write_u64(100, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(100), 0x08); // little endian
        assert_eq!(m.read_u8(107), 0x01);
    }

    #[test]
    fn cross_page_word() {
        let mut m = Mem::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles first/second page
        m.write_u64(addr, u64::MAX);
        assert_eq!(m.read_u64(addr), u64::MAX);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let mut m = Mem::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x5000 - 128, &data);
        let mut back = vec![0u8; 256];
        m.read_bytes(0x5000 - 128, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn wrapping_at_address_space_top() {
        let mut m = Mem::new();
        m.write_bytes(Addr::MAX, &[1, 2]);
        assert_eq!(m.read_u8(Addr::MAX), 1);
        assert_eq!(m.read_u8(0), 2);
    }

    #[test]
    fn word_straddling_the_address_space_top_wraps() {
        let mut m = Mem::new();
        m.write_u64(Addr::MAX - 3, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(Addr::MAX - 3), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u8(0), 0x44); // bytes 4..8 wrapped to page zero
    }

    #[test]
    fn save_restore_roundtrip_preserves_pages() {
        let mut m = Mem::new();
        m.write_u64(0x8000, 0xdead_beef);
        m.write_bytes(Addr::MAX - 1, &[1, 2, 3]); // wraps to page zero
        m.write_u8(0x123_4567, 0x5a);
        let mut w = Writer::with_magic(*b"VCFRTEST");
        m.save(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        let back = Mem::restore(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.page_count(), m.page_count());
        assert_eq!(back.read_u64(0x8000), 0xdead_beef);
        assert_eq!(back.read_u8(Addr::MAX - 1), 1);
        assert_eq!(back.read_u8(0), 3);
        assert_eq!(back.read_u8(0x123_4567), 0x5a);
        assert_eq!(back.read_u8(0x9999), 0);
    }

    #[test]
    fn restore_rejects_truncated_input() {
        let mut m = Mem::new();
        m.write_u8(0x1000, 7);
        let mut w = Writer::with_magic(*b"VCFRTEST");
        m.save(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf[..buf.len() - 3], *b"VCFRTEST").unwrap();
        assert!(Mem::restore(&mut r).is_err());
    }

    fn saved(m: &Mem) -> Vec<u8> {
        let mut w = Writer::with_magic(*b"VCFRTEST");
        m.save(&mut w);
        w.into_bytes()
    }

    fn restored(buf: &[u8]) -> Result<Mem, WireError> {
        Mem::restore(&mut Reader::with_magic(buf, *b"VCFRTEST").unwrap())
    }

    #[test]
    fn save_bytes_are_pinned_across_leaf_boundaries() {
        // Pages 1023 and 1024 sit on either side of the first leaf
        // boundary; 0xfffff is the last page of the last leaf. Written in
        // descending order, saved in ascending order.
        let mut m = Mem::new();
        for (idx, byte) in [(0xfffffu32, 0xd4u8), (1024, 0xc3), (1023, 0xb2), (0, 0xa1)] {
            m.write_u8((idx << PAGE_SHIFT) + 7, byte);
        }
        let mut want = b"VCFRTEST".to_vec();
        want.extend_from_slice(&[4, 0, 0, 0, 0, 0, 0, 0]);
        for (idx_le, byte) in [
            ([0x00, 0x00, 0x00, 0x00], 0xa1u8),
            ([0xff, 0x03, 0x00, 0x00], 0xb2),
            ([0x00, 0x04, 0x00, 0x00], 0xc3),
            ([0xff, 0xff, 0x0f, 0x00], 0xd4),
        ] {
            want.extend_from_slice(&idx_le);
            want.extend_from_slice(&[0x00, 0x10, 0, 0, 0, 0, 0, 0]);
            let mut page = [0u8; PAGE_SIZE];
            page[7] = byte;
            want.extend_from_slice(&page);
        }
        assert_eq!(saved(&m), want);
        assert_eq!(saved(&restored(&want).unwrap()), want);
    }

    /// A save image of the given `(index, fill)` pages, in the order given.
    fn raw_pages(pages: &[(u32, u8)]) -> Vec<u8> {
        let mut w = Writer::with_magic(*b"VCFRTEST");
        w.u64(pages.len() as u64);
        for &(idx, fill) in pages {
            w.u32(idx);
            w.bytes(&[fill; PAGE_SIZE]);
        }
        w.into_bytes()
    }

    #[test]
    fn restore_names_the_offending_page_index() {
        let bad = |pages: &[(u32, u8)]| restored(&raw_pages(pages)).err();
        assert!(restored(&raw_pages(&[(3, 1), (1024, 2)])).is_ok());
        assert_eq!(
            bad(&[(1, 1), (NUM_PAGES as u32, 2)]),
            Some(WireError::BadPageIndex { index: NUM_PAGES as u32 }),
            "out of range"
        );
        assert_eq!(bad(&[(5, 1), (5, 2)]), Some(WireError::BadPageIndex { index: 5 }), "duplicate");
        assert_eq!(
            bad(&[(9, 1), (4, 2)]),
            Some(WireError::BadPageIndex { index: 4 }),
            "out of order"
        );
        let mut short = Writer::with_magic(*b"VCFRTEST");
        short.u64(1);
        short.u32(2);
        short.bytes(&[0; 16]);
        assert_eq!(
            restored(&short.into_bytes()).err(),
            Some(WireError::LengthOutOfRange { len: 16 })
        );
    }

    #[test]
    fn revert_dirty_restores_exactly_the_written_pages() {
        let mut m = Mem::new();
        m.write_u8(0x1000, 1);
        m.write_u8(0x40_0000, 2); // second leaf
        m.mark_clean();
        m.write_u8(0x1001, 9);
        m.write_u64(0x40_0ffc, u64::MAX); // straddles into an unmapped page
        m.write_u8(0x7000_0000, 3); // a page the clean state never had
        assert_eq!(m.page_count(), 4);
        let mut seen = Vec::new();
        m.revert_dirty(|base, page| {
            assert!(page.iter().all(|b| *b == 0));
            seen.push(base);
            match base {
                0x1000 => page[0] = 1,
                0x40_0000 => page[0] = 2,
                _ => return false,
            }
            true
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![0x1000, 0x40_0000, 0x40_1000, 0x7000_0000]);
        assert_eq!(m.page_count(), 2);
        assert_eq!((m.read_u8(0x1000), m.read_u8(0x1001)), (1, 0));
        assert_eq!(m.read_u64(0x40_0ffc), 0);
        assert_eq!(m.read_u8(0x40_0000), 2);
        // Marks were cleared: a second revert touches nothing.
        m.revert_dirty(|_, _| unreachable!("nothing is dirty"));
    }

    #[test]
    fn bulk_read_spans_mapped_and_unmapped_pages() {
        let mut m = Mem::new();
        m.write_u8(0x1fff, 0xaa); // page 1 mapped, page 2 untouched
        let mut back = [0xffu8; 4];
        m.read_bytes(0x1ffe, &mut back);
        assert_eq!(back, [0x00, 0xaa, 0x00, 0x00]);
    }
}
