//! The loadable binary image format.

use crate::mem::PAGE_SIZE;
use crate::{Addr, Mem};

/// Classifies a [`Section`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// Executable instructions.
    Text,
    /// Read-write data (also holds jump tables and function-pointer
    /// tables, which are what the rewriter's relocation fix-ups patch).
    Data,
}

/// A contiguous range of initialised bytes at a fixed virtual address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// What the section holds.
    pub kind: SectionKind,
    /// Base virtual address.
    pub base: Addr,
    /// Section contents.
    pub bytes: Vec<u8>,
}

impl Section {
    /// The first address past the section.
    pub fn end(&self) -> Addr {
        self.base.wrapping_add(self.bytes.len() as Addr)
    }

    /// Whether `addr` falls inside the section.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Classifies a [`Symbol`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// A function entry point.
    Func,
    /// A data object.
    Object,
}

/// A named address, as a linker would record it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Address of the symbol.
    pub addr: Addr,
    /// Size in bytes (0 when unknown).
    pub size: u32,
    /// Function or object.
    pub kind: SymbolKind,
}

/// A relocation: a 64-bit slot in the data section holding an absolute
/// code address.
///
/// These are exactly the entries Hiser et al.'s ILR relies on to patch
/// jump tables and function-pointer tables after randomization, and what
/// the conservative "pointer-sized constant scan" recovers when relocation
/// information is missing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reloc {
    /// Address of the 8-byte slot holding the pointer.
    pub at: Addr,
    /// The code address stored in the slot.
    pub target: Addr,
}

/// A complete loadable program: sections, entry point, symbols and
/// relocations.
///
/// # Example
///
/// ```
/// use vcfr_isa::{Asm, Machine, Reg};
/// let mut a = Asm::new(0x1000);
/// a.mov_ri(Reg::Rax, 1);
/// a.halt();
/// let image = a.finish().unwrap();
/// assert!(image.text().contains(image.entry));
/// let mut m = Machine::new(&image);
/// m.run(10).unwrap();
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Image {
    /// All sections. A program as assembled has exactly one
    /// [`SectionKind::Text`] section; a rewritten one adds more (the
    /// code-bearing runs of a randomization region and fail-over copies),
    /// and [`Image::text`] returns the first.
    pub sections: Vec<Section>,
    /// Address of the first instruction executed.
    pub entry: Addr,
    /// Initial stack pointer (stack grows down from here).
    pub stack_top: Addr,
    /// Named addresses.
    pub symbols: Vec<Symbol>,
    /// Code pointers stored in data (jump tables, vtables).
    pub relocs: Vec<Reloc>,
}

impl Image {
    /// Returns the text section.
    ///
    /// # Panics
    ///
    /// Panics if the image has no text section, which [`crate::Asm`] can
    /// never produce.
    pub fn text(&self) -> &Section {
        self.sections
            .iter()
            .find(|s| s.kind == SectionKind::Text)
            .expect("image has a text section")
    }

    /// Returns the data section, if the program has one.
    pub fn data(&self) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind == SectionKind::Data)
    }

    /// Whether `addr` falls inside the text section.
    pub fn in_text(&self, addr: Addr) -> bool {
        self.text().contains(addr)
    }

    /// Looks up a function symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Copies every section into `mem` at its base address.
    pub fn load_into(&self, mem: &mut Mem) {
        for s in &self.sections {
            mem.write_bytes(s.base, &s.bytes);
        }
    }

    /// Total size of all sections in bytes.
    pub fn loaded_size(&self) -> usize {
        self.sections.iter().map(|s| s.bytes.len()).sum()
    }
}

/// An image's sections sorted by address, so the clean contents of one
/// page are found by a binary search rather than a scan of every
/// section. A scattered image holds one section per run of
/// code-bearing pages — hundreds at a wide span — and
/// [`crate::Machine::reset`] asks for every page a run dirtied.
#[derive(Clone, Debug, Default)]
pub(crate) struct PageSource {
    /// The non-empty sections as `[lo, hi)` pieces ordered by `lo`; a
    /// section that wraps at the top of the address space is two pieces.
    pieces: Vec<Piece>,
}

#[derive(Clone, Copy, Debug)]
struct Piece {
    lo: u64,
    hi: u64,
    /// The largest `hi` of this piece and every one before it: a walk
    /// back from a page stops at the first piece whose `reach` falls
    /// short of the page.
    reach: u64,
    /// Index into the image's sections.
    section: usize,
    /// Offset of `lo` into the section's bytes.
    skip: usize,
}

impl PageSource {
    /// Indexes `image`'s sections.
    pub(crate) fn new(image: &Image) -> PageSource {
        const TOP: u64 = 1 << 32;
        let mut pieces = Vec::with_capacity(image.sections.len());
        for (section, s) in image.sections.iter().enumerate() {
            let lo = u64::from(s.base);
            let hi = lo + s.bytes.len() as u64;
            let piece = |lo, hi, skip| Piece { lo, hi, reach: 0, section, skip };
            if s.bytes.is_empty() {
                continue;
            } else if hi <= TOP {
                pieces.push(piece(lo, hi, 0));
            } else {
                pieces.push(piece(lo, TOP, 0));
                pieces.push(piece(0, hi - TOP, (TOP - lo) as usize));
            }
        }
        pieces.sort_unstable_by_key(|p| p.lo);
        let mut reach = 0;
        for p in &mut pieces {
            reach = reach.max(p.hi);
            p.reach = reach;
        }
        PageSource { pieces }
    }

    /// Fills `page` (zeroed, one 4 KiB page long) with what
    /// [`Image::load_into`] puts in the page at `base`, and returns
    /// whether it maps that page at all. Later sections overwrite earlier
    /// ones, and a section may wrap at the top of the address space, as
    /// in `load_into`. `image` must be the image this index was built
    /// from.
    pub(crate) fn copy_page(&self, image: &Image, base: Addr, page: &mut [u8]) -> bool {
        debug_assert_eq!(page.len(), PAGE_SIZE);
        let lo = u64::from(base);
        let hi = lo + PAGE_SIZE as u64;
        let below = self.pieces.partition_point(|p| p.lo < hi);
        let mut hits: Vec<&Piece> = self.pieces[..below]
            .iter()
            .rev()
            .take_while(|p| p.reach > lo)
            .filter(|p| p.hi > lo)
            .collect();
        hits.sort_unstable_by_key(|p| p.section);
        for p in &hits {
            let from = p.lo.max(lo);
            let n = (p.hi.min(hi) - from) as usize;
            let src = p.skip + (from - p.lo) as usize;
            let dst = (from - lo) as usize;
            page[dst..dst + n].copy_from_slice(&image.sections[p.section].bytes[src..src + n]);
        }
        !hits.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_image() -> Image {
        Image {
            sections: vec![
                Section { kind: SectionKind::Text, base: 0x1000, bytes: vec![0x00, 0x01] },
                Section { kind: SectionKind::Data, base: 0x8000, bytes: vec![7; 16] },
            ],
            entry: 0x1000,
            stack_top: 0xf000,
            symbols: vec![Symbol {
                name: "main".into(),
                addr: 0x1000,
                size: 2,
                kind: SymbolKind::Func,
            }],
            relocs: vec![],
        }
    }

    #[test]
    fn section_bounds() {
        let img = tiny_image();
        let t = img.text();
        assert!(t.contains(0x1000));
        assert!(t.contains(0x1001));
        assert!(!t.contains(0x1002));
        assert!(!t.contains(0x0fff));
        assert_eq!(t.end(), 0x1002);
    }

    #[test]
    fn symbol_lookup() {
        let img = tiny_image();
        assert_eq!(img.symbol("main").unwrap().addr, 0x1000);
        assert!(img.symbol("missing").is_none());
    }

    #[test]
    fn copy_page_matches_load_into() {
        let mut img = tiny_image();
        // A section straddling a page boundary, one wrapping at the top of
        // the address space, and a later section overwriting an earlier one.
        img.sections.push(Section { kind: SectionKind::Data, base: 0x1ffe, bytes: vec![9; 5] });
        img.sections.push(Section {
            kind: SectionKind::Data,
            base: Addr::MAX - 1,
            bytes: vec![4; 4],
        });
        img.sections.push(Section { kind: SectionKind::Data, base: 0x8004, bytes: vec![5; 2] });
        let mut mem = Mem::new();
        img.load_into(&mut mem);
        let source = PageSource::new(&img);
        let mut mapped = 0;
        for base in [0u32, 0x1000, 0x2000, 0x3000, 0x8000, 0xffff_f000] {
            let mut page = vec![0u8; PAGE_SIZE];
            let mut want = vec![0u8; PAGE_SIZE];
            mem.read_bytes(base, &mut want);
            let hit = source.copy_page(&img, base, &mut page);
            assert_eq!(page, want, "page {base:#x}");
            mapped += usize::from(hit);
            assert_eq!(hit, base != 0x3000, "page {base:#x}");
        }
        assert_eq!(mapped, mem.page_count());
    }

    #[test]
    fn copy_page_finds_overlapping_sections_in_image_order() {
        // Page-sized runs out of address order, a long section laid over
        // some of them and a short one laid over that, as a scattered
        // image with fail-over copies inside its region has.
        let mut img = tiny_image();
        for (i, page) in [9u32, 3, 4, 12, 6].into_iter().enumerate() {
            let bytes = vec![10 + i as u8; PAGE_SIZE];
            img.sections.push(Section { kind: SectionKind::Text, base: page << 12, bytes });
        }
        let long = vec![1; 0x3000];
        img.sections.push(Section { kind: SectionKind::Text, base: 0x3800, bytes: long });
        img.sections.push(Section { kind: SectionKind::Data, base: 0x4ff0, bytes: vec![2; 0x20] });
        let mut mem = Mem::new();
        img.load_into(&mut mem);
        let source = PageSource::new(&img);
        let mut mapped = 0;
        for base in (0..16u32).map(|p| p << 12) {
            let mut page = vec![0u8; PAGE_SIZE];
            let mut want = vec![0u8; PAGE_SIZE];
            mem.read_bytes(base, &mut want);
            mapped += usize::from(source.copy_page(&img, base, &mut page));
            assert_eq!(page, want, "page {base:#x}");
        }
        assert_eq!(mapped, mem.page_count());
    }

    #[test]
    fn load_into_memory() {
        let img = tiny_image();
        let mut mem = Mem::new();
        img.load_into(&mut mem);
        assert_eq!(mem.read_u8(0x1000), 0x00);
        assert_eq!(mem.read_u8(0x1001), 0x01);
        assert_eq!(mem.read_u8(0x8003), 7);
        assert_eq!(img.loaded_size(), 18);
    }
}
