//! On-disk persistence for [`RandomizedProgram`] — the deployable
//! artefact pair the paper's randomization software produces: "a binary
//! file with randomized instruction segments and lookup tables that can
//! be used to de-randomize the instruction space" (§VI-A).

use crate::randomize::{RandomizeStats, RandomizedProgram};
use std::collections::BTreeMap;
use vcfr_core::{LayoutMap, OrigAddr, RandAddr, TranslationTable};
use vcfr_isa::wire::{Reader, WireError, Writer};
use vcfr_isa::{Addr, Image};

/// Magic/version header of serialized randomized programs.
pub const PROGRAM_MAGIC: [u8; 8] = *b"VCFRRP01";

impl RandomizedProgram {
    /// Serializes the whole artefact: both images, the layout, the
    /// fail-over set, the successor map and the rewrite statistics.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_magic(PROGRAM_MAGIC);
        w.bytes(&self.original.to_bytes());
        w.bytes(&self.scattered.to_bytes());

        let mut pairs: Vec<(OrigAddr, RandAddr)> = self.layout.iter().collect();
        pairs.sort();
        w.u64(pairs.len() as u64);
        for (o, r) in pairs {
            w.u32(o.raw());
            w.u32(r.raw());
        }

        w.u32(self.table.base());
        let mut failover: Vec<u32> = self.table.unrandomized_addrs().map(|a| a.raw()).collect();
        failover.sort_unstable();
        w.u64(failover.len() as u64);
        for a in failover {
            w.u32(a);
        }

        let succ: BTreeMap<Addr, Addr> = self.succ.iter().map(|(k, v)| (*k, *v)).collect();
        w.u64(succ.len() as u64);
        for (k, v) in succ {
            w.u32(k);
            w.u32(v);
        }

        w.u32(self.region.0);
        w.u32(self.region.1);

        let s = &self.stats;
        for v in [
            s.instructions,
            s.randomized,
            s.unrandomized,
            s.rewritten_branches,
            s.rewritten_code_pointers,
            s.rewritten_data_slots,
            s.failover_entries,
            s.pinned_by_scan,
            s.conservative_sites,
            s.safe_return_sites,
            s.call_sites,
            s.software_expanded_calls,
            s.expansion_bytes,
        ] {
            w.u64(v as u64);
        }

        w.u64(self.return_safety.len() as u64);
        for (addr, safe) in &self.return_safety {
            w.u32(*addr);
            w.u8(*safe as u8);
        }

        w.into_bytes()
    }

    /// Deserializes an artefact written by [`RandomizedProgram::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, corruption or a version
    /// mismatch.
    pub fn from_bytes(buf: &[u8]) -> Result<RandomizedProgram, WireError> {
        let mut r = Reader::with_magic(buf, PROGRAM_MAGIC)?;
        let original = Image::from_bytes(r.bytes()?)?;
        let scattered = Image::from_bytes(r.bytes()?)?;

        let npairs = r.u64()?;
        let mut layout = LayoutMap::default();
        for _ in 0..npairs {
            let o = r.u32()?;
            let rd = r.u32()?;
            layout
                .insert(OrigAddr(o), RandAddr(rd))
                .map_err(|_| WireError::LengthOutOfRange { len: npairs })?;
        }

        let table_base = r.u32()?;
        let mut table = TranslationTable::from_layout(&layout, table_base);
        let nfail = r.u64()?;
        for _ in 0..nfail {
            table.add_unrandomized(OrigAddr(r.u32()?));
        }

        let nsucc = r.u64()?;
        let mut succ = std::collections::HashMap::with_capacity(nsucc.min(1 << 24) as usize);
        for _ in 0..nsucc {
            let k = r.u32()?;
            let v = r.u32()?;
            succ.insert(k, v);
        }

        let region = (r.u32()?, r.u32()?);

        let mut vals = [0usize; 13];
        for v in vals.iter_mut() {
            *v = r.u64()? as usize;
        }
        let stats = RandomizeStats {
            instructions: vals[0],
            randomized: vals[1],
            unrandomized: vals[2],
            rewritten_branches: vals[3],
            rewritten_code_pointers: vals[4],
            rewritten_data_slots: vals[5],
            failover_entries: vals[6],
            pinned_by_scan: vals[7],
            conservative_sites: vals[8],
            safe_return_sites: vals[9],
            call_sites: vals[10],
            software_expanded_calls: vals[11],
            expansion_bytes: vals[12],
        };

        let nsafety = r.u64()?;
        let mut return_safety = BTreeMap::new();
        for _ in 0..nsafety {
            let addr = r.u32()?;
            let safe = r.u8()? != 0;
            return_safety.insert(addr, safe);
        }

        Ok(RandomizedProgram {
            original,
            scattered,
            layout,
            table,
            succ,
            region,
            stats,
            return_safety,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randomize::{randomize, RandomizeConfig};
    use vcfr_isa::{AluOp, Asm, Cond, ExecError, Machine, Reg, Section, SectionKind, StopReason};

    fn program() -> RandomizedProgram {
        randomize(&looping_image(), &RandomizeConfig::with_seed(77)).unwrap()
    }

    fn looping_image() -> Image {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rcx, 20);
        let top = a.here();
        a.call_named("leaf");
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.emit_output(Reg::Rax);
        a.halt();
        a.func("leaf");
        a.alu_ri(AluOp::Add, Reg::Rax, 2);
        a.ret();
        a.finish().unwrap()
    }

    #[test]
    fn roundtrip_preserves_artefact_and_behaviour() {
        let rp = program();
        let bytes = rp.to_bytes();
        let back = RandomizedProgram::from_bytes(&bytes).unwrap();

        assert_eq!(back.original, rp.original);
        assert_eq!(back.scattered, rp.scattered);
        assert_eq!(back.region, rp.region);
        assert_eq!(back.stats, rp.stats);
        assert_eq!(back.succ, rp.succ);
        assert_eq!(back.return_safety, rp.return_safety);
        assert_eq!(back.layout.len(), rp.layout.len());
        for (o, r) in rp.layout.iter() {
            assert_eq!(back.layout.to_rand(o), Some(r));
        }

        // Behavioural equivalence: the reloaded artefact executes.
        let want = Machine::new(&rp.original).run(10_000).unwrap().output;
        let got = back.scattered_machine().run(10_000).unwrap().output;
        assert_eq!(got, want);
    }

    #[test]
    fn table_semantics_survive_the_roundtrip() {
        let rp = program();
        let back = RandomizedProgram::from_bytes(&rp.to_bytes()).unwrap();
        // Prohibition and fail-over behave identically.
        assert_eq!(
            back.table.derand(vcfr_core::RandAddr(0x1000)).is_err(),
            rp.table.derand(vcfr_core::RandAddr(0x1000)).is_err()
        );
        for (o, r) in rp.layout.iter() {
            assert_eq!(back.table.derand(r).unwrap(), o);
        }
    }

    #[test]
    fn corruption_is_rejected() {
        let rp = program();
        let bytes = rp.to_bytes();
        assert!(RandomizedProgram::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        let mut flipped = bytes.clone();
        flipped[3] ^= 0xff;
        assert!(RandomizedProgram::from_bytes(&flipped).is_err());
    }

    /// `rp` with its region re-densified into one zero-filled section
    /// ahead of the others: the layout of artefacts written before the
    /// region was materialised sparsely.
    fn densified(rp: &RandomizedProgram) -> RandomizedProgram {
        let (lo, hi) = rp.region;
        let mut dense = vec![0u8; (hi - lo) as usize];
        let mut sections = Vec::new();
        for s in &rp.scattered.sections {
            if s.kind == SectionKind::Text && rp.in_region(s) {
                let off = (s.base - lo) as usize;
                dense[off..off + s.bytes.len()].copy_from_slice(&s.bytes);
            } else {
                sections.push(s.clone());
            }
        }
        sections.insert(0, Section { kind: SectionKind::Text, base: lo, bytes: dense });
        let mut out = rp.clone();
        out.scattered.sections = sections;
        out
    }

    /// What `AttackSurface::launch_against` does with `words` (the
    /// gadget crate depends on this one, so it is spelled out here):
    /// the words go below the stack top, the stack pointer past the
    /// first, and control to it.
    fn chain(rp: &RandomizedProgram, words: &[u64]) -> (Result<StopReason, ExecError>, u64) {
        let mut m = rp.scattered_machine();
        let base = rp.scattered.stack_top.wrapping_sub((words.len() as Addr + 4) * 8);
        for (i, w) in words.iter().enumerate() {
            m.mem_mut().write_u64(base + (i as Addr) * 8, *w);
        }
        m.set_reg(Reg::Rsp, u64::from(base + 8));
        m.set_pc(words[0] as Addr);
        let mut steps = 0;
        let result = m.run_with(256, |_| steps += 1).map(|o| o.stop);
        (result, steps)
    }

    #[test]
    fn programs_with_a_dense_region_load_and_behave_as_sparse_ones() {
        let cfg = RandomizeConfig { min_span_bits: 20, ..RandomizeConfig::with_seed(77) };
        let sparse = randomize(&looping_image(), &cfg).unwrap();
        let region_sections =
            sparse.scattered.sections.iter().filter(|s| sparse.in_region(s)).count();
        assert!(region_sections > 1, "a 1 MiB region over a few instructions is sparse");

        let dense = RandomizedProgram::from_bytes(&densified(&sparse).to_bytes()).unwrap();
        assert_eq!(dense.scattered, densified(&sparse).scattered);
        let back = RandomizedProgram::from_bytes(&sparse.to_bytes()).unwrap();
        assert_eq!(back.scattered, sparse.scattered);

        let want = Machine::new(&sparse.original).run(10_000).unwrap().output;
        for rp in [&dense, &back] {
            assert_eq!(rp.scattered_machine().run(10_000).unwrap().output, want);
        }
        // Chains aimed at code, at every page of the region whether or not
        // the sparse image holds it, and at both ends of the region.
        let (lo, hi) = sparse.region;
        let mut targets: Vec<Addr> = sparse.layout.iter().map(|(_, r)| r.raw()).collect();
        targets.extend((lo..hi).step_by(4096));
        targets.extend([hi - 1, 0x1000]);
        for t in targets {
            for words in [vec![u64::from(t)], vec![u64::from(t), u64::from(lo + 7), 3]] {
                let run = chain(&sparse, &words);
                assert_eq!(chain(&dense, &words), run, "chain {words:x?}");
                assert_eq!(chain(&back, &words), run, "chain {words:x?}");
            }
        }
    }
}
