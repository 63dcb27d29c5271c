//! The randomization region is materialised sparsely: the scattered
//! image holds only the pages instructions land on, so its size and the
//! size of a freshly built scattered machine follow the code, not the
//! span. The rest of the region still behaves as the zero bytes of a
//! dense region: it reads zero and is a legal jump target.

use vcfr_core::{DrcConfig, RandParams};
use vcfr_isa::{decode, Addr, ExecError, Inst, Reg, Section, SectionKind};
use vcfr_rewriter::{randomize, RandomizeConfig, RandomizedProgram};

const PAGE: u64 = 4096;

/// `(entropy_bits, sparsity)`: the frontier's points up to the top of
/// the validated domain.
const POINTS: [(u32, u32); 6] = [(13, 2), (17, 2), (20, 2), (24, 2), (29, 2), (29, 1024)];

fn sjeng_at(entropy_bits: u32, sparsity: u32) -> RandomizedProgram {
    let drc = DrcConfig::direct_mapped(128);
    let params = RandParams { entropy_bits, sparsity, rerand_epoch: None, drc };
    params.validate().unwrap();
    let w = vcfr_workloads::by_name("sjeng").unwrap();
    randomize(&w.image, &RandomizeConfig::from_params(2015 + u64::from(entropy_bits), &params))
        .unwrap()
}

fn is_region_section(rp: &RandomizedProgram, s: &Section) -> bool {
    s.kind == SectionKind::Text && rp.in_region(s)
}

/// Pages `s` overlaps.
fn pages_spanned(s: &Section) -> u64 {
    let (lo, hi) = (u64::from(s.base), u64::from(s.base) + s.bytes.len() as u64);
    if lo == hi {
        0
    } else {
        (hi - 1) / PAGE - lo / PAGE + 1
    }
}

/// The randomized `[start, end)` of every placed instruction.
fn extents(rp: &RandomizedProgram) -> Vec<(u64, u64)> {
    let text = rp.original.text();
    rp.layout
        .iter()
        .map(|(o, r)| {
            let inst = decode(&text.bytes[(o.raw() - text.base) as usize..]).unwrap();
            (u64::from(r.raw()), u64::from(r.raw()) + inst.len() as u64)
        })
        .collect()
}

#[test]
fn region_storage_follows_the_code_not_the_span() {
    for (bits, sparsity) in POINTS {
        let rp = sjeng_at(bits, sparsity);
        let code = (rp.stats.randomized + rp.stats.software_expanded_calls) as u64;
        let (region, other): (Vec<&Section>, Vec<&Section>) =
            rp.scattered.sections.iter().partition(|s| is_region_section(&rp, s));
        let region_bytes: u64 = region.iter().map(|s| s.bytes.len() as u64).sum();
        assert!(
            region_bytes <= PAGE * code,
            "e{bits}/s{sparsity}: {region_bytes} region bytes for {code} instructions"
        );
        // Fail-over copies and data; the stack is mapped only once written.
        let other: u64 = other.into_iter().map(pages_spanned).sum();
        let pages = rp.scattered_machine().mem().page_count() as u64;
        assert!(pages <= code + other, "e{bits}/s{sparsity}: {pages} pages, {code} instructions");
    }
}

#[test]
fn region_sections_are_page_runs_holding_every_instruction_and_zero_elsewhere() {
    for (bits, sparsity) in POINTS {
        let rp = sjeng_at(bits, sparsity);
        let (lo, hi) = (u64::from(rp.region.0), u64::from(rp.region.1));
        let runs: Vec<&Section> =
            rp.scattered.sections.iter().filter(|s| is_region_section(&rp, s)).collect();
        for pair in runs.windows(2) {
            assert!(pair[0].end() < pair[1].base, "e{bits}: runs are sorted and never touch");
        }
        let extents = extents(&rp);
        let mut placed = 0;
        for s in &runs {
            let (base, end) = (u64::from(s.base), u64::from(s.base) + s.bytes.len() as u64);
            assert!(base == lo || base % PAGE == 0, "e{bits}: run starts on a page");
            assert!(end == hi || end % PAGE == 0, "e{bits}: run ends on a page");
            let mut code = vec![false; s.bytes.len()];
            for &(a, b) in extents.iter().filter(|(a, _)| (base..end).contains(a)) {
                assert!(b <= end, "e{bits}: instruction at {a:#x} leaves its run");
                code[(a - base) as usize..(b - base) as usize].fill(true);
                placed += 1;
            }
            for (page, bytes) in code.chunks(PAGE as usize).enumerate() {
                assert!(bytes.contains(&true), "e{bits}: page {page} of run {base:#x} is empty");
            }
            let stray = s.bytes.iter().zip(&code).position(|(b, c)| !c && *b != 0);
            assert_eq!(stray, None, "e{bits}: nonzero gap byte in run {base:#x}");
        }
        assert_eq!(placed, extents.len(), "e{bits}: every instruction has a run");
    }
}

/// Runs a one-gadget chain on a fresh scattered machine: the randomized
/// `ret` at `ret_at` pops `target`. Returns how the run ended and the
/// instructions it retired.
fn ret_into(rp: &RandomizedProgram, ret_at: Addr, target: Addr) -> (Result<(), ExecError>, u64) {
    let mut m = rp.scattered_machine();
    let sp = rp.scattered.stack_top - 64;
    m.mem_mut().write_u64(sp, u64::from(target));
    m.set_reg(Reg::Rsp, u64::from(sp));
    m.set_pc(ret_at);
    let mut steps = 0;
    let result = m.run_with(16, |_| steps += 1).map(|_| ());
    (result, steps)
}

#[test]
fn jumps_into_pages_without_a_section_retire_like_zero_bytes() {
    for (bits, sparsity) in POINTS {
        let rp = sjeng_at(bits, sparsity);
        let text = rp.original.text();
        let ret_at = rp
            .layout
            .iter()
            .find(|(o, _)| decode(&text.bytes[(o.raw() - text.base) as usize..]) == Ok(Inst::Ret))
            .map(|(_, r)| r.raw())
            .expect("sjeng returns");
        let (lo, hi) = rp.region;
        let mapped = |a: Addr| rp.scattered.sections.iter().any(|s| s.contains(a));
        let gap = (lo..hi).step_by(PAGE as usize).find(|p| !mapped(*p));
        if bits >= 20 {
            assert!(gap.is_some(), "e{bits}/s{sparsity}: a sparse region leaves pages out");
        }
        for target in [lo, hi - 1].into_iter().chain(gap) {
            let (result, steps) = ret_into(&rp, ret_at, target);
            assert!(
                !matches!(result, Err(ExecError::BadJumpTarget { .. })),
                "e{bits}/s{sparsity}: the jump to {target:#x} faulted: {result:?}"
            );
            // The `ret` and at least one instruction at the target.
            assert!(steps >= 2, "e{bits}/s{sparsity}: {steps} steps at {target:#x}");
        }
    }
}
