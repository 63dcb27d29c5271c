//! The fuzzer's reused machine is indistinguishable from a fresh one: a
//! chain launched through `AttackSurface::launch_reusing` on a machine
//! that earlier probes already ran on returns exactly the `ChainRun` a
//! fresh `launch_against` returns, and leaves behind nothing a later
//! probe can see — written pages, newly mapped pages, or decoded
//! instructions.

use proptest::prelude::*;
use vcfr_core::{DrcConfig, RandParams};
use vcfr_gadget::{seed_corpus, AttackSurface};
use vcfr_isa::wire::Writer;
use vcfr_isa::{encode, Addr, Asm, Image, Inst, Machine, Reg};
use vcfr_rewriter::{randomize, RandomizeConfig, RandomizedProgram};

const POINTS: [u32; 3] = [13, 17, 20];
const BUDGET: u64 = 4096;

fn params(entropy_bits: u32) -> RandParams {
    RandParams { entropy_bits, sparsity: 2, rerand_epoch: None, drc: DrcConfig::direct_mapped(128) }
}

fn layout(image: &Image, entropy_bits: u32, seed: u64) -> RandomizedProgram {
    randomize(image, &RandomizeConfig::from_params(seed, &params(entropy_bits))).unwrap()
}

/// One probe: which corpus chain, where its first word lands, and the
/// extra words appended to it.
#[derive(Clone, Debug)]
struct Probe {
    pick: u64,
    guess: u64,
    aim_at_code: bool,
    extra: Vec<u64>,
}

fn arb_probe() -> impl Strategy<Value = Probe> {
    (any::<u64>(), any::<u64>(), any::<bool>(), proptest::collection::vec(any::<u64>(), 0..4))
        .prop_map(|(pick, guess, aim_at_code, extra)| Probe { pick, guess, aim_at_code, extra })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reset_probes_match_fresh_launches(
        point in 0usize..3,
        seed in any::<u64>(),
        probes in proptest::collection::vec(arb_probe(), 4..10),
    ) {
        let w = vcfr_workloads::by_name("sjeng").unwrap();
        let surface = AttackSurface::scan(&w.image);
        let corpus = seed_corpus(&surface);
        let rp = layout(&w.image, POINTS[point], seed);
        let (lo, hi) = rp.region;
        // Half the guesses hit a randomized instruction, so chains run and
        // dirty memory; the rest land anywhere in the region.
        let mut code: Vec<Addr> = rp.layout.iter().map(|(_, r)| r.raw()).collect();
        code.sort_unstable();
        let mut machine = rp.scattered_machine();
        for p in &probes {
            let mut words = corpus[(p.pick % corpus.len() as u64) as usize].clone();
            words[0] = if p.aim_at_code {
                u64::from(code[(p.guess % code.len() as u64) as usize])
            } else {
                u64::from(lo) + p.guess % u64::from(hi - lo)
            };
            words.extend(p.extra.iter().map(|x| {
                // Extra words are raw values or addresses in the region.
                if x & 1 == 0 { *x } else { u64::from(lo) + (x >> 1) % u64::from(hi - lo) }
            }));
            let fresh = surface.launch_against(&rp, &words, BUDGET);
            let reused = surface.launch_reusing(&rp, &mut machine, &words, BUDGET);
            prop_assert_eq!(&reused, &fresh);
            // Beyond the verdict, the whole architectural state the probe
            // leaves (registers, output, every page) matches a fresh
            // machine's.
            let mut once = rp.scattered_machine();
            surface.launch_reusing(&rp, &mut once, &words, BUDGET);
            prop_assert!(saved(&machine) == saved(&once), "state differs after {:x?}", words);
        }
    }
}

fn saved(m: &Machine) -> Vec<u8> {
    let mut w = Writer::with_magic(*b"RESETEQ1");
    m.save(&mut w);
    w.into_bytes()
}

/// A victim whose one gadget writes a word anywhere and jumps to it:
/// `pop rbx; pop rax; store [rbx], rax; jmp rbx`.
fn writer_victim() -> Image {
    let mut a = Asm::new(0x1000);
    a.mov_ri(Reg::Rax, 1);
    a.emit_output(Reg::Rax);
    a.halt();
    a.func("write_and_jump");
    a.pop(Reg::Rbx);
    a.pop(Reg::Rax);
    a.store(Reg::Rbx, 0, Reg::Rax);
    a.jmp_r(Reg::Rbx);
    a.finish().unwrap()
}

/// A region address at least 32 bytes away from every randomized
/// instruction, so writing a word there clobbers no real code.
fn free_slot(rp: &RandomizedProgram) -> Addr {
    let code: Vec<Addr> = rp.layout.iter().map(|(_, r)| r.raw()).collect();
    let (lo, hi) = rp.region;
    (lo + 32..hi - 32)
        .step_by(16)
        .find(|t| code.iter().all(|c| c.abs_diff(*t) >= 32))
        .expect("a sparse region has room")
}

/// The encoding of `insts`, zero-padded into one little-endian stack word.
fn word_of(insts: &[Inst]) -> u64 {
    let mut b = [0u8; 8];
    let code: Vec<u8> = insts.iter().flat_map(encode).collect();
    b[..code.len()].copy_from_slice(&code);
    u64::from_le_bytes(b)
}

#[test]
fn code_written_by_one_probe_is_never_decoded_by_the_next() {
    let img = writer_victim();
    let surface = AttackSurface::scan(&img);
    for bits in POINTS {
        let rp = layout(&img, bits, 2015 + u64::from(bits));
        let gadget = u64::from(rp.rand_or_orig(img.symbol("write_and_jump").unwrap().addr));
        let slot = u64::from(free_slot(&rp));
        let halt = word_of(&[Inst::Sys { num: 1 }, Inst::Halt]);
        let shell = word_of(&[Inst::Sys { num: 3 }]);
        let mut machine = rp.scattered_machine();
        // The first probe plants `sys 1; halt` and runs it; the second
        // plants `sys 3` at the same address. A memo surviving the reset
        // would replay the first probe's instruction.
        for words in [vec![gadget, slot, halt], vec![gadget, slot, shell], vec![slot]] {
            let fresh = surface.launch_against(&rp, &words, BUDGET);
            let reused = surface.launch_reusing(&rp, &mut machine, &words, BUDGET);
            assert_eq!(reused, fresh, "e{bits}: chain {words:x?}");
        }
        let planted = |words: Vec<u64>| surface.launch_against(&rp, &words, BUDGET);
        assert!(planted(vec![gadget, slot, shell]).shell(), "e{bits}: the planted shell runs");
        assert!(!planted(vec![gadget, slot, halt]).shell());
    }
}

#[test]
fn pages_mapped_by_a_probe_are_unmapped_by_the_reset() {
    let img = writer_victim();
    let surface = AttackSurface::scan(&img);
    for bits in POINTS {
        let rp = layout(&img, bits, 7 + u64::from(bits));
        let gadget = u64::from(rp.rand_or_orig(img.symbol("write_and_jump").unwrap().addr));
        let fresh_pages = rp.scattered_machine().mem().page_count();
        let mut machine = rp.scattered_machine();
        // Writes a page no section maps (then faults jumping there).
        let far: u64 = 0x7000_0000;
        assert!(!rp.scattered.sections.iter().any(|s| s.contains(far as Addr)));
        let words = [gadget, far, 0x1122_3344];
        let run = surface.launch_reusing(&rp, &mut machine, &words, BUDGET);
        assert_eq!(run, surface.launch_against(&rp, &words, BUDGET));
        assert_eq!(machine.mem().read_u64(far as Addr), 0x1122_3344, "the chain wrote the page");
        assert!(machine.mem().page_count() > fresh_pages);
        machine.reset(&rp.scattered);
        assert_eq!(machine.mem().page_count(), fresh_pages, "e{bits}");
        assert_eq!(machine.mem().read_u64(far as Addr), 0);
    }
}
