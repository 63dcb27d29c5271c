//! Superblocks: decode-once straight-line replay regions.
//!
//! A superblock is a maximal run of *eligible* contiguous instructions —
//! no control transfer, no possible architectural fault, no stop, no
//! output, no ILR fall-through override — starting at some program
//! counter. Loads, stores, pushes and pops are eligible: their memory
//! accesses cannot fault. The interpreter decodes the run once
//! ([`crate::Machine::form_superblock`]) and thereafter replays it
//! through a reduced dispatch loop
//! ([`crate::Machine::replay_superblock`]) instead of taking the full
//! fetch/decode/execute state machine one instruction at a time. The
//! cycle simulator keeps a parallel per-block timing precompute and
//! batches its accounting the same way.
//!
//! Formation is a pure function of the image bytes (W^X: text never
//! changes), so blocks never invalidate for the life of a machine; the
//! cache is simply rebuilt from scratch after a checkpoint restore.
//!
//! See `docs/superblocks.md` for the formation rules and how the replay
//! path preserves bit-determinism.

use crate::inst::{AluOp, Inst};
use crate::slots::{ByteSlots, EMPTY};
use crate::Addr;

/// Shortest run worth caching as a superblock. Below this, the dispatch
/// overhead of entering the replay path exceeds what it saves, and the
/// cache records a [`SuperblockLookup::NoBlock`] so the address is never
/// probed again.
pub const SUPERBLOCK_MIN_INSTS: usize = 3;

/// Longest run a single superblock may hold. Replay is capped further at
/// run time (sampling intervals, fault schedules, epoch boundaries), so
/// the limit only bounds formation cost and memory.
pub const SUPERBLOCK_MAX_INSTS: usize = 512;

/// One pre-decoded instruction of a superblock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SbInst {
    /// Address of the instruction.
    pub pc: Addr,
    /// The decoded instruction (eligible by construction).
    pub inst: Inst,
    /// Encoded length in bytes.
    pub len: u8,
}

/// A decoded straight-line replay region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Superblock {
    /// Address of the first instruction.
    pub start: Addr,
    /// Address immediately after the last instruction (the machine's
    /// program counter after a full replay).
    pub end: Addr,
    /// The instructions, in execution order.
    pub insts: Vec<SbInst>,
}

impl Superblock {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the block is empty (never true for a formed block).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// Whether `inst` may be part of a superblock: anything that neither
/// transfers control (including `call [m]`, `jmp [m]` and `ret`), nor
/// stops the machine or emits output (`halt`, `sys`), nor can fault.
/// `Div`/`Rem` are excluded because they can raise a divide-by-zero
/// fault, which must surface at the exact per-instruction point the
/// slow path would raise it. Memory instructions are eligible: a data
/// access never faults, and replay reports each one so the timing model
/// can charge it (at most one per eligible instruction, see
/// [`Inst::accesses_memory`]).
pub fn superblock_eligible(inst: &Inst) -> bool {
    match inst {
        Inst::AluRR { op, .. } | Inst::AluRI { op, .. } => {
            !matches!(op, AluOp::Div | AluOp::Rem)
        }
        Inst::Halt | Inst::Sys { .. } => false,
        _ => !inst.is_control(),
    }
}

/// What the cache knows about a program counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuperblockLookup {
    /// Never probed: the caller should attempt formation.
    Untried,
    /// Formation was attempted and produced no (long-enough) block.
    NoBlock,
    /// A formed block, by id.
    Block(u32),
}

/// Slot value for "formation attempted, too short / ineligible" (an
/// [`EMPTY`] slot means "formation not attempted yet").
const NO_BLOCK: u32 = u32::MAX - 1;

/// A per-byte-slot cache of formed superblocks over a program's code
/// ranges, following the layout of [`crate::DecodedImage`]: lookup is
/// range scan + slot index, with no hashing on the replay path, and the
/// slots are allocated in chunks as blocks are recorded, so a sparse
/// scattered range costs memory only where code has run.
///
/// Entry points are cached *per address*: jumping into the middle of an
/// existing block simply forms a second (overlapping) block starting
/// there.
#[derive(Clone, Debug, Default)]
pub struct SuperblockCache {
    ranges: Vec<ByteSlots>,
    blocks: Vec<Superblock>,
}

impl SuperblockCache {
    /// An empty cache covering no addresses (every lookup misses).
    pub fn new() -> SuperblockCache {
        SuperblockCache::default()
    }

    /// Adds the code range `[lo, hi)`. Addresses outside every range are
    /// never cached (lookups return [`SuperblockLookup::NoBlock`]).
    pub fn add_range(&mut self, lo: Addr, hi: Addr) {
        self.ranges.push(ByteSlots::new(lo, hi));
    }

    /// What the cache knows about `pc`.
    #[inline]
    pub fn lookup(&self, pc: Addr) -> SuperblockLookup {
        for r in &self.ranges {
            if r.contains(pc) {
                return match r.get(pc) {
                    EMPTY => SuperblockLookup::Untried,
                    NO_BLOCK => SuperblockLookup::NoBlock,
                    id => SuperblockLookup::Block(id),
                };
            }
        }
        SuperblockLookup::NoBlock
    }

    /// Records the result of a formation attempt at `pc`; returns the
    /// new block's id when one was stored.
    pub fn record(&mut self, pc: Addr, formed: Option<Superblock>) -> Option<u32> {
        let id = match formed {
            Some(sb) => {
                debug_assert_eq!(sb.start, pc);
                let id = self.blocks.len() as u32;
                self.blocks.push(sb);
                id
            }
            None => NO_BLOCK,
        };
        if let Some(r) = self.ranges.iter_mut().find(|r| r.contains(pc)) {
            r.set(pc, id);
        }
        (id != NO_BLOCK).then_some(id)
    }

    /// The block with the given id.
    #[inline]
    pub fn get(&self, id: u32) -> &Superblock {
        &self.blocks[id as usize]
    }

    /// Number of formed blocks.
    pub fn blocks_formed(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    #[test]
    fn eligibility_excludes_transfers_faults_and_stops() {
        assert!(superblock_eligible(&Inst::Nop));
        assert!(superblock_eligible(&Inst::MovRI { dst: Reg::Rax, imm: 7 }));
        assert!(superblock_eligible(&Inst::AluRI { op: AluOp::Add, dst: Reg::Rax, imm: 1 }));
        assert!(superblock_eligible(&Inst::Cmp { lhs: Reg::Rax, rhs: Reg::Rbx }));
        assert!(superblock_eligible(&Inst::Not { dst: Reg::Rax }));
        // Data accesses cannot fault, so every memory instruction that
        // is not a transfer is in.
        let memory = [
            Inst::Load { dst: Reg::Rax, base: Reg::Rbx, disp: 0 },
            Inst::Store { base: Reg::Rbx, disp: 8, src: Reg::Rax },
            Inst::LoadIdx { dst: Reg::Rax, base: Reg::Rbx, index: Reg::Rcx, scale: 3, disp: 0 },
            Inst::StoreIdx { base: Reg::Rbx, index: Reg::Rcx, scale: 3, disp: 0, src: Reg::Rax },
            Inst::LoadB { dst: Reg::Rax, base: Reg::Rbx, disp: 1 },
            Inst::StoreB { base: Reg::Rbx, disp: 1, src: Reg::Rax },
            Inst::Push { src: Reg::Rax },
            Inst::Pop { dst: Reg::Rax },
            Inst::PushI { imm: -1 },
        ];
        for inst in memory {
            assert!(superblock_eligible(&inst), "{inst:?}");
            assert!(inst.accesses_memory(), "{inst:?}");
        }
        // Faultable, control and stopping instructions are out —
        // including the transfers that also touch memory.
        let out = [
            Inst::AluRR { op: AluOp::Div, dst: Reg::Rax, src: Reg::Rbx },
            Inst::AluRI { op: AluOp::Rem, dst: Reg::Rax, imm: 3 },
            Inst::Jmp { rel: 4 },
            Inst::Jcc { cc: crate::Cond::Eq, rel: 4 },
            Inst::Call { rel: 4 },
            Inst::CallR { target: Reg::Rax },
            Inst::CallM { base: Reg::Rax, disp: 0 },
            Inst::JmpR { target: Reg::Rax },
            Inst::JmpM { base: Reg::Rax, disp: 0 },
            Inst::Ret,
            Inst::Halt,
            Inst::Sys { num: 1 },
        ];
        for inst in out {
            assert!(!superblock_eligible(&inst), "{inst:?}");
        }
    }

    #[test]
    fn cache_slots_track_formation_results() {
        let mut c = SuperblockCache::new();
        c.add_range(0x1000, 0x1010);
        assert_eq!(c.lookup(0x1000), SuperblockLookup::Untried);
        assert_eq!(c.lookup(0x2000), SuperblockLookup::NoBlock, "outside every range");

        assert_eq!(c.record(0x1004, None), None);
        assert_eq!(c.lookup(0x1004), SuperblockLookup::NoBlock);

        let sb = Superblock {
            start: 0x1000,
            end: 0x1002,
            insts: vec![SbInst { pc: 0x1000, inst: Inst::Nop, len: 1 }],
        };
        let id = c.record(0x1000, Some(sb)).unwrap();
        assert_eq!(c.lookup(0x1000), SuperblockLookup::Block(id));
        assert_eq!(c.get(id).start, 0x1000);
        assert_eq!(c.blocks_formed(), 1);
    }
}
