//! A compact, variable-length, x86-style instruction set architecture.
//!
//! This crate is the substrate every other VCFR crate builds on. It defines:
//!
//! * the instruction set itself ([`Inst`], [`Reg`], [`Cond`], [`AluOp`]),
//! * a byte-exact [`encode`]/[`decode`] pair for the variable-length
//!   (1–10 byte) machine encoding,
//! * [`Image`], the loadable binary format with sections, symbols and
//!   relocations,
//! * [`Asm`], a two-pass label assembler used by the synthetic workloads,
//! * [`Machine`], a functional (architectural) interpreter that produces
//!   per-instruction [`StepInfo`] traces consumed by the cycle simulator.
//!
//! The ISA deliberately mirrors the properties of x86 that the DSN 2015
//! paper's mechanisms depend on: variable instruction length (so gadget
//! scans at arbitrary byte offsets are meaningful and the fetch byte queue
//! has real work to do), dense direct branches, indirect jumps and calls
//! through registers and memory (jump tables, virtual dispatch), and a
//! `call`/`ret` pair that pushes return addresses to an in-memory stack.
//!
//! # Example
//!
//! ```
//! use vcfr_isa::{AluOp, Asm, Machine, Reg};
//!
//! let mut a = Asm::new(0x1000);
//! a.mov_ri(Reg::Rax, 6);
//! a.mov_ri(Reg::Rcx, 7);
//! a.alu_rr(AluOp::Mul, Reg::Rax, Reg::Rcx);
//! a.emit_output(Reg::Rax); // sys 1: append rax to the output sink
//! a.halt();
//! let image = a.finish().unwrap();
//!
//! let mut m = Machine::new(&image);
//! let outcome = m.run(1_000).unwrap();
//! assert_eq!(outcome.output, vec![42]);
//! ```

#![warn(missing_docs)]

mod asm;
mod decode;
mod decoded;
mod deps;
mod encode;
mod error;
mod image;
mod inst;
mod machine;
mod mem;
mod parse;
mod persist;
mod reg;
mod slots;
mod superblock;
pub mod wire;

pub use asm::{Asm, DataRef, Label};
pub use decode::{decode, decode_at};
pub use decoded::DecodedImage;
pub use deps::RegSet;
pub use encode::{encode, encode_into};
pub use error::{AsmError, DecodeError, ExecError};
pub use image::{Image, Reloc, Section, SectionKind, Symbol, SymbolKind};
pub use inst::{AluOp, Cond, Inst, ALL_ALU_OPS, ALL_CONDS, MAX_INST_LEN};
pub use machine::{ControlFlow, Machine, MemAccess, RunOutcome, StepInfo, StopReason};
pub use mem::Mem;
pub use parse::{parse_asm, ParseError};
pub use persist::IMAGE_MAGIC;
pub use reg::{Reg, ALL_REGS};
pub use superblock::{
    superblock_eligible, SbInst, Superblock, SuperblockCache, SuperblockLookup,
    SUPERBLOCK_MAX_INSTS, SUPERBLOCK_MIN_INSTS,
};

/// Virtual addresses are 32 bits wide, as in the paper's DRC entries
/// ("Each entry supports 32-bit instruction address translation").
pub type Addr = u32;

/// Number of the syscall used to terminate the program (`sys 0`).
pub const SYS_EXIT: u8 = 0;
/// Number of the syscall used to append `rax` to the output sink (`sys 1`).
pub const SYS_OUTPUT: u8 = 1;
/// Number of the syscall standing in for "spawn a shell" in attack demos
/// (`sys 3`). A well-formed program never executes it; a successful ROP
/// chain does.
pub const SYS_SHELL: u8 = 3;
