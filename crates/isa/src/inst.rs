//! Instruction definitions: opcodes, operands and static properties.

use crate::{Addr, Reg};
use std::fmt;

/// Maximum encoded length of any instruction, in bytes.
///
/// `mov reg, imm64` is the longest at 10 bytes (opcode + register byte +
/// 8 immediate bytes), mirroring x86's 10-byte `movabs`.
pub const MAX_INST_LEN: usize = 10;

/// An ALU operation used by [`Inst::AluRR`] and [`Inst::AluRI`].
///
/// All operations are destructive two-operand forms (`dst = dst op src`)
/// and update the ZF/SF/CF/OF flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum AluOp {
    /// Wrapping addition.
    Add = 0,
    /// Wrapping subtraction.
    Sub = 1,
    /// Bitwise AND.
    And = 2,
    /// Bitwise OR.
    Or = 3,
    /// Bitwise XOR.
    Xor = 4,
    /// Logical shift left (count masked to 63).
    Shl = 5,
    /// Logical shift right (count masked to 63).
    Shr = 6,
    /// Arithmetic shift right (count masked to 63).
    Sar = 7,
    /// Wrapping multiplication (low 64 bits).
    Mul = 8,
    /// Unsigned division; division by zero faults.
    Div = 9,
    /// Unsigned remainder; division by zero faults.
    Rem = 10,
}

/// All ALU operations, in encoding order.
pub const ALL_ALU_OPS: [AluOp; 11] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Sar,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
];

impl AluOp {
    /// Returns the operation with encoding value `v`, if any.
    pub fn from_u8(v: u8) -> Option<AluOp> {
        ALL_ALU_OPS.get(v as usize).copied()
    }

    /// Returns the lower-case mnemonic of the operation.
    pub fn name(self) -> &'static str {
        const NAMES: [&str; 11] = [
            "add", "sub", "and", "or", "xor", "shl", "shr", "sar", "mul", "div", "rem",
        ];
        NAMES[self as usize]
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A condition code for conditional branches, evaluated against the flags
/// register exactly as on x86.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Cond {
    /// Equal (ZF).
    Eq = 0,
    /// Not equal (!ZF).
    Ne = 1,
    /// Signed less-than (SF != OF).
    Lt = 2,
    /// Signed less-or-equal (ZF || SF != OF).
    Le = 3,
    /// Signed greater-than (!ZF && SF == OF).
    Gt = 4,
    /// Signed greater-or-equal (SF == OF).
    Ge = 5,
    /// Unsigned below (CF).
    B = 6,
    /// Unsigned above-or-equal (!CF).
    Ae = 7,
    /// Unsigned below-or-equal (CF || ZF).
    Be = 8,
    /// Unsigned above (!CF && !ZF).
    A = 9,
    /// Sign set (SF).
    S = 10,
    /// Sign clear (!SF).
    Ns = 11,
}

/// All condition codes, in encoding order.
pub const ALL_CONDS: [Cond; 12] = [
    Cond::Eq,
    Cond::Ne,
    Cond::Lt,
    Cond::Le,
    Cond::Gt,
    Cond::Ge,
    Cond::B,
    Cond::Ae,
    Cond::Be,
    Cond::A,
    Cond::S,
    Cond::Ns,
];

impl Cond {
    /// Returns the condition with encoding value `v`, if any.
    pub fn from_u8(v: u8) -> Option<Cond> {
        ALL_CONDS.get(v as usize).copied()
    }

    /// Returns the logically inverted condition (`Eq` ↔ `Ne`, …).
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
            Cond::B => Cond::Ae,
            Cond::Ae => Cond::B,
            Cond::Be => Cond::A,
            Cond::A => Cond::Be,
            Cond::S => Cond::Ns,
            Cond::Ns => Cond::S,
        }
    }

    /// Returns the branch mnemonic suffix (`"eq"`, `"ne"`, …).
    pub fn name(self) -> &'static str {
        const NAMES: [&str; 12] = [
            "eq", "ne", "lt", "le", "gt", "ge", "b", "ae", "be", "a", "s", "ns",
        ];
        NAMES[self as usize]
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One decoded machine instruction.
///
/// Relative branch displacements (`rel`) are measured from the address of
/// the *next* instruction, as on x86. Memory operands address 64-bit
/// quantities except for [`Inst::LoadB`]/[`Inst::StoreB`], which move a
/// single zero-extended byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Inst {
    /// No operation.
    Nop,
    /// Stop the machine.
    Halt,
    /// Pop the return address and jump to it.
    Ret,
    /// Software interrupt. `sys 0` exits, `sys 1` appends `rax` to the
    /// output sink, `sys 3` is the attack-demo "shell" marker.
    Sys {
        /// Syscall number.
        num: u8,
    },
    /// `dst = src`.
    MovRR {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = imm` (full 64-bit immediate).
    MovRI {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// `dst = base + disp` (address computation; no memory access).
    Lea {
        /// Destination register.
        dst: Reg,
        /// Base register.
        base: Reg,
        /// Displacement added to the base.
        disp: i32,
    },
    /// `dst = mem64[base + disp]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base register.
        base: Reg,
        /// Displacement.
        disp: i32,
    },
    /// `mem64[base + disp] = src`.
    Store {
        /// Base register.
        base: Reg,
        /// Displacement.
        disp: i32,
        /// Source register.
        src: Reg,
    },
    /// `dst = mem64[base + index * scale + disp]`, `scale ∈ {1,2,4,8}`.
    LoadIdx {
        /// Destination register.
        dst: Reg,
        /// Base register.
        base: Reg,
        /// Index register.
        index: Reg,
        /// log2 of the scale factor (0–3).
        scale: u8,
        /// Displacement.
        disp: i32,
    },
    /// `mem64[base + index * scale + disp] = src`.
    StoreIdx {
        /// Base register.
        base: Reg,
        /// Index register.
        index: Reg,
        /// log2 of the scale factor (0–3).
        scale: u8,
        /// Displacement.
        disp: i32,
        /// Source register.
        src: Reg,
    },
    /// `dst = zext(mem8[base + disp])`.
    LoadB {
        /// Destination register.
        dst: Reg,
        /// Base register.
        base: Reg,
        /// Displacement.
        disp: i32,
    },
    /// `mem8[base + disp] = src & 0xff`.
    StoreB {
        /// Base register.
        base: Reg,
        /// Displacement.
        disp: i32,
        /// Source register.
        src: Reg,
    },
    /// `rsp -= 8; mem64[rsp] = src`.
    Push {
        /// Source register.
        src: Reg,
    },
    /// `dst = mem64[rsp]; rsp += 8`.
    Pop {
        /// Destination register.
        dst: Reg,
    },
    /// `rsp -= 8; mem64[rsp] = sext(imm)`.
    PushI {
        /// Immediate value pushed (sign-extended to 64 bits).
        imm: i32,
    },
    /// `dst = dst op src`, setting flags.
    AluRR {
        /// Operation.
        op: AluOp,
        /// Destination (and left) operand.
        dst: Reg,
        /// Right operand.
        src: Reg,
    },
    /// `dst = dst op sext(imm)`, setting flags.
    AluRI {
        /// Operation.
        op: AluOp,
        /// Destination (and left) operand.
        dst: Reg,
        /// Right operand immediate.
        imm: i32,
    },
    /// Set flags from `lhs - rhs` without writing a register.
    Cmp {
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// Set flags from `lhs - sext(imm)`.
    CmpI {
        /// Left operand.
        lhs: Reg,
        /// Right operand immediate.
        imm: i32,
    },
    /// Set ZF/SF from `lhs & rhs` (CF and OF are cleared).
    Test {
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// `dst = -dst` (two's complement), setting flags.
    Neg {
        /// Operand register.
        dst: Reg,
    },
    /// `dst = !dst` (bitwise complement); flags unaffected.
    Not {
        /// Operand register.
        dst: Reg,
    },
    /// Unconditional direct jump to `next_pc + rel`.
    Jmp {
        /// Displacement from the next instruction address.
        rel: i32,
    },
    /// Conditional direct jump to `next_pc + rel` when `cc` holds.
    Jcc {
        /// Condition.
        cc: Cond,
        /// Displacement from the next instruction address.
        rel: i32,
    },
    /// Direct call: push `next_pc`, jump to `next_pc + rel`.
    Call {
        /// Displacement from the next instruction address.
        rel: i32,
    },
    /// Indirect call through a register.
    CallR {
        /// Register holding the target address.
        target: Reg,
    },
    /// Indirect call through memory (`call [base + disp]`).
    CallM {
        /// Base register.
        base: Reg,
        /// Displacement.
        disp: i32,
    },
    /// Indirect jump through a register.
    JmpR {
        /// Register holding the target address.
        target: Reg,
    },
    /// Indirect jump through memory (`jmp [base + disp]`, e.g. jump tables).
    JmpM {
        /// Base register.
        base: Reg,
        /// Displacement.
        disp: i32,
    },
}

impl Inst {
    /// Returns the encoded length of the instruction in bytes (1–10).
    pub fn len(&self) -> usize {
        match self {
            Inst::Nop | Inst::Halt | Inst::Ret => 1,
            Inst::Sys { .. }
            | Inst::MovRR { .. }
            | Inst::Push { .. }
            | Inst::Pop { .. }
            | Inst::AluRR { .. }
            | Inst::Cmp { .. }
            | Inst::Test { .. }
            | Inst::Neg { .. }
            | Inst::Not { .. }
            | Inst::CallR { .. }
            | Inst::JmpR { .. } => 2,
            Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::Call { .. } | Inst::PushI { .. } => 5,
            Inst::Lea { .. }
            | Inst::Load { .. }
            | Inst::Store { .. }
            | Inst::LoadB { .. }
            | Inst::StoreB { .. }
            | Inst::AluRI { .. }
            | Inst::CmpI { .. }
            | Inst::CallM { .. }
            | Inst::JmpM { .. } => 6,
            Inst::LoadIdx { .. } | Inst::StoreIdx { .. } => 7,
            Inst::MovRI { .. } => 10,
        }
    }

    /// Returns `true` for the canonical "empty" check mandated by clippy;
    /// instructions are never zero-length.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` when the instruction can redirect control flow
    /// (branches, calls, returns — not `halt`/`sys`).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Jmp { .. }
                | Inst::Jcc { .. }
                | Inst::Call { .. }
                | Inst::CallR { .. }
                | Inst::CallM { .. }
                | Inst::JmpR { .. }
                | Inst::JmpM { .. }
                | Inst::Ret
        )
    }

    /// Returns `true` when executing the instruction reads or writes data
    /// memory: loads, stores, pushes and pops, calls (which push the
    /// return address), `ret` (which pops it) and the memory-indirect
    /// transfers (which load their target).
    pub fn accesses_memory(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. }
                | Inst::Store { .. }
                | Inst::LoadIdx { .. }
                | Inst::StoreIdx { .. }
                | Inst::LoadB { .. }
                | Inst::StoreB { .. }
                | Inst::Push { .. }
                | Inst::Pop { .. }
                | Inst::PushI { .. }
                | Inst::Call { .. }
                | Inst::CallR { .. }
                | Inst::CallM { .. }
                | Inst::JmpM { .. }
                | Inst::Ret
        )
    }

    /// Returns `true` for control transfers whose target is encoded in the
    /// instruction itself (`jmp`, `jcc`, `call`).
    pub fn is_direct_transfer(&self) -> bool {
        matches!(self, Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::Call { .. })
    }

    /// Returns `true` for control transfers whose target comes from a
    /// register, memory, or the stack (`jmp reg/[m]`, `call reg/[m]`, `ret`).
    pub fn is_indirect_transfer(&self) -> bool {
        matches!(
            self,
            Inst::CallR { .. }
                | Inst::CallM { .. }
                | Inst::JmpR { .. }
                | Inst::JmpM { .. }
                | Inst::Ret
        )
    }

    /// Returns `true` for any call (direct or indirect).
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. } | Inst::CallR { .. } | Inst::CallM { .. })
    }

    /// Returns `true` when execution can fall through to the next
    /// sequential instruction (everything except unconditional transfers
    /// and `halt`).
    pub fn falls_through(&self) -> bool {
        !matches!(
            self,
            Inst::Jmp { .. } | Inst::JmpR { .. } | Inst::JmpM { .. } | Inst::Ret | Inst::Halt
        )
    }

    /// For direct transfers, the absolute target given the instruction's
    /// address `pc`; `None` for everything else.
    pub fn direct_target(&self, pc: Addr) -> Option<Addr> {
        let next = pc.wrapping_add(self.len() as Addr);
        match self {
            Inst::Jmp { rel } | Inst::Jcc { rel, .. } | Inst::Call { rel } => {
                Some(next.wrapping_add(*rel as Addr))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Nop => write!(f, "nop"),
            Inst::Halt => write!(f, "halt"),
            Inst::Ret => write!(f, "ret"),
            Inst::Sys { num } => write!(f, "sys {num}"),
            Inst::MovRR { dst, src } => write!(f, "mov {dst}, {src}"),
            Inst::MovRI { dst, imm } => write!(f, "mov {dst}, {imm}"),
            Inst::Lea { dst, base, disp } => write!(f, "lea {dst}, [{base}{disp:+}]"),
            Inst::Load { dst, base, disp } => write!(f, "mov {dst}, [{base}{disp:+}]"),
            Inst::Store { base, disp, src } => write!(f, "mov [{base}{disp:+}], {src}"),
            Inst::LoadIdx { dst, base, index, scale, disp } => {
                write!(f, "mov {dst}, [{base}+{index}*{}{disp:+}]", 1u32 << scale)
            }
            Inst::StoreIdx { base, index, scale, disp, src } => {
                write!(f, "mov [{base}+{index}*{}{disp:+}], {src}", 1u32 << scale)
            }
            Inst::LoadB { dst, base, disp } => write!(f, "movb {dst}, [{base}{disp:+}]"),
            Inst::StoreB { base, disp, src } => write!(f, "movb [{base}{disp:+}], {src}"),
            Inst::Push { src } => write!(f, "push {src}"),
            Inst::Pop { dst } => write!(f, "pop {dst}"),
            Inst::PushI { imm } => write!(f, "push {imm}"),
            Inst::AluRR { op, dst, src } => write!(f, "{op} {dst}, {src}"),
            Inst::AluRI { op, dst, imm } => write!(f, "{op} {dst}, {imm}"),
            Inst::Cmp { lhs, rhs } => write!(f, "cmp {lhs}, {rhs}"),
            Inst::CmpI { lhs, imm } => write!(f, "cmp {lhs}, {imm}"),
            Inst::Test { lhs, rhs } => write!(f, "test {lhs}, {rhs}"),
            Inst::Neg { dst } => write!(f, "neg {dst}"),
            Inst::Not { dst } => write!(f, "not {dst}"),
            Inst::Jmp { rel } => write!(f, "jmp {rel:+}"),
            Inst::Jcc { cc, rel } => write!(f, "j{cc} {rel:+}"),
            Inst::Call { rel } => write!(f, "call {rel:+}"),
            Inst::CallR { target } => write!(f, "call {target}"),
            Inst::CallM { base, disp } => write!(f, "call [{base}{disp:+}]"),
            Inst::JmpR { target } => write!(f, "jmp {target}"),
            Inst::JmpM { base, disp } => write!(f, "jmp [{base}{disp:+}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_are_in_range() {
        let samples = [
            Inst::Nop,
            Inst::Sys { num: 1 },
            Inst::Jmp { rel: -4 },
            Inst::Load { dst: Reg::Rax, base: Reg::Rbp, disp: -8 },
            Inst::LoadIdx { dst: Reg::Rax, base: Reg::Rbx, index: Reg::Rcx, scale: 3, disp: 0 },
            Inst::MovRI { dst: Reg::Rax, imm: i64::MIN },
        ];
        for inst in samples {
            assert!((1..=MAX_INST_LEN).contains(&inst.len()), "{inst}");
            assert!(!inst.is_empty());
        }
    }

    #[test]
    fn control_classification() {
        assert!(Inst::Ret.is_control());
        assert!(Inst::Ret.is_indirect_transfer());
        assert!(!Inst::Ret.is_direct_transfer());
        assert!(Inst::Jmp { rel: 0 }.is_direct_transfer());
        assert!(Inst::Call { rel: 0 }.is_call());
        assert!(Inst::CallM { base: Reg::Rbx, disp: 8 }.is_indirect_transfer());
        assert!(!Inst::Nop.is_control());
        assert!(!Inst::Halt.is_control());
    }

    #[test]
    fn fall_through() {
        assert!(Inst::Jcc { cc: Cond::Eq, rel: 4 }.falls_through());
        assert!(Inst::Call { rel: 4 }.falls_through());
        assert!(!Inst::Jmp { rel: 4 }.falls_through());
        assert!(!Inst::Ret.falls_through());
        assert!(!Inst::Halt.falls_through());
        assert!(Inst::Nop.falls_through());
    }

    #[test]
    fn direct_target_relative_to_next() {
        let j = Inst::Jmp { rel: 6 };
        assert_eq!(j.direct_target(0x100), Some(0x100 + 5 + 6));
        let b = Inst::Jcc { cc: Cond::Ne, rel: -11 };
        assert_eq!(b.direct_target(0x100), Some(0x100 + 5 - 11));
        assert_eq!(Inst::Ret.direct_target(0x100), None);
    }

    #[test]
    fn cond_negation_is_involutive() {
        for cc in ALL_CONDS {
            assert_eq!(cc.negate().negate(), cc);
            assert_ne!(cc.negate(), cc);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Inst::MovRR { dst: Reg::Rax, src: Reg::Rbx }.to_string(), "mov rax, rbx");
        assert_eq!(
            Inst::Load { dst: Reg::Rax, base: Reg::Rbp, disp: -8 }.to_string(),
            "mov rax, [rbp-8]"
        );
        assert_eq!(Inst::Jcc { cc: Cond::Ne, rel: 16 }.to_string(), "jne +16");
    }
}
