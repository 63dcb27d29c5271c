//! Synthetic SPEC CPU2006-like benchmark programs.
//!
//! SPEC CPU2006 is proprietary, so the evaluation substitutes thirteen
//! synthetic kernels that mimic, per benchmark, the characteristics the
//! paper's experiments are sensitive to: *instruction footprint* (how
//! much hot code competes for the 32 KB IL1 once scattered), *control
//! transfer mix* (direct vs indirect, call density — Table II), *data
//! access pattern* (streaming, pointer chasing, gather), and *branch
//! predictability*. See `DESIGN.md` for the substitution argument.
//!
//! The eleven SPEC stand-ins match the paper's list (bzip2, gcc, mcf,
//! hmmer, sjeng, libquantum, h264ref, lbm, xalan, namd, soplex);
//! `memcpy` and `python` complete the Figure 2 set.
//!
//! Every program is deterministic and self-checking: it emits checksum
//! values through the output syscall and halts, so functional equivalence
//! between the original and any rewritten variant is directly testable.
//!
//! # Example
//!
//! ```
//! let w = vcfr_workloads::by_name("bzip2").unwrap();
//! let out = w.run_reference().unwrap();
//! assert!(!out.output.is_empty());
//! ```

#![warn(missing_docs)]

mod bzip2;
mod gcc;
mod h264ref;
mod hmmer;
mod lbm;
mod libquantum;
mod mcf;
mod memcpy;
mod namd;
mod python;
mod sjeng;
mod soplex;
mod util;
mod xalan;

use vcfr_isa::{ExecError, Image, Machine, RunOutcome};

/// One synthetic benchmark: a built program image plus its run budget.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name (matches the paper's figures).
    pub name: &'static str,
    /// What the kernel mimics and why.
    pub description: &'static str,
    /// The program.
    pub image: Image,
    /// Instruction budget that comfortably covers a full run.
    pub max_insts: u64,
}

impl Workload {
    /// Runs the program to completion on the functional interpreter.
    ///
    /// # Errors
    ///
    /// Propagates architectural faults; a correct workload never faults.
    pub fn run_reference(&self) -> Result<RunOutcome, ExecError> {
        Machine::new(&self.image).run(self.max_insts)
    }
}

/// Names of the eleven SPEC CPU2006 stand-ins, in the paper's order.
pub const SPEC_NAMES: [&str; 11] = [
    "bzip2",
    "gcc",
    "mcf",
    "hmmer",
    "sjeng",
    "libquantum",
    "h264ref",
    "lbm",
    "xalan",
    "namd",
    "soplex",
];

/// Names of the Figure 2 emulation-slowdown set.
pub const FIG2_NAMES: [&str; 6] = ["bzip2", "h264ref", "hmmer", "memcpy", "python", "xalan"];

/// Builds the workload with the given name at scale 1 (the historical
/// program, byte for byte).
pub fn by_name(name: &str) -> Option<Workload> {
    by_name_scaled(name, 1)
}

/// The largest scale factor the harness and the service accept.
pub const MAX_SCALE: u64 = 1024;

/// Builds the workload with the given name, with its outer repeat count
/// and instruction budget multiplied by `scale` (clamped to at least 1).
/// Scale 1 reproduces the unscaled program byte-identically; larger
/// scales lengthen the run without changing the hot-code footprint or
/// the per-iteration kernel.
pub fn by_name_scaled(name: &str, scale: u64) -> Option<Workload> {
    Some(match name {
        "bzip2" => bzip2::build(scale),
        "gcc" => gcc::build(scale),
        "mcf" => mcf::build(scale),
        "hmmer" => hmmer::build(scale),
        "sjeng" => sjeng::build(scale),
        "libquantum" => libquantum::build(scale),
        "h264ref" => h264ref::build(scale),
        "lbm" => lbm::build(scale),
        "xalan" => xalan::build(scale),
        "namd" => namd::build(scale),
        "soplex" => soplex::build(scale),
        "memcpy" => memcpy::build(scale),
        "python" => python::build(scale),
        _ => return None,
    })
}

/// Builds the eleven SPEC-like workloads the performance experiments use.
pub fn spec_suite() -> Vec<Workload> {
    spec_suite_scaled(1)
}

/// Builds the SPEC-like suite at the given scale.
pub fn spec_suite_scaled(scale: u64) -> Vec<Workload> {
    SPEC_NAMES.iter().map(|n| by_name_scaled(n, scale).expect("known name")).collect()
}

/// Builds the six Figure 2 workloads.
pub fn fig2_suite() -> Vec<Workload> {
    FIG2_NAMES.iter().map(|n| by_name(n).expect("known name")).collect()
}

/// Builds every workload.
pub fn all() -> Vec<Workload> {
    all_scaled(1)
}

/// Builds every workload at the given scale.
pub fn all_scaled(scale: u64) -> Vec<Workload> {
    let mut v = spec_suite_scaled(scale);
    v.push(memcpy::build(scale));
    v.push(python::build(scale));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_to_completion_and_outputs() {
        for w in all() {
            let out = w.run_reference().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(!out.output.is_empty(), "{} produced no output", w.name);
            assert!(out.steps <= w.max_insts, "{} exceeded its budget", w.name);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        for w in [by_name("bzip2").unwrap(), by_name("xalan").unwrap()] {
            let a = w.run_reference().unwrap();
            let b = w.run_reference().unwrap();
            assert_eq!(a.output, b.output, "{}", w.name);
        }
    }

    #[test]
    fn suites_have_the_paper_membership() {
        assert_eq!(spec_suite().len(), 11);
        assert_eq!(fig2_suite().len(), 6);
        assert_eq!(all().len(), 13);
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn scale_one_is_byte_identical_to_the_unscaled_build() {
        for name in ["bzip2", "h264ref", "sjeng", "lbm"] {
            let base = by_name(name).unwrap();
            let scaled = by_name_scaled(name, 1).unwrap();
            assert_eq!(base.image.sections.len(), scaled.image.sections.len(), "{name}");
            for (a, b) in base.image.sections.iter().zip(&scaled.image.sections) {
                assert_eq!(a.bytes, b.bytes, "{name}: scale-1 image bytes changed");
            }
            assert_eq!(base.max_insts, scaled.max_insts, "{name}");
        }
    }

    #[test]
    fn every_workload_scales_its_run_length() {
        for name in SPEC_NAMES.iter().chain(["memcpy", "python"].iter()) {
            let w1 = by_name_scaled(name, 1).unwrap();
            let w4 = by_name_scaled(name, 4).unwrap();
            assert_eq!(w4.max_insts, 4 * w1.max_insts, "{name}");
            let s1 = w1.run_reference().unwrap_or_else(|e| panic!("{name}: {e}")).steps;
            let s4 = w4.run_reference().unwrap_or_else(|e| panic!("{name}: {e}")).steps;
            assert!(s4 > 3 * s1, "{name}: scale 4 ran {s4} steps vs {s1} at scale 1");
        }
    }
}
