//! Static workload characterizations consumed by the device models.

/// Instruction-mix fractions of a workload's floating-point work.
///
/// The fractions must sum to 1; they weight the per-operation core
/// complexity in the exposure models (paper Section 6.1: LavaMD is >50%
/// MUL, MxM is FMA-dominated, which is why their FIT trends track the
/// corresponding microbenchmarks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Fraction of additions/subtractions.
    pub add: f64,
    /// Fraction of multiplications.
    pub mul: f64,
    /// Fraction of fused multiply-adds.
    pub fma: f64,
    /// Fraction of divisions / square roots (heavy iterative units).
    pub div: f64,
    /// Fraction of transcendental evaluations (exp), executed in software
    /// on GPUs and in a dedicated unit on the Xeon Phi (Section 6.3).
    pub transcendental: f64,
}

impl OpMix {
    /// Creates a mix, validating that the fractions sum to 1 (±1e-9).
    ///
    /// # Panics
    ///
    /// Panics if the fractions are negative or do not sum to one.
    pub fn new(add: f64, mul: f64, fma: f64, div: f64, transcendental: f64) -> OpMix {
        let parts = [add, mul, fma, div, transcendental];
        assert!(
            parts.iter().all(|&p| (0.0..=1.0).contains(&p)),
            "mix fractions must be in [0,1]"
        );
        let sum: f64 = parts.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "mix must sum to 1, got {sum}");
        OpMix {
            add,
            mul,
            fma,
            div,
            transcendental,
        }
    }

    /// A pure-ADD mix.
    pub fn pure_add() -> OpMix {
        OpMix::new(1.0, 0.0, 0.0, 0.0, 0.0)
    }

    /// A pure-MUL mix.
    pub fn pure_mul() -> OpMix {
        OpMix::new(0.0, 1.0, 0.0, 0.0, 0.0)
    }

    /// A pure-FMA mix.
    pub fn pure_fma() -> OpMix {
        OpMix::new(0.0, 0.0, 1.0, 0.0, 0.0)
    }
}

/// What kind of output the workload produces — drives how SDCs are
/// scored (numeric TRE vs classification vs detection criticality) and
/// precision-specific framework overheads (the half-precision YOLO
/// slowdown of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Plain numeric output (MxM, LavaMD, LUD, microbenchmarks).
    Numeric,
    /// Image classifier (MNIST): criticality = misclassification.
    Classifier,
    /// Object detector (YOLOv3): criticality = detection/classification
    /// changes.
    Detector,
}

/// Static description of one benchmark at full experimental scale.
///
/// The fault-propagation kernels in `mpr-kernels` run a *scaled-down
/// proxy* of each benchmark (fault propagation probabilities are scale-
/// invariant for these regular codes); this profile carries the full-scale
/// operation and traffic counts that determine execution time and beam
/// exposure on each device.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name as it appears in the paper's tables.
    pub name: String,
    /// Floating-point operations per execution (full scale).
    pub flops: f64,
    /// Instruction mix of those operations.
    pub mix: OpMix,
    /// Values moved between the device and main memory per execution.
    pub value_traffic: f64,
    /// Parallel thread contexts the workload occupies.
    pub threads: f64,
    /// Live floating-point values per thread context (register demand in
    /// single precision; the models derive the other precisions from it).
    pub regs_per_thread: f64,
    /// Instruction-level parallelism per thread: 1.0 for a dependent
    /// chain (microbenchmarks), larger when independent operations can
    /// overlap (real applications).
    pub ilp: f64,
    /// Distinct data values live in the memory hierarchy during the run.
    pub working_set_values: f64,
    /// Fraction of the execution spent stalled on memory (0 = register
    /// resident, like the microbenchmarks; ~0.7 for the paper's
    /// non-coalesced MxM).
    pub memory_boundedness: f64,
    /// Control-flow operations per FP operation, relative to a typical
    /// application (= 1.0). Microbenchmarks are designed to minimize it.
    pub control_density: f64,
    /// Output semantics.
    pub kind: WorkloadKind,
}

impl WorkloadProfile {
    /// The Micro-ADD profile: one billion dependent additions per thread,
    /// 256 threads per SM on 80 SMs, register-resident (Section 3.1).
    pub fn micro_add() -> WorkloadProfile {
        WorkloadProfile::micro("Micro-ADD", OpMix::pure_add())
    }

    /// The Micro-MUL profile.
    pub fn micro_mul() -> WorkloadProfile {
        WorkloadProfile::micro("Micro-MUL", OpMix::pure_mul())
    }

    /// The Micro-FMA profile.
    pub fn micro_fma() -> WorkloadProfile {
        WorkloadProfile::micro("Micro-FMA", OpMix::pure_fma())
    }

    fn micro(name: &str, mix: OpMix) -> WorkloadProfile {
        let threads = 256.0 * 80.0; // 256 threads/SM x 80 SMs
        WorkloadProfile {
            name: name.to_string(),
            flops: 1e9 * threads, // one billion ops per thread
            mix,
            value_traffic: threads * 2.0, // one seed in, one result out
            threads,
            regs_per_thread: 8.0,
            ilp: 1.0, // strictly dependent chain
            working_set_values: threads * 2.0,
            memory_boundedness: 0.0, // registers only (Section 3.1)
            control_density: 0.1,
            kind: WorkloadKind::Numeric,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_mix_validates() {
        let m = OpMix::new(0.25, 0.25, 0.5, 0.0, 0.0);
        assert_eq!(m.fma, 0.5);
        assert_eq!(OpMix::pure_mul().mul, 1.0);
    }

    #[test]
    #[should_panic(expected = "must sum to 1")]
    fn op_mix_rejects_bad_sum() {
        let _ = OpMix::new(0.5, 0.5, 0.5, 0.0, 0.0);
    }

    #[test]
    fn micro_profiles_are_latency_bound_chains() {
        for p in [
            WorkloadProfile::micro_add(),
            WorkloadProfile::micro_mul(),
            WorkloadProfile::micro_fma(),
        ] {
            assert_eq!(p.ilp, 1.0);
            assert!(p.control_density < 1.0, "micros minimize control flow");
            assert_eq!(p.kind, WorkloadKind::Numeric);
        }
    }
}
