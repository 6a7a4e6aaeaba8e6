//! Functional-unit classes, specifications and libraries.

use std::fmt;

use salsa_cdfg::OpKind;

/// The resource class that executes an operation. The paper's hardware
/// assumptions use two classes — ALUs (additions, subtractions,
/// comparisons) and multipliers — which the memory-binding extension
/// joins with a third: memory ports executing loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuClass {
    /// Adder/subtractor/comparator.
    Alu,
    /// Multiplier (optionally pipelined).
    Mul,
    /// Memory port (executes loads and stores against a bank).
    Mem,
}

impl FuClass {
    /// The class that executes the given operation kind.
    pub fn for_op(kind: OpKind) -> FuClass {
        match kind {
            OpKind::Add | OpKind::Sub | OpKind::Lt => FuClass::Alu,
            OpKind::Mul => FuClass::Mul,
            OpKind::Load | OpKind::Store => FuClass::Mem,
        }
    }

    /// All classes, in declaration order.
    pub fn all() -> [FuClass; 3] {
        [FuClass::Alu, FuClass::Mul, FuClass::Mem]
    }
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuClass::Alu => f.write_str("alu"),
            FuClass::Mul => f.write_str("mul"),
            FuClass::Mem => f.write_str("mem"),
        }
    }
}

/// Timing/capability specification of one functional-unit class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuSpec {
    /// Resource class this spec describes.
    pub class: FuClass,
    /// Control steps from issue until the result is available (the value's
    /// *birth* is `issue + delay`).
    pub delay: usize,
    /// Steps between successive issues on the same unit. Equal to `delay`
    /// for non-pipelined units; `1` for the paper's pipelined multipliers.
    pub init_interval: usize,
    /// Whether an idle unit of this class may be bound as a *pass-through*
    /// (paper §2/§5: adders pass values through; multipliers do not).
    pub can_pass_through: bool,
    /// Relative area cost, used in the weighted cost function.
    pub area: usize,
}

impl FuSpec {
    /// Steps of exclusive occupancy caused by one issue.
    pub fn occupancy(&self) -> usize {
        self.init_interval
    }
}

/// The set of functional-unit specs available to scheduling and allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuLibrary {
    alu: FuSpec,
    mul: FuSpec,
    mem: FuSpec,
}

impl FuLibrary {
    /// The paper's §5 assumptions with **non-pipelined** multipliers:
    /// adders take one control step, multipliers two.
    pub fn standard() -> Self {
        FuLibrary {
            alu: FuSpec {
                class: FuClass::Alu,
                delay: 1,
                init_interval: 1,
                can_pass_through: true,
                area: 1,
            },
            mul: FuSpec {
                class: FuClass::Mul,
                delay: 2,
                init_interval: 2,
                can_pass_through: false,
                area: 8,
            },
            mem: Self::standard_mem_spec(),
        }
    }

    /// The default memory-port spec: single-step accesses, one access per
    /// step per port, no pass-through. The area term is charged per *port*
    /// (the bank itself is costed separately by the datapath model).
    fn standard_mem_spec() -> FuSpec {
        FuSpec {
            class: FuClass::Mem,
            delay: 1,
            init_interval: 1,
            can_pass_through: false,
            area: 2,
        }
    }

    /// The paper's §5 assumptions with **pipelined** multipliers: two-step
    /// results, but a new multiplication may be issued every step
    /// ("pipelined multipliers have a latency of one control step").
    pub fn pipelined() -> Self {
        let mut lib = Self::standard();
        lib.mul.init_interval = 1;
        lib
    }

    /// Builds a library from explicit scalar specs; memory ports keep the
    /// standard single-step spec.
    ///
    /// # Panics
    ///
    /// Panics if the specs' classes are not (`Alu`, `Mul`) respectively, if a
    /// delay is zero, or if an initiation interval is zero or larger than the
    /// delay.
    pub fn from_specs(alu: FuSpec, mul: FuSpec) -> Self {
        assert_eq!(alu.class, FuClass::Alu);
        assert_eq!(mul.class, FuClass::Mul);
        for spec in [&alu, &mul] {
            assert!(spec.delay > 0, "zero-delay units are not supported");
            assert!(
                spec.init_interval > 0 && spec.init_interval <= spec.delay,
                "initiation interval must be in 1..=delay"
            );
        }
        FuLibrary { alu, mul, mem: Self::standard_mem_spec() }
    }

    /// The spec of a class.
    pub fn spec(&self, class: FuClass) -> &FuSpec {
        match class {
            FuClass::Alu => &self.alu,
            FuClass::Mul => &self.mul,
            FuClass::Mem => &self.mem,
        }
    }

    /// The spec executing an operation kind.
    pub fn spec_for(&self, kind: OpKind) -> &FuSpec {
        self.spec(FuClass::for_op(kind))
    }

    /// Result delay of an operation kind.
    pub fn delay(&self, kind: OpKind) -> usize {
        self.spec_for(kind).delay
    }

    /// Exclusive occupancy of an operation kind.
    pub fn occupancy(&self, kind: OpKind) -> usize {
        self.spec_for(kind).occupancy()
    }

    /// Returns `true` if multipliers are pipelined in this library.
    pub fn mul_pipelined(&self) -> bool {
        self.mul.init_interval < self.mul.delay
    }
}

#[cfg(test)]
impl FuLibrary {
    /// The standard library, the pipelined one, or one whose ALU takes
    /// three steps and accepts a new operation every two.
    pub(crate) fn for_tests(which: usize) -> FuLibrary {
        match which {
            0 => FuLibrary::standard(),
            1 => FuLibrary::pipelined(),
            _ => {
                let standard = FuLibrary::standard();
                let alu = FuSpec { delay: 3, init_interval: 2, ..*standard.spec(FuClass::Alu) };
                FuLibrary::from_specs(alu, *standard.spec(FuClass::Mul))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mapping() {
        assert_eq!(FuClass::for_op(OpKind::Add), FuClass::Alu);
        assert_eq!(FuClass::for_op(OpKind::Sub), FuClass::Alu);
        assert_eq!(FuClass::for_op(OpKind::Lt), FuClass::Alu);
        assert_eq!(FuClass::for_op(OpKind::Mul), FuClass::Mul);
        assert_eq!(FuClass::for_op(OpKind::Load), FuClass::Mem);
        assert_eq!(FuClass::for_op(OpKind::Store), FuClass::Mem);
        assert_eq!(FuClass::Alu.to_string(), "alu");
        assert_eq!(FuClass::Mem.to_string(), "mem");
    }

    #[test]
    fn standard_library_matches_paper_assumptions() {
        let lib = FuLibrary::standard();
        assert_eq!(lib.delay(OpKind::Add), 1);
        assert_eq!(lib.delay(OpKind::Mul), 2);
        assert_eq!(lib.occupancy(OpKind::Mul), 2);
        assert!(!lib.mul_pipelined());
        assert!(lib.spec(FuClass::Alu).can_pass_through);
        assert!(!lib.spec(FuClass::Mul).can_pass_through);
        assert_eq!(lib.delay(OpKind::Load), 1);
        assert_eq!(lib.occupancy(OpKind::Store), 1);
        assert!(!lib.spec(FuClass::Mem).can_pass_through);
    }

    #[test]
    fn pipelined_library() {
        let lib = FuLibrary::pipelined();
        assert_eq!(lib.delay(OpKind::Mul), 2, "result delay unchanged");
        assert_eq!(lib.occupancy(OpKind::Mul), 1, "new issue every step");
        assert!(lib.mul_pipelined());
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn bad_init_interval_rejected() {
        let mut alu = *FuLibrary::standard().spec(FuClass::Alu);
        let mul = *FuLibrary::standard().spec(FuClass::Mul);
        alu.init_interval = 0;
        let _ = FuLibrary::from_specs(alu, mul);
    }
}
