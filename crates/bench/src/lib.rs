//! Shared harness for regenerating the paper's tables and figures.
//!
//! The binaries in `src/bin/` drive this:
//!
//! * `table2_ewf` — Table 2 (EWF under 14 schedule/register configurations),
//! * `table3_dct` — Table 3 (DCT under 4 schedules),
//! * `ablation`   — move-set ablations (DESIGN.md experiment index),
//! * `figures`    — Figures 1-5 scenario reproductions.
//!
//! Every case runs the SALSA allocator and the traditional-model
//! comparator on the *same* schedule, pool, weights and search effort, so
//! the reported equivalent 2-1 multiplexer counts are directly comparable
//! (the paper compares against other groups' published allocations; those
//! tools are not available, so the self-relative comparison carries the
//! claim — see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use salsa_alloc::{AllocResult, Allocator, ImproveConfig, MoveSet};
use salsa_cdfg::Cdfg;
use salsa_sched::{fds_schedule, FuClass, FuLibrary};

/// Search effort preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Fast smoke runs (CI, `--quick`).
    Quick,
    /// Paper-style runs (default for the table binaries).
    Full,
}

impl Effort {
    /// Parses `--quick` from argv.
    pub fn from_args() -> Effort {
        if std::env::args().any(|a| a == "--quick") {
            Effort::Quick
        } else {
            Effort::Full
        }
    }

    /// The improvement configuration for this effort with a given move set.
    ///
    /// Registers are weighted *below* one multiplexer: the Table 2
    /// experiment grants extra registers precisely so the search can spend
    /// them on interconnect ("additional registers allowed to trade off
    /// storage vs. interconnect", §5).
    pub fn config(self, move_set: MoveSet) -> ImproveConfig {
        let weights = salsa_datapath::CostWeights { fu_area: 100, reg: 2, mux: 4, conn: 1, bank: 80, conflict: 100_000 };
        match self {
            Effort::Quick => ImproveConfig {
                max_trials: 4,
                moves_per_trial: Some(800),
                move_set,
                weights,
                ..ImproveConfig::default()
            },
            Effort::Full => ImproveConfig {
                max_trials: 10,
                moves_per_trial: Some(4000),
                move_set,
                weights,
                ..ImproveConfig::default()
            },
        }
    }

    /// Independent restarts per case.
    pub fn restarts(self) -> usize {
        match self {
            Effort::Quick => 1,
            Effort::Full => 3,
        }
    }
}

/// One table row: a benchmark at a schedule/register configuration.
#[derive(Debug, Clone)]
pub struct Case {
    /// Row label (e.g. `"17P"`).
    pub label: String,
    /// Schedule length in control steps.
    pub steps: usize,
    /// Pipelined multipliers?
    pub pipelined: bool,
    /// Registers beyond the schedule minimum.
    pub extra_regs: usize,
}

/// Measured outcome of one case.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The case.
    pub case: Case,
    /// Multipliers in the pool (schedule demand).
    pub muls: usize,
    /// ALUs/adders in the pool (schedule demand).
    pub alus: usize,
    /// Registers in the pool.
    pub regs: usize,
    /// SALSA result.
    pub salsa: AllocResult,
    /// Traditional-model result on the identical setup.
    pub traditional: AllocResult,
}

impl Outcome {
    /// `<`, `=` or `>` comparing SALSA's merged mux count to the
    /// traditional model's.
    pub fn verdict(&self) -> char {
        match self
            .salsa
            .merged_mux_count()
            .cmp(&self.traditional.merged_mux_count())
        {
            std::cmp::Ordering::Less => '<',
            std::cmp::Ordering::Equal => '=',
            std::cmp::Ordering::Greater => '>',
        }
    }

    /// Pass-throughs used in the SALSA result.
    pub fn passes(&self) -> usize {
        self.salsa.rtl.steps.iter().map(|s| s.passes.len()).sum()
    }
}

/// Runs one case: schedule with FDS, allocate with the full SALSA move set
/// and with the traditional subset, identical effort and seeds.
///
/// # Panics
///
/// Panics when scheduling or allocation fails — table inputs are known
/// feasible.
pub fn run_case(graph: &Cdfg, case: &Case, seed: u64, effort: Effort) -> Outcome {
    let library = if case.pipelined { FuLibrary::pipelined() } else { FuLibrary::standard() };
    let schedule = fds_schedule(graph, &library, case.steps)
        .unwrap_or_else(|e| panic!("{}: {e}", case.label));
    let demand = schedule.fu_demand(graph, &library);
    let regs = schedule.register_demand(graph, &library) + case.extra_regs;

    let run = |move_set: MoveSet| {
        Allocator::new(graph, &schedule, &library)
            .extra_registers(case.extra_regs)
            .seed(seed)
            .config(effort.config(move_set))
            .restarts(effort.restarts())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", case.label))
    };
    Outcome {
        case: case.clone(),
        muls: demand.get(&FuClass::Mul).copied().unwrap_or(0),
        alus: demand.get(&FuClass::Alu).copied().unwrap_or(0),
        regs,
        salsa: run(MoveSet::full()),
        traditional: run(MoveSet::traditional()),
    }
}

/// Prints the table header used by `table2_ewf` and `table3_dct`.
pub fn print_header(title: &str) {
    println!("{title}");
    println!(
        "{:<6} {:>5} {:>4} {:>4} {:>4} | {:>9} {:>10} | {:>9} {:>10} | {:>3} {:>6}",
        "sched", "steps", "mul", "alu", "reg", "salsa-mux", "(merged)", "trad-mux", "(merged)", "cmp", "passes"
    );
    println!("{}", "-".repeat(96));
}

/// Prints one row.
pub fn print_row(outcome: &Outcome) {
    println!(
        "{:<6} {:>5} {:>4} {:>4} {:>4} | {:>9} {:>10} | {:>9} {:>10} | {:>3} {:>6}",
        outcome.case.label,
        outcome.case.steps,
        outcome.muls,
        outcome.alus,
        outcome.regs,
        outcome.salsa.breakdown.mux_equiv,
        outcome.salsa.merged_mux_count(),
        outcome.traditional.breakdown.mux_equiv,
        outcome.traditional.merged_mux_count(),
        outcome.verdict(),
        outcome.passes(),
    );
}

/// Prints the summary line matching the paper's §5 reporting style.
pub fn print_summary(outcomes: &[Outcome]) {
    let better = outcomes.iter().filter(|o| o.verdict() == '<').count();
    let equal = outcomes.iter().filter(|o| o.verdict() == '=').count();
    let worse = outcomes.iter().filter(|o| o.verdict() == '>').count();
    println!("{}", "-".repeat(96));
    println!(
        "SALSA vs traditional binding model: {better} better, {equal} equal, {worse} worse (of {})",
        outcomes.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_case_runs_end_to_end() {
        let graph = salsa_cdfg::benchmarks::diffeq();
        let case = Case {
            label: "cp+1".into(),
            steps: 9,
            pipelined: false,
            extra_regs: 0,
        };
        let outcome = run_case(&graph, &case, 3, Effort::Quick);
        assert!(outcome.salsa.verified());
        assert!(outcome.traditional.verified());
        assert!("<=>".contains(outcome.verdict()));
        print_header("smoke");
        print_row(&outcome);
        print_summary(std::slice::from_ref(&outcome));
    }

    #[test]
    fn effort_parsing_defaults_to_full() {
        // argv of the test harness has no --quick
        assert_eq!(Effort::from_args(), Effort::Full);
        assert_eq!(Effort::Quick.restarts(), 1);
        assert!(Effort::Full.restarts() > 1);
    }
}
