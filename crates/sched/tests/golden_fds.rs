//! Golden force-directed schedules: the exact issue table `fds_schedule_with`
//! returns for the built-in designs at several latencies, both libraries and
//! two register weights, and for seeded random designs with slack. Each case
//! is one line of `tests/golden/fds_schedules.txt`:
//!
//! ```text
//! <design> <library> steps=<n> weight=<w>: <issue step per op, in op order>
//! ```
//!
//! The large random designs (100-119 operations) sit at the top of the
//! benchmark's size range, where the best-pick's early stop skips the most
//! candidates. The pinned array designs are ones where it never stops, so
//! every list candidate is polished; further random designs run under the
//! pipelined library, a three-step ALU with initiation interval two, and
//! register weight 2.
//!
//! The allocator's canonical reports run FDS only at the critical path,
//! where the demand descent has almost no room to move. These cases add
//! slack, so any change to the descent's search order, its feasibility
//! repair or its scoring shows up here as a line diff.
//!
//! On a mismatch the test writes the lines it computed to a file under
//! `target/` and prints its path; after reviewing the diff, copy that file
//! over the golden one to accept a deliberate change.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use salsa_cdfg::{benchmarks, random_cdfg, Cdfg, RandomCdfgConfig};
use salsa_sched::{asap, fds_schedule_with, FdsOptions, FuClass, FuLibrary, FuSpec};

const GOLDEN_PATH: &str = "tests/golden/fds_schedules.txt";
const GOLDEN: &str = include_str!("golden/fds_schedules.txt");

/// Seed of the random-design sequence.
const RANDOM_SEED: u64 = 0x00f0_5eed;
const RANDOM_DESIGNS: usize = 24;
/// Seed and length of the large random-design sequence.
const LARGE_SEED: u64 = 0x1a26_5eed;
const LARGE_DESIGNS: usize = 8;
/// Seed and length of the random-design sequence run under each
/// non-standard library.
const LIBRARY_SEED: u64 = 0x11b5_5eed;
const LIBRARY_DESIGNS: usize = 8;
/// Seed and length of the small random designs run at register weight 2.
const WEIGHTED_SEED: u64 = 0x2e95_5eed;
const WEIGHTED_DESIGNS: usize = 3;
/// `(seed, operations, arrays)` of array designs at ASAP+2 whose best-pick
/// never meets the demand bound, so every list candidate is polished.
const UNSTOPPED_DESIGNS: [(u64, usize, usize); 4] =
    [(1, 67, 2), (4, 68, 1), (19, 63, 2), (48, 66, 1)];

fn case_line(graph: &Cdfg, library: (&str, &FuLibrary), steps: usize, weight: usize) -> String {
    let (lib_name, lib) = library;
    let options = FdsOptions { register_weight: weight };
    let schedule = fds_schedule_with(graph, lib, steps, &options).expect("feasible latency");
    let table: Vec<String> = schedule.issue_times().iter().map(usize::to_string).collect();
    format!("{} {lib_name} steps={steps} weight={weight}: {}", graph.name(), table.join(" "))
}

/// A random design shaped like the benchmark's: four inputs, four states
/// and 15% memory operations when it declares arrays.
fn random_design(seed: u64, ops: usize, arrays: usize) -> Cdfg {
    let config = RandomCdfgConfig {
        ops,
        inputs: 4,
        states: 4,
        arrays,
        mem_ratio: 0.15,
        ..RandomCdfgConfig::default()
    };
    random_cdfg(&config, seed)
}

/// `count` random designs of `ops` operations; every fourth declares one
/// or two memory arrays.
fn random_designs(seed: u64, count: usize, ops: std::ops::RangeInclusive<usize>) -> Vec<Cdfg> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let ops = rng.gen_range(ops.clone());
            let arrays = if i % 4 == 3 { rng.gen_range(1..=2usize) } else { 0 };
            random_design(rng.gen(), ops, arrays)
        })
        .collect()
}

/// The standard library with an ALU that takes three steps and accepts a
/// new operation every two.
fn slow_alu_library() -> FuLibrary {
    let standard = FuLibrary::standard();
    let alu = FuSpec { delay: 3, init_interval: 2, ..*standard.spec(FuClass::Alu) };
    FuLibrary::from_specs(alu, *standard.spec(FuClass::Mul))
}

fn actual_lines() -> Vec<String> {
    let standard = FuLibrary::standard();
    let pipelined = FuLibrary::pipelined();
    let libraries = [("standard", &standard), ("pipelined", &pipelined)];
    let mut lines = Vec::new();
    for graph in benchmarks::all() {
        for library in libraries {
            let cp = asap(&graph, library.1).length;
            for slack in [0, 1, 2, 4] {
                lines.push(case_line(&graph, library, cp + slack, 0));
            }
        }
    }
    for graph in [benchmarks::ewf(), benchmarks::dct(), benchmarks::ar_lattice()] {
        let cp = asap(&graph, &standard).length;
        for slack in [1, 3] {
            lines.push(case_line(&graph, libraries[0], cp + slack, 2));
        }
    }
    for graph in random_designs(RANDOM_SEED, RANDOM_DESIGNS, 40..=90) {
        let cp = asap(&graph, &standard).length;
        lines.push(case_line(&graph, libraries[0], cp + 2, 0));
    }
    for graph in random_designs(LARGE_SEED, LARGE_DESIGNS, 100..=119) {
        let cp = asap(&graph, &standard).length;
        for slack in [2, 4] {
            lines.push(case_line(&graph, libraries[0], cp + slack, 0));
        }
    }
    let slow_alu = slow_alu_library();
    for library in [libraries[1], ("alu3ii2", &slow_alu)] {
        for graph in random_designs(LIBRARY_SEED, LIBRARY_DESIGNS, 40..=90) {
            let cp = asap(&graph, library.1).length;
            lines.push(case_line(&graph, library, cp + 2, 0));
        }
    }
    for (seed, ops, arrays) in UNSTOPPED_DESIGNS {
        let graph = random_design(seed, ops, arrays);
        let cp = asap(&graph, &standard).length;
        lines.push(case_line(&graph, libraries[0], cp + 2, 0));
    }
    for graph in random_designs(WEIGHTED_SEED, WEIGHTED_DESIGNS, 20..=30) {
        let cp = asap(&graph, &standard).length;
        lines.push(case_line(&graph, libraries[0], cp + 2, 2));
    }
    lines
}

#[test]
fn fds_schedules_match_the_golden_file() {
    let actual = actual_lines();
    let expected: Vec<&str> = GOLDEN.lines().collect();
    if expected == actual {
        return;
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fds_schedules.actual.txt");
    std::fs::write(&out, actual.join("\n") + "\n").expect("write the actual schedules");
    let first = expected
        .iter()
        .zip(&actual)
        .position(|(e, a)| e != a)
        .unwrap_or(expected.len().min(actual.len()));
    panic!(
        "FDS schedules differ from {GOLDEN_PATH} ({} expected lines, {} actual; first \
         difference at line {})\nactual lines written to {}\ndiff them with: diff {GOLDEN_PATH} {}",
        expected.len(),
        actual.len(),
        first + 1,
        out.display(),
        out.display(),
    );
}
