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
//! candidates.
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
use salsa_sched::{asap, fds_schedule_with, FdsOptions, FuLibrary};

const GOLDEN_PATH: &str = "tests/golden/fds_schedules.txt";
const GOLDEN: &str = include_str!("golden/fds_schedules.txt");

/// Seed of the random-design sequence.
const RANDOM_SEED: u64 = 0x00f0_5eed;
const RANDOM_DESIGNS: usize = 24;
/// Seed and length of the large random-design sequence.
const LARGE_SEED: u64 = 0x1a26_5eed;
const LARGE_DESIGNS: usize = 8;

fn case_line(graph: &Cdfg, library: (&str, &FuLibrary), steps: usize, weight: usize) -> String {
    let (lib_name, lib) = library;
    let options = FdsOptions { register_weight: weight };
    let schedule = fds_schedule_with(graph, lib, steps, &options).expect("feasible latency");
    let table: Vec<String> = schedule.issue_times().iter().map(usize::to_string).collect();
    format!("{} {lib_name} steps={steps} weight={weight}: {}", graph.name(), table.join(" "))
}

/// `count` random designs of `ops` operations; every fourth declares one
/// or two memory arrays.
fn random_designs(seed: u64, count: usize, ops: std::ops::RangeInclusive<usize>) -> Vec<Cdfg> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let ops = rng.gen_range(ops.clone());
            let arrays = if i % 4 == 3 { rng.gen_range(1..=2usize) } else { 0 };
            let config = RandomCdfgConfig {
                ops,
                inputs: 4,
                states: 4,
                arrays,
                mem_ratio: 0.15,
                ..RandomCdfgConfig::default()
            };
            random_cdfg(&config, rng.gen())
        })
        .collect()
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
