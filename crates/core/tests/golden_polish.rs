//! Golden polish results: the cost and binding image `polish` reaches on
//! seeded random designs, from the constructive initial binding and after a
//! short search. Each case is one line of `tests/golden/polish.txt`:
//!
//! ```text
//! <design> steps=<n> <start>: cost=<c> parts=<FNV-1a 64 of BindingParts::encode()>
//! ```
//!
//! where `<start>` is `initial` (polish straight from `initial_binding`) or
//! `search` (polish after one trial of 400 moves). The allocator's
//! canonical reports polish only a few well-searched paper designs; these
//! cases start polish far from a local optimum on larger graphs, so any
//! change to its sweep order, its candidate sets or its accept decisions
//! shows up here as a line diff.
//!
//! On a mismatch the test writes the lines it computed to a file under
//! `target/` and prints its path; after reviewing the diff, copy that file
//! over the golden one to accept a deliberate change.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use salsa_alloc::{improve, initial_binding, polish, Allocator, ImproveConfig};
use salsa_cdfg::{random_cdfg, Cdfg, RandomCdfgConfig};
use salsa_sched::{asap, fds_schedule, FuLibrary};

const GOLDEN_PATH: &str = "tests/golden/polish.txt";
const GOLDEN: &str = include_str!("golden/polish.txt");

/// Seed of the random-design sequence.
const RANDOM_SEED: u64 = 0x9011_5eed;
const RANDOM_DESIGNS: usize = 24;

/// FNV-1a, 64-bit.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Random designs of 40-110 operations; every fourth declares one or two
/// memory arrays.
fn random_designs() -> Vec<Cdfg> {
    let mut rng = StdRng::seed_from_u64(RANDOM_SEED);
    (0..RANDOM_DESIGNS)
        .map(|i| {
            let ops = rng.gen_range(40..=110usize);
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

/// The two lines of one design at one latency.
fn case_lines(graph: &Cdfg, library: &FuLibrary, steps: usize, search_seed: u64) -> [String; 2] {
    let schedule = fds_schedule(graph, library, steps).expect("feasible latency");
    let short =
        ImproveConfig { max_trials: 1, moves_per_trial: Some(400), ..ImproveConfig::default() };
    let allocator = Allocator::new(graph, &schedule, library).config(short);
    let (ctx, config) = allocator.prepare().expect("the pool fits the schedule");
    let (initial, _) = initial_binding(&ctx, None);
    let line = |start: &str, binding: &mut salsa_alloc::Binding<'_>| {
        let cost = polish(binding, &config.weights, &config.move_set);
        let parts = fnv1a_64(binding.to_parts().encode().as_bytes());
        format!("{} steps={steps} {start}: cost={cost} parts={parts:016x}", graph.name())
    };
    let mut polished = initial.clone();
    let from_initial = line("initial", &mut polished);
    let mut searched = initial;
    improve(&mut searched, &config, &mut StdRng::seed_from_u64(search_seed));
    let from_search = line("search", &mut searched);
    [from_initial, from_search]
}

fn actual_lines() -> Vec<String> {
    let library = FuLibrary::standard();
    let mut lines = Vec::new();
    for (i, graph) in random_designs().iter().enumerate() {
        let cp = asap(graph, &library).length;
        for slack in [0, 2] {
            lines.extend(case_lines(graph, &library, cp + slack, i as u64));
        }
    }
    lines
}

#[test]
fn polish_results_match_the_golden_file() {
    let actual = actual_lines();
    let expected: Vec<&str> = GOLDEN.lines().collect();
    if expected == actual {
        return;
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("polish.actual.txt");
    std::fs::write(&out, actual.join("\n") + "\n").expect("write the actual polish lines");
    let first = expected
        .iter()
        .zip(&actual)
        .position(|(e, a)| e != a)
        .unwrap_or(expected.len().min(actual.len()));
    panic!(
        "polish results differ from {GOLDEN_PATH} ({} expected lines, {} actual; first \
         difference at line {})\nactual lines written to {}\ndiff them with: diff {GOLDEN_PATH} {}",
        expected.len(),
        actual.len(),
        first + 1,
        out.display(),
        out.display(),
    );
}
