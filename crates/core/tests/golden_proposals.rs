//! Golden proposal streams: what every move proposer draws, and what the
//! search built from them finds, pinned as lines of
//! `tests/golden/proposals.txt`.
//!
//! A *stream* line covers [`DRAWS`] draws of one move kind, each feasible
//! proposal committed before the next draw:
//!
//! ```text
//! <design> steps=<n> <kind>: feasible=<draws> cost=<c> trace=<fingerprint>
//! ```
//!
//! where `<kind>` is the Table 1 label (`F1`..`R6`, plus `M1`..`M3` on
//! memory designs), `<c>` the weighted cost right after the kind's last
//! draw and `<fingerprint>` the [`MoveTrace::fingerprint`] of its
//! committed proposals as `Commit` steps, so every drawn entity, target
//! and cost is covered. The streams of one design share one binding,
//! starting from a fixed post-search binding (one trial of 400 moves),
//! and interleave: each round draws one move of every kind in Table 1
//! order, each kind from its own generator at a fixed seed. F4, F5, R6
//! and M2 thereby find the split segments, passes, copies and re-banked
//! arrays the other kinds commit. The designs are ewf at 19 steps, dct
//! at 10, fir8a and mm2 at their ASAP length, and eight seeded random
//! graphs of 8-20 operations and 0-2 states at ASAP+0..2 with 0-2 extra
//! registers.
//!
//! A *winner* line gives the cost, the FNV-1a 64 hash of
//! `BindingParts::encode()` and the search counters of one allocator run:
//! the EWF portfolio (seed 5, 3 restarts, 1 and 2 threads), the sequential
//! DCT job at its paper budget, and fir8a and mm2 at seed 7 at two
//! budgets, sequential and as the 2-thread portfolio.
//!
//! On a mismatch the test writes the lines it computed to a file under
//! `target/` and prints its path; after reviewing the diff, copy that file
//! over the golden one to accept a deliberate change.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use salsa_alloc::moves::{apply_proposal, propose};
use salsa_alloc::{
    improve, initial_binding, AllocResult, Allocator, Binding, ImproveConfig, MoveKind, MoveTrace,
    TraceStep,
};
use salsa_cdfg::{benchmarks, random_cdfg, Cdfg, RandomCdfgConfig};
use salsa_sched::{asap, fds_schedule, FuLibrary};

const GOLDEN_PATH: &str = "tests/golden/proposals.txt";
const GOLDEN: &str = include_str!("golden/proposals.txt");

/// Draws per move kind and stream.
const DRAWS: usize = 64;
/// Seed of every stream's draws.
const STREAM_SEED: u64 = 0x57_4ea3;
/// Seed of the short search that fixes each stream's start.
const SEARCH_SEED: u64 = 11;
/// Seed of the random-design sequence.
const RANDOM_SEED: u64 = 0x9_0905a1;
const RANDOM_DESIGNS: usize = 8;

/// FNV-1a, 64-bit.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One stream design: the graph, its latency and the registers added to
/// the schedule's demand.
struct Design {
    graph: Cdfg,
    steps: usize,
    extra_registers: usize,
}

fn designs(library: &FuLibrary) -> Vec<Design> {
    let at = |graph: Cdfg, steps: usize| Design { graph, steps, extra_registers: 0 };
    let mut out = vec![at(benchmarks::ewf(), 19), at(benchmarks::dct(), 10)];
    for graph in [benchmarks::fir_array(), benchmarks::matmul()] {
        let cp = asap(&graph, library).length;
        out.push(at(graph, cp));
    }
    let mut rng = StdRng::seed_from_u64(RANDOM_SEED);
    for _ in 0..RANDOM_DESIGNS {
        let ops = rng.gen_range(8..=20usize);
        let states = rng.gen_range(0..=2usize);
        let slack = rng.gen_range(0..=2usize);
        let extra_registers = rng.gen_range(0..=2usize);
        let config = RandomCdfgConfig { ops, states, ..RandomCdfgConfig::default() };
        let graph = random_cdfg(&config, rng.gen());
        let steps = asap(&graph, library).length + slack;
        out.push(Design { graph, steps, extra_registers });
    }
    out
}

/// One kind's stream on one design.
struct Stream {
    kind: MoveKind,
    feasible: usize,
    line: String,
}

fn streams(design: &Design, library: &FuLibrary) -> Vec<Stream> {
    let graph = &design.graph;
    let schedule = fds_schedule(graph, library, design.steps).expect("feasible latency");
    let short =
        ImproveConfig { max_trials: 1, moves_per_trial: Some(400), ..ImproveConfig::default() };
    let allocator = Allocator::new(graph, &schedule, library)
        .extra_registers(design.extra_registers)
        .config(short);
    let (ctx, config) = allocator.prepare().expect("the pool fits the schedule");
    let cost = |b: &Binding<'_>| config.weights.evaluate(&b.breakdown());
    let (mut binding, _) = initial_binding(&ctx, None);
    improve(&mut binding, &config, &mut StdRng::seed_from_u64(SEARCH_SEED));

    let kinds: Vec<(MoveKind, &str)> =
        MoveKind::all().into_iter().filter(|&(kind, _)| config.move_set.contains(kind)).collect();
    let mut rngs: Vec<StdRng> = kinds.iter().map(|_| StdRng::seed_from_u64(STREAM_SEED)).collect();
    let mut traces: Vec<MoveTrace> = kinds
        .iter()
        .map(|_| MoveTrace {
            base_seed: STREAM_SEED,
            slot: 0,
            seed: STREAM_SEED,
            initial_cost: 0,
            searched_cost: 0,
            final_cost: 0,
            steps: Vec::new(),
        })
        .collect();
    for round in 0..DRAWS {
        for (&(kind, _), (rng, trace)) in kinds.iter().zip(rngs.iter_mut().zip(&mut traces)) {
            if round == 0 {
                trace.initial_cost = cost(&binding);
            }
            if let Some(proposal) = propose(&mut binding, kind, rng) {
                binding.begin();
                assert!(apply_proposal(&mut binding, proposal), "a fresh proposal applies");
                binding.commit();
                trace.steps.push(TraceStep::Commit { proposal, cost_after: cost(&binding) });
            }
            trace.final_cost = cost(&binding);
            trace.searched_cost = trace.final_cost;
        }
    }
    kinds
        .iter()
        .zip(traces)
        .map(|(&(kind, label), trace)| Stream {
            kind,
            feasible: trace.commits(),
            line: format!(
                "{} steps={} {label}: feasible={} cost={} trace={:032x}",
                graph.name(),
                design.steps,
                trace.commits(),
                trace.final_cost,
                trace.fingerprint()
            ),
        })
        .collect()
}

/// One allocator run whose winner is pinned.
struct WinnerCase {
    graph: Cdfg,
    steps: usize,
    seed: u64,
    restarts: usize,
    threads: usize,
    extra_registers: usize,
    config: ImproveConfig,
}

fn winner_cases(library: &FuLibrary) -> Vec<WinnerCase> {
    let quick =
        ImproveConfig { max_trials: 3, moves_per_trial: Some(400), ..ImproveConfig::default() };
    let mem_quick =
        ImproveConfig { max_trials: 4, moves_per_trial: Some(800), ..ImproveConfig::default() };
    let ewf = benchmarks::ewf();
    let ewf_steps = asap(&ewf, library).length + 2;
    let mut cases: Vec<WinnerCase> = [1, 2]
        .into_iter()
        .map(|threads| WinnerCase {
            graph: ewf.clone(),
            steps: ewf_steps,
            seed: 5,
            restarts: 3,
            threads,
            extra_registers: 1,
            config: quick.clone(),
        })
        .collect();
    cases.push(WinnerCase {
        graph: benchmarks::dct(),
        steps: 10,
        seed: 42,
        restarts: 4,
        threads: 1,
        extra_registers: 0,
        config: ImproveConfig::default(),
    });
    for graph in [benchmarks::fir_array(), benchmarks::matmul()] {
        let cp = asap(&graph, library).length;
        for (steps, config) in [(cp + 1, &mem_quick), (cp, &ImproveConfig::default())] {
            for (threads, restarts) in [(1, 2), (2, 4)] {
                cases.push(WinnerCase {
                    graph: graph.clone(),
                    steps,
                    seed: 7,
                    restarts,
                    threads,
                    extra_registers: 0,
                    config: config.clone(),
                });
            }
        }
    }
    cases
}

fn winner_line(case: &WinnerCase, result: &AllocResult) -> String {
    let stats = &result.stats;
    format!(
        "{} steps={} seed={} restarts={} threads={} moves={}x{}: cost={} parts={:016x} \
         initial={} final={} trials={} attempted={} applied={} accepted={} uphill={} to_best={}",
        case.graph.name(),
        case.steps,
        case.seed,
        case.restarts,
        case.threads,
        case.config.max_trials,
        case.config.moves_per_trial.map_or("auto".to_string(), |m| m.to_string()),
        result.cost,
        fnv1a_64(result.winner.encode().as_bytes()),
        stats.initial_cost,
        stats.final_cost,
        stats.trials,
        stats.attempted,
        stats.applied,
        stats.accepted,
        stats.uphill_accepted,
        stats.trials_to_best,
    )
}

/// Every kind the lines cover must draw at least once where it can, so a
/// proposer that went silent cannot pass against an all-`None` stream.
fn assert_not_vacuous(name: &str, streams: &[Stream]) {
    let must_draw = |kind: MoveKind| match name {
        "ewf" | "dct" => !kind.is_memory(),
        "fir8a" | "mm2" => kind.is_memory(),
        _ => false,
    };
    for stream in streams {
        assert!(
            stream.feasible > 0 || !must_draw(stream.kind),
            "{name}: {:?} drew no feasible move in {DRAWS} draws",
            stream.kind
        );
    }
}

fn actual_lines() -> Vec<String> {
    let library = FuLibrary::standard();
    let mut lines = Vec::new();
    for design in designs(&library) {
        let streams = streams(&design, &library);
        assert_not_vacuous(design.graph.name(), &streams);
        lines.extend(streams.into_iter().map(|s| s.line));
    }
    for case in winner_cases(&library) {
        let schedule = fds_schedule(&case.graph, &library, case.steps).expect("feasible latency");
        let allocator = Allocator::new(&case.graph, &schedule, &library)
            .seed(case.seed)
            .restarts(case.restarts)
            .threads(case.threads)
            .extra_registers(case.extra_registers)
            .config(case.config.clone());
        let result = allocator.run().expect("allocation succeeds");
        lines.push(winner_line(&case, &result));
    }
    lines
}

#[test]
fn proposal_streams_match_the_golden_file() {
    let actual = actual_lines();
    let expected: Vec<&str> = GOLDEN.lines().collect();
    if expected == actual {
        return;
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("proposals.actual.txt");
    std::fs::write(&out, actual.join("\n") + "\n").expect("write the actual proposal lines");
    let first = expected
        .iter()
        .zip(&actual)
        .position(|(e, a)| e != a)
        .unwrap_or(expected.len().min(actual.len()));
    panic!(
        "proposal streams differ from {GOLDEN_PATH} ({} expected lines, {} actual; first \
         difference at line {})\nactual lines written to {}\ndiff them with: diff {GOLDEN_PATH} {}",
        expected.len(),
        actual.len(),
        first + 1,
        out.display(),
        out.display(),
    );
}
