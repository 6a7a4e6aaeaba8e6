//! Golden canonical reports: every built-in benchmark, under the
//! sequential loop (1 thread, 2 restarts) and the parallel portfolio
//! (2 threads, 4 restarts), at seeds 7 and 42. Each case is one line of
//! `tests/golden/canonical_reports.txt`: the canonical JSON report
//! (wall-clock fields zeroed) followed by the FNV-1a 128 of the emitted
//! Verilog.
//!
//! The determinism contract says these bytes are a pure function of
//! `(design, knobs, seed)`, so the file pins the allocator's behaviour:
//! a refactor or a deletion that changes any trajectory, cost, report
//! key or emitted netlist shows up here as a line diff.
//!
//! On a mismatch the test writes the lines it computed to a file under
//! `target/` and prints its path; after reviewing the diff, copy that
//! file over the golden one to accept a deliberate change.

use salsa_alloc::{Allocator, ImproveConfig};
use salsa_cdfg::{benchmarks, fnv1a_128, Cdfg};
use salsa_rtlgen::{generate_verilog, VerilogOptions};
use salsa_sched::{asap, fds_schedule, FuLibrary};
use salsa_serve::{canonicalize_report, report_json};

const GOLDEN_PATH: &str = "tests/golden/canonical_reports.txt";
const GOLDEN: &str = include_str!("golden/canonical_reports.txt");

/// `(threads, restarts)`: the sequential loop and the 2-thread portfolio.
const MODES: [(usize, usize); 2] = [(1, 2), (2, 4)];
const SEEDS: [u64; 2] = [7, 42];

/// A reduced search budget (both phases, uphill moves and polish all
/// still run) so the whole file stays fast in a debug build.
fn budget(graph: &Cdfg) -> ImproveConfig {
    ImproveConfig {
        max_trials: 4,
        moves_per_trial: Some(20 * graph.num_ops()),
        ..ImproveConfig::default()
    }
}

fn case_line(graph: &Cdfg, threads: usize, restarts: usize, seed: u64) -> String {
    let library = FuLibrary::standard();
    let steps = asap(graph, &library).length;
    let schedule = fds_schedule(graph, &library, steps).expect("ASAP length is feasible");
    let result = Allocator::new(graph, &schedule, &library)
        .seed(seed)
        .restarts(restarts)
        .threads(threads)
        .config(budget(graph))
        .run()
        .expect("benchmark allocates");
    let mut report = report_json(graph, &schedule, seed, &result);
    canonicalize_report(&mut report);
    let options = VerilogOptions { module_name: format!("dp_{}", graph.name()), width: 16 };
    let verilog = generate_verilog(graph, &schedule, &library, &result, &options);
    format!("{} verilog={:032x}", report.to_string_compact(), fnv1a_128(verilog.as_bytes()))
}

#[test]
fn canonical_reports_match_the_golden_file() {
    let mut actual = Vec::new();
    for graph in benchmarks::all() {
        for (threads, restarts) in MODES {
            for seed in SEEDS {
                actual.push(case_line(&graph, threads, restarts, seed));
            }
        }
    }
    let expected: Vec<&str> = GOLDEN.lines().collect();
    if expected == actual {
        return;
    }
    let out =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("canonical_reports.actual.txt");
    std::fs::write(&out, actual.join("\n") + "\n").expect("write the actual reports");
    let first = expected
        .iter()
        .zip(&actual)
        .position(|(e, a)| e != a)
        .unwrap_or(expected.len().min(actual.len()));
    panic!(
        "canonical reports differ from {GOLDEN_PATH} ({} expected lines, {} actual; first \
         difference at line {})\nactual lines written to {}\ndiff them with: diff {GOLDEN_PATH} {}",
        expected.len(),
        actual.len(),
        first + 1,
        out.display(),
        out.display(),
    );
}
