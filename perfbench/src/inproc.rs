//! The two in-process workloads. A job is CDFG text in, report and
//! Verilog out: parse → FDS → allocate → Verilog → report.
//!
//! * `paper-suite` is search-bound: the paper-style designs at fixed
//!   step counts with the Table-2-size search budget.
//! * `large-random` is scheduler-bound: seeded random designs of 40–119
//!   operations at ASAP+2 steps with a short search.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use salsa_alloc::{portfolio_search, AllocResult, Allocator, ImproveConfig, PortfolioConfig};
use salsa_cdfg::{cdfg_to_text, evaluate, parse_cdfg, random_cdfg, Cdfg, RandomCdfgConfig};
use salsa_cdfg::{ArrayId, OpKind, ValueId, ValueSource};
use salsa_datapath::{simulate, CostWeights};
use salsa_rtlgen::{generate_verilog, VerilogOptions};
use salsa_sched::{asap, fds_schedule, FuLibrary, Schedule};
use salsa_serve::report_json;

use crate::stats::{median, mix, percentile, ratio};
use crate::trace::Tracer;
use crate::Report;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSuite,
    LargeRandom,
}

/// Times the input set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 8;

/// Search seeds per paper design, on top of the two fixed trajectory rows.
const PAPER_SEEDS: u64 = 3;

/// Distinct random designs generated for `large-random`; the timed loop
/// wraps around only on a host fast enough to exhaust them.
const RANDOM_DESIGNS: usize = 400;

/// Scalar random designs have 40–119 operations: five size bins of 16
/// operations, cycled in order, with the size within a bin drawn from the
/// seed. Designs this size keep FDS dominant while a run completes a few
/// hundred of them, enough for its medians to settle.
const SCALAR_MIN_OPS: usize = 40;
const SCALAR_BIN_OPS: usize = 16;
const SCALAR_BINS: usize = 5;

/// Array designs have 40–69 operations in three bins of 10, with one or
/// two arrays. They stay small: FDS cost explodes on larger array designs
/// (164 operations with two arrays took 10.1 s against 1.2 s for a
/// 171-operation scalar design), and a few such designs would dominate a
/// whole run.
const ARRAY_MIN_OPS: usize = 40;
const ARRAY_BIN_OPS: usize = 10;
const ARRAY_BINS: usize = 3;

/// Reference-check loop iterations per job.
const CHECK_ITERATIONS: usize = 4;

struct Job {
    label: String,
    /// Jobs of one class do the same kind of work: the same paper job, or
    /// random designs of the same size. `jobs_per_s` charges each job its
    /// class's median time.
    class: usize,
    text: String,
    steps: usize,
    seed: u64,
}

struct Plan {
    jobs: Vec<Job>,
    /// The first `exact` jobs form the deterministic set the exact
    /// metrics sum over; every run completes at least these.
    exact: usize,
    config: ImproveConfig,
    restarts: usize,
    /// The percentile reported as `job_tail_ms`.
    tail_pct: f64,
}

/// The paper's Table 2 budget: 10 trials of 4000 moves per phase, with
/// registers weighted below one multiplexer (as in the table binaries).
fn table2_config() -> ImproveConfig {
    ImproveConfig {
        max_trials: 10,
        moves_per_trial: Some(4000),
        weights: CostWeights {
            fu_area: 100,
            reg: 2,
            mux: 4,
            conn: 1,
            bank: 80,
            conflict: 100_000,
        },
        ..ImproveConfig::default()
    }
}

fn paper_plan(seed: u64) -> Plan {
    let designs: [(&str, Cdfg, usize); 7] = [
        ("ewf", salsa_cdfg::benchmarks::ewf(), 19),
        ("dct", salsa_cdfg::benchmarks::dct(), 10),
        ("fir16", salsa_cdfg::benchmarks::fir16(), 8),
        ("ar_lattice", salsa_cdfg::benchmarks::ar_lattice(), 18),
        ("fft_stage", salsa_cdfg::benchmarks::fft_stage(), 6),
        ("fir8a", salsa_cdfg::benchmarks::fir_array(), 8),
        ("mm2", salsa_cdfg::benchmarks::matmul(), 8),
    ];
    let texts: Vec<String> = designs.iter().map(|(_, g, _)| cdfg_to_text(g)).collect();
    // The trajectory rows of BENCH_alloc.json, at their fixed seeds.
    let mut jobs = vec![
        Job {
            label: "ewf19/seed7".into(),
            class: 0,
            text: texts[0].clone(),
            steps: 19,
            seed: 7,
        },
        Job {
            label: "dct10/seed42".into(),
            class: 1,
            text: texts[1].clone(),
            steps: 10,
            seed: 42,
        },
    ];
    for round in 0..PAPER_SEEDS {
        for (d, ((name, _, steps), text)) in designs.iter().zip(&texts).enumerate() {
            let job_seed = mix(seed, round * 16 + d as u64) % 1_000_000;
            jobs.push(Job {
                label: format!("{name}{steps}/seed{job_seed}"),
                class: jobs.len(),
                text: text.clone(),
                steps: *steps,
                seed: job_seed,
            });
        }
    }
    let exact = jobs.len();
    Plan {
        jobs,
        exact,
        config: table2_config(),
        restarts: 6,
        tail_pct: 80.0,
    }
}

fn random_plan(seed: u64) -> Plan {
    let library = FuLibrary::standard();
    let jobs = (0..RANDOM_DESIGNS)
        .map(|i| {
            // Every fourth design declares one or two arrays. Size bins
            // (and array counts) cycle, so each class recurs evenly.
            let design_seed = mix(seed, i as u64);
            let (class, ops, arrays) = if i % 4 == 3 {
                let k = (i / 4) % (2 * ARRAY_BINS);
                let bin = k % ARRAY_BINS;
                let ops = ARRAY_MIN_OPS
                    + bin * ARRAY_BIN_OPS
                    + (mix(design_seed, 1) as usize) % ARRAY_BIN_OPS;
                (SCALAR_BINS + bin, ops, 1 + k / ARRAY_BINS)
            } else {
                let bin = (i - i / 4) % SCALAR_BINS;
                let ops = SCALAR_MIN_OPS
                    + bin * SCALAR_BIN_OPS
                    + (mix(design_seed, 1) as usize) % SCALAR_BIN_OPS;
                (bin, ops, 0)
            };
            let config = RandomCdfgConfig {
                ops,
                inputs: 4,
                states: 4,
                arrays,
                mem_ratio: 0.15,
                ..RandomCdfgConfig::default()
            };
            let graph = random_cdfg(&config, design_seed);
            Job {
                label: format!("random{i}-{ops}ops-{arrays}arr"),
                class,
                steps: asap(&graph, &library).length + 2,
                text: cdfg_to_text(&graph),
                seed: design_seed % 1_000_000,
            }
        })
        .collect();
    let short = ImproveConfig {
        max_trials: 1,
        moves_per_trial: Some(400),
        ..ImproveConfig::default()
    };
    Plan {
        jobs,
        exact: 48,
        config: short,
        restarts: 1,
        tail_pct: 80.0,
    }
}

/// A completed job, with what the reference check needs.
struct Done {
    graph: Cdfg,
    schedule: Schedule,
    result: AllocResult,
    verilog_bytes: usize,
}

fn allocator<'a>(
    graph: &'a Cdfg,
    schedule: &'a Schedule,
    library: &'a FuLibrary,
    job: &Job,
    plan: &Plan,
) -> Allocator<'a> {
    Allocator::new(graph, schedule, library)
        .seed(job.seed)
        .config(plan.config.clone())
        .restarts(plan.restarts)
        .threads(1)
}

/// The untraced job: `Allocator::run` as a single call.
fn run_plain(job: &Job, plan: &Plan, library: &FuLibrary) -> Result<Done, String> {
    let graph = parse_cdfg(&job.text).map_err(|e| format!("parse: {e}"))?;
    let schedule = fds_schedule(&graph, library, job.steps).map_err(|e| format!("fds: {e}"))?;
    let result = allocator(&graph, &schedule, library, job, plan)
        .run()
        .map_err(|e| format!("allocate: {e}"))?;
    let verilog = generate_verilog(
        &graph,
        &schedule,
        library,
        &result,
        &VerilogOptions::default(),
    );
    let report = report_json(&graph, &schedule, job.seed, &result).to_string_compact();
    black_box(report.len());
    Ok(Done {
        verilog_bytes: verilog.len(),
        graph,
        schedule,
        result,
    })
}

/// The traced job: one span per call into a layer, under a `job` root.
fn run_traced(
    job: &Job,
    plan: &Plan,
    library: &FuLibrary,
    tracer: &mut Tracer,
    id: u64,
) -> Result<Done, String> {
    let root = tracer.begin("job", "", id, None);
    let done = traced_body(job, plan, library, tracer, id, root);
    tracer.end(root);
    done
}

fn traced_body(
    job: &Job,
    plan: &Plan,
    library: &FuLibrary,
    tracer: &mut Tracer,
    id: u64,
    root: usize,
) -> Result<Done, String> {
    let graph = tracer
        .span("cdfg.parse", id, root, || parse_cdfg(&job.text))
        .map_err(|e| format!("parse: {e}"))?;
    let schedule = tracer
        .span("sched.fds", id, root, || {
            fds_schedule(&graph, library, job.steps)
        })
        .map_err(|e| format!("fds: {e}"))?;
    let result = {
        let alloc = allocator(&graph, &schedule, library, job, plan);
        let (ctx, config) = tracer
            .span("core.prepare", id, root, || alloc.prepare())
            .map_err(|e| format!("prepare: {e}"))?;
        // The same portfolio settings `Allocator::threads(1)` installs.
        let portfolio = PortfolioConfig {
            threads: Some(1),
            ..PortfolioConfig::default()
        };
        let outcome = tracer
            .span("core.search", id, root, || {
                portfolio_search(&ctx, &config, &portfolio, job.seed, plan.restarts)
            })
            .map_err(|e| format!("search: {e}"))?;
        tracer
            .span("core.complete", id, root, || alloc.complete(&ctx, outcome))
            .map_err(|e| format!("complete: {e}"))?
    };
    let verilog = tracer.span("rtlgen.verilog", id, root, || {
        generate_verilog(
            &graph,
            &schedule,
            library,
            &result,
            &VerilogOptions::default(),
        )
    });
    let report = tracer.span("server.report", id, root, || {
        report_json(&graph, &schedule, job.seed, &result).to_string_compact()
    });
    black_box(report.len());
    Ok(Done {
        verilog_bytes: verilog.len(),
        graph,
        schedule,
        result,
    })
}

/// The first completion of each distinct job: the numbers the exact
/// metrics sum.
struct Kept {
    cost: u64,
    mux: usize,
    verilog_bytes: usize,
    moves: usize,
}

/// The timed jobs of one run, and search counters summed over them.
#[derive(Default)]
struct Phase {
    /// Untraced latency of each job.
    latencies_ms: Vec<f64>,
    /// Traced latency of each job's traced twin (traced runs only).
    traced_ms: Vec<f64>,
    /// The class of each job, parallel to `latencies_ms`.
    classes: Vec<usize>,
    /// Calibration kernel times, one after each job.
    calibration_ms: Vec<f64>,
    ops: usize,
    moves: usize,
    accepted: usize,
    trials_to_best: usize,
    cutoff: usize,
}

fn moves_of(result: &AllocResult) -> usize {
    result
        .portfolio
        .aggregate
        .attempted
        .max(result.stats.attempted)
}

/// Runs jobs back to back until their latencies add up to `budget` and
/// the exact set is complete. With a tracer, each job is followed by its
/// traced twin, so both see the same host conditions. The reference
/// check of each job's first result runs between jobs, outside the timed
/// region.
fn run_phase(
    plan: &Plan,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
    kept: &mut BTreeMap<usize, Kept>,
    report: &mut Report,
) -> Phase {
    let library = FuLibrary::standard();
    let mut phase = Phase::default();
    let mut timed = Duration::ZERO;
    let mut n = 0usize;
    while n < plan.exact || timed < budget {
        let index = n % plan.jobs.len();
        let job = &plan.jobs[index];
        let t = Instant::now();
        let done = run_plain(job, plan, &library);
        timed += t.elapsed();
        phase.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        phase.classes.push(job.class);
        if let Ok(done) = &done {
            phase.ops += done.graph.num_ops();
            phase.moves += moves_of(&done.result);
            phase.accepted += done
                .result
                .portfolio
                .aggregate
                .accepted
                .max(done.result.stats.accepted);
            phase.trials_to_best += done.result.stats.trials_to_best;
            phase.cutoff += done.result.portfolio.abandoned();
        }
        settle(job, index, done, &library, kept, report);
        phase
            .calibration_ms
            .push(crate::stats::calibration_sample_ms());
        if let Some(tracer) = tracer.as_deref_mut() {
            let t = Instant::now();
            let done = run_traced(job, plan, &library, tracer, n as u64);
            timed += t.elapsed();
            phase.traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            settle(job, index, done, &library, kept, report);
        }
        n += 1;
    }
    phase
}

/// Checks a job's first result against the reference and keeps its
/// numbers; a repeat must reproduce them exactly.
fn settle(
    job: &Job,
    index: usize,
    done: Result<Done, String>,
    library: &FuLibrary,
    kept: &mut BTreeMap<usize, Kept>,
    report: &mut Report,
) {
    let done = match done {
        Ok(done) => done,
        Err(e) => return report.fail(format!("{}: {e}", job.label)),
    };
    match kept.get(&index) {
        Some(first) => {
            if first.cost != done.result.cost || first.verilog_bytes != done.verilog_bytes {
                report.fail(format!(
                    "{}: repeat gave cost {} / {} Verilog bytes, first run {} / {}",
                    job.label,
                    done.result.cost,
                    done.verilog_bytes,
                    first.cost,
                    first.verilog_bytes
                ));
            }
        }
        None => {
            if let Err(e) = check_against_reference(
                &done.graph,
                &done.schedule,
                library,
                &done.result,
                job.seed,
            ) {
                report.fail(format!("{}: {e}", job.label));
            }
            let entry = Kept {
                cost: done.result.cost,
                mux: done.result.merged_mux_count(),
                verilog_bytes: done.verilog_bytes,
                moves: moves_of(&done.result),
            };
            kept.insert(index, entry);
        }
    }
}

/// Jobs per second with every job charged its class's median time: the
/// run's job mix at typical speed, so neither a slow spell of the host
/// nor one unusually hard design moves it much.
fn class_median_rate(classes: &[usize], latencies_ms: &[f64]) -> f64 {
    let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (&class, &ms) in classes.iter().zip(latencies_ms) {
        by_class.entry(class).or_default().push(ms);
    }
    let total_ms: f64 = by_class.values().map(|v| median(v) * v.len() as f64).sum();
    ratio(latencies_ms.len() as f64 * 1e3, total_ms)
}

/// Seeded input vectors for `graph`: per-iteration primary inputs and the
/// initial loop-carried state.
type Env = (Vec<BTreeMap<ValueId, i64>>, BTreeMap<ValueId, i64>);

fn random_env(graph: &Cdfg, seed: u64) -> Env {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<ValueId> = graph
        .values()
        .filter(|v| v.source() == ValueSource::Input && !v.is_state())
        .map(|v| v.id())
        .collect();
    let vectors = (0..CHECK_ITERATIONS)
        .map(|_| {
            inputs
                .iter()
                .map(|&v| (v, rng.gen_range(-1000..1000)))
                .collect()
        })
        .collect();
    let state = graph
        .state_values()
        .map(|s| (s, rng.gen_range(-1000..1000)))
        .collect();
    (vectors, state)
}

/// Executes the allocated RTL cycle by cycle and compares it with the
/// CDFG's own interpreter on seeded input vectors.
pub fn check_against_reference(
    graph: &Cdfg,
    schedule: &Schedule,
    library: &FuLibrary,
    result: &AllocResult,
    seed: u64,
) -> Result<(), String> {
    let (inputs, state) = random_env(graph, seed);
    let golden = evaluate(graph, &inputs, &state);
    let sim = simulate(
        graph,
        schedule,
        library,
        &result.rtl,
        &result.claims,
        &inputs,
        &state,
    )
    .map_err(|e| format!("simulation failed: {e}"))?;
    for (k, (want, got)) in golden.outputs.iter().zip(&sim.outputs).enumerate() {
        for (value, expected) in want {
            if got.get(value) != Some(expected) {
                return Err(format!(
                    "iteration {k}: output {value} simulates to {:?}, reference {expected}",
                    got.get(value)
                ));
            }
        }
    }
    // Final memory is compared only for arrays with at most one store op.
    // Two stores to one address in one iteration have no order in the
    // CDFG: the interpreter commits them in op order, the RTL in schedule
    // order, and both are valid readings.
    let mut stores: BTreeMap<ArrayId, usize> = BTreeMap::new();
    for op in graph.ops().filter(|op| op.kind() == OpKind::Store) {
        *stores
            .entry(op.array().expect("stores carry an array"))
            .or_insert(0) += 1;
    }
    for (array, words) in &golden.arrays {
        if stores.get(array).copied().unwrap_or(0) <= 1
            && sim.final_arrays.get(array) != Some(words)
        {
            return Err(format!(
                "final contents of {array} differ from the reference"
            ));
        }
    }
    Ok(())
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
) -> Result<Report, String> {
    let mut report = Report::default();
    // Set-up is timed several times, before and after the timed region,
    // and reported as the median, so one slow spell of the host does not
    // decide it.
    let build = || match workload {
        Workload::PaperSuite => paper_plan(seed),
        Workload::LargeRandom => random_plan(seed),
    };
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut time_setup = || {
        let t = Instant::now();
        let plan = black_box(build());
        setups.push(t.elapsed().as_secs_f64());
        plan
    };
    let mut plan = time_setup();
    for _ in 1..SETUP_REPS / 2 {
        plan = time_setup();
    }

    let mut kept = BTreeMap::new();
    let mut tracer = Tracer::new(Instant::now());
    let mut phase = run_phase(
        &plan,
        seconds,
        trace.then_some(&mut tracer),
        &mut kept,
        &mut report,
    );
    for _ in SETUP_REPS / 2..SETUP_REPS {
        time_setup();
    }
    report.set("setup_s", median(&setups));
    let jobs_per_s = class_median_rate(&phase.classes, &phase.latencies_ms);
    report.set("jobs_per_s", jobs_per_s);
    report.set("job_p50_ms", median(&phase.latencies_ms));
    report.set(
        "job_tail_ms",
        percentile(&phase.latencies_ms, plan.tail_pct),
    );
    report.notes.push(format!(
        "job_tail_ms is p{} of {} jobs ({} beyond it)",
        plan.tail_pct,
        phase.latencies_ms.len(),
        crate::stats::beyond(phase.latencies_ms.len(), plan.tail_pct)
    ));
    report.attempted = phase.latencies_ms.len() + phase.traced_ms.len();
    report.calibration_ms = std::mem::take(&mut phase.calibration_ms);

    // Exact metrics over the deterministic set.
    let exact: Vec<&Kept> = (0..plan.exact).filter_map(|i| kept.get(&i)).collect();
    report.set("cost_sum", exact.iter().map(|k| k.cost as f64).sum());
    report.set("mux_sum", exact.iter().map(|k| k.mux as f64).sum());
    report.set(
        "verilog_bytes",
        exact.iter().map(|k| k.verilog_bytes as f64).sum(),
    );

    if trace {
        let moves: usize = exact.iter().map(|k| k.moves).sum();
        layer_metrics(workload, &mut report, &tracer, &phase, moves);
        let path = format!("perfbench/out/trace-{}-{seed}.jsonl", name(workload));
        crate::write_spans(&mut report, &tracer, &path);
    }
    Ok(report)
}

fn name(workload: Workload) -> &'static str {
    match workload {
        Workload::PaperSuite => "paper-suite",
        Workload::LargeRandom => "large-random",
    }
}

/// Layers timed inside each in-process job, by span name.
const LAYERS: [&str; 7] = [
    "cdfg.parse",
    "sched.fds",
    "core.prepare",
    "core.search",
    "core.complete",
    "rtlgen.verilog",
    "server.report",
];

/// Layer shares of job time measured by [`set_layer_times`].
struct Shares {
    fds: f64,
    search: f64,
    covered: f64,
}

fn layer_metrics(
    workload: Workload,
    report: &mut Report,
    tracer: &Tracer,
    phase: &Phase,
    exact_moves: usize,
) {
    let shares = set_layer_times(report, tracer, phase, exact_moves);
    report.set(
        "trace.jobs_per_s_untraced",
        class_median_rate(&phase.classes, &phase.latencies_ms),
    );
    report.set(
        "trace.jobs_per_s_traced",
        class_median_rate(&phase.classes, &phase.traced_ms),
    );
    // Each job ran untraced and then traced: the overhead is the median
    // slowdown of the traced twin.
    let slowdowns: Vec<f64> = phase
        .traced_ms
        .iter()
        .zip(&phase.latencies_ms)
        .map(|(t, u)| t / u - 1.0)
        .collect();
    report.set("trace.overhead_frac", median(&slowdowns));

    let mut checks = vec![(
        "layer self times cover >= 95% of job wall time",
        shares.covered >= 0.95,
    )];
    match workload {
        Workload::PaperSuite => {
            checks.push(("core.search >= 90% of job time", shares.search >= 0.90));
            checks.push(("sched.fds <= 5% of job time", shares.fds <= 0.05));
        }
        Workload::LargeRandom => {
            checks.push(("core.search <= 10% of job time", shares.search <= 0.10));
            checks.push(("sched.fds >= 60% of job time", shares.fds >= 0.60));
        }
    }
    crate::record_isolation(report, &checks);
}

/// Per-layer self times and search counters of a traced phase.
fn set_layer_times(
    report: &mut Report,
    tracer: &Tracer,
    traced: &Phase,
    exact_moves: usize,
) -> Shares {
    debug_assert_eq!(
        traced.traced_ms.len(),
        traced.latencies_ms.len(),
        "every job has a traced twin"
    );
    let self_ns = tracer.self_ns();
    let layer_ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let jobs = traced.latencies_ms.len() as f64;
    let job_ns = tracer.total_ns("job") as f64;
    let per_job_ms = |name: &str| layer_ns(name) / jobs / 1e6;
    report.set("cdfg.parse.ms", per_job_ms("cdfg.parse"));
    report.set(
        "cdfg.parse.ops_per_s",
        ratio(traced.ops as f64, layer_ns("cdfg.parse") / 1e9),
    );
    report.set("sched.fds.ms", per_job_ms("sched.fds"));
    report.set("core.prepare.ms", per_job_ms("core.prepare"));
    report.set("core.search.ms", per_job_ms("core.search"));
    report.set("core.complete.ms", per_job_ms("core.complete"));
    report.set("rtlgen.verilog.ms", per_job_ms("rtlgen.verilog"));
    report.set("server.report.ms", per_job_ms("server.report"));
    let fds_share = ratio(layer_ns("sched.fds"), job_ns);
    let search_share = ratio(layer_ns("core.search"), job_ns);
    let covered = ratio(LAYERS.iter().map(|l| layer_ns(l)).sum(), job_ns);
    report.set("sched.fds.share", fds_share);
    report.set("core.search.share", search_share);
    report.set("layers.self_sum_frac", covered);
    report.set("core.search.moves", exact_moves as f64);
    report.set(
        "core.search.moves_per_s",
        ratio(traced.moves as f64, layer_ns("core.search") / 1e9),
    );
    report.set(
        "core.search.accept_ratio",
        ratio(traced.accepted as f64, traced.moves as f64),
    );
    report.set(
        "core.search.trials_to_best",
        ratio(traced.trials_to_best as f64, jobs),
    );
    report.set("core.search.chains_cutoff", traced.cutoff as f64);
    Shares {
        fds: fds_share,
        search: search_share,
        covered,
    }
}

/// What the service computes for one design, reproduced in-process.
pub struct Reproduced {
    pub cost: u64,
    pub mux: usize,
    pub verilog_bytes: usize,
}

/// Allocates each `(label, text, seed)` design in-process exactly as the
/// service does with its default knobs (ASAP steps, default search, one
/// restart, one thread), checks each against the reference interpreter,
/// and, when `tracer` is given, records the per-layer times of these jobs.
pub fn reproduce_service_jobs(
    designs: &[(String, String, u64)],
    tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> Vec<Option<Reproduced>> {
    let library = FuLibrary::standard();
    let jobs = designs
        .iter()
        .map(|(label, text, seed)| {
            let steps = parse_cdfg(text).map_or(1, |g| asap(&g, &library).length);
            Job {
                label: label.clone(),
                class: 0,
                text: text.clone(),
                steps,
                seed: *seed,
            }
        })
        .collect();
    let plan = Plan {
        jobs,
        exact: designs.len(),
        config: ImproveConfig::default(),
        restarts: 1,
        tail_pct: 50.0,
    };
    let mut kept = BTreeMap::new();
    let mut tracer = tracer;
    let phase = run_phase(
        &plan,
        Duration::ZERO,
        tracer.as_deref_mut(),
        &mut kept,
        report,
    );
    if let Some(tracer) = tracer {
        let moves = kept.values().map(|k| k.moves).sum();
        set_layer_times(report, tracer, &phase, moves);
    }
    (0..plan.jobs.len())
        .map(|i| {
            let entry = kept.get(&i)?;
            Some(Reproduced {
                cost: entry.cost,
                mux: entry.mux,
                verilog_bytes: entry.verilog_bytes,
            })
        })
        .collect()
}
