//! The repository benchmark: runs one named workload against the public
//! APIs of the allocator crates, checks every output against an
//! independent reference, and prints each metric by name with its unit.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-suite|large-random|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` reports the per-layer metrics and the tracing overhead: each
//! in-process job runs untraced and then traced, and on serve-mix every
//! other deck of requests is traced. The spans are written to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`.
//!
//! Workload notes (why each was chosen, loop type, tail percentile,
//! held-out seed) live in `perfbench/README.md`.

mod inproc;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use salsa_wire::Json;

/// End-to-end metrics: name, unit, whether higher is better.
const END_TO_END: &[(&str, &str, bool)] = &[
    ("setup_s", "s", false),
    ("jobs_per_s", "1/s", true),
    ("job_p50_ms", "ms", false),
    ("job_tail_ms", "ms", false),
    ("cost_sum", "cost", false),
    ("mux_sum", "mux2", false),
    ("verilog_bytes", "bytes", false),
    ("peak_rss_mb", "MiB", false),
];

/// Per-layer metrics of the traced run: name, unit, whether higher is
/// better. A layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str, bool)] = &[
    ("cdfg.parse.ms", "ms", false),
    ("cdfg.parse.ops_per_s", "1/s", true),
    ("sched.fds.ms", "ms", false),
    ("sched.fds.share", "ratio", false),
    ("core.prepare.ms", "ms", false),
    ("core.search.ms", "ms", false),
    ("core.search.share", "ratio", false),
    ("core.search.moves", "count", false),
    ("core.search.moves_per_s", "1/s", true),
    ("core.search.accept_ratio", "ratio", true),
    ("core.search.trials_to_best", "trials", false),
    ("core.search.chains_cutoff", "count", true),
    ("core.complete.ms", "ms", false),
    ("rtlgen.verilog.ms", "ms", false),
    ("server.report.ms", "ms", false),
    ("layers.self_sum_frac", "ratio", true),
    ("wire.hit_rtt_ms", "ms", false),
    ("wire.bytes_per_msg", "bytes", false),
    ("server.miss_overhead_ms", "ms", false),
    ("server.search_ms", "ms", false),
    ("server.cache.hit_ratio", "ratio", true),
    ("server.admission.hit_ratio", "ratio", true),
    ("server.rejected", "count", false),
    ("server.warm.seeded", "count", true),
    ("server.verifier.p50_ms", "ms", false),
    ("server.verifier.cache_hit_ratio", "ratio", true),
    ("serve.hit_frac", "ratio", true),
    ("trace.jobs_per_s_untraced", "1/s", true),
    ("trace.jobs_per_s_traced", "1/s", true),
    ("trace.overhead_frac", "ratio", false),
    ("isolation.violations", "count", false),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    /// Failure descriptions; their count is the `failed` field.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Calibration kernel times taken during the run, in ms.
    pub calibration_ms: Vec<f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

/// Records the traced run's workload-isolation checks. A failed check is
/// a violation of the workload's premise, reported by name and counted
/// in `isolation.violations`; it is not an output failure.
pub fn record_isolation(report: &mut Report, checks: &[(&str, bool)]) {
    for (what, ok) in checks {
        report.notes.push(format!(
            "isolation {}: {what}",
            if *ok { "ok" } else { "VIOLATED" }
        ));
    }
    let violations = checks.iter().filter(|(_, ok)| !ok).count();
    report.set("isolation.violations", violations as f64);
}

/// Writes the traced run's spans and notes where they went.
pub fn write_spans(report: &mut Report, tracer: &trace::Tracer, path: &str) {
    match tracer.write(std::path::Path::new(path)) {
        Ok(()) => report
            .notes
            .push(format!("{} spans written to {path}", tracer.spans().len())),
        Err(e) => report
            .notes
            .push(format!("spans not written to {path}: {e}")),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "paper-suite" => inproc::run(
            inproc::Workload::PaperSuite,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "large-random" => inproc::run(
            inproc::Workload::LargeRandom,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "serve-mix" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("error: unknown workload '{other}' (paper-suite, large-random, serve-mix)");
            return ExitCode::from(2);
        }
    };
    let mut report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    report.set("peak_rss_mb", stats::peak_rss_mb());
    if !args.trace {
        calibrate(&mut report);
    }
    print_report(&args, &report)
}

/// Timings a user sees, scaled to the reference host's speed.
const CALIBRATED: [(&str, bool); 4] = [
    ("setup_s", false),
    ("jobs_per_s", true),
    ("job_p50_ms", false),
    ("job_tail_ms", false),
];

/// Scales the end-to-end timings to the reference host's speed. The host
/// this runs on is shared, and its speed drifts by tens of percent over
/// minutes; the calibration kernel, timed between in-process jobs, tracks
/// that drift. Times are divided and rates multiplied by the host factor
/// (the kernel's median time over its reference time); the raw values are
/// printed beside them. Runs without calibration samples (serve-mix,
/// whose latencies are dominated by the service's poll tick and network
/// waits rather than CPU speed) are left raw.
fn calibrate(report: &mut Report) {
    if report.calibration_ms.is_empty() {
        return;
    }
    let factor = stats::median(&report.calibration_ms) / stats::CALIBRATION_REF_MS;
    let mut raw = Vec::with_capacity(CALIBRATED.len());
    for (name, is_rate) in CALIBRATED {
        if let Some(value) = report.metrics.get_mut(name) {
            raw.push(format!("{name} {value}"));
            *value = if is_rate {
                *value * factor
            } else {
                *value / factor
            };
        }
    }
    report.notes.push(format!(
        "host factor {factor:.4} ({} calibration samples, reference {} ms); raw: {}",
        report.calibration_ms.len(),
        stats::CALIBRATION_REF_MS,
        raw.join(", ")
    ));
}

fn print_report(args: &Args, report: &Report) -> ExitCode {
    let failed = report.failures.len();
    let correct = failed == 0;
    for failure in &report.failures {
        eprintln!("FAILED: {failure}");
    }
    println!(
        "workload {} seed {} host_cores {} trace {}",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    println!(
        "  fail_frac {:.6} ratio (lower is better; {failed} of {} jobs)",
        stats::ratio(failed as f64, report.attempted as f64),
        report.attempted
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit, higher) in table {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        let direction = if higher { "higher" } else { "lower" };
        println!("  {name} {value} {unit} ({direction} is better)");
        metrics.push((
            name,
            Json::obj(vec![
                ("value", Json::Float(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        ));
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.attempted.max(1) as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
