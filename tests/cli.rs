//! Integration tests of the `salsa-hls` command-line tool.

use std::io::Write as _;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_salsa-hls");

const IIR: &str = "\
cdfg iir1
input x
state yprev
const k = 13
op scaled = mul yprev k
op y = add x scaled
feedback yprev <- y
output y
";

/// Writes `contents` to a fresh temp file. Every call gets its own name:
/// the tests run in parallel, and a shared path let one test's design
/// overwrite another's before it was read.
fn write_temp(contents: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("salsa_cli_{}_{n}.cdfg", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn help_prints_usage() {
    let out = Command::new(BIN).arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("salsa-hls allocate"));
    assert!(text.contains("feedback yprev <- y"), "help shows the format example");
}

#[test]
fn info_reports_stats_and_critical_path() {
    let path = write_temp(IIR);
    let out = Command::new(BIN).args(["info", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cdfg iir1"));
    assert!(text.contains("critical path: 3 control steps"));
}

#[test]
fn stdin_input_works() {
    let mut child = Command::new(BIN)
        .args(["info", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(IIR.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("iir1"));
}

#[test]
fn allocate_produces_report_and_verilog() {
    let path = write_temp(IIR);
    let vpath = std::env::temp_dir().join(format!("salsa_cli_{}.v", std::process::id()));
    let out = Command::new(BIN)
        .args([
            "allocate",
            path.to_str().unwrap(),
            "--steps",
            "4",
            "--seed",
            "7",
            "--verilog",
            vpath.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("equivalent 2-1 muxes"));
    assert!(text.contains("bus style"));
    assert!(text.contains("step 0:"));
    let verilog = std::fs::read_to_string(&vpath).unwrap();
    assert!(verilog.contains("module dp_iir1"));
    salsa_hls::rtlgen::lint(&verilog).unwrap();
}

#[test]
fn bench_list_and_run() {
    let out = Command::new(BIN).args(["bench", "--list"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("ewf"));
    assert!(text.contains("dct"));

    let out = Command::new(BIN)
        .args(["bench", "diffeq", "--steps", "9", "--traditional"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8(out.stdout).unwrap().contains("cost breakdown"));

    let out = Command::new(BIN).args(["bench", "no_such_design"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("unknown benchmark 'no_such_design' (try 'salsa-hls bench --list')"),
        "{err}"
    );
}

/// `bench --canonical` and the service's `run_allocation` derive the job
/// through the same plan from the same graph, the benchmark re-parsed
/// from its canonical text, so for the same knobs they print the same
/// canonical report, byte for byte.
#[test]
fn bench_canonical_matches_the_service_report() {
    use salsa_hls::serve::{canonicalize_report, run_allocation, Knobs};

    // fft_stage's constructed graph numbers its values differently from
    // its canonical text, which changes the search trajectory.
    let fft =
        Knobs { steps: Some(6), seed: 7919, restarts: 4, threads: Some(1), ..Knobs::default() };
    let fft_flags = ["--steps", "6", "--seed", "7919", "--restarts", "4", "--threads", "1"];
    let cases: [(&str, &[&str], Knobs); 5] = [
        ("ewf", &[], Knobs::default()),
        ("diffeq", &["--traditional"], Knobs { traditional: true, ..Knobs::default() }),
        ("diffeq", &["--pipelined"], Knobs { pipelined: true, ..Knobs::default() }),
        ("fir8a", &["--no-mem-moves"], Knobs { mem_moves: false, ..Knobs::default() }),
        ("fft_stage", &fft_flags, fft),
    ];
    for (name, flags, knobs) in cases {
        let out = Command::new(BIN)
            .args(["bench", name, "--canonical"])
            .args(flags)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        // The service allocates the benchmark re-parsed from its
        // canonical text, not the constructed graph.
        let built = salsa_hls::cdfg::benchmarks::all()
            .into_iter()
            .find(|g| g.name() == name)
            .unwrap();
        let graph = salsa_hls::cdfg::parse_cdfg(&built.canonical_text()).unwrap();
        let mut report = run_allocation(&graph, &knobs, None).unwrap();
        canonicalize_report(&mut report);
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            format!("{}\n", report.to_string_compact()),
            "bench {name} {flags:?}"
        );
    }
}

#[test]
fn parse_errors_are_reported_with_lines() {
    let path = write_temp("cdfg t\ninput x\nop y = add x nosuch\noutput y\n");
    let out = Command::new(BIN).args(["info", path.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8(out.stderr).unwrap();
    assert!(text.contains("line 3"), "{text}");
    assert!(text.contains("nosuch"));
}

#[test]
fn unknown_command_fails() {
    // The verbs of the removed cluster backend are unknown commands too.
    for verb in ["frobnicate", "cluster-alloc", "cluster-worker"] {
        let out = Command::new(BIN).args([verb, "--bench", "dct"]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{verb} must exit 1");
        let text = String::from_utf8(out.stderr).unwrap();
        assert!(text.contains("unknown command"), "{verb}: {text}");
    }
}

#[test]
fn removed_flags_fail_and_say_so() {
    // `--batch K`, `--protocol P`, `--backend B` and `--cutoff F` must not
    // leave their value to be read as the design path, and no removed flag
    // may be skipped silently.
    for (flag, args) in [
        ("--batch", &["submit", "--batch", "8", "f.cdfg"][..]),
        ("--batch", &["bench", "dct", "--batch", "8"][..]),
        ("--batch", &["submit", "--bench", "dct", "--batch", "2"][..]),
        ("--no-plan", &["bench", "dct", "--no-plan"][..]),
        ("--no-plan", &["submit", "--bench", "ewf", "--no-plan"][..]),
        ("--protocol", &["submit", "--protocol", "json", "f.cdfg"][..]),
        ("--protocol", &["reallocate", "--base", "00", "--protocol", "auto", "f.cdfg"][..]),
        ("--protocol", &["submit", "--bench", "ewf", "--protocol", "binary"][..]),
        ("--backend", &["serve", "--backend", "cluster"][..]),
        ("--cluster-listen", &["serve", "--cluster-listen", "127.0.0.1:0"][..]),
        ("--cutoff", &["submit", "--cutoff", "2.0", "f.cdfg"][..]),
        ("--cutoff", &["bench", "ewf", "--threads", "2", "--cutoff", "1.25"][..]),
    ] {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let text = String::from_utf8(out.stderr).unwrap();
        assert!(text.contains(&format!("{flag} was removed")), "{args:?}: {text}");
    }
}

#[test]
fn infeasible_schedule_is_a_clean_error() {
    let path = write_temp(IIR);
    let out = Command::new(BIN)
        .args(["schedule", path.to_str().unwrap(), "--steps", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("critical path"));
}

#[test]
fn out_of_range_knobs_are_a_clean_error() {
    // The wire's knob bounds apply to the flags too: an out-of-range
    // knob is a structured error, never an allocator panic (zero
    // restarts) or minutes of FDS and pool construction that no
    // deadline can stop (huge step or register counts).
    for (flag, value, needle) in [
        ("--restarts", "0", "'restarts' must be in 1..=4096"),
        ("--steps", "100000000", "'steps' must be in 1..=256"),
        ("--extra-regs", "100000000", "'extra_regs' must be at most 256"),
        ("--threads", "65", "'threads' must be at most 64"),
    ] {
        let out = Command::new(BIN).args(["bench", "ewf", flag, value]).output().unwrap();
        let text = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {text}");
        assert!(text.contains(&format!("[bad-request] {needle}")), "{flag} {value}: {text}");
        assert!(!text.contains("panicked"), "{flag} {value}: {text}");
    }
}

#[test]
fn allocate_json_emits_the_protocol_report() {
    let path = write_temp(IIR);
    let out = Command::new(BIN)
        .args(["allocate", path.to_str().unwrap(), "--steps", "4", "--seed", "7", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let json = salsa_hls::serve::parse_json(text.trim()).expect("--json output parses as JSON");
    assert_eq!(json.get("design").and_then(|d| d.as_str()), Some("iir1"));
    assert_eq!(json.get("seed").and_then(|s| s.as_u64()), Some(7));
    assert_eq!(json.get("verified").and_then(|v| v.as_bool()), Some(true));
    assert!(json.get("breakdown").is_some());
    assert!(json.get("search").is_some());
}

#[test]
fn serve_and_submit_roundtrip() {
    // Start a server on an OS-assigned port, wait for the banner, then
    // drive it with `submit`: a benchmark job, a malformed job (structured
    // error + nonzero exit), stats, and the graceful shutdown.
    use std::io::{BufRead as _, BufReader};
    let mut server = Command::new(BIN)
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    BufReader::new(server.stdout.as_mut().unwrap()).read_line(&mut banner).unwrap();
    let addr = banner.trim().strip_prefix("listening on ").expect("banner").to_string();

    let ok = Command::new(BIN)
        .args(["submit", "--addr", &addr, "--bench", "paper_example", "--seed", "3"])
        .output()
        .unwrap();
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    let response = String::from_utf8(ok.stdout).unwrap();
    assert!(response.contains("\"status\":\"ok\""), "{response}");
    assert!(response.contains("\"design\":\"paper_example\""), "{response}");

    let bad = write_temp("cdfg t\ninput x\nop y = add x nosuch\noutput y\n");
    let err = Command::new(BIN)
        .args(["submit", "--addr", &addr, bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!err.status.success(), "malformed job must exit nonzero");
    let response = String::from_utf8(err.stdout).unwrap();
    assert!(response.contains("\"kind\":\"parse\""), "{response}");
    assert!(response.contains("\"line\":3"), "{response}");

    let stats = Command::new(BIN).args(["submit", "--addr", &addr, "--stats"]).output().unwrap();
    assert!(stats.status.success());
    assert!(String::from_utf8(stats.stdout).unwrap().contains("\"completed\":1"));

    let bye = Command::new(BIN).args(["submit", "--addr", &addr, "--shutdown"]).output().unwrap();
    assert!(bye.status.success());
    let status = server.wait().unwrap();
    assert!(status.success(), "server exits cleanly after the drain");
}

#[test]
fn controller_and_testbench_flags_work() {
    let path = write_temp(IIR);
    let tb_path = std::env::temp_dir().join(format!("salsa_cli_{}_tb.v", std::process::id()));
    let out = Command::new(BIN)
        .args([
            "allocate",
            path.to_str().unwrap(),
            "--steps",
            "4",
            "--controller",
            "--testbench",
            tb_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("register loads"), "controller table printed");
    let tb = std::fs::read_to_string(&tb_path).unwrap();
    assert!(tb.contains("module dp_iir1_tb"));
    assert!(tb.contains("check(out_"));
    salsa_hls::rtlgen::lint(&tb).unwrap();
}
