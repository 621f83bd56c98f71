//! End-to-end tests of the `pic` command-line driver.

use std::process::Command;

/// Every `--balancer` value.
const BALANCERS: [&str; 6] = [
    "static",
    "diffusion",
    "adaptive",
    "vp-none",
    "vp-refine",
    "vp-greedy",
];

fn pic() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pic"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    run_env(args, &[])
}

fn run_env(args: &[&str], env: &[(&str, &str)]) -> (bool, String, String) {
    let mut cmd = pic();
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.args(args).output().expect("spawn pic");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The invocation must be rejected before anything runs: exit code 2, an
/// `error:` line naming `needle`, and no panic or backtrace.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = pic().args(args).output().expect("spawn pic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(needle),
        "{args:?}: expected an error naming {needle:?}, got: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = run(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("--dist"));
    assert!(stdout.contains("diffusion"));
}

#[test]
fn default_serial_run_passes() {
    let (ok, stdout, _) = run(&["--steps", "50", "--quiet"]);
    assert!(ok);
    assert_eq!(stdout.trim(), "PASS");
}

#[test]
fn all_implementations_pass() {
    // The serial engine, then every `--balancer` name on 3 ranks.
    let workload = [
        "--grid",
        "32",
        "--particles",
        "500",
        "--steps",
        "40",
        "--m",
        "1",
        "--quiet",
    ];
    let (ok, stdout, stderr) = run(&workload);
    assert!(ok, "serial: stdout={stdout} stderr={stderr}");
    assert_eq!(stdout.trim(), "PASS", "serial");
    for name in BALANCERS {
        let mut args = vec!["--balancer", name, "--ranks", "3"];
        args.extend_from_slice(&workload);
        let (ok, stdout, stderr) = run(&args);
        assert!(ok, "balancer {name}: stdout={stdout} stderr={stderr}");
        assert_eq!(stdout.trim(), "PASS", "balancer {name}");
    }
}

#[test]
fn distribution_specs_parse() {
    for dist in [
        "uniform",
        "geometric:0.9",
        "sinusoidal",
        "linear:1.0,2.0",
        "patch:4,12,4,12",
    ] {
        let (ok, stdout, stderr) = run(&[
            "--dist",
            dist,
            "--grid",
            "16",
            "--particles",
            "200",
            "--steps",
            "10",
            "--quiet",
        ]);
        assert!(ok, "dist {dist}: {stderr}");
        assert_eq!(stdout.trim(), "PASS", "dist {dist}");
    }
}

#[test]
fn events_via_cli() {
    let (ok, stdout, _) = run(&[
        "--balancer",
        "static",
        "--ranks",
        "2",
        "--steps",
        "30",
        "--inject",
        "5,0,16,0,16,300",
        "--remove",
        "15,0,64,0,64,100",
    ]);
    assert!(ok);
    assert!(stdout.contains("final particles       : 10200"), "{stdout}");
    assert!(stdout.contains("PASS"));
}

#[test]
fn rotated_workload_via_cli() {
    let (ok, stdout, _) = run(&[
        "--skew-axis",
        "y",
        "--m",
        "2",
        "--dist",
        "geometric:0.8",
        "--steps",
        "25",
        "--quiet",
    ]);
    assert!(ok);
    assert_eq!(stdout.trim(), "PASS");
}

#[test]
fn two_phase_diffusion_via_cli() {
    let (ok, stdout, _) = run(&[
        "--balancer",
        "diffusion",
        "--mode",
        "2phase",
        "--ranks",
        "4",
        "--steps",
        "30",
        "--lb-interval",
        "2",
        "--border",
        "2",
        "--m",
        "1",
        "--quiet",
    ]);
    assert!(ok);
    assert_eq!(stdout.trim(), "PASS");
}

#[test]
fn bad_arguments_fail_cleanly() {
    let (ok, _, stderr) = run(&["--dist", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown distribution"));
    let (ok, _, stderr) = run(&["--grid", "15"]);
    assert!(!ok);
    assert!(stderr.contains("odd"));
    assert_rejected(
        &["--grid", "2147483650"],
        "grid size 2147483650 is too large",
    );
    // What the driver does not understand it refuses, naming the flag and
    // the value, before any rank thread is spawned.
    assert_rejected(&["--bogus", "3", "--quiet"], "--bogus");
    assert_rejected(&["--steps"], "--steps needs a value");
    assert_rejected(&["--steps", "--quiet"], "--steps needs a value");
    assert_rejected(&["--balancer", "quantum"], "bad balancer: quantum");
    assert_rejected(&["--balancer", "static", "--ranks", "0"], "--ranks");
    assert_rejected(
        &["--balancer", "diffusion", "--lb-interval", "0"],
        "--lb-interval",
    );
    assert_rejected(
        &["--balancer", "vp-refine", "--lb-interval", "0"],
        "--lb-interval",
    );
    assert_rejected(&["--balancer", "diffusion", "--border", "0"], "--border");
    assert_rejected(&["--balancer", "vp-refine", "--d", "0"], "--d");
    for opt in ["--threads", "--trace-every"] {
        let args = ["--trace", "/dev/null", opt, "0"];
        assert_rejected(&args, &format!("{opt} must be at least 1 (got 0)"));
    }
    // An interval past the last step samples nothing: the stream would
    // hold no step record, which `trace_check` refuses.
    assert_rejected(
        &[
            "--steps",
            "5",
            "--trace",
            "/dev/null",
            "--trace-every",
            "50",
        ],
        "--trace-every 50 samples no step of a 5-step run",
    );
    // Nor is there a step to sample in a run of none.
    assert_rejected(
        &["--steps", "0", "--trace", "/dev/null"],
        "--trace needs at least one step",
    );
    // A trace that could not be written is not a success: the verdict is
    // still printed, then the file and the OS error, and the exit is 1.
    #[cfg(unix)]
    for strategy in [&[][..], &["--balancer", "static", "--ranks", "2"][..]] {
        let args = ["--trace", "/dev/full", "--grid", "16", "--particles", "100"];
        let args = [&args[..], &["--steps", "5", "--quiet"], strategy].concat();
        let out = pic().args(&args).output().expect("spawn pic");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "PASS");
        assert!(
            stderr.starts_with("error: trace file /dev/full: "),
            "{args:?}: {stderr}"
        );
    }
    // An event at or past the last step (0-based) can never fire, and one
    // of zero particles fires nothing (it used to run to PASS).
    for strategy in [&[][..], &["--balancer", "static"][..]] {
        for (opt, step) in [("--inject", 10), ("--remove", 12)] {
            let spec = format!("{step},0,8,0,8,50");
            let args = [&["--steps", "10", opt, &spec], strategy].concat();
            let needle = format!("{opt} step {step} is not reached in a run of 10 steps");
            assert_rejected(&args, &needle);
            let args = [&[opt, "5,0,4,0,4,0"], strategy].concat();
            let needle = format!("{opt} 5,0,4,0,4,0: count must be at least 1 (got 0)");
            assert_rejected(&args, &needle);
        }
    }
    assert_rejected(
        &["--balancer", "static", "--ranks", "100", "--grid", "8"],
        "--ranks 100 needs 10 processor columns",
    );
    assert_rejected(
        &[
            "--balancer",
            "vp-refine",
            "--ranks",
            "4",
            "--d",
            "64",
            "--grid",
            "8",
        ],
        "--ranks 4 with --d 64 needs 16 VP columns",
    );
    // Distribution parameters outside their domain: each used to panic
    // with a backtrace or run to PASS on a different population.
    for (spec, value) in [
        ("geometric:nan", "NaN"),
        ("geometric:inf", "inf"),
        ("geometric:-1", "-1"),
        ("geometric:0", "got 0"),
        ("linear:nan,1", "NaN"),
        ("linear:1,inf", "inf"),
        ("linear:0,0", "beta 0"),
        ("linear:5,1", "alpha 5"),
        ("patch:0,100,0,16", "100"),
        ("uniform:3", "uniform takes no parameter"),
        ("sinusoidal:0.5", "sinusoidal takes no parameter"),
    ] {
        assert_rejected(&["--grid", "16", "--dist", spec], value);
    }
    // A negative alpha is a rising ramp, not an error.
    let (ok, stdout, _) = run(&["--dist", "linear:-5,1", "--steps", "20", "--quiet"]);
    assert!(ok && stdout.trim() == "PASS", "{stdout}");
    // One occurrence per value option: a second one would be dropped.
    assert_rejected(
        &["--inject", "5,0,4,0,4,100", "--inject", "9,0,4,0,4,100"],
        "--inject given more than once",
    );
    assert_rejected(
        &["--grid", "32", "--steps", "5", "--grid", "64"],
        "--grid given more than once",
    );
}

#[test]
fn options_the_strategy_does_not_read_are_rejected() {
    // One row per line of the option table: each names the option and
    // the strategy that does not read it.
    for (args, option, strategy) in [
        (
            &["--balancer", "static", "--threads", "4"][..],
            "--threads",
            "--balancer static",
        ),
        (&["--ranks", "3"][..], "--ranks", "the serial engine"),
        (
            &["--balancer", "static", "--lb-interval", "3"][..],
            "--lb-interval",
            "--balancer static",
        ),
        (
            &["--lb-interval", "3"][..],
            "--lb-interval",
            "the serial engine",
        ),
        (
            &["--balancer", "vp-refine", "--tau", "7"][..],
            "--tau",
            "--balancer vp-refine",
        ),
        (
            &["--balancer", "static", "--border", "2"][..],
            "--border",
            "--balancer static",
        ),
        (
            &["--balancer", "vp-refine", "--mode", "y"][..],
            "--mode",
            "--balancer vp-refine",
        ),
        (
            &["--balancer", "diffusion", "--d", "7"][..],
            "--d",
            "--balancer diffusion",
        ),
    ] {
        assert_rejected(args, &format!("{option} is not read by {strategy}"));
    }
    assert_rejected(&["--trace-every", "2"], "--trace-every needs --trace");
}

#[test]
fn events_the_grid_cannot_hold_are_rejected() {
    // Out of range, reversed, and a step that does not fit `u32`: each was
    // a FAIL, a silent no-op or a wrapped step before.
    for (opt, spec) in [
        ("--inject", "1,0,100,0,100,10"),
        ("--inject", "1,8,4,0,16,10"),
        ("--inject", "4294967297,0,16,0,16,10"),
        ("--remove", "1,0,16,0,17,10"),
    ] {
        assert_rejected(
            &[
                "--grid",
                "16",
                "--particles",
                "100",
                "--steps",
                "5",
                opt,
                spec,
            ],
            &format!("{opt} {spec}"),
        );
    }
}

#[test]
fn removed_options_and_modes_are_rejected() {
    // The collapsed variants left no silent no-op behind: the removed
    // options, the five selector aliases and the VP ladder are errors
    // that name the offender.
    assert_rejected(&["--wire", "bytes"], "--wire");
    assert_rejected(&["--overlap", "off"], "--overlap");
    assert_rejected(&["--chunk", "64"], "--chunk");
    assert_rejected(&["--impl", "diffusion"], "unknown option: --impl");
    assert_rejected(
        &["--balancer", "static", "--rebin", "4"],
        "unknown option: --rebin",
    );
    for alias in [
        "baseline",
        "ampi",
        "refine",
        "greedy",
        "none",
        "vp-adaptive",
    ] {
        let out = pic().args(["--balancer", alias]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{alias}: {stderr}");
        assert!(stderr.starts_with("error: "), "{alias}: {stderr}");
        let (_, listed) = stderr.split_once("one of: ").expect("lists the names");
        let listed: Vec<&str> = listed
            .trim_end()
            .trim_end_matches(')')
            .split(", ")
            .collect();
        assert_eq!(listed, BALANCERS, "{alias}: {stderr}");
    }
    // The serial engine has one store, so the sweep-mode selector went
    // with the AoS one, for every strategy.
    for strategy in [&[][..], &["--balancer", "static"][..]] {
        let args = [&["--sweep", "serial"], strategy].concat();
        assert_rejected(&args, "unknown option: --sweep");
    }
    let (_, help, _) = run(&["--help"]);
    for gone in [
        "--wire",
        "--overlap",
        "--chunk",
        "--impl",
        "--rebin",
        "--sweep",
    ] {
        assert!(!help.contains(gone), "{gone} still in --help");
    }
}

#[test]
fn help_defaults_match_library_defaults() {
    use pic_prk::par::diffusion::DiffusionParams;
    let (ok, stdout, _) = run(&["--help"]);
    assert!(ok);
    let d = DiffusionParams::default();
    // The balancer defaults in the help text are generated from the
    // library constants; spot-check they render with the real values.
    assert!(
        stdout.contains(&format!(
            "steps between LB invocations (default {})",
            d.interval
        )),
        "diffusion lb-interval default drifted: {stdout}"
    );
    assert!(
        stdout.contains(&format!("border width in cells (default {})", d.border_w)),
        "border default drifted"
    );
    assert!(stdout.contains("--trace FILE"));
    assert!(stdout.contains("--trace-every N"));
}

#[test]
fn pooled_sweep_passes_via_cli() {
    // PIC_THREADS=4 sizes the worker pool to 4 even on smaller hosts, so
    // the pooled sweep gets multi-thread coverage.
    let (ok, stdout, stderr) = run_env(
        &[
            "--grid",
            "32",
            "--particles",
            "2000",
            "--steps",
            "40",
            "--k",
            "1",
            "--m",
            "1",
            "--threads",
            "4",
        ],
        &[("PIC_THREADS", "4")],
    );
    assert!(ok, "{stdout} {stderr}");
    assert!(stdout.contains("verification          : PASS"), "{stdout}");
    assert!(stdout.contains("serial kernel         : "), "{stdout}");
}

#[test]
fn pic_no_simd_forces_scalar_kernel_on_every_tier() {
    // The PIC_NO_SIMD=1 override must reach the binned sweep: it drops to
    // the scalar kernel, still PASSes, and reports the scalar backend in
    // the kernel descriptor.
    let (ok, stdout, stderr) = run_env(
        &[
            "--grid",
            "32",
            "--particles",
            "1000",
            "--steps",
            "30",
            "--m",
            "1",
        ],
        &[("PIC_NO_SIMD", "1")],
    );
    assert!(ok, "{stdout} {stderr}");
    for want in ["serial kernel         : scalar/exact", "PASS"] {
        assert!(stdout.contains(want), "missing {want}: {stdout}");
    }
    // Without the override the binned sweep reports the detected backend,
    // never scalar on hosts with any vector ISA (informational only — on a
    // scalar-only host this still holds because detect() returns scalar
    // and the assertion flips to exact equality).
    let (ok, stdout, _) = run(&["--grid", "32", "--particles", "500", "--steps", "10"]);
    assert!(ok);
    let detected = pic_prk::core::simd::SimdBackend::detect();
    assert!(
        stdout.contains(&format!(
            "serial kernel         : {}/exact",
            detected.name()
        )),
        "expected detected backend {} in: {stdout}",
        detected.name()
    );
}

#[test]
fn trace_flag_writes_valid_ndjson() {
    let dir = std::env::temp_dir().join(format!("pic-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (imp, extra) in [
        ("serial", &[][..]),
        ("static", &["--balancer", "static", "--ranks", "3"][..]),
        (
            "diffusion",
            &[
                "--balancer",
                "diffusion",
                "--ranks",
                "3",
                "--lb-interval",
                "4",
            ][..],
        ),
        (
            "vp-refine",
            &[
                "--balancer",
                "vp-refine",
                "--ranks",
                "3",
                "--lb-interval",
                "4",
            ][..],
        ),
    ] {
        let path = dir.join(format!("{imp}.ndjson"));
        let path = path.to_str().unwrap();
        let mut args = vec![
            "--grid",
            "32",
            "--particles",
            "400",
            "--steps",
            "20",
            "--m",
            "1",
            "--dist",
            "geometric:0.9",
            "--trace",
            path,
            "--trace-every",
            "2",
            "--quiet",
        ];
        args.extend_from_slice(extra);
        let (ok, stdout, stderr) = run(&args);
        assert!(ok, "impl {imp}: {stdout} {stderr}");
        assert_eq!(stdout.trim(), "PASS", "impl {imp}");
        let text = std::fs::read_to_string(path).unwrap();
        let check = pic_prk::trace::validate_ndjson(&text)
            .unwrap_or_else(|e| panic!("impl {imp}: invalid ndjson: {e}"));
        assert_eq!(check.runs, 1, "impl {imp}");
        assert_eq!(check.steps, 10, "impl {imp}: every=2 over 20 steps");
        let summary = check
            .summary
            .as_ref()
            .unwrap_or_else(|| panic!("impl {imp}: no summary"));
        let imb = summary
            .get("max_imbalance")
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("impl {imp}: max_imbalance missing/non-finite"));
        assert!(imb.is_finite() && imb >= 1.0, "impl {imp}: imbalance {imb}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_trace_path_fails_cleanly() {
    let (ok, _, stderr) = run(&["--trace", "/nonexistent-dir-xyz/t.ndjson", "--steps", "1"]);
    assert!(!ok);
    assert!(stderr.contains("cannot create trace file"), "{stderr}");
}
