//! Every workload, untraced and traced, at smoke scale through the real binary.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn smoke_pass_of_every_workload_is_correct_and_quick() {
    let start = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--smoke")
        // The binary keeps its scratch files under Cargo's target directory.
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark binary");
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "smoke suite failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // One row per (workload, metric): 5 workloads x (10 end-to-end + 49 per-layer).
    assert_eq!(stdout.lines().filter(|l| l.contains("setup_s")).count(), 5);
    assert_eq!(
        stdout.lines().filter(|l| l.contains("host.cores")).count(),
        5
    );
    // Five seconds for the optimized binary; an unoptimized one also validates every
    // plan after every optimizer pass.
    let limit = Duration::from_secs(if cfg!(debug_assertions) { 30 } else { 5 });
    assert!(elapsed < limit, "smoke suite took {elapsed:?}");
}

#[test]
fn a_single_workload_run_ends_with_the_result_object() {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            "fig12_cursor",
            "--seed",
            "9",
            "--seconds",
            "0.1",
            "--trace",
            "0",
            "--smoke",
        ])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark binary");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(
        last.contains("\"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "),
        "{last}"
    );
    assert!(last.ends_with("\"unit\": \"MB\"}}}"), "{last}");
}

#[test]
fn unknown_arguments_are_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run the benchmark binary");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
