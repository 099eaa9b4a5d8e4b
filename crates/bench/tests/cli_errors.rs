//! Degenerate command lines must be refused with a message and a
//! non-zero exit code, never with a panic (exit code 101).

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

/// Asserts a clean refusal: the expected exit code, a message on stderr
/// containing `needle`, and no panic.
fn assert_refused(out: &Output, code: i32, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
}

#[test]
fn order_sweep_rejects_a_zero_subcommunicator_size() {
    let out = run(
        env!("CARGO_BIN_EXE_order_sweep"),
        &["4,2,2,8", "0", "alltoall", "1024"],
    );
    assert_refused(&out, 1, "subcommunicator size 0 must divide 128");
}

#[test]
fn congestion_report_rejects_zero_nodes() {
    let out = run(env!("CARGO_BIN_EXE_congestion_report"), &["--nodes", "0"]);
    assert_refused(&out, 2, "bad --nodes");
    let out = run(
        env!("CARGO_BIN_EXE_congestion_report"),
        &["--machine", "lumi", "--nodes", "0"],
    );
    assert_refused(&out, 2, "bad --nodes");
}

#[test]
fn order_sweep_rejects_unparsable_positional_numbers() {
    let out = run(
        env!("CARGO_BIN_EXE_order_sweep"),
        &["16,2,2,8", "16", "alltoall", "abc"],
    );
    assert_refused(&out, 1, "bad SIZE_BYTES \"abc\"");
    let out = run(
        env!("CARGO_BIN_EXE_order_sweep"),
        &["16,2,2,8", "x16", "alltoall", "1024"],
    );
    assert_refused(&out, 1, "bad SUBCOMM \"x16\"");
}

#[test]
fn trace_report_rejects_zero_nodes() {
    let out = run(
        env!("CARGO_BIN_EXE_trace_report"),
        &["--machine", "hydra", "--nodes", "0"],
    );
    assert_refused(&out, 2, "bad --nodes");
    let out = run(
        env!("CARGO_BIN_EXE_trace_report"),
        &["--machine", "lumi", "--nodes", "0"],
    );
    assert_refused(&out, 2, "bad --nodes");
}

#[test]
fn trace_diff_rejects_zero_nodes() {
    let out = run(env!("CARGO_BIN_EXE_trace_diff"), &["--nodes", "0"]);
    assert_refused(&out, 2, "bad --nodes");
}
