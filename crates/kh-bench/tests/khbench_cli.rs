//! Command-line handling of the `khbench` binary: a bad flag exits 2
//! with the usage text before any cell runs.

use std::process::Command;

/// Run `khbench` with `args`; its exit code and stderr.
fn khbench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_khbench"))
        .args(args)
        .output()
        .expect("khbench runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `args` must be refused with exit code 2, an error naming `why`, and
/// the usage text.
fn refused(args: &[&str], why: &str) {
    let (code, stderr) = khbench(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
}

#[test]
fn a_misspelt_flag_is_refused() {
    refused(
        &["cluster", "--quick", "--node", "16"],
        "does not take \"--node\"",
    );
    refused(&["cluster", "quick"], "does not take \"quick\"");
    refused(&["cluster", "--seed"], "--seed needs a value");
    refused(&["cluster", "--seed", "x"], "not a count");
    refused(&["clusters"], "unknown cell");
    refused(&[], "no cell given");
}

#[test]
fn a_cluster_below_two_nodes_is_refused() {
    refused(&["cluster", "--nodes", "1"], "below the 2-node minimum");
    refused(&["attestation", "--nodes", "0"], "below the 2-node minimum");
}

#[test]
fn zero_jobs_or_repeats_is_refused() {
    refused(&["cluster", "--jobs", "0"], "must be at least 1");
    refused(&["perf", "--jobs", "0"], "must be at least 1");
    refused(&["hotpath", "--repeats", "0"], "must be at least 1");
}

#[test]
fn flags_a_cell_does_not_take_are_refused() {
    refused(&["perf", "--nodes", "4"], "perf does not take \"--nodes\"");
    refused(
        &["hotpath", "--nodes", "4"],
        "hotpath does not take \"--nodes\"",
    );
    refused(
        &["hotpath", "--jobs", "2"],
        "hotpath does not take \"--jobs\"",
    );
    refused(
        &["cluster", "--baseline", "x.json"],
        "cluster does not take \"--baseline\"",
    );
}

#[test]
fn usage_lists_every_cell_with_its_defaults() {
    let (_, usage) = khbench(&[]);
    for (cell, out) in [
        ("perf", "BENCH_parallel_walkcache.json"),
        ("cluster", "BENCH_cluster_svcload.json"),
        ("attestation", "BENCH_cluster_attestation.json"),
        ("reliability", "BENCH_cluster_reliability.json"),
        ("adaptive", "BENCH_cluster_adaptive.json"),
        ("scenario", "BENCH_cluster_scenario.json"),
        (
            "scenario-reliability",
            "BENCH_cluster_scenario_reliability.json",
        ),
        ("hotpath", "BENCH_host_hotpath.json"),
    ] {
        assert!(
            usage.contains(&format!("khbench {cell} [--quick]")),
            "{cell}"
        );
        assert!(usage.contains(&format!("--out {out}")), "{cell}");
    }
    assert!(usage.contains("[--seed N] [--repeats N] [--baseline FILE] [--out FILE]"));
}
