//! Command-line handling of the `khsim` binary: each subcommand takes
//! only the flags its usage line lists, and anything else exits 2 with
//! the usage text before a simulation runs.

use std::process::Command;

/// Run `khsim` with `args`; its exit code, stdout and stderr.
fn khsim(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_khsim"))
        .args(args)
        .output()
        .expect("khsim runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `args` must be refused with exit code 2, an error naming `why`, and
/// the usage text.
fn refused(args: &[&str], why: &str) {
    let (code, _, stderr) = khsim(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
}

#[test]
fn a_misspelt_flag_is_refused() {
    refused(
        &["cluster", "--quick", "--node", "16"],
        "khsim cluster does not take \"--node\"",
    );
    refused(&["cluster", "quick"], "does not take \"quick\"");
    refused(&["cluster", "--seed"], "--seed needs a value");
    refused(&["clusters"], "unknown subcommand \"clusters\"");
}

#[test]
fn flags_from_another_usage_line_are_refused() {
    refused(
        &["run", "--threads", "4"],
        "khsim run does not take \"--threads\"",
    );
    refused(
        &["parallel", "--jobs", "2"],
        "khsim parallel does not take \"--jobs\"",
    );
    refused(
        &["figures", "--quick"],
        "khsim figures does not take \"--quick\"",
    );
    refused(
        &["trace", "--nodes", "4"],
        "khsim trace does not take \"--nodes\"",
    );
    refused(&["list", "--quick"], "khsim list does not take \"--quick\"");
}

#[test]
fn a_cluster_below_two_nodes_is_refused() {
    refused(&["cluster", "--nodes", "1"], "below the 2-node minimum");
    refused(
        &["cluster", "--nodes", "0", "--ablation"],
        "below the 2-node minimum",
    );
}

#[test]
fn list_names_every_stack() {
    let (code, stdout, _) = khsim(&["list"]);
    assert_eq!(code, Some(0));
    assert!(
        stdout.contains("stacks    : native, kitten, linux, theseus"),
        "{stdout}"
    );
}

#[test]
fn svcload_writes_the_csv_of_its_depth0_scenario() {
    let dir = std::env::temp_dir();
    let path = |name: &str| {
        dir.join(format!("khsim-cli-{}-{name}.csv", std::process::id()))
            .to_string_lossy()
            .into_owned()
    };
    let (plain, spelled) = (path("plain"), path("spelled"));
    let (code, _, stderr) = khsim(&["cluster", "--quick", "--out", &plain]);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, _, stderr) = khsim(&[
        "cluster",
        "--quick",
        "--scenario",
        "arrive=exp:500us",
        "--out",
        &spelled,
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let a = std::fs::read_to_string(&plain).unwrap();
    let b = std::fs::read_to_string(&spelled).unwrap();
    let _ = (std::fs::remove_file(&plain), std::fs::remove_file(&spelled));
    assert!(a.lines().count() > 1, "no requests traced");
    assert_eq!(a, b);
}

#[test]
fn a_fault_clause_naming_a_missing_target_is_refused() {
    refused(
        &["cluster", "--nodes", "2", "--faults", "crashsvc@1ms:7"],
        "crashsvc targets node 7, but the servers are nodes 1..=1",
    );
    refused(
        &["cluster", "--faults", "crashsvc@1ms:0"],
        "crashsvc targets node 0, but the servers are nodes 2..=3",
    );
    refused(
        &["cluster", "--nodes", "4", "--faults", "partition@1ms:1ms:9"],
        "node 9 does not exist (nodes are 0..=3)",
    );
    refused(
        &["cluster", "--attest", "--faults", "tamper@9"],
        "node 9 does not exist (nodes are 0..=3)",
    );
    refused(
        &["cluster", "--faults", "tamper@2"],
        "tamper@NODE needs --attest",
    );
}

#[test]
fn parallel_threads_beyond_the_cores_are_refused() {
    refused(
        &["parallel", "--threads", "0"],
        "--threads 0 is outside 1..=4",
    );
    refused(
        &["parallel", "--threads", "9"],
        "--threads 9 is outside 1..=4",
    );
}

#[test]
fn cluster_sweeps_refuse_the_flags_of_a_single_run() {
    refused(
        &["cluster", "--quick", "--ablation", "--faults", "garbage:1"],
        "--ablation runs its own grid and does not take --faults",
    );
    refused(
        &["cluster", "--quick", "--ablation", "--scenario", "garbage"],
        "--ablation runs its own grid and does not take --scenario",
    );
    let out = std::env::temp_dir().join(format!("khsim-cli-{}-sweep.csv", std::process::id()));
    let out = out.to_string_lossy().into_owned();
    refused(
        &[
            "cluster",
            "--quick",
            "--reliability",
            "--retries",
            "--out",
            &out,
        ],
        "--reliability runs its own grid and does not take --retries",
    );
    assert!(!std::path::Path::new(&out).exists(), "{out} was written");
    refused(
        &["cluster", "--metastability", "--stack", "linux"],
        "--metastability runs its own grid and does not take --stack",
    );
    refused(
        &["cluster", "--quick", "--ablation", "--reliability"],
        "--ablation and --reliability are separate sweeps",
    );
}
