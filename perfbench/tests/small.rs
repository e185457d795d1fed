//! The benchmark's own test: every workload, traced and untraced, on the
//! small inputs of `--small`, must pass all of its checks and print
//! exactly the metrics `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: &[&str] = &["train-minibatch", "train-fullbatch", "config-sweep"];

/// Metric names in one `BENCHMARK.json` section (`end_to_end` or
/// `per_layer`), in file order.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let start = text.find(&format!("\"{section}\"")).unwrap_or(text.len());
    let body = &text[start..];
    let end = body.find(']').unwrap_or(body.len());
    body[..end]
        .split("\"name\":")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_string))
        .collect()
}

/// Metric names of a result line, in print order.
fn printed(line: &str) -> Vec<String> {
    let parts: Vec<&str> = line.split("\": {\"value\"").collect();
    // Every part but the last ends with `"<name>`.
    parts[..parts.len() - 1]
        .iter()
        .filter_map(|s| s.rsplit('"').next().map(str::to_string))
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.success(), stdout)
}

#[test]
fn every_workload_passes_its_checks_on_small_inputs() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 8);
    assert!(per_layer.len() > 30);
    for w in WORKLOADS {
        for (trace, names) in [("0", &end_to_end), ("1", &per_layer)] {
            let (ok, stdout) = run(&[
                "--workload",
                w,
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--small",
            ]);
            let last = stdout.lines().last().unwrap_or_default();
            assert!(ok, "{w} trace {trace} failed:\n{stdout}");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            assert!(last.contains("\"failed\": 0,"), "{last}");
            assert_eq!(&printed(last), names, "{w} trace {trace} metric set");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "config-sweep",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &[
            "--workload",
            "config-sweep",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "config-sweep",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}
