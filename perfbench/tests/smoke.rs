//! Runs every workload end to end at smoke size, untraced and traced,
//! and checks the result line.

use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "analytics-skew",
    "analytics-road",
    "serve-read",
    "serve-churn",
    "cluster-bsp",
];

fn result_line(workload: &str, trace: &str) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(&dir)
        .output()
        .expect("run perfbench");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn every_workload_runs_and_checks_at_smoke_size() {
    for w in WORKLOADS {
        for (trace, metric) in [("0", "\"setup_s\""), ("1", "\"graph.load_s\"")] {
            let line = result_line(w, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{w}: {line}"
            );
            assert!(line.contains("\"failed\": 0,"), "{w}: {line}");
            assert!(line.contains(metric), "{w}: {line}");
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
