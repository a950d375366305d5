//! Small-tier smoke runs of every workload through the benchmark
//! binary: every output check runs, every run passes (repeats of a
//! world included), and every metric `BENCHMARK.json` names is
//! reported — `trace.coverage` included.

use std::process::Command;

/// Run the benchmark binary in smoke mode for three seconds; return its
/// result line and whether some world was measured more than once.
fn smoke(workload: &str, seed: &str, trace: bool) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_qsbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "3"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let ops: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("op ")?.split(' ').next())
        .collect();
    let mut worlds = ops.clone();
    worlds.sort_unstable();
    worlds.dedup();
    let repeated = ops.len() > worlds.len();
    let result = stdout.lines().last().expect("a result line").to_string();
    (result, repeated)
}

/// The value of metric `name` in a result line.
fn value(result: &str, name: &str) -> Option<f64> {
    let rest = &result[result.find(&format!("\"{name}\": {{\"value\": "))? + name.len() + 14..];
    rest[..rest.find(',')?].parse().ok()
}

/// The metric names a section of `BENCHMARK.json` lists.
fn listed(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let body = &spec[spec.find(&format!("\"{section}\"")).expect("the section")..];
    let body = &body[..body.find(']').expect("a closed list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("a quoted name")].to_string())
        .collect()
}

fn check(workload: &str, seed: &str) {
    for trace in [false, true] {
        let (result, repeated) = smoke(workload, seed, trace);
        assert!(
            result.starts_with("{\"correct\": true,") && result.contains("\"failed\": 0,"),
            "{workload} seed {seed} trace {trace}: {result}"
        );
        assert!(repeated, "{workload} seed {seed} trace {trace}: no repeats");
        let section = if trace { "per_layer" } else { "end_to_end" };
        for name in listed(section) {
            assert!(
                value(&result, &name).is_some(),
                "{workload} seed {seed}: {name} not reported"
            );
        }
        if trace {
            let coverage = value(&result, "trace.coverage").expect("trace.coverage");
            assert!(
                coverage > 0.5 && coverage <= 1.0,
                "{workload}: coverage {coverage}"
            );
        }
    }
}

#[test]
fn every_workload_passes_its_checks_at_the_pinned_seed() {
    for workload in ["large-month", "medium-month", "medium-resume"] {
        check(workload, "0xA11");
    }
}

#[test]
fn every_workload_passes_its_checks_at_another_seed() {
    for workload in ["large-month", "medium-month", "medium-resume"] {
        check(workload, "7");
    }
}

#[test]
fn usage_errors_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_qsbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result on a usage error");
}
