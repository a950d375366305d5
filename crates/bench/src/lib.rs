//! Benchmark and reproduction harness for the quicksand workspace.
//!
//! See `benches/` for the Criterion groups (one per paper artifact) and
//! `src/bin/repro.rs` for the full-scale experiment runner whose output
//! is recorded in EXPERIMENTS.md.

#![forbid(unsafe_code)]

pub mod exitcode {
    //! The `repro` binary's typed exit codes.
    //!
    //! These are a CLI contract: CI jobs and scripts branch on them
    //! (see the exit-code table in README.md), so every value here is
    //! pinned by a test and must never be renumbered — add new codes,
    //! don't repurpose old ones.

    /// Success.
    pub const OK: i32 = 0;
    /// `repro report` validation failure or `--check` found
    /// deterministic deltas between two reports.
    pub const CHECK_FAILED: i32 = 1;
    /// Unusable command line (unknown flag/subcommand, missing value).
    pub const USAGE: i32 = 2;
    /// A `--halt-after` crash simulation stopped the run on purpose
    /// (the kill half of the kill-and-resume CI job).
    pub const CRASH_SIM: i32 = 3;
    /// `repro serve` finished, but at least one supervised scenario
    /// cell was quarantined after exhausting its restart budget.
    pub const QUARANTINE: i32 = 4;
    /// `repro feed` could not establish (or lost) its feed session:
    /// connect failure, reconnect budget exhausted, or a protocol
    /// violation from the server.
    pub const FEED_CONNECT: i32 = 5;

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn exit_codes_are_pinned_and_distinct() {
            // The README table and CI scripts depend on these exact
            // numbers; this test is the tripwire for accidental
            // renumbering.
            assert_eq!(OK, 0);
            assert_eq!(CHECK_FAILED, 1);
            assert_eq!(USAGE, 2);
            assert_eq!(CRASH_SIM, 3);
            assert_eq!(QUARANTINE, 4);
            assert_eq!(FEED_CONNECT, 5);
            let all = [OK, CHECK_FAILED, USAGE, CRASH_SIM, QUARANTINE, FEED_CONNECT];
            for (i, a) in all.iter().enumerate() {
                for b in &all[i + 1..] {
                    assert_ne!(a, b);
                }
            }
        }
    }
}
