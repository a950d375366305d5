//! Kill-and-resume chaos suite (ISSUE acceptance): a `run_month`
//! interrupted mid-horizon through the checkpoint hook and resumed from
//! the on-disk checkpoint produces a **bitwise-identical** `MonthResult`
//! and normalized `RunReport`; a corrupted newest checkpoint is skipped
//! in favour of its predecessor with obs-visible corruption and
//! fallback events, and the run still converges to the same answer.
//!
//! Each simulated process gets its own metrics registry and event
//! buffer (`with_metrics` / `with_subscriber`), mirroring the real
//! crash-then-restart topology where nothing but the checkpoint file
//! survives.

use quicksand_bgp::mrt;
use quicksand_core::scenario::{MonthResult, Scenario, ScenarioConfig};
use quicksand_net::QuicksandError;
use quicksand_obs::{self as obs, Key, MemorySubscriber, Registry, RunReport};
use quicksand_recover::{CheckpointStore, HookAction, DEFAULT_RETAIN};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A fresh scratch directory for one test's checkpoints.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "quicksand-recover-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// MRT-encode an update log: the byte-level identity used to assert
/// "bitwise identical" rather than merely `PartialEq`.
fn log_bytes(log: &quicksand_bgp::UpdateLog) -> Vec<u8> {
    let mut bytes = Vec::new();
    mrt::write_log(log, &mut bytes).expect("writing to a Vec cannot fail");
    bytes
}

fn assert_months_bitwise_identical(a: &MonthResult, b: &MonthResult) {
    assert_eq!(log_bytes(&a.raw), log_bytes(&b.raw), "raw logs differ");
    assert_eq!(
        log_bytes(&a.cleaned),
        log_bytes(&b.cleaned),
        "cleaned logs differ"
    );
    assert_eq!(a.removed_duplicates, b.removed_duplicates);
    assert_eq!(a.reset_bursts, b.reset_bursts);
    assert_eq!(a.horizon_end, b.horizon_end);
}

/// Run the uninterrupted baseline in its own registry, returning the
/// month and the assembled run report.
fn run_baseline(scenario: &Scenario) -> (MonthResult, RunReport) {
    let registry = Arc::new(Registry::new());
    let events = Arc::new(MemorySubscriber::new());
    let month = obs::with_metrics(registry.clone(), || {
        obs::with_subscriber(events.clone(), || {
            scenario.run_month().expect("valid scenario config")
        })
    });
    let report = RunReport::assemble(
        "kill-resume",
        &registry.snapshot(),
        &events.events(),
        &obs::Profile::default(),
    );
    (month, report)
}

/// Simulate the crashing process: checkpoint every `every` events into
/// `store`, stop after `saves` checkpoints, and die with
/// `QuicksandError::Interrupted`.
fn run_interrupted(scenario: &Scenario, store: &CheckpointStore, every: u64, saves: u64) {
    let registry = Arc::new(Registry::new());
    let mut done = 0u64;
    let err = obs::with_metrics(registry, || {
        scenario
            .run_month_checkpointed(None, every, |snap| {
                store.save(snap).expect("checkpoint save");
                done += 1;
                if done >= saves {
                    HookAction::Stop
                } else {
                    HookAction::Continue
                }
            })
            .expect_err("hook requested a stop")
    });
    assert!(
        matches!(err, QuicksandError::Interrupted { events_done } if events_done == every * saves),
        "unexpected interruption shape: {err}"
    );
}

/// Simulate the restarted process: load the newest valid checkpoint and
/// run to completion in a fresh registry.
fn run_resumed(
    scenario: &Scenario,
    dir: &Path,
) -> (MonthResult, RunReport, Arc<Registry>, Vec<obs::Event>) {
    let registry = Arc::new(Registry::new());
    let events = Arc::new(MemorySubscriber::new());
    let month = obs::with_metrics(registry.clone(), || {
        obs::with_subscriber(events.clone(), || {
            let store = CheckpointStore::open(dir, DEFAULT_RETAIN)
                .expect("scratch dir is writable");
            let (snap, _path) = store
                .load_latest()
                .expect("checkpoint listing readable")
                .expect("at least one valid checkpoint on disk");
            scenario
                .run_month_checkpointed(Some(&snap), 0, |_| HookAction::Continue)
                .expect("resume from a matching checkpoint")
        })
    });
    let report = RunReport::assemble(
        "kill-resume",
        &registry.snapshot(),
        &events.events(),
        &obs::Profile::default(),
    );
    let evs = events.events();
    (month, report, registry, evs)
}

/// The tentpole guarantee, end to end through the on-disk store: kill at
/// a checkpoint boundary, restart from disk, and nothing in the final
/// month or the normalized run report can tell the runs apart.
#[test]
fn kill_and_resume_is_bitwise_identical() {
    let scenario = Scenario::build(ScenarioConfig::small(11));
    let (full_month, full_report) = run_baseline(&scenario);

    let dir = scratch_dir("kill-resume");
    let store = CheckpointStore::open(dir.clone(), DEFAULT_RETAIN).expect("scratch dir");
    run_interrupted(&scenario, &store, 40, 2);

    let (resumed_month, resumed_report, _, _) = run_resumed(&scenario, &dir);
    assert_months_bitwise_identical(&full_month, &resumed_month);

    // The deterministic projection is empty AND the serialized
    // normalized reports are byte-for-byte equal.
    let deltas = full_report.deterministic_deltas(&resumed_report);
    assert!(deltas.is_empty(), "deterministic deltas: {deltas:#?}");
    let full_json = serde_json::to_string(&full_report.normalized()).unwrap();
    let resumed_json = serde_json::to_string(&resumed_report.normalized()).unwrap();
    assert_eq!(full_json, resumed_json, "normalized run reports differ");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption chaos: flip one byte in the newest checkpoint. The load
/// skips it with an obs-visible `checkpoint-corrupt` warning, falls back
/// to the predecessor (`checkpoint-fallback` + counters), and the
/// resumed run still reproduces the uninterrupted month exactly.
#[test]
fn corrupt_newest_checkpoint_falls_back_and_still_resumes_exactly() {
    let scenario = Scenario::build(ScenarioConfig::small(11));
    let (full_month, _) = run_baseline(&scenario);

    let dir = scratch_dir("corrupt-fallback");
    let store = CheckpointStore::open(dir.clone(), DEFAULT_RETAIN).expect("scratch dir");
    run_interrupted(&scenario, &store, 40, 2);

    // Corrupt the newest checkpoint (cursor 80) mid-file.
    let files = store.list().expect("listable");
    assert_eq!(files.len(), 2, "expected two checkpoints, got {files:?}");
    let newest = files.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(newest, &bytes).unwrap();

    let (resumed_month, _, registry, events) = run_resumed(&scenario, &dir);
    assert_months_bitwise_identical(&full_month, &resumed_month);

    // The fallback is observable: one corrupt load, one fallback, and
    // the warn events that name the files involved.
    assert_eq!(registry.counter_value(Key::stage("recover", "load_corrupt")), 1);
    assert_eq!(registry.counter_value(Key::stage("recover", "fallbacks")), 1);
    assert_eq!(registry.counter_value(Key::stage("recover", "resumes")), 1);
    assert!(
        events
            .iter()
            .any(|e| e.stage == "recover" && e.name == "checkpoint-corrupt"),
        "no checkpoint-corrupt event emitted"
    );
    assert!(
        events
            .iter()
            .any(|e| e.stage == "recover" && e.name == "checkpoint-fallback"),
        "no checkpoint-fallback event emitted"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming against the wrong scenario is refused with the typed
/// mismatch error, not silently-wrong state — the operator-error guard
/// at the CLI boundary (`repro --resume-from`).
#[test]
fn resume_against_other_scenario_is_a_typed_error() {
    let scenario = Scenario::build(ScenarioConfig::small(11));
    let dir = scratch_dir("wrong-config");
    let store = CheckpointStore::open(dir.clone(), DEFAULT_RETAIN).expect("scratch dir");
    run_interrupted(&scenario, &store, 40, 1);

    let (snap, _) = store.load_latest().unwrap().expect("checkpoint present");
    let other = Scenario::build(ScenarioConfig::small(12));
    let err = other
        .run_month_checkpointed(Some(&snap), 0, |_| HookAction::Continue)
        .expect_err("config mismatch must be refused");
    assert!(
        matches!(err, QuicksandError::ResumeMismatch { what: "config_hash", .. }),
        "unexpected error: {err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
