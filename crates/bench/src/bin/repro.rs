//! `repro` — regenerate every table and figure of *Anonymity on
//! QuickSand* at full scale.
//!
//! ```text
//! repro [all|table1|fig2-left|fig2-right|fig3-left|fig3-right|model|
//!        hijack|intercept|convergence|ixp|population|static-vs-dynamic|
//!        stealth|longterm|countermeasures|chaos]
//!        [--small|--medium|--large|--scale=SPEC]
//!        [--intensity=<0..1>] [--obs-out=run.json] [--obs-jsonl=run.jsonl]
//!        [--profile-out=PATH] [--log-level=SPEC]
//!        [--checkpoint-every=N] [--checkpoint-dir=DIR] [--resume-from=PATH]
//!        [--halt-after=K] [-v|--verbose] [-q|--quiet]
//! repro report [--check] <run.json> [other.json]
//! repro serve [--small|--medium|--large|--scale=SPEC]
//!        [--cells=N] [--width=K] [--seed=S]
//!        [--checkpoint-every=N] [--checkpoint-dir=DIR] [--max-restarts=R]
//!        [--storm=K] [--storm-seed=S] [--stall-ms=MS] [--deadline-ms=MS]
//!        [--queue-cap=Q] [--obs-out=run.json] [--telemetry-addr=HOST:PORT]
//!        [--telemetry-addr-file=PATH] [--telemetry-linger-ms=MS]
//!        [--feed-addr=HOST:PORT] [--feed-addr-file=PATH]
//!        [--feed-hold-ms=MS] [--feed-restart-ms=MS]
//!        [--log-level=SPEC] [-v|--verbose] [-q|--quiet]
//! repro feed --connect=HOST:PORT [--peer=NAME] [--seed=S]
//!        [--small|--medium|--large|--scale=SPEC]
//!        [--mrt=PATH] [--kill-after=N] [--hold-ms=MS] [--max-attempts=N]
//!        [--backoff-base-ms=MS] [--backoff-cap-ms=MS] [--backoff-seed=S]
//!        [--log-level=SPEC] [-v|--verbose] [-q|--quiet]
//! ```
//!
//! One scale knob sizes every scenario-building subcommand:
//! `--scale=small|medium|large` (or the `--small`/`--medium`/`--large`
//! shorthands) selects a tier, and `--scale=key=value,...` overrides
//! individual [`ScaleSpec`](quicksand_core::ScaleSpec) fields on top of
//! the large tier (e.g. `--scale=n_ases=30000,horizon_days=1`). `small`
//! runs in seconds, `medium` in tens of seconds, `large` is the
//! ~20k-AS / ~100k-prefix Internet-scale tier. Without a scale flag the
//! batch mode runs the full EXPERIMENTS.md configuration and
//! `serve`/`feed` default to medium (their historical behavior).
//! Every mode checks its command line first: a flag the mode does not
//! take, or a word it has no use for (in the batch mode, one that
//! names no artifact), exits 2 before any work starts.
//!
//! Observability: progress notes are `quicksand-obs` events rendered to
//! stderr (`-v` lowers the threshold to debug, `--quiet` silences both
//! events and the stdout tables). `--obs-out=PATH` turns the span
//! profiler on and writes the machine-readable [`RunReport`] at exit:
//! its stage table is the run's root spans grouped by stage, and it
//! carries the whole span profile (a `profile` section and per-span
//! `_span_us` latency histograms, both excluded from `report --check`
//! determinism). `--obs-jsonl=PATH` streams every event as one JSON
//! object per line. `--log-level=SPEC` (or the `QUICKSAND_LOG` env var
//! — the flag wins) sets the console threshold with optional per-stage
//! overrides (`warn,routing=debug,churn=error`), overriding `-v`/the
//! default. `--profile-out=PATH` also turns the profiler on and writes
//! the aggregated profile as collapsed-stack text (flamegraph input;
//! weight = self-time µs). `repro report a.json` pretty-prints
//! a report and exits non-zero when a required pipeline stage is missing
//! (the CI schema gate); `repro report a.json b.json` diffs two runs;
//! `repro report --check a.json b.json` exits 1 unless the two runs are
//! deterministically identical (wall-clock and checkpoint machinery
//! excluded — the resume-exactness gate used by CI kill-and-resume).
//!
//! Crash recovery: `--checkpoint-every=N` snapshots the month-replay
//! pipeline every N churn events into `--checkpoint-dir` (crash-safe
//! writes, bounded retention, corrupt files skipped on load);
//! `--resume-from=PATH` resumes from a checkpoint file or from the
//! newest valid checkpoint in a directory. `--halt-after=K` aborts the
//! process with exit code 3 after the K-th checkpoint save — the crash
//! half of the CI kill-and-resume smoke test.
//!
//! `serve` is the supervised resident mode (DESIGN.md §12): it runs
//! `--cells` scenarios concurrently as isolated fault domains — panic
//! isolation, heartbeat watchdog, bounded admission with load shedding,
//! and checkpoint-backed auto-restart with a seeded-deterministic
//! backoff policy. `--storm=K` injects a deterministic crash storm
//! (panics and stalls) into K of the cells via the fault layer — the
//! CI crash-storm smoke. Exit codes are typed and pinned (see the
//! table in README.md): notably 4 = at least one cell quarantined.
//! `--telemetry-addr=HOST:PORT` (port 0 picks a free port) starts the
//! live scrape plane (DESIGN.md §13): `/metrics` is Prometheus text
//! with per-cell labeled series, `/healthz` flips to 503 when a
//! running cell's heartbeat goes stale, `/cells` is a JSON fleet
//! summary. `--telemetry-addr-file=PATH` writes the bound address for
//! discovery (CI scrapes port 0 this way) and `--telemetry-linger-ms`
//! keeps the endpoint up after the fleet completes so a scraper always
//! gets a final snapshot.
//!
//! `--feed-addr=HOST:PORT` switches `serve` from generating churn
//! in-process to *ingesting* it over the streaming feed plane
//! (DESIGN.md §14): a framed TCP listener binds one session slot per
//! cell (peer label `cell-<i>`, stamped with that cell's scenario
//! fingerprint), and each cell replays events as they arrive —
//! hold-timer reaping, graceful restart, and resume-exact reconnect
//! included. Every feed-driven cell re-runs the month in batch mode
//! after EOF and publishes `feed.identity_ok` /
//! `feed.identity_mismatch` into the run report — the
//! streamed-equals-batch bit CI greps for. `--feed-addr-file=PATH`
//! writes the bound address (port 0 discovery, like the telemetry
//! plane).
//!
//! `repro feed` is the matching client: it streams a churn schedule
//! (built from `--seed`/`--small`, which must mirror the serving
//! cell's scenario — cell `i` of `serve --seed=S` uses seed `S + i`)
//! or a QSMRT001 update log (`--mrt=PATH`) into a feed listener,
//! reconnecting with seeded decorrelated-jitter backoff until the
//! server acks the EOF digest. `--kill-after=N` injects a scripted
//! disconnect after the N-th event frame — the CI kill-and-reconnect
//! smoke — which must leave the result bitwise identical to an
//! uninterrupted stream. Exits [`exitcode::FEED_CONNECT`] (5) when the
//! session cannot be established or the reconnect budget runs out.
//!
//! `chaos` (not part of `all`: it is a robustness diagnostic, not a
//! paper artifact) replays the §4 pipeline with the collector feed
//! degraded by [`quicksand_bgp::fault`] — drops, duplicates, reorders,
//! clock skew, session flaps — and reports how cleaning, session
//! health, and real-time monitoring hold up. `--intensity=X` pins a
//! single fault intensity instead of the default sweep.

use quicksand_core::countermeasures::{
    evaluate_circuit_filter, evaluate_guard_strategies, evaluate_monitoring,
    evaluate_realtime_monitoring,
};
use quicksand_core::experiments::{
    convergence_experiment, fig2_left, fig2_right, fig3_left, fig3_right,
    hijack_experiment, intercept_experiment, model_sweep, static_vs_dynamic, stealth_experiment, table1,
};
use quicksand_core::consensus_data::{evaluate_published_dynamics, render_published_dynamics};
use quicksand_core::longterm::{long_term_study, render_long_term, LongTermConfig};
use quicksand_core::adversary::ObservationMode;
use quicksand_core::ixp::{ixp_experiment, render_ixp, IxpMap};
use quicksand_core::population::{render_population, run_population_attack, PopulationConfig};
use quicksand_bench::exitcode;
use quicksand_core::feed::{
    FeedBinding, FeedClient, FeedConfig, FeedServer, FeedSlot, ReconnectPolicy,
};
use quicksand_core::report;
use quicksand_core::scenario::{MonthResult, Scale, Scenario, ScenarioConfig};
use quicksand_core::supervise::{
    CellResult, RestartPolicy, ScenarioJob, SuperviseConfig, Supervisor, WatchdogConfig,
};
use quicksand_core::telemetry::TelemetryServer;
use quicksand_attack::monitord::{MonitorConfig, StreamingMonitor};
use quicksand_bgp::fault::{ConnChaosPlan, ConnFaultKind, FaultInjector, FaultProfile};
use quicksand_bgp::feed::{ChurnFeedSource, FeedMode, FeedSource, MrtFeedSource};
use quicksand_bgp::{
    clean_session_resets, metrics, CleaningConfig, ReplayChaosPlan, Route, UpdateMessage,
    UpdateRecord,
};
use quicksand_net::{AsPath, Asn, Ipv4Prefix, QuicksandError, SimDuration, SimTime};
use quicksand_obs::{self as obs, Event, Level, RunReport, Subscriber};
use quicksand_recover::{
    load_file, CheckpointStore, HookAction, PipelineSnapshot, DEFAULT_RETAIN,
};
use quicksand_traffic::{CircuitFlowConfig, TcpConfig};
use std::sync::Arc;

/// Counting wrapper over the system allocator, installed only in this
/// binary so span profiles attribute allocations per span
/// (see [`alloc_probe`]).
mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    // SAFETY: delegates every operation to `System`; the counter is a
    // lock-free atomic, safe in any allocation context.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            unsafe { System.alloc_zeroed(layout) }
        }
    }
}

#[global_allocator]
static GLOBAL: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// The allocation-count probe this binary donates to the span profiler
/// (`obs::prof::set_alloc_probe`): the total heap allocations since
/// process start, read from the counting allocator.
fn alloc_probe() -> u64 {
    alloc_counter::ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Resolve the console log filter: `--log-level=SPEC` wins, then the
/// `QUICKSAND_LOG` env var, then the `-v`-derived uniform default. A
/// bad flag spec is a usage error; a bad env spec warns and falls
/// through (an exported shell variable must not brick the binary).
fn log_filter(args: &Args, verbose: bool) -> obs::LevelFilter {
    if let Some(spec) = args.value("--log-level=") {
        match obs::LevelFilter::parse(spec) {
            Ok(f) => return f,
            Err(e) => {
                eprintln!("error: --log-level: {e}");
                std::process::exit(exitcode::USAGE);
            }
        }
    }
    if let Ok(spec) = std::env::var("QUICKSAND_LOG") {
        match obs::LevelFilter::parse(&spec) {
            Ok(f) => return f,
            Err(e) => eprintln!("warning: ignoring QUICKSAND_LOG: {e}"),
        }
    }
    obs::LevelFilter::uniform(if verbose { Level::Debug } else { Level::Info })
}

/// The artifacts the batch mode can produce (`all` runs every one but
/// `chaos`).
const EXPERIMENTS: &[&str] = &[
    "all", "table1", "fig2-left", "fig2-right", "fig3-left", "fig3-right", "model", "hijack",
    "intercept", "convergence", "ixp", "population", "static-vs-dynamic", "stealth",
    "longterm", "countermeasures", "chaos",
];

/// Each mode's flags; a trailing `=` marks one that takes a value.
const BATCH_FLAGS: &[&str] = &[
    "--small", "--medium", "--large", "--scale=", "--intensity=", "--obs-out=",
    "--obs-jsonl=", "--profile-out=", "--log-level=", "--checkpoint-every=",
    "--checkpoint-dir=", "--resume-from=", "--halt-after=", "-v", "--verbose", "-q", "--quiet",
];
const REPORT_FLAGS: &[&str] = &["--check"];
const SERVE_FLAGS: &[&str] = &[
    "--small", "--medium", "--large", "--scale=", "--cells=", "--width=", "--seed=",
    "--checkpoint-every=", "--checkpoint-dir=", "--max-restarts=", "--storm=", "--storm-seed=",
    "--stall-ms=", "--deadline-ms=", "--queue-cap=", "--obs-out=", "--telemetry-addr=",
    "--telemetry-addr-file=", "--telemetry-linger-ms=", "--feed-addr=", "--feed-addr-file=",
    "--feed-hold-ms=", "--feed-restart-ms=", "--log-level=", "-v", "--verbose", "-q", "--quiet",
];
const FEED_FLAGS: &[&str] = &[
    "--connect=", "--peer=", "--seed=", "--small", "--medium", "--large", "--scale=", "--mrt=",
    "--kill-after=", "--hold-ms=", "--max-attempts=", "--backoff-base-ms=", "--backoff-cap-ms=",
    "--backoff-seed=", "--log-level=", "-v", "--verbose", "-q", "--quiet",
];

/// What a bare (non-flag) word may be in a mode.
enum Words {
    /// An artifact name from [`EXPERIMENTS`] (the batch mode).
    Artifacts,
    /// A file path (`report`).
    Paths,
    /// Nothing (`serve`, `feed`).
    None,
}

/// One mode's command line, checked against the mode's flag list.
/// Commands read their flags only through it, and reading a flag the
/// list does not declare panics, so the list is the one place a mode's
/// flags are named.
struct Args<'a> {
    args: &'a [String],
    flags: &'static [&'static str],
}

impl<'a> Args<'a> {
    /// Reject a command line with a flag its mode does not take, or a
    /// word the mode has no use for, before any work starts: a typo
    /// such as `--smal` or `report --chek` must not silently run
    /// something else.
    fn parse(
        args: &'a [String],
        flags: &'static [&'static str],
        words: Words,
    ) -> Result<Args<'a>, String> {
        for arg in args {
            if arg.starts_with('-') {
                let known = flags.iter().any(|flag| {
                    if flag.ends_with('=') {
                        arg.starts_with(flag)
                    } else {
                        arg == flag
                    }
                });
                if !known {
                    return Err(format!("unknown flag {arg:?}"));
                }
            } else {
                match words {
                    Words::Artifacts if !EXPERIMENTS.contains(&arg.as_str()) => {
                        return Err(format!(
                            "unknown subcommand or artifact {arg:?} (expected report, serve, feed, or one of: {})",
                            EXPERIMENTS.join(" ")
                        ))
                    }
                    Words::None => return Err(format!("unknown argument {arg:?}")),
                    _ => {}
                }
            }
        }
        Ok(Args { args, flags })
    }

    fn declared(&self, flag: &str) {
        assert!(
            self.flags.contains(&flag),
            "{flag} is read but missing from the mode's flag list"
        );
    }

    /// Is the bare flag `flag` given?
    fn has(&self, flag: &str) -> bool {
        self.declared(flag);
        self.args.iter().any(|a| a == flag)
    }

    /// The value of `--flag=VALUE` (`flag` includes the `=`).
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.declared(flag);
        self.args.iter().find_map(|a| a.strip_prefix(flag))
    }

    /// The value of `--flag=N`; a value that is not a non-negative
    /// integer is a usage error.
    fn u64(&self, flag: &str) -> Option<u64> {
        let s = self.value(flag)?;
        match s.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("error: {flag} expects a non-negative integer, got {s:?}");
                std::process::exit(exitcode::USAGE);
            }
        }
    }

    /// The bare words (artifact names or report paths), in order.
    fn words(&self) -> Vec<&'a str> {
        self.args
            .iter()
            .filter(|a| !a.starts_with('-'))
            .map(String::as_str)
            .collect()
    }

    fn quiet(&self) -> bool {
        self.has("--quiet") || self.has("-q")
    }

    fn verbose(&self) -> bool {
        self.has("--verbose") || self.has("-v")
    }
}

/// Resolve the scenario scale from the command line: `--scale=SPEC`
/// (a tier name or a `key=value,...` override list over the large
/// tier — see [`Scale::parse`]) wins, then the `--small`/`--medium`/
/// `--large` shorthands. `None` means no scale flag was given, and
/// each subcommand keeps its historical default.
fn scale_arg(args: &Args) -> Option<Scale> {
    if let Some(spec) = args.value("--scale=") {
        match Scale::parse(spec) {
            Ok(s) => return Some(s),
            Err(e) => {
                eprintln!("error: --scale: {e}");
                std::process::exit(exitcode::USAGE);
            }
        }
    }
    if args.has("--small") {
        Some(Scale::Small)
    } else if args.has("--medium") {
        Some(Scale::Medium)
    } else if args.has("--large") {
        Some(Scale::Large)
    } else {
        None
    }
}

/// Progress note: an obs event, rendered to stderr by the console
/// subscriber (silenced by `--quiet`, captured by `--obs-jsonl`).
fn progress(message: String) {
    obs::emit(Event::new(Level::Info, "repro", "progress", message));
}

/// Stdout artifact gate: every table/figure rendering goes through
/// here so `--quiet` silences them in one place.
struct Out {
    quiet: bool,
}

impl Out {
    /// Print one artifact block followed by a separating blank line.
    fn block(&self, text: &str) {
        if !self.quiet {
            print!("{text}");
            println!();
        }
    }
}

/// Crash-recovery options for the month replay (`--checkpoint-every`,
/// `--checkpoint-dir`, `--resume-from`, `--halt-after`).
#[derive(Default)]
struct RecoverOpts {
    /// Checkpoint every N fully-processed churn events (0 disables).
    every: u64,
    /// Where checkpoints are written (required when `every > 0`).
    dir: Option<String>,
    /// Checkpoint file, or directory to pick the newest valid one from.
    resume_from: Option<String>,
    /// Crash simulation: exit code 3 after this many checkpoint saves.
    halt_after: Option<u64>,
}

impl RecoverOpts {
    /// Load the snapshot named by `--resume-from`: a checkpoint file is
    /// read directly; a directory goes through [`CheckpointStore`] so
    /// corrupt files are skipped in favour of the newest valid one.
    fn load_resume(&self) -> Option<PipelineSnapshot> {
        let path = self.resume_from.as_deref()?;
        let result = if std::path::Path::new(path).is_dir() {
            match CheckpointStore::open(path, DEFAULT_RETAIN) {
                Ok(store) => store
                    .load_latest()
                    .and_then(|found| {
                        found.ok_or(quicksand_recover::CheckpointError::NoValidCheckpoint)
                    })
                    .map(|(snap, _path)| snap),
                Err(e) => Err(e),
            }
        } else {
            load_file(path)
        };
        match result {
            Ok(snap) => {
                progress(format!(
                    "resuming from {path} (cursor {}, seed {:#x})",
                    snap.cursor, snap.seed
                ));
                Some(snap)
            }
            Err(e) => {
                eprintln!("error: cannot resume from {path}: {e}");
                std::process::exit(exitcode::USAGE);
            }
        }
    }
}

struct Ctx {
    scenario: Scenario,
    month: Option<MonthResult>,
    /// Reduced experiment sampling: set for every explicit scale tier
    /// (anything but the flag-less full default) — the scaled scenarios
    /// either don't need full sampling (small/medium) or can't afford
    /// it (large).
    small: bool,
    recover: RecoverOpts,
}

impl Ctx {
    fn new(scale: Option<&Scale>, recover: RecoverOpts) -> Ctx {
        let cfg = match scale {
            Some(sc) => ScenarioConfig::at_scale(sc, 0xA11),
            // The full-scale configuration used for EXPERIMENTS.md.
            None => ScenarioConfig::default(),
        };
        progress(format!(
            "building scenario ({} ASes, {} relays)…",
            cfg.topology.n_ases, cfg.consensus.n_relays
        ));
        Ctx {
            scenario: Scenario::build(cfg),
            month: None,
            small: scale.is_some(),
            recover,
        }
    }

    fn ensure_month(&mut self) {
        if self.month.is_some() {
            return;
        }
        progress("running churn horizon through the BGP simulator…".to_string());
        let resume = self.recover.load_resume();
        let store = self.recover.dir.as_deref().map(|dir| {
            match CheckpointStore::open(dir, DEFAULT_RETAIN) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot open checkpoint dir {dir}: {e}");
                    std::process::exit(exitcode::USAGE);
                }
            }
        });
        let mut saves = 0u64;
        let halt_after = self.recover.halt_after;
        let result = self.scenario.run_month_checkpointed(
            resume.as_ref(),
            self.recover.every,
            |snap| {
                if let Some(store) = &store {
                    if let Err(e) = store.save(snap) {
                        eprintln!("error: checkpoint save failed: {e}");
                        std::process::exit(exitcode::USAGE);
                    }
                    saves += 1;
                }
                if halt_after.is_some_and(|k| saves >= k) {
                    HookAction::Stop
                } else {
                    HookAction::Continue
                }
            },
        );
        let m = match result {
            Ok(m) => m,
            Err(QuicksandError::Interrupted { events_done }) => {
                // The --halt-after crash simulation: die before any
                // artifact or obs-out is written, like a real crash.
                eprintln!(
                    "halt-after: interrupted after {events_done} churn events \
                     ({saves} checkpoints on disk)"
                );
                obs::flush();
                std::process::exit(exitcode::CRASH_SIM);
            }
            Err(e) => {
                eprintln!("error: month replay failed: {e}");
                std::process::exit(exitcode::USAGE);
            }
        };
        progress(format!(
            "update log: {} raw / {} cleaned records, {} duplicates removed, {} reset bursts",
            m.raw.len(),
            m.cleaned.len(),
            m.removed_duplicates,
            m.reset_bursts
        ));
        self.month = Some(m);
    }

    fn month(&self) -> &MonthResult {
        self.month.as_ref().expect("ensure_month called first")
    }
}

/// Load a [`RunReport`] written by `--obs-out`.
fn load_report(path: &str) -> Result<RunReport, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// `repro report [--check] <run.json> [other.json]`: pretty-print one
/// report (exit 1 when schema validation fails — the CI gate), diff two
/// runs, or with `--check` gate on deterministic equality: exit 1
/// unless [`RunReport::deterministic_deltas`] between the two runs is
/// empty. `--check` is how CI asserts an interrupted-then-resumed run
/// is indistinguishable from an uninterrupted one.
fn report_command(args: &Args) -> i32 {
    let check = args.has("--check");
    let files = args.words();
    if check {
        let [a, b] = files.as_slice() else {
            eprintln!("usage: repro report --check <run.json> <other.json>");
            return exitcode::USAGE;
        };
        let (ra, rb) = match (load_report(a), load_report(b)) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return exitcode::USAGE;
            }
        };
        let deltas = ra.deterministic_deltas(&rb);
        return if deltas.is_empty() {
            println!("deterministic check: ok ({a} == {b})");
            exitcode::OK
        } else {
            println!(
                "deterministic check: FAILED ({} deltas between {a} and {b})",
                deltas.len()
            );
            for d in &deltas {
                println!("  - {d}");
            }
            exitcode::CHECK_FAILED
        };
    }
    match files.as_slice() {
        [one] => {
            let rep = match load_report(one) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return exitcode::USAGE;
                }
            };
            print!("{}", rep.render());
            match rep.validate() {
                Ok(()) => {
                    println!(
                        "\nvalidation: ok ({} required stages profiled)",
                        obs::REQUIRED_STAGES.len()
                    );
                    exitcode::OK
                }
                Err(problems) => {
                    println!("\nvalidation: FAILED");
                    for p in &problems {
                        println!("  - {p}");
                    }
                    exitcode::CHECK_FAILED
                }
            }
        }
        [a, b] => {
            let (ra, rb) = match (load_report(a), load_report(b)) {
                (Ok(ra), Ok(rb)) => (ra, rb),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("error: {e}");
                    return exitcode::USAGE;
                }
            };
            for (path, rep) in [(a, &ra), (b, &rb)] {
                if let Err(problems) = rep.validate() {
                    println!("note: {path} is incomplete ({} problems)", problems.len());
                }
            }
            print!("{}", ra.diff(&rb));
            exitcode::OK
        }
        _ => {
            eprintln!("usage: repro report [--check] <run.json> [other.json]");
            exitcode::USAGE
        }
    }
}

/// `repro serve`: the supervised resident mode. Runs `--cells`
/// scenarios (seeds `--seed + i`) as isolated fault domains under the
/// [`Supervisor`] — at most `--width` concurrently — each
/// checkpointing every `--checkpoint-every` events into
/// `--checkpoint-dir/cell-<i>` and auto-restarting from its newest
/// valid checkpoint on panic, stall, or error, up to `--max-restarts`
/// times before quarantine. `--storm=K` injects a deterministic
/// panic/stall crash storm into K victim cells (chosen by
/// `--storm-seed`) via [`ReplayChaosPlan::storm`]; `--stall-ms` sizes
/// the injected stalls and `--deadline-ms` the watchdog's progress
/// deadline, so the storm's stalls genuinely trip it. Writes the fleet
/// [`RunReport`] (with its `supervisor` section) to `--obs-out`.
/// Exits [`exitcode::QUARANTINE`] when any cell was quarantined.
fn serve_command(args: &Args) -> i32 {
    let scale = scale_arg(args);
    let quiet = args.quiet();
    let verbose = args.verbose();
    let obs_out = args.value("--obs-out=");
    let parse = |flag: &str, default: u64| args.u64(flag).unwrap_or(default);
    let cells = parse("--cells=", 8) as usize;
    let width = parse("--width=", 4).max(1) as usize;
    let every = parse("--checkpoint-every=", 25);
    let max_restarts = parse("--max-restarts=", 3) as u32;
    let queue_cap = parse("--queue-cap=", cells.max(1) as u64) as usize;
    let storm = parse("--storm=", 0) as usize;
    let storm_seed = parse("--storm-seed=", 0xBAD_5EED);
    let stall_ms = parse("--stall-ms=", 3_000);
    let deadline_ms = parse("--deadline-ms=", 1_000);
    let base_seed = parse("--seed=", 0xA11);
    let dir = args.value("--checkpoint-dir=").map(str::to_owned);
    let telemetry_addr = args.value("--telemetry-addr=");
    let telemetry_addr_file = args.value("--telemetry-addr-file=");
    let linger_ms = parse("--telemetry-linger-ms=", 0);
    if telemetry_addr.is_none() && (telemetry_addr_file.is_some() || linger_ms > 0) {
        eprintln!(
            "error: --telemetry-addr-file/--telemetry-linger-ms require --telemetry-addr"
        );
        return exitcode::USAGE;
    }
    let feed_addr = args.value("--feed-addr=");
    let feed_addr_file = args.value("--feed-addr-file=");
    let feed_cfg = FeedConfig {
        hold_ms: parse("--feed-hold-ms=", FeedConfig::default().hold_ms).max(1),
        restart_ms: parse("--feed-restart-ms=", FeedConfig::default().restart_ms).max(1),
        ..FeedConfig::default()
    };
    if feed_addr.is_none() && feed_addr_file.is_some() {
        eprintln!("error: --feed-addr-file requires --feed-addr");
        return exitcode::USAGE;
    }
    if cells == 0 {
        eprintln!("error: --cells must be >= 1");
        return exitcode::USAGE;
    }
    if every == 0 {
        eprintln!("error: serve requires --checkpoint-every >= 1 (heartbeat granularity)");
        return exitcode::USAGE;
    }
    if storm > cells {
        eprintln!("error: --storm={storm} exceeds --cells={cells}");
        return exitcode::USAGE;
    }

    // The supervisor runs on the global registry and subscriber, so
    // cell events reach the sinks and the fleet report sees the
    // supervisor stage.
    let memory = Arc::new(obs::MemorySubscriber::new());
    let mut sinks: Vec<Arc<dyn Subscriber>> = Vec::new();
    if !quiet {
        sinks.push(Arc::new(obs::ConsoleSubscriber::with_filter(log_filter(
            args, verbose,
        ))));
    }
    if obs_out.is_some() {
        sinks.push(memory.clone());
        obs::prof::set_enabled(true);
    }
    if !sinks.is_empty() {
        obs::set_global_subscriber(Arc::new(obs::FanoutSubscriber::new(sinks)));
    }

    let chaos: Vec<Option<ReplayChaosPlan>> = if storm > 0 {
        // Crash window: past the second checkpoint, before the sixth,
        // so every victim has a checkpoint to restart from.
        ReplayChaosPlan::storm(storm_seed, cells, storm, every * 2, every * 5, stall_ms)
    } else {
        vec![None; cells]
    };

    let mut supervisor = Supervisor::new(SuperviseConfig {
        width,
        queue_cap,
        results_cap: width,
        checkpoint_every: every,
        retain: DEFAULT_RETAIN,
        restart: RestartPolicy {
            max_restarts,
            ..RestartPolicy::default()
        },
        watchdog: WatchdogConfig {
            deadline_ms,
            ..WatchdogConfig::default()
        },
    });
    // Scrape plane: bind before the fleet starts so a scraper can watch
    // cells move Pending → Running → terminal live. The fleet view is
    // shared with the supervisor; `run()` consumes the supervisor, so
    // grab it now (feed bindings also register their sessions on it).
    let fleet = supervisor.telemetry();
    let mut feed_bindings: Vec<FeedBinding> = Vec::new();
    for (i, plan) in chaos.into_iter().enumerate() {
        let seed = base_seed + i as u64;
        let config = match &scale {
            Some(sc) => ScenarioConfig::at_scale(sc, seed),
            None => ScenarioConfig::medium(seed),
        };
        // Feed-driven mode: one ingest slot per cell, bound to peer
        // label `cell-<i>` and stamped with that cell's scenario
        // fingerprint, so only the matching schedule can stream in.
        // The cell verifies streamed-equals-batch after EOF.
        let feed = feed_addr.map(|_| {
            let peer = format!("cell-{i}");
            let slot = Arc::new(FeedSlot::new(feed_cfg.clone()));
            let telem = fleet.add_feed_session(Some(i), &peer, feed_cfg.hold_ms);
            feed_bindings.push(FeedBinding::new(
                peer,
                FeedMode::Churn,
                config.fingerprint(),
                slot.clone(),
                telem,
            ));
            slot
        });
        let job = ScenarioJob {
            label: format!("cell-{i}"),
            config,
            store_dir: dir.as_ref().map(|d| {
                std::path::Path::new(d).join(format!("cell-{i}"))
            }),
            chaos: plan,
            feed_verify: feed.is_some(),
            feed,
        };
        supervisor.submit(job);
    }
    let mut server = match telemetry_addr {
        Some(addr) => match TelemetryServer::start(addr, fleet) {
            Ok(server) => {
                let bound = server.local_addr();
                progress(format!(
                    "telemetry: /metrics /healthz /cells on http://{bound}"
                ));
                if let Some(path) = telemetry_addr_file {
                    if let Err(e) = std::fs::write(path, format!("{bound}\n")) {
                        eprintln!("error: cannot write {path}: {e}");
                        return exitcode::USAGE;
                    }
                }
                Some(server)
            }
            Err(e) => {
                eprintln!("error: cannot bind telemetry endpoint {addr}: {e}");
                return exitcode::USAGE;
            }
        },
        None => None,
    };
    // Feed plane: bind before the fleet starts so a client can open
    // its session while its cell is still pending — the slot buffers
    // (bounded) until the cell consumes.
    let mut feed_server = match feed_addr {
        Some(addr) => match FeedServer::start(addr, feed_cfg.clone(), feed_bindings) {
            Ok(server) => {
                let bound = server.local_addr();
                progress(format!(
                    "feed: ingesting {cells} peer sessions on {bound} \
                     (hold {} ms, restart {} ms)",
                    feed_cfg.hold_ms, feed_cfg.restart_ms
                ));
                if let Some(path) = feed_addr_file {
                    if let Err(e) = std::fs::write(path, format!("{bound}\n")) {
                        eprintln!("error: cannot write {path}: {e}");
                        return exitcode::USAGE;
                    }
                }
                Some(server)
            }
            Err(e) => {
                eprintln!("error: cannot bind feed listener {addr}: {e}");
                return exitcode::USAGE;
            }
        },
        None => None,
    };

    progress(format!(
        "serve: {cells} cells (width {width}, storm {storm}), \
         checkpoint every {every} events"
    ));
    let outcome = supervisor.run();

    // Every cell is terminal, so no slot will accept another event:
    // reap the feed listener and its session threads first.
    if let Some(server) = &mut feed_server {
        server.stop();
    }

    // Every cell is terminal now; hold the endpoint open for the
    // requested linger so an external scraper deterministically gets a
    // final post-fleet snapshot, then shut it down cleanly.
    if let Some(server) = &mut server {
        if linger_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(linger_ms));
        }
        server.stop();
    }

    if !quiet {
        for cell in &outcome.cells {
            let state = match &cell.result {
                CellResult::Completed { month, .. } => format!(
                    "completed ({} raw / {} cleaned records){}",
                    month.raw.len(),
                    month.cleaned.len(),
                    if cell.degraded() { ", degraded" } else { "" }
                ),
                CellResult::Quarantined { last } => format!("QUARANTINED (last: {last:?})"),
                CellResult::Failed { error } => format!("FAILED ({error})"),
            };
            println!(
                "{:<8} {state}; {} restarts, {} watchdog trips",
                cell.label, cell.restarts, cell.watchdog_trips
            );
        }
        println!(
            "fleet: {}/{} completed, {} quarantined, {} shed",
            outcome.completed(),
            outcome.cells.len(),
            outcome.quarantined(),
            outcome.shed
        );
    }

    obs::flush();
    if let Some(path) = obs_out {
        obs::prof::set_enabled(false);
        let label = format!("repro serve --cells={cells} --storm={storm}");
        if let Err(e) = write_report(path, label, &memory.events(), &obs::prof::capture()) {
            eprintln!("error: {e}");
            return exitcode::CHECK_FAILED;
        }
        progress(format!("wrote fleet report to {path}"));
        obs::flush();
    }
    if outcome.any_quarantined() {
        exitcode::QUARANTINE
    } else {
        exitcode::OK
    }
}

/// `repro feed --connect=HOST:PORT`: the streaming-feed client. Builds
/// the churn schedule of the scenario named by `--seed`/`--small` (or
/// reads a QSMRT001 update log with `--mrt=PATH`) and streams it into
/// a `serve --feed-addr` listener as peer `--peer` (default `cell-0`),
/// resuming exactly from the server's acked cursor after every
/// disconnect. `--kill-after=N` scripts a disconnect after the N-th
/// event frame (the CI kill-and-reconnect smoke); the backoff flags
/// pin the seeded reconnect policy. Exits [`exitcode::FEED_CONNECT`]
/// when no session can be established, the reconnect budget runs out,
/// or the server violates the protocol; local problems (bad flags,
/// unreadable `--mrt` file) are [`exitcode::USAGE`].
fn feed_command(args: &Args) -> i32 {
    let quiet = args.quiet();
    let verbose = args.verbose();
    if !quiet {
        obs::set_global_subscriber(Arc::new(obs::ConsoleSubscriber::with_filter(
            log_filter(args, verbose),
        )));
    }
    let parse = |flag: &str, default: u64| args.u64(flag).unwrap_or(default);
    let Some(connect) = args.value("--connect=") else {
        eprintln!("error: feed requires --connect=HOST:PORT");
        return exitcode::USAGE;
    };
    let addr = match std::net::ToSocketAddrs::to_socket_addrs(connect) {
        Ok(mut addrs) => match addrs.next() {
            Some(a) => a,
            None => {
                eprintln!("error: --connect={connect} resolves to no address");
                return exitcode::USAGE;
            }
        },
        Err(e) => {
            eprintln!("error: cannot resolve --connect={connect}: {e}");
            return exitcode::USAGE;
        }
    };
    let scale = scale_arg(args);
    let seed = parse("--seed=", 0xA11);
    let peer = args.value("--peer=").unwrap_or("cell-0");
    let mrt = args.value("--mrt=");
    let kill_after = args.u64("--kill-after=");

    // The stream: a churn schedule (identity-stamped with the scenario
    // fingerprint the serving cell expects) or an MRT log (fingerprint
    // 0 — MRT sinks carry their identity in the EOF digest alone).
    let (source, config_hash): (Box<dyn FeedSource>, u64) = match mrt {
        Some(path) => {
            let mut file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: cannot open --mrt={path}: {e}");
                    return exitcode::USAGE;
                }
            };
            match MrtFeedSource::from_reader(&mut file) {
                Ok(src) => (Box::new(src), 0),
                Err(e) => {
                    eprintln!("error: cannot parse --mrt={path}: {e}");
                    return exitcode::USAGE;
                }
            }
        }
        None => {
            let config = match &scale {
                Some(sc) => ScenarioConfig::at_scale(sc, seed),
                None => ScenarioConfig::medium(seed),
            };
            let hash = config.fingerprint();
            progress(format!(
                "building scenario for peer {peer} (seed {seed:#x}, \
                 fingerprint {hash:#018x})…"
            ));
            let scenario = Scenario::build(config);
            (Box::new(ChurnFeedSource::new(scenario.churn_schedule())), hash)
        }
    };

    let defaults = ReconnectPolicy::default();
    let mut client = FeedClient::new(addr, peer, config_hash);
    client.hold_ms = parse("--hold-ms=", FeedConfig::default().hold_ms).max(1);
    client.reconnect = ReconnectPolicy {
        base_ms: parse("--backoff-base-ms=", defaults.base_ms),
        cap_ms: parse("--backoff-cap-ms=", defaults.cap_ms),
        max_attempts: parse("--max-attempts=", u64::from(defaults.max_attempts)) as u32,
        seed: parse("--backoff-seed=", defaults.seed),
    };
    if let Some(n) = kill_after {
        client.chaos = ConnChaosPlan::single(n, ConnFaultKind::Disconnect);
    }

    progress(format!(
        "streaming {} events to {addr} as {peer}{}…",
        source.len(),
        if kill_after.is_some() {
            " (scripted disconnect armed)"
        } else {
            ""
        }
    ));
    match client.stream(source.as_ref()) {
        Ok(rep) => {
            progress(format!(
                "feed complete: {} sent, {} acked, {} connects, {} scripted faults",
                rep.sent, rep.acked, rep.connects, rep.faults_fired
            ));
            obs::flush();
            exitcode::OK
        }
        Err(e) => {
            eprintln!("error: feed session failed: {e}");
            obs::flush();
            exitcode::FEED_CONNECT
        }
    }
}

fn main() {
    // Donate the counting allocator to the span profiler before any
    // subcommand runs, so profiles attribute allocations per span.
    obs::prof::set_alloc_probe(alloc_probe);
    let args: Vec<String> = std::env::args().skip(1).collect();
    type Command = fn(&Args) -> i32;
    let (rest, flags, words, command): (&[String], &[&str], Words, Command) =
        match args.first().map(String::as_str) {
            Some("report") => (&args[1..], REPORT_FLAGS, Words::Paths, report_command),
            Some("serve") => (&args[1..], SERVE_FLAGS, Words::None, serve_command),
            Some("feed") => (&args[1..], FEED_FLAGS, Words::None, feed_command),
            _ => (&args[..], BATCH_FLAGS, Words::Artifacts, batch_command),
        };
    match Args::parse(rest, flags, words) {
        Ok(args) => std::process::exit(command(&args)),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(exitcode::USAGE);
        }
    }
}

/// Write the run report to `path`: the global registry (with the span
/// latency histograms folded in), the buffered `events`, and the stage
/// table built from `profile`'s root spans.
fn write_report(
    path: &str,
    label: String,
    events: &[Event],
    profile: &obs::Profile,
) -> Result<RunReport, String> {
    profile.publish(&obs::global_metrics());
    let report = RunReport::assemble(label, &obs::global_metrics().snapshot(), events, profile);
    let json = serde_json::to_string_pretty(&report)
        .map_err(|e| format!("cannot serialize run report: {e}"))?;
    std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(report)
}

/// The batch mode: build the scenario and print the requested
/// artifacts (every one but `chaos` when none is named).
fn batch_command(args: &Args) -> i32 {
    let scale = scale_arg(args);
    let quiet = args.quiet();
    let verbose = args.verbose();
    let obs_out = args.value("--obs-out=");
    let obs_jsonl = args.value("--obs-jsonl=");
    let recover = RecoverOpts {
        every: args.u64("--checkpoint-every=").unwrap_or(0),
        dir: args.value("--checkpoint-dir=").map(str::to_owned),
        resume_from: args.value("--resume-from=").map(str::to_owned),
        halt_after: args.u64("--halt-after="),
    };
    if recover.every > 0 && recover.dir.is_none() {
        eprintln!("error: --checkpoint-every requires --checkpoint-dir");
        std::process::exit(exitcode::USAGE);
    }
    if recover.halt_after.is_some() && (recover.every == 0 || recover.dir.is_none()) {
        eprintln!("error: --halt-after requires --checkpoint-every and --checkpoint-dir");
        std::process::exit(exitcode::USAGE);
    }
    let profile_out = args.value("--profile-out=");
    // Spans are the report's clock: a run report needs the profiler on.
    if obs_out.is_some() || profile_out.is_some() {
        obs::prof::set_enabled(true);
    }
    let which = args.words();
    let which = if which.is_empty() { vec!["all"] } else { which };
    let all = which.contains(&"all");
    let want = |name: &str| all || which.contains(&name);

    // Event sinks: console for humans (unless --quiet), memory when a
    // run report is requested (its alarm timeline comes from buffered
    // events), JSONL when a run log is requested.
    let memory = Arc::new(obs::MemorySubscriber::new());
    let mut sinks: Vec<Arc<dyn Subscriber>> = Vec::new();
    if !quiet {
        sinks.push(Arc::new(obs::ConsoleSubscriber::with_filter(log_filter(
            args, verbose,
        ))));
    }
    if obs_out.is_some() {
        sinks.push(memory.clone());
    }
    if let Some(path) = obs_jsonl {
        match obs::JsonlSubscriber::create(path) {
            Ok(j) => sinks.push(Arc::new(j)),
            Err(e) => {
                eprintln!("error: cannot create {path}: {e}");
                std::process::exit(exitcode::USAGE);
            }
        }
    }
    if !sinks.is_empty() {
        obs::set_global_subscriber(Arc::new(obs::FanoutSubscriber::new(sinks)));
    }
    let out = Out { quiet };

    let mut ctx = Ctx::new(scale.as_ref(), recover);

    if want("table1") {
        ctx.ensure_month();
        let month = ctx.month();
        let t = table1(&ctx.scenario, month);
        out.block(&report::render_table1(&t));
    }
    if want("fig2-left") {
        let f = fig2_left(&ctx.scenario);
        out.block(&report::render_fig2_left(&f));
    }
    if want("fig2-right") {
        // The paper's wget experiment: ~40 MB over ~30 s.
        let bytes = if ctx.small { 4u64 << 20 } else { 40u64 << 20 };
        let cfg = CircuitFlowConfig {
            first_hop: TcpConfig {
                transfer_bytes: bytes,
                ..Default::default()
            },
            ..Default::default()
        };
        let f = fig2_right(&cfg, 30);
        out.block(&report::render_fig2_right(&f));
    }
    if want("fig3-left") {
        ctx.ensure_month();
        let month = ctx.month();
        let f = fig3_left(&ctx.scenario, month);
        out.block(&report::render_fig3_left(&f));
    }
    if want("fig3-right") {
        ctx.ensure_month();
        let month = ctx.month();
        let f = fig3_right(&ctx.scenario, month);
        out.block(&report::render_fig3_right(&f));
    }
    if want("model") {
        let m = model_sweep(
            &[0.01, 0.02, 0.05, 0.1, 0.2],
            &[1, 2, 4, 8, 16, 30],
            &[1, 3],
            if ctx.small { 20_000 } else { 100_000 },
        );
        out.block(&report::render_model(&m));
    }
    if want("hijack") {
        let samples = if ctx.small { 10 } else { 40 };
        let h = hijack_experiment(&ctx.scenario, samples, 0xA77);
        out.block(&report::render_hijack(&h));
    }
    if want("intercept") {
        let samples = if ctx.small { 30 } else { 120 };
        let i = intercept_experiment(&ctx.scenario, samples, 0xA78);
        out.block(&report::render_intercept(&i));
    }
    if want("convergence") {
        let trials = if ctx.small { 5 } else { 15 };
        let e = convergence_experiment(&ctx.scenario, trials, 0xA79);
        out.block(&report::render_convergence(&e));
    }
    if want("ixp") {
        let n = if ctx.small { 30 } else { 120 };
        let map = IxpMap::assign(&ctx.scenario.topo.graph, 8, 0xA82);
        let e = ixp_experiment(
            &ctx.scenario,
            &map,
            n,
            ObservationMode::AnyDirection,
            0xA83,
        );
        out.block(&render_ixp(&e));
    }
    if want("population") {
        let mut text = String::new();
        for f in [0.02, 0.05, 0.10] {
            let cfg = PopulationConfig {
                n_circuits: if ctx.small { 8 } else { 20 },
                f,
                ..Default::default()
            };
            let o = run_population_attack(&ctx.scenario, &cfg);
            text.push_str(&render_population(&o, &cfg));
        }
        out.block(&text);
    }
    if want("static-vs-dynamic") {
        ctx.ensure_month();
        let (nc, ng) = if ctx.small { (5, 8) } else { (12, 16) };
        let month = ctx.month();
        let r = static_vs_dynamic(&ctx.scenario, month, nc, ng, 0.05, 0xA81);
        out.block(&report::render_static_vs_dynamic(&r));
    }
    if want("stealth") {
        let (samples, blocks) = if ctx.small { (6, 5) } else { (20, 12) };
        let e = stealth_experiment(&ctx.scenario, samples, blocks, 0xA80);
        out.block(&report::render_stealth(&e));
    }
    if want("longterm") {
        let cfg = if ctx.small {
            LongTermConfig {
                months: 4,
                rotation_periods: vec![1, 4],
                n_clients: 4,
                trials: 120,
                ..Default::default()
            }
        } else {
            LongTermConfig::default()
        };
        let r = long_term_study(&ctx.scenario, &cfg);
        out.block(&render_long_term(&r));
    }
    if want("countermeasures") {
        let (clients, circuits, attacks) =
            if ctx.small { (6, 120, 20) } else { (16, 400, 60) };
        let mut text = String::new();
        let g =
            evaluate_guard_strategies(&ctx.scenario, clients, 3, &[0.02, 0.05, 0.10], 1);
        text.push_str(&report::render_guard_strategies(&g));
        let c = evaluate_circuit_filter(&ctx.scenario, circuits, 2);
        text.push_str(&report::render_circuit_filter(&c));
        ctx.ensure_month();
        let month = ctx.month();
        let m = evaluate_monitoring(&ctx.scenario, month, attacks, 3);
        text.push_str(&report::render_monitoring(&m));
        let rt = evaluate_realtime_monitoring(&ctx.scenario, month, attacks.min(30), 4);
        text.push_str(&report::render_realtime_monitoring(&rt));
        let pd = evaluate_published_dynamics(&ctx.scenario, clients, 3, 5);
        text.push_str(&render_published_dynamics(&pd));
        out.block(&text);
    }
    if which.contains(&"chaos") {
        ctx.ensure_month();
        let intensities: Vec<f64> = match args.value("--intensity=") {
            Some(s) => match s.parse::<f64>() {
                Ok(x) => vec![x],
                Err(_) => {
                    eprintln!("error: --intensity expects a float in [0, 1], got {s:?}");
                    std::process::exit(exitcode::USAGE);
                }
            },
            None => vec![0.0, 0.2, 0.5, 1.0],
        };
        let month = ctx.month();
        let n_attacks = if ctx.small { 12 } else { 30 };

        // Attacked guard prefixes: those hosting the highest-bandwidth
        // guards (the attractive targets §3.2 identifies).
        let mut guards: Vec<&quicksand_tor::Relay> =
            ctx.scenario.consensus.guards().collect();
        guards.sort_by_key(|r| std::cmp::Reverse(r.bandwidth_kbs));
        let mut attacked: Vec<(Ipv4Prefix, Asn)> = Vec::new();
        for g in &guards {
            if attacked.len() >= n_attacks {
                break;
            }
            if let Some((p, o)) = ctx.scenario.plan.table.longest_match(g.addr) {
                if !attacked.iter().any(|(q, _)| *q == p) {
                    attacked.push((p, o));
                }
            }
        }

        // Splice announcements enter the *raw* feed, on every session,
        // before degradation — so drops, flaps, skew, and reordering
        // genuinely decide whether and when the monitor sees the
        // attack, and latency responds to the profile.
        let attack_at = SimTime(month.horizon_end.0 * 7 / 10);
        let attacker = Asn(0xEEEE);
        let sessions = month.raw.sessions();
        let mut attacked_raw = month.raw.clone();
        for (p, o) in &attacked {
            for &s in &sessions {
                let delay = SimDuration::from_secs(30 + 15 * u64::from(s.0));
                attacked_raw.records.push(UpdateRecord {
                    at: attack_at + delay,
                    session: s,
                    msg: UpdateMessage::Announce(Route {
                        prefix: *p,
                        as_path: AsPath::from_asns([Asn(1), attacker, *o]),
                        communities: Default::default(),
                    }),
                });
            }
        }
        attacked_raw.records.sort_by_key(|r| (r.at, r.session));

        let mut text = String::new();
        for &x in &intensities {
            let profile = FaultProfile::with_intensity(x, 0xC4A05);
            let injector = FaultInjector::new(profile).expect("valid fault profile");
            let (raw, rep) = injector.apply(&attacked_raw);
            let (cleaned, removed, bursts) =
                clean_session_resets(&raw, &CleaningConfig::default());
            text.push_str(&format!("== chaos: fault intensity {x:.2} ==\n"));
            text.push_str(&format!(
                "  injected: {} dropped, {} duplicated, {} reordered, {} outage-dropped, \
                 {} flaps, {} re-dump records, {} skewed sessions\n",
                rep.dropped,
                rep.duplicated,
                rep.reordered,
                rep.outage_dropped,
                rep.flaps.len(),
                rep.redump_records,
                rep.skewed_sessions
            ));
            text.push_str(&format!(
                "  degraded log: {} raw / {} cleaned ({} duplicates removed, {} reset bursts)\n",
                raw.len(),
                cleaned.len(),
                removed,
                bursts
            ));
            let health = metrics::publish_session_health(
                &cleaned,
                SimTime::ZERO,
                month.horizon_end,
                SimDuration::from_hours(6),
            );
            let mean_cov = health.iter().map(|h| h.coverage).sum::<f64>()
                / health.len().max(1) as f64;
            let min_cov = health
                .iter()
                .map(|h| h.coverage)
                .fold(f64::INFINITY, f64::min);
            text.push_str(&format!(
                "  session health: mean coverage {mean_cov:.3}, min {:.3}\n",
                if min_cov.is_finite() { min_cov } else { 1.0 }
            ));

            let mut monitor = StreamingMonitor::new(
                ctx.scenario
                    .tor_prefixes
                    .origin_by_prefix
                    .iter()
                    .map(|(p, a)| (*p, *a)),
                MonitorConfig::default(),
            );
            monitor.register_sessions(sessions.iter().copied());
            for r in &cleaned.records {
                monitor.ingest(r);
            }
            // Feed-liveness probe at end of horizon. The feed is
            // event-driven, so a binary live/stale verdict is noisy —
            // report how many sessions have gone quiet instead.
            let feed_ok = monitor.check_feed(month.horizon_end).is_ok();
            let stale = monitor.stale_sessions(month.horizon_end).len();
            let mut latency_sum = SimDuration::ZERO;
            let mut detected = 0usize;
            for (p, _) in &attacked {
                if let Some(lat) = monitor.detection_latency(p, attack_at) {
                    latency_sum = latency_sum + lat;
                    detected += 1;
                }
            }
            let mean_conf = {
                let confs: Vec<f64> = monitor
                    .alarms_with_confidence()
                    .filter(|(a, _)| a.at >= attack_at)
                    .map(|(_, c)| c)
                    .collect();
                confs.iter().sum::<f64>() / confs.len().max(1) as f64
            };
            let rate = detected as f64 / attacked.len().max(1) as f64;
            let mean_latency_s = if detected > 0 {
                latency_sum.as_secs_f64() / detected as f64
            } else {
                f64::NAN
            };
            text.push_str(&format!(
                "  detection: rate {rate:.2}, mean latency {mean_latency_s:.1}s, \
                 mean alarm confidence {mean_conf:.2}, {} late records tolerated, \
                 {stale}/{} sessions quiet at horizon end\n",
                monitor.late_records(),
                sessions.len()
            ));
            // Structured mirror of the summary for JSONL/report tooling.
            obs::emit(
                Event::new(
                    Level::Info,
                    "repro",
                    "chaos-summary",
                    format!("fault intensity {x:.2}"),
                )
                .with("intensity", x)
                .with("flaps", rep.flaps.len() as u64)
                .with("dropped", rep.dropped)
                .with("detection_rate", rate)
                .with("feed_ok", feed_ok)
                .with("stale_sessions", stale),
            );
        }
        out.block(&text);
    }

    obs::flush();
    obs::prof::set_enabled(false);
    let profile = obs::prof::capture();
    if let Some(path) = profile_out {
        // Collapsed-stack text: flamegraph input.
        if let Err(e) = std::fs::write(path, profile.collapsed()) {
            eprintln!("error: cannot write {path}: {e}");
            return exitcode::CHECK_FAILED;
        }
        progress(format!(
            "wrote collapsed-stack profile to {path} ({} call paths, {} dropped)",
            profile.entries.len(),
            profile.dropped
        ));
    }
    if let Some(path) = obs_out {
        let label = format!(
            "repro {}{}",
            which.join(","),
            scale
                .as_ref()
                .map(|sc| format!(" --scale={sc}"))
                .unwrap_or_default()
        );
        let run_report = match write_report(path, label, &memory.events(), &profile) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return exitcode::CHECK_FAILED;
            }
        };
        if let Err(problems) = run_report.validate() {
            for p in &problems {
                obs::emit(Event::new(
                    Level::Warn,
                    "repro",
                    "report-incomplete",
                    p.clone(),
                ));
            }
        }
        progress(format!("wrote run report to {path}"));
        obs::flush();
    }
    exitcode::OK
}
