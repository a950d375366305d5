//! The repository benchmark.
//!
//! One program that drives the public library API the way
//! `repro table1`/`fig3-*` do — `Scenario::build`, a month through
//! `run_month` (or `run_month_checkpointed` with a stop and a resume),
//! then `table1`, `fig3_left` and `fig3_right` — on the serial default
//! (`Parallelism::serial()`). Each world (scenario seed) measured is one
//! operation, run in a child process of the benchmark binary, one at a
//! time; it fails when a call returns `Err` or an output check fails.
//!
//! With tracing off it reports the end-to-end metrics (`setup_s`,
//! `run_s`, `total_s`, `peak_rss_mb`). With tracing on, [`traced`]
//! re-drives the same pipeline through each layer's public functions
//! and reports the per-layer metrics. Why each workload exists, and
//! which end-to-end metric each per-layer metric should move, is in
//! `qsbench/README.md`.

pub mod mem;
mod traced;

use quicksand_bgp::{
    clean_session_resets, feed::fnv64, mrt, ChurnGenerator, CleaningConfig, UpdateLog,
};
use quicksand_core::experiments::{self, Fig3Left, Fig3Right, Table1};
use quicksand_core::{month_fnv, MonthResult, Scale, Scenario, ScenarioConfig};
use quicksand_net::{QuicksandError, SimTime};
use quicksand_recover::{CheckpointStore, HookAction, PipelineSnapshot, DEFAULT_RETAIN};
use quicksand_topology::TopologyGenerator;
use std::path::{Path, PathBuf};
use std::time::Instant;
use traced::{Phase, ResumePlan, Trace};

/// Why an operation failed.
pub type Failure = String;

/// The seed at which each tier's raw-log digest is pinned.
const PIN_SEED: u64 = 0xA11;

/// The `medium-resume` checkpoint period, in events.
const CHECKPOINT_EVERY: u64 = 100;

/// Scenario builds per untraced operation; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Never start another operation once this much of a run has passed,
/// so a run ends well inside its 180 s limit.
const LATEST_START_S: f64 = 120.0;

/// A benchmark workload. The names are cited by later changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Scale::Large`: build → `run_month` → table1 + fig3.
    LargeMonth,
    /// `Scale::Medium`: the same pipeline.
    MediumMonth,
    /// `Scale::Medium` through `run_month_checkpointed`: save every
    /// [`CHECKPOINT_EVERY`] events, stop at the midpoint, `load_latest`,
    /// resume to the end (still saving), then table1 + fig3.
    MediumResume,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::LargeMonth,
        Workload::MediumMonth,
        Workload::MediumResume,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeMonth => "large-month",
            Workload::MediumMonth => "medium-month",
            Workload::MediumResume => "medium-resume",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; `BENCHMARK.json` carries the same).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LargeMonth => {
                "large tier: the cold start (trees + link index) is most of run_s, the dump, \
                 cleaning and fig3 most of the rest, and peak memory is set here"
            }
            Workload::MediumMonth => {
                "medium tier: the per-event replay loop (apply/refresh/observe) is ~95% of \
                 run_s and the cold start is tens of ms"
            }
            Workload::MediumResume => {
                "medium tier saving a checkpoint every 100 events, stopped at the midpoint \
                 and resumed: the replay loop (apply/refresh/observe) plus the checkpoint \
                 cost, which shows nowhere else"
            }
        }
    }

    /// The tier it runs at; `smoke` shrinks every workload to small.
    pub fn scale(self, smoke: bool) -> Scale {
        match self {
            _ if smoke => Scale::Small,
            Workload::LargeMonth => Scale::Large,
            Workload::MediumMonth | Workload::MediumResume => Scale::Medium,
        }
    }

    fn resumes(self) -> bool {
        self == Workload::MediumResume
    }
}

/// The pinned `month_fnv` of each named tier at [`PIN_SEED`].
fn pinned_raw_fnv(scale: &Scale) -> Option<u64> {
    match scale {
        Scale::Small => Some(0x8b87_8e69_74f3_c613),
        Scale::Medium => Some(0xa3d7_13cd_9a6a_23f8),
        Scale::Large => Some(0x806a_81ba_517b_09c5),
        Scale::Custom(_) => None,
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Scenario seed: the same seed builds the same world and churn.
    pub seed: u64,
    /// Keep starting operations until this much time has passed.
    pub seconds: f64,
    /// Report per-layer metrics from traced runs instead of end-to-end ones.
    pub trace: bool,
    /// Run every workload at the small tier (tests).
    pub smoke: bool,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value (median over the run's operations).
    pub value: f64,
}

impl Metric {
    /// A metric named `name`, in `unit`.
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            value,
        }
    }
}

/// The sizes of one world (one scenario seed at the workload's tier).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct World {
    /// Scenario seed.
    pub seed: u64,
    /// Tier name.
    pub tier: String,
    /// ASes in the topology.
    pub ases: usize,
    /// Distinct origins of tracked prefixes (routing trees).
    pub origins: usize,
    /// Tracked prefixes (Tor + control).
    pub tracked_prefixes: usize,
    /// Collector sessions.
    pub sessions: usize,
    /// Churn events in the month.
    pub events: usize,
}

impl World {
    fn of(scenario: &Scenario, scale: &Scale) -> World {
        let tracked = scenario.tracked_prefixes();
        let mut origins: Vec<_> = tracked.values().copied().collect();
        origins.sort_unstable();
        origins.dedup();
        World {
            seed: scenario.config.seed,
            tier: scale.to_string(),
            ases: scenario.topo.graph.len(),
            origins: origins.len(),
            tracked_prefixes: tracked.len(),
            sessions: scenario.session_peers.len(),
            events: scenario.churn_schedule().len(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"seed\": {}, \"tier\": \"{}\", \"ases\": {}, \"origins\": {}, \
             \"tracked_prefixes\": {}, \"sessions\": {}, \"events\": {}}}",
            self.seed,
            self.tier,
            self.ases,
            self.origins,
            self.tracked_prefixes,
            self.sessions,
            self.events
        )
    }

    /// Parse [`World::json`]'s output.
    fn parse(json: &str) -> Option<World> {
        let field = |key: &str| -> Option<&str> {
            let rest = &json[json.find(&format!("\"{key}\": "))? + key.len() + 4..];
            let end = rest.find([',', '}'])?;
            Some(rest[..end].trim_matches('"'))
        };
        Some(World {
            seed: field("seed")?.parse().ok()?,
            tier: field("tier")?.to_string(),
            ases: field("ases")?.parse().ok()?,
            origins: field("origins")?.parse().ok()?,
            tracked_prefixes: field("tracked_prefixes")?.parse().ok()?,
            sessions: field("sessions")?.parse().ok()?,
            events: field("events")?.parse().ok()?,
        })
    }
}

/// What a run measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned `Err` or failed an output check.
    pub failed: u64,
    /// The failures, one line each.
    pub errors: Vec<String>,
    /// End-to-end metrics (tracing off) or per-layer metrics (tracing on),
    /// each the median over the operations.
    pub metrics: Vec<Metric>,
    /// The worlds measured.
    pub worlds: Vec<World>,
    /// Every passing operation: its world seed and its samples.
    pub ops: Vec<(u64, Vec<Metric>)>,
}

impl Outcome {
    /// True when every operation passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The host line printed with every result: CPU count, build
    /// profile, the invocation, and the sizes of every world measured.
    pub fn host_json(&self, opts: &Options) -> String {
        let worlds: Vec<String> = self.worlds.iter().map(World::json).collect();
        format!(
            "{{\"host\": {{\"cpus\": {}, \"profile\": \"{}\", \"workload\": \"{}\", \
             \"seed\": {}, \"trace\": {}, \"worlds\": [{}]}}}}",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            opts.workload.name(),
            opts.seed,
            opts.trace,
            worlds.join(", ")
        )
    }
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, read 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The analysis artifacts of a month.
pub(crate) struct Artifacts {
    /// `experiments::table1`.
    pub table1: Table1,
    /// `experiments::fig3_left`.
    pub fig3_left: Fig3Left,
    /// `experiments::fig3_right`.
    pub fig3_right: Fig3Right,
}

impl Artifacts {
    fn compute(s: &Scenario, month: &MonthResult) -> Artifacts {
        Artifacts {
            table1: experiments::table1(s, month),
            fig3_left: experiments::fig3_left(s, month),
            fig3_right: experiments::fig3_right(s, month),
        }
    }

    /// Check the artifacts against the scenario they were computed on.
    fn check(&self, s: &Scenario) -> Result<(), Failure> {
        let t = &self.table1;
        let unit = |x: f64| (0.0..=1.0).contains(&x);
        let checks = [
            (t.n_relays == s.consensus.len(), "table1 relay count"),
            (
                t.prefix_stats.n_prefixes == s.tor_prefixes.len(),
                "table1 Tor prefix count",
            ),
            (
                unit(t.mean_session_visibility)
                    && unit(t.max_session_visibility)
                    && t.mean_session_visibility <= t.max_session_visibility,
                "table1 session visibility",
            ),
            (
                t.median_prefixes_per_session <= t.max_prefixes_per_session
                    && t.max_prefixes_per_session <= s.tor_prefixes.len(),
                "table1 prefixes per session",
            ),
            (!self.fig3_left.ccdf.is_empty(), "fig3-left has no samples"),
            (
                unit(self.fig3_left.fraction_above_one),
                "fig3-left fraction",
            ),
            (
                !self.fig3_right.ccdf.is_empty(),
                "fig3-right has no samples",
            ),
            (
                unit(self.fig3_right.fraction_at_least_2)
                    && unit(self.fig3_right.fraction_above_5)
                    && self.fig3_right.fraction_above_5 <= self.fig3_right.fraction_at_least_2,
                "fig3-right fractions",
            ),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some((_, what)) => Err(format!("artifact check failed: {what}")),
            None => Ok(()),
        }
    }
}

/// A month's identity: digests of both logs plus the cleaning counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Digest {
    raw: u64,
    cleaned: u64,
    removed_duplicates: usize,
    reset_bursts: usize,
    horizon_end: SimTime,
}

fn log_fnv(log: &UpdateLog) -> u64 {
    let mut bytes = Vec::new();
    mrt::write_log(log, &mut bytes).expect("writing to a Vec cannot fail");
    fnv64(&bytes)
}

/// Check a month on its own — the pinned raw digest (at [`PIN_SEED`])
/// and, when `reclean` is set, that re-cleaning the raw log reproduces
/// the cleaned one — and return its digest.
fn check_month(month: &MonthResult, pin: Option<u64>, reclean: bool) -> Result<Digest, Failure> {
    let raw = month_fnv(month);
    if let Some(pin) = pin {
        if raw != pin {
            return Err(format!("raw log fnv {raw:#018x}, pinned {pin:#018x}"));
        }
    }
    if reclean {
        let (cleaned, removed, bursts) =
            clean_session_resets(&month.raw, &CleaningConfig::default());
        if cleaned != month.cleaned
            || removed != month.removed_duplicates
            || bursts != month.reset_bursts
        {
            return Err("re-cleaning the raw log does not reproduce the cleaned log".into());
        }
    }
    Ok(Digest {
        raw,
        cleaned: log_fnv(&month.cleaned),
        removed_duplicates: month.removed_duplicates,
        reset_bursts: month.reset_bursts,
        horizon_end: month.horizon_end,
    })
}

/// Wall times of one untraced operation, s, and its peak memory.
struct Timed {
    setup_s: f64,
    run_s: f64,
    total_s: f64,
    /// `VmHWM` at the end of the artifacts, before any check runs.
    peak_rss_mb: f64,
}

/// A checked untraced operation.
struct Untraced {
    timed: Timed,
    scenario: Scenario,
    digest: Digest,
}

/// Build → run → artifacts, untraced, timed. Nothing but the library
/// calls runs inside the timed span. `reclean` as in [`check_month`].
fn untraced(
    config: &ScenarioConfig,
    resume: Option<ResumePlan>,
    scratch: &Path,
    pin: Option<u64>,
    reclean: bool,
) -> Result<Untraced, Failure> {
    // `setup_s` is the median of several builds; the last one is used.
    let mut builds: Vec<f64> = Vec::with_capacity(SETUP_REPEATS);
    let mut scenario = None;
    for _ in 0..SETUP_REPEATS {
        drop(scenario.take());
        let started = Instant::now();
        scenario = Some(Scenario::build(config.clone()));
        builds.push(started.elapsed().as_secs_f64());
    }
    let scenario = scenario.expect("at least one build");
    builds.sort_by(f64::total_cmp);
    let setup_s = builds[builds.len() / 2];
    let run = Instant::now();
    let month = match resume {
        None => scenario.run_month().map_err(|e| e.to_string())?,
        Some(plan) => run_resumed(&scenario, plan, scratch)?,
    };
    let run_s = run.elapsed().as_secs_f64();
    let artifacts = Artifacts::compute(&scenario, &month);
    let total_s = setup_s + run.elapsed().as_secs_f64();
    let peak_rss_mb = mem::peak_rss_mb();

    let digest = check_month(&month, pin, reclean)?;
    artifacts.check(&scenario)?;
    Ok(Untraced {
        timed: Timed {
            setup_s,
            run_s,
            total_s,
            peak_rss_mb,
        },
        scenario,
        digest,
    })
}

/// The `medium-resume` run: checkpoint every `plan.every` events into a
/// fresh store in `dir`, stop at the first checkpoint at or past
/// `plan.stop_at`, `load_latest`, and resume to the end (still saving).
fn run_resumed(s: &Scenario, plan: ResumePlan, dir: &Path) -> Result<MonthResult, Failure> {
    let store = CheckpointStore::open(dir, DEFAULT_RETAIN).map_err(|e| e.to_string())?;
    let mut save_error = None;
    let first = s.run_month_checkpointed(
        None,
        plan.every,
        save_hook(&store, &mut save_error, plan.stop_at),
    );
    if let Some(e) = save_error {
        return Err(e);
    }
    match first {
        Err(QuicksandError::Interrupted { events_done }) if events_done >= plan.stop_at => {}
        Err(e) => return Err(e.to_string()),
        Ok(_) => return Err("the checkpointed leg ran past its stop".into()),
    }
    let (snap, _) = store
        .load_latest()
        .map_err(|e| e.to_string())?
        .ok_or("no checkpoint to resume from")?;
    let month = s
        .run_month_checkpointed(
            Some(&snap),
            plan.every,
            save_hook(&store, &mut save_error, u64::MAX),
        )
        .map_err(|e| e.to_string())?;
    match save_error {
        Some(e) => Err(e),
        None => Ok(month),
    }
}

/// A checkpoint hook saving every snapshot into `store` and stopping at
/// the first one at or past `stop_at` (or at the first failed save,
/// recorded in `error`).
fn save_hook<'a>(
    store: &'a CheckpointStore,
    error: &'a mut Option<Failure>,
    stop_at: u64,
) -> impl FnMut(&PipelineSnapshot) -> HookAction + 'a {
    move |snap| match store.save(snap) {
        Err(e) => {
            *error = Some(e.to_string());
            HookAction::Stop
        }
        Ok(_) if snap.cursor >= stop_at => HookAction::Stop,
        Ok(_) => HookAction::Continue,
    }
}

/// The per-layer metrics of a traced run.
/// The last one, `trace.run_s`, is the traced run part's wall time; the
/// parent process turns it into `trace.overhead_pct` against the
/// untraced run of the same world.
fn layer_metrics(trace: &Trace, compute_us: f64) -> Vec<Metric> {
    let t = &trace.tracer;
    let c = &trace.counts;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out: Vec<Metric> = Phase::ALL
        .iter()
        .map(|&p| Metric::new(p.metric(), "us", t.us(p)))
        .collect();
    let replay_us = t.us(Phase::Apply) + t.us(Phase::Refresh) + t.us(Phase::Observe);
    let mut push = |name: &str, unit: &str, value: f64| out.push(Metric::new(name, unit, value));
    push("routing.compute_us", "us", compute_us);
    push(
        "fast.index_us",
        "us",
        (t.us(Phase::ColdStart) - compute_us).max(0.0),
    );
    push("fast.origins", "count", c.origins as f64);
    push("fast.recomputes", "count", c.recomputes as f64);
    push("fast.changed_trees", "count", c.changed_trees as f64);
    push(
        "fast.useful_ratio",
        "ratio",
        ratio(c.changed_trees as f64, c.recomputes as f64),
    );
    push("churn.events", "count", c.events as f64);
    push("collector.records", "count", c.records as f64);
    push(
        "collector.cleaned_records",
        "count",
        c.cleaned_records as f64,
    );
    push("collector.dirty_pairs", "count", c.dirty_pairs as f64);
    push(
        "collector.clean_event_share",
        "ratio",
        ratio(c.clean_events as f64, c.events as f64),
    );
    push(
        "collector.records_per_dirty_pair",
        "ratio",
        ratio(c.event_records as f64, c.dirty_pairs as f64),
    );
    push(
        "replay.events_per_s",
        "1/s",
        ratio(c.events as f64, replay_us / 1e6),
    );
    push("recover.saves", "count", c.saves as f64);
    push("recover.save_bytes", "bytes", c.save_bytes as f64);
    push(
        "recover.bytes_per_new_record",
        "bytes",
        ratio(c.save_bytes as f64, c.saved_new_records as f64),
    );
    push("rss.setup_mb", "MB", c.rss_setup_mb);
    push("rss.cold_start_mb", "MB", c.rss_cold_start_mb);
    push("rss.dump_mb", "MB", c.rss_dump_mb);
    push("rss.replay_mb", "MB", c.rss_replay_mb);
    push("rss.analysis_mb", "MB", c.rss_analysis_mb);
    push(
        "alloc.cold_start",
        "count",
        t.allocs(Phase::ColdStart) as f64,
    );
    push("alloc.dump", "count", t.allocs(Phase::Dump) as f64);
    push("alloc.flush", "count", t.allocs(Phase::Flush) as f64);
    push("alloc.clean", "count", t.allocs(Phase::Clean) as f64);
    push(
        "alloc.per_event",
        "count",
        ratio(c.event_allocs as f64, c.events as f64),
    );
    push(
        "trace.coverage",
        "ratio",
        ratio(t.total_us() / 1e6, trace.wall_s),
    );
    push("trace.run_s", "s", trace.run_s);
    out
}

/// `n` candidate scenario seeds for a run at `seed`: `seed` itself,
/// then seeds derived from it (splitmix64 of `(seed, i)`).
fn candidate_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            if i == 0 {
                return seed;
            }
            let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// How many worlds a run measures, and from how many candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct WorldPlan {
    /// Worlds measured per pass.
    worlds: usize,
    /// Candidate seeds they are chosen from (`== worlds`: no choosing).
    candidates: usize,
}

impl WorldPlan {
    /// The plan of a workload. Few worlds, each measured several times:
    /// the host's speed drifts by tens of percent over seconds to
    /// minutes, and a world's fastest operation, taken over repeats
    /// spread across the run, is what drifts least.
    ///
    /// A traced run measures one world, the run's own seed (per-layer
    /// metrics have no bound). So does an untraced large run: one
    /// operation takes ~10 s, so a run has room for repeats of one
    /// world only. An untraced medium run measures 12 worlds at evenly
    /// spaced quantiles of churn volume among 64 candidates: single
    /// medium worlds differ widely in run time and memory (the churn
    /// generator's per-link failure rates are Pareto-tailed, so event
    /// counts range ~2.5k–6k), and quantile strata give every run the
    /// same spread of volumes.
    fn of(workload: Workload, trace: bool) -> WorldPlan {
        let (worlds, candidates) = match (trace, workload) {
            (true, _) | (false, Workload::LargeMonth) => (1, 1),
            (false, Workload::MediumMonth | Workload::MediumResume) => (12, 64),
        };
        WorldPlan { worlds, candidates }
    }
}

/// The churn events of the world at `seed` (topology + schedule only).
fn churn_events(scale: &Scale, seed: u64) -> usize {
    let config = ScenarioConfig::at_scale(scale, seed);
    let topo = TopologyGenerator::new(config.topology).generate();
    ChurnGenerator::new(config.churn)
        .generate(&topo.graph, &topo.hosting)
        .len()
}

/// The worlds a run measures: `plan.worlds` of the candidates, at
/// evenly spaced ranks by churn volume, always including the run's own
/// seed (in place of the pick nearest its rank), so the pinned digest
/// applies at [`PIN_SEED`] and the resume check runs on it.
fn select_worlds(opts: &Options) -> Vec<u64> {
    let plan = WorldPlan::of(opts.workload, opts.trace);
    let candidates = candidate_seeds(opts.seed, plan.candidates);
    if candidates.len() == plan.worlds {
        return candidates;
    }
    let scale = opts.workload.scale(opts.smoke);
    let mut by_volume: Vec<(usize, u64)> = candidates
        .iter()
        .map(|&s| (churn_events(&scale, s), s))
        .collect();
    by_volume.sort_unstable();
    let n = by_volume.len();
    let rank = |i: usize| (2 * i + 1) * n / (2 * plan.worlds);
    let mut picked: Vec<u64> = (0..plan.worlds).map(|i| by_volume[rank(i)].1).collect();
    if !picked.contains(&opts.seed) {
        let own = by_volume
            .iter()
            .position(|&(_, s)| s == opts.seed)
            .expect("the run's seed is candidate 0");
        let nearest = (0..plan.worlds)
            .min_by_key(|&i| rank(i).abs_diff(own))
            .expect("a plan measures at least one world");
        picked[nearest] = opts.seed;
    }
    picked
}

/// What one operation (one world, in its own process) reports.
#[derive(Clone, Debug, Default)]
pub struct OpReport {
    /// The world's sizes.
    pub world: Option<World>,
    /// End-to-end or per-layer samples of this world.
    pub metrics: Vec<Metric>,
    /// Digest of the month, for cross-pass determinism.
    pub digest: Option<String>,
    /// Why the operation failed, if it did.
    pub error: Option<Failure>,
}

/// Run one operation — one world at `world_seed` — in this process.
/// A `repeat` of a world already measured in the run skips the one-off
/// checks (re-cleaning, and the resume reference month); its month must
/// still equal the first operation's.
pub fn run_op(opts: &Options, world_seed: u64, repeat: bool) -> OpReport {
    let scale = opts.workload.scale(opts.smoke);
    let config = ScenarioConfig::at_scale(&scale, world_seed);
    let pin = if world_seed == PIN_SEED {
        pinned_raw_fnv(&scale)
    } else {
        None
    };
    let scratch = scratch_dir();
    let mut report = OpReport::default();
    let result = op(opts, &config, pin, repeat, &scratch, &mut report);
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(parent) = scratch.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(world) => report.world = world,
        Err(e) => report.error = Some(e),
    }
    report
}

impl OpReport {
    /// The report as the lines an operation process prints.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        if let Some(world) = &self.world {
            out += &format!("world {}\n", world.json());
        }
        for m in &self.metrics {
            out += &format!("sample {} {} {}\n", m.name, num(m.value), m.unit);
        }
        if let Some(digest) = &self.digest {
            out += &format!("digest {digest}\n");
        }
        if let Some(error) = &self.error {
            out += &format!("error {}\n", error.replace('\n', " "));
        }
        out
    }

    /// Parse [`OpReport::lines`]' output; unknown lines are ignored.
    fn parse(text: &str) -> OpReport {
        let mut report = OpReport::default();
        for line in text.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            match kind {
                "world" => report.world = World::parse(rest),
                "digest" => report.digest = Some(rest.to_string()),
                "error" => report.error = Some(rest.to_string()),
                "sample" => {
                    let parts: Vec<&str> = rest.split(' ').collect();
                    match (parts.as_slice(), parts.get(1).map(|v| v.parse::<f64>())) {
                        ([name, _, unit], Some(Ok(value))) => {
                            report.metrics.push(Metric::new(name, unit, value))
                        }
                        _ => report.error = Some(format!("unreadable sample `{line}`")),
                    }
                }
                _ => {}
            }
        }
        if report.error.is_none() && report.metrics.is_empty() {
            report.error = Some("the operation reported no samples".into());
        }
        report
    }
}

fn op(
    opts: &Options,
    config: &ScenarioConfig,
    pin: Option<u64>,
    repeat: bool,
    scratch: &Path,
    report: &mut OpReport,
) -> Result<Option<World>, Failure> {
    let scale = opts.workload.scale(opts.smoke);
    let resume = opts.workload.resumes().then(|| ResumePlan {
        every: CHECKPOINT_EVERY,
        stop_at: churn_events(&scale, config.seed) as u64 / 2,
    });
    if opts.trace {
        // Nothing else runs in this process first, so the RSS readings
        // and allocation counts are the re-drive's own.
        let built = Scenario::build(config.clone());
        let (peers, control) = (built.session_peers.clone(), built.control_origins.clone());
        drop(built);
        let trace = traced::traced_run(config, peers, control, resume, scratch)?;
        let digest = check_month(&trace.month, pin, true)?;
        trace.artifacts.check(&trace.scenario)?;
        let compute_us = traced::compute_probe(&trace.scenario)?;
        report.metrics = layer_metrics(&trace, compute_us);
        report.digest = Some(format!("{digest:?}"));
        return Ok(Some(World::of(&trace.scenario, &scale)));
    }
    let plain = untraced(config, resume, scratch, pin, !repeat)?;
    // On the run's own seed, a resumed month must equal the
    // uninterrupted one, run here after everything is measured.
    if resume.is_some() && config.seed == opts.seed && !repeat {
        let month = plain
            .scenario
            .run_month()
            .map_err(|e| format!("reference month: {e}"))?;
        if check_month(&month, pin, true)? != plain.digest {
            return Err("the resumed month differs from the uninterrupted one".into());
        }
    }
    let t = &plain.timed;
    report.metrics = vec![
        Metric::new("setup_s", "s", t.setup_s),
        Metric::new("run_s", "s", t.run_s),
        Metric::new("total_s", "s", t.total_s),
        Metric::new("peak_rss_mb", "MB", t.peak_rss_mb),
    ];
    report.digest = Some(format!("{:?}", plain.digest));
    // The run records each world's sizes from its first operation.
    Ok((!repeat).then(|| World::of(&plain.scenario, &scale)))
}

/// A traced operation: the untraced run and the traced re-drive of one
/// world, each in a fresh process so neither inherits the other's heap.
/// The re-drive's month must equal the untraced run's, and its run-part
/// wall time against the untraced `run_s` gives `trace.overhead_pct`.
fn spawn_traced_op(exe: &Path, opts: &Options, world: u64, repeat: bool) -> OpReport {
    let untraced = Options {
        trace: false,
        ..opts.clone()
    };
    let plain = spawn_op(exe, &untraced, world, repeat);
    if plain.error.is_some() {
        return plain;
    }
    let mut traced = spawn_op(exe, opts, world, repeat);
    if traced.error.is_none() && traced.digest != plain.digest {
        traced.error = Some("the traced re-drive's month differs from the untraced run's".into());
    }
    let sample =
        |r: &OpReport, name: &str| r.metrics.iter().find(|m| m.name == name).map(|m| m.value);
    match (sample(&traced, "trace.run_s"), sample(&plain, "run_s")) {
        (Some(traced_s), Some(plain_s)) if plain_s > 0.0 => {
            traced.metrics.retain(|m| m.name != "trace.run_s");
            let overhead = (traced_s / plain_s - 1.0) * 100.0;
            traced
                .metrics
                .push(Metric::new("trace.overhead_pct", "%", overhead));
        }
        _ if traced.error.is_none() => traced.error = Some("no run time to compare".into()),
        _ => {}
    }
    traced
}

/// Run a workload: one pass over its worlds, then more operations
/// round-robin while each should end within `opts.seconds` (judged by
/// that world's previous operation), each operation in a fresh process
/// (`exe --op <world seed> ...`, so each world's `VmHWM` is its own).
///
/// An untraced metric takes each world's fastest operation, then the
/// mean over worlds. Other processes on the host only ever slow an
/// operation down, and the fastest of repeats spread across the run is
/// what a burst of such load moves least. A traced metric (one world)
/// is the mean of its operations.
pub fn run(opts: &Options, exe: &Path) -> Outcome {
    let seeds = select_worlds(opts);
    let mut out = Outcome::default();
    let mut digests: Vec<Option<String>> = vec![None; seeds.len()];
    let mut samples: Vec<Vec<Vec<Metric>>> = vec![Vec::new(); seeds.len()];
    let mut last_s = vec![0.0f64; seeds.len()];
    let mut names: Option<Vec<String>> = None;
    let started = Instant::now();
    let mut longest_s = 0.0f64;
    for (n, (i, &world)) in seeds.iter().enumerate().cycle().enumerate() {
        let elapsed = started.elapsed().as_secs_f64();
        let repeat = n >= seeds.len();
        if (repeat && elapsed + last_s[i] > opts.seconds)
            || (n > 0 && elapsed + longest_s > LATEST_START_S)
        {
            break;
        }
        let op_started = Instant::now();
        out.attempted += 1;
        let report = if opts.trace {
            spawn_traced_op(exe, opts, world, repeat)
        } else {
            spawn_op(exe, opts, world, repeat)
        };
        last_s[i] = op_started.elapsed().as_secs_f64();
        longest_s = longest_s.max(last_s[i]);
        let reported: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
        let error = report
            .error
            .or_else(|| match (&digests[i], &report.digest) {
                (Some(a), Some(b)) if a != b => Some("month differs between operations".into()),
                (None, _) if repeat => {
                    Some("repeat of a world whose first operation failed".into())
                }
                _ if names.as_ref().is_some_and(|n| *n != reported) => {
                    Some("reported another set of metrics".into())
                }
                _ => None,
            });
        match error {
            Some(e) => {
                out.failed += 1;
                out.errors.push(format!("world {world:#x}: {e}"));
            }
            None => {
                digests[i] = report.digest;
                names = Some(reported);
                out.ops.push((world, report.metrics.clone()));
                samples[i].push(report.metrics);
            }
        }
        if !repeat {
            out.worlds.extend(report.world);
        }
    }
    let per_world: Vec<Vec<Metric>> = samples
        .iter()
        .filter_map(|s| per_metric(s, if opts.trace { mean } else { fastest }))
        .collect();
    out.metrics = per_metric(&per_world, mean).unwrap_or_default();
    out
}

/// Run one operation in a child process and collect its report.
fn spawn_op(exe: &Path, opts: &Options, world: u64, repeat: bool) -> OpReport {
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .args(["--op", &world.to_string()]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if repeat {
        cmd.arg("--repeat");
    }
    let output = match cmd.stderr(std::process::Stdio::inherit()).output() {
        Ok(output) => output,
        Err(e) => {
            return OpReport {
                error: Some(format!("cannot start the operation: {e}")),
                ..OpReport::default()
            }
        }
    };
    let mut report = OpReport::parse(&String::from_utf8_lossy(&output.stdout));
    if !output.status.success() && report.error.is_none() {
        report.error = Some(format!("operation exited with {}", output.status));
    }
    report
}

/// Per-metric `reduce` over samples that list the same metrics in the
/// same order; `None` for no samples.
fn per_metric(samples: &[Vec<Metric>], reduce: fn(&[f64]) -> f64) -> Option<Vec<Metric>> {
    let first = samples.first()?;
    Some(
        first
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let column: Vec<f64> = samples.iter().map(|s| s[i].value).collect();
                Metric {
                    value: reduce(&column),
                    ..m.clone()
                }
            })
            .collect(),
    )
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// A fresh scratch directory under the working directory (the
/// benchmark reads and writes only inside its checkout), unique per
/// process and per call.
fn scratch_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    static CALLS: AtomicU64 = AtomicU64::new(0);
    PathBuf::from(".qsbench_tmp").join(format!(
        "{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Relaxed)
    ))
}
