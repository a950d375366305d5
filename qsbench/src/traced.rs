//! The traced run: the month pipeline re-driven through each layer's
//! public functions, with the benchmark's own timers, allocation
//! counts and RSS readings around every call.
//!
//! [`traced_leg`] follows the call order of `Scenario::run_month_impl`
//! exactly — `FastConverge::new`, the t=0 `refresh_exports` +
//! `observe_interned` dump, per event `apply` / `refresh_exports_dirty`
//! / `observe_dirty`, checkpoint snapshots, the final flush and
//! `clean_session_resets` — so its raw log must equal `run_month`'s.
//! It is the only copy of the replay loop here: a change to the
//! library's replay path is mirrored in this one function.

use crate::{mem, Failure};
use quicksand_bgp::{
    clean_session_resets, CleaningConfig, Collector, ExportCache, FastConverge, LinkChange,
    UpdateLog,
};
use quicksand_core::{experiments, MonthResult, Scenario, ScenarioConfig};
use quicksand_net::{Asn, Ipv4Prefix, SimTime};
use quicksand_obs as obs;
use quicksand_recover::{CheckpointStore, MetricsState, PipelineSnapshot, DEFAULT_RETAIN};
use quicksand_topology::{RoutingTree, TopologyGenerator};
use quicksand_tor::{map_tor_prefixes, AddressPlan, ConsensusGenerator};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// The timed phases of a traced run. Together they should cover the
/// traced wall time (`trace.coverage`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// `TopologyGenerator::generate`.
    TopologyGenerate,
    /// `AddressPlan::generate`.
    TorPlan,
    /// `ConsensusGenerator::generate` + `map_tor_prefixes`.
    TorConsensus,
    /// Tracked-prefix index and `Collector::new` before the cold start.
    RunPrep,
    /// `FastConverge::new`: every routing tree plus the link→tree index.
    ColdStart,
    /// `Scenario::churn_schedule`.
    ChurnGenerate,
    /// The t=0 table dump: full refresh + `observe_interned`.
    Dump,
    /// Per event: `FastConverge::apply`.
    Apply,
    /// Per event: `Collector::refresh_exports_dirty` over changed trees.
    Refresh,
    /// Per event: `Collector::observe_dirty`.
    Observe,
    /// Building a `PipelineSnapshot` (clones the whole log).
    Snapshot,
    /// `CheckpointStore::save`.
    Save,
    /// `CheckpointStore::load_latest`.
    Load,
    /// Resume: down-link replay, `import_state`, cache re-warm, log copy.
    Restore,
    /// The final flush: full refresh + `observe_interned` at horizon end.
    Flush,
    /// `clean_session_resets`.
    Clean,
    /// `experiments::table1`.
    Table1,
    /// `experiments::fig3_left` + `experiments::fig3_right`.
    Fig3,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 18] = [
        Phase::TopologyGenerate,
        Phase::TorPlan,
        Phase::TorConsensus,
        Phase::RunPrep,
        Phase::ColdStart,
        Phase::ChurnGenerate,
        Phase::Dump,
        Phase::Apply,
        Phase::Refresh,
        Phase::Observe,
        Phase::Snapshot,
        Phase::Save,
        Phase::Load,
        Phase::Restore,
        Phase::Flush,
        Phase::Clean,
        Phase::Table1,
        Phase::Fig3,
    ];

    /// The per-layer metric reporting this phase's wall time.
    pub fn metric(self) -> &'static str {
        match self {
            Phase::TopologyGenerate => "topology.generate_us",
            Phase::TorPlan => "tor.plan_us",
            Phase::TorConsensus => "tor.consensus_us",
            Phase::RunPrep => "run.prep_us",
            Phase::ColdStart => "fast.cold_start_us",
            Phase::ChurnGenerate => "churn.generate_us",
            Phase::Dump => "collector.dump_us",
            Phase::Apply => "fast.apply_us",
            Phase::Refresh => "collector.refresh_us",
            Phase::Observe => "collector.observe_us",
            Phase::Snapshot => "recover.snapshot_us",
            Phase::Save => "recover.save_us",
            Phase::Load => "recover.load_us",
            Phase::Restore => "recover.restore_us",
            Phase::Flush => "collector.flush_us",
            Phase::Clean => "collector.clean_us",
            Phase::Table1 => "experiments.table1_us",
            Phase::Fig3 => "experiments.fig3_us",
        }
    }
}

/// Accumulated wall time and allocations per phase.
#[derive(Debug, Default)]
pub struct Tracer {
    us: [f64; Phase::ALL.len()],
    allocs: [u64; Phase::ALL.len()],
}

impl Tracer {
    /// Run `f` as (another slice of) `phase`.
    pub fn phase<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let allocs = mem::allocs();
        let started = Instant::now();
        let out = f();
        self.us[phase as usize] += started.elapsed().as_secs_f64() * 1e6;
        self.allocs[phase as usize] += mem::allocs() - allocs;
        out
    }

    /// Total wall time of `phase`, µs.
    pub fn us(&self, phase: Phase) -> f64 {
        self.us[phase as usize]
    }

    /// Total allocations made during `phase`.
    pub fn allocs(&self, phase: Phase) -> u64 {
        self.allocs[phase as usize]
    }

    /// Σ of every phase's wall time, µs.
    pub fn total_us(&self) -> f64 {
        self.us.iter().sum()
    }
}

/// Work counts and memory readings of a traced run, summed over legs.
#[derive(Debug, Default)]
pub struct Counts {
    /// Tracked origins (routing trees).
    pub origins: u64,
    /// Tree reconvergences run by the replay loop.
    pub recomputes: u64,
    /// Trees the replay loop actually changed.
    pub changed_trees: u64,
    /// Churn events replayed.
    pub events: u64,
    /// Events whose refresh dirtied no (session, origin) pair.
    pub clean_events: u64,
    /// (session, origin) pairs dirtied by per-event refreshes.
    pub dirty_pairs: u64,
    /// Records appended by per-event observes.
    pub event_records: u64,
    /// Allocations inside the replay loop (apply + refresh + observe).
    pub event_allocs: u64,
    /// Raw log records at the end.
    pub records: u64,
    /// Cleaned log records at the end.
    pub cleaned_records: u64,
    /// Checkpoints saved.
    pub saves: u64,
    /// Bytes written by those saves.
    pub save_bytes: u64,
    /// Records appended to the log between consecutive saves, summed.
    pub saved_new_records: u64,
    /// RSS after setup, the cold start, the dump, the replay loop and
    /// the analysis, MB (the last leg's reading where there are two).
    pub rss_setup_mb: f64,
    /// See [`Counts::rss_setup_mb`].
    pub rss_cold_start_mb: f64,
    /// See [`Counts::rss_setup_mb`].
    pub rss_dump_mb: f64,
    /// See [`Counts::rss_setup_mb`].
    pub rss_replay_mb: f64,
    /// See [`Counts::rss_setup_mb`].
    pub rss_analysis_mb: f64,
}

/// Where a checkpointed traced leg saves, and when it stops.
pub struct Checkpoints<'a> {
    /// The store saves go to.
    pub store: &'a CheckpointStore,
    /// Save after every `every` events.
    pub every: u64,
    /// Stop after the first save at or past this cursor.
    pub stop_at: Option<u64>,
}

/// How a traced leg ended.
pub enum Leg {
    /// Stopped at a checkpoint (`Checkpoints::stop_at`).
    Stopped,
    /// Ran to the end of the month.
    Finished(MonthResult),
}

/// The checkpoint/resume plan of the `medium-resume` workload.
#[derive(Clone, Copy, Debug)]
pub struct ResumePlan {
    /// Checkpoint period, in events.
    pub every: u64,
    /// The first leg stops at the first checkpoint at or past this cursor.
    pub stop_at: u64,
}

/// A finished traced run.
pub struct Trace {
    /// Per-phase times and allocations.
    pub tracer: Tracer,
    /// Work counts and RSS readings.
    pub counts: Counts,
    /// Wall time of the whole traced run (setup, run, analysis), s.
    pub wall_s: f64,
    /// Wall time of the run part, comparable to the untraced `run_s`, s.
    pub run_s: f64,
    /// The month it produced.
    pub month: MonthResult,
    /// The scenario it assembled.
    pub scenario: Scenario,
    /// The artifacts it computed.
    pub artifacts: crate::Artifacts,
}

/// Re-drive the whole workload — setup, run (with the resume plan, if
/// any), analysis — timing every phase. `session_peers` and
/// `control_origins` are those `Scenario::build` samples, with private
/// code, from the same configuration.
pub fn traced_run(
    config: &ScenarioConfig,
    session_peers: Vec<Asn>,
    control_origins: Vec<Asn>,
    resume: Option<ResumePlan>,
    scratch: &Path,
) -> Result<Trace, Failure> {
    let mut t = Tracer::default();
    let mut c = Counts::default();
    let wall = Instant::now();

    let topo = t.phase(Phase::TopologyGenerate, || {
        TopologyGenerator::new(config.topology.clone()).generate()
    });
    let plan = t.phase(Phase::TorPlan, || {
        AddressPlan::generate(&topo.graph, &topo.hosting, &config.plan)
    });
    let (consensus, tor_prefixes) = t.phase(Phase::TorConsensus, || {
        let asns: Vec<Asn> = topo.graph.asns().collect();
        let consensus =
            ConsensusGenerator::new(config.consensus.clone()).generate(&plan, &topo.hosting, &asns);
        let tor_prefixes = map_tor_prefixes(&consensus, &plan.table);
        (consensus, tor_prefixes)
    });
    let scenario = Scenario {
        config: config.clone(),
        topo,
        plan,
        consensus,
        tor_prefixes,
        session_peers,
        control_origins,
    };
    c.rss_setup_mb = mem::rss_mb();

    let run = Instant::now();
    let month = match resume {
        None => match traced_leg(&scenario, &mut t, &mut c, None, None)? {
            Leg::Finished(month) => month,
            Leg::Stopped => return Err("a leg without checkpoints stopped".into()),
        },
        Some(plan) => {
            let store = CheckpointStore::open(scratch, DEFAULT_RETAIN).map_err(fail)?;
            let mut ckpt = Checkpoints {
                store: &store,
                every: plan.every,
                stop_at: Some(plan.stop_at),
            };
            if let Leg::Finished(_) = traced_leg(&scenario, &mut t, &mut c, None, Some(&ckpt))? {
                return Err("the checkpointed leg ran past its stop".into());
            }
            let (snap, _) = t
                .phase(Phase::Load, || store.load_latest())
                .map_err(fail)?
                .ok_or("no checkpoint to resume from")?;
            ckpt.stop_at = None;
            match traced_leg(&scenario, &mut t, &mut c, Some(&snap), Some(&ckpt))? {
                Leg::Finished(month) => month,
                Leg::Stopped => return Err("the resumed leg stopped".into()),
            }
        }
    };
    let run_s = run.elapsed().as_secs_f64();

    let table1 = t.phase(Phase::Table1, || experiments::table1(&scenario, &month));
    let (fig3_left, fig3_right) = t.phase(Phase::Fig3, || {
        (
            experiments::fig3_left(&scenario, &month),
            experiments::fig3_right(&scenario, &month),
        )
    });
    c.rss_analysis_mb = mem::rss_mb();
    let wall_s = wall.elapsed().as_secs_f64();

    Ok(Trace {
        tracer: t,
        counts: c,
        wall_s,
        run_s,
        month,
        scenario,
        artifacts: crate::Artifacts {
            table1,
            fig3_left,
            fig3_right,
        },
    })
}

/// One replay leg, mirroring `Scenario::run_month_impl`: from t=0 (or
/// from `resume`) to the end of the month, or to the checkpoint where
/// `ckpt` says to stop.
pub fn traced_leg(
    s: &Scenario,
    t: &mut Tracer,
    c: &mut Counts,
    resume: Option<&PipelineSnapshot>,
    ckpt: Option<&Checkpoints>,
) -> Result<Leg, Failure> {
    let (all_prefixes, all_origin_of, prefixes_by_origin, mut collector) =
        t.phase(Phase::RunPrep, || -> Result<_, Failure> {
            let tracked = s.tracked_prefixes();
            let mut by_origin: BTreeMap<Asn, Vec<Ipv4Prefix>> = BTreeMap::new();
            for (p, o) in &tracked {
                by_origin.entry(*o).or_default().push(*p);
            }
            let prefixes: Vec<Ipv4Prefix> = tracked.keys().copied().collect();
            let origin_of: Vec<Asn> = tracked.values().copied().collect();
            let collector = Collector::new(&s.session_peers, &s.config.collector).map_err(fail)?;
            Ok((prefixes, origin_of, by_origin, collector))
        })?;
    let all_origins: Vec<Asn> = prefixes_by_origin.keys().copied().collect();

    let mut fc = t.phase(Phase::ColdStart, || {
        FastConverge::new(s.topo.graph.clone(), all_origins.iter().copied())
    });
    c.origins = fc.origins().count() as u64;
    c.rss_cold_start_mb = mem::rss_mb();

    let mut cache = ExportCache::new();
    let refresh_all = |fc: &FastConverge, collector: &mut Collector, cache: &mut ExportCache| {
        for &o in &all_origins {
            if let Some(tree) = fc.tree(o) {
                collector.refresh_exports(fc.graph(), tree, cache);
            }
        }
    };
    let (mut log, cursor) = match resume {
        Some(snap) => {
            if snap.config_hash != s.config_hash() {
                return Err("checkpoint belongs to another scenario".into());
            }
            let log = t.phase(Phase::Restore, || -> Result<UpdateLog, Failure> {
                for &(a, b) in &snap.down_links {
                    fc.apply(LinkChange::down(a, b));
                }
                collector.import_state(&snap.collector).map_err(fail)?;
                refresh_all(&fc, &mut collector, &mut cache);
                Ok(snap.log.clone())
            })?;
            (log, snap.cursor)
        }
        None => {
            let mut log = UpdateLog::default();
            t.phase(Phase::Dump, || {
                refresh_all(&fc, &mut collector, &mut cache);
                let exported = |peer: Asn, pi: usize| cache.get(all_origin_of[pi], peer);
                collector.observe_interned(SimTime::ZERO, &all_prefixes, &exported, &mut log);
            });
            (log, 0)
        }
    };
    c.rss_dump_mb = mem::rss_mb();

    let events = t.phase(Phase::ChurnGenerate, || s.churn_schedule());
    if cursor as usize > events.len() {
        return Err(format!(
            "checkpoint at event {cursor}, schedule has {}",
            events.len()
        ));
    }
    let prefixes_of = |o: Asn| prefixes_by_origin.get(&o).map_or(&[][..], |v| v.as_slice());
    let mut dirty: Vec<Vec<Asn>> = vec![Vec::new(); s.session_peers.len()];
    let recomputes_before = fc.recomputes;
    let mut saved_len = log.len();
    for (i, ev) in events.iter().enumerate().skip(cursor as usize) {
        let allocs = mem::allocs();
        let affected = t.phase(Phase::Apply, || fc.apply(ev.change));
        c.changed_trees += affected.len() as u64;
        for d in dirty.iter_mut() {
            d.clear();
        }
        if !affected.is_empty() {
            t.phase(Phase::Refresh, || {
                for &o in &affected {
                    if let Some(tree) = fc.tree(o) {
                        collector.refresh_exports_dirty(fc.graph(), tree, &mut cache, &mut dirty);
                    }
                }
            });
        }
        let pairs: usize = dirty.iter().map(Vec::len).sum();
        c.dirty_pairs += pairs as u64;
        if pairs == 0 {
            c.clean_events += 1;
        } else {
            let before = log.len();
            t.phase(Phase::Observe, || {
                let exported = |peer: Asn, origin: Asn| cache.get(origin, peer);
                collector.observe_dirty(ev.at, &dirty, &prefixes_of, &exported, &mut log);
            });
            c.event_records += (log.len() - before) as u64;
        }
        c.event_allocs += mem::allocs() - allocs;
        c.events += 1;

        let done = i as u64 + 1;
        let Some(ckpt) = ckpt else { continue };
        if !done.is_multiple_of(ckpt.every) {
            continue;
        }
        // The snapshot `Scenario::run_month_impl` hands its hook.
        let snap = t.phase(Phase::Snapshot, || PipelineSnapshot {
            config_hash: s.config_hash(),
            seed: s.config.seed,
            cursor: done,
            down_links: fc.down_links().to_vec(),
            collector: collector.export_state(),
            log: log.clone(),
            monitor: None,
            metrics: MetricsState::capture(&obs::metrics()),
        });
        let path = t
            .phase(Phase::Save, || ckpt.store.save(&snap))
            .map_err(fail)?;
        c.saves += 1;
        c.save_bytes += std::fs::metadata(&path).map_err(fail)?.len();
        c.saved_new_records += (log.len() - saved_len) as u64;
        saved_len = log.len();
        if ckpt.stop_at.is_some_and(|stop| done >= stop) {
            c.recomputes += fc.recomputes - recomputes_before;
            return Ok(Leg::Stopped);
        }
    }
    c.recomputes += fc.recomputes - recomputes_before;
    c.rss_replay_mb = mem::rss_mb();

    let horizon_end = s.horizon_end();
    t.phase(Phase::Flush, || {
        refresh_all(&fc, &mut collector, &mut cache);
        let exported = |peer: Asn, pi: usize| cache.get(all_origin_of[pi], peer);
        collector.observe_interned(horizon_end, &all_prefixes, &exported, &mut log);
    });
    let (cleaned, removed_duplicates, reset_bursts) = t.phase(Phase::Clean, || {
        clean_session_resets(&log, &CleaningConfig::default())
    });
    c.records = log.len() as u64;
    c.cleaned_records = cleaned.len() as u64;
    Ok(Leg::Finished(MonthResult {
        raw: log,
        cleaned,
        removed_duplicates,
        reset_bursts,
        horizon_end,
    }))
}

/// The `routing.compute_us` probe: `RoutingTree::compute` toward every
/// tracked origin, timed on its own (outside the traced phases), µs.
pub fn compute_probe(s: &Scenario) -> Result<f64, Failure> {
    let origins: BTreeSet<Asn> = s.tracked_prefixes().values().copied().collect();
    let started = Instant::now();
    for o in origins {
        let tree = RoutingTree::compute(&s.topo.graph, o).ok_or("tracked origin not in graph")?;
        std::hint::black_box(tree);
    }
    Ok(started.elapsed().as_secs_f64() * 1e6)
}

fn fail(e: impl std::fmt::Display) -> Failure {
    e.to_string()
}
