//! Route collectors: RIPE-RIS-style vantage points.
//!
//! The paper's dataset is "all BGP updates received by 4 RIPE collectors
//! (rrc00, rrc01, rrc03, rrc04) over more than 70 eBGP sessions during
//! May 2014", cleaned of session-reset artifacts per Zhang et al. \[31\].
//!
//! A [`Collector`] here peers with a set of ASes. Each session is either
//! a **full feed** (the peer exports its entire table, as it would to a
//! customer) or a **partial feed** (the peer exports only its own and
//! customer-learned routes, as it would to a lateral peer). Partial
//! feeds are why, in the paper, each Tor prefix was seen on only ~40% of
//! sessions: most RIS sessions are partial.
//!
//! Collectors record [`UpdateRecord`]s into an [`UpdateLog`]. Session
//! resets (scheduled per session) re-dump the peer's table, producing
//! exactly the duplicate-announcement bursts the paper had to remove;
//! [`clean_session_resets`] is that cleaning pass.

use crate::msg::{Route, UpdateMessage};
use crate::paths::{ExportCache, PathArena, PathId};
use quicksand_net::{AsPath, Asn, Ipv4Prefix, QsResult, QuicksandError, SimDuration, SimTime};
use quicksand_obs as obs;
use quicksand_topology::{AsGraph, RouteClass, RoutingTree};
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifies one eBGP session at one collector.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize,
)]
pub struct SessionId(pub u32);

/// What the session's peer exports to the collector.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum FeedKind {
    /// Customer-like export: the peer's full table.
    Full,
    /// Peer-like export: only origin/customer-learned routes.
    Partial,
}

/// One recorded BGP UPDATE at a collector session.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateRecord {
    /// When the update arrived.
    pub at: SimTime,
    /// The session it arrived on.
    pub session: SessionId,
    /// The update. Announce paths include the peer AS as first hop
    /// (the peer prepends itself when exporting), origin last.
    pub msg: UpdateMessage,
}

/// The table changes one observe computes for one session before any
/// state is applied: for each prefix whose recorded entry changes, the
/// new entry — `Some(id)` to insert or replace (an announcement),
/// `None` to remove (a withdrawal) — in the order the observe diffed
/// them. Paths are interned [`PathId`]s into the collector's
/// [`PathArena`].
type SessionOps = Vec<(Ipv4Prefix, Option<PathId>)>;

/// A time-ordered log of updates across all sessions of all collectors.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateLog {
    /// The records, sorted by `(at, session)` append order.
    pub records: Vec<UpdateRecord>,
}

impl UpdateLog {
    /// Total number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records exist.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Group records by `(session, prefix)`, preserving time order
    /// within each group.
    pub fn by_session_prefix(
        &self,
    ) -> BTreeMap<(SessionId, Ipv4Prefix), Vec<&UpdateRecord>> {
        let mut out: BTreeMap<(SessionId, Ipv4Prefix), Vec<&UpdateRecord>> =
            BTreeMap::new();
        for r in &self.records {
            out.entry((r.session, r.msg.prefix())).or_default().push(r);
        }
        out
    }

    /// The set of sessions that appear in the log.
    pub fn sessions(&self) -> Vec<SessionId> {
        let mut v: Vec<SessionId> = self.records.iter().map(|r| r.session).collect();
        v.sort();
        v.dedup();
        v
    }

    /// The set of prefixes ever seen on `session`.
    pub fn prefixes_on(&self, session: SessionId) -> Vec<Ipv4Prefix> {
        let mut v: Vec<Ipv4Prefix> = self
            .records
            .iter()
            .filter(|r| r.session == session)
            .map(|r| r.msg.prefix())
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

/// Configuration for collector construction.
#[derive(Clone, Debug)]
pub struct CollectorConfig {
    /// Fraction of sessions that are full feeds (RIS has a minority of
    /// full feeds; default 0.25).
    pub frac_full: f64,
    /// Mean number of session resets per session over the horizon.
    pub resets_per_session: f64,
    /// Schedule horizon for resets.
    pub horizon: SimDuration,
    /// RNG seed (feed kinds and reset schedule).
    pub seed: u64,
    /// First retry delay after a session goes down.
    pub retry_base: SimDuration,
    /// Cap on the exponential retry backoff.
    pub retry_cap: SimDuration,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            frac_full: 0.25,
            resets_per_session: 1.0,
            horizon: SimDuration::from_days(30),
            seed: 0x4415,
            retry_base: SimDuration::from_secs(30),
            retry_cap: SimDuration::from_hours(1),
        }
    }
}

/// One session's static description.
#[derive(Clone, Copy, Debug)]
pub struct SessionInfo {
    /// Session id.
    pub id: SessionId,
    /// The peer AS whose view the session exports.
    pub peer: Asn,
    /// Feed kind.
    pub kind: FeedKind,
}

/// One session's recorded table: `(prefix, path id)` entries sorted
/// ascending by prefix. The replay's access mix is merge-shaped — long
/// ascending probe runs from the diff, batched ascending writes from
/// the apply — where a flat sorted vec beats the pointer-chasing
/// `BTreeMap` it replaced, and iteration stays in the ascending prefix
/// order the log and checkpoint formats rely on.
#[derive(Clone, Debug, Default)]
struct FlatTable {
    entries: Vec<(Ipv4Prefix, PathId)>,
}

impl FlatTable {
    fn get(&self, prefix: &Ipv4Prefix) -> Option<PathId> {
        self.entries
            .binary_search_by(|e| e.0.cmp(prefix))
            .ok()
            .map(|i| self.entries[i].1)
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Index of the first entry of `table` with prefix `>= p`, by
/// exponential probing from the front. The diff walks ascending query
/// runs against the table with a moving cursor, so the answer is
/// usually within a step or two of the start — O(log distance) per
/// probe, O(n + m) over a whole lockstep run.
fn gallop(table: &[(Ipv4Prefix, PathId)], p: Ipv4Prefix) -> usize {
    let mut lo = 0usize;
    let mut step = 1usize;
    loop {
        let probe = lo + step;
        if probe > table.len() || table[probe - 1].0 >= p {
            break;
        }
        lo = probe;
        step <<= 1;
    }
    let hi = (lo + step).min(table.len());
    lo + table[lo..hi].partition_point(|e| e.0 < p)
}

/// A set of collector sessions that observes route changes and appends
/// them to an [`UpdateLog`].
///
/// Drive it by calling [`Collector::observe`] after every routing event
/// (and once at t=0 for the initial table dump): the collector diffs
/// each session's exported table against what it last recorded and
/// appends announcements/withdrawals. Scheduled session resets re-dump
/// tables, creating the duplicate-update artifacts the cleaning pass
/// removes.
#[derive(Debug)]
pub struct Collector {
    sessions: Vec<SessionInfo>,
    /// Last announced path per prefix, interned, one sorted table per
    /// session (parallel to `sessions`). Per-session tables keep the
    /// hot-path lookup short — the diff probes its own session's table
    /// millions of times per replay — while iteration stays in the
    /// ascending (session, prefix) order the log format relies on.
    state: Vec<FlatTable>,
    /// Arena of every distinct recorded path; `state` and the pending
    /// session ops refer into it, and records resolve through it on append.
    arena: PathArena,
    /// Per-session peer graph indices, memoized on the first
    /// [`Collector::refresh_exports`] call (parallel to `sessions`;
    /// empty until then). Node indices are stable for a graph's
    /// lifetime — link churn never renumbers nodes — so one resolution
    /// serves the whole replay.
    peer_idx: Vec<Option<usize>>,
    /// Reset schedule: sorted (time, session index).
    resets: Vec<(SimTime, usize)>,
    next_reset: usize,
    /// Per-session liveness (parallel to `sessions`).
    liveness: Vec<SessionState>,
    /// Indices of the sessions currently up, ascending — maintained on
    /// every up/down transition so the per-event observe reads a slice
    /// instead of rebuilding a `Vec`.
    live_idx: Vec<usize>,
    /// One reusable op buffer per session (slot `si` holds session
    /// `si`'s ops), lent out for each observe so per-event diffs reuse
    /// warm buffers instead of allocating.
    ops_scratch: Vec<SessionOps>,
    /// Reusable `(prefix, op seq, entry)` buffer for sorting a batch of
    /// table deltas in `apply_table_ops`.
    delta_scratch: Vec<(Ipv4Prefix, u32, Option<PathId>)>,
    /// Reusable rebuild target for the merge in `apply_table_ops`;
    /// swapped with the live table, so the two buffers ping-pong with
    /// no steady-state allocation.
    merge_scratch: Vec<(Ipv4Prefix, PathId)>,
    retry_base: SimDuration,
    retry_cap: SimDuration,
}

/// Liveness of one collector session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SessionState {
    Up,
    Down {
        since: SimTime,
        attempts: u32,
        next_retry: SimTime,
    },
}

/// Externalized liveness of one session, as captured in a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionLiveness {
    /// The session is established and recording.
    Up,
    /// The session is down and retrying with backoff.
    Down {
        /// When the outage started.
        since: SimTime,
        /// Failed reconnect attempts so far.
        attempts: u32,
        /// When the next reconnect attempt is due.
        next_retry: SimTime,
    },
}

/// The mutable mid-run state of a [`Collector`], detached from the
/// statically derivable parts (session roster and reset schedule, which
/// [`Collector::new`] regenerates from the same configuration seed).
/// Produced by [`Collector::export_state`], reapplied by
/// [`Collector::import_state`] — the collector section of a run
/// checkpoint.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CollectorState {
    /// Last announced path per live table entry: `(session index,
    /// prefix, path)`.
    pub routes: Vec<(u32, Ipv4Prefix, AsPath)>,
    /// How many scheduled resets have already fired.
    pub resets_done: u64,
    /// Per-session liveness, parallel to the session roster.
    pub liveness: Vec<SessionLiveness>,
}

impl Collector {
    /// Build a collector peering with `peers`. Feed kinds and the reset
    /// schedule are drawn deterministically from `config.seed`.
    ///
    /// Returns [`QuicksandError::InvalidConfig`] when `frac_full` is
    /// outside `[0, 1]`, `resets_per_session` is negative or non-finite,
    /// or resets are requested over an empty horizon.
    pub fn new(peers: &[Asn], config: &CollectorConfig) -> QsResult<Self> {
        if !(0.0..=1.0).contains(&config.frac_full) {
            return Err(QuicksandError::InvalidConfig {
                what: "frac_full",
                detail: format!("must be within [0, 1], got {}", config.frac_full),
            });
        }
        if !(config.resets_per_session >= 0.0 && config.resets_per_session.is_finite()) {
            return Err(QuicksandError::InvalidConfig {
                what: "resets_per_session",
                detail: format!(
                    "must be finite and >= 0, got {}",
                    config.resets_per_session
                ),
            });
        }
        if config.resets_per_session > 0.0 && config.horizon == SimDuration::ZERO {
            return Err(QuicksandError::InvalidConfig {
                what: "horizon",
                detail: "resets requested over an empty horizon".into(),
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let sessions: Vec<SessionInfo> = peers
            .iter()
            .enumerate()
            .map(|(i, &peer)| SessionInfo {
                id: SessionId(i as u32),
                peer,
                kind: if rng.gen_bool(config.frac_full) {
                    FeedKind::Full
                } else {
                    FeedKind::Partial
                },
            })
            .collect();
        // Poisson resets per session.
        let mut resets = Vec::new();
        let horizon_s = config.horizon.as_secs_f64();
        if config.resets_per_session > 0.0 {
            let mean_gap = horizon_s / config.resets_per_session;
            let exp = rand_distr::Exp::new(1.0 / mean_gap).map_err(|e| {
                QuicksandError::InvalidConfig {
                    what: "resets_per_session",
                    detail: format!("reset rate yields invalid exponential: {e}"),
                }
            })?;
            for (i, _) in sessions.iter().enumerate() {
                let mut t = rand_distr::Distribution::sample(&exp, &mut rng);
                while t < horizon_s {
                    resets.push((SimTime::ZERO + SimDuration::from_secs_f64(t), i));
                    t += rand_distr::Distribution::sample(&exp, &mut rng);
                }
            }
        }
        resets.sort();
        let liveness = vec![SessionState::Up; sessions.len()];
        let state = vec![FlatTable::default(); sessions.len()];
        let live_idx = (0..sessions.len()).collect();
        Ok(Collector {
            sessions,
            state,
            arena: PathArena::new(),
            peer_idx: Vec::new(),
            resets,
            next_reset: 0,
            liveness,
            live_idx,
            ops_scratch: Vec::new(),
            delta_scratch: Vec::new(),
            merge_scratch: Vec::new(),
            retry_base: config.retry_base,
            retry_cap: config.retry_cap,
        })
    }

    /// The sessions of this collector.
    pub fn sessions(&self) -> &[SessionInfo] {
        &self.sessions
    }

    /// The arena holding every distinct recorded path seen so far.
    pub fn arena(&self) -> &PathArena {
        &self.arena
    }

    /// Bring `cache` up to date for `tree`'s origin at every session
    /// peer of this collector, interning newly seen recorded paths into
    /// this collector's arena. The replay loop calls this for each
    /// origin whose tree changed before observing; epoch-unchanged
    /// entries return immediately.
    pub fn refresh_exports(
        &mut self,
        graph: &AsGraph,
        tree: &RoutingTree,
        cache: &mut ExportCache,
    ) {
        self.ensure_peer_idx(graph);
        for i in 0..self.sessions.len() {
            cache.refresh_at(
                graph,
                tree,
                self.sessions[i].peer,
                self.peer_idx[i],
                &mut self.arena,
            );
        }
    }

    /// [`Collector::refresh_exports`] that also reports *where* the
    /// refresh mattered: for every session whose `(origin, peer)`
    /// export **value** changed, pushes the origin onto that session's
    /// list in `dirty` (indexed by session, `len >= sessions`). The
    /// per-event observe then diffs exactly those (session, origin)
    /// pairs — an epoch bump that leaves a peer's export identical can
    /// produce no log record, so skipping it is invisible in the log.
    pub fn refresh_exports_dirty(
        &mut self,
        graph: &AsGraph,
        tree: &RoutingTree,
        cache: &mut ExportCache,
        dirty: &mut [Vec<Asn>],
    ) {
        debug_assert!(dirty.len() >= self.sessions.len());
        self.ensure_peer_idx(graph);
        let origin = tree.dest();
        for (i, d) in dirty.iter_mut().enumerate().take(self.sessions.len()) {
            let changed = cache.refresh_at(
                graph,
                tree,
                self.sessions[i].peer,
                self.peer_idx[i],
                &mut self.arena,
            );
            if changed {
                d.push(origin);
            }
        }
    }

    fn ensure_peer_idx(&mut self, graph: &AsGraph) {
        if self.peer_idx.len() != self.sessions.len() {
            self.peer_idx = self
                .sessions
                .iter()
                .map(|s| graph.index_of(s.peer))
                .collect();
        }
    }

    fn index_of(&self, id: SessionId) -> QsResult<usize> {
        let i = id.0 as usize;
        if i < self.sessions.len() && self.sessions[i].id == id {
            Ok(i)
        } else {
            Err(QuicksandError::UnknownSession(id.0))
        }
    }

    /// Is the session currently up?
    pub fn is_up(&self, id: SessionId) -> QsResult<bool> {
        Ok(matches!(self.liveness[self.index_of(id)?], SessionState::Up))
    }

    /// Number of sessions currently up.
    pub fn live_sessions(&self) -> usize {
        self.liveness
            .iter()
            .filter(|s| matches!(s, SessionState::Up))
            .count()
    }

    /// Mark a session down at `at` (peer unreachable, fault-injected
    /// outage, ...). While down the session records nothing; the
    /// collector retries with exponential backoff via
    /// [`Collector::try_reconnect`]. Marking an already-down session is
    /// a no-op (the original outage start is kept).
    pub fn session_down(&mut self, id: SessionId, at: SimTime) -> QsResult<()> {
        let i = self.index_of(id)?;
        if matches!(self.liveness[i], SessionState::Up) {
            self.liveness[i] = SessionState::Down {
                since: at,
                attempts: 0,
                next_retry: at + self.retry_base,
            };
            if let Ok(pos) = self.live_idx.binary_search(&i) {
                self.live_idx.remove(pos);
            }
            obs::incr("collector", "session_down", 1);
            obs::incr_session("collector", "session_down", id.0, 1);
        }
        Ok(())
    }

    /// Attempt to re-establish downed sessions whose retry timer has
    /// expired by `at`. `link_up` reports whether the underlying fault
    /// has cleared for a session; a failed attempt doubles the retry
    /// delay (capped at `retry_cap`). Recovered sessions forget their
    /// recorded table, so the next [`Collector::observe`] re-dumps it —
    /// the duplicate-announcement burst a real session re-establishment
    /// produces. Returns the sessions that came back up.
    pub fn try_reconnect(
        &mut self,
        at: SimTime,
        link_up: impl Fn(SessionId) -> bool,
    ) -> Vec<SessionId> {
        let mut recovered = Vec::new();
        for i in 0..self.sessions.len() {
            let SessionState::Down {
                since,
                attempts,
                next_retry,
            } = self.liveness[i]
            else {
                continue;
            };
            if next_retry > at {
                continue;
            }
            let id = self.sessions[i].id;
            obs::incr("collector", "reconnect_attempts", 1);
            if link_up(id) {
                self.liveness[i] = SessionState::Up;
                if let Err(pos) = self.live_idx.binary_search(&i) {
                    self.live_idx.insert(pos, i);
                }
                // Forget the session's table: the peer re-dumps on
                // re-establishment, so the next observe re-announces
                // every live route.
                self.state[i].clear();
                obs::incr("collector", "reconnects", 1);
                obs::incr_session("collector", "reconnects", id.0, 1);
                recovered.push(id);
            } else {
                // First retry comes retry_base after the drop; each
                // failure doubles the delay up to retry_cap.
                let backoff_s =
                    self.retry_base.as_secs_f64() * (2u64 << attempts.min(30)) as f64;
                let delay = SimDuration::from_secs_f64(
                    backoff_s.min(self.retry_cap.as_secs_f64()),
                );
                self.liveness[i] = SessionState::Down {
                    since,
                    attempts: attempts.saturating_add(1),
                    next_retry: at + delay,
                };
            }
        }
        recovered
    }

    /// How long `id` has been down as of `at` (zero when up).
    pub fn downtime(&self, id: SessionId, at: SimTime) -> QsResult<SimDuration> {
        Ok(match self.liveness[self.index_of(id)?] {
            SessionState::Up => SimDuration::ZERO,
            SessionState::Down { since, .. } => at.since(since),
        })
    }

    /// Capture the collector's mutable mid-run state (recorded tables,
    /// reset cursor, per-session liveness) for a checkpoint. The
    /// session roster and reset schedule are not captured: they are
    /// regenerated deterministically by [`Collector::new`] from the
    /// same peers and configuration.
    pub fn export_state(&self) -> CollectorState {
        let mut routes = Vec::new();
        for (si, table) in self.state.iter().enumerate() {
            for &(p, id) in &table.entries {
                routes.push((si as u32, p, self.arena.resolve(id).clone()));
            }
        }
        CollectorState {
            routes,
            resets_done: self.next_reset as u64,
            liveness: self
                .liveness
                .iter()
                .map(|s| match *s {
                    SessionState::Up => SessionLiveness::Up,
                    SessionState::Down {
                        since,
                        attempts,
                        next_retry,
                    } => SessionLiveness::Down {
                        since,
                        attempts,
                        next_retry,
                    },
                })
                .collect(),
        }
    }

    /// Restore state captured by [`Collector::export_state`] into a
    /// freshly built collector with the same peers and configuration.
    ///
    /// Returns [`QuicksandError::ResumeMismatch`] when the state does
    /// not fit this collector (wrong session count, a route referencing
    /// an unknown session, or a reset cursor beyond the schedule) —
    /// the symptom of resuming against a different configuration.
    pub fn import_state(&mut self, state: &CollectorState) -> QsResult<()> {
        if state.liveness.len() != self.sessions.len() {
            return Err(QuicksandError::ResumeMismatch {
                what: "sessions",
                detail: format!(
                    "checkpoint has {} sessions, collector has {}",
                    state.liveness.len(),
                    self.sessions.len()
                ),
            });
        }
        if state.resets_done as usize > self.resets.len() {
            return Err(QuicksandError::ResumeMismatch {
                what: "resets_done",
                detail: format!(
                    "checkpoint fired {} resets, schedule has {}",
                    state.resets_done,
                    self.resets.len()
                ),
            });
        }
        let mut tables: Vec<Vec<(Ipv4Prefix, u32, PathId)>> =
            vec![Vec::new(); self.sessions.len()];
        for (seq, (si, prefix, path)) in state.routes.iter().enumerate() {
            let si = *si as usize;
            if si >= self.sessions.len() {
                return Err(QuicksandError::ResumeMismatch {
                    what: "routes",
                    detail: format!("route on unknown session index {si}"),
                });
            }
            tables[si].push((*prefix, seq as u32, self.arena.intern(path.clone())));
        }
        self.state = tables
            .into_iter()
            .map(|mut v| {
                // Checkpoints written by `export_state` are already
                // sorted and duplicate-free; sorting by (prefix, input
                // order) with a last-wins collapse keeps the old
                // map-insert semantics for any well-typed input.
                v.sort_unstable_by_key(|&(p, s, _)| (p, s));
                let mut entries: Vec<(Ipv4Prefix, PathId)> = Vec::with_capacity(v.len());
                for (p, _, id) in v {
                    match entries.last_mut() {
                        Some(last) if last.0 == p => last.1 = id,
                        _ => entries.push((p, id)),
                    }
                }
                FlatTable { entries }
            })
            .collect();
        self.next_reset = state.resets_done as usize;
        self.liveness = state
            .liveness
            .iter()
            .map(|s| match *s {
                SessionLiveness::Up => SessionState::Up,
                SessionLiveness::Down {
                    since,
                    attempts,
                    next_retry,
                } => SessionState::Down {
                    since,
                    attempts,
                    next_retry,
                },
            })
            .collect();
        self.live_idx = (0..self.sessions.len())
            .filter(|&si| matches!(self.liveness[si], SessionState::Up))
            .collect();
        Ok(())
    }

    /// Observe the current routing state at time `at` and append any
    /// changes (plus any due session resets) to `log`.
    ///
    /// `exported` must return, for a peer AS and a prefix, the peer's
    /// current best route as `(path-after-peer, class)` — i.e. what
    /// `RoutingTree::as_path_at` yields — or `None` when unrouted. The
    /// collector applies the per-session feed filter and prepends the
    /// peer to recorded paths.
    pub fn observe<F>(
        &mut self,
        at: SimTime,
        prefixes: &[Ipv4Prefix],
        exported: F,
        log: &mut UpdateLog,
    ) where
        F: Fn(Asn, Ipv4Prefix) -> Option<(AsPath, RouteClass)>,
    {
        // Convenience form: pre-intern the recorded (peer-prepended)
        // path for every queried (peer, prefix) pair, then run the
        // interned observe against the resulting table. The replay hot
        // path skips this and calls [`Collector::observe_interned`]
        // with an [`ExportCache`]-backed closure directly.
        let peers: Vec<Asn> = self
            .live_idx
            .iter()
            .map(|&si| self.sessions[si].peer)
            .collect();
        let arena = &mut self.arena;
        let mut table: BTreeMap<(Asn, Ipv4Prefix), Option<(PathId, RouteClass)>> =
            BTreeMap::new();
        for &peer in &peers {
            for &prefix in prefixes {
                table.entry((peer, prefix)).or_insert_with(|| {
                    exported(peer, prefix)
                        .map(|(path, class)| (arena.intern(path.prepended(peer)), class))
                });
            }
        }
        self.observe_interned(
            at,
            prefixes,
            &|peer, pi| table.get(&(peer, prefixes[pi])).copied().flatten(),
            log,
        );
    }

    /// [`Collector::observe`] over pre-interned exports: `exported`
    /// yields, for a peer and an index into `prefixes`, the interned id
    /// of the *recorded* path (the peer-prepended path the session would
    /// log — the full peer→origin walk) plus the peer's route class,
    /// typically straight out of an [`ExportCache`]. Passing the index
    /// rather than the prefix lets callers answer from a slice aligned
    /// with `prefixes` instead of a per-query map lookup. Diffing
    /// compares path ids and touches no allocator.
    ///
    /// This is the full-scan reference: every live session diffs every
    /// prefix. The month replay observes through
    /// [`Collector::observe_dirty`] instead, which the dirty-set tests
    /// hold to this function record for record.
    pub fn observe_interned<F>(
        &mut self,
        at: SimTime,
        prefixes: &[Ipv4Prefix],
        exported: &F,
        log: &mut UpdateLog,
    ) where
        F: Fn(Asn, usize) -> Option<(PathId, RouteClass)>,
    {
        self.observe_with(at, log, |this, si, ops| {
            this.diff_session_into(si, prefixes, exported, ops);
        });
    }

    /// Observe at time `at` only the **dirty** part of the routing
    /// state: `dirty[si]` lists, ascending, the origins whose export
    /// toward session `si`'s peer changed since the last observe (as
    /// reported by [`Collector::refresh_exports_dirty`]), and
    /// `prefixes_of` maps an origin to its tracked prefixes (ascending;
    /// an origin's prefixes must not appear under another origin).
    /// `exported` answers `(peer, origin)` queries, typically
    /// [`ExportCache::get`]. With every tracked origin dirty for every
    /// session this is a full observe — the month replay's t=0 table
    /// dump and final flush.
    ///
    /// Produces byte-for-byte the records a full
    /// [`Collector::observe_interned`] over all tracked prefixes would
    /// append: a record is emitted only when a session's recorded entry
    /// changes, which requires that (origin, peer) export to have
    /// changed — membership in `dirty` — and clean origins' prefix runs
    /// diff to nothing. Record *order* matches only under an ordering
    /// invariant: the tracked origins' prefix lists, concatenated in
    /// ascending-origin order, must equal the ascending list of all
    /// tracked prefixes (the order the full scan walks). The generated
    /// scenarios satisfy it because AS *i* owns the /16 at graph index
    /// *i* and has ASN *i* + 1; the month replay asserts it.
    pub fn observe_dirty<'a, F, P>(
        &mut self,
        at: SimTime,
        dirty: &[Vec<Asn>],
        prefixes_of: &P,
        exported: &F,
        log: &mut UpdateLog,
    ) where
        F: Fn(Asn, Asn) -> Option<(PathId, RouteClass)>,
        P: Fn(Asn) -> &'a [Ipv4Prefix],
    {
        self.observe_with(at, log, |this, si, ops| {
            if !dirty[si].is_empty() {
                this.diff_dirty_into(si, &dirty[si], prefixes_of, exported, ops);
            }
        });
    }

    /// The frame every observe shares: emit the session resets due by
    /// `at`, let `diff` fill each live session's op slot against the
    /// pre-observe tables, apply the slots in ascending session order
    /// (the log order), and count the observation. The op buffers are
    /// borrowed from `ops_scratch` and returned warm.
    fn observe_with(
        &mut self,
        at: SimTime,
        log: &mut UpdateLog,
        mut diff: impl FnMut(&Self, usize, &mut SessionOps),
    ) {
        let _span = obs::prof::span("collector", "observe");
        let recorded_before = log.records.len();
        self.emit_due_resets(at, log);
        let mut ops = std::mem::take(&mut self.ops_scratch);
        ops.resize_with(self.sessions.len(), Vec::new);
        ops.iter_mut().for_each(Vec::clear);
        for &si in &self.live_idx {
            diff(self, si, &mut ops[si]);
        }
        self.apply_ops(at, &ops, log);
        self.ops_scratch = ops;
        let appended = log.records.len() - recorded_before;
        obs::incr("collector", "observe_calls", 1);
        obs::incr("collector", "records", appended as u64);
    }

    /// Emit every scheduled session reset due by `at` (re-dumping the
    /// session's recorded table into `log` at the reset's scheduled
    /// time) and advance the reset cursor. Runs before the diff —
    /// resets append in schedule order and read table state the diff
    /// may then change.
    fn emit_due_resets(&mut self, at: SimTime, log: &mut UpdateLog) {
        while self.next_reset < self.resets.len() && self.resets[self.next_reset].0 <= at
        {
            let (rt, si) = self.resets[self.next_reset];
            self.next_reset += 1;
            // A scheduled reset on a downed session is moot: the session
            // records nothing, and recovery re-dumps anyway.
            if !matches!(self.liveness[si], SessionState::Up) {
                continue;
            }
            let id = self.sessions[si].id;
            for &(prefix, pid) in &self.state[si].entries {
                log.records.push(UpdateRecord {
                    at: rt,
                    session: id,
                    msg: UpdateMessage::Announce(Route {
                        prefix,
                        as_path: self.arena.resolve(pid).clone(),
                        communities: Default::default(),
                    }),
                });
            }
        }
    }

    /// Diff the interned exports `exported` yields for `prefixes`
    /// against session `si`'s recorded table, pushing the entries that
    /// change onto `out` (empty on entry) and mutating nothing.
    /// `exported` must yield the *recorded* path id (peer-prepended, as
    /// [`Collector::observe_interned`] documents); the per-session feed
    /// filter is applied here. A prefix listed twice diffs against the
    /// pending entry its first occurrence produced, exactly as an
    /// in-place loop would.
    fn diff_session_into<F>(
        &self,
        si: usize,
        prefixes: &[Ipv4Prefix],
        exported: &F,
        out: &mut SessionOps,
    ) where
        F: Fn(Asn, usize) -> Option<(PathId, RouteClass)>,
    {
        let _span = obs::prof::span("collector", "diff_session");
        let info = &self.sessions[si];
        let table = &self.state[si].entries;
        // Queries usually arrive in long ascending runs (table dumps are
        // fully sorted); a moving cursor turns each run into a lockstep
        // merge instead of a per-query search of the whole table.
        let mut cursor = 0usize;
        let mut max_seen: Option<Ipv4Prefix> = None;
        for (pi, &prefix) in prefixes.iter().enumerate() {
            let now = exported(info.peer, pi).and_then(|(id, class)| {
                let visible = match info.kind {
                    FeedKind::Full => true,
                    FeedKind::Partial => {
                        matches!(class, RouteClass::Origin | RouteClass::Customer)
                    }
                };
                visible.then_some(id)
            });
            let prev = if max_seen.map_or(true, |m| m < prefix) {
                // Strictly above everything queried so far: this prefix
                // cannot repeat an earlier query, so there is no pending
                // op to overlay, and the answer sits at or right of the
                // cursor.
                max_seen = Some(prefix);
                let pos = cursor + gallop(&table[cursor..], prefix);
                let hit = pos < table.len() && table[pos].0 == prefix;
                cursor = if hit { pos + 1 } else { pos };
                hit.then(|| table[pos].1)
            } else {
                // Query order regressed. Duplicate prefixes in one call
                // must see their own effect: the latest not-yet-applied
                // op for this prefix overlays the table — `out`
                // mirrors the pending set exactly, since an op is pushed
                // iff the entry changes. The cursor no longer bounds the
                // search, so fall back to a full binary search.
                cursor = 0;
                match out.iter().rev().find(|&&(q, _)| q == prefix) {
                    Some(&(_, overlaid)) => overlaid,
                    None => self.state[si].get(&prefix),
                }
            };
            match (prev, now) {
                (None, None) => {}
                (Some(_), None) => out.push((prefix, None)),
                (prev, Some(id)) => {
                    if prev != Some(id) {
                        out.push((prefix, Some(id)));
                    }
                }
            }
        }
    }

    /// Dirty-set twin of `diff_session_into`: diff only the prefix runs
    /// of `dirty_origins` against session `si`'s table, probing
    /// `exported` once per origin (every prefix of an origin shares one
    /// export). Requirements, both guaranteed by the replay's
    /// `tracked_prefixes`-derived indexes: each `prefixes_of(origin)`
    /// slice is ascending, and no prefix appears under two origins.
    fn diff_dirty_into<'a, F, P>(
        &self,
        si: usize,
        dirty_origins: &[Asn],
        prefixes_of: &P,
        exported: &F,
        out: &mut SessionOps,
    ) where
        F: Fn(Asn, Asn) -> Option<(PathId, RouteClass)>,
        P: Fn(Asn) -> &'a [Ipv4Prefix],
    {
        let _span = obs::prof::span("collector", "diff_session");
        let info = &self.sessions[si];
        let table = &self.state[si].entries;
        for &origin in dirty_origins {
            let prefixes = prefixes_of(origin);
            if prefixes.is_empty() {
                continue;
            }
            let now = exported(info.peer, origin).and_then(|(id, class)| {
                let visible = match info.kind {
                    FeedKind::Full => true,
                    FeedKind::Partial => {
                        matches!(class, RouteClass::Origin | RouteClass::Customer)
                    }
                };
                visible.then_some(id)
            });
            let mut cursor = 0usize;
            for &prefix in prefixes {
                let pos = cursor + gallop(&table[cursor..], prefix);
                let hit = pos < table.len() && table[pos].0 == prefix;
                cursor = if hit { pos + 1 } else { pos };
                let prev = hit.then(|| table[pos].1);
                match (prev, now) {
                    (None, None) => {}
                    (Some(_), None) => out.push((prefix, None)),
                    (prev, Some(id)) => {
                        if prev != Some(id) {
                            out.push((prefix, Some(id)));
                        }
                    }
                }
            }
        }
    }

    /// Apply per-session diffs computed against the current
    /// (pre-apply) state, `ops[si]` holding session `si`'s: append one
    /// record per op at `at` in ascending session order, then merge the
    /// ops into the session's table.
    fn apply_ops(&mut self, at: SimTime, ops: &[SessionOps], log: &mut UpdateLog) {
        for (si, ops) in ops.iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            let sid = self.sessions[si].id;
            for &(prefix, entry) in ops {
                match entry {
                    None => log.records.push(UpdateRecord {
                        at,
                        session: sid,
                        msg: UpdateMessage::Withdraw(prefix),
                    }),
                    Some(id) => log.records.push(UpdateRecord {
                        at,
                        session: sid,
                        msg: UpdateMessage::Announce(Route {
                            prefix,
                            as_path: self.arena.resolve(id).clone(),
                            communities: Default::default(),
                        }),
                    }),
                }
            }
            self.apply_table_ops(si, ops);
        }
    }

    /// Apply one session's ops to its flat table as a batch merge.
    /// Replacements of existing entries update in place; once an op
    /// inserts or removes, the remainder is handled by sorting the ops
    /// `(prefix, seq)` (later ops on a duplicate prefix win) and
    /// two-pointer merging table and ops into a reused scratch buffer —
    /// O(n + k log k) for k ops instead of k O(n) `Vec` shifts.
    fn apply_table_ops(&mut self, si: usize, ops: &[(Ipv4Prefix, Option<PathId>)]) {
        let table = &mut self.state[si].entries;
        let mut needs_merge = false;
        for (i, &(prefix, entry)) in ops.iter().enumerate() {
            match (entry, table.binary_search_by(|e| e.0.cmp(&prefix))) {
                (Some(id), Ok(pos)) => table[pos].1 = id,
                _ => {
                    // Insert or remove: fall to the merge path for this
                    // and all remaining ops. In-place replacements done
                    // so far are safe — the merge re-applies the same
                    // last-wins values over the updated table.
                    self.delta_scratch.clear();
                    self.delta_scratch
                        .extend(ops[i..].iter().enumerate().map(|(j, &(p, e))| (p, j as u32, e)));
                    needs_merge = true;
                    break;
                }
            }
        }
        if !needs_merge {
            return;
        }
        self.delta_scratch.sort_unstable_by_key(|&(p, seq, _)| (p, seq));
        let merged = &mut self.merge_scratch;
        merged.clear();
        let mut ti = 0usize;
        let mut j = 0usize;
        while j < self.delta_scratch.len() {
            // Collapse the equal-prefix group to its last op (last wins).
            let prefix = self.delta_scratch[j].0;
            while j + 1 < self.delta_scratch.len() && self.delta_scratch[j + 1].0 == prefix {
                j += 1;
            }
            let entry = self.delta_scratch[j].2;
            j += 1;
            while ti < table.len() && table[ti].0 < prefix {
                merged.push(table[ti]);
                ti += 1;
            }
            if ti < table.len() && table[ti].0 == prefix {
                ti += 1; // superseded by the op
            }
            if let Some(id) = entry {
                merged.push((prefix, id));
            }
        }
        merged.extend_from_slice(&table[ti..]);
        std::mem::swap(table, merged);
    }
}

/// Configuration for [`clean_session_resets`].
#[derive(Clone, Debug)]
pub struct CleaningConfig {
    /// Window within which a burst of duplicate announcements on one
    /// session is attributed to a session reset (reported, not used for
    /// removal — duplicates are removed wherever they occur, as they
    /// carry no routing change).
    pub burst_window: SimDuration,
    /// Fraction of a session's table that must re-announce within the
    /// window to report a reset.
    pub table_fraction: f64,
}

impl Default for CleaningConfig {
    fn default() -> Self {
        CleaningConfig {
            burst_window: SimDuration::from_secs(120),
            table_fraction: 0.5,
        }
    }
}

/// Remove session-reset artifacts from an update log (the paper's
/// Zhang-et-al. \[31\] cleaning step).
///
/// A reset re-dumps the peer's table: every record in the dump announces
/// the same AS path the session had already recorded, so it is a
/// *duplicate announcement* carrying no routing change. Cleaning removes
/// every duplicate announcement (per session and prefix, an announce
/// whose AS path equals the previous announce with no intervening
/// withdraw). Returns the cleaned log, the number of removed records,
/// and the number of detected reset bursts (for reporting).
pub fn clean_session_resets(
    log: &UpdateLog,
    config: &CleaningConfig,
) -> (UpdateLog, usize, usize) {
    let mut last_path: BTreeMap<(SessionId, Ipv4Prefix), Option<AsPath>> = BTreeMap::new();
    let mut cleaned = UpdateLog::default();
    let mut removed = 0usize;
    // For burst reporting: per session, timestamps of removed duplicates.
    let mut dup_times: BTreeMap<SessionId, Vec<SimTime>> = BTreeMap::new();
    // Table size estimate per session: distinct prefixes seen so far.
    let mut table: BTreeMap<SessionId, std::collections::BTreeSet<Ipv4Prefix>> =
        BTreeMap::new();

    for r in &log.records {
        let key = (r.session, r.msg.prefix());
        table.entry(r.session).or_default().insert(r.msg.prefix());
        match &r.msg {
            UpdateMessage::Announce(route) => {
                let prev = last_path.get(&key);
                if prev == Some(&Some(route.as_path.clone())) {
                    removed += 1;
                    dup_times.entry(r.session).or_default().push(r.at);
                    continue;
                }
                last_path.insert(key, Some(route.as_path.clone()));
            }
            UpdateMessage::Withdraw(_) => {
                let prev = last_path.get(&key);
                if prev == Some(&None) || prev.is_none() {
                    removed += 1;
                    continue;
                }
                last_path.insert(key, None);
            }
        }
        cleaned.records.push(r.clone());
    }

    // Burst detection for reporting: sliding window over duplicate
    // timestamps per session.
    let mut bursts = 0usize;
    for (session, mut times) in dup_times {
        times.sort();
        let table_size = table.get(&session).map_or(0, |t| t.len());
        let threshold =
            ((table_size as f64) * config.table_fraction).ceil().max(1.0) as usize;
        let mut i = 0usize;
        while i < times.len() {
            let mut j = i;
            while j < times.len()
                && times[j].since(times[i]) <= config.burst_window
            {
                j += 1;
            }
            if j - i >= threshold {
                bursts += 1;
                i = j;
            } else {
                i += 1;
            }
        }
    }

    obs::incr("collector", "cleaned_duplicates", removed as u64);
    obs::incr("collector", "cleaned_bursts", bursts as u64);
    (cleaned, removed, bursts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn path(v: &[u32]) -> AsPath {
        v.iter().map(|&a| Asn(a)).collect()
    }

    fn announce(at_s: u64, sess: u32, prefix: &str, asns: &[u32]) -> UpdateRecord {
        UpdateRecord {
            at: SimTime::from_secs(at_s),
            session: SessionId(sess),
            msg: UpdateMessage::Announce(Route {
                prefix: p(prefix),
                as_path: path(asns),
                communities: Default::default(),
            }),
        }
    }

    fn withdraw(at_s: u64, sess: u32, prefix: &str) -> UpdateRecord {
        UpdateRecord {
            at: SimTime::from_secs(at_s),
            session: SessionId(sess),
            msg: UpdateMessage::Withdraw(p(prefix)),
        }
    }

    #[test]
    fn log_grouping() {
        let log = UpdateLog {
            records: vec![
                announce(0, 0, "10.0.0.0/8", &[1, 2]),
                announce(5, 1, "10.0.0.0/8", &[3, 2]),
                announce(9, 0, "11.0.0.0/8", &[1, 4]),
            ],
        };
        let g = log.by_session_prefix();
        assert_eq!(g.len(), 3);
        assert_eq!(log.sessions(), vec![SessionId(0), SessionId(1)]);
        assert_eq!(
            log.prefixes_on(SessionId(0)),
            vec![p("10.0.0.0/8"), p("11.0.0.0/8")]
        );
    }

    #[test]
    fn cleaning_removes_duplicates_keeps_changes() {
        let log = UpdateLog {
            records: vec![
                announce(0, 0, "10.0.0.0/8", &[1, 2]),
                announce(10, 0, "10.0.0.0/8", &[1, 2]), // duplicate (reset)
                announce(20, 0, "10.0.0.0/8", &[1, 3]), // genuine change
                withdraw(30, 0, "10.0.0.0/8"),
                withdraw(31, 0, "10.0.0.0/8"), // duplicate withdraw
                announce(40, 0, "10.0.0.0/8", &[1, 3]), // genuine re-announce
            ],
        };
        let (cleaned, removed, _bursts) =
            clean_session_resets(&log, &CleaningConfig::default());
        assert_eq!(removed, 2);
        assert_eq!(cleaned.len(), 4);
        // Withdraw with no prior announce is also an artifact.
        let log2 = UpdateLog {
            records: vec![withdraw(0, 0, "10.0.0.0/8")],
        };
        let (cleaned2, removed2, _) =
            clean_session_resets(&log2, &CleaningConfig::default());
        assert_eq!(removed2, 1);
        assert!(cleaned2.is_empty());
    }

    #[test]
    fn collector_diffs_and_filters_partial_feeds() {
        // Two peers: peer 10 full feed, peer 20 partial (force kinds by
        // seed search below).
        let config = CollectorConfig {
            frac_full: 0.0, // all partial
            resets_per_session: 0.0,
            ..Default::default()
        };
        let mut coll = Collector::new(&[Asn(10)], &config).unwrap();
        assert_eq!(coll.sessions()[0].kind, FeedKind::Partial);
        let prefix = p("10.0.0.0/8");
        let mut log = UpdateLog::default();
        // Peer has a provider route: invisible on partial feed.
        coll.observe(
            SimTime::from_secs(0),
            &[prefix],
            |_, _| Some((path(&[2, 3]), RouteClass::Provider)),
            &mut log,
        );
        assert!(log.is_empty());
        // Route becomes customer-learned: appears (with peer prepended).
        coll.observe(
            SimTime::from_secs(10),
            &[prefix],
            |_, _| Some((path(&[7, 3]), RouteClass::Customer)),
            &mut log,
        );
        assert_eq!(log.len(), 1);
        match &log.records[0].msg {
            UpdateMessage::Announce(r) => {
                assert_eq!(r.as_path, path(&[10, 7, 3]));
            }
            _ => panic!("expected announce"),
        }
        // Same route again: no duplicate.
        coll.observe(
            SimTime::from_secs(20),
            &[prefix],
            |_, _| Some((path(&[7, 3]), RouteClass::Customer)),
            &mut log,
        );
        assert_eq!(log.len(), 1);
        // Route back to provider class: withdrawal on partial feed.
        coll.observe(
            SimTime::from_secs(30),
            &[prefix],
            |_, _| Some((path(&[2, 3]), RouteClass::Provider)),
            &mut log,
        );
        assert_eq!(log.len(), 2);
        assert!(log.records[1].msg.is_withdraw());
    }

    #[test]
    fn full_feed_sees_everything() {
        let config = CollectorConfig {
            frac_full: 1.0,
            resets_per_session: 0.0,
            ..Default::default()
        };
        let mut coll = Collector::new(&[Asn(10)], &config).unwrap();
        assert_eq!(coll.sessions()[0].kind, FeedKind::Full);
        let mut log = UpdateLog::default();
        coll.observe(
            SimTime::from_secs(0),
            &[p("10.0.0.0/8")],
            |_, _| Some((path(&[2, 3]), RouteClass::Provider)),
            &mut log,
        );
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn invalid_config_rejected_with_typed_error() {
        let config = CollectorConfig {
            frac_full: 1.5,
            ..Default::default()
        };
        let err = Collector::new(&[Asn(10)], &config).unwrap_err();
        assert!(matches!(
            err,
            quicksand_net::QuicksandError::InvalidConfig { what: "frac_full", .. }
        ));
        let config = CollectorConfig {
            resets_per_session: -1.0,
            ..Default::default()
        };
        assert!(Collector::new(&[Asn(10)], &config).is_err());
        let config = CollectorConfig {
            resets_per_session: 1.0,
            horizon: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(Collector::new(&[Asn(10)], &config).is_err());
    }

    #[test]
    fn downed_session_records_nothing_and_redumps_on_recovery() {
        let config = CollectorConfig {
            frac_full: 1.0,
            resets_per_session: 0.0,
            ..Default::default()
        };
        let mut coll = Collector::new(&[Asn(10)], &config).unwrap();
        let prefix = p("10.0.0.0/8");
        let mut log = UpdateLog::default();
        let route = |_: Asn, _: Ipv4Prefix| Some((path(&[2, 3]), RouteClass::Customer));
        coll.observe(SimTime::from_secs(0), &[prefix], route, &mut log);
        assert_eq!(log.len(), 1);

        // Session drops: nothing is recorded while down.
        coll.session_down(SessionId(0), SimTime::from_secs(100)).unwrap();
        assert!(!coll.is_up(SessionId(0)).unwrap());
        assert_eq!(coll.live_sessions(), 0);
        coll.observe(
            SimTime::from_secs(200),
            &[prefix],
            |_, _| Some((path(&[9, 3]), RouteClass::Customer)),
            &mut log,
        );
        assert_eq!(log.len(), 1, "downed session must stay silent");

        // First retry fires after retry_base; the link is still dead,
        // so the delay doubles.
        let t1 = SimTime::from_secs(100) + config.retry_base;
        assert!(coll.try_reconnect(t1, |_| false).is_empty());
        let t2 = t1 + config.retry_base;
        // Next retry is 2 * retry_base after t1; at t1 + base it is not
        // due yet.
        assert!(coll.try_reconnect(t2, |_| true).is_empty());
        let t3 = t1 + config.retry_base + config.retry_base;
        let recovered = coll.try_reconnect(t3, |_| true);
        assert_eq!(recovered, vec![SessionId(0)]);
        assert!(coll.is_up(SessionId(0)).unwrap());
        assert_eq!(coll.downtime(SessionId(0), t3).unwrap(), SimDuration::ZERO);

        // Recovery re-dumps: the unchanged route is re-announced (a
        // duplicate burst the cleaning pass removes).
        coll.observe(SimTime::from_secs(1000), &[prefix], route, &mut log);
        assert_eq!(log.len(), 2);
        let (cleaned, removed, _) =
            clean_session_resets(&log, &CleaningConfig::default());
        assert_eq!(removed, 1);
        assert_eq!(cleaned.len(), 1);
    }

    #[test]
    fn unknown_session_is_a_typed_error() {
        let config = CollectorConfig {
            resets_per_session: 0.0,
            ..Default::default()
        };
        let mut coll = Collector::new(&[Asn(10)], &config).unwrap();
        let err = coll.session_down(SessionId(7), SimTime::ZERO).unwrap_err();
        assert_eq!(err, quicksand_net::QuicksandError::UnknownSession(7));
        assert!(coll.is_up(SessionId(7)).is_err());
    }

    #[test]
    fn backoff_caps_at_retry_cap() {
        let config = CollectorConfig {
            resets_per_session: 0.0,
            retry_base: SimDuration::from_secs(30),
            retry_cap: SimDuration::from_secs(120),
            ..Default::default()
        };
        let mut coll = Collector::new(&[Asn(10)], &config).unwrap();
        coll.session_down(SessionId(0), SimTime::ZERO).unwrap();
        // Fail many retries; the gap between attempts never exceeds the
        // cap, so a retry must fire within every cap-sized window.
        let mut t = SimTime::ZERO + config.retry_base;
        for _ in 0..10 {
            coll.try_reconnect(t, |_| false);
            t += config.retry_cap;
        }
        // The link heals: the next cap-window retry picks it up.
        let recovered = coll.try_reconnect(t + config.retry_cap, |_| true);
        assert_eq!(recovered, vec![SessionId(0)]);
    }

    #[test]
    fn resets_redump_table_and_cleaning_detects_burst() {
        let config = CollectorConfig {
            frac_full: 1.0,
            resets_per_session: 3.0,
            horizon: SimDuration::from_days(1),
            seed: 42,
            ..Default::default()
        };
        let mut coll = Collector::new(&[Asn(10)], &config).unwrap();
        let prefixes: Vec<Ipv4Prefix> =
            vec![p("10.0.0.0/8"), p("11.0.0.0/8"), p("12.0.0.0/8")];
        let mut log = UpdateLog::default();
        coll.observe(
            SimTime::from_secs(0),
            &prefixes,
            |_, q| Some((path(&[2, q.network_u32() >> 24]), RouteClass::Customer)),
            &mut log,
        );
        let initial = log.len();
        assert_eq!(initial, 3);
        // Observe again at end of horizon: resets in between re-dump.
        coll.observe(
            SimTime::ZERO + SimDuration::from_days(1),
            &prefixes,
            |_, q| Some((path(&[2, q.network_u32() >> 24]), RouteClass::Customer)),
            &mut log,
        );
        assert!(log.len() > initial, "resets should emit duplicates");
        let (cleaned, removed, bursts) =
            clean_session_resets(&log, &CleaningConfig::default());
        assert_eq!(cleaned.len(), 3);
        assert_eq!(removed, log.len() - 3);
        assert!(bursts >= 1);
    }
}
