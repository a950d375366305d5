//! Fault injection for collector feeds.
//!
//! The paper's dataset (§4) is whatever four RIPE collectors happened to
//! record: real feeds drop updates, duplicate them across resets, arrive
//! out of order, carry skewed timestamps, and go dark when sessions flap
//! or a whole collector is down for maintenance. This module makes those
//! degradations first-class and *deterministic*, so the detection
//! pipeline's behaviour under a degraded feed can be swept and asserted
//! on:
//!
//! * [`FaultProfile`] — the knob set: drop/duplicate/reorder rates,
//!   per-session clock skew, session flaps (down → table re-dump on
//!   recovery, the same artifact [`crate::clean_session_resets`]
//!   removes), and whole-collector outage windows.
//! * [`FaultInjector`] — applies a profile to an [`UpdateLog`],
//!   returning the degraded log plus a [`FaultReport`] tally.
//! * [`FaultedFeed`] — a streaming adapter over any
//!   `Iterator<Item = UpdateRecord>` applying the record-level faults
//!   (drop / duplicate / skew / bounded reorder) on the fly.
//!
//! Every decision is a pure function of `(seed, session, record index)`
//! via a splitmix64 hash — no RNG state threads through the stream, so
//! identical inputs produce identical degraded logs regardless of how
//! the records are batched.

use crate::collector::{SessionId, UpdateLog, UpdateRecord};
use crate::msg::{Route, UpdateMessage};
use quicksand_net::{AsPath, Ipv4Prefix, QsResult, QuicksandError, SimDuration, SimTime};
use quicksand_obs as obs;
use std::collections::BTreeMap;

/// What faults to inject and how hard. All rates are probabilities in
/// `[0, 1]`; a [`FaultProfile::clean`] profile is the identity.
#[derive(Clone, Debug)]
pub struct FaultProfile {
    /// Per-record probability a record is silently lost.
    pub drop_rate: f64,
    /// Per-record probability a record is delivered twice.
    pub dup_rate: f64,
    /// Per-record probability a record is delayed (reordered).
    pub reorder_rate: f64,
    /// Maximum delay applied to a reordered record.
    pub max_reorder: SimDuration,
    /// Maximum per-session clock skew. Each session gets a fixed offset
    /// drawn uniformly from `[0, clock_skew]` added to its timestamps.
    pub clock_skew: SimDuration,
    /// Expected number of session flaps per session over the log's time
    /// span. During a flap the session is dark; on recovery the peer
    /// re-dumps its table (duplicate-announcement burst).
    pub flaps_per_session: f64,
    /// How long each flap keeps the session dark.
    pub flap_outage: SimDuration,
    /// Whole-collector outage windows: nothing is recorded on any
    /// session inside `[start, start + duration)`; every session
    /// re-dumps at the window end.
    pub collector_outages: Vec<(SimTime, SimDuration)>,
    /// Explicitly scripted per-session outages (in addition to the
    /// seeded flaps): the session is dark inside `[start, start +
    /// duration)` and re-dumps at the window end. Lets chaos tests pin
    /// down exactly which sessions are dark when.
    pub session_outages: Vec<(SessionId, SimTime, SimDuration)>,
    /// Seed for all fault decisions.
    pub seed: u64,
}

impl FaultProfile {
    /// The identity profile: no faults injected.
    pub fn clean(seed: u64) -> Self {
        FaultProfile {
            drop_rate: 0.0,
            dup_rate: 0.0,
            reorder_rate: 0.0,
            max_reorder: SimDuration::from_secs(30),
            clock_skew: SimDuration::ZERO,
            flaps_per_session: 0.0,
            flap_outage: SimDuration::from_mins(10),
            collector_outages: Vec::new(),
            session_outages: Vec::new(),
            seed,
        }
    }

    /// A profile whose rates scale with `intensity` in `[0, 1]`: at
    /// intensity 1.0, 30% drops, 20% duplicates, 20% reorders, 2 flaps
    /// per session, and up to a minute of clock skew. Used by the chaos
    /// sweep.
    pub fn with_intensity(intensity: f64, seed: u64) -> Self {
        let x = intensity.clamp(0.0, 1.0);
        FaultProfile {
            drop_rate: 0.3 * x,
            dup_rate: 0.2 * x,
            reorder_rate: 0.2 * x,
            max_reorder: SimDuration::from_secs(30),
            clock_skew: SimDuration::from_secs_f64(60.0 * x),
            flaps_per_session: 2.0 * x,
            flap_outage: SimDuration::from_mins(10),
            collector_outages: Vec::new(),
            session_outages: Vec::new(),
            seed,
        }
    }

    /// Validate all parameters, returning a typed error for the first
    /// one out of range.
    pub fn validate(&self) -> QsResult<()> {
        for (what, v) in [
            ("drop_rate", self.drop_rate),
            ("dup_rate", self.dup_rate),
            ("reorder_rate", self.reorder_rate),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(QuicksandError::InvalidConfig {
                    what,
                    detail: format!("must be within [0, 1], got {v}"),
                });
            }
        }
        if !(self.flaps_per_session >= 0.0 && self.flaps_per_session.is_finite()) {
            return Err(QuicksandError::InvalidConfig {
                what: "flaps_per_session",
                detail: format!("must be finite and >= 0, got {}", self.flaps_per_session),
            });
        }
        Ok(())
    }
}

/// What the injector actually did, for reporting alongside results.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Records silently dropped (drop_rate).
    pub dropped: usize,
    /// Records delivered twice (dup_rate).
    pub duplicated: usize,
    /// Records delayed out of order (reorder_rate).
    pub reordered: usize,
    /// Records lost to session flaps or collector outages.
    pub outage_dropped: usize,
    /// Flap windows injected, as (session, dark-from).
    pub flaps: Vec<(SessionId, SimTime)>,
    /// Re-dump records emitted on flap/outage recovery.
    pub redump_records: usize,
    /// Sessions whose clock was skewed (nonzero offset).
    pub skewed_sessions: usize,
}

impl FaultReport {
    /// Total records removed from the feed (drops plus outage losses).
    pub fn total_lost(&self) -> usize {
        self.dropped + self.outage_dropped
    }
}

/// Splitmix64: the per-decision hash behind all fault draws.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A uniform f64 in [0, 1) from a hash of the given words.
fn unit(seed: u64, a: u64, b: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(a ^ splitmix64(b)));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Fault decision domains, kept distinct so the draws are independent.
const DOM_DROP: u64 = 0x01;
const DOM_DUP: u64 = 0x02;
const DOM_REORDER: u64 = 0x03;
const DOM_REORDER_BY: u64 = 0x04;
const DOM_SKEW: u64 = 0x05;
const DOM_FLAP: u64 = 0x06;
const DOM_CONN_AT: u64 = 0x07;

/// Applies a [`FaultProfile`] to whole logs.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    profile: FaultProfile,
}

impl FaultInjector {
    /// Build an injector, validating the profile.
    pub fn new(profile: FaultProfile) -> QsResult<Self> {
        profile.validate()?;
        Ok(FaultInjector { profile })
    }

    /// The profile in use.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// This session's fixed clock-skew offset.
    fn skew_of(&self, session: SessionId) -> SimDuration {
        if self.profile.clock_skew == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let u = unit(self.profile.seed, DOM_SKEW, session.0 as u64);
        SimDuration::from_secs_f64(u * self.profile.clock_skew.as_secs_f64())
    }

    /// Deterministic flap windows for `session` within `[start, end)`:
    /// exponential gaps with mean `span / flaps_per_session`, drawn from
    /// a per-session splitmix stream.
    fn flap_windows(
        &self,
        session: SessionId,
        start: SimTime,
        end: SimTime,
    ) -> Vec<(SimTime, SimTime)> {
        let span = end.since(start).as_secs_f64();
        if self.profile.flaps_per_session <= 0.0 || span <= 0.0 {
            return Vec::new();
        }
        let mean_gap = span / self.profile.flaps_per_session;
        let mut windows = Vec::new();
        let mut state = splitmix64(self.profile.seed ^ splitmix64(DOM_FLAP ^ session.0 as u64));
        let mut t = 0.0f64;
        loop {
            state = splitmix64(state);
            let u = (state >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            t += -(1.0 - u).ln() * mean_gap;
            if t >= span {
                break;
            }
            let from = start + SimDuration::from_secs_f64(t);
            windows.push((from, from + self.profile.flap_outage));
            t += self.profile.flap_outage.as_secs_f64();
        }
        windows
    }

    /// Apply the profile to `log`, returning the degraded log and a
    /// report of what was injected.
    ///
    /// Record-level faults (drop, duplicate, reorder) are decided per
    /// `(session, index-within-session)`, so the outcome is independent
    /// of how records interleave across sessions. Flap and collector
    /// outage windows drop everything inside them; at each window's end
    /// the affected sessions re-dump their last pre-window table — the
    /// same duplicate-burst artifact real session resets produce, which
    /// [`crate::clean_session_resets`] is designed to remove.
    pub fn apply(&self, log: &UpdateLog) -> (UpdateLog, FaultReport) {
        let _span = obs::prof::span("collector", "fault");
        let mut report = FaultReport::default();
        if log.is_empty() {
            return (UpdateLog::default(), report);
        }
        let p = &self.profile;
        let start = log.records.iter().map(|r| r.at).min().unwrap_or(SimTime::ZERO);
        let end = log.records.iter().map(|r| r.at).max().unwrap_or(SimTime::ZERO);

        // Dark windows per session (flaps), plus collector-wide windows.
        let sessions = log.sessions();
        let mut dark: BTreeMap<SessionId, Vec<(SimTime, SimTime)>> = BTreeMap::new();
        for &s in &sessions {
            let mut w = self.flap_windows(s, start, end);
            for &(from, _) in &w {
                report.flaps.push((s, from));
            }
            for &(from, dur) in &p.collector_outages {
                w.push((from, from + dur));
            }
            for &(sid, from, dur) in &p.session_outages {
                if sid == s {
                    w.push((from, from + dur));
                }
            }
            w.sort();
            dark.insert(s, w);
        }

        // Recovery events: (window end, session) → re-dump.
        let mut recoveries: Vec<(SimTime, SessionId)> = dark
            .iter()
            .flat_map(|(&s, ws)| ws.iter().map(move |&(_, to)| (to, s)))
            .collect();
        recoveries.sort();
        recoveries.dedup();

        let in_dark = |s: SessionId, at: SimTime| -> bool {
            dark.get(&s)
                .is_some_and(|ws| ws.iter().any(|&(from, to)| at >= from && at < to))
        };

        // Pre-fault per-(session, prefix) table, maintained while
        // scanning so recoveries can re-dump the peer's live routes.
        let mut table: BTreeMap<(SessionId, Ipv4Prefix), AsPath> = BTreeMap::new();
        let mut per_session_idx: BTreeMap<SessionId, u64> = BTreeMap::new();
        let mut out: Vec<UpdateRecord> = Vec::with_capacity(log.len());
        let mut next_recovery = 0usize;

        let mut skewed = std::collections::BTreeSet::new();

        for r in &log.records {
            // Flush recoveries due before this record: re-dump the
            // session's table as duplicate announcements.
            while next_recovery < recoveries.len() && recoveries[next_recovery].0 <= r.at {
                let (rt, s) = recoveries[next_recovery];
                next_recovery += 1;
                let dump: Vec<(Ipv4Prefix, AsPath)> = table
                    .range((s, Ipv4Prefix::from_u32(0, 0))..)
                    .take_while(|((sid, _), _)| *sid == s)
                    .map(|((_, q), path)| (*q, path.clone()))
                    .collect();
                for (prefix, path) in dump {
                    report.redump_records += 1;
                    out.push(UpdateRecord {
                        at: rt + self.skew_of(s),
                        session: s,
                        msg: UpdateMessage::Announce(Route {
                            prefix,
                            as_path: path,
                            communities: Default::default(),
                        }),
                    });
                }
            }

            // Track the peer's table regardless of delivery: the peer
            // keeps routing while the collector misses updates.
            match &r.msg {
                UpdateMessage::Announce(route) => {
                    table.insert((r.session, route.prefix), route.as_path.clone());
                }
                UpdateMessage::Withdraw(q) => {
                    table.remove(&(r.session, *q));
                }
            }

            let idx = per_session_idx.entry(r.session).or_insert(0);
            let i = *idx;
            *idx += 1;
            let skey = r.session.0 as u64;

            if in_dark(r.session, r.at) {
                report.outage_dropped += 1;
                continue;
            }
            if p.drop_rate > 0.0 && unit(p.seed, DOM_DROP ^ (skey << 32), i) < p.drop_rate {
                report.dropped += 1;
                continue;
            }

            let skew = self.skew_of(r.session);
            if skew > SimDuration::ZERO {
                skewed.insert(r.session);
            }
            let mut at = r.at + skew;
            if p.reorder_rate > 0.0
                && unit(p.seed, DOM_REORDER ^ (skey << 32), i) < p.reorder_rate
            {
                let by = unit(p.seed, DOM_REORDER_BY ^ (skey << 32), i)
                    * p.max_reorder.as_secs_f64();
                at += SimDuration::from_secs_f64(by);
                report.reordered += 1;
            }
            let rec = UpdateRecord {
                at,
                session: r.session,
                msg: r.msg.clone(),
            };
            if p.dup_rate > 0.0 && unit(p.seed, DOM_DUP ^ (skey << 32), i) < p.dup_rate {
                report.duplicated += 1;
                out.push(rec.clone());
            }
            out.push(rec);
        }

        // Trailing recoveries (windows ending after the last record).
        while next_recovery < recoveries.len() {
            let (rt, s) = recoveries[next_recovery];
            next_recovery += 1;
            let dump: Vec<(Ipv4Prefix, AsPath)> = table
                .range((s, Ipv4Prefix::from_u32(0, 0))..)
                .take_while(|((sid, _), _)| *sid == s)
                .map(|((_, q), path)| (*q, path.clone()))
                .collect();
            for (prefix, path) in dump {
                report.redump_records += 1;
                out.push(UpdateRecord {
                    at: rt + self.skew_of(s),
                    session: s,
                    msg: UpdateMessage::Announce(Route {
                        prefix,
                        as_path: path,
                        communities: Default::default(),
                    }),
                });
            }
        }

        report.skewed_sessions = skewed.len();
        // Delivery order is by (arrival time, session); the stable sort
        // keeps same-instant records in injection order.
        out.sort_by_key(|r| (r.at, r.session));

        // Publish the injector's decisions. Each flap ends in a table
        // re-dump — a session re-establishment from the collector's
        // point of view — so it also counts as a per-session reconnect.
        obs::incr("collector", "fault_dropped", report.dropped as u64);
        obs::incr("collector", "fault_duplicated", report.duplicated as u64);
        obs::incr("collector", "fault_reordered", report.reordered as u64);
        obs::incr(
            "collector",
            "fault_outage_dropped",
            report.outage_dropped as u64,
        );
        obs::incr("collector", "fault_flaps", report.flaps.len() as u64);
        obs::incr(
            "collector",
            "fault_redump_records",
            report.redump_records as u64,
        );
        for &(s, _) in &report.flaps {
            obs::incr_session("collector", "reconnects", s.0, 1);
        }
        (UpdateLog { records: out }, report)
    }
}

/// A streaming fault adapter: wraps any record stream and applies the
/// record-level faults (drop, duplicate, clock skew, bounded reorder)
/// on the fly with an internal buffer of at most
/// [`FaultedFeed::buffer_len`] delayed records.
///
/// Flaps and collector outages need the whole log's time span and a
/// table re-dump, so they are only available through
/// [`FaultInjector::apply`]; profiles with those faults are still
/// accepted here but only their record-level components take effect.
pub struct FaultedFeed<I: Iterator<Item = UpdateRecord>> {
    inner: I,
    injector: FaultInjector,
    /// Delayed records, kept sorted by release time (ascending).
    held: Vec<UpdateRecord>,
    /// Ready-to-emit duplicates.
    pending: Vec<UpdateRecord>,
    per_session_idx: BTreeMap<SessionId, u64>,
    done: bool,
}

impl<I: Iterator<Item = UpdateRecord>> FaultedFeed<I> {
    /// Wrap `inner` with the record-level faults of `profile`.
    pub fn new(inner: I, profile: FaultProfile) -> QsResult<Self> {
        Ok(FaultedFeed {
            inner,
            injector: FaultInjector::new(profile)?,
            held: Vec::new(),
            pending: Vec::new(),
            per_session_idx: BTreeMap::new(),
            done: false,
        })
    }

    /// Number of records currently buffered for reordering.
    pub fn buffer_len(&self) -> usize {
        self.held.len()
    }

    /// Release every held record at or before `cutoff`, earliest first.
    fn release_due(&mut self, cutoff: Option<SimTime>) -> Option<UpdateRecord> {
        let due = match (self.held.first(), cutoff) {
            (Some(h), Some(c)) => h.at <= c,
            (Some(_), None) => true,
            (None, _) => false,
        };
        due.then(|| self.held.remove(0))
    }
}

impl<I: Iterator<Item = UpdateRecord>> Iterator for FaultedFeed<I> {
    type Item = UpdateRecord;

    fn next(&mut self) -> Option<UpdateRecord> {
        loop {
            if let Some(r) = self.pending.pop() {
                return Some(r);
            }
            if self.done {
                return self.release_due(None);
            }
            let Some(r) = self.inner.next() else {
                self.done = true;
                continue;
            };
            let p = self.injector.profile().clone();
            let idx = self.per_session_idx.entry(r.session).or_insert(0);
            let i = *idx;
            *idx += 1;
            let skey = r.session.0 as u64;
            if p.drop_rate > 0.0 && unit(p.seed, DOM_DROP ^ (skey << 32), i) < p.drop_rate {
                continue;
            }
            let mut rec = UpdateRecord {
                at: r.at + self.injector.skew_of(r.session),
                ..r
            };
            let reordered = p.reorder_rate > 0.0
                && unit(p.seed, DOM_REORDER ^ (skey << 32), i) < p.reorder_rate;
            if reordered {
                let by = unit(p.seed, DOM_REORDER_BY ^ (skey << 32), i)
                    * p.max_reorder.as_secs_f64();
                rec.at += SimDuration::from_secs_f64(by);
            }
            let dup =
                p.dup_rate > 0.0 && unit(p.seed, DOM_DUP ^ (skey << 32), i) < p.dup_rate;
            if reordered {
                // Delayed copies (both, when also duplicated) wait in
                // the buffer until an on-time record passes them.
                let pos = self.held.partition_point(|h| h.at <= rec.at);
                if dup {
                    self.held.insert(pos, rec.clone());
                }
                self.held.insert(pos, rec);
                if let Some(out) = self.release_due(Some(r.at)) {
                    return Some(out);
                }
                continue;
            }
            if dup {
                self.pending.push(rec.clone());
            }
            // An on-time record releases any held records due before it.
            if let Some(out) = self.release_due(Some(rec.at)) {
                self.pending.push(rec);
                return Some(out);
            }
            return Some(rec);
        }
    }
}

/// How an injected replay crash manifests inside a supervised scenario
/// cell (see `quicksand-core`'s supervision subsystem, DESIGN.md §12).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashKind {
    /// The attempt panics at the crash point (fault-domain isolation:
    /// the cell's `catch_unwind` must contain it).
    Panic,
    /// The attempt stops making progress for this many milliseconds at
    /// the crash point (the cell's watchdog must trip and cancel it
    /// when the stall outlives the progress deadline).
    Stall {
        /// Wall-clock length of the stall.
        ms: u64,
    },
}

/// One scripted crash: on checkpoint boundaries of attempt
/// `on_attempt`, fire `kind` at the first cursor `>= at_cursor`.
///
/// Crashes are addressed by *attempt* so a restarted cell replays a
/// different (usually empty) fault schedule — exactly how a real
/// transient fault behaves — and by *cursor* so the failure trace is a
/// pure function of the plan, never of wall-clock timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayCrash {
    /// Which attempt of the cell this crash targets (0 = first run).
    pub on_attempt: u32,
    /// Fires at the first checkpoint cursor at or past this.
    pub at_cursor: u64,
    /// What happens at the crash point.
    pub kind: CrashKind,
}

/// A deterministic schedule of mid-replay crashes for one supervised
/// scenario, evaluated at checkpoint boundaries.
///
/// The plan itself is pure data: [`ReplayChaosPlan::fire`] is a pure
/// function of `(attempt, cursor)`, so the same plan against the same
/// scenario yields the same failure trace on every run — the property
/// the supervision restart-determinism tests pin down. The caller is
/// responsible for firing at most once per attempt (a stall does not
/// consume itself the way a panic's unwind does).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayChaosPlan {
    /// The scripted crashes, in no particular order.
    pub crashes: Vec<ReplayCrash>,
}

impl ReplayChaosPlan {
    /// A plan with a single crash.
    pub fn single(on_attempt: u32, at_cursor: u64, kind: CrashKind) -> Self {
        ReplayChaosPlan {
            crashes: vec![ReplayCrash {
                on_attempt,
                at_cursor,
                kind,
            }],
        }
    }

    /// A plan that crashes on *every* attempt at `at_cursor` — the
    /// persistent fault that must exhaust a cell's restart budget and
    /// end in quarantine. `attempts` bounds how many attempts are
    /// scripted (one more than the restart budget is enough).
    pub fn persistent(attempts: u32, at_cursor: u64, kind: CrashKind) -> Self {
        ReplayChaosPlan {
            crashes: (0..attempts)
                .map(|a| ReplayCrash {
                    on_attempt: a,
                    at_cursor,
                    kind,
                })
                .collect(),
        }
    }

    /// The crash (if any) due at checkpoint `(attempt, cursor)`: the
    /// scripted crash for this attempt with the smallest `at_cursor`
    /// at or below `cursor`. Pure — identical inputs, identical answer.
    pub fn fire(&self, attempt: u32, cursor: u64) -> Option<ReplayCrash> {
        self.crashes
            .iter()
            .filter(|c| c.on_attempt == attempt && c.at_cursor <= cursor)
            .min_by_key(|c| c.at_cursor)
            .copied()
    }

    /// True when no crash is scripted for any attempt.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }

    /// A seeded crash storm over a fleet of `cells` supervised
    /// scenarios: exactly `victims` distinct cells (clamped to `cells`)
    /// get one first-attempt crash each, alternating panic and stall,
    /// at a cursor drawn deterministically from
    /// `[cursor_lo, cursor_hi)`. Returns one optional plan per cell.
    ///
    /// Victim choice, crash kind, and crash cursor are all pure
    /// functions of `seed` — two storms with the same arguments are
    /// identical, which lets the crash-storm gate compare a stormed
    /// fleet against per-scenario serial baselines.
    pub fn storm(
        seed: u64,
        cells: usize,
        victims: usize,
        cursor_lo: u64,
        cursor_hi: u64,
        stall_ms: u64,
    ) -> Vec<Option<ReplayChaosPlan>> {
        let mut plans: Vec<Option<ReplayChaosPlan>> = vec![None; cells];
        let victims = victims.min(cells);
        let span = cursor_hi.saturating_sub(cursor_lo).max(1);
        let mut chosen: Vec<usize> = Vec::with_capacity(victims);
        let mut draw = splitmix64(seed ^ 0x0057_0913_C4A5);
        while chosen.len() < victims {
            draw = splitmix64(draw);
            let cell = (draw % cells as u64) as usize;
            if !chosen.contains(&cell) {
                chosen.push(cell);
            }
        }
        for (i, &cell) in chosen.iter().enumerate() {
            draw = splitmix64(draw ^ cell as u64);
            let at_cursor = cursor_lo + draw % span;
            let kind = if i % 2 == 0 {
                CrashKind::Panic
            } else {
                CrashKind::Stall { ms: stall_ms }
            };
            plans[cell] = Some(ReplayChaosPlan::single(0, at_cursor, kind));
        }
        plans
    }
}

/// Connection-level fault kinds for the streaming feed plane
/// (DESIGN.md §14): faults of the *transport* between a feed client and
/// the ingest server, as opposed to faults of the record stream itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnFaultKind {
    /// Drop the TCP connection cleanly before sending the event at the
    /// scripted sequence number (the client then reconnects and
    /// resumes from the server's acknowledged cursor).
    Disconnect,
    /// Write a strict prefix of the scripted event's frame, then drop
    /// the connection — the receiver must reject the partial frame as a
    /// typed truncation, never parse it.
    TruncateFrame,
    /// Stop sending for this many wall milliseconds while keeping the
    /// connection open. A stall past the server's hold timer gets the
    /// session deterministically reaped.
    Stall {
        /// Wall-clock length of the stall.
        ms: u64,
    },
}

/// One scripted connection fault, addressed by feed sequence number:
/// it fires when the client is about to send the event with this
/// 0-based sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnFault {
    /// Fires before sending the event with this sequence number.
    pub at_seq: u64,
    /// What happens at the fault point.
    pub kind: ConnFaultKind,
}

/// A deterministic schedule of connection faults for one feed client.
///
/// Like [`ReplayChaosPlan`], the plan is pure data drawn from the
/// seeded fault model: the same `(seed, n_events, counts)` always
/// yields the same faults at the same sequence numbers, so feed chaos
/// tests can assert an exact disconnect/reap timeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConnChaosPlan {
    /// The scripted faults, sorted by `at_seq` (all distinct).
    pub faults: Vec<ConnFault>,
}

impl ConnChaosPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        ConnChaosPlan::default()
    }

    /// True when no fault is scripted.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A plan with a single fault.
    pub fn single(at_seq: u64, kind: ConnFaultKind) -> Self {
        ConnChaosPlan {
            faults: vec![ConnFault { at_seq, kind }],
        }
    }

    /// A seeded plan over a feed of `n_events` events: `disconnects`
    /// clean mid-stream disconnects, `truncates` partial frames, and
    /// `stalls` stalls of `stall_ms`, at distinct sequence numbers
    /// drawn deterministically from `[0, n_events)`. The total fault
    /// count is clamped to `n_events` so every fault lands on a real
    /// event.
    pub fn seeded(
        seed: u64,
        n_events: u64,
        disconnects: usize,
        truncates: usize,
        stalls: usize,
        stall_ms: u64,
    ) -> Self {
        if n_events == 0 {
            return ConnChaosPlan::none();
        }
        let want = (disconnects + truncates + stalls).min(n_events as usize);
        let mut seqs: Vec<u64> = Vec::with_capacity(want);
        let mut draw = splitmix64(seed ^ splitmix64(DOM_CONN_AT));
        while seqs.len() < want {
            draw = splitmix64(draw);
            let seq = draw % n_events;
            if !seqs.contains(&seq) {
                seqs.push(seq);
            }
        }
        let mut faults: Vec<ConnFault> = seqs
            .into_iter()
            .enumerate()
            .map(|(i, at_seq)| {
                let kind = if i < disconnects {
                    ConnFaultKind::Disconnect
                } else if i < disconnects + truncates {
                    ConnFaultKind::TruncateFrame
                } else {
                    ConnFaultKind::Stall { ms: stall_ms }
                };
                ConnFault { at_seq, kind }
            })
            .collect();
        faults.sort_by_key(|f| f.at_seq);
        ConnChaosPlan { faults }
    }

    /// The next unfired fault due at or before `seq`, given that
    /// `fired` faults have already fired. Pure: the client threads its
    /// own `fired` count, so identical histories see identical faults.
    pub fn fire(&self, fired: usize, seq: u64) -> Option<ConnFault> {
        self.faults
            .get(fired)
            .filter(|f| f.at_seq <= seq)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksand_net::Asn;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ann(at_s: u64, sess: u32, prefix: &str, asns: &[u32]) -> UpdateRecord {
        UpdateRecord {
            at: SimTime::from_secs(at_s),
            session: SessionId(sess),
            msg: UpdateMessage::Announce(Route {
                prefix: p(prefix),
                as_path: asns.iter().map(|&a| Asn(a)).collect(),
                communities: Default::default(),
            }),
        }
    }

    fn sample_log() -> UpdateLog {
        let mut records = Vec::new();
        for i in 0..200u64 {
            records.push(ann(i * 60, (i % 4) as u32, "10.0.0.0/8", &[2, 3]));
            records.push(ann(i * 60 + 5, (i % 4) as u32, "11.0.0.0/8", &[2, 4]));
        }
        UpdateLog { records }
    }

    #[test]
    fn clean_profile_is_identity() {
        let log = sample_log();
        let inj = FaultInjector::new(FaultProfile::clean(7)).unwrap();
        let (out, report) = inj.apply(&log);
        assert_eq!(out.records, log.records);
        assert_eq!(report, FaultReport::default());
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let log = sample_log();
        let profile = FaultProfile::with_intensity(0.5, 99);
        let inj = FaultInjector::new(profile.clone()).unwrap();
        let (a, ra) = inj.apply(&log);
        let (b, rb) = FaultInjector::new(profile).unwrap().apply(&log);
        assert_eq!(a.records, b.records);
        assert_eq!(ra, rb);
        // A different seed gives a different degradation.
        let (c, _) = FaultInjector::new(FaultProfile::with_intensity(0.5, 100))
            .unwrap()
            .apply(&log);
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn drops_scale_with_rate() {
        let log = sample_log();
        let mut profile = FaultProfile::clean(3);
        profile.drop_rate = 0.25;
        let (out, report) = FaultInjector::new(profile).unwrap().apply(&log);
        assert_eq!(out.len() + report.dropped, log.len());
        let frac = report.dropped as f64 / log.len() as f64;
        assert!((0.1..0.4).contains(&frac), "drop fraction {frac}");
    }

    #[test]
    fn flaps_create_redump_bursts_that_cleaning_removes() {
        let log = sample_log();
        let mut profile = FaultProfile::clean(11);
        profile.flaps_per_session = 1.0;
        profile.flap_outage = SimDuration::from_mins(10);
        let (out, report) = FaultInjector::new(profile).unwrap().apply(&log);
        assert!(!report.flaps.is_empty(), "expected at least one flap");
        assert!(report.outage_dropped > 0);
        assert!(report.redump_records > 0);
        // The re-dump announcements are duplicates of the session's
        // last-known routes; the cleaning pass removes them.
        let (cleaned, removed, _) =
            crate::clean_session_resets(&out, &crate::CleaningConfig::default());
        assert!(removed >= report.redump_records);
        assert!(cleaned.len() <= out.len() - report.redump_records);
    }

    #[test]
    fn collector_outage_silences_every_session() {
        let log = sample_log();
        let mut profile = FaultProfile::clean(5);
        let from = SimTime::from_secs(1000);
        let dur = SimDuration::from_secs(2000);
        profile.collector_outages = vec![(from, dur)];
        let (out, report) = FaultInjector::new(profile).unwrap().apply(&log);
        assert!(report.outage_dropped > 0);
        // No original-time record inside the window survives (re-dumps
        // at the window end are the only records at/after it).
        for r in &out.records {
            assert!(
                r.at < from || r.at >= from + dur,
                "record at {} inside outage window",
                r.at
            );
        }
    }

    #[test]
    fn skew_shifts_whole_sessions() {
        let log = sample_log();
        let mut profile = FaultProfile::clean(13);
        profile.clock_skew = SimDuration::from_secs(50);
        let inj = FaultInjector::new(profile).unwrap();
        let (out, report) = inj.apply(&log);
        assert_eq!(out.len(), log.len());
        assert!(report.skewed_sessions > 0);
        // Each surviving record is shifted by exactly its session skew.
        for s in log.sessions() {
            let skew = inj.skew_of(s);
            let orig_first = log.records.iter().find(|r| r.session == s).unwrap();
            let new_first = out.records.iter().filter(|r| r.session == s).min_by_key(|r| r.at).unwrap();
            assert_eq!(new_first.at, orig_first.at + skew);
        }
    }

    #[test]
    fn invalid_rates_rejected_with_typed_error() {
        let mut profile = FaultProfile::clean(1);
        profile.drop_rate = 1.5;
        let err = FaultInjector::new(profile).unwrap_err();
        assert!(matches!(
            err,
            QuicksandError::InvalidConfig { what: "drop_rate", .. }
        ));
    }

    #[test]
    fn streaming_feed_matches_whole_log_for_record_faults() {
        let log = sample_log();
        let mut profile = FaultProfile::with_intensity(0.4, 77);
        // Restrict to record-level faults so both paths agree.
        profile.flaps_per_session = 0.0;
        profile.collector_outages.clear();
        let (batch, _) = FaultInjector::new(profile.clone()).unwrap().apply(&log);
        let mut streamed: Vec<UpdateRecord> =
            FaultedFeed::new(log.records.clone().into_iter(), profile)
                .unwrap()
                .collect();
        streamed.sort_by_key(|r| (r.at, r.session));
        let mut batch_sorted = batch.records.clone();
        batch_sorted.sort_by_key(|r| (r.at, r.session));
        assert_eq!(streamed, batch_sorted);
    }

    #[test]
    fn streaming_reorder_buffer_is_bounded_and_drains() {
        let log = sample_log();
        let mut profile = FaultProfile::clean(21);
        profile.reorder_rate = 0.5;
        profile.max_reorder = SimDuration::from_secs(30);
        let feed = FaultedFeed::new(log.records.clone().into_iter(), profile).unwrap();
        let n: usize = feed.count();
        assert_eq!(n, log.len(), "reordering must not lose records");
    }

    #[test]
    fn replay_chaos_fire_is_pure_and_attempt_scoped() {
        let plan = ReplayChaosPlan::single(0, 30, CrashKind::Panic);
        assert_eq!(plan.fire(0, 29), None);
        let hit = plan.fire(0, 30).expect("crash due at its cursor");
        assert_eq!(hit.kind, CrashKind::Panic);
        // Still due at later cursors of the same attempt (the caller
        // fires at most once per attempt), never on other attempts.
        assert_eq!(plan.fire(0, 90), Some(hit));
        assert_eq!(plan.fire(1, 90), None);
        // Earliest-due crash wins when several are past.
        let plan = ReplayChaosPlan {
            crashes: vec![
                ReplayCrash { on_attempt: 0, at_cursor: 50, kind: CrashKind::Panic },
                ReplayCrash {
                    on_attempt: 0,
                    at_cursor: 20,
                    kind: CrashKind::Stall { ms: 5 },
                },
            ],
        };
        assert_eq!(plan.fire(0, 60).unwrap().at_cursor, 20);
    }

    #[test]
    fn replay_chaos_persistent_targets_every_attempt() {
        let plan = ReplayChaosPlan::persistent(3, 10, CrashKind::Panic);
        for attempt in 0..3 {
            assert!(plan.fire(attempt, 10).is_some(), "attempt {attempt}");
        }
        assert_eq!(plan.fire(3, 10), None, "beyond the scripted attempts");
    }

    #[test]
    fn storm_is_deterministic_and_hits_exactly_the_victim_count() {
        let a = ReplayChaosPlan::storm(0xBAD, 8, 3, 20, 60, 250);
        let b = ReplayChaosPlan::storm(0xBAD, 8, 3, 20, 60, 250);
        assert_eq!(a, b, "same seed must script the same storm");
        assert_eq!(a.len(), 8);
        let victims: Vec<&ReplayChaosPlan> = a.iter().flatten().collect();
        assert_eq!(victims.len(), 3);
        for plan in &victims {
            let crash = plan.crashes[0];
            assert_eq!(crash.on_attempt, 0);
            assert!((20..60).contains(&crash.at_cursor));
        }
        // Both failure modes are represented among three victims.
        assert!(victims.iter().any(|p| p.crashes[0].kind == CrashKind::Panic));
        assert!(victims
            .iter()
            .any(|p| matches!(p.crashes[0].kind, CrashKind::Stall { .. })));
        // A different seed scripts a different storm.
        let c = ReplayChaosPlan::storm(0xBAD + 1, 8, 3, 20, 60, 250);
        assert_ne!(a, c);
        // Victim count clamps to the fleet size.
        let all = ReplayChaosPlan::storm(7, 2, 5, 0, 10, 1);
        assert_eq!(all.iter().flatten().count(), 2);
    }
}

#[cfg(test)]
mod conn_tests {
    use super::*;

    #[test]
    fn seeded_plan_is_deterministic_and_bounded() {
        let a = ConnChaosPlan::seeded(0xFEED, 100, 2, 1, 1, 500);
        let b = ConnChaosPlan::seeded(0xFEED, 100, 2, 1, 1, 500);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 4);
        assert!(a.faults.iter().all(|f| f.at_seq < 100));
        assert!(a.faults.windows(2).all(|w| w[0].at_seq < w[1].at_seq));
        let c = ConnChaosPlan::seeded(0xFEED + 1, 100, 2, 1, 1, 500);
        assert_ne!(a, c, "different seeds must draw different positions");
    }

    #[test]
    fn seeded_plan_respects_kind_counts() {
        let plan = ConnChaosPlan::seeded(9, 1000, 3, 2, 1, 250);
        let count = |k: fn(&ConnFaultKind) -> bool| {
            plan.faults.iter().filter(|f| k(&f.kind)).count()
        };
        assert_eq!(count(|k| matches!(k, ConnFaultKind::Disconnect)), 3);
        assert_eq!(count(|k| matches!(k, ConnFaultKind::TruncateFrame)), 2);
        assert_eq!(
            count(|k| matches!(k, ConnFaultKind::Stall { ms: 250 })),
            1
        );
    }

    #[test]
    fn seeded_plan_clamps_to_event_count() {
        let plan = ConnChaosPlan::seeded(1, 3, 5, 5, 5, 10);
        assert_eq!(plan.faults.len(), 3);
        assert!(ConnChaosPlan::seeded(1, 0, 5, 5, 5, 10).is_empty());
    }

    #[test]
    fn fire_walks_faults_in_sequence_order() {
        let plan = ConnChaosPlan::seeded(0xFEED, 50, 1, 1, 0, 0);
        let first = plan.faults[0];
        let second = plan.faults[1];
        assert_eq!(plan.fire(0, first.at_seq.saturating_sub(1)), None);
        assert_eq!(plan.fire(0, first.at_seq), Some(first));
        // Already-fired faults never refire; the next one waits its turn.
        assert_eq!(plan.fire(1, first.at_seq), None);
        assert_eq!(plan.fire(1, second.at_seq), Some(second));
        assert_eq!(plan.fire(2, u64::MAX), None);
    }
}
