//! Subscribers: pluggable event sinks.
//!
//! Instrumented code calls [`crate::emit`]; the *current* subscriber —
//! a thread-local override installed by [`crate::with_subscriber`], or
//! the process-wide default set by [`crate::set_global_subscriber`] —
//! decides what happens to each [`Event`]. The default is
//! [`NoopSubscriber`], which reports itself disabled at every level so
//! call sites can skip even message formatting.

use crate::event::{Event, Level};
use serde::Serialize;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// An event sink.
///
/// Implementations must be cheap to call: `emit` sits on the pipeline's
/// progress paths (not the per-record hot loops, but still called
/// thousands of times in a chaos sweep).
pub trait Subscriber: Send + Sync {
    /// Would an event at `level` be kept? Call sites use this to skip
    /// constructing expensive events entirely.
    fn enabled(&self, level: Level) -> bool {
        let _ = level;
        true
    }

    /// Would an event at `level` from `stage` be kept? Defaults to the
    /// stage-blind [`Subscriber::enabled`]; subscribers with per-stage
    /// overrides (a [`LevelFilter`]) refine it. `enabled` must stay
    /// the *most permissive* answer across stages so a `true` from it
    /// never suppresses an event some stage still wants.
    fn enabled_for(&self, level: Level, stage: &str) -> bool {
        let _ = stage;
        self.enabled(level)
    }

    /// Consume one event.
    fn event(&self, event: &Event);

    /// Flush any buffered output (end of run).
    fn flush(&self) {}
}

/// Discards everything; the default subscriber.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSubscriber;

impl Subscriber for NoopSubscriber {
    fn enabled(&self, _level: Level) -> bool {
        false
    }

    fn event(&self, _event: &Event) {}
}

fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Buffers every event in memory; the test subscriber and the source
/// of the run report's alarm timeline.
#[derive(Debug, Default)]
pub struct MemorySubscriber {
    events: Mutex<Vec<Event>>,
}

impl MemorySubscriber {
    /// A fresh, empty buffer.
    pub fn new() -> MemorySubscriber {
        MemorySubscriber::default()
    }

    /// A clone of every buffered event, in emission order.
    pub fn events(&self) -> Vec<Event> {
        lock_ignoring_poison(&self.events).clone()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        lock_ignoring_poison(&self.events).len()
    }

    /// True when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Subscriber for MemorySubscriber {
    fn event(&self, event: &Event) {
        lock_ignoring_poison(&self.events).push(event.clone());
    }
}

/// Appends one JSON object per event to a writer — the run-log format consumed by external tooling.
pub struct JsonlSubscriber<W: Write + Send> {
    out: Mutex<BufWriter<W>>,
}

impl JsonlSubscriber<std::fs::File> {
    /// Create (truncating) `path` and stream events into it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSubscriber::new(std::fs::File::create(path)?))
    }
}

impl<W: Write + Send> JsonlSubscriber<W> {
    /// Wrap an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSubscriber {
            out: Mutex::new(BufWriter::new(out)),
        }
    }

    fn write_line(&self, line: &str) {
        let mut out = lock_ignoring_poison(&self.out);
        // Best-effort: a full disk must not abort the simulation.
        let _ = writeln!(out, "{line}");
    }
}

impl<W: Write + Send> Subscriber for JsonlSubscriber<W> {
    fn event(&self, event: &Event) {
        // Events stringify non-finite floats, so serialization cannot
        // fail; stay defensive anyway.
        if let Ok(line) = serde_json::to_string(&event.to_value()) {
            self.write_line(&line);
        }
    }

    fn flush(&self) {
        let _ = lock_ignoring_poison(&self.out).flush();
    }
}

/// A minimum level with optional per-stage overrides, parsed from the
/// `--log-level` flag / `QUICKSAND_LOG` env spec: a bare level
/// (`"info"`) and/or comma-separated `stage=level` pairs
/// (`"warn,routing=debug,churn=error"`). Later entries win on
/// duplicate stages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelFilter {
    default_level: Level,
    overrides: Vec<(String, Level)>,
}

impl LevelFilter {
    /// Keep everything at `level` and above, for every stage.
    pub fn uniform(level: Level) -> LevelFilter {
        LevelFilter {
            default_level: level,
            overrides: Vec::new(),
        }
    }

    /// Parse a spec like `"info"`, `"routing=debug"`, or
    /// `"warn,routing=debug,churn=error"`. A bare level sets the
    /// default (last bare entry wins); `stage=level` entries override
    /// per stage. Errors name the offending token.
    pub fn parse(spec: &str) -> Result<LevelFilter, String> {
        let mut filter = LevelFilter::uniform(Level::Info);
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            match token.split_once('=') {
                None => {
                    filter.default_level = Level::parse(token)
                        .ok_or_else(|| format!("unknown level {token:?}"))?;
                }
                Some((stage, level)) => {
                    let stage = stage.trim();
                    if stage.is_empty() {
                        return Err(format!("empty stage in {token:?}"));
                    }
                    let level = Level::parse(level)
                        .ok_or_else(|| format!("unknown level in {token:?}"))?;
                    filter.retain_stage(stage);
                    filter.overrides.push((stage.to_string(), level));
                }
            }
        }
        Ok(filter)
    }

    fn retain_stage(&mut self, stage: &str) {
        self.overrides.retain(|(s, _)| s != stage);
    }

    /// The threshold for events from `stage`.
    pub fn level_for(&self, stage: &str) -> Level {
        self.overrides
            .iter()
            .find(|(s, _)| s == stage)
            .map_or(self.default_level, |(_, l)| *l)
    }

    /// The most permissive threshold across every stage — what a
    /// stage-blind `enabled(level)` check must answer so no stage's
    /// events get suppressed early.
    pub fn min_level(&self) -> Level {
        self.overrides
            .iter()
            .map(|(_, l)| *l)
            .fold(self.default_level, |a, b| a.min(b))
    }
}

/// Renders events at or above a level filter to stderr — the
/// replacement for the old scattered `eprintln!` progress chatter.
#[derive(Clone, Debug)]
pub struct ConsoleSubscriber {
    filter: LevelFilter,
}

impl ConsoleSubscriber {
    /// Print events at `min_level` and above, for every stage.
    pub fn new(min_level: Level) -> ConsoleSubscriber {
        ConsoleSubscriber::with_filter(LevelFilter::uniform(min_level))
    }

    /// Print events passing `filter` (per-stage thresholds).
    pub fn with_filter(filter: LevelFilter) -> ConsoleSubscriber {
        ConsoleSubscriber { filter }
    }
}

impl Default for ConsoleSubscriber {
    fn default() -> Self {
        ConsoleSubscriber::new(Level::Info)
    }
}

impl Subscriber for ConsoleSubscriber {
    fn enabled(&self, level: Level) -> bool {
        level >= self.filter.min_level()
    }

    fn enabled_for(&self, level: Level, stage: &str) -> bool {
        level >= self.filter.level_for(stage)
    }

    fn event(&self, event: &Event) {
        // Self-filter: fanout broadcast reaches every sink whenever
        // *any* sink wants the event.
        if self.enabled_for(event.level, event.stage) {
            eprintln!("{}", event.render());
        }
    }

}

/// Broadcasts every call to a set of inner subscribers (e.g. console +
/// JSONL + memory in a `repro --obs-out` run).
pub struct FanoutSubscriber {
    inner: Vec<Arc<dyn Subscriber>>,
}

impl FanoutSubscriber {
    /// Fan out to `inner`, in order.
    pub fn new(inner: Vec<Arc<dyn Subscriber>>) -> FanoutSubscriber {
        FanoutSubscriber { inner }
    }
}

impl Subscriber for FanoutSubscriber {
    fn enabled(&self, level: Level) -> bool {
        self.inner.iter().any(|s| s.enabled(level))
    }

    fn enabled_for(&self, level: Level, stage: &str) -> bool {
        self.inner.iter().any(|s| s.enabled_for(level, stage))
    }

    fn event(&self, event: &Event) {
        for s in &self.inner {
            s.event(event);
        }
    }

    fn flush(&self) {
        for s in &self.inner {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_at_every_level() {
        let s = NoopSubscriber;
        for l in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert!(!s.enabled(l));
        }
    }

    #[test]
    fn memory_buffers_in_order() {
        let s = MemorySubscriber::new();
        s.event(&Event::new(Level::Info, "churn", "start", "a"));
        s.event(&Event::new(Level::Warn, "collector", "stale", "b"));
        let ev = s.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "start");
        assert_eq!(ev[1].stage, "collector");
    }

    #[test]
    fn jsonl_writes_one_object_per_line() {
        let s = JsonlSubscriber::new(Vec::new());
        s.event(&Event::new(Level::Info, "monitor", "alarm", "x").with("at_s", 3.0));
        s.event(&Event::new(Level::Warn, "monitor", "stale-feed", "y"));
        s.flush();
        let buf = s.out.into_inner().unwrap().into_inner().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"alarm\""));
        assert!(lines[1].contains("\"name\":\"stale-feed\""));
        // Every line parses as standalone JSON.
        for l in &lines {
            assert!(serde_json::from_str::<serde::Value>(l).is_ok());
        }
    }

    #[test]
    fn console_filters_by_level() {
        let s = ConsoleSubscriber::new(Level::Warn);
        assert!(!s.enabled(Level::Info));
        assert!(s.enabled(Level::Warn));
        assert!(s.enabled(Level::Error));
    }

    #[test]
    fn level_filter_parses_specs_with_per_stage_overrides() {
        let f = LevelFilter::parse("warn,routing=debug,churn=error").unwrap();
        assert_eq!(f.level_for("routing"), Level::Debug);
        assert_eq!(f.level_for("churn"), Level::Error);
        assert_eq!(f.level_for("collector"), Level::Warn);
        // The blanket answer must be the most permissive threshold.
        assert_eq!(f.min_level(), Level::Debug);
        // A bare level alone is a uniform filter.
        assert_eq!(
            LevelFilter::parse("ERROR").unwrap(),
            LevelFilter::uniform(Level::Error)
        );
        // Later duplicate stages win; "warning" aliases warn.
        let f = LevelFilter::parse("routing=debug,routing=warning").unwrap();
        assert_eq!(f.level_for("routing"), Level::Warn);
        // Empty segments are tolerated, garbage is not.
        assert!(LevelFilter::parse("info,,churn=warn").is_ok());
        assert!(LevelFilter::parse("loud").is_err());
        assert!(LevelFilter::parse("churn=loud").is_err());
        assert!(LevelFilter::parse("=debug").is_err());
    }

    #[test]
    fn console_with_filter_applies_per_stage_thresholds() {
        let s = ConsoleSubscriber::with_filter(
            LevelFilter::parse("warn,routing=debug").unwrap(),
        );
        assert!(s.enabled_for(Level::Debug, "routing"));
        assert!(!s.enabled_for(Level::Debug, "churn"));
        assert!(!s.enabled_for(Level::Info, "churn"));
        assert!(s.enabled_for(Level::Warn, "churn"));
        // Stage-blind enabled() stays most-permissive.
        assert!(s.enabled(Level::Debug));
    }

    #[test]
    fn fanout_enabled_for_respects_stage_overrides() {
        let f = FanoutSubscriber::new(vec![Arc::new(ConsoleSubscriber::with_filter(
            LevelFilter::parse("error,monitor=info").unwrap(),
        )) as Arc<dyn Subscriber>]);
        assert!(f.enabled_for(Level::Info, "monitor"));
        assert!(!f.enabled_for(Level::Info, "churn"));
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(MemorySubscriber::new());
        let b = Arc::new(MemorySubscriber::new());
        let f = FanoutSubscriber::new(vec![a.clone(), b.clone()]);
        f.event(&Event::new(Level::Info, "detect", "done", "x"));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        // Enabled if any inner sink is enabled.
        let g = FanoutSubscriber::new(vec![
            Arc::new(NoopSubscriber) as Arc<dyn Subscriber>,
            Arc::new(ConsoleSubscriber::new(Level::Error)),
        ]);
        assert!(!g.enabled(Level::Info));
        assert!(g.enabled(Level::Error));
    }
}
