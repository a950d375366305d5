//! Live telemetry plane for the resident fleet: a scrape endpoint.
//!
//! The supervisor (ROADMAP item 3) runs many scenario cells for a long
//! time; operating it requires seeing inside without attaching a
//! debugger. This module publishes the fleet's state over plain HTTP:
//!
//! * `/metrics` — Prometheus text exposition: the supervisor registry
//!   unlabeled, every cell registry labeled `cell="K"`, synthetic
//!   per-cell series (state, heartbeat age, cursor, restarts, trips),
//!   and per-feed-session series (`quicksand_feed_*`: FSM state,
//!   staleness, acked cursor, connects, reaps, dead letters);
//! * `/healthz` — `200 ok` while every running cell has beaten within
//!   2× the watchdog deadline *and* at least one live feed session is
//!   within its hold time, `503` otherwise (load balancers and CI
//!   probes need a yes/no, not a metrics dump);
//! * `/cells` — one JSON object per cell for humans and scripts, with
//!   feed session state embedded under `"feed"` where one is bound.
//!
//! [`FleetTelemetry`] is the shared state: the supervisor updates it
//! from [`crate::supervise`] at every admission, heartbeat, failure,
//! and terminal transition; [`TelemetryServer`] is a std-only
//! `TcpListener` loop on its own thread (no async runtime, no
//! dependencies) with cooperative shutdown, serving whatever the fleet
//! looks like at scrape time.

use quicksand_obs::Registry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Milliseconds since the process's telemetry epoch (first call), plus
/// one — so `0` unambiguously means "never" in beat timestamps.
pub fn monotonic_ms() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64 + 1
}

/// Lifecycle state of one supervised cell, as the scrape page tells it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum CellState {
    /// Admitted, not yet dispatched.
    Pending = 0,
    /// An attempt is executing.
    Running = 1,
    /// Between attempts, sleeping out the restart backoff.
    Backoff = 2,
    /// Terminal: the month completed.
    Completed = 3,
    /// Terminal: restart budget exhausted.
    Quarantined = 4,
    /// Terminal: supervision infrastructure failed.
    Failed = 5,
}

impl CellState {
    /// Stable lowercase name (`"running"`, `"quarantined"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            CellState::Pending => "pending",
            CellState::Running => "running",
            CellState::Backoff => "backoff",
            CellState::Completed => "completed",
            CellState::Quarantined => "quarantined",
            CellState::Failed => "failed",
        }
    }

    fn from_u8(v: u8) -> CellState {
        match v {
            1 => CellState::Running,
            2 => CellState::Backoff,
            3 => CellState::Completed,
            4 => CellState::Quarantined,
            5 => CellState::Failed,
            _ => CellState::Pending,
        }
    }

    /// True for states a cell never leaves.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            CellState::Completed | CellState::Quarantined | CellState::Failed
        )
    }
}

/// FSM state of one streaming feed session (DESIGN.md §14): `Idle`
/// between connections, `Connect` while the handshake is in flight,
/// `Established` while events stream. A reaped or disconnected session
/// returns to `Idle` and waits out the graceful-restart window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SessionState {
    /// No peer connected.
    Idle = 0,
    /// A peer connected, handshake (Open/Resume) not yet complete.
    Connect = 1,
    /// Events streaming; the hold timer is armed.
    Established = 2,
}

impl SessionState {
    /// Stable lowercase name (`"idle"`, `"connect"`, `"established"`).
    pub fn as_str(self) -> &'static str {
        match self {
            SessionState::Idle => "idle",
            SessionState::Connect => "connect",
            SessionState::Established => "established",
        }
    }

    fn from_u8(v: u8) -> SessionState {
        match v {
            1 => SessionState::Connect,
            2 => SessionState::Established,
            _ => SessionState::Idle,
        }
    }
}

/// Live view of one feed session, updated by the feed server's session
/// threads and read by the scrape endpoint. All fields are atomics, so
/// scraping never blocks ingest.
pub struct FeedSessionTelemetry {
    /// The supervised cell this feed drives, if any (MRT sink sessions
    /// have no cell).
    pub cell: Option<usize>,
    /// The peer label from the session's `Open` handshake binding.
    pub peer: String,
    hold_ms: AtomicU64,
    state: AtomicU8,
    last_frame_ms: AtomicU64,
    acked: AtomicU64,
    connects: AtomicU64,
    reaps: AtomicU64,
    last_reap_cursor: AtomicU64,
    dead_letters: AtomicU64,
    eof: AtomicBool,
}

impl FeedSessionTelemetry {
    pub(crate) fn new(cell: Option<usize>, peer: String, hold_ms: u64) -> FeedSessionTelemetry {
        FeedSessionTelemetry {
            cell,
            peer,
            hold_ms: AtomicU64::new(hold_ms),
            state: AtomicU8::new(SessionState::Idle as u8),
            // Registration counts as activity: a binding nobody has
            // connected to yet ages from now, not from the epoch.
            last_frame_ms: AtomicU64::new(monotonic_ms()),
            acked: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            reaps: AtomicU64::new(0),
            last_reap_cursor: AtomicU64::new(0),
            dead_letters: AtomicU64::new(0),
            eof: AtomicBool::new(false),
        }
    }

    /// Transition the session FSM; entering any connected state also
    /// counts as frame activity.
    pub fn set_state(&self, state: SessionState) {
        self.state.store(state as u8, Ordering::Release);
        if state != SessionState::Idle {
            self.touch();
        }
    }

    /// Publish the negotiated hold time (BGP-style: the smaller of the
    /// server's configured hold and the client's proposal).
    pub fn set_hold_ms(&self, hold_ms: u64) {
        self.hold_ms.store(hold_ms, Ordering::Release);
    }

    /// Record frame activity (any frame refreshes the hold timer).
    pub fn touch(&self) {
        self.last_frame_ms.store(monotonic_ms(), Ordering::Release);
    }

    /// Publish the cumulative acknowledged cursor.
    pub fn set_acked(&self, acked: u64) {
        self.acked.store(acked, Ordering::Release);
    }

    /// Count a (re)connection.
    pub fn on_connect(&self) {
        self.connects.fetch_add(1, Ordering::AcqRel);
    }

    /// Count a hold-timer reap at the given acknowledged cursor.
    pub fn on_reap(&self, cursor: u64) {
        self.last_reap_cursor.store(cursor, Ordering::Release);
        self.reaps.fetch_add(1, Ordering::AcqRel);
    }

    /// Count a quarantined malformed frame / protocol violation.
    pub fn on_dead_letter(&self) {
        self.dead_letters.fetch_add(1, Ordering::AcqRel);
    }

    /// Mark the feed complete (EOF accepted); complete sessions are
    /// excluded from staleness health.
    pub fn set_eof(&self) {
        self.eof.store(true, Ordering::Release);
    }

    /// Current FSM state.
    pub fn state(&self) -> SessionState {
        SessionState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// The session's hold time in wall milliseconds.
    pub fn hold_ms(&self) -> u64 {
        self.hold_ms.load(Ordering::Acquire)
    }

    /// Milliseconds since the last frame (or registration).
    pub fn staleness_ms(&self) -> u64 {
        monotonic_ms().saturating_sub(self.last_frame_ms.load(Ordering::Acquire))
    }

    /// Cumulative acknowledged cursor.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }

    /// Total (re)connections.
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Acquire)
    }

    /// Total hold-timer reaps.
    pub fn reaps(&self) -> u64 {
        self.reaps.load(Ordering::Acquire)
    }

    /// The acknowledged cursor at the most recent reap.
    pub fn last_reap_cursor(&self) -> u64 {
        self.last_reap_cursor.load(Ordering::Acquire)
    }

    /// Total dead-lettered frames.
    pub fn dead_letters(&self) -> u64 {
        self.dead_letters.load(Ordering::Acquire)
    }

    /// True once EOF was accepted.
    pub fn eof(&self) -> bool {
        self.eof.load(Ordering::Acquire)
    }

    /// True while the session counts toward staleness health: not yet
    /// complete and silent past its hold time.
    pub fn past_hold(&self) -> bool {
        !self.eof() && self.staleness_ms() > self.hold_ms()
    }
}

/// Live view of one cell, updated by the supervisor and read by the
/// scrape endpoint. All fields are atomics (or a registry swap under a
/// mutex), so readers never block a replaying cell.
pub struct CellTelemetry {
    /// Cell id (admission order).
    pub id: usize,
    /// The job's display label.
    pub label: String,
    registry: Mutex<Option<Arc<Registry>>>,
    state: AtomicU8,
    beat_ms: AtomicU64,
    cursor: AtomicU64,
    restarts: AtomicU64,
    trips: AtomicU64,
}

impl CellTelemetry {
    fn new(id: usize, label: String) -> CellTelemetry {
        CellTelemetry {
            id,
            label,
            registry: Mutex::new(None),
            state: AtomicU8::new(CellState::Pending as u8),
            beat_ms: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            trips: AtomicU64::new(0),
        }
    }

    /// Publish the registry the current attempt is recording into; the
    /// scrape endpoint renders it under this cell's labels.
    pub fn set_registry(&self, registry: Arc<Registry>) {
        *self.registry.lock().unwrap_or_else(|e| e.into_inner()) = Some(registry);
    }

    /// Transition the lifecycle state; entering `Running` also counts
    /// as a heartbeat (a freshly dispatched cell is not yet stale).
    pub fn set_state(&self, state: CellState) {
        self.state.store(state as u8, Ordering::Release);
        if state == CellState::Running {
            self.beat_ms.store(monotonic_ms(), Ordering::Release);
        }
    }

    /// Record a heartbeat at `cursor` (a checkpoint boundary).
    pub fn touch(&self, cursor: u64) {
        self.cursor.store(cursor, Ordering::Release);
        self.beat_ms.store(monotonic_ms(), Ordering::Release);
    }

    /// Update the restart / watchdog-trip counts (monotonic).
    pub fn set_counts(&self, restarts: u64, trips: u64) {
        self.restarts.store(restarts, Ordering::Release);
        self.trips.store(trips, Ordering::Release);
    }

    /// Current lifecycle state.
    pub fn state(&self) -> CellState {
        CellState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Last checkpointed cursor.
    pub fn cursor(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// Milliseconds since the last heartbeat; `None` before the first.
    pub fn beat_age_ms(&self) -> Option<u64> {
        match self.beat_ms.load(Ordering::Acquire) {
            0 => None,
            at => Some(monotonic_ms().saturating_sub(at)),
        }
    }

    fn registry(&self) -> Option<Arc<Registry>> {
        self.registry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Everything the scrape endpoint serves: the supervisor registry, the
/// effective watchdog deadline, and one [`CellTelemetry`] per admitted
/// cell. Create with [`FleetTelemetry::new`]; the supervisor owns the
/// writes, any number of [`TelemetryServer`]s (or tests) read.
pub struct FleetTelemetry {
    supervisor: Mutex<Arc<Registry>>,
    deadline_ms: AtomicU64,
    cells: Mutex<Vec<Arc<CellTelemetry>>>,
    feeds: Mutex<Vec<Arc<FeedSessionTelemetry>>>,
}

impl FleetTelemetry {
    /// A fleet view over `supervisor` (the registry the supervisor's
    /// own `supervisor.*` metrics land in).
    pub fn new(supervisor: Arc<Registry>) -> FleetTelemetry {
        FleetTelemetry {
            supervisor: Mutex::new(supervisor),
            deadline_ms: AtomicU64::new(0),
            cells: Mutex::new(Vec::new()),
            feeds: Mutex::new(Vec::new()),
        }
    }

    /// Register an admitted cell; returns its live view.
    pub fn add_cell(&self, id: usize, label: &str) -> Arc<CellTelemetry> {
        let cell = Arc::new(CellTelemetry::new(id, label.to_string()));
        self.cells
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(cell.clone());
        cell
    }

    /// Publish the effective watchdog deadline (drives `/healthz`).
    pub fn set_deadline_ms(&self, deadline_ms: u64) {
        self.deadline_ms.store(deadline_ms, Ordering::Release);
    }

    /// Snapshot the registered cells.
    pub fn cells(&self) -> Vec<Arc<CellTelemetry>> {
        self.cells
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Register a feed session bound to `peer` (optionally driving cell
    /// `cell`) with the given hold time; returns its live view.
    pub fn add_feed_session(
        &self,
        cell: Option<usize>,
        peer: &str,
        hold_ms: u64,
    ) -> Arc<FeedSessionTelemetry> {
        let sess = Arc::new(FeedSessionTelemetry::new(cell, peer.to_string(), hold_ms));
        self.feeds
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(sess.clone());
        sess
    }

    /// Snapshot the registered feed sessions.
    pub fn feed_sessions(&self) -> Vec<Arc<FeedSessionTelemetry>> {
        self.feeds
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn supervisor_registry(&self) -> Arc<Registry> {
        self.supervisor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The `/metrics` page: Prometheus text exposition of the
    /// supervisor registry (unlabeled), synthetic per-cell gauges, and
    /// every cell registry labeled `cell="K"`.
    pub fn render_metrics(&self) -> String {
        let mut out = String::new();
        self.supervisor_registry().render_prometheus(&mut out, &[]);
        use std::fmt::Write;
        for cell in self.cells() {
            let id = cell.id.to_string();
            let labels = format!(
                "{{cell=\"{}\",label=\"{}\"}}",
                id,
                escape_label(&cell.label)
            );
            let state = cell.state();
            let _ = writeln!(
                out,
                "quicksand_cell_state{{cell=\"{}\",label=\"{}\",state=\"{}\"}} 1",
                id,
                escape_label(&cell.label),
                state.as_str()
            );
            let _ = writeln!(
                out,
                "quicksand_cell_beat_age_ms{labels} {}",
                cell.beat_age_ms().unwrap_or(0)
            );
            let _ = writeln!(out, "quicksand_cell_cursor{labels} {}", cell.cursor());
            let _ = writeln!(
                out,
                "quicksand_cell_restarts_total{labels} {}",
                cell.restarts.load(Ordering::Acquire)
            );
            let _ = writeln!(
                out,
                "quicksand_cell_watchdog_trips_total{labels} {}",
                cell.trips.load(Ordering::Acquire)
            );
            if let Some(reg) = cell.registry() {
                reg.render_prometheus(
                    &mut out,
                    &[("cell", &id), ("label", &cell.label)],
                );
            }
        }
        for sess in self.feed_sessions() {
            let peer = escape_label(&sess.peer);
            let labels = format!("{{peer=\"{peer}\"}}");
            let _ = writeln!(
                out,
                "quicksand_feed_state{{peer=\"{peer}\",state=\"{}\"}} 1",
                sess.state().as_str()
            );
            let _ = writeln!(
                out,
                "quicksand_feed_staleness_ms{labels} {}",
                sess.staleness_ms()
            );
            let _ = writeln!(out, "quicksand_feed_acked{labels} {}", sess.acked());
            let _ = writeln!(
                out,
                "quicksand_feed_connects_total{labels} {}",
                sess.connects()
            );
            let _ = writeln!(out, "quicksand_feed_reaps_total{labels} {}", sess.reaps());
            let _ = writeln!(
                out,
                "quicksand_feed_dead_letters_total{labels} {}",
                sess.dead_letters()
            );
            let _ = writeln!(out, "quicksand_feed_eof{labels} {}", u64::from(sess.eof()));
        }
        out
    }

    /// The `/healthz` verdict: `(healthy, body)`. Healthy while every
    /// *running* cell has beaten within 2× the watchdog deadline (the
    /// watchdog itself needs one full deadline to trip; the probe only
    /// alarms when even that failed) AND, when feed sessions exist, at
    /// least one incomplete session is still within its hold time
    /// (graceful restart tolerates individual peers dropping; the probe
    /// alarms only when *every* live feed has gone silent past hold). A
    /// fleet with no running cells and no live feeds is vacuously
    /// healthy.
    pub fn healthz(&self) -> (bool, String) {
        let deadline = self.deadline_ms.load(Ordering::Acquire).max(1);
        let mut stale = Vec::new();
        for cell in self.cells() {
            if cell.state() != CellState::Running {
                continue;
            }
            // A running cell that never beat is aged from dispatch
            // (set_state(Running) touched the beat), so this is Some.
            let age = cell.beat_age_ms().unwrap_or(u64::MAX);
            if age > deadline.saturating_mul(2) {
                stale.push(format!("cell {} stale for {}ms", cell.id, age));
            }
        }
        let live: Vec<Arc<FeedSessionTelemetry>> = self
            .feed_sessions()
            .into_iter()
            .filter(|s| !s.eof())
            .collect();
        if !live.is_empty() && live.iter().all(|s| s.past_hold()) {
            for sess in &live {
                stale.push(format!(
                    "feed {} silent for {}ms (hold {}ms)",
                    sess.peer,
                    sess.staleness_ms(),
                    sess.hold_ms()
                ));
            }
        }
        if stale.is_empty() {
            (true, "ok\n".to_string())
        } else {
            (false, format!("stale\n{}\n", stale.join("\n")))
        }
    }

    /// The `/cells` page: a JSON array, one object per cell. A cell
    /// driven by a streaming feed session embeds that session's state
    /// under a `"feed"` key.
    pub fn render_cells_json(&self) -> String {
        let feeds = self.feed_sessions();
        let mut out = String::from("[");
        for (i, cell) in self.cells().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"cell\":{},\"label\":\"{}\",\"state\":\"{}\",\"cursor\":{},\
                 \"beat_age_ms\":{},\"restarts\":{},\"watchdog_trips\":{}",
                cell.id,
                escape_json(&cell.label),
                cell.state().as_str(),
                cell.cursor(),
                cell.beat_age_ms().map_or(-1, |a| a as i64),
                cell.restarts.load(Ordering::Acquire),
                cell.trips.load(Ordering::Acquire),
            ));
            if let Some(sess) = feeds.iter().find(|s| s.cell == Some(cell.id)) {
                out.push_str(&format!(",\"feed\":{}", feed_session_json(sess)));
            }
            out.push('}');
        }
        out.push_str("]\n");
        out
    }
}

fn feed_session_json(sess: &FeedSessionTelemetry) -> String {
    format!(
        "{{\"peer\":\"{}\",\"state\":\"{}\",\"acked\":{},\"staleness_ms\":{},\
         \"hold_ms\":{},\"connects\":{},\"reaps\":{},\"last_reap_cursor\":{},\
         \"dead_letters\":{},\"eof\":{}}}",
        escape_json(&sess.peer),
        sess.state().as_str(),
        sess.acked(),
        sess.staleness_ms(),
        sess.hold_ms(),
        sess.connects(),
        sess.reaps(),
        sess.last_reap_cursor(),
        sess.dead_letters(),
        sess.eof(),
    )
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The scrape server: one `TcpListener` accept loop on its own thread,
/// serving [`FleetTelemetry`] snapshots. Std-only — requests are
/// handled serially (a scrape is a handful of reads and one write),
/// and shutdown is cooperative: [`TelemetryServer::stop`] flips a flag
/// and self-connects to unblock `accept`.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// Bind `addr` (e.g. `127.0.0.1:9090`; port 0 picks a free port)
    /// and start serving `fleet` in a background thread.
    pub fn start(
        addr: impl ToSocketAddrs,
        fleet: Arc<FleetTelemetry>,
    ) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_ref = stop.clone();
        let handle = std::thread::Builder::new()
            .name("telemetry-scrape".into())
            .spawn(move || serve_loop(listener, fleet, stop_ref))?;
        Ok(TelemetryServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the serve thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Longest request head (request line plus headers) a scrape may send;
/// a longer one is answered 431.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Total time a client has to send its request head. The server is
/// single-threaded, so this bounds how long one client that trickles
/// bytes can hold it.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

fn serve_loop(listener: TcpListener, fleet: Arc<FleetTelemetry>, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // A stuck client must not wedge the scrape plane.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = handle_conn(stream, &fleet);
    }
}

/// Read the request head, up to the blank line that ends it or EOF,
/// within [`HEAD_DEADLINE`] in total. `None` when it outgrows
/// [`MAX_HEAD_BYTES`]; a timeout is an error.
fn read_head(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        if head.len() > MAX_HEAD_BYTES {
            return Ok(None);
        }
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            return Ok(Some(head));
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut buf)? {
            0 => return Ok(Some(head)),
            n => head.extend_from_slice(&buf[..n]),
        }
    }
}

fn handle_conn(mut stream: TcpStream, fleet: &FleetTelemetry) -> std::io::Result<()> {
    let head = read_head(&mut stream)?;
    let head = head.as_deref().map(String::from_utf8_lossy);
    // `None` when the head outgrew MAX_HEAD_BYTES.
    let path = head.as_deref().map(|h| {
        h.strip_prefix("GET ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or("")
    });
    let (status, content_type, body) = match path {
        None => (
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            "request head too large\n".to_string(),
        ),
        Some("/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            fleet.render_metrics(),
        ),
        Some("/healthz") => {
            let (healthy, body) = fleet.healthz();
            (
                if healthy { "200 OK" } else { "503 Service Unavailable" },
                "text/plain; charset=utf-8",
                body,
            )
        }
        Some("/cells") => ("200 OK", "application/json", fleet.render_cells_json()),
        Some(_) => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()?;
    // FIN before the close: a client whose unread bytes turn the close
    // into a reset still reads the whole response first.
    stream.shutdown(std::net::Shutdown::Write)
}

/// Blocking HTTP GET against a local scrape endpoint: `(status, body)`.
/// Test/CI helper — two-second timeouts, no redirects, no TLS.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksand_obs::Key;

    fn fleet_with_one_cell() -> (Arc<FleetTelemetry>, Arc<CellTelemetry>) {
        let reg = Arc::new(Registry::new());
        reg.incr(Key::stage("supervisor", "cells"), 1);
        reg.gauge(Key::stage("supervisor", "width"), 4.0);
        let fleet = Arc::new(FleetTelemetry::new(reg));
        fleet.set_deadline_ms(2_000);
        let cell = fleet.add_cell(0, "alpha \"quoted\"");
        let cell_reg = Arc::new(Registry::new());
        cell_reg.incr(Key::stage("churn", "events"), 42);
        cell.set_registry(cell_reg);
        cell.set_state(CellState::Running);
        cell.touch(75);
        (fleet, cell)
    }

    #[test]
    fn metrics_page_carries_supervisor_and_labeled_cell_series() {
        let (fleet, _cell) = fleet_with_one_cell();
        let page = fleet.render_metrics();
        assert!(page.contains("quicksand_supervisor_cells_total 1"));
        assert!(page.contains("quicksand_supervisor_width 4"));
        assert!(page.contains("state=\"running\""));
        assert!(page.contains("quicksand_cell_cursor{cell=\"0\","));
        // The cell registry appears under the cell label, escaped.
        assert!(page.contains(
            "quicksand_churn_events_total{cell=\"0\",label=\"alpha \\\"quoted\\\"\"} 42"
        ));
        // Every line is `name value` or `name{labels} value`.
        for line in page.lines() {
            let (series, value) = line.rsplit_once(' ').expect("two columns");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            if let Some(open) = series.find('{') {
                assert!(series.ends_with('}'), "unclosed labels in {line:?}");
                assert!(series[..open].chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
            }
        }
    }

    #[test]
    fn healthz_flips_on_stale_running_cells_only() {
        let (fleet, cell) = fleet_with_one_cell();
        assert!(fleet.healthz().0, "fresh running cell is healthy");
        // Shrink the deadline and let the beat actually age past 2×.
        fleet.set_deadline_ms(1);
        std::thread::sleep(Duration::from_millis(10));
        let (healthy, body) = fleet.healthz();
        assert!(!healthy);
        assert!(body.contains("cell 0 stale"));
        // Terminal cells are never stale.
        cell.set_state(CellState::Completed);
        assert!(fleet.healthz().0);
    }

    #[test]
    fn cells_json_is_valid_and_complete() {
        let (fleet, cell) = fleet_with_one_cell();
        cell.set_counts(2, 1);
        let json = fleet.render_cells_json();
        let v: serde::Value = serde_json::from_str(json.trim()).expect("valid JSON");
        let cells = v.as_seq().expect("array");
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        let as_u64 = |v: Option<&serde::Value>| match v {
            Some(serde::Value::U64(n)) => Some(*n),
            Some(serde::Value::I64(n)) => Some(*n as u64),
            _ => None,
        };
        assert_eq!(as_u64(c.field("cursor")), Some(75));
        assert_eq!(as_u64(c.field("restarts")), Some(2));
        assert_eq!(
            c.field("state").and_then(|v| v.as_str()),
            Some("running")
        );
    }

    #[test]
    fn server_serves_all_routes_and_stops_cleanly() {
        let (fleet, _cell) = fleet_with_one_cell();
        let mut server =
            TelemetryServer::start("127.0.0.1:0", fleet.clone()).expect("bind localhost");
        let addr = server.local_addr();
        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("quicksand_supervisor_cells_total"));
        let (status, body) = http_get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");
        let (status, body) = http_get(addr, "/cells").unwrap();
        assert_eq!(status, 200);
        assert!(body.starts_with('['));
        let (status, _) = http_get(addr, "/nope").unwrap();
        assert_eq!(status, 404);
        server.stop();
        server.stop(); // idempotent
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
                || http_get(addr, "/metrics").is_err(),
            "stopped server must not answer"
        );
    }

    #[test]
    fn oversized_request_head_gets_431_and_the_server_keeps_serving() {
        let (fleet, _cell) = fleet_with_one_cell();
        let mut server = TelemetryServer::start("127.0.0.1:0", fleet).expect("bind localhost");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // One 64 KiB line with no newline; the server may stop reading
        // (and close) before all of it is written.
        let _ = stream.write_all(&vec![b'a'; 64 * 1024]);
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 431 "), "{response:?}");
        let (status, _) = http_get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        server.stop();
    }

    #[test]
    fn a_trickling_client_cannot_hold_the_server() {
        let (fleet, _cell) = fleet_with_one_cell();
        let mut server = TelemetryServer::start("127.0.0.1:0", fleet).expect("bind localhost");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).unwrap();
        // One byte every 200 ms for 6 s, never finishing the request
        // line, unless the server hangs up first.
        let trickler = std::thread::spawn(move || {
            for _ in 0..30 {
                if stream.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        });
        std::thread::sleep(Duration::from_millis(300));
        let started = Instant::now();
        let mut probe = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).unwrap();
        probe.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(probe, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut response = String::new();
        probe.read_to_string(&mut response).expect("probe answered");
        assert!(response.starts_with("HTTP/1.1 200 "), "{response:?}");
        assert!(started.elapsed() < Duration::from_secs(5));
        trickler.join().unwrap();
        server.stop();
    }

    #[test]
    fn monotonic_ms_never_reports_zero_or_regresses() {
        let a = monotonic_ms();
        let b = monotonic_ms();
        assert!(a >= 1);
        assert!(b >= a);
    }

    #[test]
    fn feed_session_state_round_trips_and_counts() {
        let (fleet, _cell) = fleet_with_one_cell();
        let sess = fleet.add_feed_session(Some(0), "ris-peer", 2_000);
        assert_eq!(sess.state(), SessionState::Idle);
        sess.on_connect();
        sess.set_state(SessionState::Connect);
        sess.set_state(SessionState::Established);
        sess.set_acked(17);
        sess.on_dead_letter();
        sess.on_reap(17);
        assert_eq!(sess.state(), SessionState::Established);
        assert_eq!(sess.acked(), 17);
        assert_eq!(sess.connects(), 1);
        assert_eq!(sess.reaps(), 1);
        assert_eq!(sess.last_reap_cursor(), 17);
        assert_eq!(sess.dead_letters(), 1);
        assert!(!sess.eof());
        for (tag, state) in [
            (0u8, SessionState::Idle),
            (1, SessionState::Connect),
            (2, SessionState::Established),
            (99, SessionState::Idle),
        ] {
            assert_eq!(SessionState::from_u8(tag), state);
        }
    }

    #[test]
    fn healthz_alarms_only_when_all_live_feeds_pass_hold() {
        let (fleet, _cell) = fleet_with_one_cell();
        // Hold of 0ms: stale as soon as any time passes.
        let a = fleet.add_feed_session(Some(0), "peer-a", 0);
        let b = fleet.add_feed_session(None, "peer-b", 3_600_000);
        std::thread::sleep(Duration::from_millis(5));
        // One fresh session keeps the fleet healthy.
        assert!(fleet.healthz().0, "peer-b within hold keeps healthz ok");
        // Mark the fresh one complete: only the stale one is live.
        b.set_eof();
        let (healthy, body) = fleet.healthz();
        assert!(!healthy, "all live feeds past hold must 503");
        assert!(body.contains("feed peer-a silent"), "body: {body}");
        // Activity on the stale session restores health.
        a.touch();
        assert!(fleet.healthz().0);
        // All sessions complete: vacuously healthy.
        a.set_eof();
        assert!(fleet.healthz().0);
    }

    #[test]
    fn metrics_and_cells_json_carry_feed_series() {
        let (fleet, _cell) = fleet_with_one_cell();
        let sess = fleet.add_feed_session(Some(0), "ris-peer", 2_000);
        sess.set_state(SessionState::Established);
        sess.set_acked(42);
        let page = fleet.render_metrics();
        assert!(page.contains("quicksand_feed_state{peer=\"ris-peer\",state=\"established\"} 1"));
        assert!(page.contains("quicksand_feed_acked{peer=\"ris-peer\"} 42"));
        assert!(page.contains("quicksand_feed_eof{peer=\"ris-peer\"} 0"));
        let json = fleet.render_cells_json();
        let v: serde::Value = serde_json::from_str(json.trim()).expect("valid JSON");
        let cells = v.as_seq().expect("array");
        let feed = cells[0].field("feed").expect("cell 0 embeds its feed");
        assert_eq!(
            feed.field("state").and_then(|v| v.as_str()),
            Some("established")
        );
        assert_eq!(
            match feed.field("acked") {
                Some(serde::Value::U64(n)) => Some(*n),
                Some(serde::Value::I64(n)) => Some(*n as u64),
                _ => None,
            },
            Some(42)
        );
    }
}
