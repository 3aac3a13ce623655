//! Long-running multi-session protocol daemon.
//!
//! [`serve_mux_connection`] is the server side of the session-mux
//! envelope ([`crate::mux`]): a single-threaded event loop that owns one
//! framed connection, routes inbound mux frames to per-session bounded
//! queues, spawns one handler thread per admitted session, and drains
//! everything the handlers send back out. The loop never blocks
//! indefinitely on any one session:
//!
//! * **Admission control** — a shared [`SessionRegistry`] caps in-flight
//!   sessions across every connection of the daemon. An OPEN past the cap
//!   is answered with a typed BUSY frame ([`NetError::Busy`] client-side),
//!   never queued and never hung.
//! * **Backpressure / load-shedding** — each session's inbound queue is
//!   bounded ([`MuxConfig::session_queue_depth`]). A session whose
//!   handler stops draining is shed: its queue is dropped (the handler
//!   sees `Closed`), a CLOSE frame tells the peer, and every other
//!   session is untouched.
//! * **Graceful shutdown** — a [`ShutdownHandle`] stops admission
//!   (BUSY) while active sessions drain; once the last one finishes the
//!   loop flushes its outbound queue, says GOAWAY, and returns. A peer's
//!   GOAWAY triggers the same drain from the other end.
//!
//! [`MuxClient`] is the matching client: a background driver thread owns
//! the connection, demultiplexes ACCEPT/BUSY/DATA/CLOSE to per-session
//! channels, and [`MuxClient::open_session`] hands out
//! [`SessionTransport`]s — each one an ordinary [`Transport`] that the
//! unmodified protocol engines run over.
//!
//! Handler threads communicate with the loop only through channels, so
//! the loop holds no locks (LOCK01 has nothing to inspect) and a handler
//! panic is confined to its session: the scope join reaps the thread and
//! the session is simply gone, with a CLOSE on the wire.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};

use crate::error::NetError;
use crate::mux::{MuxFrame, MuxKind};
use crate::transport::{DeadlineTransport, Transport};

/// Knobs for the mux server loop and client driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MuxConfig {
    /// Bound on each session's inbound frame queue; a session that falls
    /// further behind than this is shed with a CLOSE.
    pub session_queue_depth: usize,
    /// Transport poll granularity of the event loop, in milliseconds
    /// (virtual on the simnet, wall-clock on TCP).
    pub poll_interval_ms: u64,
    /// Client-side wait for an ACCEPT/BUSY answer per OPEN attempt, in
    /// wall-clock milliseconds.
    pub open_timeout_ms: u64,
    /// Client-side OPEN (re)transmissions before giving up.
    pub open_attempts: u32,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            session_queue_depth: 4096,
            poll_interval_ms: 5,
            open_timeout_ms: 10_000,
            open_attempts: 3,
        }
    }
}

/// Daemon-wide session admission: a capacity shared by every connection
/// the server accepts. Lock-free — admission is one atomic update.
#[derive(Debug)]
pub struct SessionRegistry {
    active: AtomicUsize,
    limit: usize,
}

impl SessionRegistry {
    /// A registry admitting at most `limit` concurrent sessions.
    pub fn new(limit: usize) -> Arc<Self> {
        Arc::new(SessionRegistry {
            active: AtomicUsize::new(0),
            limit,
        })
    }

    /// The capacity in force.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Number of sessions currently admitted.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    fn try_admit(&self) -> bool {
        self.active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.limit).then_some(n + 1)
            })
            .is_ok()
    }

    fn release(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Cooperative shutdown flag shared between the accept loop, every
/// connection loop, and whatever decides the daemon is done.
#[derive(Debug, Clone, Default)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// A fresh, un-set handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins graceful shutdown: connection loops stop admitting new
    /// sessions and return once their active sessions drain.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// What one connection loop did, returned when it exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions admitted and spawned.
    pub opened: u64,
    /// Sessions whose handler ran to completion.
    pub completed: u64,
    /// OPENs refused because the registry was at capacity (or the
    /// connection was draining).
    pub rejected_busy: u64,
    /// Sessions shed because their bounded inbound queue overflowed.
    pub shed_overflow: u64,
    /// Inbound frames dropped as malformed (truncated/corrupt mux
    /// header or checksum).
    pub malformed: u64,
    /// Sessions the peer closed before the handler finished.
    pub closed_by_peer: u64,
    /// STATS snapshots served over this connection.
    pub stats_served: u64,
}

/// Produces the payload of a STATS reply: one versioned JSON snapshot of
/// the daemon's metrics registry. The provider is registered with the
/// static analyzer as a wire exporter (WIRE01): anything it returns goes
/// straight onto the connection, so secret-typed values must never flow
/// into it — only the registry's typed numeric aggregates.
pub type StatsProvider = Arc<dyn Fn() -> Vec<u8> + Send + Sync>;

/// The transport one session sees: an ordinary frame pipe whose frames
/// travel inside the mux envelope. `send` enqueues a DATA frame on the
/// connection's outbound queue (never blocks — the queue is unbounded
/// and drained by the event loop); `recv` blocks on the session's
/// bounded inbound queue. Dropping the transport enqueues a best-effort
/// CLOSE so the peer learns the session ended.
pub struct SessionTransport {
    session: u32,
    out: Sender<MuxFrame>,
    inbound: Receiver<Vec<u8>>,
    send_seq: u32,
}

impl SessionTransport {
    fn new(session: u32, out: Sender<MuxFrame>, inbound: Receiver<Vec<u8>>) -> Self {
        SessionTransport {
            session,
            out,
            inbound,
            send_seq: 0,
        }
    }

    /// The mux session id this transport belongs to.
    pub fn session_id(&self) -> u32 {
        self.session
    }
}

impl std::fmt::Debug for SessionTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTransport")
            .field("session", &self.session)
            .field("send_seq", &self.send_seq)
            .finish_non_exhaustive()
    }
}

impl Transport for SessionTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let seq = self.send_seq;
        self.send_seq = seq.checked_add(1).ok_or(NetError::SequenceExhausted)?;
        self.out
            .send(MuxFrame::data(self.session, seq, frame.to_vec()))
            .map_err(|_| NetError::Closed)
    }

    fn recv(&mut self) -> Result<Vec<u8>, NetError> {
        self.inbound.recv().map_err(|_| NetError::Closed)
    }
}

impl DeadlineTransport for SessionTransport {
    fn recv_deadline(&mut self, timeout_ms: u64) -> Result<Option<Vec<u8>>, NetError> {
        match self
            .inbound
            .recv_timeout(std::time::Duration::from_millis(timeout_ms))
        {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }
}

impl Drop for SessionTransport {
    fn drop(&mut self) {
        // Best-effort: if the loop is already gone the peer will learn
        // from the connection closing instead.
        let _ = self
            .out
            .send(MuxFrame::control(MuxKind::Close, self.session));
    }
}

/// One admitted session as the connection loop tracks it. Dropping the
/// entry drops the inbound sender, which is how the handler (blocked in
/// `recv`) learns the session is over.
struct SessionEntry {
    tx: Sender<Vec<u8>>,
}

/// Runs the server side of one mux connection until the peer departs,
/// the peer says GOAWAY and every session drains, or shutdown is
/// requested and every session drains. See the module docs for the
/// admission / shedding / shutdown semantics.
///
/// `handler` runs once per admitted session on its own thread, with the
/// session id, the OPEN request payload, and the session's transport.
/// Its lifetime is bounded by this call: all handler threads are joined
/// before the function returns.
///
/// `stats` answers read-only STATS frames on session 0 with a metrics
/// snapshot; `None` replies with an empty JSON object so a scrape of a
/// daemon without a registry degrades, not hangs.
pub fn serve_mux_connection<T, F>(
    mut transport: T,
    config: &MuxConfig,
    registry: &SessionRegistry,
    shutdown: &ShutdownHandle,
    stats_provider: Option<StatsProvider>,
    handler: F,
) -> Result<ServerStats, NetError>
where
    T: DeadlineTransport,
    F: Fn(u32, Vec<u8>, SessionTransport) + Send + Sync,
{
    let (out_tx, out_rx) = unbounded::<MuxFrame>();
    let (done_tx, done_rx) = unbounded::<u32>();
    let mut sessions: HashMap<u32, SessionEntry> = HashMap::new();
    let mut finished: HashSet<u32> = HashSet::new();
    let mut stats = ServerStats::default();
    let mut peer_goaway = false;
    // Set once a send surfaces peer departure: stop sending, but keep
    // draining and routing what the peer already delivered (its CLOSE
    // and GOAWAY frames may still be buffered in the transport) so
    // every session is accounted for before the loop exits.
    let mut peer_send_dead = false;
    let handler = &handler;

    std::thread::scope(|scope| {
        // Releases every live session's registry slot and drops the
        // inbound senders, so blocked handlers wake with `Closed` and the
        // scope can join them. Every exit path funnels through this.
        let cleanup = |sessions: &mut HashMap<u32, SessionEntry>| {
            for (_, _entry) in sessions.drain() {
                registry.release();
            }
        };
        loop {
            // Reap completed handlers first: their CLOSE frames (from
            // the SessionTransport drop) are already in the outbound
            // queue, so the subsequent flush sends them.
            while let Ok(sid) = done_rx.try_recv() {
                if sessions.remove(&sid).is_some() {
                    finished.insert(sid);
                    registry.release();
                    stats.completed += 1;
                    minshare_trace::emit("server", "session_complete", false, || {
                        vec![minshare_trace::count("session", u64::from(sid))]
                    });
                }
            }
            // Flush the outbound queue. A peer that hung up mid-flush is
            // not an error: undelivered frames are moot once nobody is
            // listening. The reliability layer reports a departed peer on
            // the *send* side as deterministic retry exhaustion
            // (robust.rs pins this), so both shapes mean departure. The
            // loop does not exit yet, though — frames the peer delivered
            // before leaving (CLOSEs, its GOAWAY) may still be buffered
            // below and must be routed so sessions drain accountably.
            while let Ok(frame) = out_rx.try_recv() {
                if peer_send_dead {
                    continue;
                }
                match transport.send(&frame.encode()) {
                    Ok(()) => {}
                    Err(NetError::Closed) | Err(NetError::RetriesExhausted { .. }) => {
                        peer_send_dead = true;
                        peer_goaway = true;
                    }
                    Err(e) => {
                        cleanup(&mut sessions);
                        return Err(e);
                    }
                }
            }
            // The outbound queue was just drained exhaustively; with no
            // live sessions left nothing else can be enqueued (frames
            // from already-removed handlers are moot).
            let draining = peer_goaway || shutdown.is_shutdown();
            if draining && sessions.is_empty() {
                // Best-effort farewell: the peer may already be gone.
                if !peer_send_dead {
                    let _ = transport.send(&MuxFrame::control(MuxKind::Goaway, 0).encode());
                }
                minshare_trace::emit("server", "drained", false, || {
                    vec![minshare_trace::count("completed", stats.completed)]
                });
                return Ok(stats);
            }

            let raw = match transport.recv_deadline(config.poll_interval_ms) {
                Ok(Some(raw)) => raw,
                Ok(None) => continue,
                Err(NetError::Closed) => {
                    // Peer gone: handlers see `Closed` and the scope
                    // joins them.
                    cleanup(&mut sessions);
                    return Ok(stats);
                }
                Err(e) => {
                    cleanup(&mut sessions);
                    return Err(e);
                }
            };
            let frame = match MuxFrame::decode(&raw) {
                Ok(frame) => frame,
                Err(_) => {
                    // Corruption is loss, never misrouting; the session's
                    // own reliability layer retransmits.
                    stats.malformed += 1;
                    continue;
                }
            };
            match frame.kind {
                MuxKind::Open => {
                    let sid = frame.session;
                    if sessions.contains_key(&sid) {
                        // Retransmitted OPEN: the admission decision is
                        // idempotent.
                        let _ = out_tx.send(MuxFrame::control(MuxKind::Accept, sid));
                    } else if finished.contains(&sid) {
                        // The session already ran to completion; a late
                        // duplicate must not run it again.
                        let _ = out_tx.send(MuxFrame::control(MuxKind::Accept, sid));
                        let _ = out_tx.send(MuxFrame::control(MuxKind::Close, sid));
                    } else if draining || shutdown.is_shutdown() || !registry.try_admit() {
                        // `draining` was computed before the poll that
                        // delivered this OPEN; re-reading the shutdown
                        // flag here makes "shutdown, then OPEN" shed
                        // deterministically even within one poll window.
                        stats.rejected_busy += 1;
                        minshare_trace::emit("server", "busy", false, || {
                            vec![minshare_trace::count("session", u64::from(sid))]
                        });
                        let _ = out_tx.send(MuxFrame::busy(sid, registry.limit()));
                    } else {
                        stats.opened += 1;
                        minshare_trace::emit("server", "session_open", false, || {
                            vec![minshare_trace::count("session", u64::from(sid))]
                        });
                        let (in_tx, in_rx) = bounded(config.session_queue_depth);
                        sessions.insert(sid, SessionEntry { tx: in_tx });
                        // ACCEPT goes on the queue before the handler can
                        // enqueue any DATA.
                        let _ = out_tx.send(MuxFrame::control(MuxKind::Accept, sid));
                        let session_transport =
                            SessionTransport::new(sid, out_tx.clone(), in_rx);
                        let request = frame.payload;
                        let done = done_tx.clone();
                        scope.spawn(move || {
                            handler(sid, request, session_transport);
                            let _ = done.send(sid);
                        });
                    }
                }
                MuxKind::Data => {
                    let sid = frame.session;
                    let mut shed = false;
                    if let Some(entry) = sessions.get(&sid) {
                        match entry.tx.try_send(frame.payload) {
                            Ok(()) => {}
                            Err(TrySendError::Full(_)) => shed = true,
                            // Handler already gone; the frame is moot.
                            Err(TrySendError::Disconnected(_)) => {}
                        }
                    }
                    if shed {
                        // The handler stopped draining its queue: shed
                        // this one session, leave the rest alone.
                        stats.shed_overflow += 1;
                        minshare_trace::emit("server", "session_shed", false, || {
                            vec![minshare_trace::count("session", u64::from(sid))]
                        });
                        if sessions.remove(&sid).is_some() {
                            finished.insert(sid);
                            registry.release();
                        }
                        let _ = out_tx.send(MuxFrame::control(MuxKind::Close, sid));
                    }
                }
                MuxKind::Close => {
                    let sid = frame.session;
                    if sessions.remove(&sid).is_some() {
                        finished.insert(sid);
                        registry.release();
                        stats.closed_by_peer += 1;
                        minshare_trace::emit("server", "closed_by_peer", false, || {
                            vec![minshare_trace::count("session", u64::from(sid))]
                        });
                    }
                }
                MuxKind::Goaway => {
                    peer_goaway = true;
                }
                MuxKind::Stats => {
                    // Read-only telemetry on session 0: answer with one
                    // registry snapshot. No provider degrades to an
                    // empty object, never a hang.
                    let payload = stats_provider
                        .as_ref()
                        .map_or_else(|| b"{}".to_vec(), |p| p());
                    stats.stats_served += 1;
                    minshare_trace::emit("server", "stats_served", false, || {
                        vec![minshare_trace::size("bytes", payload.len() as u64)]
                    });
                    let _ = out_tx.send(MuxFrame {
                        kind: MuxKind::Stats,
                        session: 0,
                        seq: 0,
                        payload,
                    });
                }
                // Server never expects these; a confused peer's frames
                // are dropped, not fatal.
                MuxKind::Accept | MuxKind::Busy => {}
            }
        }
    })
}

/// What the client driver tracks per pending OPEN.
struct PendingOpen {
    reply: Sender<Result<Receiver<Vec<u8>>, NetError>>,
}

/// A request to the client driver. `Open` and `Stats` carry their first
/// frame, which the driver writes only after registering the pending
/// reply — so an answer can never arrive before there is anyone to hand
/// it to. Retransmissions go through the ordinary outbound queue.
enum ClientCtl {
    Open {
        session: u32,
        request: Vec<u8>,
        pending: PendingOpen,
    },
    Stats {
        reply: Sender<Result<Vec<u8>, NetError>>,
    },
    Close,
}

/// Client side of a mux connection: a background driver thread owns the
/// transport; sessions opened through [`MuxClient::open_session`] are
/// ordinary [`Transport`]s multiplexed over it.
pub struct MuxClient {
    out_tx: Sender<MuxFrame>,
    ctl_tx: Sender<ClientCtl>,
    driver: Option<std::thread::JoinHandle<Result<(), NetError>>>,
    next_session: u32,
    config: MuxConfig,
}

impl MuxClient {
    /// Starts the driver thread over `transport`.
    ///
    /// Driver errors (a transport failure mid-connection) surface from
    /// [`MuxClient::close`]; sessions observe them as `Closed`.
    pub fn new<T>(transport: T, config: MuxConfig) -> Self
    where
        T: DeadlineTransport + Send + 'static,
    {
        let (out_tx, out_rx) = unbounded::<MuxFrame>();
        let (ctl_tx, ctl_rx) = unbounded::<ClientCtl>();
        let driver = std::thread::Builder::new()
            .name("mux-client".to_string())
            .spawn(move || client_driver(transport, config, &out_rx, &ctl_rx))
            .ok();
        MuxClient {
            out_tx,
            ctl_tx,
            driver,
            next_session: 1,
            config,
        }
    }

    /// Opens a new session, sending `request` as the OPEN payload.
    ///
    /// Returns the session's transport on ACCEPT, [`NetError::Busy`] if
    /// the server shed the session at admission, [`NetError::Closed`] if
    /// the connection died, or [`NetError::TimedOut`] if every OPEN
    /// attempt went unanswered.
    pub fn open_session(&mut self, request: &[u8]) -> Result<SessionTransport, NetError> {
        let sid = self.next_session;
        self.next_session = sid.checked_add(1).ok_or(NetError::SequenceExhausted)?;
        let (reply_tx, reply_rx) = bounded(1);
        self.ctl_tx
            .send(ClientCtl::Open {
                session: sid,
                request: request.to_vec(),
                pending: PendingOpen { reply: reply_tx },
            })
            .map_err(|_| NetError::Closed)?;
        let timeout = std::time::Duration::from_millis(self.config.open_timeout_ms);
        for attempt in 0..self.config.open_attempts.max(1) {
            if attempt > 0 {
                self.out_tx
                    .send(MuxFrame::open(sid, request.to_vec()))
                    .map_err(|_| NetError::Closed)?;
            }
            match reply_rx.recv_timeout(timeout) {
                Ok(Ok(inbound)) => {
                    return Ok(SessionTransport::new(sid, self.out_tx.clone(), inbound))
                }
                Ok(Err(e)) => return Err(e),
                // Quiet window: retransmit the OPEN (the server answers
                // duplicates idempotently).
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(NetError::Closed),
            }
        }
        Err(NetError::TimedOut {
            waited_ms: self.config.open_timeout_ms * u64::from(self.config.open_attempts.max(1)),
        })
    }

    /// Fetches one metrics snapshot from the server: sends a STATS frame
    /// on session 0 and waits for the reply payload (a versioned JSON
    /// object; see `minshare-trace::metrics::STATS_VERSION`).
    ///
    /// Retransmits on quiet windows like `open_session` (duplicate
    /// replies are dropped as noise), and fails typed: `Closed` when the
    /// connection died, `TimedOut` when every attempt went unanswered.
    pub fn fetch_stats(&mut self) -> Result<Vec<u8>, NetError> {
        let (reply_tx, reply_rx) = bounded(1);
        self.ctl_tx
            .send(ClientCtl::Stats { reply: reply_tx })
            .map_err(|_| NetError::Closed)?;
        let timeout = std::time::Duration::from_millis(self.config.open_timeout_ms);
        for attempt in 0..self.config.open_attempts.max(1) {
            if attempt > 0 {
                self.out_tx
                    .send(MuxFrame::control(MuxKind::Stats, 0))
                    .map_err(|_| NetError::Closed)?;
            }
            match reply_rx.recv_timeout(timeout) {
                Ok(result) => return result,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(NetError::Closed),
            }
        }
        Err(NetError::TimedOut {
            waited_ms: self.config.open_timeout_ms * u64::from(self.config.open_attempts.max(1)),
        })
    }

    /// Says GOAWAY, flushes the outbound queue, and joins the driver.
    /// Returns the driver's terminal result.
    pub fn close(mut self) -> Result<(), NetError> {
        let _ = self.ctl_tx.send(ClientCtl::Close);
        match self.driver.take().map(|d| d.join()) {
            Some(Ok(result)) => result,
            // A panicked driver was already confined to its thread.
            Some(Err(_)) => Err(NetError::Closed),
            None => Ok(()),
        }
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        let _ = self.ctl_tx.send(ClientCtl::Close);
        if let Some(driver) = self.driver.take() {
            let _ = driver.join();
        }
    }
}

/// The client's demultiplexing loop. Mirrors the server loop, with
/// pending OPENs in place of admission control.
fn client_driver<T: DeadlineTransport>(
    mut transport: T,
    config: MuxConfig,
    out_rx: &Receiver<MuxFrame>,
    ctl_rx: &Receiver<ClientCtl>,
) -> Result<(), NetError> {
    let mut pending: HashMap<u32, PendingOpen> = HashMap::new();
    let mut pending_stats: std::collections::VecDeque<Sender<Result<Vec<u8>, NetError>>> =
        std::collections::VecDeque::new();
    let mut sessions: HashMap<u32, Sender<Vec<u8>>> = HashMap::new();
    let mut remote_goaway = false;
    let mut closing = false;
    loop {
        let mut first_frames = Vec::new();
        while let Ok(ctl) = ctl_rx.try_recv() {
            match ctl {
                ClientCtl::Open {
                    session,
                    request,
                    pending: p,
                } => {
                    if remote_goaway {
                        let _ = p.reply.send(Err(NetError::Busy { limit: 0 }));
                    } else {
                        pending.insert(session, p);
                        first_frames.push(MuxFrame::open(session, request));
                    }
                }
                // Stats stay answerable while draining: a scrape of a
                // shutting-down daemon still sees its final counters.
                ClientCtl::Stats { reply } => {
                    pending_stats.push_back(reply);
                    first_frames.push(MuxFrame::control(MuxKind::Stats, 0));
                }
                ClientCtl::Close => closing = true,
            }
        }
        let mut peer_gone = false;
        let queued = std::iter::from_fn(|| out_rx.try_recv().ok());
        for frame in first_frames.into_iter().chain(queued) {
            match transport.send(&frame.encode()) {
                Ok(()) => {}
                // The server hung up (surfaced as `Closed`, or as retry
                // exhaustion by a reliability layer underneath); whatever
                // is left unsent is moot.
                Err(NetError::Closed) | Err(NetError::RetriesExhausted { .. }) => {
                    peer_gone = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        if peer_gone {
            for (_, p) in pending.drain() {
                let _ = p.reply.send(Err(NetError::Closed));
            }
            for reply in pending_stats.drain(..) {
                let _ = reply.send(Err(NetError::Closed));
            }
            return Ok(());
        }
        if closing {
            // Best-effort farewell: the server may already be gone.
            let _ = transport.send(&MuxFrame::control(MuxKind::Goaway, 0).encode());
            return Ok(());
        }

        let raw = match transport.recv_deadline(config.poll_interval_ms) {
            Ok(Some(raw)) => raw,
            Ok(None) => continue,
            Err(NetError::Closed) => {
                for (_, p) in pending.drain() {
                    let _ = p.reply.send(Err(NetError::Closed));
                }
                for reply in pending_stats.drain(..) {
                    let _ = reply.send(Err(NetError::Closed));
                }
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let Ok(frame) = MuxFrame::decode(&raw) else {
            continue;
        };
        match frame.kind {
            MuxKind::Accept => {
                if let Some(p) = pending.remove(&frame.session) {
                    let (in_tx, in_rx) = bounded(config.session_queue_depth);
                    sessions.insert(frame.session, in_tx);
                    let _ = p.reply.send(Ok(in_rx));
                }
                // Duplicate ACCEPT for an already-active session: noise.
            }
            MuxKind::Busy => {
                if let Some(p) = pending.remove(&frame.session) {
                    let _ = p.reply.send(Err(NetError::Busy {
                        limit: frame.busy_limit(),
                    }));
                }
            }
            MuxKind::Data => {
                if let Some(tx) = sessions.get(&frame.session) {
                    // A client session that stops draining sheds itself;
                    // the server-directed paths already handle CLOSE.
                    let _ = tx.try_send(frame.payload);
                }
            }
            MuxKind::Close => {
                sessions.remove(&frame.session);
                if let Some(p) = pending.remove(&frame.session) {
                    // ACCEPT-then-CLOSE for an already-finished session.
                    let _ = p.reply.send(Err(NetError::Closed));
                }
            }
            MuxKind::Goaway => {
                remote_goaway = true;
                for (_, p) in pending.drain() {
                    let _ = p.reply.send(Err(NetError::Busy { limit: 0 }));
                }
            }
            MuxKind::Stats => {
                // A snapshot reply; a duplicate (from a retransmitted
                // request) finds no pending scrape and is dropped.
                if let Some(reply) = pending_stats.pop_front() {
                    let _ = reply.send(Ok(frame.payload));
                }
            }
            // Client never receives OPEN; drop it.
            MuxKind::Open => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplex::duplex_pair;

    fn echo_handler(_sid: u32, _request: Vec<u8>, mut t: SessionTransport) {
        while let Ok(frame) = t.recv() {
            if t.send(&frame).is_err() {
                break;
            }
        }
    }

    fn fast_config() -> MuxConfig {
        MuxConfig {
            poll_interval_ms: 1,
            open_timeout_ms: 2_000,
            ..MuxConfig::default()
        }
    }

    /// Runs a server loop over one duplex end on a helper thread.
    fn spawn_echo_server(
        limit: usize,
    ) -> (
        MuxClient,
        ShutdownHandle,
        std::thread::JoinHandle<Result<ServerStats, NetError>>,
    ) {
        let (client_end, server_end) = duplex_pair();
        let shutdown = ShutdownHandle::new();
        let shutdown_server = shutdown.clone();
        let server = std::thread::spawn(move || {
            let registry = SessionRegistry::new(limit);
            let provider: StatsProvider =
                Arc::new(|| b"{\"stats_version\":1,\"epoch\":0}".to_vec());
            serve_mux_connection(
                server_end,
                &fast_config(),
                &registry,
                &shutdown_server,
                Some(provider),
                echo_handler,
            )
        });
        let client = MuxClient::new(client_end, fast_config());
        (client, shutdown, server)
    }

    /// A peer that answers every OPEN with an ACCEPT the moment it is
    /// written, and never blocks a receive: the ACCEPT is back before the
    /// driver's next poll, the tightest timing a real server can produce.
    struct InstantAcceptor {
        replies: std::collections::VecDeque<Vec<u8>>,
    }

    impl Transport for InstantAcceptor {
        fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
            if let Ok(frame) = MuxFrame::decode(frame) {
                if frame.kind == MuxKind::Open {
                    let accept = MuxFrame::control(MuxKind::Accept, frame.session);
                    self.replies.push_back(accept.encode());
                }
            }
            Ok(())
        }

        fn recv(&mut self) -> Result<Vec<u8>, NetError> {
            self.replies.pop_front().ok_or(NetError::Closed)
        }
    }

    impl DeadlineTransport for InstantAcceptor {
        fn recv_deadline(&mut self, _timeout_ms: u64) -> Result<Option<Vec<u8>>, NetError> {
            Ok(self.replies.pop_front())
        }
    }

    /// Back-to-back opens against an instant ACCEPT never lose the
    /// answer: the driver registers each pending open before it writes
    /// the OPEN frame, so no open waits out its timeout.
    #[test]
    fn instant_accepts_never_stall_an_open() {
        let config = MuxConfig {
            poll_interval_ms: 1,
            open_timeout_ms: 2_000,
            open_attempts: 1,
            ..MuxConfig::default()
        };
        let peer = InstantAcceptor {
            replies: std::collections::VecDeque::new(),
        };
        let mut client = MuxClient::new(peer, config);
        for i in 0..3000 {
            match client.open_session(b"req") {
                Ok(session) => drop(session),
                Err(e) => panic!("open {i} failed: {e:?}"),
            }
        }
        client.close().unwrap();
    }

    #[test]
    fn sessions_echo_independently() {
        let (mut client, _shutdown, server) = spawn_echo_server(8);
        let mut a = client.open_session(b"a").unwrap();
        let mut b = client.open_session(b"b").unwrap();
        a.send(b"first-a").unwrap();
        b.send(b"first-b").unwrap();
        assert_eq!(a.recv().unwrap(), b"first-a");
        assert_eq!(b.recv().unwrap(), b"first-b");
        drop(a);
        drop(b);
        client.close().unwrap();
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.opened, 2);
        assert_eq!(stats.rejected_busy, 0);
    }

    #[test]
    fn admission_cap_is_typed_busy() {
        let (mut client, _shutdown, server) = spawn_echo_server(1);
        let a = client.open_session(b"a").unwrap();
        let err = client.open_session(b"b").unwrap_err();
        assert_eq!(err, NetError::Busy { limit: 1 });
        drop(a);
        // The slot frees once the server reaps the CLOSE; a later open
        // succeeds again.
        let mut c = loop {
            match client.open_session(b"c") {
                Ok(t) => break t,
                Err(NetError::Busy { .. }) => std::thread::yield_now(),
                Err(other) => panic!("unexpected open error: {other}"),
            }
        };
        c.send(b"ping").unwrap();
        assert_eq!(c.recv().unwrap(), b"ping");
        drop(c);
        client.close().unwrap();
        let stats = server.join().unwrap().unwrap();
        assert!(stats.rejected_busy >= 1);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let (mut client, _shutdown, server) = spawn_echo_server(0);
        assert_eq!(
            client.open_session(b"x").unwrap_err(),
            NetError::Busy { limit: 0 }
        );
        client.close().unwrap();
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.opened, 0);
        assert_eq!(stats.rejected_busy, 1);
    }

    #[test]
    fn graceful_shutdown_drains_active_sessions() {
        let (mut client, shutdown, server) = spawn_echo_server(8);
        let mut a = client.open_session(b"a").unwrap();
        a.send(b"in-flight").unwrap();
        shutdown.shutdown();
        // New sessions are refused while draining...
        let err = loop {
            match client.open_session(b"late") {
                Err(e) => break e,
                // The shutdown flag may not be visible to the loop yet.
                Ok(t) => drop(t),
            }
        };
        assert!(matches!(err, NetError::Busy { .. } | NetError::Closed));
        // ...but the active session still completes its round trip.
        assert_eq!(a.recv().unwrap(), b"in-flight");
        drop(a);
        let stats = server.join().unwrap().unwrap();
        // The drained session ended one of two ways depending on timing:
        // the handler noticed the client's CLOSE and finished, or the
        // loop reaped the CLOSE first. Either way it was admitted and
        // served to completion, not cut off. (`opened` may exceed 1 if a
        // "late" open slipped in before the flag became visible.)
        assert!(stats.opened >= 1);
        assert!(stats.completed + stats.closed_by_peer >= 1);
        client.close().unwrap();
    }

    #[test]
    fn queue_overflow_sheds_only_the_stalled_session() {
        let config = MuxConfig {
            session_queue_depth: 4,
            ..fast_config()
        };
        let (client_end, server_end) = duplex_pair();
        let shutdown = ShutdownHandle::new();
        let shutdown_server = shutdown.clone();
        // Handler that never drains: its queue must overflow and shed.
        let server = std::thread::spawn(move || {
            let registry = SessionRegistry::new(8);
            serve_mux_connection(
                server_end,
                &config,
                &registry,
                &shutdown_server,
                None,
                |_sid, request, mut t: SessionTransport| {
                    if request == b"stall" {
                        // Refuse to drain long enough for the flood to
                        // overflow the bounded queue, then drain until
                        // the shed surfaces as a typed close.
                        std::thread::sleep(std::time::Duration::from_millis(500));
                        loop {
                            match t.recv_deadline(10) {
                                Ok(Some(_)) | Ok(None) => continue,
                                Err(_) => break,
                            }
                        }
                    } else {
                        echo_handler(0, request, t);
                    }
                },
            )
        });
        let mut client = MuxClient::new(client_end, config);
        let mut stalled = client.open_session(b"stall").unwrap();
        let mut live = client.open_session(b"echo").unwrap();
        // Flood the stalled session far past its queue depth.
        for _ in 0..64 {
            if stalled.send(b"flood").is_err() {
                break;
            }
        }
        // The healthy session is untouched by its neighbor being shed.
        live.send(b"still alive").unwrap();
        assert_eq!(live.recv().unwrap(), b"still alive");
        // The stalled session ends in a typed close, not a hang.
        assert_eq!(stalled.recv().unwrap_err(), NetError::Closed);
        drop(stalled);
        drop(live);
        client.close().unwrap();
        let stats = server.join().unwrap().unwrap();
        assert!(stats.shed_overflow >= 1, "stats: {stats:?}");
    }

    #[test]
    fn stats_scrape_round_trips_and_counts() {
        let (mut client, _shutdown, server) = spawn_echo_server(8);
        let mut a = client.open_session(b"a").unwrap();
        a.send(b"ping").unwrap();
        assert_eq!(a.recv().unwrap(), b"ping");
        // A scrape mid-session answers from the provider without
        // disturbing the live session.
        let snap = client.fetch_stats().unwrap();
        assert_eq!(snap, b"{\"stats_version\":1,\"epoch\":0}");
        a.send(b"pong").unwrap();
        assert_eq!(a.recv().unwrap(), b"pong");
        drop(a);
        client.close().unwrap();
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.stats_served, 1);
    }

    #[test]
    fn stats_scrape_without_provider_degrades_to_empty_object() {
        let (client_end, server_end) = duplex_pair();
        let shutdown = ShutdownHandle::new();
        let shutdown_server = shutdown.clone();
        let server = std::thread::spawn(move || {
            let registry = SessionRegistry::new(8);
            serve_mux_connection(
                server_end,
                &fast_config(),
                &registry,
                &shutdown_server,
                None,
                echo_handler,
            )
        });
        let mut client = MuxClient::new(client_end, fast_config());
        assert_eq!(client.fetch_stats().unwrap(), b"{}");
        client.close().unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn handler_panic_is_confined_to_its_session() {
        let (client_end, server_end) = duplex_pair();
        let shutdown = ShutdownHandle::new();
        let shutdown_server = shutdown.clone();
        let server = std::thread::spawn(move || {
            let registry = SessionRegistry::new(8);
            serve_mux_connection(
                server_end,
                &fast_config(),
                &registry,
                &shutdown_server,
                None,
                |_sid, request, mut t: SessionTransport| {
                    if request == b"bomb" {
                        panic!("session blew up");
                    }
                    while let Ok(frame) = t.recv() {
                        if t.send(&frame).is_err() {
                            break;
                        }
                    }
                },
            )
        });
        let mut client = MuxClient::new(client_end, fast_config());
        let bomb = client.open_session(b"bomb").unwrap();
        let mut ok = client.open_session(b"fine").unwrap();
        ok.send(b"unperturbed").unwrap();
        assert_eq!(ok.recv().unwrap(), b"unperturbed");
        drop(bomb);
        drop(ok);
        client.close().unwrap();
        // The scope propagates the handler panic when the loop exits —
        // visible here as the server thread panicking, but only after
        // every other session completed untouched.
        assert!(server.join().is_err());
    }
}
