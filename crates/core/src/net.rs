//! The socket deployment: Alex and Eve with a real wire between them.
//!
//! The paper's model has the client outsourcing operations to a server
//! across a network, and everything the adversary learns she learns
//! from the bytes crossing that wire. Until now the repro short-cut
//! the wire — [`Server::handle`] was called in-process — which is
//! semantically identical but leaves the deployment story untested.
//! This module closes the gap:
//!
//! * [`Transport`] — the client's view of "somewhere that answers
//!   protocol messages": one serialized request in, one serialized
//!   response out. [`Server`] implements it by calling
//!   [`Server::handle`] directly (the in-process path every existing
//!   test uses); [`PooledClient`] implements it over TCP.
//! * [`NetServer`] — a length-prefix-framed TCP server
//!   ([`crate::codec`]) accepting any number of concurrent
//!   connections. Each connection gets a dedicated OS thread that
//!   drains request frames into [`Server::handle`]; the heavy lifting
//!   inside `handle` (shard scans, batch fan-out) lands on the
//!   server's persistent [`crate::executor::Executor`] pool exactly as
//!   it does in-process, so N connections share the machine's cores
//!   rather than each spawning their own. Connection threads must
//!   *not* run on that scan pool themselves: they block on socket
//!   reads for the life of a session, and parking a fixed-size scan
//!   worker on a socket would starve the scans it exists to run.
//!   Because every session has its own thread, no session waits behind
//!   another session's scan, and a follower's replication long-poll
//!   (`ReplPull`) parks only its own thread.
//! * [`PooledClient`] — a connection pool with bounded capacity,
//!   blocking checkout/return, and transparent reconnect when a pooled
//!   connection has gone stale (server restart, idle timeout, EOF).
//!   Every exchange is one request frame out and one response frame
//!   in; a session that wants K operations in one round trip sends one
//!   batch message (`QueryBatch`, `AppendBatch`), not K frames.
//!
//! **Leakage argument.** The socket adds *timing* and *framing*, never
//! content: each frame's payload is byte-for-byte the message
//! `Server::handle` would have received or returned in-process, and
//! the frame header only states that payload's length — information
//! Eve trivially has either way, since she receives the payload. The
//! `Observer` transcript is recorded inside `handle`, below the
//! transport, so it cannot even see which transport delivered the
//! message. `tests/net_transport.rs` holds the implementation to that:
//! responses *and* transcripts over loopback TCP must be byte-identical
//! to the in-process path for the whole workload matrix.

use std::borrow::Cow;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::codec;
use crate::error::PhError;
use crate::protocol::{self, tag};
use crate::server::Server;
use crate::sys;
use crate::telemetry::Telemetry;

/// Machine-readable prefix of the [`PhError::Transport`] message for a
/// *connection refused* dial: the OS answered immediately that nothing
/// listens at the address, so the peer process is dead (or not yet up)
/// rather than slow. [`PhError::is_connect_refused`] recognizes it;
/// the retry loop skips backoff for this class so failover logic can
/// redirect to a promoted follower instead of burning the full
/// exponential-backoff budget against a dead primary.
pub const CONNECT_REFUSED_PREFIX: &str = "connection refused (peer down)";

/// Anything that can answer one serialized protocol message with one
/// serialized response — the client's entire requirement of the
/// outside world. The crypto client ([`crate::client::Client`]) is
/// generic over this, which is what lets one test drive the identical
/// session in-process and over TCP and diff the bytes.
pub trait Transport {
    /// Sends one request, returns its response.
    ///
    /// # Errors
    /// [`PhError::Transport`] when the transport fails; the in-process
    /// transport never fails.
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, PhError>;
}

/// The in-process transport: the function call the repro always had.
impl Transport for Server {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, PhError> {
        Ok(self.handle(request))
    }
}

/// Shared transports: several crypto clients over one pool.
impl<T: Transport> Transport for Arc<T> {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, PhError> {
        (**self).call(request)
    }
}

// --- server side -----------------------------------------------------------

/// State shared between a [`ServerHandle`] and its accept loop.
struct NetState {
    /// Flipped once by shutdown; the accept loop exits on its next
    /// wake-up (the handle kicks it awake with a dummy connection).
    shutdown: AtomicBool,
    /// One `try_clone` per live connection (plus that connection's
    /// "done" flag), so shutdown and [`ServerHandle::sever_connections`]
    /// can sever sessions from outside the threads blocked reading
    /// them. Entries whose session has finished are pruned on the next
    /// accept — a long-running server must not hoard one fd per
    /// connection it ever served.
    conns: Mutex<Vec<(TcpStream, Arc<AtomicBool>)>>,
}

impl NetState {
    fn new() -> Arc<Self> {
        Arc::new(NetState {
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        })
    }
}

/// Front-end configuration.
#[derive(Debug, Clone, Default)]
pub struct NetOptions {
    /// Close a connection after this long with no traffic in either
    /// direction: no request arriving, or a response the peer will not
    /// take off the socket. A peer that died without a FIN (yanked
    /// cable, frozen VM) or stopped reading otherwise holds its fd and
    /// a whole parked session thread forever. `None` (the default)
    /// keeps the wait-forever behavior.
    pub idle_timeout: Option<Duration>,
}

/// The framed TCP front-end for a [`Server`].
///
/// `NetServer` owns no state of its own — it is a namespace for the
/// entry points: [`NetServer::serve`] (run a front-end on the caller's
/// thread, forever — the `--listen` deployment) and
/// [`NetServer::spawn`] (background front-end with a handle for clean
/// shutdown — what the tests and the loopback demo use; its
/// [`NetServer::spawn_opts`] variant takes [`NetOptions`]).
pub struct NetServer;

impl NetServer {
    /// Serves `server` on an already-bound listener, on the calling
    /// thread, until the listener fails persistently.
    ///
    /// # Errors
    /// [`PhError::Transport`] when accepting fails persistently (the
    /// accept loop backs off on transient errors and only gives up
    /// after many consecutive failures — e.g. fd exhaustion that never
    /// clears).
    pub fn serve(listener: TcpListener, server: Server) -> Result<(), PhError> {
        deepen_backlog(&listener);
        // Default options: idle connections are never reaped.
        accept_loop(&listener, &server, &NetState::new(), None);
        Err(PhError::Transport(
            "listener failed persistently; front-end gave up".into(),
        ))
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and serves
    /// `server` on a background front-end. The returned handle reports
    /// the bound address and shuts the whole front-end down — accept
    /// loop, live connections, threads — when dropped or explicitly
    /// [`ServerHandle::shutdown`].
    ///
    /// # Errors
    /// [`PhError::Transport`] when binding fails.
    pub fn spawn(server: Server, addr: impl ToSocketAddrs) -> Result<ServerHandle, PhError> {
        Self::spawn_opts(server, addr, NetOptions::default())
    }

    /// [`NetServer::spawn`] with full [`NetOptions`].
    ///
    /// # Errors
    /// [`PhError::Transport`] when binding fails.
    pub fn spawn_opts(
        server: Server,
        addr: impl ToSocketAddrs,
        options: NetOptions,
    ) -> Result<ServerHandle, PhError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| PhError::Transport(format!("bind failed: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| PhError::Transport(format!("local_addr failed: {e}")))?;
        deepen_backlog(&listener);
        let state = NetState::new();
        let accept = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("dbph-accept".into())
                .spawn(move || accept_loop(&listener, &server, &state, options.idle_timeout))
                .map_err(|e| PhError::Transport(format!("spawning front-end: {e}")))?
        };
        Ok(ServerHandle {
            addr: local,
            state,
            accept: Some(accept),
        })
    }
}

/// Control handle for a spawned [`NetServer`]. Dropping it (or calling
/// [`ServerHandle::shutdown`]) stops accepting, severs every live
/// connection, and joins the accept loop — which itself joins every
/// connection thread, so after shutdown returns no worker survives.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<NetState>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Severs every live connection (the server keeps accepting new
    /// ones). Clients holding pooled connections to this server will
    /// find them stale on next use — this is how the tests manufacture
    /// the reconnect-on-EOF scenario without a server restart.
    pub fn sever_connections(&self) {
        for (conn, _done) in self.state.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// Shuts the front-end down and joins every thread it spawned.
    /// (Consuming `self` runs the same protocol as `Drop`; the method
    /// exists so call sites can say what they mean.)
    pub fn shutdown(self) {}
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.sever_connections();
        // Accept is a blocking call with no timeout; a throwaway
        // connection wakes it so it can observe the flag and exit. A
        // listener bound to an unspecified address (0.0.0.0 / ::) is
        // not itself dialable everywhere, so fall back to loopback on
        // the same port. If no wake-up connects, do NOT join: leaking
        // one parked accept thread beats deadlocking the dropping
        // thread forever.
        let mut wake_targets = vec![self.addr];
        if self.addr.ip().is_unspecified() {
            let loopback = match self.addr {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            };
            wake_targets.push(SocketAddr::new(loopback, self.addr.port()));
        }
        let woke = wake_targets.iter().any(|target| {
            TcpStream::connect_timeout(target, std::time::Duration::from_secs(2)).is_ok()
        });
        if let Some(accept) = self.accept.take() {
            if woke {
                let _ = accept.join();
            }
        }
    }
}

/// How many consecutive listener-level `accept` failures the loop
/// tolerates (with a 10 ms backoff each) before concluding the
/// listener is broken for good — roughly five seconds of persistent
/// failure. Per-connection failures (aborted/reset queued peers) never
/// count; an fd-exhaustion spike gets those five seconds for finished
/// sessions to free descriptors before the server gives up, and a
/// genuinely dead listener fd exits instead of busy-spinning a core.
const MAX_CONSECUTIVE_ACCEPT_FAILURES: usize = 500;

/// Accept-backlog depth requested for the listener (the kernel
/// clamps to `net.core.somaxconn`). `TcpListener::bind` hardcodes a
/// backlog of 128, which a thousand-session connect storm overflows —
/// and with syncookies an overflowed handshake surfaces as a
/// connection *reset* on a client that already sent its requests,
/// not as polite queueing. Re-listening deepens the queue in place.
const ACCEPT_BACKLOG: i32 = 4096;

/// Best-effort backlog deepening: a failure (exotic platform, kernel
/// refusing re-listen) leaves the default depth — correct, just less
/// storm-tolerant — so it is not worth refusing to serve over.
fn deepen_backlog(listener: &TcpListener) {
    let _ = sys::deepen_backlog(listener.as_raw_fd(), ACCEPT_BACKLOG);
}

/// Accepts connections until shutdown (or a persistently failing
/// listener), then joins every connection thread it spawned.
fn accept_loop(
    listener: &TcpListener,
    server: &Server,
    state: &Arc<NetState>,
    idle_timeout: Option<Duration>,
) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    let mut consecutive_failures = 0usize;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => {
                consecutive_failures = 0;
                stream
            }
            Err(_) if state.shutdown.load(Ordering::SeqCst) => break,
            // Per-connection accept failures (the queued peer aborted
            // or reset before we got to it) are business as usual
            // under load — each one consumed a backlog entry, so there
            // is nothing to back off from and nothing to count.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            // Listener-level failures (fd exhaustion, a broken
            // listener) must neither kill the server on a clearable
            // spike nor busy-spin a core forever: back off, and give
            // up only when the condition persists for seconds.
            Err(_) => {
                consecutive_failures += 1;
                if consecutive_failures >= MAX_CONSECUTIVE_ACCEPT_FAILURES {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        if state.shutdown.load(Ordering::SeqCst) {
            break; // the shutdown wake-up (or a client racing it)
        }
        // Frames are small and latency-sensitive; never Nagle-delay a
        // response.
        let _ = stream.set_nodelay(true);

        // Book-keeping for finished sessions, amortized over accepts:
        // join their threads and drop their registry clones so a
        // long-running server's memory and fd footprint tracks *live*
        // connections, not total connections ever served.
        let (done, live): (Vec<_>, Vec<_>) = sessions.drain(..).partition(JoinHandle::is_finished);
        for session in done {
            let _ = session.join();
        }
        sessions = live;
        state
            .conns
            .lock()
            .retain(|(_, done)| !done.load(Ordering::SeqCst));

        // A session only runs if shutdown can sever it: no clone, no
        // service. Registration and the shutdown re-check share the
        // registry lock — `ServerHandle` severs under that same lock
        // *after* setting the flag, so a connection either lands in
        // the registry before the drain (and gets severed) or observes
        // the flag here and never starts. Without this, a session
        // registered just after the drain would hang the final join.
        let finished = Arc::new(AtomicBool::new(false));
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        {
            let mut conns = state.conns.lock();
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            conns.push((clone, Arc::clone(&finished)));
        }
        if server.telemetry().on() {
            server.telemetry().net_conns_accepted.inc();
            server.telemetry().net_conns_live.inc();
        }
        let server = server.clone();
        let session_flag = Arc::clone(&finished);
        match std::thread::Builder::new()
            .name("dbph-conn".into())
            .spawn(move || {
                connection_loop(stream, &server, &session_flag, idle_timeout);
            }) {
            Ok(session) => sessions.push(session),
            // Spawn failure drops the stream (closing it); mark the
            // registry entry reclaimable so it doesn't linger.
            Err(_) => finished.store(true, Ordering::SeqCst),
        }
    }
    for session in sessions {
        let _ = session.join();
    }
}

/// End-of-session cleanup that must run however the session thread
/// exits, panics included: shut the socket down — the registry still
/// holds a `try_clone`, and only the shutdown *syscall* (which acts on
/// the underlying socket, clones and all) makes the peer see EOF
/// before the next accept prunes that clone — and mark the registry
/// entry reclaimable.
struct SessionGuard<'a> {
    stream: TcpStream,
    finished: &'a AtomicBool,
    telemetry: Arc<Telemetry>,
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.finished.store(true, Ordering::SeqCst);
        if self.telemetry.on() {
            self.telemetry.net_conns_live.dec();
        }
    }
}

/// One connection's life: read a frame, handle it, write the response,
/// repeat until the peer hangs up (or violates framing, which gets the
/// same treatment — there is no response channel for a peer that
/// cannot frame).
///
/// Requests on one connection execute strictly in arrival order and
/// responses are written in that same order, which is the transport's
/// half of the per-session ordering guarantee; concurrency comes from
/// many connections, not from reordering within one.
fn connection_loop(
    stream: TcpStream,
    server: &Server,
    finished: &AtomicBool,
    idle_timeout: Option<Duration>,
) {
    // The idle timeout rides the socket's read and write timeouts: a
    // session parked waiting for its next request, or blocked writing a
    // response its peer never takes off the socket, for longer than the
    // budget gets an error out of the codec and the session ends.
    if idle_timeout.is_some()
        && (stream.set_read_timeout(idle_timeout).is_err()
            || stream.set_write_timeout(idle_timeout).is_err())
    {
        return;
    }
    let telemetry = Arc::clone(server.telemetry());
    let mut session = SessionGuard {
        stream,
        finished,
        telemetry: Arc::clone(&telemetry),
    };
    // The codec folds the io error kind into a string, so classify a
    // reap by elapsed time: an error after (most of) a full idle budget
    // blocked in one read or write is the timeout firing — genuine I/O
    // errors surface near-instantly. The 3/4 margin absorbs clock and
    // socket-timeout rounding.
    let count_reap = |blocked_since: Instant| {
        let timed_out = idle_timeout.is_some_and(|limit| blocked_since.elapsed() >= limit * 3 / 4);
        if timed_out && telemetry.on() {
            telemetry.net_conns_reaped.inc();
        }
    };
    loop {
        let parked_since = Instant::now();
        match codec::read_frame(&mut session.stream) {
            Ok(Some(request)) => {
                if telemetry.on() {
                    telemetry.net_frames_in.inc();
                    telemetry.net_bytes_in.add(request.len() as u64 + 4);
                }
                let response = server.handle(&request);
                let writing_since = Instant::now();
                if codec::write_frame(&mut session.stream, &response).is_err() {
                    count_reap(writing_since);
                    break;
                }
                if telemetry.on() {
                    telemetry.net_frames_out.inc();
                    telemetry.net_bytes_out.add(response.len() as u64 + 4);
                }
            }
            Ok(None) => break,
            Err(_) => {
                count_reap(parked_since);
                break;
            }
        }
    }
}

// --- client side -----------------------------------------------------------

/// Book-keeping behind a [`PooledClient`]'s mutex.
struct PoolState {
    /// Connections checked in and ready for the next caller.
    idle: Vec<TcpStream>,
    /// Connections in existence (idle + checked out). Never exceeds
    /// capacity; the gap between `open` and capacity is the budget for
    /// dialing fresh connections.
    open: usize,
}

struct PoolInner {
    /// Where the pool dials. Behind a mutex so
    /// [`PooledClient::redirect`] can repoint a live pool at a promoted
    /// follower without touching the envelope identity or `seq` — the
    /// request-id continuity is exactly what makes failover retries
    /// replay instead of re-apply.
    addr: Mutex<SocketAddr>,
    capacity: usize,
    state: Mutex<PoolState>,
    /// Signaled when a connection is returned or an `open` slot frees.
    returned: Condvar,
    retry: RetryPolicy,
    io_timeout: Option<Duration>,
    checkout_timeout: Option<Duration>,
    /// This pool's identity in request envelopes; paired with `seq` it
    /// forms the request id the server deduplicates on.
    client_id: u64,
    /// Next envelope sequence number. Claimed once per mutation *call*,
    /// not per attempt — every retry resends the identical request id.
    seq: AtomicU64,
    /// Client-side operator metrics (retries, backoff time, failovers,
    /// reconnects) — the pool's own registry, independent of any
    /// server's. Collection never touches the wire.
    telemetry: Arc<Telemetry>,
}

/// Source of default [`PoolOptions::client_id`]s: unique per pool
/// within a process. Pools in *different* processes (or restarted ones)
/// must be given explicit distinct ids to share one server's dedup
/// window safely.
static NEXT_CLIENT_ID: AtomicU64 = AtomicU64::new(1);

/// When and how a [`PooledClient`] retries a failed exchange.
///
/// The default policy (`max_attempts == 1`) never retries and never
/// tags: requests go out byte-identical to a pre-envelope client, so
/// plain `connect` keeps its historical wire behaviour. Any policy
/// with `max_attempts > 1` makes the client wrap each *mutation* in a
/// [`ClientMessage::Tagged`](crate::protocol::ClientMessage) envelope
/// so the server can deduplicate re-sends; queries are idempotent and
/// retried untagged.
///
/// Only [`PhError::Transport`] failures are retried — a response that
/// arrived (even an error response) means the exchange worked.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first. `1` disables
    /// retries (and request tagging).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff sleep.
    pub max_backoff: Duration,
    /// Budget for the whole call across attempts and sleeps. `None`
    /// bounds the call only by `max_attempts`.
    pub deadline: Option<Duration>,
    /// Seed for deterministic backoff jitter, so tests (and replayed
    /// fault schedules) see identical sleep sequences.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            deadline: None,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (1-based): exponential
    /// in `base_backoff` capped at `max_backoff`, with the top half
    /// replaced by deterministic jitter from `jitter_seed` so
    /// simultaneous retriers decorrelate without a shared RNG.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let full = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let half = full / 2;
        let jitter_range = full.saturating_sub(half).as_nanos() as u64;
        if jitter_range == 0 {
            return full;
        }
        // splitmix64 finalizer over (seed, attempt): cheap, stateless,
        // and fully determined by the policy.
        let mut mix = self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        mix = (mix ^ (mix >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        mix = (mix ^ (mix >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        mix ^= mix >> 31;
        half + Duration::from_nanos(mix % jitter_range)
    }
}

/// Everything configurable about a [`PooledClient`], for
/// [`PooledClient::connect_with`]. [`PooledClient::connect`] is the
/// all-defaults shorthand (no retries, no timeouts, auto client id).
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Maximum simultaneous connections (clamped to at least 1).
    pub capacity: usize,
    /// Retry behaviour for failed exchanges.
    pub retry: RetryPolicy,
    /// Socket read/write timeout applied to every pooled connection,
    /// so a hung server surfaces as a [`PhError::Transport`] instead
    /// of blocking a caller forever.
    pub io_timeout: Option<Duration>,
    /// Upper bound on waiting for a pooled connection when all
    /// `capacity` are checked out; expiry is a [`PhError::Transport`].
    pub checkout_timeout: Option<Duration>,
    /// Identity used in request envelopes. `None` draws a fresh
    /// process-unique id; set it explicitly when clients in different
    /// processes (or across restarts) must not collide in the server's
    /// per-client dedup window.
    pub client_id: Option<u64>,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            capacity: 2,
            retry: RetryPolicy::default(),
            io_timeout: None,
            checkout_timeout: None,
            client_id: None,
        }
    }
}

/// A bounded pool of framed TCP connections to one [`NetServer`].
///
/// * **Checkout/return.** A call checks a connection out for its whole
///   request/response exchange, so concurrent callers never interleave
///   frames on one socket. With all `capacity` connections busy,
///   callers block until one returns — the stress test runs 8 threads
///   over a 2-connection pool on exactly this mechanism.
/// * **Reconnect on EOF.** A pooled connection can die while idle
///   (server restart, sever, middlebox timeout). Checkout probes each
///   idle connection with a non-blocking peek *before* handing it out:
///   a detectable EOF/reset (or unsolicited bytes — a protocol
///   violation either way) discards the corpse and dials a fresh
///   connection in its capacity slot, so staleness heals without
///   resending anything. A failure *during* an exchange, by contrast,
///   surfaces as an error and the connection is dropped: at that point
///   the transport cannot know whether the server applied the request.
/// * **Exactly-once retries.** With the default [`RetryPolicy`]
///   (`max_attempts == 1`) the contract stays at-most-once and every
///   request is byte-identical to a pre-envelope client. Opting into
///   retries via [`PooledClient::connect_with`] upgrades mutations to
///   exactly-once: each mutation is wrapped once in a
///   [`ClientMessage::Tagged`](crate::protocol::ClientMessage)
///   envelope carrying `(client_id, seq)`, and every retry resends
///   those identical bytes, so the server's dedup window replays the
///   original response instead of re-applying. Queries are idempotent
///   and retried untagged.
///
/// Cloning shares the pool (the clone is the same pool, same budget),
/// so several crypto clients — or threads — can hold it cheaply.
#[derive(Clone)]
pub struct PooledClient {
    inner: Arc<PoolInner>,
}

impl PooledClient {
    /// Connects a pool of at most `capacity` connections (clamped to
    /// at least 1) to `addr`, dialing one eagerly so an unreachable
    /// server fails here and not on first use.
    ///
    /// # Errors
    /// [`PhError::Transport`] when resolution or the probe dial fails.
    pub fn connect(addr: impl ToSocketAddrs, capacity: usize) -> Result<Self, PhError> {
        Self::connect_with(
            addr,
            PoolOptions {
                capacity,
                ..PoolOptions::default()
            },
        )
    }

    /// [`connect`](Self::connect) with the full dial: retry policy,
    /// socket and checkout timeouts, and an explicit envelope identity.
    ///
    /// # Errors
    /// [`PhError::Transport`] when resolution or the probe dial fails.
    pub fn connect_with(addr: impl ToSocketAddrs, options: PoolOptions) -> Result<Self, PhError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| PhError::Transport(format!("resolve failed: {e}")))?
            .next()
            .ok_or_else(|| PhError::Transport("address resolved to nothing".into()))?;
        let client_id = options
            .client_id
            .unwrap_or_else(|| NEXT_CLIENT_ID.fetch_add(1, Ordering::SeqCst));
        let client = PooledClient {
            inner: Arc::new(PoolInner {
                addr: Mutex::new(addr),
                capacity: options.capacity.max(1),
                state: Mutex::new(PoolState {
                    idle: Vec::new(),
                    open: 0,
                }),
                returned: Condvar::new(),
                retry: options.retry,
                io_timeout: options.io_timeout,
                checkout_timeout: options.checkout_timeout,
                client_id,
                seq: AtomicU64::new(1),
                telemetry: Arc::new(Telemetry::new()),
            }),
        };
        let probe = client.dial()?;
        {
            let mut state = client.inner.state.lock();
            state.open = 1;
            state.idle.push(probe);
        }
        Ok(client)
    }

    /// The identity this pool stamps into request envelopes.
    #[must_use]
    pub fn client_id(&self) -> u64 {
        self.inner.client_id
    }

    /// The pool's client-side metrics registry: `client_retries`,
    /// `client_backoff_nanos`, `client_failovers`, and
    /// `client_reconnects`. Shared by every clone of this pool.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.inner.telemetry
    }

    /// The server address this pool dials.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        *self.inner.addr.lock()
    }

    /// Repoints the pool at `addr` — the client half of failover.
    /// Existing idle connections to the old server are discarded (their
    /// capacity slots free immediately); the envelope identity and
    /// sequence counter carry over untouched, so a mutation that was
    /// mid-retry against the dead primary re-sends the *identical*
    /// tagged bytes to the new address and the promoted follower's
    /// recovered dedup window replays rather than re-applies.
    ///
    /// # Errors
    /// [`PhError::Transport`] when `addr` does not resolve.
    pub fn redirect(&self, addr: impl ToSocketAddrs) -> Result<(), PhError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| PhError::Transport(format!("resolve failed: {e}")))?
            .next()
            .ok_or_else(|| PhError::Transport("address resolved to nothing".into()))?;
        *self.inner.addr.lock() = addr;
        if self.inner.telemetry.on() {
            self.inner.telemetry.client_failovers.inc();
        }
        let dropped = {
            let mut state = self.inner.state.lock();
            let dropped = state.idle.len();
            state.idle.clear();
            state.open -= dropped;
            dropped
        };
        if dropped > 0 {
            self.inner.returned.notify_all();
        }
        Ok(())
    }

    /// Maximum simultaneous connections.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Connections currently in existence (idle or checked out).
    #[must_use]
    pub fn open_connections(&self) -> usize {
        self.inner.state.lock().open
    }

    fn dial(&self) -> Result<TcpStream, PhError> {
        let addr = *self.inner.addr.lock();
        let stream = TcpStream::connect(addr).map_err(|e| {
            if e.kind() == std::io::ErrorKind::ConnectionRefused {
                PhError::Transport(format!("{CONNECT_REFUSED_PREFIX}: {addr}: {e}"))
            } else {
                PhError::Transport(format!("connect {addr} failed: {e}"))
            }
        })?;
        let _ = stream.set_nodelay(true);
        if let Some(io_timeout) = self.inner.io_timeout {
            stream
                .set_read_timeout(Some(io_timeout))
                .and_then(|()| stream.set_write_timeout(Some(io_timeout)))
                .map_err(|e| PhError::Transport(format!("set socket timeout failed: {e}")))?;
        }
        Ok(stream)
    }

    /// True when an idle connection is visibly dead or unusable: the
    /// peer hung up (peek sees EOF), the socket errored, or bytes
    /// arrived that no request solicited. A healthy idle connection
    /// has nothing to read, so the non-blocking peek reports
    /// `WouldBlock`.
    fn is_stale(conn: &TcpStream) -> bool {
        if conn.set_nonblocking(true).is_err() {
            return true;
        }
        let mut probe = [0u8; 1];
        let stale = match conn.peek(&mut probe) {
            // EOF (0) or unsolicited bytes (n>0): either way the
            // framing conversation on this socket is over.
            Ok(_) => true,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
            Err(_) => true,
        };
        conn.set_nonblocking(false).is_err() || stale
    }

    /// Takes a connection out of the pool — skipping (and replacing)
    /// idle connections that died while pooled — dialing a fresh one
    /// when under capacity and blocking when the pool is exhausted.
    fn checkout(&self) -> Result<TcpStream, PhError> {
        let wait_deadline = self.inner.checkout_timeout.map(|t| Instant::now() + t);
        let mut state = self.inner.state.lock();
        loop {
            while let Some(conn) = state.idle.pop() {
                if Self::is_stale(&conn) {
                    // Reconnect-on-EOF: drop the corpse and free its
                    // capacity slot; the lock is held through the dial
                    // check below, so this thread (or a waiter) can
                    // re-reserve it race-free.
                    state.open -= 1;
                    if self.inner.telemetry.on() {
                        self.inner.telemetry.client_reconnects.inc();
                    }
                    continue;
                }
                return Ok(conn);
            }
            if state.open < self.inner.capacity {
                state.open += 1;
                drop(state);
                return match self.dial() {
                    Ok(conn) => Ok(conn),
                    Err(e) => {
                        // Give the slot back, and wake a waiter that
                        // may want to try dialing itself.
                        self.inner.state.lock().open -= 1;
                        self.inner.returned.notify_one();
                        Err(e)
                    }
                };
            }
            match wait_deadline {
                None => self.inner.returned.wait(&mut state),
                Some(deadline) => {
                    let Some(remaining) = deadline
                        .checked_duration_since(Instant::now())
                        .filter(|d| !d.is_zero())
                    else {
                        return Err(PhError::Transport(format!(
                            "connection pool exhausted: no connection returned within {:?}",
                            self.inner.checkout_timeout.unwrap_or_default()
                        )));
                    };
                    // Timing out here is not yet a failure: a waiter
                    // can be raced out of a wake-up, so loop back to
                    // re-probe the pool and let the deadline check
                    // above decide.
                    let _ = self.inner.returned.wait_for(&mut state, remaining);
                }
            }
        }
    }

    fn give_back(&self, conn: TcpStream) {
        self.inner.state.lock().idle.push(conn);
        self.inner.returned.notify_one();
    }

    /// Releases a capacity slot whose connection is gone for good.
    fn release_slot(&self) {
        self.inner.state.lock().open -= 1;
        self.inner.returned.notify_one();
    }

    /// Checkout → one request frame out, one response frame in →
    /// return. The frame goes straight to the socket, with no staging
    /// copy of a (possibly multi-megabyte) payload, and the server reads
    /// the whole request before it writes anything back, so
    /// write-then-read cannot deadlock at any frame size. Checkout
    /// already replaced any detectably dead pooled connection; a failure
    /// from here on means the request may or may not have reached the
    /// server, so the connection is dropped and the error surfaces —
    /// deliberately no silent re-send (see the type-level docs).
    fn exchange(&self, request: &[u8]) -> Result<Vec<u8>, PhError> {
        let mut conn = self.checkout()?;
        let response = codec::write_frame(&mut conn, request)
            .and_then(|()| codec::read_frame(&mut conn))
            .and_then(|frame| {
                frame.ok_or_else(|| {
                    PhError::Transport("server closed the connection mid-exchange".into())
                })
            });
        if response.is_ok() {
            self.give_back(conn);
        } else {
            drop(conn);
            self.release_slot();
        }
        response
    }

    /// Wraps `request` in a [`tag::TAGGED`] envelope with a freshly
    /// claimed sequence number when it is a mutation; queries pass
    /// through unchanged. Only called on the retrying path — the
    /// envelope bytes are built once per call and resent verbatim on
    /// every attempt, which is what makes server-side dedup sound.
    fn prepare<'a>(&self, request: &'a [u8]) -> Cow<'a, [u8]> {
        match request.first() {
            Some(&t) if tag::is_mutation_tag(t) => {
                let seq = self.inner.seq.fetch_add(1, Ordering::SeqCst);
                let mut tagged = Vec::with_capacity(request.len() + 17);
                protocol::encode_tagged(self.inner.client_id, seq, request, &mut tagged);
                Cow::Owned(tagged)
            }
            _ => Cow::Borrowed(request),
        }
    }

    /// [`exchange`](Self::exchange) under the pool's [`RetryPolicy`]:
    /// transport failures are retried with backoff against the same
    /// prepared (envelope-tagged) bytes until the attempt or deadline
    /// budget runs out. A single-attempt policy forwards straight to
    /// `exchange` with the caller's original bytes.
    ///
    /// Connection-refused failures skip the backoff sleep entirely:
    /// nothing is listening, so waiting cannot help — the remaining
    /// attempts burn in milliseconds and the caller learns the server
    /// is *gone* (not slow) fast enough to fail over to a promoted
    /// follower via [`redirect`](Self::redirect).
    fn exchange_with_retry(&self, request: &[u8]) -> Result<Vec<u8>, PhError> {
        let policy = &self.inner.retry;
        if policy.max_attempts <= 1 {
            return self.exchange(request);
        }
        let prepared = self.prepare(request);
        let started = Instant::now();
        let mut attempt = 1u32;
        loop {
            match self.exchange(&prepared) {
                Ok(response) => return Ok(response),
                Err(e @ PhError::Transport(_)) => {
                    if attempt >= policy.max_attempts {
                        return Err(e);
                    }
                    let sleep = if e.is_connect_refused() {
                        Duration::ZERO
                    } else {
                        policy.backoff(attempt)
                    };
                    if let Some(deadline) = policy.deadline {
                        if started.elapsed() + sleep >= deadline {
                            return Err(e);
                        }
                    }
                    if self.inner.telemetry.on() {
                        self.inner.telemetry.client_retries.inc();
                        self.inner
                            .telemetry
                            .client_backoff_nanos
                            .add(u64::try_from(sleep.as_nanos()).unwrap_or(u64::MAX));
                    }
                    std::thread::sleep(sleep);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Transport for PooledClient {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, PhError> {
        self.exchange_with_retry(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ClientMessage, ServerResponse};
    use crate::server::ServerConfig;
    use crate::swp_ph::EncryptedTable;
    use crate::wire::{WireDecode, WireEncode};
    use dbph_swp::{CipherWord, SwpParams};

    fn table(n: usize) -> EncryptedTable {
        EncryptedTable {
            params: SwpParams::new(13, 4, 32).unwrap(),
            docs: (0..n as u64)
                .map(|i| (i, vec![CipherWord(vec![i as u8; 13])]))
                .collect(),
            next_doc_id: n as u64,
        }
    }

    fn spawn_server() -> (Server, ServerHandle) {
        let server = Server::open(
            &ServerConfig {
                transcript: true,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        let handle = NetServer::spawn(server.clone(), "127.0.0.1:0").unwrap();
        (server, handle)
    }

    #[test]
    fn roundtrip_over_loopback_matches_in_process() {
        let (server, handle) = spawn_server();
        let client = PooledClient::connect(handle.addr(), 2).unwrap();

        let create = ClientMessage::CreateTable {
            name: "t".into(),
            table: table(3).into(),
        }
        .to_wire();
        let fetch = ClientMessage::FetchAll { name: "t".into() }.to_wire();

        let tcp_create = client.call(&create).unwrap();
        let tcp_fetch = client.call(&fetch).unwrap();

        // The same messages against a fresh in-process server produce
        // the same bytes.
        let reference = Server::open(&ServerConfig::default(), None).unwrap();
        assert_eq!(tcp_create, reference.handle(&create));
        assert_eq!(tcp_fetch, reference.handle(&fetch));
        drop(server);
        handle.shutdown();
    }

    #[test]
    fn large_frames_round_trip_in_both_directions() {
        // Frames far beyond the kernel's socket buffers, one per
        // exchange: a ~8 MiB create request, then a ~8 MiB table
        // response, both through the pool's write-then-read path. The
        // server reads each request whole before answering, so neither
        // side can wedge (CI's timeout is what would catch one).
        let (_server, handle) = spawn_server();
        let client = PooledClient::connect(handle.addr(), 1).unwrap();
        let big = EncryptedTable {
            params: SwpParams::new(13, 4, 32).unwrap(),
            docs: (0..2048u64)
                .map(|i| (i, vec![CipherWord(vec![i as u8; 4096])]))
                .collect(),
            next_doc_id: 2048,
        };
        let create = ClientMessage::CreateTable {
            name: "t1".into(),
            table: big.clone().into(),
        }
        .to_wire();
        assert!(create.len() > 8 << 20);
        assert_eq!(
            ServerResponse::from_wire(&client.call(&create).unwrap()).unwrap(),
            ServerResponse::Ok
        );
        let fetch = ClientMessage::FetchAll { name: "t1".into() }.to_wire();
        let response = client.call(&fetch).unwrap();
        assert!(response.len() > 8 << 20);
        match ServerResponse::from_wire(&response).unwrap() {
            ServerResponse::Table(t) => assert_eq!(t, big),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(client.open_connections(), 1);
    }

    #[test]
    fn pool_reconnects_after_sever() {
        let (_server, handle) = spawn_server();
        let client = PooledClient::connect(handle.addr(), 1).unwrap();
        let fetch = ClientMessage::FetchAll {
            name: "none".into(),
        }
        .to_wire();
        let first = client.call(&fetch).unwrap();

        // Kill the connection under the pool; the next call must heal.
        handle.sever_connections();
        let second = client.call(&fetch).unwrap();
        assert_eq!(first, second);
        assert_eq!(client.open_connections(), 1);
    }

    #[test]
    fn stale_detection_never_duplicates_mutations() {
        let (server, handle) = spawn_server();
        let client = PooledClient::connect(handle.addr(), 1).unwrap();
        let create = ClientMessage::CreateTable {
            name: "t".into(),
            table: table(1).into(),
        }
        .to_wire();
        assert_eq!(
            ServerResponse::from_wire(&client.call(&create).unwrap()).unwrap(),
            ServerResponse::Ok
        );

        // Kill the pooled connection, then send a *mutation*: checkout
        // must detect the corpse and dial fresh BEFORE sending, so the
        // append reaches the server exactly once — a resend would
        // either duplicate the event or bounce off the stale-id check.
        handle.sever_connections();
        let append = ClientMessage::Append {
            name: "t".into(),
            doc_id: 1,
            words: vec![CipherWord(vec![7; 13])],
        }
        .to_wire();
        assert_eq!(
            ServerResponse::from_wire(&client.call(&append).unwrap()).unwrap(),
            ServerResponse::Ok
        );
        let appends = server
            .observer()
            .events()
            .iter()
            .filter(|e| matches!(e, crate::server::ServerEvent::Append { .. }))
            .count();
        assert_eq!(appends, 1, "the append must be applied exactly once");
        assert_eq!(client.open_connections(), 1);
    }

    #[test]
    fn connect_to_nothing_fails_fast() {
        // Port 1 on loopback: reserved, nothing listens in the sandbox.
        assert!(matches!(
            PooledClient::connect("127.0.0.1:1", 1),
            Err(PhError::Transport(_))
        ));
    }

    #[test]
    fn capacity_clamps_to_one_and_is_respected() {
        let (_server, handle) = spawn_server();
        let client = PooledClient::connect(handle.addr(), 0).unwrap();
        assert_eq!(client.capacity(), 1);
        let fetch = ClientMessage::FetchAll {
            name: "none".into(),
        }
        .to_wire();
        for _ in 0..4 {
            let _ = client.call(&fetch).unwrap();
        }
        assert_eq!(client.open_connections(), 1);
    }

    #[test]
    fn shutdown_is_clean_and_counts_connections() {
        let (server, handle) = spawn_server();
        {
            let c1 = PooledClient::connect(handle.addr(), 1).unwrap();
            let c2 = PooledClient::connect(handle.addr(), 1).unwrap();
            let fetch = ClientMessage::FetchAll {
                name: "none".into(),
            }
            .to_wire();
            let _ = c1.call(&fetch).unwrap();
            let _ = c2.call(&fetch).unwrap();
        }
        assert_eq!(server.telemetry().net_conns_accepted.get(), 2);
        // Shutdown joins the accept loop and both connection threads;
        // a leak would hang the test (CI runs this under a timeout).
        handle.shutdown();
    }

    #[test]
    fn framing_violation_closes_the_connection() {
        use std::io::{ErrorKind, Read as _, Write as _};
        let (_server, handle) = spawn_server();
        // Speak garbage framing at the server directly.
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 8]).unwrap();
        // The server must hang up (read returns EOF / reset), not
        // stall: a timeout here means it swallowed the bad frame and
        // kept the connection open, which is exactly the regression
        // this test exists to catch.
        let mut buf = [0u8; 1];
        raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        match raw.read(&mut buf) {
            Ok(0) => {} // clean close
            Err(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) => {
                panic!("server stalled on a garbage frame instead of closing")
            }
            Err(_) => {} // reset — also a close
            Ok(_) => panic!("server answered a garbage frame"),
        }
    }
}
