//! Seeded fault injection at the transport seams.
//!
//! Exactly-once delivery (client retry envelopes + the server's dedup
//! window) is a claim about *failure* schedules, so this module makes
//! failure schedules a first-class, reproducible input:
//!
//! * [`FaultTransport`] wraps any [`Transport`] in-process and, driven
//!   by a seeded deterministic generator, loses requests before
//!   delivery, loses responses *after* the server applied the request
//!   (the crash-after-apply-before-reply case that breaks naive retry),
//!   or delays exchanges. A batch travels as one message (`AppendBatch`,
//!   `QueryBatch`), so it is lost or applied whole, like any other.
//! * [`ChaosProxy`] sits between a real TCP client and a real
//!   [`NetServer`](dbph_core::NetServer), forwarding length-prefixed
//!   frames and injecting connection resets, torn half-written frames,
//!   dropped responses, and delays at frame boundaries — the same fault
//!   classes, but exercised through the kernel socket path the
//!   production client actually uses.
//!
//! Every fault a faulted exchange reports is a
//! [`PhError::Transport`] — exactly the error class the client's
//! [`RetryPolicy`](dbph_core::RetryPolicy) retries — so a chaos run is
//! "normal operation plus weather", not a separate protocol.
//!
//! Determinism: both harnesses derive every decision from their seed
//! (per-connection streams in the proxy are split from the root seed by
//! connection index), so a failing schedule replays from a single
//! `u64`. Only a planned fault, the client's EOF or shutdown ends a
//! proxied session: an idle client keeps its connection.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use dbph_core::{codec, PhError, Transport};

/// A tiny deterministic generator (xorshift64*) for fault schedules.
///
/// Not cryptographic and not meant to be: the point is that one `u64`
/// seed reproduces one fault schedule, bit-for-bit, run after run.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Seeds the generator (a zero seed is nudged to a fixed nonzero
    /// constant — xorshift has a fixed point at zero).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultRng {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..bound` (`bound == 0` returns 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Per-exchange fault probabilities for [`FaultTransport`], in percent.
///
/// The categories are disjoint and checked in declaration order; the
/// remainder of the probability mass is a clean pass-through.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Request vanishes before the server sees it (connection refused,
    /// SYN lost, frame never written). Nothing is applied.
    pub lose_request_pct: u64,
    /// The server applies the request but the response never arrives
    /// (crash after apply before reply, reset mid-response). This is
    /// the schedule that turns naive retry into double-apply.
    pub lose_response_pct: u64,
    /// The exchange succeeds but only after sleeping [`FaultPlan::delay`].
    pub delay_pct: u64,
    /// Sleep applied by a delay fault.
    pub delay: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            lose_request_pct: 15,
            lose_response_pct: 15,
            delay_pct: 10,
            delay: Duration::from_millis(1),
        }
    }
}

enum Fault {
    LoseRequest,
    LoseResponse,
    Delay,
    Pass,
}

/// A [`Transport`] wrapper that injects seeded faults around an inner
/// transport — the in-process test double for an unreliable network
/// and a crash-prone server.
///
/// Faulted exchanges return [`PhError::Transport`]; a lost *response*
/// still drives the inner transport first, so the server genuinely
/// applied the mutation the client will now retry.
///
/// [`FaultTransport::disarm`] turns injection off (pass-through) so a
/// test can end its run in calm weather and let outstanding retries
/// land deterministically.
pub struct FaultTransport<T> {
    inner: T,
    rng: Mutex<FaultRng>,
    plan: FaultPlan,
    armed: AtomicBool,
    injected: AtomicUsize,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner`, drawing the fault schedule from `seed`.
    #[must_use]
    pub fn new(inner: T, seed: u64, plan: FaultPlan) -> Self {
        FaultTransport {
            inner,
            rng: Mutex::new(FaultRng::new(seed)),
            plan,
            armed: AtomicBool::new(true),
            injected: AtomicUsize::new(0),
        }
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> usize {
        self.injected.load(Ordering::SeqCst)
    }

    /// Stops injecting: every later exchange passes straight through.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Resumes injecting after [`FaultTransport::disarm`].
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    fn pick(&self) -> Fault {
        if !self.armed.load(Ordering::SeqCst) {
            return Fault::Pass;
        }
        let mut rng = self.rng.lock();
        let roll = rng.below(100);
        let p = &self.plan;
        let fault = if roll < p.lose_request_pct {
            Fault::LoseRequest
        } else if roll < p.lose_request_pct + p.lose_response_pct {
            Fault::LoseResponse
        } else if roll < p.lose_request_pct + p.lose_response_pct + p.delay_pct {
            Fault::Delay
        } else {
            Fault::Pass
        };
        if !matches!(fault, Fault::Pass) {
            self.injected.fetch_add(1, Ordering::SeqCst);
        }
        fault
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, PhError> {
        match self.pick() {
            Fault::LoseRequest => Err(PhError::Transport(
                "injected fault: request lost before delivery".into(),
            )),
            Fault::LoseResponse => {
                let _applied = self.inner.call(request)?;
                Err(PhError::Transport(
                    "injected fault: response lost after apply".into(),
                ))
            }
            Fault::Delay => {
                std::thread::sleep(self.plan.delay);
                self.inner.call(request)
            }
            Fault::Pass => self.inner.call(request),
        }
    }
}

/// Per-frame fault probabilities for [`ChaosProxy`], in percent.
///
/// Checked in declaration order against one roll per client request
/// frame; the remainder passes the frame (and its response) through.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Reset the client connection before forwarding the request:
    /// nothing reaches the server.
    pub reset_pct: u64,
    /// Forward the request, fetch the response, then drop it and cut
    /// the client connection — applied, never acknowledged.
    pub drop_response_pct: u64,
    /// Forward the request, then write only half of the response frame
    /// before cutting — the torn-frame case the client codec must
    /// refuse to half-parse.
    pub torn_frame_pct: u64,
    /// Hold the request for [`ChaosPlan::delay`] before forwarding.
    pub delay_pct: u64,
    /// Sleep applied by a delay fault.
    pub delay: Duration,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan {
            reset_pct: 10,
            drop_response_pct: 10,
            torn_frame_pct: 5,
            delay_pct: 10,
            delay: Duration::from_millis(1),
        }
    }
}

/// A frame-aware TCP proxy that injects seeded faults between a real
/// client and a real server.
///
/// Point a [`PooledClient`](dbph_core::PooledClient) at
/// [`ChaosProxy::addr`] and it experiences resets, torn frames,
/// swallowed responses, and delays on the genuine kernel socket path,
/// while the upstream server stays perfectly healthy — which is what
/// lets a test assert exactly-once against the server's true state.
///
/// Each proxied connection dials upstream lazily, so the upstream
/// server can be killed and restarted mid-test; new client connections
/// reach the new server through the same proxy address.
pub struct ChaosProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    faults: Arc<AtomicUsize>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral loopback port forwarding to
    /// `upstream`, with the fault schedule drawn from `seed`.
    ///
    /// # Errors
    /// [`PhError::Transport`] when the listener cannot be bound.
    pub fn spawn(upstream: SocketAddr, seed: u64, plan: ChaosPlan) -> Result<Self, PhError> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| PhError::Transport(format!("chaos proxy bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| PhError::Transport(format!("chaos proxy addr failed: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| PhError::Transport(format!("chaos proxy nonblocking failed: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let faults = Arc::new(AtomicUsize::new(0));
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_faults = Arc::clone(&faults);
        let accept_thread = std::thread::Builder::new()
            .name("dbph-chaos".into())
            .spawn(move || {
                let mut session_index = 0u64;
                let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
                while !accept_shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((client, _peer)) => {
                            session_index += 1;
                            // Split a per-connection stream off the
                            // root seed so schedules stay deterministic
                            // regardless of thread interleaving.
                            let conn_seed = FaultRng::new(
                                seed ^ session_index.wrapping_mul(0x6a09_e667_f3bc_c909),
                            )
                            .next_u64();
                            let plan = plan.clone();
                            let faults = Arc::clone(&accept_faults);
                            let done = Arc::clone(&accept_shutdown);
                            if let Ok(handle) = std::thread::Builder::new()
                                .name("dbph-chaos-conn".into())
                                .spawn(move || {
                                    proxy_connection(
                                        client, upstream, conn_seed, &plan, &faults, &done,
                                    );
                                })
                            {
                                sessions.push(handle);
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                for handle in sessions {
                    let _ = handle.join();
                }
            })
            .map_err(|e| PhError::Transport(format!("chaos proxy spawn failed: {e}")))?;
        Ok(ChaosProxy {
            addr,
            shutdown,
            faults,
            accept_thread: Some(accept_thread),
        })
    }

    /// The loopback address clients should dial instead of the server.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of faults injected so far.
    #[must_use]
    pub fn faults_injected(&self) -> usize {
        self.faults.load(Ordering::SeqCst)
    }

    /// Stops accepting and tears down proxied connections.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A proxied client socket whose timed-out reads are retried until
/// shutdown: the short read timeout only lets the session notice
/// shutdown, so an idle client keeps its session and a frame that
/// arrives in pieces is read whole.
struct ClientReader<'a>(&'a TcpStream, &'a AtomicBool);

impl Read for ClientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.0.read(buf) {
                Err(e)
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                        && !self.1.load(Ordering::SeqCst) => {}
                other => return other,
            }
        }
    }
}

/// One proxied session: read a client frame, roll for a fault, forward
/// to upstream (dialed lazily on first need), and relay the response.
fn proxy_connection(
    mut client: TcpStream,
    upstream_addr: SocketAddr,
    seed: u64,
    plan: &ChaosPlan,
    faults: &AtomicUsize,
    shutdown: &AtomicBool,
) {
    let mut rng = FaultRng::new(seed);
    let mut upstream: Option<TcpStream> = None;
    let _ = client.set_read_timeout(Some(Duration::from_millis(200)));
    while !shutdown.load(Ordering::SeqCst) {
        let Ok(Some(request)) = codec::read_frame(&mut ClientReader(&client, shutdown)) else {
            break;
        };
        let roll = rng.below(100);
        let p = plan;
        if roll < p.reset_pct {
            faults.fetch_add(1, Ordering::SeqCst);
            let _ = client.shutdown(Shutdown::Both);
            break;
        }
        if roll < p.reset_pct + p.drop_response_pct + p.torn_frame_pct + p.delay_pct
            && roll >= p.reset_pct + p.drop_response_pct + p.torn_frame_pct
        {
            faults.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(p.delay);
        }
        // Forward the request upstream, dialing on first use so an
        // upstream restart only costs the connections that spanned it.
        let conn = match upstream.as_mut() {
            Some(conn) => conn,
            None => match TcpStream::connect(upstream_addr) {
                Ok(conn) => {
                    let _ = conn.set_nodelay(true);
                    upstream = Some(conn);
                    upstream.as_mut().expect("just inserted")
                }
                Err(_) => break,
            },
        };
        if codec::write_frame(conn, &request).is_err() {
            let _ = client.shutdown(Shutdown::Both);
            break;
        }
        let response = match codec::read_frame(conn) {
            Ok(Some(frame)) => frame,
            _ => {
                let _ = client.shutdown(Shutdown::Both);
                break;
            }
        };
        if roll >= p.reset_pct && roll < p.reset_pct + p.drop_response_pct {
            // Applied upstream, acknowledgement swallowed.
            faults.fetch_add(1, Ordering::SeqCst);
            let _ = client.shutdown(Shutdown::Both);
            break;
        }
        if roll >= p.reset_pct + p.drop_response_pct
            && roll < p.reset_pct + p.drop_response_pct + p.torn_frame_pct
        {
            // Half a frame, then the wire goes dark.
            faults.fetch_add(1, Ordering::SeqCst);
            let mut framed = Vec::with_capacity(4 + response.len());
            if codec::write_frame(&mut framed, &response).is_ok() {
                let torn = framed.len() / 2;
                let _ = client.write_all(&framed[..torn]);
            }
            let _ = client.shutdown(Shutdown::Both);
            break;
        }
        if codec::write_frame(&mut client, &response).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_rng_is_deterministic_per_seed() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        let mut c = FaultRng::new(43);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn zero_seed_is_nudged_off_the_fixed_point() {
        let mut rng = FaultRng::new(0);
        assert_ne!(rng.next_u64(), 0);
    }

    /// An idle client keeps its proxied session: only EOF, a planned
    /// fault or shutdown ends one, so under an all-zero plan a second
    /// frame sent a second after the first is answered, and no fault
    /// is counted.
    #[test]
    fn idle_client_session_survives_an_all_zero_plan() {
        use dbph_core::protocol::{ClientMessage, ServerResponse};
        use dbph_core::wire::{WireDecode as _, WireEncode as _};
        use dbph_core::{NetServer, Server, ServerConfig};

        let server = Server::open(&ServerConfig::default(), None).unwrap();
        let handle = NetServer::spawn(server, "127.0.0.1:0").unwrap();
        let calm = ChaosPlan {
            reset_pct: 0,
            drop_response_pct: 0,
            torn_frame_pct: 0,
            delay_pct: 0,
            delay: Duration::ZERO,
        };
        let proxy = ChaosProxy::spawn(handle.addr(), 9, calm).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let stats = ClientMessage::Stats.to_wire();
        for gap in [Duration::ZERO, Duration::from_secs(1)] {
            std::thread::sleep(gap);
            codec::write_frame(&mut conn, &stats).unwrap();
            let frame = codec::read_frame(&mut conn)
                .unwrap()
                .unwrap_or_else(|| panic!("session closed after a {gap:?} idle gap"));
            assert!(matches!(
                ServerResponse::from_wire(&frame).unwrap(),
                ServerResponse::StatsSnapshot(_)
            ));
        }
        assert_eq!(proxy.faults_injected(), 0);
        drop(conn);
        proxy.shutdown();
        handle.shutdown();
    }

    #[test]
    fn disarmed_transport_is_transparent() {
        struct Echo;
        impl Transport for Echo {
            fn call(&self, request: &[u8]) -> Result<Vec<u8>, PhError> {
                Ok(request.to_vec())
            }
        }
        let faulty = FaultTransport::new(
            Echo,
            7,
            FaultPlan {
                lose_request_pct: 100,
                lose_response_pct: 0,
                delay_pct: 0,
                delay: Duration::ZERO,
            },
        );
        assert!(faulty.call(b"x").is_err());
        faulty.disarm();
        assert_eq!(faulty.call(b"x").unwrap(), b"x");
        assert_eq!(faulty.injected(), 1);
    }
}
