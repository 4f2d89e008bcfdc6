//! Primary/follower replication by segment-log shipping.
//!
//! A [`Replica`] is a second Eve: it bootstraps from a primary's log
//! stream and then tails it, pulling runs of verbatim log records
//! ([`crate::protocol::ClientMessage::ReplPull`]) over any
//! [`Transport`] and applying every mutation record through the one
//! function that applies logged mutations everywhere, the server's
//! `apply_logged`. Bootstrap writes the shipped bytes into a fresh
//! data directory and opens it with [`Server::open`] and the follower's
//! [`ReplicaOptions::server`] config, exactly as a restarted primary
//! opens its own directory — bootstrap **is** recovery —
//! and tailing appends each pulled chunk to the follower's own log
//! (one `fdatasync` per chunk) before applying its records in-memory.
//! The follower's store, dedup window, and index therefore hold what
//! the primary's live apply produced, and [`Replica::promote`] simply
//! hands back the inner [`Server`]: it already is a live durable
//! primary, and because the raw log carried every idempotent request
//! envelope verbatim, a client that re-sends an acked mutation after
//! failover gets its cached response replayed, never re-applied —
//! exactly-once survives the primary's death.
//!
//! # Semi-sync acks
//!
//! A pull at offset `v` doubles as the follower's acknowledgement that
//! every stream byte below `v` is appended *and* fdatasync'd on its
//! disk (the tailer advances its cursor only after
//! [`crate::durable::DurableLog`]'s raw append has synced). A primary
//! configured with [`ReplicationOptions`]`{ min_acks: n, .. }` holds
//! each mutation's acknowledgement — after its local group-commit
//! barrier — until `n` followers' cursors pass the record, degrading
//! to async (and counting the lapse) if they take longer than the
//! configured timeout.
//!
//! # Leakage
//!
//! Replication ships records Eve *already received and stored*: the
//! stream is a byte-range of the primary's own segment files, which
//! are themselves built from the raw client messages the primary's
//! [`crate::server::Observer`] transcript already contains. Handing
//! that stream to a second Eve reveals nothing about Alex's plaintext
//! or keys that the first Eve did not have — the adversary's view is
//! the same transcript, now held twice. What replication *does* add is
//! operational metadata about Eve's own deployment (that a follower
//! exists, its id, and how far behind it is), none of which is a
//! function of Alex's data. Accordingly, `ReplPull` and `Stats` record no
//! [`crate::server::ServerEvent`]s: the transcript model measures what
//! Eve learns about Alex, and these exchanges teach her nothing new.
//!
//! ```no_run
//! use dbph_core::replica::{Replica, ReplicaOptions};
//! use dbph_core::net::PooledClient;
//!
//! let feed = PooledClient::connect("127.0.0.1:4000", 1)?;
//! let mut replica = Replica::bootstrap(feed, "/tmp/follower", ReplicaOptions::default())?;
//! replica.start(); // background tailer
//! // ... primary dies ...
//! let promoted = replica.promote(); // a serving durable Server
//! # let _ = promoted; Ok::<(), dbph_core::PhError>(())
//! ```

use std::fs::{self, File};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use crate::durable::{self, TAG_MUTATION};
use crate::error::PhError;
use crate::net::Transport;
use crate::protocol::ClientMessage;
use crate::protocol::ServerResponse;
use crate::server::{Server, ServerConfig};
use crate::telemetry::Telemetry;
use crate::wire::{WireDecode, WireEncode};

pub use crate::durable::ReplicationOptions;

/// Configuration for a [`Replica`].
#[derive(Debug, Clone)]
pub struct ReplicaOptions {
    /// The id this follower identifies itself with in every pull; the
    /// primary tracks one acknowledged offset per id, so two live
    /// followers must use distinct ids (a restarted follower reusing
    /// its id simply resets its slot).
    pub follower_id: u64,
    /// How every generation of the follower's server is opened
    /// (default: [`ServerConfig::default`]). Each generation opens its
    /// own `gen-NNNN` directory under the replica's root, cuts its
    /// tables into the same fixed-capacity shards the primary does, and
    /// records a transcript only when this config asks for one.
    pub server: ServerConfig,
    /// How long the background tailer sleeps when caught up or when
    /// the primary is unreachable, before pulling again.
    pub poll_interval: Duration,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        ReplicaOptions {
            follower_id: 1,
            server: ServerConfig::default(),
            poll_interval: Duration::from_millis(1),
        }
    }
}

/// Shared state between the [`Replica`] handle and its tailer thread.
struct Inner {
    transport: Box<dyn Transport + Send + Sync>,
    /// Root directory; each (re)bootstrap builds a fresh
    /// `gen-NNNN` data directory under it, so an old generation's
    /// advisory log lock can never block the new one.
    root: PathBuf,
    options: ReplicaOptions,
    /// The follower's one metrics registry: every generation's server
    /// reports into it, so counters and histograms carry across
    /// re-bootstraps.
    telemetry: Arc<Telemetry>,
    /// Serializes whole pull→append→apply steps: the background tailer
    /// and a direct [`Replica::sync`] caller must never interleave a
    /// chunk.
    step: Mutex<()>,
    state: RwLock<State>,
    stop: AtomicBool,
}

struct State {
    /// The live follower server — always a fully recovered durable
    /// server; replaced wholesale by a re-bootstrap.
    server: Server,
    /// Next virtual stream offset to pull (== everything below it is
    /// durably applied here; the pull carrying it is our ack).
    cursor: u64,
    /// Current `gen-NNNN` suffix.
    generation: u64,
    /// Completed re-bootstraps (compaction on the primary, or local
    /// divergence recovery).
    resyncs: u64,
    /// Last pull/apply failure, for operators; cleared on progress.
    last_error: Option<String>,
}

/// A read-only follower of a durable primary. See the module docs.
pub struct Replica {
    inner: Arc<Inner>,
    tailer: Option<JoinHandle<()>>,
}

/// One `ReplPull` exchange, decoded: `(records, next_offset,
/// restarted)`. `restarted` means the chunk does not begin at
/// `after_offset` — the primary compacted past it, or the follower
/// outlived a primary that lost its tail — so the chunk is the
/// stream's first bytes (see `ClientMessage::ReplPull`). During
/// tailing the caller re-bootstraps; during bootstrap a restart is
/// the expected first answer whenever the primary has ever compacted.
fn pull(
    transport: &(dyn Transport + Send + Sync),
    follower: u64,
    after_offset: u64,
    wait: bool,
) -> Result<(Vec<u8>, u64, bool), PhError> {
    let request = ClientMessage::ReplPull {
        follower,
        after_offset,
        wait,
    }
    .to_wire();
    let response = transport.call(&request)?;
    match ServerResponse::from_wire(&response) {
        Ok(ServerResponse::ReplRecords {
            records,
            next_offset,
        }) => {
            let restarted = next_offset.checked_sub(records.len() as u64) != Some(after_offset);
            Ok((records, next_offset, restarted))
        }
        Ok(ServerResponse::Error(e)) => {
            Err(PhError::Protocol(format!("primary refused pull: {e}")))
        }
        Ok(_) => Err(PhError::Protocol(
            "unexpected response to replication pull".into(),
        )),
        Err(e) => Err(PhError::Wire(format!("bad pull response: {e}"))),
    }
}

/// Splits a shipped chunk into its `(tag, body)` records, rejecting
/// the whole chunk unless its framing and checksums verify end to end
/// — the transport already frames reliably, but these bytes are about
/// to become our durable log, so they get the same scrutiny recovery
/// would apply.
fn verified_records(chunk: &[u8]) -> Result<Vec<(u8, &[u8])>, PhError> {
    let mut records = Vec::new();
    let (_, clean) = durable::walk_records(chunk, |tag, body| {
        records.push((tag, body));
        Ok(())
    })?;
    if clean != chunk.len() as u64 {
        return Err(PhError::Durability(format!(
            "shipped chunk corrupt after {clean} of {} bytes",
            chunk.len()
        )));
    }
    Ok(records)
}

/// Streams the primary's full physical log into a fresh `gen-NNNN`
/// directory and recovers a server from it. Returns the server and the
/// virtual offset tailing continues from.
fn bootstrap_generation(
    transport: &(dyn Transport + Send + Sync),
    root: &Path,
    options: &ReplicaOptions,
    telemetry: &Arc<Telemetry>,
    generation: u64,
) -> Result<(Server, u64), PhError> {
    let dir = root.join(format!("gen-{generation:04}"));
    if dir.exists() {
        // Debris of an interrupted earlier attempt at this generation.
        fs::remove_dir_all(&dir)
            .map_err(|e| PhError::Durability(format!("clear stale bootstrap dir: {e}")))?;
    }
    fs::create_dir_all(&dir)
        .map_err(|e| PhError::Durability(format!("create bootstrap dir: {e}")))?;
    let seg = durable::segment_path(&dir, 0);
    let mut file = File::create(&seg)
        .map_err(|e| PhError::Durability(format!("create bootstrap seg: {e}")))?;
    let mut cursor = 0u64;
    loop {
        // No long poll: the empty answer at the stream end is all
        // bootstrap waits for, and an idle primary would hold it back.
        let (records, next_offset, restarted) =
            pull(transport, options.follower_id, cursor, false)?;
        if restarted {
            // The stream's origin is not our cursor — on the very
            // first pull because the primary has compacted before,
            // or mid-stream because it compacted under us. Either
            // way this chunk is the stream's new first bytes:
            // discard what we have and take it as such.
            file.set_len(0)
                .and_then(|()| file.seek(SeekFrom::Start(0)).map(|_| ()))
                .map_err(|e| PhError::Durability(format!("rewind bootstrap seg: {e}")))?;
        }
        if records.is_empty() {
            // Caught up — or, for a restart on an empty
            // post-compaction log, aligned on the stream origin.
            cursor = next_offset;
            break;
        }
        verified_records(&records)?;
        file.write_all(&records)
            .and_then(|()| file.sync_data())
            .map_err(|e| PhError::Durability(format!("write bootstrap seg: {e}")))?;
        // Advancing the cursor in the next pull acknowledges these
        // bytes as durable here — true, we just fsync'd them.
        cursor = next_offset;
    }
    file.sync_all()
        .map_err(|e| PhError::Durability(format!("sync bootstrap seg: {e}")))?;
    durable::sync_dir(&dir)?;
    durable::write_manifest(&dir, &[0])?;
    // Bootstrap is recovery: open the directory we just wrote exactly
    // as a restarted primary would open its own.
    let server = Server::open_with_telemetry(&options.server, Some(&dir), Arc::clone(telemetry))?;
    Ok((server, cursor))
}

/// Replaces the current generation with a fresh bootstrap.
fn resync(inner: &Inner) -> Result<(), PhError> {
    let generation = inner.state.read().generation + 1;
    let (server, cursor) = bootstrap_generation(
        inner.transport.as_ref(),
        &inner.root,
        &inner.options,
        &inner.telemetry,
        generation,
    )?;
    let old = {
        let mut s = inner.state.write();
        let old = s.generation;
        s.server = server;
        s.cursor = cursor;
        s.generation = generation;
        s.resyncs += 1;
        old
    };
    if inner.telemetry.on() {
        inner.telemetry.repl_resyncs.inc();
    }
    // Best-effort: the superseded generation's directory is dead
    // weight (its server, and with it the advisory lock, is dropped
    // once outstanding clones go away).
    let _ = fs::remove_dir_all(inner.root.join(format!("gen-{old:04}")));
    Ok(())
}

/// One pull→append→apply step. `Ok(true)` means progress was made;
/// `Ok(false)` means the follower is caught up.
fn step(inner: &Inner) -> Result<bool, PhError> {
    let (cursor, server) = {
        let s = inner.state.read();
        (s.cursor, s.server.clone())
    };
    let (records, next_offset, restarted) = pull(
        inner.transport.as_ref(),
        inner.options.follower_id,
        cursor,
        true,
    )?;
    if restarted {
        // The stream no longer continues at our cursor: our whole log
        // describes a superseded history. Re-bootstrap (which re-pulls
        // the stream's first bytes into a fresh generation directory).
        resync(inner)?;
        return Ok(true);
    }
    if records.is_empty() {
        return Ok(false);
    }
    let applied = verified_records(&records)?;
    let log = server
        .durable_log()
        .ok_or_else(|| PhError::Durability("follower server lost its log".into()))?;
    // Durability first (one fsync for the whole chunk), then the
    // in-memory apply — the same order recovery implies, so a crash
    // between the two re-applies from our own log instead of losing
    // acked records.
    log.append_raw(&records)?;
    for (tag, body) in applied {
        if tag != TAG_MUTATION {
            return Err(PhError::Durability(format!(
                "non-mutation record tag {tag} above the snapshot horizon"
            )));
        }
        server.apply_logged(body)?;
    }
    if server.telemetry().on() {
        server.telemetry().repl_chunks_applied.inc();
    }
    inner.state.write().cursor = next_offset;
    Ok(true)
}

/// A serialized [`step`] with error triage: transport failures are
/// retriable (the primary may be down — promotion might be next), any
/// other failure means this follower can no longer trust its state and
/// re-bootstraps.
fn advance(inner: &Inner) -> Result<bool, PhError> {
    let _step = inner.step.lock();
    match step(inner) {
        Ok(progressed) => {
            if progressed {
                inner.state.write().last_error = None;
            }
            Ok(progressed)
        }
        Err(e @ PhError::Transport(_)) => {
            inner.state.write().last_error = Some(e.to_string());
            Err(e)
        }
        Err(e) => {
            inner.state.write().last_error = Some(e.to_string());
            resync(inner)?;
            Ok(true)
        }
    }
}

impl Replica {
    /// Bootstraps a follower of the primary behind `transport` into
    /// `dir` (the replica's root; data directories are created under
    /// it) and returns it caught up to the primary's stream end at the
    /// time of the call. No background work starts until
    /// [`Replica::start`].
    ///
    /// # Errors
    /// [`PhError::Transport`] when the primary is unreachable,
    /// [`PhError::Protocol`] when it refuses replication (e.g. an
    /// in-memory server), [`PhError::Durability`] on local I/O
    /// failure.
    pub fn bootstrap(
        transport: impl Transport + Send + Sync + 'static,
        dir: impl AsRef<Path>,
        options: ReplicaOptions,
    ) -> Result<Self, PhError> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(&root)
            .map_err(|e| PhError::Durability(format!("create replica root: {e}")))?;
        let telemetry = Arc::new(Telemetry::new());
        let (server, cursor) = bootstrap_generation(&transport, &root, &options, &telemetry, 0)?;
        Ok(Replica {
            inner: Arc::new(Inner {
                transport: Box::new(transport),
                root,
                options,
                telemetry,
                step: Mutex::new(()),
                state: RwLock::new(State {
                    server,
                    cursor,
                    generation: 0,
                    resyncs: 0,
                    last_error: None,
                }),
                stop: AtomicBool::new(false),
            }),
            tailer: None,
        })
    }

    /// Pulls until caught up with the primary's current stream end —
    /// the deterministic form of tailing (tests drive this; production
    /// uses [`Replica::start`]). Safe to call alongside a running
    /// tailer: steps are serialized.
    ///
    /// # Errors
    /// As [`Replica::bootstrap`]; a transport error leaves the replica
    /// intact and retriable.
    pub fn sync(&self) -> Result<(), PhError> {
        while advance(&self.inner)? {}
        Ok(())
    }

    /// Spawns the background tailer: an endless pull loop that applies
    /// whatever the primary appends, sleeps
    /// [`ReplicaOptions::poll_interval`] when caught up or when the
    /// primary is unreachable, and re-bootstraps itself across
    /// primary compactions. Idempotent.
    pub fn start(&mut self) {
        if self.tailer.is_some() {
            return;
        }
        let inner = Arc::clone(&self.inner);
        self.tailer = Some(std::thread::spawn(move || {
            while !inner.stop.load(Ordering::SeqCst) {
                match advance(&inner) {
                    Ok(true) => {} // keep draining
                    Ok(false) | Err(_) => std::thread::sleep(inner.options.poll_interval),
                }
            }
        }));
    }

    /// A handle to the follower's live server — read-only by
    /// convention (it will happily apply mutations, but anything not
    /// arriving through the replication stream diverges it from the
    /// primary; serve reads from it, mutate the primary).
    #[must_use]
    pub fn server(&self) -> Server {
        self.inner.state.read().server.clone()
    }

    /// The follower's replication cursor: everything below this
    /// virtual stream offset is durably applied here.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.inner.state.read().cursor
    }

    /// Completed re-bootstraps (primary compactions crossed, or local
    /// divergence repairs).
    #[must_use]
    pub fn resyncs(&self) -> u64 {
        self.inner.state.read().resyncs
    }

    /// The most recent pull/apply failure, if the replica is currently
    /// unable to make progress (e.g. the primary is down).
    #[must_use]
    pub fn last_error(&self) -> Option<String> {
        self.inner.state.read().last_error.clone()
    }

    /// Failover: stops tailing, drains whatever the primary can still
    /// serve (best-effort — the usual reason to promote is that it
    /// serves nothing), and returns the inner [`Server`], which is
    /// already a fully recovered durable primary over the follower's
    /// own data directory. Serve it (e.g.
    /// [`crate::net::NetServer::spawn`]) and repoint clients with
    /// [`crate::net::PooledClient::redirect`]; re-sent acked envelopes
    /// hit the recovered dedup window and replay their cached
    /// responses — exactly-once holds across the failover.
    #[must_use]
    pub fn promote(mut self) -> Server {
        self.stop_tailer();
        let _ = self.sync();
        self.inner.state.read().server.clone()
    }

    fn stop_tailer(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.tailer.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop_tailer();
    }
}
