//! Eve — the untrusted database service provider.
//!
//! The server executes `ψ` (the keyless trapdoor scan) over tables
//! held in a [`crate::storage::TableStore`] — cut into fixed-capacity
//! shards and scanned in parallel — and, crucially for the security analysis,
//! can record *everything it observes* in an [`Observer`]. The games and
//! examples read that transcript to play the adversary: the paper's
//! point is that an honest-but-curious Eve's transcript already
//! determines what any future adversary buying her archive learns.
//! Recording is asked for with [`ServerConfig::transcript`]; a deployed
//! server leaves it off and keeps no per-request history, and the
//! bytes Eve receives, stores and answers are the same either way.
//!
//! The server never sees key material. Its only computational
//! capability over ciphertexts is [`dbph_swp::matches`] (via the
//! prepared batch form), and its whole interface is
//! `handle(bytes) -> bytes`. Sharding and batching change *when* work
//! happens, never *what* Eve learns: the observer transcript for any
//! workload is identical across table layouts and pool sizes, and a batched message
//! produces exactly the per-query/per-document events its unbatched
//! equivalent would, tagged with a [`BatchRef`] so transcript analyses
//! can still see message boundaries.
//!
//! `ψ` runs down one path. A [`ClientMessage::Query`] is a batch of one
//! without a batch id, a [`ClientMessage::QueryBatch`] the same call
//! with one: the store picks the plan (index probe or scan) once per
//! message, under one table snapshot, and the server records each
//! query's `IndexProbe` and `Query` events in query order.
//!
//! Eve's setup is one [`ServerConfig`] — worker pool, log options,
//! index, transcript — read by one constructor, [`Server::open`], which
//! opens in memory or over a data directory. The only switch left for
//! runtime is [`Server::set_replication`]: a primary must already be
//! serving before its first follower can bootstrap from it.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::durable::{DurableLog, DurableOptions, ReplicationOptions, ScrubReport};
use crate::error::PhError;
use crate::executor::Executor;
use crate::protocol::{ClientMessage, ServerResponse, WireTrapdoor, MAX_CHUNK_BYTES};
use crate::storage::{DedupDecision, TableStore};
use crate::swp_ph::EncryptedTable;
use crate::telemetry::{MetricValue, StatsSnapshot, Telemetry, SIZE_GAUGES, STATS_VERSION};
use crate::wire::{WireDecode, WireEncode};

/// Which batched message an event belongs to: `(batch id, index within
/// the batch)`. Batch ids are assigned per server, in arrival order.
pub type BatchRef = (u64, usize);

/// One observed server-side event, as recorded by [`Observer`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServerEvent {
    /// A table was uploaded: name, tuple count, total ciphertext bytes.
    Upload {
        /// Table name.
        name: String,
        /// Number of tuple ciphertexts (public by tuple-wise encryption).
        tuples: usize,
        /// Total ciphertext size in bytes.
        bytes: usize,
    },
    /// A query was executed: the terms Eve received and the doc ids
    /// that matched — the access pattern of the paper's §2.
    Query {
        /// Table name.
        name: String,
        /// The addressed trapdoors, exactly as received — each term's
        /// `attr` is the attribute it targets.
        terms: Vec<WireTrapdoor>,
        /// Matching document ids (the result set Eve computes herself).
        matched_doc_ids: Vec<u64>,
        /// `Some` when the query arrived inside a
        /// [`ClientMessage::QueryBatch`]; `None` for single-query
        /// messages. Batching changes framing, not per-query leakage,
        /// and the transcript keeps both facts analyzable.
        batch: Option<BatchRef>,
    },
    /// A tuple was appended. Emitted exactly once per document, for
    /// single appends and for each document of an
    /// [`ClientMessage::AppendBatch`] alike.
    Append {
        /// Table name.
        name: String,
        /// The new document's id.
        doc_id: u64,
        /// `Some` when the append arrived inside a batch.
        batch: Option<BatchRef>,
    },
    /// The whole table was downloaded.
    FetchAll {
        /// Table name.
        name: String,
    },
    /// One bounded chunk of the table was downloaded
    /// ([`ClientMessage::FetchChunk`]). The pagination is entirely
    /// client-chosen; the union of a stream's chunks is exactly the
    /// `FetchAll` content, so chunking re-frames the download Eve
    /// serves either way without changing what crosses her hands.
    FetchChunk {
        /// Table name.
        name: String,
        /// Continuation token as received (global document position).
        token: u64,
        /// Requested chunk budget as received, in bytes.
        max_bytes: u64,
        /// Documents returned in this chunk.
        returned: usize,
        /// Token handed back for the next chunk (`None` = exhausted).
        next: Option<u64>,
    },
    /// The table was dropped.
    Drop {
        /// Table name.
        name: String,
    },
    /// Documents were deleted by id (confirmed delete, phase two).
    DeleteDocs {
        /// Table name.
        name: String,
        /// The ids exactly as received on the wire — duplicates and
        /// absent ids included, since Eve observes the raw message
        /// (a request for a missing id is itself information).
        doc_ids: Vec<u64>,
        /// The ids actually removed, in document order, each recorded
        /// exactly once — the access pattern the delete realized.
        removed: Vec<u64>,
    },
    /// One encrypted-multimap probe by the indexed query plan
    /// ([`crate::index`]) — recorded only when the index is enabled
    /// (disabled, transcripts are byte-identical to the scan-only
    /// server). This event states exactly what the index adds to Eve's
    /// view beyond the scan: a *persistent* per-term label with its
    /// posting length, where the scan leaked the same access pattern
    /// only transiently per query.
    IndexProbe {
        /// Table name.
        name: String,
        /// The multimap label — derived from the trapdoor bytes alone
        /// ([`dbph_swp::index_label`]), so equal terms collide here
        /// exactly as they already do on the wire. The other half of
        /// the posting key, the term's `attr`, is in the `Query` event
        /// this probe precedes (probes follow its term order).
        label: Vec<u8>,
        /// Cached posting length served (`None` on a cold miss).
        cached: Option<usize>,
        /// First document id the fresh delta scan covered (the cached
        /// posting's bound; 0 on a cold miss).
        delta_from: u64,
        /// Posting length after the refresh — the per-label result
        /// size the at-rest multimap now reveals.
        posting: usize,
        /// `Some` when the probing query arrived inside a batch.
        batch: Option<BatchRef>,
    },
}

/// Records the server's complete view — when asked to. A server opened
/// with [`ServerConfig::transcript`] on holds a recording observer; off
/// (the default), `record` is one branch, its event is never built,
/// and every read answers empty. Clone-cheap (shared interior).
#[derive(Clone, Default)]
pub struct Observer {
    events: Option<Arc<RwLock<Vec<ServerEvent>>>>,
}

impl Observer {
    /// An empty observer that records every event when `recording`,
    /// and none otherwise.
    #[must_use]
    pub fn new(recording: bool) -> Self {
        Observer {
            events: recording.then(Arc::default),
        }
    }

    /// Appends the event `event` builds, calling it only when
    /// recording.
    fn record(&self, event: impl FnOnce() -> ServerEvent) {
        if let Some(events) = &self.events {
            events.write().push(event());
        }
    }

    /// Whether this observer records events.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.events.is_some()
    }

    /// Number of recorded events (0 when not recording).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.as_ref().map_or(0, |events| events.read().len())
    }

    /// Whether no event is recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of all recorded events.
    #[must_use]
    pub fn events(&self) -> Vec<ServerEvent> {
        self.events
            .as_ref()
            .map_or_else(Vec::new, |events| events.read().clone())
    }

    /// Only the query events — the transcript the §2 attacks consume.
    /// Batched and unbatched queries appear identically here.
    #[must_use]
    pub fn queries(&self) -> Vec<(Vec<WireTrapdoor>, Vec<u64>)> {
        let Some(events) = &self.events else {
            return Vec::new();
        };
        events
            .read()
            .iter()
            .filter_map(|e| match e {
                ServerEvent::Query {
                    terms,
                    matched_doc_ids,
                    ..
                } => Some((terms.clone(), matched_doc_ids.clone())),
                _ => None,
            })
            .collect()
    }

    /// Clears the transcript (between game trials).
    pub fn clear(&self) {
        if let Some(events) = &self.events {
            events.write().clear();
        }
    }
}

/// The outsourced database server.
#[derive(Clone)]
pub struct Server {
    store: Arc<TableStore>,
    observer: Observer,
    /// Next batch id (shared across clones — clones are the same
    /// logical server).
    next_batch: Arc<AtomicU64>,
    /// Optional durability backend. `None` (every pre-existing
    /// constructor) is the in-memory server the repro always had;
    /// `Some` appends every applied mutation to the segment log before
    /// acknowledging it. Shared across clones: clones are the same
    /// logical server and must share one log.
    durable: Option<Arc<DurableLog>>,
    /// The transcript-invisible metrics registry — shared across
    /// clones (one logical server, one registry) and handed to the
    /// durable log, net front-end, and replica runtime so every
    /// layer reports into the same snapshot.
    telemetry: Arc<Telemetry>,
}

/// How Eve sets herself up, read by [`Server::open`]. No field changes
/// a response or a segment byte. `transcript` decides whether the
/// [`Observer`] records at all, and `index` adds its probe events to
/// what it records. The table layout is not a choice: every
/// table is a run of shards of at most [`crate::storage::SHARD_DOCS`]
/// documents, and a scan uses as many cores as the pool has.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Worker threads in a dedicated scan pool (1 runs every task
    /// inline in submission order, the sequential reference engine),
    /// or `None` for the process-wide pool ([`Executor::global`]).
    pub workers: Option<usize>,
    /// Segment-log options; read only when the server opens a data
    /// directory.
    pub durable: DurableOptions,
    /// Plan queries as encrypted-multimap probes ([`crate::index`])
    /// instead of scans. A recovered index image turns the plan on
    /// whatever this says.
    pub index: bool,
    /// Record Eve's view in the [`Observer`]: the games, the
    /// experiment binaries and the transcript suites read it. Off (the
    /// default), a deployed server keeps no per-request history, so
    /// its memory stays flat under sustained traffic. Eve receives,
    /// stores and answers the same bytes either way: the observer
    /// models her view below the transport and changes none of them.
    pub transcript: bool,
}

impl Server {
    /// Builds a server from `config`: in memory and empty when
    /// `data_dir` is `None`, otherwise **durable** on that directory.
    /// A durable server first recovers whatever a previous process
    /// persisted there (a torn tail record from an unclean kill is
    /// truncated, never a panic; an empty or absent directory starts
    /// empty), then acknowledges each applied mutation only once a
    /// group-commit `fdatasync` barrier covers its log record. A
    /// follower opens each shipped log directory here too
    /// ([`crate::replica`]): bootstrap is recovery.
    ///
    /// # Errors
    /// [`PhError::Durability`] when the directory cannot be opened or
    /// its contents are corrupt beyond the torn-tail contract.
    pub fn open(config: &ServerConfig, data_dir: Option<&Path>) -> Result<Self, PhError> {
        Server::open_with_telemetry(config, data_dir, Arc::new(Telemetry::new()))
    }

    /// [`Server::open`], reporting into `telemetry` instead of a fresh
    /// registry. A follower opens every generation with the one
    /// registry its [`crate::replica::Replica`] owns, so its counters
    /// and histograms carry across re-bootstraps.
    pub(crate) fn open_with_telemetry(
        config: &ServerConfig,
        data_dir: Option<&Path>,
        telemetry: Arc<Telemetry>,
    ) -> Result<Self, PhError> {
        let pool = config
            .workers
            .map_or_else(Executor::global, |w| Arc::new(Executor::new(w)));
        // Replay applies every logged mutation through `apply_logged`,
        // exactly as a follower applies its tail, into this scratch
        // server, which records nothing: recovery is Eve re-reading
        // her own disk, not new traffic.
        let scratch = Server {
            store: Arc::new(TableStore::new(pool)),
            observer: Observer::default(),
            next_batch: Arc::new(AtomicU64::new(0)),
            durable: None,
            telemetry,
        };
        let durable = match data_dir {
            None => None,
            Some(dir) => {
                let log = DurableLog::open(
                    dir,
                    config.durable.clone(),
                    Arc::clone(&scratch.telemetry),
                    &scratch.store,
                    |body| scratch.apply_logged(body),
                )?;
                Some(Arc::new(log))
            }
        };
        // The serving server keeps the replayed store with a fresh
        // transcript and batch counter.
        let server = Server {
            observer: Observer::new(config.transcript),
            next_batch: Arc::new(AtomicU64::new(0)),
            durable,
            ..scratch
        };
        // After replay, as the index switch always ran: replay
        // rebuilds exactly the index state the log describes.
        if config.index {
            server.store.enable_index();
        }
        Ok(server)
    }

    /// [`Server::open`] in memory with the default config. The shard
    /// count is ignored: tables are cut into fixed-capacity shards
    /// whatever it says. Kept only for the frozen `e2ebench/` until it
    /// moves onto `open` (ROADMAP item 1).
    #[must_use]
    pub fn with_shards(_shards: usize) -> Self {
        Server::open(&ServerConfig::default(), None).expect("an in-memory open cannot fail")
    }

    /// [`Server::open`] on `dir` with the default config. The shard
    /// count is ignored, as for the in-memory delegation. Kept only for
    /// the frozen `e2ebench/` until it moves onto `open` (ROADMAP
    /// item 1).
    ///
    /// # Errors
    /// As [`Server::open`].
    pub fn open_durable(dir: impl AsRef<Path>, _shards: usize) -> Result<Self, PhError> {
        Server::open(&ServerConfig::default(), Some(dir.as_ref()))
    }

    /// Names of the stored tables, sorted — public metadata (the
    /// protocol addresses tables by name); the durable example prints
    /// it after recovery.
    #[must_use]
    pub fn table_names(&self) -> Vec<String> {
        self.store.table_names()
    }

    /// The durability backend, when this server has one (tests watch
    /// segment files through it).
    #[must_use]
    pub fn durable_log(&self) -> Option<&Arc<DurableLog>> {
        self.durable.as_ref()
    }

    /// Compacts the segment log now (a no-op for in-memory servers):
    /// rewrites the live store into a sealed snapshot segment and
    /// starts a fresh active segment.
    ///
    /// # Errors
    /// [`PhError::Durability`] when the compaction write fails.
    pub fn compact(&self) -> Result<(), PhError> {
        match &self.durable {
            Some(log) => log.compact_now(&self.store),
            None => Ok(()),
        }
    }

    /// Configures semi-synchronous replication on this primary: with
    /// `min_acks > 0`, a mutation is acknowledged only after its log
    /// bytes are locally durable **and** at least `min_acks` followers
    /// have pulled past them (a pull at offset `v` is the follower's
    /// statement that everything below `v` is appended + fdatasync'd
    /// on its disk). See [`ReplicationOptions`] for the ack-timeout
    /// degrade semantics.
    ///
    /// # Errors
    /// [`PhError::Durability`] on an in-memory server — there is no
    /// log to ship.
    pub fn set_replication(&self, options: ReplicationOptions) -> Result<(), PhError> {
        match &self.durable {
            Some(log) => {
                log.set_replication(options);
                Ok(())
            }
            None => Err(PhError::Durability(
                "replication requires a durable server".into(),
            )),
        }
    }

    /// Proactively re-verifies every record checksum in every segment
    /// of the durable log (sealed and active) — see
    /// [`DurableLog::scrub`]. Surfaces latent disk corruption *now*
    /// instead of at the next recovery.
    ///
    /// # Errors
    /// [`PhError::Durability`] when a segment fails verification, or
    /// on an in-memory server (nothing to scrub).
    pub fn scrub(&self) -> Result<ScrubReport, PhError> {
        match &self.durable {
            Some(log) => log.scrub(),
            None => Err(PhError::Durability(
                "scrub requires a durable server".into(),
            )),
        }
    }

    /// Applies one logged mutation record body (the raw client message
    /// a durable server logged) to this server's in-memory state
    /// *without* logging it. Every logged mutation takes this path:
    /// crash recovery and follower bootstrap replay their log through
    /// it, and a follower's tailer applies each shipped record after
    /// appending it to its own log. A tagged envelope rebuilds the
    /// dedup window entry, and the mutation itself dispatches through
    /// the live path (observer events included).
    ///
    /// # Errors
    /// [`PhError::Durability`] when the record does not decode to a
    /// mutation or its application diverges (errors) — either means
    /// this server's state is no longer the one the log describes (a
    /// follower must re-bootstrap).
    pub(crate) fn apply_logged(&self, body: &[u8]) -> Result<(), PhError> {
        let msg = ClientMessage::from_wire(body)
            .map_err(|e| PhError::Durability(format!("logged record is malformed: {e}")))?;
        if !msg.is_mutation() {
            return Err(PhError::Durability(
                "logged record is not a mutation".into(),
            ));
        }
        let (dedup_entry, inner) = match msg {
            ClientMessage::Tagged {
                client_id,
                seq,
                inner,
            } => (Some((client_id, seq)), *inner),
            other => (None, other),
        };
        if let Some((client_id, seq)) = dedup_entry {
            // A server logs each envelope at most once, and the log
            // replays in order — a non-fresh decision here means this
            // window disagrees with the log, i.e. divergence, not a
            // client retry.
            if !matches!(
                self.store.dedup().begin(client_id, seq),
                DedupDecision::Fresh
            ) {
                return Err(PhError::Durability(format!(
                    "logged envelope ({client_id}, {seq}) is not fresh: \
                     the dedup window diverged from the log"
                )));
            }
        }
        let response = self.dispatch(inner);
        let applied = !matches!(response, ServerResponse::Error(_));
        if let Some((client_id, seq)) = dedup_entry {
            self.store
                .dedup()
                .complete(client_id, seq, response.to_wire(), applied);
        }
        if applied {
            Ok(())
        } else {
            let rendered = match response {
                ServerResponse::Error(e) => e,
                _ => unreachable!("applied is false only for Error"),
            };
            Err(PhError::Durability(format!(
                "logged mutation diverged on apply: {rendered}"
            )))
        }
    }

    /// Worker threads in this server's scan pool.
    #[must_use]
    pub fn pool_workers(&self) -> usize {
        self.store.pool().workers()
    }

    /// The server's transcript recorder.
    #[must_use]
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// The server's metrics registry — shared by every clone and by
    /// the layers (log, front-end, replica) serving this server.
    /// Tests and benches flip collection with
    /// [`Telemetry::set_enabled`]; operators pull it with
    /// [`ClientMessage::Stats`].
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Samples the full stats plane into one versioned snapshot: the
    /// registry's counters and histograms, the durable log's sampled
    /// health (sync count, poison flag, replication lag and degrade
    /// count), the table count (`tables`), the scan pool's executor
    /// stats, the store's SWP check count (`scan_checks`), its
    /// copy-on-write byte count (`store_cow_bytes`) and the
    /// [`SIZE_GAUGES`] of its growable state. It is the server's one
    /// health probe. Pure read — no `ServerEvent`s.
    #[must_use]
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let mut metrics = self.telemetry.snapshot_metrics();
        let mut c = |name: &str, v: u64| metrics.push((name.to_string(), MetricValue::Counter(v)));
        match &self.durable {
            Some(log) => {
                c("log_syncs", log.sync_count());
                c("log_poisoned", u64::from(log.is_poisoned()));
                c("repl_lag_bytes", log.replication_lag());
                c("repl_semi_sync_degraded", log.semi_sync_degraded());
            }
            None => {
                c("log_syncs", 0);
                c("log_poisoned", 0);
                c("repl_lag_bytes", 0);
                c("repl_semi_sync_degraded", 0);
            }
        }
        metrics.push((
            "tables".to_string(),
            MetricValue::Gauge(self.store.table_names().len() as u64),
        ));
        let pool = self.store.pool();
        metrics.push((
            "exec_workers".to_string(),
            MetricValue::Gauge(pool.workers() as u64),
        ));
        let stats = pool.stats();
        metrics.push((
            "exec_tasks".to_string(),
            MetricValue::Counter(stats.tasks.get()),
        ));
        metrics.push((
            "exec_caller_tasks".to_string(),
            MetricValue::Counter(stats.caller_tasks.get()),
        ));
        metrics.push((
            "exec_busy_nanos".to_string(),
            MetricValue::Counter(stats.busy_nanos.get()),
        ));
        metrics.push((
            "exec_queue_depth".to_string(),
            MetricValue::Gauge(stats.queue_depth.get()),
        ));
        metrics.push((
            "exec_queue_high_water".to_string(),
            MetricValue::Gauge(stats.queue_high_water.get()),
        ));
        metrics.push((
            "exec_task_nanos".to_string(),
            MetricValue::Histogram(stats.task_nanos.snapshot()),
        ));
        metrics.push((
            "scan_checks".to_string(),
            MetricValue::Counter(self.store.scan_checks()),
        ));
        metrics.push((
            "store_cow_bytes".to_string(),
            MetricValue::Counter(self.store.cow_bytes()),
        ));
        let (dedup_clients, dedup_entries) = self.store.dedup().sizes();
        let (index_postings, index_posting_ids) = self.store.index_sizes();
        let sizes = [
            self.observer.len(),
            dedup_clients,
            dedup_entries,
            index_postings,
            index_posting_ids,
        ];
        for (name, size) in SIZE_GAUGES.into_iter().zip(sizes) {
            metrics.push((name.to_string(), MetricValue::Gauge(size as u64)));
        }
        StatsSnapshot {
            version: STATS_VERSION,
            metrics,
        }
    }

    /// Turns the encrypted index on, as [`ServerConfig::index`] does.
    /// Kept only for the frozen `e2ebench/` until it moves onto
    /// [`Server::open`] (ROADMAP item 1).
    pub fn enable_index(&self) {
        self.store.enable_index();
    }

    /// Whether the encrypted index is enabled.
    #[must_use]
    pub fn index_enabled(&self) -> bool {
        self.store.index_enabled()
    }

    /// The at-rest encrypted-multimap image for `name` — Eve reading
    /// her own memory (see [`crate::storage::TableStore::index_at_rest`]);
    /// the games crate measures its leakage.
    #[must_use]
    pub fn index_at_rest(&self, name: &str) -> Vec<(crate::index::PostingKey, Vec<u64>)> {
        self.store.index_at_rest(name)
    }

    /// Handles one serialized client message, returning the serialized
    /// response. This is the server's entire interface.
    ///
    /// On a durable server, a mutation is applied and logged under the
    /// log's writer lock (so the record order on disk is exactly the
    /// apply order) and fsync'd before the response is produced; reads
    /// and queries never touch the log. A durability write failure
    /// surfaces as an error response and fails the log closed — an
    /// acknowledgement must imply persistence.
    ///
    /// A [`ClientMessage::Tagged`] mutation additionally passes through
    /// the store's [`crate::storage::DedupWindow`]: a repeated request
    /// id replays the original encoded response without re-applying
    /// (exactly-once under client retries), and the log records the
    /// envelope bytes verbatim so recovery rebuilds the window along
    /// with the tables.
    #[must_use]
    pub fn handle(&self, message_bytes: &[u8]) -> Vec<u8> {
        // One Instant pair per request, and only when telemetry is
        // collecting — the sole hot-path cost of the request-latency
        // histograms.
        let started = self.telemetry.on().then(std::time::Instant::now);
        let response = match ClientMessage::from_wire(message_bytes) {
            Ok(ClientMessage::Tagged {
                client_id,
                seq,
                inner,
            }) => self.handle_tagged(message_bytes, client_id, seq, *inner),
            Ok(msg) => self.apply(message_bytes, msg, None).to_wire(),
            Err(e) => ServerResponse::Error(format!("malformed message: {e}")).to_wire(),
        };
        if let Some(t0) = started {
            let kind = message_bytes.first().copied().unwrap_or(0);
            self.telemetry
                .request_latency(kind)
                .record_duration(t0.elapsed());
        }
        response
    }

    /// Dispatches `msg`, routing mutations through the durable log when
    /// one is attached. `raw` is the frame exactly as received — the
    /// bytes the log records; for a tagged mutation they include the
    /// envelope, which is how recovery rebuilds the dedup window, and
    /// `envelope` is its `(client_id, seq)`, marked logged in the
    /// window as soon as the mutation applies so a compaction cut
    /// before its response persists the id.
    fn apply(
        &self,
        raw: &[u8],
        msg: ClientMessage,
        envelope: Option<(u64, u64)>,
    ) -> ServerResponse {
        match &self.durable {
            Some(log) if msg.is_mutation() => {
                let logged = log.log_mutation(raw, &self.store, || {
                    let response = self.dispatch(msg);
                    let applied = !matches!(response, ServerResponse::Error(_));
                    if let (true, Some((client_id, seq))) = (applied, envelope) {
                        self.store.dedup().mark_logged(client_id, seq);
                    }
                    (response, applied)
                });
                logged.unwrap_or_else(|e| ServerResponse::Error(e.to_string()))
            }
            _ => self.dispatch(msg),
        }
    }

    /// The exactly-once path for an enveloped message. Non-mutations
    /// dispatch statelessly (read replay is harmless, so they carry no
    /// dedup entry); mutations consult the window first and only a
    /// fresh id reaches [`Server::apply`].
    fn handle_tagged(&self, raw: &[u8], client_id: u64, seq: u64, inner: ClientMessage) -> Vec<u8> {
        if !inner.is_mutation() {
            return self.apply(raw, inner, None).to_wire();
        }
        let decision = self.store.dedup().begin(client_id, seq);
        if self.telemetry.on() {
            match &decision {
                DedupDecision::Replay(_) => self.telemetry.dedup_replays.inc(),
                DedupDecision::Stale => self.telemetry.dedup_stale.inc(),
                DedupDecision::Fresh => self.telemetry.dedup_fresh.inc(),
            }
        }
        match decision {
            DedupDecision::Replay(response) => response,
            DedupDecision::Stale => ServerResponse::Error(format!(
                "{}: request ({client_id}, {seq}) is below the dedup \
                 watermark and its cached response was evicted",
                crate::protocol::STALE_DUPLICATE_PREFIX
            ))
            .to_wire(),
            DedupDecision::Fresh => {
                let response = self.apply(raw, inner, Some((client_id, seq)));
                let applied = !matches!(response, ServerResponse::Error(_));
                let encoded = response.to_wire();
                self.store
                    .dedup()
                    .complete(client_id, seq, encoded.clone(), applied);
                encoded
            }
        }
    }

    /// `ψ` for a list of queries against table `name` — the one query
    /// path: a [`ClientMessage::Query`] is a list of one with `batch`
    /// `None`, a [`ClientMessage::QueryBatch`] carries its batch id.
    /// The store picks the plan once, under one table snapshot
    /// ([`TableStore::query_batch`]); both plans return byte-identical
    /// tables. Events are recorded strictly in query order *after* the
    /// answers are in — each query's `IndexProbe`s (index plan only),
    /// then its `Query` — so the transcript is the sequential engine's
    /// whichever worker finished which task first.
    fn run_queries(
        &self,
        name: &str,
        queries: Vec<Vec<WireTrapdoor>>,
        batch: Option<u64>,
    ) -> Result<Vec<EncryptedTable>, PhError> {
        let answers = self.store.query_batch(name, &queries)?;
        let on = self.telemetry.on();
        let mut results = Vec::with_capacity(answers.len());
        for (index, (terms, (result, probes))) in queries.into_iter().zip(answers).enumerate() {
            let batch = batch.map(|id| (id, index));
            if on {
                match probes {
                    Some(_) => self.telemetry.plan_probe_queries.inc(),
                    None => self.telemetry.plan_scan_queries.inc(),
                }
            }
            for probe in probes.into_iter().flatten() {
                if on {
                    match probe.cached {
                        Some(_) => self.telemetry.index_probe_hits.inc(),
                        None => self.telemetry.index_probe_misses.inc(),
                    }
                    self.telemetry.index_delta_len.record(probe.checked);
                    self.telemetry
                        .index_posting_len
                        .record(probe.posting as u64);
                }
                self.observer.record(|| ServerEvent::IndexProbe {
                    name: name.to_string(),
                    label: probe.key.1.to_vec(),
                    cached: probe.cached,
                    delta_from: probe.delta_from,
                    posting: probe.posting,
                    batch,
                });
            }
            self.observer.record(|| ServerEvent::Query {
                name: name.to_string(),
                terms,
                matched_doc_ids: result.doc_ids(),
                batch,
            });
            results.push(result);
        }
        Ok(results)
    }

    fn dispatch(&self, msg: ClientMessage) -> ServerResponse {
        match msg {
            ClientMessage::CreateTable { name, table } => {
                let (tuples, bytes) = (table.docs.len(), table.docs.ciphertext_bytes());
                match self.store.create(&name, table) {
                    Ok(()) => {
                        self.observer.record(|| ServerEvent::Upload {
                            name,
                            tuples,
                            bytes,
                        });
                        ServerResponse::Ok
                    }
                    Err(e) => ServerResponse::Error(e.to_string()),
                }
            }
            ClientMessage::Query { name, terms } => {
                match self.run_queries(&name, vec![terms], None) {
                    Ok(mut results) => {
                        ServerResponse::Table(results.pop().expect("one query, one table"))
                    }
                    Err(e) => ServerResponse::Error(e.to_string()),
                }
            }
            ClientMessage::QueryBatch { name, queries } => {
                let batch_id = self.next_batch.fetch_add(1, Ordering::Relaxed);
                match self.run_queries(&name, queries, Some(batch_id)) {
                    Ok(results) => ServerResponse::Tables(results),
                    // Failures (today: unknown table, even for an
                    // empty batch) are batch-wide — no per-query index
                    // to report.
                    Err(e) => ServerResponse::Error(format!("query batch: {e}")),
                }
            }
            ClientMessage::FetchAll { name } => match self.store.fetch_all(&name) {
                Ok(table) => {
                    self.observer.record(|| ServerEvent::FetchAll { name });
                    ServerResponse::Table(table)
                }
                Err(e) => ServerResponse::Error(e.to_string()),
            },
            ClientMessage::FetchChunk {
                name,
                token,
                max_bytes,
            } => {
                // Clamp the budget defensively (a chunk response must
                // stay frameable) but record the request verbatim —
                // the clamp is Eve's own policy, not part of what Alex
                // sent.
                let budget = max_bytes.clamp(1, MAX_CHUNK_BYTES);
                match self.store.fetch_chunk(&name, token, budget) {
                    Ok((table, next)) => {
                        self.observer.record(|| ServerEvent::FetchChunk {
                            name,
                            token,
                            max_bytes,
                            returned: table.len(),
                            next,
                        });
                        ServerResponse::TableChunk { table, next }
                    }
                    Err(e) => ServerResponse::Error(e.to_string()),
                }
            }
            ClientMessage::Append {
                name,
                doc_id,
                words,
            } => match self.store.append_batch(&name, vec![(doc_id, words)]) {
                Ok(()) => {
                    self.observer.record(|| ServerEvent::Append {
                        name,
                        doc_id,
                        batch: None,
                    });
                    ServerResponse::Ok
                }
                Err(e) => ServerResponse::Error(e.to_string()),
            },
            ClientMessage::AppendBatch { name, docs } => {
                let batch_id = self.next_batch.fetch_add(1, Ordering::Relaxed);
                let doc_ids: Vec<u64> = if self.observer.is_recording() {
                    docs.iter().map(|(id, _)| *id).collect()
                } else {
                    Vec::new()
                };
                match self.store.append_batch(&name, docs) {
                    Ok(()) => {
                        // The batch is atomic, so exactly these docs
                        // were stored: one Append event each.
                        for (index, doc_id) in doc_ids.into_iter().enumerate() {
                            self.observer.record(|| ServerEvent::Append {
                                name: name.clone(),
                                doc_id,
                                batch: Some((batch_id, index)),
                            });
                        }
                        ServerResponse::Ok
                    }
                    Err(e) => ServerResponse::Error(e.to_string()),
                }
            }
            ClientMessage::DropTable { name } => match self.store.drop_table(&name) {
                Ok(()) => {
                    self.observer.record(|| ServerEvent::Drop { name });
                    ServerResponse::Ok
                }
                Err(e) => ServerResponse::Error(e.to_string()),
            },
            ClientMessage::DeleteDocs { name, doc_ids } => {
                match self.store.delete_docs(&name, &doc_ids) {
                    Ok(removed) => {
                        self.observer.record(|| ServerEvent::DeleteDocs {
                            name,
                            doc_ids,
                            removed,
                        });
                        ServerResponse::Ok
                    }
                    Err(e) => ServerResponse::Error(e.to_string()),
                }
            }
            // Operational plumbing, not a data operation: the answer
            // is Eve's own counters about her own machine (log health,
            // table count, follower lag), so it records no transcript
            // event (see `crate::telemetry` for the leakage argument).
            ClientMessage::Stats => ServerResponse::StatsSnapshot(self.stats_snapshot()),
            // Log shipping: returns bytes Eve already wrote to her own
            // disk, verbatim, to a second Eve. No transcript event —
            // the shipped records are exactly the client messages this
            // server's transcript already contains, so replication
            // adds no leakage beyond "a follower exists and is this
            // far behind" (see `crate::replica` for the argument).
            ClientMessage::ReplPull {
                follower,
                after_offset,
                wait,
            } => match &self.durable {
                Some(log) => match log.repl_read(follower, after_offset, wait) {
                    Ok((records, next_offset)) => ServerResponse::ReplRecords {
                        records,
                        next_offset,
                    },
                    Err(e) => ServerResponse::Error(e.to_string()),
                },
                None => ServerResponse::Error("replication requires a durable server".into()),
            },
            // `handle` unwraps the envelope before dispatch; reaching
            // here means a direct caller passed one through. The
            // envelope is transport metadata — dispatch the inner
            // message (one level only: decode rejects nesting).
            ClientMessage::Tagged { inner, .. } => self.dispatch(*inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swp_ph::execute_query;
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

    /// An in-memory server that records its transcript.
    fn recording() -> Server {
        Server::open(
            &ServerConfig {
                transcript: true,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap()
    }

    fn send(server: &Server, msg: ClientMessage) -> ServerResponse {
        ServerResponse::from_wire(&server.handle(&msg.to_wire())).unwrap()
    }

    #[test]
    fn create_fetch_drop() {
        let s = Server::open(&ServerConfig::default(), None).unwrap();
        assert_eq!(
            send(
                &s,
                ClientMessage::CreateTable {
                    name: "t".into(),
                    table: table(3).into()
                }
            ),
            ServerResponse::Ok
        );
        match send(&s, ClientMessage::FetchAll { name: "t".into() }) {
            ServerResponse::Table(t) => assert_eq!(t.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            send(&s, ClientMessage::DropTable { name: "t".into() }),
            ServerResponse::Ok
        );
        assert!(matches!(
            send(&s, ClientMessage::FetchAll { name: "t".into() }),
            ServerResponse::Error(_)
        ));
    }

    #[test]
    fn duplicate_create_rejected() {
        let s = Server::open(&ServerConfig::default(), None).unwrap();
        send(
            &s,
            ClientMessage::CreateTable {
                name: "t".into(),
                table: table(1).into(),
            },
        );
        assert!(matches!(
            send(
                &s,
                ClientMessage::CreateTable {
                    name: "t".into(),
                    table: table(1).into()
                }
            ),
            ServerResponse::Error(_)
        ));
    }

    #[test]
    fn append_enforces_fresh_ids() {
        let s = Server::open(&ServerConfig::default(), None).unwrap();
        send(
            &s,
            ClientMessage::CreateTable {
                name: "t".into(),
                table: table(2).into(),
            },
        );
        assert_eq!(
            send(
                &s,
                ClientMessage::Append {
                    name: "t".into(),
                    doc_id: 2,
                    words: vec![CipherWord(vec![9; 13])]
                }
            ),
            ServerResponse::Ok
        );
        assert!(matches!(
            send(
                &s,
                ClientMessage::Append {
                    name: "t".into(),
                    doc_id: 1,
                    words: vec![CipherWord(vec![9; 13])]
                }
            ),
            ServerResponse::Error(_)
        ));
    }

    #[test]
    fn malformed_bytes_produce_error_response() {
        let s = Server::open(&ServerConfig::default(), None).unwrap();
        let resp = ServerResponse::from_wire(&s.handle(&[0xFF, 0x00])).unwrap();
        assert!(matches!(resp, ServerResponse::Error(_)));
    }

    #[test]
    fn observer_records_uploads_and_queries() {
        let s = recording();
        send(
            &s,
            ClientMessage::CreateTable {
                name: "t".into(),
                table: table(2).into(),
            },
        );
        send(
            &s,
            ClientMessage::Query {
                name: "t".into(),
                terms: vec![WireTrapdoor {
                    attr: 0,
                    target: vec![0; 13],
                    check_key: vec![0; 32],
                }],
            },
        );
        let events = s.observer().events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], ServerEvent::Upload { tuples: 2, .. }));
        assert!(matches!(events[1], ServerEvent::Query { batch: None, .. }));
        assert_eq!(s.observer().queries().len(), 1);
        s.observer().clear();
        assert!(s.observer().events().is_empty());
    }

    #[test]
    fn a_server_not_recording_builds_no_event_and_answers_alike() {
        // The observer calls its event closure only when recording.
        let built = std::cell::Cell::new(0);
        let event = || {
            built.set(built.get() + 1);
            ServerEvent::Drop { name: "t".into() }
        };
        let off = Observer::default();
        off.record(event);
        assert_eq!(built.get(), 0, "a non-recording observer built an event");
        assert!(off.is_empty() && off.events().is_empty() && off.queries().is_empty());
        let on = Observer::new(true);
        on.record(event);
        assert_eq!((built.get(), on.len()), (1, 1));

        // Same session, recording on and off: identical responses, and
        // only the recording server's transcript and gauge move.
        let quiet = Server::open(&ServerConfig::default(), None).unwrap();
        let loud = recording();
        let session = [
            ClientMessage::CreateTable {
                name: "t".into(),
                table: table(3).into(),
            },
            ClientMessage::AppendBatch {
                name: "t".into(),
                docs: vec![(3, vec![CipherWord(vec![9; 13])])],
            },
            ClientMessage::Query {
                name: "t".into(),
                terms: vec![],
            },
            ClientMessage::DeleteDocs {
                name: "t".into(),
                doc_ids: vec![0],
            },
        ];
        for msg in session {
            let bytes = msg.to_wire();
            assert_eq!(quiet.handle(&bytes), loud.handle(&bytes));
        }
        assert!(!quiet.observer().is_recording() && quiet.observer().events().is_empty());
        assert_eq!(loud.observer().len(), 4);
        let gauge = |s: &Server| s.stats_snapshot().scalar("transcript_events");
        assert_eq!((gauge(&quiet), gauge(&loud)), (Some(0), Some(4)));
    }

    #[test]
    fn query_on_unknown_table_errors() {
        let s = Server::open(&ServerConfig::default(), None).unwrap();
        assert!(matches!(
            send(
                &s,
                ClientMessage::Query {
                    name: "none".into(),
                    terms: vec![]
                }
            ),
            ServerResponse::Error(_)
        ));
    }

    #[test]
    fn query_batch_returns_one_table_per_query_and_tags_events() {
        let s = recording();
        send(
            &s,
            ClientMessage::CreateTable {
                name: "t".into(),
                table: table(4).into(),
            },
        );
        let all = || vec![]; // empty conjunction: matches every doc
        match send(
            &s,
            ClientMessage::QueryBatch {
                name: "t".into(),
                queries: vec![all(), all(), all()],
            },
        ) {
            ServerResponse::Tables(results) => {
                assert_eq!(results.len(), 3);
                for r in &results {
                    assert_eq!(r.doc_ids(), vec![0, 1, 2, 3]);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        let batches: Vec<Option<BatchRef>> = s
            .observer()
            .events()
            .iter()
            .filter_map(|e| match e {
                ServerEvent::Query { batch, .. } => Some(*batch),
                _ => None,
            })
            .collect();
        assert_eq!(batches, vec![Some((0, 0)), Some((0, 1)), Some((0, 2))]);
        // A second batch gets a fresh id.
        send(
            &s,
            ClientMessage::QueryBatch {
                name: "t".into(),
                queries: vec![all()],
            },
        );
        assert!(matches!(
            s.observer().events().last(),
            Some(ServerEvent::Query {
                batch: Some((1, 0)),
                ..
            })
        ));
    }

    #[test]
    fn index_plan_records_each_querys_probes_before_its_query() {
        let s = Server::open(
            &ServerConfig {
                index: true,
                transcript: true,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        send(
            &s,
            ClientMessage::CreateTable {
                name: "t".into(),
                table: table(4).into(),
            },
        );
        // A one-byte term never matches, so a conjunction stops
        // probing after it.
        let never = |b: u8| WireTrapdoor {
            attr: 0,
            target: vec![b],
            check_key: Vec::new(),
        };
        send(
            &s,
            ClientMessage::QueryBatch {
                name: "t".into(),
                queries: vec![vec![never(1), never(2)], vec![], vec![never(1)]],
            },
        );
        send(
            &s,
            ClientMessage::Query {
                name: "t".into(),
                terms: vec![never(1)],
            },
        );
        let shape: Vec<(&str, Option<usize>, Option<BatchRef>)> = s
            .observer()
            .events()
            .iter()
            .filter_map(|e| match e {
                ServerEvent::IndexProbe { cached, batch, .. } => Some(("probe", *cached, *batch)),
                ServerEvent::Query { batch, .. } => Some(("query", None, *batch)),
                _ => None,
            })
            .collect();
        assert_eq!(
            shape,
            vec![
                ("probe", None, Some((0, 0))),
                ("query", None, Some((0, 0))),
                ("query", None, Some((0, 1))),
                ("probe", Some(0), Some((0, 2))),
                ("query", None, Some((0, 2))),
                ("probe", Some(0), None),
                ("query", None, None),
            ]
        );
    }

    #[test]
    fn index_delta_len_records_the_documents_each_probe_checked() {
        let s = Server::open(
            &ServerConfig {
                workers: Some(2),
                index: true,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        send(
            &s,
            ClientMessage::CreateTable {
                name: "t".into(),
                table: table(600).into(),
            },
        );
        // A one-byte term matches nothing, so its posting stays empty
        // while every probe still checks its whole delta.
        let probe = || {
            send(
                &s,
                ClientMessage::Query {
                    name: "t".into(),
                    terms: vec![WireTrapdoor {
                        attr: 0,
                        target: vec![1],
                        check_key: Vec::new(),
                    }],
                },
            )
        };
        let delta_len = || s.telemetry().index_delta_len.snapshot();
        let exec = || {
            let stats = s.stats_snapshot();
            let tasks = stats.scalar("exec_tasks").unwrap();
            (tasks, stats.scalar("exec_caller_tasks").unwrap())
        };

        // Cold: the whole table, one pool task per shard, both counted
        // in the stats plane.
        probe();
        let cold = delta_len();
        assert_eq!((cold.count, cold.sum), (1, 600));
        let (tasks, caller_tasks) = exec();
        assert_eq!(
            tasks,
            600u64.div_ceil(crate::storage::SHARD_DOCS as u64),
            "one task per shard suffix"
        );
        assert!(caller_tasks <= tasks);

        // 40 appended rows: the re-probe checks exactly those, inline.
        let docs = (600..640)
            .map(|id| (id, vec![CipherWord(vec![id as u8; 13])]))
            .collect();
        send(
            &s,
            ClientMessage::AppendBatch {
                name: "t".into(),
                docs,
            },
        );
        probe();
        let warm = delta_len();
        assert_eq!((warm.count, warm.sum - cold.sum), (2, 40));
        assert_eq!(exec().0, tasks, "a short delta never reaches the pool");

        // Nothing appended: the probe checks nothing.
        probe();
        assert_eq!((delta_len().count, delta_len().sum), (3, 640));
        assert_eq!(s.store.scan_checks(), 640);
    }

    #[test]
    fn query_batch_on_unknown_table_errors() {
        let s = Server::open(&ServerConfig::default(), None).unwrap();
        assert!(matches!(
            send(
                &s,
                ClientMessage::QueryBatch {
                    name: "none".into(),
                    queries: vec![vec![]]
                }
            ),
            ServerResponse::Error(_)
        ));
    }

    #[test]
    fn append_batch_is_atomic_and_emits_one_event_per_doc() {
        let s = recording();
        send(
            &s,
            ClientMessage::CreateTable {
                name: "t".into(),
                table: table(2).into(),
            },
        );
        let word = || vec![CipherWord(vec![9; 13])];
        assert_eq!(
            send(
                &s,
                ClientMessage::AppendBatch {
                    name: "t".into(),
                    docs: vec![(2, word()), (3, word()), (4, word())],
                }
            ),
            ServerResponse::Ok
        );
        let appended: Vec<(u64, Option<BatchRef>)> = s
            .observer()
            .events()
            .iter()
            .filter_map(|e| match e {
                ServerEvent::Append { doc_id, batch, .. } => Some((*doc_id, *batch)),
                _ => None,
            })
            .collect();
        assert_eq!(
            appended,
            vec![(2, Some((0, 0))), (3, Some((0, 1))), (4, Some((0, 2)))]
        );

        // A stale id anywhere rejects the whole batch with no events.
        let before = s.observer().events().len();
        assert!(matches!(
            send(
                &s,
                ClientMessage::AppendBatch {
                    name: "t".into(),
                    docs: vec![(5, word()), (4, word())],
                }
            ),
            ServerResponse::Error(_)
        ));
        assert_eq!(s.observer().events().len(), before);
        match send(&s, ClientMessage::FetchAll { name: "t".into() }) {
            ServerResponse::Table(t) => assert_eq!(t.doc_ids(), vec![0, 1, 2, 3, 4]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delete_docs_records_each_removed_id_once() {
        let s = recording();
        send(
            &s,
            ClientMessage::CreateTable {
                name: "t".into(),
                table: table(4).into(),
            },
        );
        assert_eq!(
            send(
                &s,
                ClientMessage::DeleteDocs {
                    name: "t".into(),
                    // Duplicates and a missing id: the transcript keeps
                    // the wire message verbatim, while `removed` lists
                    // each actually-removed id exactly once.
                    doc_ids: vec![2, 2, 0, 99],
                }
            ),
            ServerResponse::Ok
        );
        assert!(matches!(
            s.observer().events().last(),
            Some(ServerEvent::DeleteDocs { doc_ids, removed, .. })
                if *doc_ids == vec![2, 2, 0, 99] && *removed == vec![0, 2]
        ));
    }

    #[test]
    fn fetch_chunk_pages_the_table_and_records_events() {
        let s = recording();
        send(
            &s,
            ClientMessage::CreateTable {
                name: "t".into(),
                table: table(10).into(),
            },
        );
        // Page with a budget that forces several chunks; the union
        // must equal the monolithic fetch, and each page must record
        // one FetchChunk event carrying the request verbatim.
        let whole = match send(&s, ClientMessage::FetchAll { name: "t".into() }) {
            ServerResponse::Table(t) => t,
            other => panic!("unexpected {other:?}"),
        };
        let mut docs = Vec::new();
        let mut token = 0u64;
        let mut pages = 0usize;
        loop {
            match send(
                &s,
                ClientMessage::FetchChunk {
                    name: "t".into(),
                    token,
                    max_bytes: 64,
                },
            ) {
                ServerResponse::TableChunk { table, next } => {
                    assert_eq!(table.params, whole.params);
                    assert_eq!(table.next_doc_id, whole.next_doc_id);
                    docs.extend(table.docs);
                    pages += 1;
                    match next {
                        Some(n) => token = n,
                        None => break,
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(pages > 1, "budget must force multiple chunks");
        assert_eq!(docs, whole.docs);
        let chunk_events: Vec<(u64, usize, Option<u64>)> = s
            .observer()
            .events()
            .iter()
            .filter_map(|e| match e {
                ServerEvent::FetchChunk {
                    name,
                    token,
                    max_bytes,
                    returned,
                    next,
                } => {
                    assert_eq!(name, "t");
                    assert_eq!(*max_bytes, 64);
                    Some((*token, *returned, *next))
                }
                _ => None,
            })
            .collect();
        assert_eq!(chunk_events.len(), pages);
        assert_eq!(chunk_events.last().unwrap().2, None);
        // A zero budget is clamped, not an infinite loop: every chunk
        // still carries at least one document.
        match send(
            &s,
            ClientMessage::FetchChunk {
                name: "t".into(),
                token: 0,
                max_bytes: 0,
            },
        ) {
            ServerResponse::TableChunk { table, next } => {
                assert_eq!(table.len(), 1);
                assert_eq!(next, Some(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            send(
                &s,
                ClientMessage::FetchChunk {
                    name: "nope".into(),
                    token: 0,
                    max_bytes: 64
                }
            ),
            ServerResponse::Error(_)
        ));
    }

    #[test]
    fn sharded_server_matches_seed_scan() {
        // The sharded execution path must return exactly what the seed
        // reference `execute_query` returns, on either side of every
        // shard edge.
        let c = crate::storage::SHARD_DOCS;
        let terms = vec![WireTrapdoor {
            attr: 0,
            target: vec![3; 13],
            check_key: vec![0; 32],
        }];
        for (rows, workers) in [(100, 1), (c, 2), (c + 1, 2), (2 * c + 7, 2)] {
            let t = table(rows);
            let reference = execute_query(&t, &terms);
            let s = Server::open(
                &ServerConfig {
                    workers: Some(workers),
                    ..ServerConfig::default()
                },
                None,
            )
            .unwrap();
            send(
                &s,
                ClientMessage::CreateTable {
                    name: "t".into(),
                    table: t.clone().into(),
                },
            );
            match send(
                &s,
                ClientMessage::Query {
                    name: "t".into(),
                    terms: terms.clone(),
                },
            ) {
                ServerResponse::Table(result) => {
                    assert_eq!(result, reference, "{rows} rows diverged from seed scan");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
