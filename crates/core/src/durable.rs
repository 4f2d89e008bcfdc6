//! Durable segment-log persistence for the server's [`TableStore`].
//!
//! Until now Eve forgot every ciphertext on restart — but the paper's
//! model outsources the *database*: the provider durably holds Alex's
//! data, and a process crash at the provider must not erase it. This
//! module gives the server that property with the classic write-ahead
//! discipline, adapted to a store whose state is pure ciphertext:
//!
//! * **Append-only segment log.** Every applied mutation
//!   (create/append/delete/drop — and rekey, which the protocol
//!   expresses as drop + create + appends) is written to the *active*
//!   segment file as one length-prefixed, checksummed record and
//!   fsync'd before the response leaves the server. The record payload
//!   is the **raw client message**, verbatim: the log is byte-for-byte
//!   a prefix of the mutation transcript Eve records anyway, which is
//!   what makes the leakage argument below airtight. Replay decodes
//!   nothing itself: each record goes back through the server's own
//!   apply, so it does what the original apply did (every mutation is
//!   a deterministic function of store state).
//! * **Framing.** Records reuse the [`crate::codec`] discipline — a
//!   `u32`-LE length prefix and a defensive size cap — with an 8-byte
//!   truncated SHA-256 trailer over the body, so recovery can tell "a
//!   record ends exactly here" from "the machine died mid-write".
//! * **Manifest.** A checksummed `MANIFEST` file lists segment ids in
//!   replay order; all but the last are *sealed*, the last is active.
//!   The manifest is replaced atomically (temp file + rename + dir
//!   fsync), so every crash leaves a consistent segment list.
//! * **Compaction.** Once the active segment outgrows its threshold,
//!   the live store is rewritten as a *sealed snapshot segment*:
//!   bounded-size snapshot records per table, serialized straight from
//!   the columnar shard arenas (no boxed documents on the way out) —
//!   and on recovery loaded straight back into columnar shards by the
//!   wire codec's document-list decoder and [`ShardedTable::from_arena`]'s
//!   arena-to-arena cut (no boxed documents on the way in either).
//!   Logged `CreateTable` records take the same two steps, through
//!   the server's own apply. Compaction then swaps the manifest to
//!   `[snapshot, fresh active]` and deletes the old segments.
//! * **Recovery.** [`DurableLog::open`] walks manifest + segments in
//!   log order into a [`TableStore`]: snapshot chunks load columnar,
//!   the dedup and index images install where they sit in the log,
//!   and every mutation record goes to a callback — the server's
//!   `apply_logged`, the same function a follower's tailer applies
//!   shipped records with — so a drop or re-create takes a table's
//!   postings with it and a delete purges them, exactly as live.
//!   A torn tail record in the **active** segment — the expected shape
//!   of a crash mid-write or mid-fsync — is truncated away, never a
//!   panic and never a partial apply (a record replays only if its
//!   length, bytes, and checksum all land). Corruption in a *sealed*
//!   segment is unrecoverable data loss and reported as an error.
//!
//! **Leakage argument.** The disk image is a server-internal artifact
//! composed of exactly (a) the mutation messages Eve received, in the
//! order she applied them, and (b) ciphertext bytes she already holds
//! in memory, re-serialized. Eve *is* the server: persisting her own
//! view to her own disk gives her nothing she did not have, and the
//! adversary-visible transcript is recorded below this layer — the
//! byte-equality suites in `tests/durability.rs` pin responses *and*
//! [`crate::server::Observer`] transcripts identical with durability
//! on and off, across table sizes, pool sizes, and transports.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dbph_crypto::sha256::Sha256;
use dbph_swp::SwpParams;

use crate::arena::WordArena;
use crate::codec;
use crate::error::PhError;
use crate::index::Posting;
use crate::storage::{ShardedTable, TableStore};
use crate::swp_ph::ColumnarTable;
use crate::telemetry::Telemetry;
use crate::wire::{
    decode_docs_into, encode_arena_doc, seal, unseal, Reader, WireDecode, WireEncode,
};

/// Manifest file name inside the data directory.
const MANIFEST: &str = "MANIFEST";
/// Scratch name for the atomic manifest replace.
const MANIFEST_TMP: &str = "MANIFEST.tmp";
/// Advisory-lock file guarding the directory against a second live
/// owner.
const LOCK: &str = "LOCK";
/// Manifest magic bytes.
const MANIFEST_MAGIC: &[u8; 8] = b"dbphman1";
/// Manifest format version.
const MANIFEST_VERSION: u16 = 1;

/// Bytes of the truncated-SHA-256 record trailer.
const CHECKSUM_LEN: usize = 8;
/// Defensive cap on one record's framed payload. Mutation records are
/// single protocol messages (transport-capped far below this) and
/// snapshot records are chunked by construction; a length prefix
/// beyond the cap is corruption, treated like any torn tail.
pub(crate) const MAX_RECORD: usize = 256 << 20;

/// Budget for one replication pull's record chunk (4 MiB): well under
/// the transport frame cap so a pull's reply always frames, while a
/// catching-up follower still moves whole snapshot chunks per
/// round-trip.
pub(crate) const REPL_CHUNK_BYTES: u64 = 4 << 20;

/// How long a caught-up follower pull parks server-side waiting for
/// the next record before answering empty ([`DurableLog::repl_read`]'s
/// long poll). Bounded so an idle replication link still exchanges a
/// liveness round-trip at this cadence and a parked pull never pins
/// its serving thread for long.
pub(crate) const REPL_POLL_WAIT: Duration = Duration::from_millis(10);

/// Record tag: the body is one raw client mutation message.
pub(crate) const TAG_MUTATION: u8 = 0;
/// Record tag: the body is one compaction snapshot chunk.
const TAG_SNAPSHOT: u8 = 1;
/// Record tag: the body is the dedup-window image at a compaction
/// cut — per client `(id, watermark, applied seqs)`. Without it,
/// compaction (which discards the raw mutation records the window is
/// otherwise rebuilt from) would forget which request ids were
/// already applied, and a retry after compact + restart could
/// double-apply.
const TAG_DEDUP: u8 = 2;
/// Record tag: the body is the encrypted-index image at a compaction
/// cut — per table, `((attr, label), (bound, posting ids))` entries
/// ([`crate::index`]). Written only when the index is enabled *and*
/// has postings, so a scan-only server's segments (and an indexed
/// server's before its first probe) stay byte-identical to the
/// pre-index format.
const TAG_INDEX: u8 = 3;

/// Tuning knobs for a [`DurableLog`].
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Active-segment size (bytes) beyond which the next mutation
    /// triggers compaction into a sealed snapshot segment.
    pub compact_threshold: u64,
    /// Target body size (bytes) of one snapshot record; tables larger
    /// than this are written as multiple chunked records so no single
    /// record approaches the framing cap.
    pub snapshot_chunk_bytes: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            compact_threshold: 64 << 20,
            snapshot_chunk_bytes: 8 << 20,
        }
    }
}

/// Wire shape of a persisted index image: per table, each posting as
/// `((attr, label bytes), (bound, doc ids))`.
pub(crate) type IndexImageWire = Vec<(String, Vec<((u8, Vec<u8>), (u64, Vec<u64>))>)>;

/// Mutable write-side state, guarded by [`DurableLog::writer`].
struct Writer {
    /// The active segment, shared with the commit barrier so a
    /// group-commit leader can fsync it without holding the writer
    /// lock (appends through `&File` and `sync_data` are independent
    /// syscalls on one fd).
    active: Arc<File>,
    active_id: u64,
    active_bytes: u64,
    /// Sealed segment ids, in replay order (before the active one).
    sealed: Vec<u64>,
    /// Byte length of each sealed segment, parallel to `sealed` — the
    /// replication cursor maps virtual stream offsets onto files with
    /// it, without re-statting on every pull.
    sealed_bytes: Vec<u64>,
}

impl Writer {
    /// `(segment id, record-prefix length)` in replay order: sealed
    /// segments, then the active one.
    fn segment_lens(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.sealed
            .iter()
            .copied()
            .zip(self.sealed_bytes.iter().copied())
            .chain(std::iter::once((self.active_id, self.active_bytes)))
    }

    /// Virtual offset of the replication stream's first byte: the first
    /// manifest segment's id `<< 40`. The replication cursor addresses
    /// the log as one append-only virtual byte stream. Only compaction
    /// changes the segment set, and it always starts the new set past
    /// the old active id, so the base rises strictly with each
    /// compaction, past every offset handed out before it (a
    /// generation's stream stays far below 1 TiB, and segment ids,
    /// two per compaction, below 2^24). Derived from the manifest, the
    /// base survives a restart: a reopened primary addresses the same
    /// bytes at the same offsets.
    fn stream_base(&self) -> u64 {
        self.sealed.first().copied().unwrap_or(self.active_id) << 40
    }
}

/// The group-commit barrier, guarded by [`DurableLog::commit`].
///
/// Records are numbered in append order (`appended`); `synced` is the
/// high-water mark of records made durable — by a shared `fdatasync`
/// or by a compaction's snapshot (whose manifest swap durably covers
/// everything applied so far). A waiter is acked exactly when
/// `synced >= its sequence`, so disk-order == apply-order == ack-order
/// and no mutation is ever acknowledged before the barrier that
/// persisted it.
struct CommitState {
    /// Records appended to the log so far (monotone).
    appended: u64,
    /// Records known durable (monotone, `<= appended`).
    synced: u64,
    /// Whether some thread is currently the sync leader.
    syncing: bool,
    /// The file the next shared fsync must hit — tracks the active
    /// segment across compaction swaps.
    file: Arc<File>,
}

/// The append-only segment log behind a durable
/// [`crate::server::Server`]. See the module docs for the format and
/// the crash-recovery contract.
pub struct DurableLog {
    dir: PathBuf,
    options: DurableOptions,
    writer: Mutex<Writer>,
    /// Group-commit barrier state; lock order is `writer` → `commit`
    /// when both are held (appends), `commit` alone otherwise
    /// (waiting / leading a sync).
    commit: Mutex<CommitState>,
    /// Wakes waiters when `synced` advances or the log poisons.
    commit_cv: Condvar,
    /// Set on the first write-side failure: a log that may have lost a
    /// record must stop acknowledging mutations (fail closed) rather
    /// than silently breaking the recovery guarantee.
    poisoned: AtomicBool,
    /// Total `fdatasync` calls issued (the group-commit tests and the
    /// bench read this to prove windows actually coalesce).
    syncs: AtomicU64,
    /// Fault injection: the next N syncs fail without reaching the
    /// disk (tests manufacture failing-fdatasync windows with it).
    sync_faults: AtomicU64,
    /// Semi-sync fast path: [`ReplicationOptions::min_acks`]. Zero
    /// (the default) keeps the mutation path free of any replication
    /// bookkeeping.
    repl_min_acks: AtomicU64,
    /// Per-follower acknowledged virtual offsets plus the semi-sync
    /// configuration; guarded last in the lock order (never held while
    /// taking `writer` or `commit`).
    repl: Mutex<ReplAcks>,
    /// Wakes semi-sync waiters when a follower's ack advances (or the
    /// log poisons).
    repl_cv: Condvar,
    /// Held (OS advisory lock on the `LOCK` file) for the log's whole
    /// lifetime: two processes appending to one active segment would
    /// interleave frame bytes and destroy the log, so a second open of
    /// the same directory must fail fast instead. Released by the OS
    /// when the file closes — a crashed owner never wedges the dir.
    _dir_lock: File,
    /// The owning server's metrics registry, handed over at open.
    /// Disabled, every hook is a no-op.
    telemetry: Arc<Telemetry>,
}

/// How many followers must confirm a mutation before the primary acks
/// it — the semi-sync replication contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationOptions {
    /// Followers that must have durably appended (fdatasync'd) a
    /// mutation's record before the primary acknowledges it. `0` (the
    /// default) is plain asynchronous replication: followers tail at
    /// their own pace and acks ride the local group-commit barrier
    /// alone.
    pub min_acks: usize,
    /// Upper bound on waiting for follower acks. A primary whose
    /// followers died would otherwise block mutations forever; past
    /// the timeout it *degrades to asynchronous* for that mutation
    /// (acking on local durability alone, like MySQL semi-sync) and
    /// counts the event in [`DurableLog::semi_sync_degraded`] so
    /// operators can see the guarantee lapsed.
    pub ack_timeout: std::time::Duration,
}

impl Default for ReplicationOptions {
    fn default() -> Self {
        ReplicationOptions {
            min_acks: 0,
            ack_timeout: std::time::Duration::from_secs(10),
        }
    }
}

/// Follower-ack state behind [`DurableLog::repl`].
struct ReplAcks {
    /// Highest virtual offset each follower has durably applied,
    /// keyed by its self-chosen id. A pull at offset `v` *is* the ack
    /// for every byte below `v`.
    acks: BTreeMap<u64, u64>,
    /// Companion to the atomic fast path; authoritative value.
    options: ReplicationOptions,
    /// Mutations acked after the semi-sync timeout expired (the
    /// guarantee degraded to async for them).
    degraded: u64,
}

/// What [`DurableLog::scrub`] verified.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Segments whose records all verified (sealed + active).
    pub segments: usize,
    /// Total records checksum-verified.
    pub records: u64,
    /// Total record-stream bytes verified.
    pub bytes: u64,
}

fn io_err(context: &str, e: &std::io::Error) -> PhError {
    PhError::Durability(format!("{context}: {e}"))
}

pub(crate) fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.log"))
}

fn checksum(body: &[u8]) -> [u8; CHECKSUM_LEN] {
    let digest = Sha256::digest(body);
    let mut out = [0u8; CHECKSUM_LEN];
    out.copy_from_slice(&digest[..CHECKSUM_LEN]);
    out
}

/// Opens the directory itself and fsyncs it, making freshly created /
/// renamed / removed directory entries durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), PhError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("fsync data dir", &e))
}

pub(crate) fn write_manifest(dir: &Path, segments: &[u64]) -> Result<(), PhError> {
    let bytes = seal(MANIFEST_MAGIC, MANIFEST_VERSION, |body| {
        segments.len().encode(body);
        for id in segments {
            id.encode(body);
        }
    });
    let tmp = dir.join(MANIFEST_TMP);
    let mut file = File::create(&tmp).map_err(|e| io_err("create manifest tmp", &e))?;
    file.write_all(&bytes)
        .and_then(|()| file.sync_all())
        .map_err(|e| io_err("write manifest tmp", &e))?;
    fs::rename(&tmp, dir.join(MANIFEST)).map_err(|e| io_err("install manifest", &e))?;
    sync_dir(dir)
}

fn read_manifest(dir: &Path) -> Result<Vec<u64>, PhError> {
    let bytes = fs::read(dir.join(MANIFEST)).map_err(|e| io_err("read manifest", &e))?;
    let mut r = unseal(&bytes, MANIFEST_MAGIC, MANIFEST_VERSION, "manifest")
        .map_err(PhError::Durability)?;
    let count = usize::decode(&mut r).map_err(wire_to_durability)?;
    if count == 0 || count.saturating_mul(8) > r.remaining() {
        return Err(PhError::Durability(
            "implausible manifest entry count".into(),
        ));
    }
    let mut segments = Vec::with_capacity(count);
    for _ in 0..count {
        segments.push(u64::decode(&mut r).map_err(wire_to_durability)?);
    }
    r.expect_end().map_err(wire_to_durability)?;
    Ok(segments)
}

/// A checksum-valid record that fails to decode is corruption *inside*
/// verified bytes — a format bug or targeted tampering, not a torn
/// tail — so it surfaces as a durability error, never a truncation.
fn wire_to_durability(e: PhError) -> PhError {
    PhError::Durability(format!("corrupt record: {e}"))
}

/// One table's snapshot chunks, gathered in columnar form until a
/// record that is not one of its chunks arrives.
struct SnapshotTable {
    name: String,
    table: ColumnarTable,
}

/// Recovery's walk over the log, in log order: snapshot tables, the
/// dedup image and the index image install into `store` at their place
/// in the log, and every mutation record goes to `apply` — the
/// server's own apply path, so a replayed mutation does exactly what
/// it did live (a drop or re-create takes the table's postings with
/// it, a delete purges them).
struct Replay<'s, F> {
    store: &'s TableStore,
    apply: F,
    pending: Option<SnapshotTable>,
}

impl<F: FnMut(&[u8]) -> Result<(), PhError>> Replay<'_, F> {
    fn record(&mut self, record_tag: u8, body: &[u8]) -> Result<(), PhError> {
        if record_tag == TAG_SNAPSHOT {
            return self.snapshot_chunk(body);
        }
        self.install_pending();
        match record_tag {
            TAG_MUTATION => (self.apply)(body),
            TAG_DEDUP => self.install_dedup(body),
            TAG_INDEX => self.install_index(body),
            t => Err(PhError::Durability(format!("unknown record tag {t}"))),
        }
    }

    /// One snapshot-record body: a bounded chunk of one table's
    /// documents, appended in chunk order. A table's chunks are
    /// contiguous in the log, so a chunk naming another table
    /// installs the one gathered so far.
    fn snapshot_chunk(&mut self, body: &[u8]) -> Result<(), PhError> {
        let mut r = Reader::new(body);
        let name = String::decode(&mut r)?;
        let params = SwpParams::decode(&mut r)?;
        let next_doc_id = u64::decode(&mut r)?;
        if self.pending.as_ref().is_some_and(|t| t.name != name) {
            self.install_pending();
        }
        let pending = self.pending.get_or_insert_with(|| SnapshotTable {
            name,
            table: ColumnarTable {
                params,
                docs: WordArena::new(params.word_len),
                next_doc_id,
            },
        });
        decode_docs_into(&mut r, &mut pending.table.docs)?;
        pending.table.next_doc_id = next_doc_id;
        r.expect_end()
    }

    /// Installs the gathered snapshot table, cut arena to arena into
    /// fixed-capacity shards.
    fn install_pending(&mut self) {
        if let Some(SnapshotTable { name, table }) = self.pending.take() {
            let table = ShardedTable::from_arena(&table);
            self.store.install(name, table);
        }
    }

    /// One dedup-record body: the window image a compaction cut
    /// persisted, `Vec<(client_id, (watermark, applied seqs))>`.
    fn install_dedup(&self, body: &[u8]) -> Result<(), PhError> {
        let mut r = Reader::new(body);
        let image = Vec::<(u64, (u64, Vec<u64>))>::decode(&mut r)?;
        r.expect_end()?;
        for (client_id, (watermark, seqs)) in image {
            self.store
                .dedup()
                .install_snapshot(client_id, watermark, &seqs);
        }
        Ok(())
    }

    /// One index-record body: the multimap image a compaction cut
    /// persisted, `Vec<(table, Vec<((attr, label), (bound, posting ids))>)>`.
    /// Installing it re-enables the index: the record exists only
    /// because the index was on when the snapshot was cut. Entries for
    /// a table that is not stored are dropped.
    fn install_index(&self, body: &[u8]) -> Result<(), PhError> {
        let mut r = Reader::new(body);
        let image = IndexImageWire::decode(&mut r)?;
        r.expect_end()?;
        let mut tables = Vec::with_capacity(image.len());
        for (name, postings) in image {
            let mut entries = Vec::with_capacity(postings.len());
            for ((attr, label), (bound, doc_ids)) in postings {
                let label: dbph_swp::IndexLabel = label.try_into().map_err(|_| {
                    PhError::Durability("index record label is not 32 bytes".into())
                })?;
                entries.push(((attr, label), Posting { doc_ids, bound }));
            }
            tables.push((name, entries));
        }
        self.store.install_index_image(tables);
        Ok(())
    }
}

/// Writes one framed record — a `u32`-LE length, then `tag ‖ body ‖
/// checksum`, where `body` is `parts` concatenated — and returns its
/// framed length. Every record of every segment is written here.
fn write_record(out: &mut impl Write, record_tag: u8, parts: &[&[u8]]) -> Result<u64, PhError> {
    let body_len: usize = parts.iter().map(|part| part.len()).sum();
    let mut payload = Vec::with_capacity(1 + body_len + CHECKSUM_LEN);
    payload.push(record_tag);
    for part in parts {
        payload.extend_from_slice(part);
    }
    let sum = checksum(&payload);
    payload.extend_from_slice(&sum);
    codec::write_frame_capped(out, &payload, MAX_RECORD)
        .map_err(|e| PhError::Durability(format!("write record: {e}")))?;
    Ok((4 + payload.len()) as u64)
}

/// Splits `bytes` into whole record frames and yields each payload
/// (`tag ‖ body ‖ checksum`), stopping at the first incomplete frame or
/// implausible length prefix. Boundary math only — checksums are
/// [`walk_records`]' job.
fn frames(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = bytes;
    std::iter::from_fn(move || {
        let (header, tail) = rest.split_first_chunk::<4>()?;
        let len = u32::from_le_bytes(*header) as usize;
        if len > MAX_RECORD || tail.len() < len {
            return None;
        }
        let (payload, next) = tail.split_at(len);
        rest = next;
        Some(payload)
    })
}

/// Length of the longest whole-frame prefix of `bytes`.
fn records_prefix(bytes: &[u8]) -> u64 {
    frames(bytes).map(|payload| 4 + payload.len() as u64).sum()
}

/// The one record reader. Walks `bytes` as a record stream, handing
/// each checksum-verified record's tag and body to `visit`, and stops
/// at the first incomplete frame or bad checksum. Returns `(records,
/// clean_bytes)`: how many records verified and how far the clean
/// prefix extends — `clean_bytes == bytes.len()` means every byte
/// verified, anything less is a torn tail. Never panics on any input;
/// errors come only from `visit`.
pub(crate) fn walk_records<'a>(
    bytes: &'a [u8],
    mut visit: impl FnMut(u8, &'a [u8]) -> Result<(), PhError>,
) -> Result<(u64, u64), PhError> {
    let (mut records, mut clean) = (0u64, 0u64);
    for payload in frames(bytes) {
        if payload.len() <= CHECKSUM_LEN {
            break;
        }
        let (body, sum) = payload.split_at(payload.len() - CHECKSUM_LEN);
        if checksum(body) != *sum {
            break;
        }
        visit(body[0], &body[1..])?;
        records += 1;
        clean += 4 + payload.len() as u64;
    }
    Ok((records, clean))
}

impl DurableLog {
    /// Opens (or initializes) the log under `dir` and recovers the
    /// store state it describes into `store`: walks the manifest's
    /// segments in log order, installing snapshot tables (columnar,
    /// through [`ShardedTable::from_arena`]) and the dedup and index
    /// images where they sit in the log, and handing every mutation
    /// record's body — the raw client message — to `apply`. A torn
    /// tail record in the active segment is truncated away. Stray
    /// segment files a crash-interrupted compaction left outside the
    /// manifest are removed. The log reports into `telemetry`, the
    /// owning server's registry.
    ///
    /// # Errors
    /// [`PhError::Durability`] on I/O failure, a corrupt manifest, a
    /// corrupt **sealed** segment, or a checksum-valid record that
    /// does not decode; `apply`'s errors pass through. A torn
    /// active-segment tail is *not* an error.
    pub fn open(
        dir: impl AsRef<Path>,
        options: DurableOptions,
        telemetry: Arc<Telemetry>,
        store: &TableStore,
        apply: impl FnMut(&[u8]) -> Result<(), PhError>,
    ) -> Result<Self, PhError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create data dir", &e))?;

        // Single-owner discipline, before any byte is read or written:
        // a second process (or a second log in this process) opening
        // the same directory would race appends into one active
        // segment and corrupt it. Advisory lock, held until drop; a
        // killed owner releases it with its file descriptors.
        let dir_lock = File::options()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(LOCK))
            .map_err(|e| io_err("open lock file", &e))?;
        dir_lock.try_lock().map_err(|e| {
            PhError::Durability(format!(
                "data dir {} is locked by another live server: {e}",
                dir.display()
            ))
        })?;

        let segments = if dir.join(MANIFEST).exists() {
            read_manifest(&dir)?
        } else {
            // Fresh directory: one empty active segment, id 0. The
            // segment is created and synced *before* the manifest
            // names it, so a crash between the two leaves either no
            // manifest (fresh again) or a consistent pair.
            let seg = segment_path(&dir, 0);
            File::create(&seg)
                .and_then(|f| f.sync_all())
                .map_err(|e| io_err("create initial segment", &e))?;
            sync_dir(&dir)?;
            write_manifest(&dir, &[0])?;
            vec![0]
        };

        let mut replay = Replay {
            store,
            apply,
            pending: None,
        };
        let (&active_id, sealed_ids) = segments
            .split_last()
            .ok_or_else(|| PhError::Durability("empty manifest".into()))?;
        let mut sealed_bytes = Vec::with_capacity(sealed_ids.len());
        for &id in sealed_ids {
            let path = segment_path(&dir, id);
            let bytes = fs::read(&path).map_err(|e| io_err("read sealed segment", &e))?;
            let (_, clean) = walk_records(&bytes, |t, body| replay.record(t, body))?;
            if clean != bytes.len() as u64 {
                return Err(PhError::Durability(format!(
                    "sealed segment {id} corrupt after {clean} bytes"
                )));
            }
            sealed_bytes.push(clean);
        }
        let active_path = segment_path(&dir, active_id);
        let bytes = fs::read(&active_path).map_err(|e| io_err("read active segment", &e))?;
        let (_, active_bytes) = walk_records(&bytes, |t, body| replay.record(t, body))?;
        replay.install_pending();
        if active_bytes != bytes.len() as u64 {
            // The crash contract: drop the torn tail, keep every fully
            // persisted record. Truncate durably so the next append
            // starts on a record boundary.
            let file = File::options()
                .write(true)
                .open(&active_path)
                .map_err(|e| io_err("open active segment for truncation", &e))?;
            file.set_len(active_bytes)
                .and_then(|()| file.sync_all())
                .map_err(|e| io_err("truncate torn tail", &e))?;
        }
        let active = File::options()
            .append(true)
            .open(&active_path)
            .map_err(|e| io_err("open active segment", &e))?;

        // Remove segment files the manifest does not reference — the
        // debris of a compaction that crashed before its manifest
        // swap. Safe precisely because the manifest is the sole source
        // of truth for what replays.
        if let Ok(entries) = fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(id) = name
                    .strip_prefix("seg-")
                    .and_then(|s| s.strip_suffix(".log"))
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    if !segments.contains(&id) {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
        }

        let active = Arc::new(active);
        let log = DurableLog {
            dir,
            options,
            writer: Mutex::new(Writer {
                active: Arc::clone(&active),
                active_id,
                active_bytes,
                sealed: sealed_ids.to_vec(),
                sealed_bytes,
            }),
            commit: Mutex::new(CommitState {
                appended: 0,
                synced: 0,
                syncing: false,
                file: active,
            }),
            commit_cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
            syncs: AtomicU64::new(0),
            sync_faults: AtomicU64::new(0),
            repl_min_acks: AtomicU64::new(0),
            repl: Mutex::new(ReplAcks {
                acks: BTreeMap::new(),
                options: ReplicationOptions::default(),
                degraded: 0,
            }),
            repl_cv: Condvar::new(),
            _dir_lock: dir_lock,
            telemetry,
        };
        Ok(log)
    }

    /// The data directory this log persists into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the current active segment file (tests watch its length
    /// to learn which records are on disk).
    #[must_use]
    pub fn active_segment_path(&self) -> PathBuf {
        segment_path(&self.dir, self.writer.lock().active_id)
    }

    /// Bytes of complete records currently in the active segment.
    #[must_use]
    pub fn active_segment_bytes(&self) -> u64 {
        self.writer.lock().active_bytes
    }

    /// Segment ids in replay order (sealed segments, then the active
    /// one).
    #[must_use]
    pub fn segments(&self) -> Vec<u64> {
        let w = self.writer.lock();
        let mut ids = w.sealed.clone();
        ids.push(w.active_id);
        ids
    }

    /// Whether a write-side failure has poisoned the log (mutations
    /// fail closed from then on).
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// The registry, when collecting — the single check every
    /// log-side hook performs.
    #[inline]
    fn tele(&self) -> Option<&Telemetry> {
        self.telemetry.on().then_some(&*self.telemetry)
    }

    /// Total `fdatasync` calls this log has issued. With group commit
    /// and N concurrent writers this grows ~1 per flush window, not
    /// per mutation — the coalescing the tests and bench assert.
    #[must_use]
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }

    /// Fault injection for the crash/poison tests: the next `n` fsyncs
    /// report failure without touching the disk, so a failing
    /// `fdatasync` window can be manufactured deterministically. The
    /// failure poisons the log exactly like a real one.
    pub fn inject_sync_failures(&self, n: u64) {
        self.sync_faults.store(n, Ordering::SeqCst);
    }

    /// Poisons the log and wakes every group-commit waiter so they
    /// observe the failure instead of parking forever.
    fn poison_and_wake(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        {
            let _guard = self.commit.lock();
            self.commit_cv.notify_all();
        }
        let _guard = self.repl.lock();
        self.repl_cv.notify_all();
    }

    /// One `fdatasync`, honoring injected faults.
    fn do_sync(&self, file: &File) -> Result<(), PhError> {
        let mut faults = self.sync_faults.load(Ordering::SeqCst);
        while faults > 0 {
            match self.sync_faults.compare_exchange(
                faults,
                faults - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    return Err(PhError::Durability(
                        "fsync failed (injected fault): record not durable".into(),
                    ))
                }
                Err(now) => faults = now,
            }
        }
        self.syncs.fetch_add(1, Ordering::SeqCst);
        match self.tele() {
            Some(t) => {
                let t0 = Instant::now();
                let result = file.sync_data();
                t.fsync_nanos.record_duration(t0.elapsed());
                result
            }
            None => file.sync_data(),
        }
        .map_err(|e| io_err("fsync record", &e))
    }

    /// Blocks until record `seq` is durable (acked) or the log poisons
    /// (failed closed). Implements the shared barrier: the first
    /// waiter to find no sync in flight becomes the *leader*, fsyncs
    /// once on behalf of every record appended by then, and wakes all
    /// of them; later waiters either find their record already
    /// covered or lead the next window.
    fn wait_durable(&self, seq: u64) -> Result<(), PhError> {
        let barrier_t0 = self.tele().map(|_| Instant::now());
        let mut c = self.commit.lock();
        loop {
            if c.synced >= seq {
                if let (Some(t0), Some(t)) = (barrier_t0, self.tele()) {
                    t.commit_wait_nanos.record_duration(t0.elapsed());
                }
                return Ok(());
            }
            if self.is_poisoned() {
                return Err(PhError::Durability(
                    "group-commit window failed; mutation not durable".into(),
                ));
            }
            if c.syncing {
                self.commit_cv.wait(&mut c);
                continue;
            }
            // Become the leader for this window. Before reading the
            // barrier target, give concurrently-appending threads a
            // scheduling chance to land their records: the first
            // waiter into a quiet log would otherwise lead a window of
            // one and leave everyone who appended during its fsync to
            // pay a second barrier. Yield until the high-water mark
            // stops moving (bounded — each writer has at most one
            // outstanding append, so growth stops once the runnable
            // ones have landed). Timing-only — a lone serial writer
            // burns exactly one no-op yield.
            c.syncing = true;
            let mut mark = c.appended;
            drop(c);
            for _ in 0..16 {
                std::thread::yield_now();
                let now = self.commit.lock().appended;
                if now == mark {
                    break;
                }
                mark = now;
            }
            // Read the barrier target *after* the yields: everything
            // appended meanwhile shares this one fsync.
            let (target, file) = {
                let c = self.commit.lock();
                (c.appended, Arc::clone(&c.file))
            };
            // Wake any follower pull parked on the stream end
            // (`repl_read`'s long poll) *now*, before the fsync: the
            // window just stabilized, so the follower ships it as one
            // chunk and runs its own append+fsync in parallel with
            // ours — semi-sync ack latency stays near one fsync, not
            // two. Shipping records whose barrier has not completed is
            // sound: the follower's copy only ever *adds* a durability
            // site, and a follower that ends up ahead of a crashed
            // primary goes stale on its first pull and re-bootstraps.
            {
                let _r = self.repl.lock();
                self.repl_cv.notify_all();
            }
            let outcome = self.do_sync(&file);
            c = self.commit.lock();
            c.syncing = false;
            match outcome {
                Ok(()) => {
                    // `synced` may already exceed `target` if a
                    // compaction (whose manifest swap durably covers
                    // all applied records) slid in — keep the max.
                    if let Some(t) = self.tele() {
                        // Window occupancy: records this one fsync
                        // newly covered (0 when a compaction already
                        // durably covered the whole window).
                        t.commit_window_records
                            .record(target.saturating_sub(c.synced));
                    }
                    c.synced = c.synced.max(target);
                    self.commit_cv.notify_all();
                }
                Err(e) => {
                    // The window failed: every waiter in it (and any
                    // record appended since) must fail closed, not be
                    // acked by some later successful sync.
                    self.poisoned.store(true, Ordering::SeqCst);
                    self.commit_cv.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Runs `apply` (the store mutation) under the log's writer lock
    /// and, when it reports the store changed, appends `message_bytes`
    /// as one record — compacting afterwards if the active segment has
    /// outgrown its threshold — then makes the record durable before
    /// returning by waiting on the shared `fdatasync` barrier
    /// ([`Self::wait_durable`], outside the writer lock so other
    /// sessions keep appending into the same window). Holding the
    /// lock across apply *and* append is what keeps the log's record
    /// order identical to the store's apply order under concurrent
    /// sessions; without it two racing appends could persist in the
    /// opposite order they validated in, and replay would diverge.
    ///
    /// # Errors
    /// [`PhError::Durability`] when the log is poisoned or the record
    /// write/fsync fails (which poisons it — for a shared barrier
    /// failure, for *every* waiter in the window). On error the
    /// in-memory apply may already have happened — the server reports
    /// the error to the client and refuses further mutations, so an
    /// un-persisted change is never silently acknowledged.
    pub(crate) fn log_mutation<R>(
        &self,
        message_bytes: &[u8],
        store: &TableStore,
        apply: impl FnOnce() -> (R, bool),
    ) -> Result<R, PhError> {
        let seq;
        let result;
        let repl_end;
        {
            let mut w = self.writer.lock();
            // Check the poison flag *under* the lock: a mutation that
            // was blocked on the lock while another thread's append
            // failed must observe the failure, not apply-and-append
            // after the torn bytes (recovery would truncate its
            // acknowledged record away with the tail).
            if self.is_poisoned() {
                return Err(PhError::Durability(
                    "log poisoned by an earlier write failure; mutations disabled".into(),
                ));
            }
            let (r, mutated) = apply();
            result = r;
            if !mutated {
                return Ok(result);
            }
            // The bytes hit the file in apply order but are not yet
            // durable: the shared commit barrier below makes them so.
            match write_record(&mut w.active.as_ref(), TAG_MUTATION, &[message_bytes]) {
                Ok(framed) => w.active_bytes += framed,
                Err(e) => {
                    self.poison_and_wake();
                    return Err(e);
                }
            }
            // The record's end position in the virtual replication
            // stream: a follower ack at or beyond it means this exact
            // record is durable on that follower. Captured under the
            // writer lock (before any compaction below — offsets are
            // monotone across compaction, so a later ack still
            // satisfies the wait), consumed after local durability.
            repl_end = (self.repl_min_acks.load(Ordering::SeqCst) > 0).then(|| self.stream_end(&w));
            // Claim this record's barrier sequence number; the fsync
            // itself happens outside the writer lock.
            seq = {
                let mut c = self.commit.lock();
                c.appended += 1;
                c.appended
            };
            if w.active_bytes >= self.options.compact_threshold {
                if let Err(e) = self.compact_locked(&mut w, store) {
                    self.poison_and_wake();
                    return Err(e);
                }
            }
        }
        self.wait_durable(seq)?;
        if let Some(end) = repl_end {
            self.wait_replicated(end)?;
        }
        Ok(result)
    }

    /// Compacts immediately, regardless of the threshold — the bench
    /// and the recovery tests use this to manufacture
    /// snapshot-segment-only data directories.
    ///
    /// # Errors
    /// As the write path; a failure poisons the log.
    pub fn compact_now(&self, store: &TableStore) -> Result<(), PhError> {
        let mut w = self.writer.lock();
        // Same flag discipline as `log_mutation`: observe under the
        // lock, never alongside it.
        if self.is_poisoned() {
            return Err(PhError::Durability("log poisoned; cannot compact".into()));
        }
        self.compact_locked(&mut w, store).inspect_err(|_| {
            self.poisoned.store(true, Ordering::SeqCst);
        })
    }

    /// Installs (or changes) the semi-sync replication contract. With
    /// `min_acks == 0` the write path is untouched; with `min_acks > 0`
    /// every mutation blocks, after its local durability barrier, until
    /// that many followers have acknowledged the record (or the
    /// configured timeout degrades the ack to async).
    pub fn set_replication(&self, options: ReplicationOptions) {
        let mut r = self.repl.lock();
        self.repl_min_acks
            .store(options.min_acks as u64, Ordering::SeqCst);
        r.options = options;
        // A relaxed contract may already be satisfied for parked
        // waiters; let them re-check.
        self.repl_cv.notify_all();
    }

    /// Mutations whose semi-sync wait timed out and were acked on
    /// local durability alone — each one is a lapse of the
    /// "acked ⇒ on a follower" guarantee that operators should see.
    #[must_use]
    pub fn semi_sync_degraded(&self) -> u64 {
        self.repl.lock().degraded
    }

    /// Replication lag in virtual-stream bytes: the gap between this
    /// log's stream end and the slowest registered follower's
    /// acknowledged offset. Zero with no followers.
    #[must_use]
    pub fn replication_lag(&self) -> u64 {
        let end = self.stream_end(&self.writer.lock());
        let r = self.repl.lock();
        r.acks
            .values()
            .map(|&v| end.saturating_sub(v))
            .max()
            .unwrap_or(0)
    }

    /// Blocks until `min_acks` followers have acknowledged offsets at
    /// or beyond `end_offset`, the timeout degrades the ack to async,
    /// or the log poisons.
    fn wait_replicated(&self, end_offset: u64) -> Result<(), PhError> {
        let deadline = std::time::Instant::now() + {
            let r = self.repl.lock();
            r.options.ack_timeout
        };
        let mut r = self.repl.lock();
        loop {
            let need = r.options.min_acks;
            if need == 0 {
                return Ok(());
            }
            if r.acks.values().filter(|&&v| v >= end_offset).count() >= need {
                return Ok(());
            }
            if self.is_poisoned() {
                return Err(PhError::Durability(
                    "log poisoned while awaiting follower acks".into(),
                ));
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                // Followers are gone or unreachable. Refusing the
                // mutation here would be worse: it is already applied
                // and locally durable, so an error would teach the
                // client to re-send an envelope the dedup window must
                // then replay — all cost, no safety. Degrade to async
                // (the MySQL semi-sync escape hatch) and count it.
                r.degraded += 1;
                return Ok(());
            }
            let _ = self.repl_cv.wait_for(&mut r, deadline - now);
        }
    }

    /// Serves one follower pull: `(records, next_offset)`, the chunk
    /// from `after_offset` onward — or, when that offset lies before
    /// the stream base or beyond the stream end, a *restart*: the chunk
    /// from the base, which then never begins at `after_offset` (see
    /// `ClientMessage::ReplPull`). The pull doubles as the follower's
    /// ack for every byte below `after_offset`. Chunks are cut at
    /// record boundaries and capped near [`REPL_CHUNK_BYTES`] (a single
    /// larger record ships whole).
    ///
    /// A pull that finds the follower already caught up answers empty
    /// at once unless it asked to `wait` (bootstrap does not: it only
    /// needs to learn that it reached the stream end). A waiting pull
    /// *long-polls*: it parks (off the writer lock) until an append or
    /// compaction wakes it, up to [`REPL_POLL_WAIT`], and only then
    /// answers empty. Appends notify at append time — before their
    /// barrier fsync — so a tailing follower's own append+fsync runs in
    /// parallel with the primary's, which is what keeps semi-sync
    /// ack latency near one fsync instead of two. The parked pull
    /// occupies its connection's serving thread for up to
    /// [`REPL_POLL_WAIT`]; other connections are served meanwhile.
    ///
    /// Holds the writer lock across the file reads: appends and
    /// compactions stall for the duration of one bounded chunk read,
    /// in exchange for an immutable view of the segment set.
    pub(crate) fn repl_read(
        &self,
        follower: u64,
        after_offset: u64,
        wait: bool,
    ) -> Result<(Vec<u8>, u64), PhError> {
        let deadline = std::time::Instant::now() + REPL_POLL_WAIT;
        let (w, base, total, stale) = loop {
            let w = self.writer.lock();
            let base = w.stream_base();
            let end = self.stream_end(&w);
            let total = end - base;
            let stale = after_offset < base || after_offset > end;
            {
                let mut r = self.repl.lock();
                let slot = r.acks.entry(follower).or_insert(0);
                if stale {
                    // The follower is about to reset; whatever it holds
                    // at those offsets is not this stream's content.
                    *slot = 0;
                } else if *slot < after_offset {
                    *slot = after_offset;
                    self.repl_cv.notify_all();
                }
            }
            if stale || after_offset < end {
                break (w, base, total, stale);
            }
            // Caught up. Park until something lands or the poll budget
            // runs out — never on a poisoned log (the follower should
            // hear "nothing" promptly and keep probing; promotion may
            // be next).
            let now = std::time::Instant::now();
            if !wait || self.is_poisoned() || now >= deadline {
                return Ok((Vec::new(), after_offset));
            }
            // Lock order writer → repl, and take the repl lock *before*
            // releasing the writer lock: appenders notify under the
            // repl lock while holding the writer lock, so a record
            // landing between our end-read and the park cannot slip
            // its wakeup past us.
            if let Some(t) = self.tele() {
                t.repl_longpoll_parks.inc();
            }
            let mut r = self.repl.lock();
            drop(w);
            let _ = self.repl_cv.wait_for(&mut r, deadline - now);
        };
        let start = if stale { 0 } else { after_offset - base };
        let avail = total - start;
        let want = avail.min(REPL_CHUNK_BYTES);
        let mut records = self.read_stream_range(&w, start, want)?;
        let mut keep = records_prefix(&records);
        if keep == 0 && avail > 4 {
            // The record at `start` is larger than the chunk budget:
            // read its header, then ship exactly that one record.
            let header = self.read_stream_range(&w, start, 4)?;
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
            let need = (4 + len).min(avail);
            records = self.read_stream_range(&w, start, need)?;
            keep = records_prefix(&records);
            if keep == 0 {
                return Err(PhError::Durability(format!(
                    "replication cursor desynchronized at offset {after_offset}"
                )));
            }
        }
        records.truncate(usize::try_from(keep).unwrap_or(usize::MAX));
        if let Some(t) = self.tele() {
            t.repl_chunks_shipped.inc();
            t.repl_bytes_shipped.add(keep);
        }
        Ok((records, base + start + keep))
    }

    /// Virtual offset one past the last record of the replication
    /// stream: the base plus every segment's record prefix. Caller
    /// holds the writer lock, so the segment set is stable.
    fn stream_end(&self, w: &Writer) -> u64 {
        w.stream_base() + w.segment_lens().map(|(_, len)| len).sum::<u64>()
    }

    /// Reads raw bytes `[start, start + len)` of the physical record
    /// stream (sealed segments in manifest order, then the active
    /// segment's record prefix). Caller holds the writer lock, so the
    /// segment set and every length are stable.
    fn read_stream_range(&self, w: &Writer, start: u64, len: u64) -> Result<Vec<u8>, PhError> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let mut out = Vec::with_capacity(usize::try_from(len).unwrap_or(0));
        let mut pos = start;
        let end = start + len;
        let mut cum = 0u64;
        for (id, seg_len) in w.segment_lens() {
            let seg_start = cum;
            cum += seg_len;
            if cum <= pos {
                continue;
            }
            if pos >= end {
                break;
            }
            let off = pos - seg_start;
            let take = usize::try_from(cum.min(end) - pos)
                .map_err(|_| PhError::Durability("stream read too large".into()))?;
            let mut file = File::open(segment_path(&self.dir, id))
                .map_err(|e| io_err("open segment for replication", &e))?;
            file.seek(SeekFrom::Start(off))
                .map_err(|e| io_err("seek segment for replication", &e))?;
            let at = out.len();
            out.resize(at + take, 0);
            file.read_exact(&mut out[at..])
                .map_err(|e| io_err("read segment for replication", &e))?;
            pos += take as u64;
        }
        if pos != end {
            return Err(PhError::Durability(format!(
                "short replication stream read: wanted [{start}, {end}), got {pos}"
            )));
        }
        Ok(out)
    }

    /// Proactively re-verifies every record checksum in every segment
    /// — sealed segments *and* the active segment's record prefix —
    /// without replaying or mutating anything. Detects at-rest
    /// corruption (bit rot, tampering) that today would otherwise
    /// surface only at the next open. Holds the writer lock, so the
    /// scan sees a stable segment set; mutations stall for the
    /// duration.
    ///
    /// # Errors
    /// [`PhError::Durability`] naming the corrupt segment and the byte
    /// offset of the first bad record. A scrub failure does *not*
    /// poison the log: the damage predates it and the recovery path,
    /// not the scrubber, owns the decision of what is servable.
    pub fn scrub(&self) -> Result<ScrubReport, PhError> {
        let w = self.writer.lock();
        let mut report = ScrubReport::default();
        for (id, seg_len) in w.segment_lens() {
            let bytes = fs::read(segment_path(&self.dir, id))
                .map_err(|e| io_err("read segment for scrub", &e))?;
            let len = usize::try_from(seg_len)
                .map_err(|_| PhError::Durability("segment too large to scrub".into()))?;
            let bytes = bytes.get(..len).ok_or_else(|| {
                PhError::Durability(format!(
                    "segment {id} shorter than its record prefix ({} < {seg_len} bytes)",
                    bytes.len()
                ))
            })?;
            let (records, good) = walk_records(bytes, |_, _| Ok(()))?;
            if good != seg_len {
                return Err(PhError::Durability(format!(
                    "segment {id} corrupt: first bad record at byte {good} of {seg_len}"
                )));
            }
            report.segments += 1;
            report.records += records;
            report.bytes += good;
        }
        Ok(report)
    }

    /// Appends a chunk of already-framed, already-checksummed records
    /// *verbatim* to the active segment and fsyncs once — the
    /// follower's tailing write. The caller (the replica) has verified
    /// the chunk with [`walk_records`]; writing the primary's bytes
    /// unmodified is what makes the follower's log a byte substring of
    /// the primary's stream, so recovery/promote replay exactly what
    /// the primary logged. One `fdatasync` covers the whole chunk:
    /// per-record syncs would cost the follower ~`records`× the
    /// primary's group-commit rate and stall semi-sync acks behind it.
    ///
    /// # Errors
    /// [`PhError::Durability`] when the log is poisoned or the
    /// write/fsync fails (which poisons it).
    pub(crate) fn append_raw(&self, records: &[u8]) -> Result<(), PhError> {
        let mut w = self.writer.lock();
        if self.is_poisoned() {
            return Err(PhError::Durability(
                "log is poisoned; raw append refused".into(),
            ));
        }
        let outcome = w
            .active
            .as_ref()
            .write_all(records)
            .map_err(|e| io_err("append raw records", &e))
            .and_then(|()| self.do_sync(&w.active));
        if let Err(e) = outcome {
            drop(w);
            self.poison_and_wake();
            return Err(e);
        }
        w.active_bytes += records.len() as u64;
        // Keep the group-commit barrier coherent for a later
        // `promote()`: these records are durable the moment this
        // returns, so the barrier counters advance together and the
        // first post-promotion mutation starts a fresh window.
        let mut c = self.commit.lock();
        c.appended += 1;
        c.synced = c.appended;
        Ok(())
    }

    /// Rewrites the live store as a sealed snapshot segment plus a
    /// fresh empty active segment, swaps the manifest to exactly those
    /// two, and deletes the superseded segment files.
    ///
    /// Crash-safe by ordering: the new segments are fully written and
    /// fsync'd *before* the manifest rename commits to them; a crash
    /// at any earlier point leaves the old manifest pointing at the
    /// old, untouched segments (the orphaned new files are swept on
    /// the next open).
    fn compact_locked(&self, w: &mut Writer, store: &TableStore) -> Result<(), PhError> {
        let snapshot_id = w.active_id + 1;
        let new_active_id = w.active_id + 2;

        // 1. The sealed snapshot segment, straight from the arenas.
        let snapshot_path = segment_path(&self.dir, snapshot_id);
        let mut snapshot_file =
            File::create(&snapshot_path).map_err(|e| io_err("create snapshot segment", &e))?;
        for (name, table) in store.snapshot_all() {
            self.write_table_snapshot(&mut snapshot_file, &name, &table)?;
        }
        // The dedup window rides along: compaction is about to delete
        // the raw mutation records it would otherwise be rebuilt from.
        // Its image holds every id whose mutation the tables above
        // include, in-flight ones too (see `DedupWindow::snapshot`).
        // Skipped when empty (untagged workloads), so segment bytes
        // for envelope-free sessions are unchanged from PR 6.
        let dedup_image: Vec<(u64, (u64, Vec<u64>))> = store
            .dedup()
            .snapshot()
            .into_iter()
            .map(|(client_id, watermark, seqs)| (client_id, (watermark, seqs)))
            .collect();
        if !dedup_image.is_empty() {
            write_record(&mut snapshot_file, TAG_DEDUP, &[&dedup_image.to_wire()])?;
        }
        // The encrypted-multimap image rides along for the same
        // reason. Skipped when the index is off (or has no postings),
        // so scan-only segment bytes are unchanged from the pre-index
        // format.
        if store.index_enabled() {
            let index_image: IndexImageWire = store
                .index_image()
                .into_iter()
                .map(|(name, postings)| {
                    let postings = postings
                        .into_iter()
                        .map(|((attr, label), posting)| {
                            ((attr, label.to_vec()), (posting.bound, posting.doc_ids))
                        })
                        .collect();
                    (name, postings)
                })
                .collect();
            if !index_image.is_empty() {
                write_record(&mut snapshot_file, TAG_INDEX, &[&index_image.to_wire()])?;
            }
        }
        snapshot_file
            .sync_all()
            .map_err(|e| io_err("fsync snapshot segment", &e))?;

        // 2. A fresh empty active segment.
        let active_path = segment_path(&self.dir, new_active_id);
        let new_active = File::create(&active_path)
            .and_then(|f| f.sync_all().map(|()| f))
            .map_err(|e| io_err("create active segment", &e))?;
        sync_dir(&self.dir)?;

        // 3. Commit, then sweep the superseded files.
        write_manifest(&self.dir, &[snapshot_id, new_active_id])?;
        for &old in w.sealed.iter().chain(std::iter::once(&w.active_id)) {
            let _ = fs::remove_file(segment_path(&self.dir, old));
        }

        // Compaction rewrote history: every replication offset handed
        // out so far addresses bytes that no longer exist. The new
        // segment set's first id is past the old active id, so the
        // stream base (`Writer::stream_base`) moves strictly past the
        // old stream end: *any* prior follower offset (even a fully
        // caught-up one) reads as stale and the follower re-bootstraps
        // from the snapshot segment.
        let snapshot_bytes = snapshot_file
            .metadata()
            .map_err(|e| io_err("stat snapshot segment", &e))?
            .len();

        w.active = Arc::new(new_active);
        w.active_id = new_active_id;
        w.active_bytes = 0;
        w.sealed = vec![snapshot_id];
        w.sealed_bytes = vec![snapshot_bytes];

        // The snapshot captured the live store — which includes every
        // record appended so far, synced or not — and the manifest
        // swap above made it durable. Advance the commit barrier to
        // cover them all and retarget it at the fresh active segment;
        // waiters parked on the old file are already satisfied.
        {
            let mut c = self.commit.lock();
            c.synced = c.appended;
            c.file = Arc::clone(&w.active);
            self.commit_cv.notify_all();
        }
        // Wake long-polled follower pulls: their cursors just went
        // stale, and the sooner they learn, the sooner they
        // re-bootstrap from the snapshot this compaction wrote.
        {
            let _r = self.repl.lock();
            self.repl_cv.notify_all();
        }
        Ok(())
    }

    /// Serializes one table as chunked snapshot records, reading word
    /// bytes directly out of the shard arenas through the wire codec's
    /// one arena encoder (`CreateTable` uses it too), with no boxed
    /// documents in between. Records carry their own framing +
    /// checksum but no per-record fsync: the whole segment is fsync'd
    /// once before the manifest commits to it. Every table writes at
    /// least one record, so empty tables survive compaction too.
    fn write_table_snapshot(
        &self,
        file: &mut File,
        name: &str,
        table: &ShardedTable,
    ) -> Result<(), PhError> {
        let chunk_budget =
            usize::try_from(self.options.snapshot_chunk_bytes.max(1)).unwrap_or(usize::MAX);

        let write_chunk = |file: &mut File, count: usize, docs: &[u8]| -> Result<(), PhError> {
            let mut header = Vec::with_capacity(64 + name.len());
            name.to_string().encode(&mut header);
            table.params().encode(&mut header);
            table.next_doc_id().encode(&mut header);
            count.encode(&mut header);
            write_record(file, TAG_SNAPSHOT, &[&header, docs]).map(drop)
        };

        let mut docs_buf: Vec<u8> = Vec::new();
        let mut count = 0usize;
        let mut records = 0usize;
        for shard in table.shards() {
            for i in 0..shard.len() {
                encode_arena_doc(shard, i, &mut docs_buf);
                count += 1;
                if docs_buf.len() >= chunk_budget {
                    write_chunk(file, count, &docs_buf)?;
                    docs_buf.clear();
                    count = 0;
                    records += 1;
                }
            }
        }
        if count > 0 || records == 0 {
            write_chunk(file, count, &docs_buf)?;
        }
        Ok(())
    }
}

/// A uniquely named scratch directory under the system temp dir,
/// removed (best-effort) on drop — what keeps the durability tests,
/// benches, and CI runs hermetic without a registry `tempfile`
/// dependency (the workspace is offline by policy).
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `…/dbph-<label>-<pid>-<seq>-<nanos>`.
    ///
    /// # Errors
    /// [`PhError::Durability`] when the directory cannot be created.
    pub fn new(label: &str) -> Result<Self, PhError> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = std::env::temp_dir().join(format!(
            "dbph-{label}-{}-{}-{nanos}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        fs::create_dir_all(&path).map_err(|e| io_err("create temp dir", &e))?;
        Ok(TempDir { path })
    }

    /// The directory's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::protocol::ClientMessage;
    use crate::server::{Server, ServerConfig};
    use crate::swp_ph::EncryptedTable;
    use dbph_swp::{CipherWord, SwpParams};

    fn table(n: usize) -> EncryptedTable {
        EncryptedTable {
            params: SwpParams::new(13, 4, 32).unwrap(),
            docs: (0..n as u64)
                .map(|i| {
                    // One regular word plus, for every third doc, an
                    // irregular-length word: recovery must round-trip
                    // wire-legal deviants byte-identically too.
                    let mut words = vec![CipherWord(vec![i as u8; 13])];
                    if i % 3 == 0 {
                        words.push(CipherWord(vec![0xEE; 5]));
                    }
                    (i, words)
                })
                .collect(),
            next_doc_id: n as u64,
        }
    }

    fn create_msg(name: &str, n: usize) -> Vec<u8> {
        ClientMessage::CreateTable {
            name: name.into(),
            table: table(n).into(),
        }
        .to_wire()
    }

    fn append_msg(name: &str, doc_id: u64) -> Vec<u8> {
        ClientMessage::Append {
            name: name.into(),
            doc_id,
            words: vec![CipherWord(vec![doc_id as u8 ^ 0x55; 13])],
        }
        .to_wire()
    }

    fn fetch_msg(name: &str) -> Vec<u8> {
        ClientMessage::FetchAll { name: name.into() }.to_wire()
    }

    fn delete_msg(name: &str, ids: Vec<u64>) -> Vec<u8> {
        ClientMessage::DeleteDocs {
            name: name.into(),
            doc_ids: ids,
        }
        .to_wire()
    }

    #[test]
    fn fresh_dir_survives_restart() {
        let tmp = TempDir::new("durable-fresh").unwrap();
        let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        assert!(server.durable_log().is_some());
        assert!(tmp.path().join(MANIFEST).exists());
        let _ = server.handle(&create_msg("t", 7));
        let _ = server.handle(&append_msg("t", 7));
        let _ = server.handle(&delete_msg("t", vec![1, 1, 99]));
        let before = server.handle(&fetch_msg("t"));
        drop(server);

        let reopened = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        assert_eq!(reopened.handle(&fetch_msg("t")), before);
        // The store keeps working after recovery: ids continue.
        let resp = reopened.handle(&append_msg("t", 8));
        assert!(!resp.is_empty());
        assert_eq!(
            crate::protocol::ServerResponse::from_wire(&resp).unwrap(),
            crate::protocol::ServerResponse::Ok
        );
    }

    #[test]
    fn failed_mutations_write_no_records() {
        let tmp = TempDir::new("durable-reject").unwrap();
        let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        let _ = server.handle(&create_msg("t", 2));
        let log = Arc::clone(server.durable_log().unwrap());
        let after_create = log.active_segment_bytes();
        // Duplicate create and a stale append are rejected — and must
        // leave the log untouched (a record is written only for an
        // *applied* mutation).
        let _ = server.handle(&create_msg("t", 2));
        let _ = server.handle(&append_msg("t", 0));
        assert_eq!(log.active_segment_bytes(), after_create);
        // Queries and fetches never touch the log either.
        let _ = server.handle(&fetch_msg("t"));
        assert_eq!(log.active_segment_bytes(), after_create);
    }

    #[test]
    fn torn_tail_is_truncated_never_a_panic_or_partial_apply() {
        // Build the same 4-mutation session repeatedly, cut the active
        // segment at assorted byte offsets (record boundaries, one
        // byte in, mid-header, mid-payload, mid-checksum), and check
        // the reopened store equals an in-memory store that replayed
        // exactly the fully-persisted prefix of mutations.
        let messages = [
            create_msg("t", 5),
            append_msg("t", 5),
            append_msg("t", 6),
            delete_msg("t", vec![0, 6]),
        ];
        // First pass: learn the record end offsets.
        let boundaries: Vec<u64> = {
            let tmp = TempDir::new("durable-offsets").unwrap();
            let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
            messages
                .iter()
                .map(|m| {
                    let _ = server.handle(m);
                    fs::metadata(server.durable_log().unwrap().active_segment_path())
                        .unwrap()
                        .len()
                })
                .collect()
        };
        assert!(boundaries.windows(2).all(|w| w[0] < w[1]));

        let mut cuts: Vec<u64> = vec![0, 1, 3];
        for &b in &boundaries {
            cuts.extend([
                b.saturating_sub(9),
                b.saturating_sub(1),
                b,
                b.saturating_add(2),
            ]);
        }
        for cut in cuts {
            let cut = cut.min(*boundaries.last().unwrap());
            let tmp = TempDir::new("durable-cut").unwrap();
            let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
            for m in &messages {
                let _ = server.handle(m);
            }
            let active = server.durable_log().unwrap().active_segment_path();
            drop(server);
            let file = File::options().write(true).open(&active).unwrap();
            file.set_len(cut).unwrap();
            drop(file);

            // The reference replays only the mutations whose record
            // fully landed below the cut.
            let survivors = boundaries.iter().filter(|&&b| b <= cut).count();
            let reference = Server::open(&ServerConfig::default(), None).unwrap();
            for m in &messages[..survivors] {
                let _ = reference.handle(m);
            }

            let recovered = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
            if survivors == 0 {
                // Nothing persisted: the table must not exist.
                let resp = recovered.handle(&fetch_msg("t"));
                assert_eq!(resp, reference.handle(&fetch_msg("t")), "cut {cut}");
            } else {
                assert_eq!(
                    recovered.handle(&fetch_msg("t")),
                    reference.handle(&fetch_msg("t")),
                    "recovered store diverged at cut {cut}"
                );
            }
            // And the truncated log accepts new mutations cleanly.
            if survivors > 0 {
                let resp = recovered.handle(&append_msg("t", 50));
                assert_eq!(
                    crate::protocol::ServerResponse::from_wire(&resp).unwrap(),
                    crate::protocol::ServerResponse::Ok
                );
            }
        }
    }

    #[test]
    fn compaction_rewrites_into_a_sealed_snapshot_and_prunes() {
        let tmp = TempDir::new("durable-compact").unwrap();
        let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        let _ = server.handle(&create_msg("a", 9));
        let _ = server.handle(&create_msg("empty", 0));
        let _ = server.handle(&append_msg("a", 9));
        let _ = server.handle(&delete_msg("a", vec![2, 4]));
        let before = server.handle(&fetch_msg("a"));
        let before_empty = server.handle(&fetch_msg("empty"));

        let log = Arc::clone(server.durable_log().unwrap());
        let old_segments = log.segments();
        server.compact().unwrap();
        let new_segments = log.segments();
        assert_ne!(old_segments, new_segments);
        assert_eq!(new_segments.len(), 2, "snapshot + fresh active");
        assert_eq!(log.active_segment_bytes(), 0);
        for old in &old_segments {
            assert!(
                !segment_path(tmp.path(), *old).exists(),
                "superseded segment {old} not pruned"
            );
        }

        // Mutations after compaction land in the new active segment…
        let _ = server.handle(&append_msg("a", 10));
        let after_append = server.handle(&fetch_msg("a"));
        // Release *every* handle on the log — an Arc clone keeps the
        // directory lock alive, and reopening against a live owner is
        // (correctly) refused.
        drop(log);
        drop(server);
        // …and recovery = snapshot + tail log.
        let reopened = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        assert_eq!(reopened.handle(&fetch_msg("a")), after_append);
        assert_eq!(reopened.handle(&fetch_msg("empty")), before_empty);
        assert_ne!(before, after_append);
    }

    #[test]
    fn threshold_triggers_compaction_automatically() {
        let tmp = TempDir::new("durable-threshold").unwrap();
        let options = DurableOptions {
            compact_threshold: 512,
            snapshot_chunk_bytes: 256,
        };
        let server = Server::open(
            &ServerConfig {
                workers: Some(1),
                durable: options.clone(),
                ..ServerConfig::default()
            },
            Some(tmp.path()),
        )
        .unwrap();
        let _ = server.handle(&create_msg("t", 4));
        let first_active = server.durable_log().unwrap().segments();
        for i in 4..40u64 {
            let _ = server.handle(&append_msg("t", i));
        }
        assert_ne!(
            server.durable_log().unwrap().segments(),
            first_active,
            "threshold never fired"
        );
        let before = server.handle(&fetch_msg("t"));
        drop(server);
        let reopened = Server::open(
            &ServerConfig {
                workers: Some(1),
                durable: options,
                ..ServerConfig::default()
            },
            Some(tmp.path()),
        )
        .unwrap();
        assert_eq!(reopened.handle(&fetch_msg("t")), before);
    }

    #[test]
    fn manifest_corruption_is_detected() {
        let tmp = TempDir::new("durable-manifest").unwrap();
        {
            let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
            let _ = server.handle(&create_msg("t", 2));
        }
        let path = tmp.path().join(MANIFEST);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Server::open(&ServerConfig::default(), Some(tmp.path())),
            Err(PhError::Durability(_))
        ));
    }

    #[test]
    fn sealed_segment_corruption_is_an_error_not_a_truncation() {
        let tmp = TempDir::new("durable-sealed").unwrap();
        let sealed = {
            let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
            let _ = server.handle(&create_msg("t", 30));
            server.compact().unwrap();
            server.durable_log().unwrap().segments()[0]
        };
        let path = segment_path(tmp.path(), sealed);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Server::open(&ServerConfig::default(), Some(tmp.path())),
            Err(PhError::Durability(_))
        ));
    }

    #[test]
    fn unreferenced_segment_debris_is_swept() {
        let tmp = TempDir::new("durable-debris").unwrap();
        {
            let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
            let _ = server.handle(&create_msg("t", 3));
        }
        // Simulate a compaction that died before its manifest swap.
        let stray = segment_path(tmp.path(), 77);
        fs::write(&stray, b"half-written snapshot").unwrap();
        let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        assert!(!stray.exists(), "debris survived open");
        // And the store is intact.
        let resp = server.handle(&fetch_msg("t"));
        assert!(!resp.is_empty());
    }

    #[test]
    fn second_live_owner_is_refused_until_the_first_dies() {
        let tmp = TempDir::new("durable-lock").unwrap();
        let first = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        // A second owner of the same directory would interleave
        // appends into the active segment; it must be turned away at
        // open, before touching any state.
        assert!(matches!(
            Server::open(&ServerConfig::default(), Some(tmp.path())),
            Err(PhError::Durability(_))
        ));
        // The lock dies with its owner (kill -9 included — it's an fd
        // property, not a file that lingers), so a restart succeeds.
        drop(first);
        assert!(Server::open(&ServerConfig::default(), Some(tmp.path())).is_ok());
    }

    #[test]
    fn scrub_passes_a_clean_log_and_counts_everything() {
        let tmp = TempDir::new("durable-scrub-clean").unwrap();
        let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        let _ = server.handle(&create_msg("t", 8));
        let _ = server.handle(&append_msg("t", 8));
        server.compact().unwrap();
        let _ = server.handle(&append_msg("t", 9));
        let _ = server.handle(&delete_msg("t", vec![1]));

        let report = server.scrub().unwrap();
        assert_eq!(report.segments, 2, "sealed snapshot + active");
        assert!(report.records >= 3, "snapshot records + 2 tail mutations");
        let log = server.durable_log().unwrap();
        let expected_bytes: u64 = log
            .segments()
            .iter()
            .map(|&id| fs::metadata(segment_path(tmp.path(), id)).unwrap().len())
            .sum();
        assert_eq!(report.bytes, expected_bytes);
        // Scrub is read-only: the store still serves and mutates.
        let resp = server.handle(&append_msg("t", 10));
        assert_eq!(
            crate::protocol::ServerResponse::from_wire(&resp).unwrap(),
            crate::protocol::ServerResponse::Ok
        );
    }

    #[test]
    fn scrub_is_clean_after_torn_active_recovery() {
        // A torn active tail is the *tolerated* corruption: recovery
        // truncates it, so a scrub right after open must pass — the
        // torn bytes are gone, not latent.
        let tmp = TempDir::new("durable-scrub-torn").unwrap();
        let active = {
            let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
            let _ = server.handle(&create_msg("t", 4));
            let _ = server.handle(&append_msg("t", 4));
            server.durable_log().unwrap().active_segment_path()
        };
        let len = fs::metadata(&active).unwrap().len();
        let file = File::options().write(true).open(&active).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let recovered = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        let report = recovered.scrub().unwrap();
        assert_eq!(report.segments, 1);
        assert!(report.records >= 1);
    }

    #[test]
    fn scrub_names_a_corrupt_sealed_segment() {
        // Bit rot in a *sealed* segment is exactly what scrub exists
        // to surface before the next restart trips over it.
        let tmp = TempDir::new("durable-scrub-rot").unwrap();
        let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        let _ = server.handle(&create_msg("t", 30));
        server.compact().unwrap();
        let sealed = server.durable_log().unwrap().segments()[0];
        assert!(server.scrub().is_ok(), "clean before the flip");

        let path = segment_path(tmp.path(), sealed);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let err = server.scrub().unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("segment {sealed}")),
            "error names the segment: {msg}"
        );
        // Scrub reports; it does not poison (the recovery path owns
        // the serve/refuse decision for pre-existing damage).
        assert!(!server.durable_log().unwrap().is_poisoned());
    }

    #[test]
    fn temp_dirs_are_unique_and_removed_on_drop() {
        let a = TempDir::new("x").unwrap();
        let b = TempDir::new("x").unwrap();
        assert_ne!(a.path(), b.path());
        let path = a.path().to_path_buf();
        assert!(path.is_dir());
        drop(a);
        assert!(!path.exists());
    }

    #[test]
    fn an_index_image_naming_an_absent_table_opens_and_drops_its_entry() {
        // Before postings lived with their table, a probe racing a drop
        // could persist postings under a name no table holds. Such a
        // segment must still open: the present table's postings
        // install, the absent table's are dropped, and the index is on.
        let tmp = TempDir::new("durable-orphan-index").unwrap();
        let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        let _ = server.handle(&create_msg("t", 7));
        let active = server.durable_log().unwrap().active_segment_path();
        drop(server);
        let image: IndexImageWire = vec![
            ("gone".into(), vec![((0, vec![9; 32]), (7, vec![1]))]),
            ("t".into(), vec![((0, vec![3; 32]), (7, vec![1, 4]))]),
        ];
        let mut file = File::options().append(true).open(&active).unwrap();
        write_record(&mut file, TAG_INDEX, &[&image.to_wire()]).unwrap();
        drop(file);

        let reopened = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        assert!(reopened.index_enabled());
        assert_eq!(
            reopened.index_at_rest("t"),
            vec![((0, [3; 32]), vec![1, 4])]
        );
        assert!(reopened.index_at_rest("gone").is_empty());
        let gauges = reopened.stats_snapshot();
        let sizes = ["index_postings", "index_posting_ids"].map(|g| gauges.scalar(g));
        assert_eq!(sizes, [Some(1), Some(2)]);
    }
}
