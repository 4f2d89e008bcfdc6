//! Durability cost: ingest overhead and cold-recovery time.
//!
//! Two questions decide whether the segment log is deployable:
//!
//! * **Ingest overhead** — what does fsync-per-batch durability cost
//!   against the in-memory server on a write-heavy workload? Measured
//!   by streaming the same 10k-tuple session (one empty `CreateTable`
//!   plus 500-document `AppendBatch` messages, each batch one fsync'd
//!   log record) into a fresh in-memory vs. a fresh durable server.
//! * **Cold recovery** — how fast does a killed server come back?
//!   Measured by reopening a prepared data directory holding a
//!   *churned* 10k-tuple history (small append batches with
//!   interleaved deletes — the shape an incremental workload actually
//!   leaves behind), once as the raw mutation log (every record
//!   replayed, deletes included) and once compacted into a sealed
//!   snapshot segment (only live documents, streamed straight back
//!   into columnar shards via the arena-to-arena path). The gap is
//!   what compaction buys at restart.
//!
//! Regenerate the checked-in artifact with:
//! `CRITERION_JSON=BENCH_persist.json cargo bench -p dbph-bench --bench persist`

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use dbph_core::protocol::{ClientMessage, ServerResponse};
use dbph_core::wire::{WireDecode as _, WireEncode as _};
use dbph_core::{DatabasePh, FinalSwpPh, Server, ServerConfig, TempDir};
use dbph_crypto::SecretKey;
use dbph_workload::EmployeeGen;

const ROWS: usize = 10_000;
const BATCH: usize = 500;

/// The ingest session, pre-encoded: create an empty table, then append
/// the whole workload in 500-document batches (each batch is one
/// round-trip and, durably, one fsync'd record).
fn ingest_messages() -> Vec<Vec<u8>> {
    let relation = EmployeeGen {
        rows: ROWS,
        ..EmployeeGen::default()
    }
    .generate(11);
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([23u8; 32])).unwrap();
    let table = ph.encrypt_table(&relation).unwrap();

    let mut empty = table.clone();
    empty.docs.clear();
    empty.next_doc_id = 0;
    let mut msgs = vec![ClientMessage::CreateTable {
        name: "Emp".into(),
        table: empty.into(),
    }
    .to_wire()];
    let mut docs = table.docs.into_iter().peekable();
    while docs.peek().is_some() {
        msgs.push(
            ClientMessage::AppendBatch {
                name: "Emp".into(),
                docs: docs.by_ref().take(BATCH).collect(),
            }
            .to_wire(),
        );
    }
    msgs
}

fn drive(server: &Server, messages: &[Vec<u8>]) {
    for m in messages {
        let resp = server.handle(m);
        assert!(
            !matches!(
                ServerResponse::from_wire(&resp).unwrap(),
                ServerResponse::Error(_)
            ),
            "ingest message rejected"
        );
    }
}

/// The churned history behind the recovery benches: the same 10k
/// tuples ingested in 10-document batches, with a delete of four
/// documents from the previous batch after every odd batch — 1500+
/// records whose replay does the work compaction later erases.
/// Returns the messages and the surviving document count.
fn churn_messages() -> (Vec<Vec<u8>>, usize) {
    let relation = EmployeeGen {
        rows: ROWS,
        ..EmployeeGen::default()
    }
    .generate(13);
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([29u8; 32])).unwrap();
    let table = ph.encrypt_table(&relation).unwrap();

    let mut empty = table.clone();
    empty.docs.clear();
    empty.next_doc_id = 0;
    let mut msgs = vec![ClientMessage::CreateTable {
        name: "Emp".into(),
        table: empty.into(),
    }
    .to_wire()];
    const SMALL: usize = 10;
    let mut removed = 0usize;
    for (k, batch) in table.docs.chunks(SMALL).enumerate() {
        msgs.push(
            ClientMessage::AppendBatch {
                name: "Emp".into(),
                docs: batch.to_vec(),
            }
            .to_wire(),
        );
        if k % 2 == 1 {
            let prev = ((k - 1) * SMALL) as u64;
            msgs.push(
                ClientMessage::DeleteDocs {
                    name: "Emp".into(),
                    doc_ids: (prev..prev + 4).collect(),
                }
                .to_wire(),
            );
            removed += 4;
        }
    }
    (msgs, ROWS - removed)
}

fn expect_rows(server: &Server, rows: usize) {
    let resp = server.handle(&ClientMessage::FetchAll { name: "Emp".into() }.to_wire());
    match ServerResponse::from_wire(&resp).unwrap() {
        ServerResponse::Table(t) => assert_eq!(t.len(), rows, "lost tuples"),
        other => panic!("unexpected {other:?}"),
    }
}

fn bench_persist(c: &mut Criterion) {
    let messages = ingest_messages();

    let mut group = c.benchmark_group("persist/ingest");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function("in_memory", |b| {
        b.iter(|| {
            let server = Server::open(&ServerConfig::default(), None).unwrap();
            drive(&server, &messages);
            server
        });
    });
    group.bench_function("durable", |b| {
        b.iter(|| {
            let tmp = TempDir::new("bench-ingest").unwrap();
            let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
            drive(&server, &messages);
            (server, tmp)
        });
    });
    group.finish();

    // Prepared directories for the recovery benches: the identical
    // churned store persisted as the raw mutation log and as a
    // compacted snapshot segment.
    let (churn, live_rows) = churn_messages();
    let log_dir = TempDir::new("bench-recover-log").unwrap();
    {
        let server = Server::open(&ServerConfig::default(), Some(log_dir.path())).unwrap();
        drive(&server, &churn);
    }
    let snap_dir = TempDir::new("bench-recover-snap").unwrap();
    {
        let server = Server::open(&ServerConfig::default(), Some(snap_dir.path())).unwrap();
        drive(&server, &churn);
        server.compact().unwrap();
    }

    let mut group = c.benchmark_group("persist/recover");
    group.throughput(Throughput::Elements(live_rows as u64));
    group.bench_function("from_log", |b| {
        b.iter(|| {
            let server = Server::open(&ServerConfig::default(), Some(log_dir.path())).unwrap();
            expect_rows(&server, live_rows);
            server
        });
    });
    group.bench_function("from_snapshot", |b| {
        b.iter(|| {
            let server = Server::open(&ServerConfig::default(), Some(snap_dir.path())).unwrap();
            expect_rows(&server, live_rows);
            server
        });
    });
    group.finish();
}

criterion_group!(benches, bench_persist);
criterion_main!(benches);
