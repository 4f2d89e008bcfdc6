//! What the exactly-once envelope costs on the write path.
//!
//! Every tagged mutation takes one dedup-window lookup before apply
//! and one insert (plus eviction bookkeeping) after — a few `BTreeMap`
//! operations under a mutex, against a write path whose cost is
//! dominated by the group-commit `fdatasync` barrier. This bench pins
//! that intuition with numbers: an 8-writer × 64-append durable
//! ingest (the same round `repl.rs` and `telemetry.rs` time), once
//! with plain mutations and once with every
//! append wrapped in a `(client_id, seq)` envelope (each writer its
//! own client id, sequential seqs — the pattern the retrying pooled
//! client produces).
//!
//! The acceptance bar is the tagged run staying within a few percent
//! of the untagged one; the exactly-once semantics themselves are
//! pinned by `tests/chaos.rs`, this file only measures the toll.
//!
//! Regenerate the checked-in artifact with:
//! `CRITERION_JSON=BENCH_retry.json cargo bench -p dbph-bench --bench retry`

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use dbph_core::protocol::{ClientMessage, ServerResponse};
use dbph_core::wire::{WireDecode as _, WireEncode as _};
use dbph_core::{DurableOptions, Server, TempDir};
use dbph_swp::{CipherWord, SwpParams};

const WRITERS: usize = 8;
const APPENDS_PER_WRITER: u64 = 64;

fn create_msg(name: &str) -> ClientMessage {
    ClientMessage::CreateTable {
        name: name.into(),
        table: dbph_core::EncryptedTable {
            params: SwpParams::new(13, 4, 32).unwrap(),
            docs: vec![],
            next_doc_id: 0,
        },
    }
}

fn append_msg(name: &str, id: u64) -> ClientMessage {
    ClientMessage::Append {
        name: name.into(),
        doc_id: id,
        words: vec![CipherWord(vec![(id % 251) as u8; 13])],
    }
}

fn ok(resp: &[u8]) {
    assert!(
        !matches!(
            ServerResponse::from_wire(resp).unwrap(),
            ServerResponse::Error(_)
        ),
        "bench mutation rejected"
    );
}

/// The 8-writer durable ingest round, parameterized over whether
/// mutations ride the request envelope: fresh dir, durable server,
/// 8 writers × 64 appends into per-writer tables. With `tagged`,
/// writer `w` sends as client `w` with sequential seqs, exercising
/// the dedup window's begin/complete/evict path on every append.
fn ingest_round(tagged: bool) {
    let tmp = TempDir::new("bench-retry").unwrap();
    let server =
        Server::open_durable_with(tmp.path(), 2, Some(2), DurableOptions::default()).unwrap();
    for w in 0..WRITERS {
        ok(&server.handle(&create_msg(&format!("w{w}")).to_wire()));
    }
    let threads: Vec<_> = (0..WRITERS)
        .map(|w| {
            let server = server.clone();
            std::thread::spawn(move || {
                let name = format!("w{w}");
                for id in 0..APPENDS_PER_WRITER {
                    let msg = append_msg(&name, id);
                    let bytes = if tagged {
                        msg.tagged(w as u64, id + 1).to_wire()
                    } else {
                        msg.to_wire()
                    };
                    ok(&server.handle(&bytes));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

fn bench_retry(c: &mut Criterion) {
    let mutations = WRITERS as u64 * APPENDS_PER_WRITER;
    let mut group = c.benchmark_group("retry");
    group.throughput(Throughput::Elements(mutations));

    group.bench_function("untagged_ingest", |b| b.iter(|| ingest_round(false)));
    group.bench_function("tagged_dedup_ingest", |b| b.iter(|| ingest_round(true)));

    group.finish();
}

criterion_group!(benches, bench_retry);
criterion_main!(benches);
