//! Telemetry overhead: what the always-on operator plane costs.
//!
//! The ISSUE-10 claim is that instrumentation is near-zero on the hot
//! path: every site is a relaxed atomic behind one `enabled` load, and
//! the only clock reads are one `Instant` pair per timed section. This
//! bench holds the claim to a number on the most instrumented path the
//! repro has — durable group-commit ingest, which crosses the request
//! histogram, the dedup counters, the fsync histogram, the barrier
//! wait histogram, and the commit-window histogram on every append:
//!
//! * `telemetry_ingest/enabled` — the default registry, collecting.
//! * `telemetry_ingest/disabled` — same server, `set_enabled(false)`:
//!   every site short-circuits on the one relaxed load.
//!
//! The two variants run the identical 8-writer × 64-append round as
//! `retry.rs` and `repl.rs`; the acceptance gate is enabled within 3% of
//! disabled. Byte-identity of responses/transcripts/segments between
//! the two is pinned separately by `tests/telemetry.rs`.
//!
//! Regenerate the checked-in artifact with:
//! `CRITERION_SAMPLE_MS=2000 CRITERION_JSON=BENCH_telemetry.json cargo bench -p dbph-bench --bench telemetry`
//! (the long sample budget matters: one round is ~11 ms of fsync-bound
//! work, so the default 150 ms samples are disk-noise-dominated).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use dbph_core::protocol::{ClientMessage, ServerResponse};
use dbph_core::wire::{WireDecode as _, WireEncode as _};
use dbph_core::{DurableOptions, Server, TempDir};
use dbph_swp::{CipherWord, SwpParams};

const WRITERS: usize = 8;
const APPENDS_PER_WRITER: u64 = 64;

fn create_msg(name: &str) -> Vec<u8> {
    ClientMessage::CreateTable {
        name: name.into(),
        table: dbph_core::EncryptedTable {
            params: SwpParams::new(13, 4, 32).unwrap(),
            docs: vec![],
            next_doc_id: 0,
        },
    }
    .to_wire()
}

fn append_msg(name: &str, id: u64) -> Vec<u8> {
    ClientMessage::Append {
        name: name.into(),
        doc_id: id,
        words: vec![CipherWord(vec![(id % 251) as u8; 13])],
    }
    .to_wire()
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

/// One concurrent durable-ingest round, identical to `retry.rs`'s,
/// with the registry flipped per variant before any traffic.
fn ingest_round(telemetry_on: bool) {
    let tmp = TempDir::new("bench-telemetry").unwrap();
    let server =
        Server::open_durable_with(tmp.path(), 2, Some(2), DurableOptions::default()).unwrap();
    server.telemetry().set_enabled(telemetry_on);
    for w in 0..WRITERS {
        ok(&server.handle(&create_msg(&format!("w{w}"))));
    }
    let threads: Vec<_> = (0..WRITERS)
        .map(|w| {
            let server = server.clone();
            std::thread::spawn(move || {
                let name = format!("w{w}");
                for id in 0..APPENDS_PER_WRITER {
                    ok(&server.handle(&append_msg(&name, id)));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

fn bench_telemetry(c: &mut Criterion) {
    let mutations = WRITERS as u64 * APPENDS_PER_WRITER;
    let mut group = c.benchmark_group("telemetry_ingest");
    group.throughput(Throughput::Elements(mutations));

    group.bench_function("enabled", |b| b.iter(|| ingest_round(true)));
    group.bench_function("disabled", |b| b.iter(|| ingest_round(false)));

    group.finish();
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
