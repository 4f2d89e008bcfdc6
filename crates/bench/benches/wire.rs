//! F6 — wire-format throughput.
//!
//! The outsourcing protocol ships table ciphertexts and trapdoors as
//! bytes; this bench measures serialization and deserialization of a
//! realistic table ciphertext, pinning the (small) protocol overhead
//! relative to encryption itself. Two more rows time one message each,
//! encoded and decoded: a 2 MiB `ReplRecords` chunk (one byte string,
//! the shape of a follower's bootstrap pull) and a 16-row
//! `AppendBatch` (one boxed byte string per cipher word, the shape of
//! an `insert_many` and of its replay from the log). Regenerate with
//! `cargo bench -p dbph-bench --bench wire`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dbph_core::protocol::{ClientMessage, ServerResponse};
use dbph_core::wire::{WireDecode, WireEncode};
use dbph_core::{DatabasePh, EncryptedTable, FinalSwpPh};
use dbph_crypto::SecretKey;
use dbph_workload::EmployeeGen;

const ROWS: usize = 2000;
const REPL_BYTES: usize = 2 << 20;
const BATCH_ROWS: usize = 16;

fn bench_wire(c: &mut Criterion) {
    let relation = EmployeeGen {
        rows: ROWS,
        ..EmployeeGen::default()
    }
    .generate(6);
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([23u8; 32])).unwrap();
    let table = ph.encrypt_table(&relation).unwrap();
    let bytes = table.to_wire();

    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function(BenchmarkId::new("encode", bytes.len()), |b| {
        b.iter(|| table.to_wire())
    });
    group.bench_function(BenchmarkId::new("decode", bytes.len()), |b| {
        b.iter(|| EncryptedTable::from_wire(&bytes).unwrap())
    });
    group.finish();

    let chunk = ServerResponse::ReplRecords {
        records: (0..REPL_BYTES).map(|i| (i * 31 + 7) as u8).collect(),
        next_offset: REPL_BYTES as u64,
    };
    let batch = ClientMessage::AppendBatch {
        name: "Emp".into(),
        docs: table.docs[..BATCH_ROWS].to_vec(),
    };
    let mut group = c.benchmark_group("wire_message");
    group.throughput(Throughput::Bytes(chunk.to_wire().len() as u64));
    group.bench_function(BenchmarkId::new("repl_records", REPL_BYTES), |b| {
        b.iter(|| ServerResponse::from_wire(&chunk.to_wire()).unwrap())
    });
    group.throughput(Throughput::Bytes(batch.to_wire().len() as u64));
    group.bench_function(BenchmarkId::new("append_batch", BATCH_ROWS), |b| {
        b.iter(|| ClientMessage::from_wire(&batch.to_wire()).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
