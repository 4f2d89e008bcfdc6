//! F1 — table-encryption throughput (tuples/s) across schemes.
//!
//! Quantifies the cost of the paper's construction relative to the
//! baselines it replaces and the plaintext floor. Regenerate with
//! `cargo bench -p dbph-bench --bench encrypt`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dbph_baselines::{
    BucketConfig, BucketizationPh, DamianiPh, DeterministicPh, PlaintextPh, VarlenPh,
};
use dbph_core::{DatabasePh, FinalSwpPh};
use dbph_crypto::SecretKey;
use dbph_workload::EmployeeGen;

const ROWS: usize = 1000;

fn master() -> SecretKey {
    SecretKey::from_bytes([17u8; 32])
}

fn bench_encrypt(c: &mut Criterion) {
    let relation = EmployeeGen {
        rows: ROWS,
        ..EmployeeGen::default()
    }
    .generate(1);
    let schema = EmployeeGen::schema();

    let mut group = c.benchmark_group("table_encrypt");
    group.throughput(Throughput::Elements(ROWS as u64));

    let swp = FinalSwpPh::new(schema.clone(), &master()).unwrap();
    group.bench_function(BenchmarkId::new("swp-final", ROWS), |b| {
        b.iter(|| swp.encrypt_table(&relation).unwrap())
    });

    let varlen = VarlenPh::new(schema.clone(), &master()).unwrap();
    group.bench_function(BenchmarkId::new("swp-varlen", ROWS), |b| {
        b.iter(|| varlen.encrypt_table(&relation).unwrap())
    });

    let cfg = BucketConfig::uniform(&schema, 16, (0, 10_000)).unwrap();
    let buckets = BucketizationPh::new(schema.clone(), cfg, &master()).unwrap();
    group.bench_function(BenchmarkId::new("hacigumus-buckets", ROWS), |b| {
        b.iter(|| buckets.encrypt_table(&relation).unwrap())
    });

    let damiani = DamianiPh::new(schema.clone(), &master()).unwrap();
    group.bench_function(BenchmarkId::new("damiani-hash", ROWS), |b| {
        b.iter(|| damiani.encrypt_table(&relation).unwrap())
    });

    let det = DeterministicPh::new(schema.clone(), &master());
    group.bench_function(BenchmarkId::new("deterministic-ecb", ROWS), |b| {
        b.iter(|| det.encrypt_table(&relation).unwrap())
    });

    let plain = PlaintextPh::new(schema);
    group.bench_function(BenchmarkId::new("plaintext", ROWS), |b| {
        b.iter(|| plain.encrypt_table(&relation).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_encrypt);
criterion_main!(benches);
