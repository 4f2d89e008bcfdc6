//! F5 — fixed-width vs. variable-length encoding (the full-version
//! optimization).
//!
//! Measures ciphertext size and encrypt/query time of the §3
//! fixed-width construction against the variable-length variant.
//! Regenerate with `cargo bench -p dbph-bench --bench encoding`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dbph_baselines::VarlenPh;
use dbph_core::{DatabasePh, FinalSwpPh};
use dbph_crypto::SecretKey;
use dbph_relation::Query;
use dbph_workload::EmployeeGen;

const ROWS: usize = 2000;

fn bench_encoding(c: &mut Criterion) {
    let schema = EmployeeGen::schema();
    let relation = EmployeeGen {
        rows: ROWS,
        ..EmployeeGen::default()
    }
    .generate(5);
    let key = SecretKey::from_bytes([22u8; 32]);
    let query = Query::select("salary", 1000i64);

    let fixed = FinalSwpPh::new(schema.clone(), &key).unwrap();
    let varlen = VarlenPh::new(schema, &key).unwrap();

    // Report ciphertext sizes once (criterion measures time; sizes go
    // to stderr so EXPERIMENTS.md can quote them).
    let fixed_ct = fixed.encrypt_table(&relation).unwrap();
    let varlen_ct = varlen.encrypt_table(&relation).unwrap();
    eprintln!(
        "# F5 ciphertext bytes over {ROWS} rows: fixed = {}, varlen = {} ({:.1}% saved)",
        fixed_ct.ciphertext_bytes(),
        varlen_ct.ciphertext_bytes(),
        100.0 * (1.0 - varlen_ct.ciphertext_bytes() as f64 / fixed_ct.ciphertext_bytes() as f64)
    );

    let mut group = c.benchmark_group("encoding_encrypt");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function(BenchmarkId::new("fixed-width", ROWS), |b| {
        b.iter(|| fixed.encrypt_table(&relation).unwrap())
    });
    group.bench_function(BenchmarkId::new("varlen", ROWS), |b| {
        b.iter(|| varlen.encrypt_table(&relation).unwrap())
    });
    group.finish();

    let fixed_q = fixed.encrypt_query(&query).unwrap();
    let varlen_q = varlen.encrypt_query(&query).unwrap();
    let mut group = c.benchmark_group("encoding_apply");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function(BenchmarkId::new("fixed-width", ROWS), |b| {
        b.iter(|| FinalSwpPh::apply(&fixed_ct, &fixed_q))
    });
    group.bench_function(BenchmarkId::new("varlen", ROWS), |b| {
        b.iter(|| VarlenPh::apply(&varlen_ct, &varlen_q))
    });
    group.finish();
}

criterion_group!(benches, bench_encoding);
criterion_main!(benches);
