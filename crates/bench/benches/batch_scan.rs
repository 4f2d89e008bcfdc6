//! Cross-query batch throughput: one K×S fan-out vs. one query at a
//! time.
//!
//! This bench pins two ways of running an 8-query batch over a
//! 10k-tuple table against each other:
//!
//! * `per_query_pool/P` — K separate 1-query fan-outs over a `P`-worker
//!   pool, so shard parallelism without cross-query parallelism or
//!   trapdoor sharing.
//!   `per_query_pool/1` is the baseline: one thread, each query
//!   prepared and scanned in turn.
//! * `batched_pool/P` — the batch engine: one K×S task fan-out with
//!   the per-batch trapdoor memo, so queries repeating a term (hot
//!   values repeat in real workloads; the 8-query batch has 5 distinct
//!   terms) share one prepared trapdoor *and* one match scan.
//!
//! On one core the win is the memo (duplicate terms scanned once); on
//! many cores the K×S fan-out stacks cross-query parallelism on top.
//! The `batch_scan_unique` group re-runs with 8 *distinct* terms to
//! show the memo costs nothing when nothing repeats. Results are
//! byte-identical across all engines and pool sizes — the sharding and
//! executor_pool tests enforce that; this file only measures.
//!
//! Regenerate the checked-in artifact with:
//! `CRITERION_JSON=BENCH_batch_scan.json cargo bench -p dbph-bench --bench batch_scan`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dbph_core::executor::Executor;
use dbph_core::protocol::WireTrapdoor;
use dbph_core::storage::ShardedTable;
use dbph_core::telemetry::Counter;
use dbph_core::{DatabasePh, FinalSwpPh};
use dbph_crypto::SecretKey;
use dbph_relation::Query;
use dbph_workload::EmployeeGen;

const ROWS: usize = 10_000;
const POOLS: [usize; 4] = [1, 2, 4, 8];

fn encrypt_batch(ph: &FinalSwpPh, depts: &[&str]) -> Vec<Vec<WireTrapdoor>> {
    depts
        .iter()
        .map(|d| {
            let qct = ph.encrypt_query(&Query::select("dept", *d)).unwrap();
            qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect()
        })
        .collect()
}

fn run_group(c: &mut Criterion, name: &str, sharded: &ShardedTable, batch: &[Vec<WireTrapdoor>]) {
    let slices: Vec<&[WireTrapdoor]> = batch.iter().map(Vec::as_slice).collect();

    let per_query = |pool: &Executor| -> Vec<_> {
        slices
            .iter()
            .flat_map(|q| sharded.scan_batch_on(pool, &[q], &Counter::default()))
            .collect()
    };

    // Sanity: every engine returns identical bytes per query.
    assert_eq!(
        sharded.scan_batch_on(&Executor::new(2), &slices, &Counter::default()),
        per_query(&Executor::new(1)),
        "batched engine diverged from the one-query-at-a-time baseline"
    );

    let mut group = c.benchmark_group(name);
    group.throughput(Throughput::Elements((ROWS * batch.len()) as u64));

    for workers in POOLS {
        let pool = Executor::new(workers);
        group.bench_function(BenchmarkId::new("per_query_pool", workers), |b| {
            b.iter(|| per_query(&pool))
        });
        group.bench_function(BenchmarkId::new("batched_pool", workers), |b| {
            b.iter(|| sharded.scan_batch_on(&pool, &slices, &Counter::default()))
        });
    }
    group.finish();
}

fn bench_batch_scan(c: &mut Criterion) {
    let relation = EmployeeGen {
        rows: ROWS,
        ..EmployeeGen::default()
    }
    .generate(7);
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([21u8; 32])).unwrap();
    let table = ph.encrypt_table(&relation).unwrap();
    let sharded = ShardedTable::from_arena(&table.into());

    // Headline workload: hot-term skew — 8 queries, 5 distinct terms
    // (dept-00 is hot), the shape session traces actually have.
    let skewed = encrypt_batch(
        &ph,
        &[
            "dept-00", "dept-01", "dept-02", "dept-00", "dept-03", "dept-01", "dept-00", "dept-04",
        ],
    );
    run_group(c, "batch_scan", &sharded, &skewed);

    // Adversarial-for-the-memo workload: all 8 terms distinct, so the
    // memo can only dedupe nothing; this group shows it costs ~nothing.
    let unique = encrypt_batch(
        &ph,
        &[
            "dept-00", "dept-01", "dept-02", "dept-03", "dept-04", "dept-05", "dept-06", "dept-07",
        ],
    );
    run_group(c, "batch_scan_unique", &sharded, &unique);
}

criterion_group!(benches, bench_batch_scan);
criterion_main!(benches);
