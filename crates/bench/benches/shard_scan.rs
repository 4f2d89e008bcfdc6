//! Sharded scan engine vs. the seed single-threaded scan.
//!
//! The server-side `ψ` is a full trapdoor scan; this bench pins the
//! throughput of the seed reference (`dbph_core::swp_ph::execute_query`,
//! which re-runs the HMAC key schedule per `(trapdoor, word)` pair)
//! against the sharded engine (`ShardedTable::scan_batch_on` with a
//! one-query batch, which prepares each trapdoor once and fans the
//! table's fixed-capacity shards out over a worker pool), across pool
//! sizes (`pooled/W` runs on a dedicated `W`-worker pool; `pooled/1`
//! runs every shard inline on the caller's thread). On a single core
//! the win comes from the hoisted key schedule; on multicore hardware
//! the workers add scaling on top. Results are byte-identical across
//! all configurations — the sharding tests enforce that; this file
//! only measures.
//!
//! Regenerate the checked-in artifact with:
//! `CRITERION_JSON=BENCH_shard_scan.json cargo bench -p dbph-bench --bench shard_scan`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dbph_core::executor::Executor;
use dbph_core::protocol::WireTrapdoor;
use dbph_core::storage::ShardedTable;
use dbph_core::swp_ph::execute_query;
use dbph_core::telemetry::Counter;
use dbph_core::{ColumnarTable, DatabasePh, FinalSwpPh};
use dbph_crypto::SecretKey;
use dbph_relation::query::ExactSelect;
use dbph_relation::Query;
use dbph_workload::EmployeeGen;

const ROWS: usize = 10_000;
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// `ψ` for one query on `pool`.
fn scan(
    pool: &Executor,
    sharded: &ShardedTable,
    terms: &[WireTrapdoor],
) -> dbph_core::EncryptedTable {
    sharded
        .scan_batch_on(pool, &[terms], &Counter::default())
        .pop()
        .expect("one query, one table")
}

fn bench_shard_scan(c: &mut Criterion) {
    let relation = EmployeeGen {
        rows: ROWS,
        ..EmployeeGen::default()
    }
    .generate(7);
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([21u8; 32])).unwrap();
    let table = ph.encrypt_table(&relation).unwrap();
    // A selective query (~1/8 of the table matches) — the paper's
    // exact-select workhorse.
    let qct = ph.encrypt_query(&Query::select("dept", "dept-02")).unwrap();
    let terms: Vec<WireTrapdoor> = qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect();

    // Sanity: every configuration returns the same result set.
    let sharded = ShardedTable::from_arena(&ColumnarTable::from(table.clone()));
    let pools = WORKERS.map(Executor::new);
    let reference = execute_query(&table, &terms);
    for pool in &pools {
        assert_eq!(
            scan(pool, &sharded, &terms),
            reference,
            "sharded scan diverged at {} worker(s)",
            pool.workers()
        );
    }

    let mut group = c.benchmark_group("shard_scan");
    group.throughput(Throughput::Elements(ROWS as u64));

    group.bench_function(BenchmarkId::new("seed", "execute_query"), |b| {
        b.iter(|| execute_query(&table, &terms))
    });

    for pool in &pools {
        group.bench_function(BenchmarkId::new("pooled", pool.workers()), |b| {
            b.iter(|| scan(pool, &sharded, &terms))
        });
    }
    group.finish();

    // Conjunctive queries stress per-term preparation harder.
    let conj = Query::conjunction(vec![
        ExactSelect::new("dept", "dept-02"),
        ExactSelect::new("salary", 5500i64),
    ])
    .unwrap();
    let qct = ph.encrypt_query(&conj).unwrap();
    let conj_terms: Vec<WireTrapdoor> = qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect();

    let mut group = c.benchmark_group("shard_scan_conjunction");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function(BenchmarkId::new("seed", "execute_query"), |b| {
        b.iter(|| execute_query(&table, &conj_terms))
    });
    for pool in [&pools[0], &pools[2]] {
        group.bench_function(BenchmarkId::new("pooled", pool.workers()), |b| {
            b.iter(|| scan(pool, &sharded, &conj_terms))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shard_scan);
criterion_main!(benches);
