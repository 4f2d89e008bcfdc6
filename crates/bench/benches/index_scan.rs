//! Encrypted-inverted-index probe vs. the reference trapdoor scan.
//!
//! The scan touches every stored document per term — a keyed
//! match check per (trapdoor, word) pair, linear in the table. The
//! opt-in index ([`dbph_core::index`]; [`TableStore::query_batch`] on an
//! index-enabled store) answers a warmed term from
//! its memoized posting list: a multimap lookup, a delta scan over the
//! (empty, here) suffix appended since the posting's bound, and a
//! crypto-free reassembly of just the matching documents. On a
//! selective query over 100k documents that turns a
//! 100k-match-check scan into work proportional to the result set —
//! the sublinear gap this bench pins (≥50× on the selective shapes
//! below). Both paths return byte-identical tables; the sanity check
//! asserts it before any timing.
//!
//! `index_scan_point/cold` times a term's *first* probe, posting
//! absent: a delta scan over the whole table, one task per shard on
//! the process-wide pool. Each iteration encrypts a name never probed
//! before (a few microseconds of client work, next to the scan).
//!
//! Regenerate the checked-in artifact with:
//! `CRITERION_JSON=BENCH_index_scan.json cargo bench -p dbph-bench --bench index_scan`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dbph_core::protocol::WireTrapdoor;
use dbph_core::{DatabasePh, Executor, FinalSwpPh, TableStore};
use dbph_crypto::SecretKey;
use dbph_relation::Query;
use dbph_workload::EmployeeGen;

const ROWS: usize = 100_000;

fn terms(ph: &FinalSwpPh, query: &Query) -> Vec<WireTrapdoor> {
    let qct = ph.encrypt_query(query).unwrap();
    qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect()
}

fn bench_index_scan(c: &mut Criterion) {
    let relation = EmployeeGen {
        rows: ROWS,
        ..EmployeeGen::default()
    }
    .generate(11);
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([23u8; 32])).unwrap();
    let table = ph.encrypt_table(&relation).unwrap();
    let scan_store = TableStore::new(Executor::global());
    scan_store.create("Emp", table.clone().into()).unwrap();
    let index_store = TableStore::new(Executor::global());
    index_store.create("Emp", table.into()).unwrap();
    index_store.enable_index();
    // One query through the store's one query path; the store's index
    // switch picks the plan.
    let answer = |store: &TableStore, terms: &Vec<WireTrapdoor>| {
        store
            .query_batch("Emp", std::slice::from_ref(terms))
            .unwrap()
            .pop()
            .unwrap()
            .0
    };

    // A point query (one matching document) and a selective one
    // (~ROWS/90 salaries match) — the shapes where sublinear wins.
    let point = terms(&ph, &Query::select("name", "emp-0000042"));
    let selective = terms(&ph, &Query::select("salary", 5500i64));

    for (label, query_terms) in [("point", &point), ("selective", &selective)] {
        // First probe scans the whole table once (cold posting) and
        // memoizes; it doubles as the equivalence sanity check.
        let indexed = answer(&index_store, query_terms);
        let scanned = answer(&scan_store, query_terms);
        assert_eq!(
            indexed, scanned,
            "{label}: index and scan must agree exactly"
        );

        let mut group = c.benchmark_group(format!("index_scan_{label}"));
        group.throughput(Throughput::Elements(ROWS as u64));
        group.bench_function(BenchmarkId::new("scan", "pool"), |b| {
            b.iter(|| answer(&scan_store, query_terms))
        });
        group.bench_function(BenchmarkId::new("index", "pool"), |b| {
            b.iter(|| answer(&index_store, query_terms))
        });
        if label == "point" {
            let mut fresh = 0u64;
            group.bench_function(BenchmarkId::new("cold", "pool"), |b| {
                b.iter(|| {
                    fresh += 1;
                    let cold = terms(&ph, &Query::select("name", format!("cold-{fresh}")));
                    answer(&index_store, &cold)
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_index_scan);
criterion_main!(benches);
