//! Single-thread scan microbench: scalar vs. 4-lane kernel × boxed
//! vs. columnar-arena storage.
//!
//! Every cell runs the addressed scan: one check per row, against the
//! word at the term's attribute position (`dept`, word 1). The PR 3
//! hot path (`boxed/scalar`) decides one `(trapdoor, word)` pair at a
//! time over per-word `Vec<u8>` allocations: per check it
//! heap-allocates the XORed halves and the PRF output and clones two
//! SHA-256 states. PR 4 replaces both axes independently:
//!
//! * **storage** — `boxed` (one `Vec<u8>` per word) vs. `arena`
//!   (`dbph_core::WordArena`: one contiguous fixed-width slot buffer
//!   per shard);
//! * **check engine** — `scalar` (`PreparedTrapdoor::matches*`) vs.
//!   `lanes` (`dbph_swp::ScanKernel`: four checks per interleaved
//!   SHA-256 dispatch, zero per-check allocation).
//!
//! `arena/lanes` is the configuration `ShardedTable` ships; the
//! `shard_scan` bench measures it end to end. All four cells decide
//! identical match sets (asserted below; the equivalence suites pin it
//! exhaustively).
//!
//! Regenerate the checked-in artifact with:
//! `CRITERION_JSON=BENCH_scan_kernel.json cargo bench -p dbph-bench --bench scan_kernel`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dbph_core::storage::Doc;
use dbph_core::{DatabasePh, FinalSwpPh, WordArena};
use dbph_crypto::SecretKey;
use dbph_relation::Query;
use dbph_swp::{PreparedTrapdoor, ScanKernel, SwpParams};
use dbph_workload::EmployeeGen;

const ROWS: usize = 10_000;

/// The PR 3 decision loop: per document, one scalar check of the
/// addressed boxed word.
fn boxed_scalar(
    params: &SwpParams,
    docs: &[Doc],
    attr: usize,
    term: &PreparedTrapdoor,
) -> Vec<u32> {
    docs.iter()
        .enumerate()
        .filter(|(_, (_, words))| words.get(attr).is_some_and(|w| term.matches(params, w)))
        .map(|(i, _)| i as u32)
        .collect()
}

/// Scalar checks over arena word views (columnar storage, no lanes).
fn arena_scalar(
    params: &SwpParams,
    arena: &WordArena,
    attr: usize,
    term: &PreparedTrapdoor,
) -> Vec<u32> {
    (0..arena.len())
        .filter(|&i| {
            let words = arena.word_range(i);
            words.start + attr < words.end
                && term.matches_bytes(params, arena.word(words.start + attr))
        })
        .map(|i| i as u32)
        .collect()
}

/// 4-lane kernel fed from the boxed layout (lanes without the arena).
fn boxed_lanes(params: &SwpParams, docs: &[Doc], attr: usize, term: &PreparedTrapdoor) -> Vec<u32> {
    let mut kernel = ScanKernel::new(*params, term);
    let mut hits: Vec<u32> = Vec::new();
    {
        let mut sink = |tag: u32, ok: bool| {
            if ok {
                hits.push(tag);
            }
        };
        for (i, (_, words)) in docs.iter().enumerate() {
            if let Some(w) = words.get(attr) {
                kernel.push(i as u32, &w.0, &mut sink);
            }
        }
        kernel.flush(&mut sink);
    }
    hits
}

/// The shipped hot path: 4-lane kernel streaming one arena slot per
/// row.
fn arena_lanes(
    params: &SwpParams,
    arena: &WordArena,
    attr: usize,
    term: &PreparedTrapdoor,
) -> Vec<u32> {
    let mut kernel = ScanKernel::new(*params, term);
    let mut hits: Vec<u32> = Vec::new();
    {
        let mut sink = |tag: u32, ok: bool| {
            if ok {
                hits.push(tag);
            }
        };
        for i in 0..arena.len() {
            let words = arena.word_range(i);
            let w = words.start + attr;
            if let Some(slot) = (w < words.end).then(|| arena.regular_slot(w)).flatten() {
                kernel.push(i as u32, slot, &mut sink);
            }
        }
        kernel.flush(&mut sink);
    }
    hits
}

fn bench_scan_kernel(c: &mut Criterion) {
    let relation = EmployeeGen {
        rows: ROWS,
        ..EmployeeGen::default()
    }
    .generate(7);
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([21u8; 32])).unwrap();
    let table = ph.encrypt_table(&relation).unwrap();
    let params = table.params;
    // The shard_scan workload's selective query (~1/8 of the table).
    let qct = ph.encrypt_query(&Query::select("dept", "dept-02")).unwrap();
    let term = PreparedTrapdoor::new(&qct.terms[0]);
    let attr = usize::from(qct.terms[0].attr);

    let docs = table.docs;
    let arena = WordArena::from_docs(params.word_len, docs.clone());

    // Sanity: all four cells decide the same candidate set.
    let reference = boxed_scalar(&params, &docs, attr, &term);
    assert!(!reference.is_empty(), "workload must select something");
    assert_eq!(arena_scalar(&params, &arena, attr, &term), reference);
    assert_eq!(boxed_lanes(&params, &docs, attr, &term), reference);
    assert_eq!(arena_lanes(&params, &arena, attr, &term), reference);

    let mut group = c.benchmark_group("scan_kernel");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function(BenchmarkId::new("boxed", "scalar"), |b| {
        b.iter(|| boxed_scalar(&params, &docs, attr, &term))
    });
    group.bench_function(BenchmarkId::new("boxed", "lanes"), |b| {
        b.iter(|| boxed_lanes(&params, &docs, attr, &term))
    });
    group.bench_function(BenchmarkId::new("arena", "scalar"), |b| {
        b.iter(|| arena_scalar(&params, &arena, attr, &term))
    });
    group.bench_function(BenchmarkId::new("arena", "lanes"), |b| {
        b.iter(|| arena_lanes(&params, &arena, attr, &term))
    });
    group.finish();
}

criterion_group!(benches, bench_scan_kernel);
criterion_main!(benches);
