//! F3 — client-side filtering cost vs. check width, and the
//! check-width × shard-count surface of the server scan.
//!
//! Smaller check widths mean cheaper comparisons but more false
//! positives for the client to decrypt and discard; this bench
//! measures the full decrypt+filter path across check widths,
//! substantiating the paper's "does not affect the efficiency" claim
//! for sane widths. The second group sweeps the *pooled* server scan
//! across `check_bits × workers`: the FP budget (check width) and the
//! throughput knob (scan pool size) are independent axes, and the
//! bench surfaces the cost of each point so the trade-off can be
//! dialed empirically. Regenerate with
//! `cargo bench -p dbph-bench --bench false_positive`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dbph_core::protocol::ClientMessage;
use dbph_core::wire::WireEncode;
use dbph_core::{DatabasePh, FinalSwpPh, Server, ServerConfig, WordCodec};
use dbph_crypto::SecretKey;
use dbph_relation::Query;
use dbph_swp::SwpParams;
use dbph_workload::EmployeeGen;

fn bench_filter(c: &mut Criterion) {
    let schema = EmployeeGen::schema();
    let relation = EmployeeGen {
        rows: 2000,
        ..EmployeeGen::default()
    }
    .generate(4);
    let query = Query::select("dept", "dept-00");
    let word_len = WordCodec::new(schema.clone()).word_len();

    let mut group = c.benchmark_group("decrypt_and_filter");
    for check_bits in [4u32, 8, 16, 32] {
        let params = SwpParams::new(word_len, 4, check_bits).unwrap();
        let ph =
            FinalSwpPh::with_params(schema.clone(), &SecretKey::from_bytes([19u8; 32]), params)
                .unwrap();
        let ct = ph.encrypt_table(&relation).unwrap();
        let qct = ph.encrypt_query(&query).unwrap();
        let server_result = FinalSwpPh::apply(&ct, &qct);

        group.bench_function(
            BenchmarkId::new(
                format!("bits={check_bits} superset={}", server_result.len()),
                check_bits,
            ),
            |b| b.iter(|| ph.decrypt_result(&server_result, &query).unwrap()),
        );
    }
    group.finish();
}

fn bench_sharded_scan(c: &mut Criterion) {
    let schema = EmployeeGen::schema();
    let relation = EmployeeGen {
        rows: 2000,
        ..EmployeeGen::default()
    }
    .generate(4);
    let query = Query::select("dept", "dept-00");
    let word_len = WordCodec::new(schema.clone()).word_len();

    let mut group = c.benchmark_group("sharded_scan_by_check_bits");
    for check_bits in [4u32, 16] {
        let params = SwpParams::new(word_len, 4, check_bits).unwrap();
        let ph =
            FinalSwpPh::with_params(schema.clone(), &SecretKey::from_bytes([19u8; 32]), params)
                .unwrap();
        let ct = ph.encrypt_table(&relation).unwrap();
        let qct = ph.encrypt_query(&query).unwrap();
        let query_msg = ClientMessage::Query {
            name: "Emp".into(),
            terms: qct
                .terms
                .iter()
                .map(dbph_core::protocol::WireTrapdoor::from_trapdoor)
                .collect(),
        }
        .to_wire();

        for workers in [1usize, 2, 4] {
            let server = Server::open(
                &ServerConfig {
                    workers: Some(workers),
                    ..ServerConfig::default()
                },
                None,
            )
            .unwrap();
            let create = ClientMessage::CreateTable {
                name: "Emp".into(),
                table: ct.clone().into(),
            }
            .to_wire();
            let _ = server.handle(&create);
            group.bench_function(
                BenchmarkId::new(format!("bits={check_bits}"), format!("workers={workers}")),
                |b| b.iter(|| server.handle(&query_msg)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_filter, bench_sharded_scan);
criterion_main!(benches);
