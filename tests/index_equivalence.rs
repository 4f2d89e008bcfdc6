//! Index ≡ scan equivalence: the opt-in encrypted inverted index must
//! be invisible in every response, and — switched off — invisible
//! everywhere.
//!
//! Four obligations, matching `dbph::core::index`'s contract:
//!
//! 1. **Byte-identical responses.** For any session (uploads, queries,
//!    append/delete churn through new and merged shards, query
//!    batches, fetches), an index-enabled server's raw wire responses
//!    equal the scan-only server's, across table sizes × pool sizes. The SWP
//!    match decision is deterministic per (trapdoor, word) — false
//!    positives included — so this is exact equality, not set
//!    equality.
//! 2. **Off means off.** With the index disabled (the default) the
//!    whole observable surface — responses *and* observer transcript —
//!    is byte-identical to the scan-only baseline, and no `IndexProbe`
//!    event ever appears. Enabled, the transcript gains exactly the
//!    probe events; the `Query` events (terms + matched ids) stay
//!    identical.
//! 3. **Durable skip-when-off.** Compaction writes the multimap
//!    snapshot record only when the index is enabled *and* non-empty:
//!    a scan-only data directory and an enabled-but-never-probed one
//!    are file-for-file byte-identical; a warmed index adds its record
//!    and survives kill + recovery with the same at-rest image.
//! 4. **Randomized equivalence.** Proptest drives random relations and
//!    churn schedules through both plans and requires byte-equal
//!    responses throughout.

use dbph::core::protocol::{ClientMessage, ServerResponse, WireTrapdoor};
use dbph::core::server::ServerEvent;
use dbph::core::storage::SHARD_DOCS;
use dbph::core::wire::{WireDecode, WireEncode};
use dbph::core::{DatabasePh, FinalSwpPh, Server, ServerConfig, TempDir};
use dbph::crypto::SecretKey;
use dbph::relation::{Query, Relation, Tuple, Value};
use dbph::workload::EmployeeGen;

use proptest::prelude::*;

const POOL_SIZES: [usize; 2] = [1, 4];

fn master() -> SecretKey {
    SecretKey::from_bytes([77u8; 32])
}

fn ph() -> FinalSwpPh {
    FinalSwpPh::new(EmployeeGen::schema(), &master()).unwrap()
}

fn sample_queries() -> Vec<Query> {
    vec![
        Query::select("dept", "dept-00"),
        Query::select("dept", "dept-03"),
        Query::select("salary", 5500i64),
        Query::select("name", "emp-0000042"),
        Query::select("name", "no-such-emp"),
    ]
}

fn encrypt(scheme: &FinalSwpPh, q: &Query) -> Vec<WireTrapdoor> {
    let qct = scheme.encrypt_query(q).unwrap();
    qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect()
}

/// A churn-heavy session: warm queries, a large append batch (enough
/// to start new shards), re-queries (delta catch-up), a wide delete
/// (posting purge + hollowed-shard merges), re-queries, duplicate-heavy query batches, and a final
/// fetch. Returns every raw response.
fn drive_churn_session(server: &Server, relation: &Relation, queries: &[Query]) -> Vec<Vec<u8>> {
    let scheme = ph();
    let table = scheme.encrypt_table(relation).unwrap();
    let base = relation.len() as u64;
    let mut responses = Vec::new();
    let mut send = |msg: ClientMessage| responses.push(server.handle(&msg.to_wire()));

    send(ClientMessage::CreateTable {
        name: "Emp".into(),
        table: table.into(),
    });
    // Round 1: warms one posting per distinct term when the index is on.
    for query in queries {
        send(ClientMessage::Query {
            name: "Emp".into(),
            terms: encrypt(&scheme, query),
        });
    }
    // Append churn past the rebalance threshold; the new docs reuse the
    // generator's value domains so warmed postings must catch up.
    let extra = scheme
        .encrypt_table(
            &EmployeeGen {
                rows: 180,
                ..EmployeeGen::default()
            }
            .generate(21),
        )
        .unwrap();
    send(ClientMessage::AppendBatch {
        name: "Emp".into(),
        docs: extra
            .docs
            .iter()
            .enumerate()
            .map(|(i, (_, words))| (base + i as u64, words.clone()))
            .collect(),
    });
    // Round 2: every warmed posting is stale (bound < next id) — the
    // delta scan must make indexed answers equal fresh scans.
    for query in queries {
        send(ClientMessage::Query {
            name: "Emp".into(),
            terms: encrypt(&scheme, query),
        });
    }
    // Delete a third of the original docs (plus repeats and a miss):
    // purges postings and hollows early shards into merges.
    let mut victims: Vec<u64> = (0..base).step_by(3).collect();
    victims.push(0);
    victims.push(999_999);
    send(ClientMessage::DeleteDocs {
        name: "Emp".into(),
        doc_ids: victims,
    });
    // Round 3: postings must have forgotten the purged docs.
    for query in queries {
        send(ClientMessage::Query {
            name: "Emp".into(),
            terms: encrypt(&scheme, query),
        });
    }
    // Batches: duplicates share the multimap entry; the empty
    // conjunction and the empty batch exercise the degenerate plans.
    send(ClientMessage::QueryBatch {
        name: "Emp".into(),
        queries: vec![
            encrypt(&scheme, &Query::select("dept", "dept-00")),
            encrypt(&scheme, &Query::select("dept", "dept-00")),
            vec![],
            encrypt(&scheme, &Query::select("salary", 5500i64)),
        ],
    });
    send(ClientMessage::QueryBatch {
        name: "Emp".into(),
        queries: vec![],
    });
    send(ClientMessage::FetchAll { name: "Emp".into() });
    responses
}

/// The transcript with `IndexProbe` events removed — everything the
/// scan-only server would have recorded.
fn without_probes(events: Vec<ServerEvent>) -> Vec<ServerEvent> {
    events
        .into_iter()
        .filter(|e| !matches!(e, ServerEvent::IndexProbe { .. }))
        .collect()
}

fn probe_count(events: &[ServerEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, ServerEvent::IndexProbe { .. }))
        .count()
}

#[test]
fn indexed_responses_byte_identical_to_scan_across_shards_and_pools() {
    // One size inside the first shard, one spanning four: the churn
    // session's deletes then hollow shards into merges.
    for rows in [SHARD_DOCS - 1, 3 * SHARD_DOCS + 5] {
        let relation = EmployeeGen {
            rows,
            ..EmployeeGen::default()
        }
        .generate(9);
        let queries = sample_queries();

        let baseline = Server::open(
            &ServerConfig {
                workers: Some(1),
                transcript: true,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        let baseline_responses = drive_churn_session(&baseline, &relation, &queries);
        let baseline_events = baseline.observer().events();
        assert!(
            !baseline_events.is_empty(),
            "the baseline recorded no events"
        );
        assert_eq!(
            probe_count(&baseline_events),
            0,
            "the default server must never probe"
        );

        for workers in POOL_SIZES {
            // Off: the whole observable surface matches the baseline.
            let off = Server::open(
                &ServerConfig {
                    workers: Some(workers),
                    transcript: true,
                    ..ServerConfig::default()
                },
                None,
            )
            .unwrap();
            let off_responses = drive_churn_session(&off, &relation, &queries);
            assert_eq!(
                off_responses, baseline_responses,
                "index-off responses diverged at {rows} rows × {workers} worker(s)"
            );
            assert_eq!(
                off.observer().events(),
                baseline_events,
                "index-off transcript diverged at {rows} rows × {workers} worker(s)"
            );

            // On: responses still byte-identical; the transcript gains
            // probe events and nothing else.
            let on = Server::open(
                &ServerConfig {
                    workers: Some(workers),
                    index: true,
                    transcript: true,
                    ..ServerConfig::default()
                },
                None,
            )
            .unwrap();
            assert!(on.index_enabled());
            let on_responses = drive_churn_session(&on, &relation, &queries);
            assert_eq!(
                on_responses, baseline_responses,
                "indexed responses diverged at {rows} rows × {workers} worker(s)"
            );
            let on_events = on.observer().events();
            assert!(
                probe_count(&on_events) > 0,
                "enabled index must record probes"
            );
            assert_eq!(
                without_probes(on_events),
                baseline_events,
                "indexed transcript (probes aside) diverged at {rows}×{workers}"
            );
        }
    }
}

/// Responses, transcript and SWP check count of a session whose
/// probes check at least 512 documents — the threshold past which
/// both plans hand their shard tasks to the pool: 600-row cold probes,
/// a 600-row append, and delta scans over it.
fn drive_pooled_session(server: &Server) -> (Vec<Vec<u8>>, Vec<ServerEvent>, Option<u64>) {
    let scheme = ph();
    let rows = |rows, seed| {
        let relation = EmployeeGen {
            rows,
            ..EmployeeGen::default()
        }
        .generate(seed);
        scheme.encrypt_table(&relation).unwrap()
    };
    let mut queries: Vec<Vec<WireTrapdoor>> = sample_queries()
        .iter()
        .map(|q| encrypt(&scheme, q))
        .collect();
    // A conjunction: its second term is probed only while the first
    // leaves survivors.
    queries.push(
        [
            encrypt(&scheme, &Query::select("dept", "dept-03")),
            encrypt(&scheme, &Query::select("salary", 5500i64)),
        ]
        .concat(),
    );
    let mut responses = Vec::new();
    let mut send = |msg: ClientMessage| responses.push(server.handle(&msg.to_wire()));
    send(ClientMessage::CreateTable {
        name: "Emp".into(),
        table: rows(600, 9).into(),
    });
    for round in 0..2 {
        if round == 1 {
            send(ClientMessage::AppendBatch {
                name: "Emp".into(),
                docs: rows(600, 21)
                    .docs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (_, words))| (600 + i as u64, words))
                    .collect(),
            });
        }
        // One by one, then as a batch whose repeats reuse the postings
        // its earlier queries installed.
        for terms in &queries {
            send(ClientMessage::Query {
                name: "Emp".into(),
                terms: terms.clone(),
            });
        }
        send(ClientMessage::QueryBatch {
            name: "Emp".into(),
            queries: [queries.clone(), queries.clone()].concat(),
        });
    }
    let checks = server.stats_snapshot().scalar("scan_checks");
    (responses, server.observer().events(), checks)
}

#[test]
fn pooled_probes_and_delta_scans_match_the_inline_plan_and_the_scan() {
    let open = |workers, index| {
        let config = ServerConfig {
            workers: Some(workers),
            index,
            transcript: true,
            ..ServerConfig::default()
        };
        Server::open(&config, None).unwrap()
    };
    let (scan_responses, scan_events, _) = drive_pooled_session(&open(1, false));
    let reference = open(1, true);
    let (responses, events, checks) = drive_pooled_session(&reference);
    assert_eq!(
        responses, scan_responses,
        "index plan diverged from the scan"
    );
    assert!(!scan_events.is_empty(), "the scan recorded no events");
    assert_eq!(without_probes(events.clone()), scan_events);
    assert!(probe_count(&events) > 0);
    for workers in [1, 2, 4] {
        let server = open(workers, true);
        let run = drive_pooled_session(&server);
        assert_eq!(
            run,
            (responses.clone(), events.clone(), checks),
            "pooled index plan diverged at {workers} worker(s)"
        );
        // Past the threshold a multi-worker pool takes the probes'
        // tasks; a one-worker pool runs them inline.
        let tasks = server.stats_snapshot().scalar("exec_tasks").unwrap();
        assert_eq!(tasks > 0, workers > 1, "{workers} worker(s): {tasks} tasks");
    }
}

#[test]
fn error_paths_match_with_index_on() {
    // The planner must not change failure shapes: unknown tables (and
    // even the empty batch against one) and a refused upload render the
    // same error bytes whichever plan would have run.
    let scheme = ph();
    let q = encrypt(&scheme, &Query::select("dept", "dept-00"));
    let msgs = [
        ClientMessage::CreateTable {
            name: "Emp".into(),
            table: reversed_upload(&scheme, 60).into(),
        }
        .to_wire(),
        ClientMessage::Query {
            name: "nope".into(),
            terms: q.clone(),
        }
        .to_wire(),
        ClientMessage::QueryBatch {
            name: "nope".into(),
            queries: vec![],
        }
        .to_wire(),
        ClientMessage::QueryBatch {
            name: "nope".into(),
            queries: vec![q],
        }
        .to_wire(),
    ];
    let off = Server::open(
        &ServerConfig {
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let on = Server::open(
        &ServerConfig {
            index: true,
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    for m in &msgs {
        assert_eq!(on.handle(m), off.handle(m), "error bytes diverged");
    }
}

/// An `rows`-row `Emp` table with its documents in reverse id order —
/// an upload the store must refuse, since every id-anchored read
/// (chunked fetch, the index's delta scan and reassembly) assumes ids
/// rise in table order.
fn reversed_upload(scheme: &FinalSwpPh, rows: usize) -> dbph::core::EncryptedTable {
    let relation = EmployeeGen {
        rows,
        ..EmployeeGen::default()
    }
    .generate(9);
    let mut table = scheme.encrypt_table(&relation).unwrap();
    table.docs.reverse();
    table
}

#[test]
fn reversed_upload_is_refused_so_both_plans_answer_alike() {
    // Were it accepted, the scan plan would answer `dept=dept-00` with
    // 6 rows and the index plan with 0 (the delta scan and reassembly
    // assume ascending ids), and a budgeted chunk stream would end
    // after 3 of the 60 documents.
    let scheme = ph();
    let table = reversed_upload(&scheme, 60);
    let off = Server::open(
        &ServerConfig {
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let on = Server::open(
        &ServerConfig {
            index: true,
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let query = ClientMessage::Query {
        name: "Emp".into(),
        terms: encrypt(&scheme, &Query::select("dept", "dept-00")),
    }
    .to_wire();
    let create = |table: dbph::core::EncryptedTable| {
        ClientMessage::CreateTable {
            name: "Emp".into(),
            table: table.into(),
        }
        .to_wire()
    };
    for server in [&off, &on] {
        let refused = ServerResponse::from_wire(&server.handle(&create(table.clone()))).unwrap();
        assert!(
            matches!(&refused, ServerResponse::Error(e) if e.contains("stale doc id")),
            "reversed upload accepted: {refused:?}"
        );
        assert!(server.table_names().is_empty(), "nothing may be stored");
    }
    assert_eq!(on.handle(&query), off.handle(&query));

    // The same documents in id order are accepted and answered alike.
    let mut ordered = table;
    ordered.docs.reverse();
    for server in [&off, &on] {
        let created = ServerResponse::from_wire(&server.handle(&create(ordered.clone()))).unwrap();
        assert_eq!(created, ServerResponse::Ok);
    }
    let answer = off.handle(&query);
    assert_eq!(on.handle(&query), answer);
    match ServerResponse::from_wire(&answer).unwrap() {
        ServerResponse::Table(t) => assert!(!t.docs.is_empty(), "dept-00 has rows"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn index_snapshot_record_is_skipped_when_off_and_survives_restart_when_on() {
    let relation = EmployeeGen {
        rows: 120,
        ..EmployeeGen::default()
    }
    .generate(9);
    let queries = sample_queries();

    // Every named file under a data directory, name → bytes.
    let dir_image = |dir: &std::path::Path| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };

    let run = |enable: bool, probe: bool| {
        let tmp = TempDir::new("index-skip").unwrap();
        let server = Server::open(
            &ServerConfig {
                workers: Some(1),
                index: enable,
                transcript: true,
                ..ServerConfig::default()
            },
            Some(tmp.path()),
        )
        .unwrap();
        let scheme = ph();
        let table = scheme.encrypt_table(&relation).unwrap();
        let _ = server.handle(
            &ClientMessage::CreateTable {
                name: "Emp".into(),
                table: table.into(),
            }
            .to_wire(),
        );
        if probe {
            for query in &queries {
                let _ = server.handle(
                    &ClientMessage::Query {
                        name: "Emp".into(),
                        terms: encrypt(&scheme, query),
                    }
                    .to_wire(),
                );
            }
        }
        server.compact().unwrap();
        let at_rest = server.index_at_rest("Emp");
        drop(server);
        (tmp, at_rest)
    };

    // Off, and on-but-never-probed (empty multimap), must write the
    // exact same files: the record kind only exists once it has
    // content to persist.
    let (off_dir, off_at_rest) = run(false, true);
    let (unprobed_dir, _) = run(true, false);
    assert!(
        off_at_rest.is_empty(),
        "scan-only server must hold no postings"
    );
    assert_eq!(
        dir_image(off_dir.path()),
        dir_image(unprobed_dir.path()),
        "an empty multimap must not change the disk image"
    );

    // Warmed: the snapshot gains the index record...
    let (on_dir, on_at_rest) = run(true, true);
    assert!(!on_at_rest.is_empty(), "probed index must hold postings");
    assert_ne!(
        dir_image(off_dir.path()),
        dir_image(on_dir.path()),
        "a warmed multimap must be persisted by compaction"
    );

    // ...and recovery restores both the enablement and the image, so
    // post-restart answers still match a scan server fed the same
    // session.
    let recovered = Server::open(
        &ServerConfig {
            workers: Some(1),
            transcript: true,
            ..ServerConfig::default()
        },
        Some(on_dir.path()),
    )
    .unwrap();
    assert!(
        recovered.index_enabled(),
        "a persisted index implies the plan was on"
    );
    assert_eq!(
        recovered.index_at_rest("Emp"),
        on_at_rest,
        "recovered at-rest image diverged"
    );
    let reference = Server::open(
        &ServerConfig {
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let scheme = ph();
    let table = scheme.encrypt_table(&relation).unwrap();
    let _ = reference.handle(
        &ClientMessage::CreateTable {
            name: "Emp".into(),
            table: table.into(),
        }
        .to_wire(),
    );
    for query in &queries {
        let msg = ClientMessage::Query {
            name: "Emp".into(),
            terms: encrypt(&scheme, query),
        }
        .to_wire();
        assert_eq!(
            recovered.handle(&msg),
            reference.handle(&msg),
            "post-restart indexed answer diverged from the scan for {query}"
        );
    }
    drop(recovered);

    // Opening with `index: true` equals recovering and then switching
    // the index on, on a log with an index image and on logs without
    // one: same flag, at-rest image, answers and transcript.
    let config = |index: bool| ServerConfig {
        workers: Some(1),
        index,
        transcript: true,
        ..ServerConfig::default()
    };
    let messages: Vec<Vec<u8>> = queries
        .iter()
        .map(|query| {
            ClientMessage::Query {
                name: "Emp".into(),
                terms: encrypt(&scheme, query),
            }
            .to_wire()
        })
        .collect();
    let session = |server: Server| {
        let before = server.index_at_rest("Emp");
        let answers: Vec<Vec<u8>> = messages.iter().map(|m| server.handle(m)).collect();
        (
            server.index_enabled(),
            before,
            answers,
            server.observer().events(),
            server.index_at_rest("Emp"),
        )
    };
    // With an image, recovery already turns the plan on, so the switch
    // afterwards changes nothing: the reference is the plain open.
    let with_image =
        |index: bool| session(Server::open(&config(index), Some(on_dir.path())).unwrap());
    assert_eq!(
        with_image(true),
        with_image(false),
        "index: true diverged from recovery of a persisted image"
    );
    // Without one, recovery leaves the multimap cold, as it is on an
    // index-on server that has just taken the upload.
    let cold = Server::open(&config(true), None).unwrap();
    let _ = cold.handle(
        &ClientMessage::CreateTable {
            name: "Emp".into(),
            table: scheme.encrypt_table(&relation).unwrap().into(),
        }
        .to_wire(),
    );
    cold.observer().clear();
    let cold = session(cold);
    assert!(cold.0 && cold.1.is_empty() && !cold.3.is_empty() && !cold.4.is_empty());
    for dir in [off_dir.path(), unprobed_dir.path()] {
        assert_eq!(
            session(Server::open(&config(true), Some(dir)).unwrap()),
            cold,
            "index: true on a log without an image diverged from switching the index on"
        );
    }
}

/// The sample queries' encrypted wire messages against `Emp`.
fn query_messages(scheme: &FinalSwpPh) -> Vec<Vec<u8>> {
    sample_queries()
        .iter()
        .map(|query| {
            ClientMessage::Query {
                name: "Emp".into(),
                terms: encrypt(scheme, query),
            }
            .to_wire()
        })
        .collect()
}

/// Drops and re-creates a table after a compaction cut an index image:
/// recovery replays the drop and the create through the live apply
/// path, which clears the table's postings, so the restarted server
/// answers from the new table exactly like a scan-only server fed the
/// same mutations — no stale posting from the dropped incarnation
/// survives.
#[test]
fn recreated_table_after_compaction_answers_like_a_scan_server_after_restart() {
    let scheme = ph();
    let first = scheme
        .encrypt_table(
            &EmployeeGen {
                rows: 120,
                ..EmployeeGen::default()
            }
            .generate(9),
        )
        .unwrap();
    let second = scheme
        .encrypt_table(
            &EmployeeGen {
                rows: 90,
                ..EmployeeGen::default()
            }
            .generate(10),
        )
        .unwrap();
    let create = |table: &dbph::core::EncryptedTable| {
        ClientMessage::CreateTable {
            name: "Emp".into(),
            table: table.clone().into(),
        }
        .to_wire()
    };
    let drop_emp = ClientMessage::DropTable { name: "Emp".into() }.to_wire();
    let queries = query_messages(&scheme);

    let tmp = TempDir::new("index-recreate").unwrap();
    let open = || {
        Server::open(
            &ServerConfig {
                workers: Some(1),
                transcript: true,
                ..ServerConfig::default()
            },
            Some(tmp.path()),
        )
        .unwrap()
    };
    let server = Server::open(
        &ServerConfig {
            workers: Some(1),
            index: true,
            transcript: true,
            ..ServerConfig::default()
        },
        Some(tmp.path()),
    )
    .unwrap();
    let _ = server.handle(&create(&first));
    for q in &queries {
        let _ = server.handle(q);
    }
    server.compact().unwrap();
    let _ = server.handle(&drop_emp);
    let _ = server.handle(&create(&second));
    drop(server);

    let reference = Server::open(
        &ServerConfig {
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    for m in [create(&first), drop_emp, create(&second)] {
        let _ = reference.handle(&m);
    }
    let recovered = open();
    assert!(recovered.index_enabled());
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            recovered.handle(q),
            reference.handle(q),
            "query {i} on the re-created table diverged from the scan after restart"
        );
    }
}

/// Deletes logged after a compaction purge the recovered postings
/// exactly as they purged the live ones: the restarted server's
/// at-rest image equals the image the live server held, and its
/// answers equal a scan-only server's.
#[test]
fn post_compaction_deletes_leave_the_recovered_at_rest_image_equal_to_the_live_one() {
    let scheme = ph();
    let relation = EmployeeGen {
        rows: 120,
        ..EmployeeGen::default()
    }
    .generate(9);
    let create = ClientMessage::CreateTable {
        name: "Emp".into(),
        table: scheme.encrypt_table(&relation).unwrap().into(),
    }
    .to_wire();
    let delete = ClientMessage::DeleteDocs {
        name: "Emp".into(),
        doc_ids: (0..120).step_by(3).collect(),
    }
    .to_wire();
    let queries = query_messages(&scheme);

    let tmp = TempDir::new("index-post-compaction-delete").unwrap();
    let open = || {
        Server::open(
            &ServerConfig {
                workers: Some(1),
                transcript: true,
                ..ServerConfig::default()
            },
            Some(tmp.path()),
        )
        .unwrap()
    };
    let server = Server::open(
        &ServerConfig {
            workers: Some(1),
            index: true,
            transcript: true,
            ..ServerConfig::default()
        },
        Some(tmp.path()),
    )
    .unwrap();
    let _ = server.handle(&create);
    for q in &queries {
        let _ = server.handle(q);
    }
    server.compact().unwrap();
    let _ = server.handle(&delete);
    let live = server.index_at_rest("Emp");
    assert!(!live.is_empty(), "the warmed index must hold postings");
    drop(server);

    let recovered = open();
    assert_eq!(
        recovered.index_at_rest("Emp"),
        live,
        "recovered at-rest image kept ids the live purge removed"
    );
    let reference = Server::open(
        &ServerConfig {
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let _ = reference.handle(&create);
    let _ = reference.handle(&delete);
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            recovered.handle(q),
            reference.handle(q),
            "query {i} diverged from the scan after restart"
        );
    }
}

// --- randomized equivalence ------------------------------------------------

fn arb_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(("[a-z]{0,12}", 0i64..50, any::<bool>()), 0..40).prop_map(|rows| {
        let schema = dbph::relation::Schema::new(
            "Rnd",
            vec![
                dbph::relation::Attribute::new("s", dbph::relation::AttrType::Str { max_len: 12 }),
                dbph::relation::Attribute::new("i", dbph::relation::AttrType::Int),
                dbph::relation::Attribute::new("b", dbph::relation::AttrType::Bool),
            ],
        )
        .unwrap();
        Relation::from_tuples(
            schema,
            rows.into_iter()
                .map(|(s, i, b)| Tuple::new(vec![Value::Str(s), Value::Int(i), Value::Bool(b)]))
                .collect(),
        )
        .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn random_churn_is_plan_invariant(
        relation in arb_relation(),
        extra in arb_relation(),
        // Query picks interleaved through the churn; duplicates are
        // frequent by construction so postings get reused and re-warmed.
        picks in proptest::collection::vec(0usize..4, 1..8),
        delete_stride in 1usize..5,
        key in any::<[u8; 32]>(),
    ) {
        let scheme =
            FinalSwpPh::new(relation.schema().clone(), &SecretKey::from_bytes(key)).unwrap();
        let table = scheme.encrypt_table(&relation).unwrap();
        let extra_ct = scheme.encrypt_table(&extra).unwrap();
        let probes = [
            Query::select("s", "zz"),
            Query::select("i", 7i64),
            Query::select("b", true),
            Query::select("b", false),
        ];
        let base = relation.len() as u64;

        let drive = |server: &Server| -> Vec<Vec<u8>> {
            let mut responses = Vec::new();
            let mut send =
                |msg: ClientMessage| responses.push(server.handle(&msg.to_wire()));
            send(ClientMessage::CreateTable { name: "Rnd".into(), table: table.clone().into() });
            for &p in &picks {
                send(ClientMessage::Query {
                    name: "Rnd".into(),
                    terms: encrypt(&scheme, &probes[p]),
                });
            }
            send(ClientMessage::AppendBatch {
                name: "Rnd".into(),
                docs: extra_ct
                    .docs
                    .iter()
                    .enumerate()
                    .map(|(i, (_, words))| (base + i as u64, words.clone()))
                    .collect(),
            });
            for &p in &picks {
                send(ClientMessage::Query {
                    name: "Rnd".into(),
                    terms: encrypt(&scheme, &probes[p]),
                });
            }
            send(ClientMessage::DeleteDocs {
                name: "Rnd".into(),
                doc_ids: (0..base + extra.len() as u64)
                    .step_by(delete_stride)
                    .collect(),
            });
            for &p in &picks {
                send(ClientMessage::Query {
                    name: "Rnd".into(),
                    terms: encrypt(&scheme, &probes[p]),
                });
            }
            send(ClientMessage::QueryBatch {
                name: "Rnd".into(),
                queries: picks.iter().map(|&p| encrypt(&scheme, &probes[p])).collect(),
            });
            send(ClientMessage::FetchAll { name: "Rnd".into() });
            responses
        };

        let scan = Server::open(&ServerConfig { workers: Some(2), transcript: true, ..ServerConfig::default() }, None).unwrap();
        let scan_responses = drive(&scan);

        let indexed = Server::open(&ServerConfig { workers: Some(2), index: true, transcript: true, ..ServerConfig::default() }, None).unwrap();
        let indexed_responses = drive(&indexed);

        prop_assert_eq!(indexed_responses, scan_responses,
            "indexed plan diverged from the scan under random churn");
        let scan_events = scan.observer().events();
        prop_assert!(!scan_events.is_empty(), "the scan recorded no events");
        prop_assert_eq!(
            without_probes(indexed.observer().events()),
            scan_events,
            "indexed transcript (probes aside) diverged under random churn");
    }
}
