//! Soak: a server behaves the same at request one million as at
//! request one hundred thousand.
//!
//! One million requests run in process through a durable, index-on
//! primary that acknowledges each mutation only once a semi-sync
//! follower holds it. A fixed set of tagged clients each own a table;
//! every client round is name= probes plus one insert and one delete,
//! so the live row count never moves. From the first tenth of the run
//! to its end:
//!
//! * every size gauge of both servers stays flat — no transcript, the
//!   same dedup clients with at most `DEDUP_WINDOW` entries each, the
//!   same posting keys, and posting ids bounded by the live rows;
//! * the process's resident set (`VmRSS`) grows by at most 16 MiB.
//!
//! Release mode only: in a debug build the run takes minutes. Run it
//! with `cargo test --release --test soak`.

use std::time::{Duration, Instant};

use dbph::core::protocol::{ClientMessage, ServerResponse, WireTrapdoor};
use dbph::core::storage::DEDUP_WINDOW;
use dbph::core::telemetry::SIZE_GAUGES;
use dbph::core::wire::{WireDecode as _, WireEncode as _};
use dbph::core::{
    DatabasePh, FinalSwpPh, Replica, ReplicaOptions, ReplicationOptions, Server, ServerConfig,
    TempDir,
};
use dbph::crypto::SecretKey;
use dbph::relation::{Query, Relation, Tuple, Value};
use dbph::swp::CipherWord;
use dbph::workload::EmployeeGen;

/// Requests in the whole run, queries and mutations alike.
const REQUESTS: usize = 1_000_000;
/// The run is cut into this many equal stretches; the gauges and the
/// resident set are sampled after each.
const STRETCHES: usize = 10;
/// Tagged clients, one thread and one table each.
const CLIENTS: usize = 4;
/// Live rows per table, constant through the run.
const ROWS: usize = 200;
/// The names every client queries and inserts.
const NAMES: usize = 8;
/// Requests in one client round: the probes, one insert, one delete.
const ROUND: usize = 20;
/// How far the resident set may grow past the first stretch.
const RSS_SLACK_BYTES: u64 = 16 << 20;

fn ph() -> FinalSwpPh {
    FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([91u8; 32])).unwrap()
}

fn name(i: usize) -> String {
    format!("soak-{:02}", i % NAMES)
}

/// The process's resident set, in bytes, from `/proc/self/status`.
fn vm_rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS is reported");
    kib << 10
}

/// The size gauges of `server`, in [`SIZE_GAUGES`] order.
fn sizes(server: &Server) -> Vec<u64> {
    let stats = server.stats_snapshot();
    SIZE_GAUGES
        .iter()
        .map(|gauge| stats.scalar(gauge).expect("every size gauge is sampled"))
        .collect()
}

/// One client: its table, its pre-encrypted probes and insert words,
/// and its position in the insert/delete cycle.
struct Session {
    client_id: u64,
    table: String,
    probes: Vec<Vec<u8>>,
    rows: Vec<Vec<CipherWord>>,
    seq: u64,
    /// Oldest live document id: the next delete's target.
    oldest: u64,
    /// The next insert's document id.
    next: u64,
}

impl Session {
    fn new(primary: &Server, scheme: &FinalSwpPh, client: usize) -> Self {
        let table = format!("soak{client}");
        let relation = |rows: usize, offset: usize| {
            Relation::from_tuples(
                EmployeeGen::schema(),
                (0..rows)
                    .map(|i| {
                        Tuple::new(vec![
                            Value::str(name(i + offset)),
                            Value::str(format!("dept-{:02}", i % 5)),
                            Value::int((1000 + i) as i64),
                        ])
                    })
                    .collect(),
            )
            .unwrap()
        };
        let upload = ClientMessage::CreateTable {
            name: table.clone(),
            table: scheme.encrypt_table(&relation(ROWS, 0)).unwrap().into(),
        };
        let created = primary.handle(&upload.to_wire());
        assert_eq!(
            ServerResponse::from_wire(&created).unwrap(),
            ServerResponse::Ok
        );
        let probes = (0..NAMES)
            .map(|i| {
                let query = scheme
                    .encrypt_query(&Query::select("name", name(i)))
                    .unwrap();
                ClientMessage::Query {
                    name: table.clone(),
                    terms: query
                        .terms
                        .iter()
                        .map(WireTrapdoor::from_trapdoor)
                        .collect(),
                }
                .to_wire()
            })
            .collect();
        let rows = scheme
            .encrypt_table(&relation(NAMES, client))
            .unwrap()
            .docs
            .into_iter()
            .map(|(_, words)| words)
            .collect();
        Session {
            client_id: 1 + client as u64,
            table,
            probes,
            rows,
            seq: 0,
            oldest: 0,
            next: ROWS as u64,
        }
    }

    fn tagged(&mut self, message: ClientMessage) -> Vec<u8> {
        self.seq += 1;
        message.tagged(self.client_id, self.seq).to_wire()
    }

    /// Runs `rounds` rounds against `primary`: `ROUND - 2` probes, an
    /// insert and a delete of the oldest row, each answered without
    /// error.
    fn run(&mut self, primary: &Server, rounds: usize) {
        for round in 0..rounds {
            for p in 0..ROUND - 2 {
                let probe = &self.probes[(round + p) % NAMES];
                match ServerResponse::from_wire(&primary.handle(probe)).unwrap() {
                    ServerResponse::Table(_) => {}
                    other => panic!("probe answered {other:?}"),
                }
            }
            let words = self.rows[self.next as usize % NAMES].clone();
            let insert = self.tagged(ClientMessage::Append {
                name: self.table.clone(),
                doc_id: self.next,
                words,
            });
            let delete = self.tagged(ClientMessage::DeleteDocs {
                name: self.table.clone(),
                doc_ids: vec![self.oldest],
            });
            for mutation in [insert, delete] {
                assert_eq!(
                    ServerResponse::from_wire(&primary.handle(&mutation)).unwrap(),
                    ServerResponse::Ok
                );
            }
            self.next += 1;
            self.oldest += 1;
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-mode soak: cargo test --release --test soak"
)]
fn a_million_requests_keep_gauges_flat_and_memory_bounded() {
    let primary_dir = TempDir::new("soak-primary").unwrap();
    let follower_dir = TempDir::new("soak-follower").unwrap();
    let primary = Server::open(
        &ServerConfig {
            index: true,
            ..ServerConfig::default()
        },
        Some(primary_dir.path()),
    )
    .unwrap();
    let scheme = ph();
    let mut sessions: Vec<Session> = (0..CLIENTS)
        .map(|client| Session::new(&primary, &scheme, client))
        .collect();

    let mut replica = Replica::bootstrap(
        primary.clone(),
        follower_dir.path(),
        ReplicaOptions {
            follower_id: 77,
            poll_interval: Duration::from_millis(1),
            ..ReplicaOptions::default()
        },
    )
    .unwrap();
    replica.start();
    primary
        .set_replication(ReplicationOptions {
            min_acks: 1,
            ack_timeout: Duration::from_secs(10),
        })
        .unwrap();

    let rounds = REQUESTS / STRETCHES / CLIENTS / ROUND;
    let started = Instant::now();
    let mut first: Option<(Vec<u64>, Vec<u64>, u64)> = None;
    for stretch in 1..=STRETCHES {
        std::thread::scope(|scope| {
            for session in &mut sessions {
                let primary = &primary;
                scope.spawn(move || session.run(primary, rounds));
            }
        });
        let follower = replica.server();
        let (primary_sizes, follower_sizes, rss) = (sizes(&primary), sizes(&follower), vm_rss());
        eprintln!(
            "soak: {}% of {REQUESTS} requests after {:.1}s: primary {primary_sizes:?}, \
             follower {follower_sizes:?} ({SIZE_GAUGES:?}), VmRSS {} KiB",
            stretch * 100 / STRETCHES,
            started.elapsed().as_secs_f64(),
            rss >> 10,
        );
        for (server, got) in [("primary", &primary_sizes), ("follower", &follower_sizes)] {
            let [transcript, clients, entries, _, posting_ids] = got[..] else {
                unreachable!("five size gauges")
            };
            assert_eq!(transcript, 0, "the {server} recorded a transcript");
            assert_eq!(clients, CLIENTS as u64, "{server} dedup clients");
            assert!(
                entries <= (CLIENTS * DEDUP_WINDOW) as u64,
                "{server} dedup entries {entries} past the window cap"
            );
            assert!(
                posting_ids <= (CLIENTS * ROWS) as u64,
                "{server} postings hold {posting_ids} ids, past the live rows"
            );
        }
        assert_eq!(
            primary_sizes[3],
            (CLIENTS * NAMES) as u64,
            "one posting per queried name and table"
        );
        match &first {
            None => first = Some((primary_sizes, follower_sizes, rss)),
            Some((primary_first, follower_first, rss_first)) => {
                // Clients, entries and postings are flat from here on;
                // posting ids move with which rows are live.
                assert_eq!(
                    primary_sizes[..4],
                    primary_first[..4],
                    "primary gauges moved"
                );
                assert_eq!(
                    follower_sizes[..4],
                    follower_first[..4],
                    "follower gauges moved"
                );
                assert!(
                    rss <= rss_first + RSS_SLACK_BYTES,
                    "VmRSS grew from {} KiB to {} KiB past the first tenth",
                    rss_first >> 10,
                    rss >> 10
                );
            }
        }
    }
    let log = primary.durable_log().unwrap();
    assert_eq!(
        log.semi_sync_degraded(),
        0,
        "acks degraded under a live follower"
    );
    drop(replica);
}
