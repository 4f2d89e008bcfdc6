//! A small SQL session over an outsourced, encrypted table.
//!
//! Shows the library as a downstream user would consume it: SQL
//! statements are parsed locally, DDL and inserts are executed against
//! the encrypted server, and `SELECT … WHERE a = v [AND …]` runs as
//! encrypted exact selects with client-side projection — while a
//! plaintext reference engine checks every result.
//!
//! The session runs over any [`Transport`], so the same script drives
//! four deployments:
//!
//! * `cargo run --example encrypted_sql` — in-process server (the
//!   seed's configuration; no sockets).
//! * `cargo run --example encrypted_sql -- --net` — self-contained
//!   loopback demo: a framed TCP server on an ephemeral port, the
//!   session running through a pooled connection, identical output.
//! * `cargo run --example encrypted_sql -- --listen 127.0.0.1:4460` —
//!   serve a fresh encrypted-table server for remote clients.
//! * `cargo run --example encrypted_sql -- --connect 127.0.0.1:4460`
//!   — run the session against such a server across the network.
//!
//! # Quickstart: durable tables that survive `kill -9`
//!
//! Add `--data-dir <path>` to any server-side mode and the server
//! persists every mutation to an append-only segment log (fsync'd
//! before each acknowledgement) and recovers the store on start —
//! including after an *unclean* kill, where a torn tail record is
//! truncated rather than panicking. A kill-and-restart session:
//!
//! ```text
//! # terminal 1 — serve with persistence
//! $ cargo run --example encrypted_sql -- --listen 127.0.0.1:4460 --data-dir /tmp/dbph-data
//! -- durable store at /tmp/dbph-data (0 table(s) recovered)
//! -- serving encrypted tables on 127.0.0.1:4460
//!
//! # terminal 2 — create tables, insert rows (stop before DROP by
//! # running your own client, or just let the script run: its final
//! # DROP is itself a logged, recoverable mutation)
//! $ cargo run --example encrypted_sql -- --connect 127.0.0.1:4460
//!
//! # terminal 1 — simulate a crash, then restart on the same dir
//! ^C (or kill -9 the process)
//! $ cargo run --example encrypted_sql -- --listen 127.0.0.1:4460 --data-dir /tmp/dbph-data
//! -- durable store at /tmp/dbph-data (1 table(s) recovered)
//! ```
//!
//! The recovered server answers every query — and records every
//! `Observer` event — byte-identically to a server that never died:
//! durability is Eve persisting bytes she already holds, invisible in
//! the transcript model (`tests/durability.rs` pins this).
//!
//! # Quickstart: many clients against one process
//!
//! Every connection gets its own server thread, so no session waits
//! behind another session's scan (`tests/session_scale.rs` drives 256
//! at once). With `--data-dir`, concurrent sessions' mutations share
//! group-commit fsync barriers, and each is acked only after a barrier
//! covering it completes.
//!
//! ```text
//! # terminal 1 — one process, ready for many sessions
//! $ cargo run --release --example encrypted_sql -- \
//!       --listen 127.0.0.1:4460 --data-dir /tmp/dbph-data
//! -- durable store at /tmp/dbph-data (0 table(s) recovered)
//! -- serving encrypted tables on 127.0.0.1:4460
//!
//! # terminals 2..N — as many concurrent sessions as you like
//! $ cargo run --release --example encrypted_sql -- --connect 127.0.0.1:4460
//! ```
//!
//! # Quickstart: kill the server mid-batch, lose nothing, apply once
//!
//! Two client-side flags exercise the exactly-once machinery:
//!
//! * `--retry <n>` — retry failed exchanges up to `n` attempts with
//!   exponential backoff. Retried mutations carry an idempotent
//!   request envelope, so a re-send the server already applied is
//!   *replayed* from its dedup window, never applied twice.
//! * `--chaos-seed <s>` — interpose a seeded fault-injecting proxy
//!   (connection resets, torn frames, swallowed acks, delays) between
//!   this client and the server: `dbph_testkit::ChaosProxy`, from the
//!   dev-only test harness the examples may use and the library never
//!   does. The same seed reproduces the same weather; pair it with
//!   `--retry` or the session will simply fail.
//!
//! ```text
//! # terminal 1 — durable server
//! $ cargo run --example encrypted_sql -- --listen 127.0.0.1:4460 --data-dir /tmp/dbph-data
//!
//! # terminal 2 — client that shrugs off faults
//! $ cargo run --example encrypted_sql -- --connect 127.0.0.1:4460 --retry 8 --chaos-seed 42
//!
//! # while terminal 2 runs: kill -9 terminal 1's process mid-batch,
//! # then restart it on the same --data-dir. The client's in-flight
//! # mutation retries against the recovered server, whose dedup
//! # window (rebuilt from the log) replays any already-applied
//! # envelope — the session completes, every row exactly once, and
//! # the final SELECTs still match the plaintext reference.
//! ```
//!
//! # Quickstart: kill the primary, promote the follower
//!
//! `--replicate-from <addr>` turns this process into a read-only
//! follower: it bootstraps a byte-identical copy of the primary's
//! segment log into its own `--data-dir`, recovers a server from it
//! (bootstrap *is* recovery), and then tails the primary — every
//! pulled chunk is fsync'd into the follower's log before it is
//! applied. Add `--promote` and the follower promotes itself to a
//! serving primary as soon as the primary stops answering:
//!
//! ```text
//! # terminal 1 — the primary
//! $ cargo run --example encrypted_sql -- --listen 127.0.0.1:4460 --data-dir /tmp/dbph-a
//!
//! # terminal 2 — a follower that will take over
//! $ cargo run --example encrypted_sql -- \
//!       --replicate-from 127.0.0.1:4460 127.0.0.1:4461 \
//!       --data-dir /tmp/dbph-b --promote
//! -- follower of 127.0.0.1:4460: 0 table(s) at stream offset 9
//! -- serving read-only follower on 127.0.0.1:4461
//!
//! # terminal 3 — run a session against the primary
//! $ cargo run --example encrypted_sql -- --connect 127.0.0.1:4460 --retry 8
//!
//! # kill -9 terminal 1 mid-session. Terminal 2 notices, promotes,
//! # and serves as primary on 127.0.0.1:4461; the follower's log
//! # carried every idempotent request envelope verbatim, so a client
//! # redirected at the promoted server replays — never re-applies —
//! # any mutation the dead primary already acked (the chaos proptest
//! # in tests/replication.rs pins exactly this).
//! ```
//!
//! Semi-sync durability (hold each ack until a follower has fsync'd
//! the record) is a server-side option — see
//! `ReplicationOptions { min_acks }` and `BENCH_repl.json` for its
//! cost; this demo tails asynchronously.
//!
//! # Quickstart: the operator stats plane
//!
//! Every server keeps a transcript-invisible metrics registry —
//! counters, gauges, and log2 latency histograms — and answers a
//! `Stats` protocol message with a versioned snapshot. Two client-side
//! flags expose it:
//!
//! * `--connect <addr> --stats` — fetch one snapshot, print it as
//!   text, exit.
//! * `--connect <addr> --stats-every <secs>` — print a snapshot every
//!   `<secs>` seconds until interrupted.
//!
//! ```text
//! $ cargo run --example encrypted_sql -- --connect 127.0.0.1:4460 --stats
//! # stats v1
//! counter   dedup_fresh 12
//! histogram req_query_nanos count=6 mean=81321 p50=65535 p95=131071 p99=131071 max=97412
//! …
//! ```
//!
//! Collection never touches the request/response bytes: responses,
//! response ordering, `Observer` transcripts, and durable segment
//! bytes are byte-identical with telemetry on or off
//! (`tests/telemetry.rs` pins this). The metrics measure *Eve's
//! machine* — latencies, queue depths, fsync costs — never Alex's
//! plaintext, so the stats plane adds nothing to the adversary's view
//! that she could not already compute from her own hardware.
//!
//! `Stats` is the server's one health probe: log health, table
//! count, follower lag, semi-sync lapses and resyncs are all metrics
//! of the same snapshot, so failover logic and an operator read one
//! answer (the armed-failover demo prints a per-strike line from it).
//!
//! Metrics reference (the snapshot is self-describing; this is the
//! map from name to meaning):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `req_<kind>_nanos` | histogram | server handle latency per message kind (`create`, `query`, `append`, …; `other` for malformed frames and unknown or retired tags) |
//! | `dedup_fresh` / `dedup_replays` / `dedup_stale` | counter | envelope dedup outcomes: applied / replayed from window / refused as too old |
//! | `plan_probe_queries` / `plan_scan_queries` | counter | queries answered via the inverted index vs full shard scan |
//! | `index_probe_hits` / `index_probe_misses` | counter | index probes that found a cached posting vs built one |
//! | `index_posting_len` / `index_delta_len` | histogram | posting sizes returned / SWP checks each delta scan ran past the cached prefix (the whole table when cold) |
//! | `fsync_nanos` | histogram | latency of each durable-log fsync |
//! | `commit_wait_nanos` | histogram | time a mutation waited on its group-commit barrier |
//! | `commit_window_records` | histogram | records covered by each group-commit barrier |
//! | `log_syncs` / `log_poisoned` | counter | fsyncs so far; 1 when the log is poisoned (sampled) |
//! | `tables` | gauge | tables currently stored (sampled) |
//! | `transcript_events` | gauge | events in the `Observer` transcript; 0 unless the server was opened with `ServerConfig::transcript` (sampled) |
//! | `dedup_clients` / `dedup_entries` | gauge | clients holding a dedup window; responses cached across all windows, at most 128 per client plus in-flight (sampled) |
//! | `index_postings` / `index_posting_ids` | gauge | posting keys the encrypted index caches; document ids those postings hold (sampled) |
//! | `exec_workers` / `exec_queue_depth` / `exec_queue_high_water` | gauge | scan-pool size and queue occupancy (sampled) |
//! | `exec_tasks` / `exec_busy_nanos` / `exec_task_nanos` | counter/histogram | scan-pool tasks run and their latencies |
//! | `exec_caller_tasks` | counter | of those, tasks a `scatter` caller ran on its own thread instead of a worker |
//! | `net_conns_live` / `net_conns_accepted` / `net_conns_reaped` | gauge/counter | sessions now / ever / idle-reaped (silent, or not reading responses) |
//! | `net_frames_in` / `net_frames_out` / `net_bytes_in` / `net_bytes_out` | counter | framed traffic both ways (header bytes included) |
//! | `repl_lag_bytes` / `repl_semi_sync_degraded` | gauge/counter | follower lag; semi-sync acks that degraded to async (sampled) |
//! | `repl_chunks_shipped` / `repl_bytes_shipped` / `repl_longpoll_parks` | counter | primary-side feed traffic and parked pulls |
//! | `repl_chunks_applied` / `repl_resyncs` | counter | follower-side chunks applied; full re-bootstraps |
//! | `client_retries` / `client_backoff_nanos` | counter | pool-side retry attempts and backoff slept (on [`PooledClient::telemetry`]) |
//! | `client_failovers` / `client_reconnects` | counter | pool redirects; stale pooled connections replaced |
//!
//! # Quickstart: scrub a data directory
//!
//! `--scrub` (with `--data-dir`) re-reads every segment of the log —
//! sealed and active — and verifies each record's length frame and
//! checksum end-to-end, reporting what it checked or the exact byte
//! offset of the first bad record. Alone it is an offline integrity
//! check; combined with a serving mode it runs before the server
//! starts taking connections:
//!
//! ```text
//! $ cargo run --example encrypted_sql -- --scrub --data-dir /tmp/dbph-data
//! -- durable store at /tmp/dbph-data (1 table(s) recovered)
//! -- scrub: 1 segment(s), 12 record(s), 1482 byte(s) verified
//! ```

use std::path::Path;
use std::time::Duration;

use dbph::core::protocol::{ClientMessage, ServerResponse};
use dbph::core::wire::{WireDecode as _, WireEncode as _};
use dbph::core::{
    Client, FinalSwpPh, NetServer, PoolOptions, PooledClient, Replica, ReplicaOptions, RetryPolicy,
    Server, ServerConfig, Transport,
};
use dbph::crypto::SecretKey;
use dbph::relation::sql::{self, ExecOutcome, Statement};
use dbph::relation::{Catalog, Tuple};
use dbph_testkit::{ChaosPlan, ChaosProxy};

/// Builds the server for a server-side mode: durable when the user
/// passed `--data-dir`, in-memory otherwise.
fn make_server(data_dir: Option<&str>, scrub: bool) -> Result<Server, Box<dyn std::error::Error>> {
    let server = Server::open(&ServerConfig::default(), data_dir.map(Path::new))?;
    match data_dir {
        None => Ok(server),
        Some(dir) => {
            println!(
                "-- durable store at {dir} ({} table(s) recovered)",
                server.table_names().len()
            );
            if scrub {
                let report = server.scrub()?;
                println!(
                    "-- scrub: {} segment(s), {} record(s), {} byte(s) verified",
                    report.segments, report.records, report.bytes
                );
            }
            Ok(server)
        }
    }
}

/// Dials the session's pooled client: straight to `addr` by default;
/// with `--retry`, under a retry policy (and socket/checkout timeouts
/// so a dead server surfaces instead of hanging); with `--chaos-seed`,
/// through a seeded fault-injecting proxy. Returns the proxy guard so
/// it outlives the session.
fn make_client(
    addr: &str,
    retry: Option<u32>,
    chaos_seed: Option<u64>,
) -> Result<(PooledClient, Option<ChaosProxy>), Box<dyn std::error::Error>> {
    let options = PoolOptions {
        capacity: 2,
        retry: match retry {
            Some(attempts) => RetryPolicy {
                max_attempts: attempts.max(1),
                deadline: Some(Duration::from_secs(60)),
                ..RetryPolicy::default()
            },
            None => RetryPolicy::default(),
        },
        io_timeout: retry.map(|_| Duration::from_secs(10)),
        checkout_timeout: retry.map(|_| Duration::from_secs(30)),
        client_id: None,
    };
    match chaos_seed {
        None => Ok((PooledClient::connect_with(addr, options)?, None)),
        Some(seed) => {
            use std::net::ToSocketAddrs as _;
            let upstream = addr
                .to_socket_addrs()?
                .next()
                .ok_or("address resolved to nothing")?;
            let proxy = ChaosProxy::spawn(upstream, seed, ChaosPlan::default())?;
            println!(
                "-- chaos proxy on {} (seed {seed}): resets, torn frames, dropped acks",
                proxy.addr()
            );
            let client = PooledClient::connect_with(proxy.addr().to_string().as_str(), options)?;
            Ok((client, Some(proxy)))
        }
    }
}

/// Fetches one metrics snapshot over the wire and prints its text
/// exposition — the `--stats` / `--stats-every` operator plane.
fn print_stats(pool: &PooledClient) -> Result<(), Box<dyn std::error::Error>> {
    let response = pool.call(&ClientMessage::Stats.to_wire())?;
    match ServerResponse::from_wire(&response)? {
        ServerResponse::StatsSnapshot(snapshot) => {
            print!("{snapshot}");
            Ok(())
        }
        other => Err(format!("unexpected response to Stats: {other:?}").into()),
    }
}

/// One in-process stats snapshot of the follower's own server: the
/// per-strike health line an operator watches while armed failover
/// counts the primary out.
fn print_follower_health(server: &Server, strikes: u32) {
    let stats = server.stats_snapshot();
    let read = |name| stats.scalar(name).unwrap_or(0);
    println!(
        "-- strike {strikes}/4: poisoned={} semi_sync_degraded={} resyncs={}",
        read("log_poisoned") != 0,
        read("repl_semi_sync_degraded"),
        read("repl_resyncs"),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--data-dir <path>` composes with any mode; extract it first.
    let data_dir = args
        .iter()
        .position(|a| a == "--data-dir")
        .map(|i| {
            args.remove(i); // the flag
            if i < args.len() {
                Ok(args.remove(i)) // its value
            } else {
                Err("usage: --data-dir <path>")
            }
        })
        .transpose()?;
    let data_dir = data_dir.as_deref();

    // `--scrub` re-verifies every log record before doing anything
    // else (needs `--data-dir`: there is nothing to scrub in memory).
    let scrub = args
        .iter()
        .position(|a| a == "--scrub")
        .map(|i| args.remove(i))
        .is_some();
    if scrub && data_dir.is_none() {
        return Err("--scrub verifies the durable log; pair it with --data-dir".into());
    }

    // `--promote` arms automatic failover for a follower.
    let promote = args
        .iter()
        .position(|a| a == "--promote")
        .map(|i| args.remove(i))
        .is_some();

    // `--stats` / `--stats-every <secs>` query the operator plane
    // instead of running the SQL script.
    let stats_once = args
        .iter()
        .position(|a| a == "--stats")
        .map(|i| args.remove(i))
        .is_some();
    let stats_every = args
        .iter()
        .position(|a| a == "--stats-every")
        .map(|i| {
            args.remove(i); // the flag
            if i < args.len() {
                args.remove(i) // its value
                    .parse::<u64>()
                    .map_err(|_| "usage: --stats-every <seconds>")
            } else {
                Err("usage: --stats-every <seconds>")
            }
        })
        .transpose()?;

    // `--retry <n>` turns on client-side retries (mutations ride the
    // idempotent envelope; the server applies each exactly once).
    let retry = args
        .iter()
        .position(|a| a == "--retry")
        .map(|i| {
            args.remove(i); // the flag
            if i < args.len() {
                args.remove(i) // its value
                    .parse::<u32>()
                    .map_err(|_| "usage: --retry <attempts>")
            } else {
                Err("usage: --retry <attempts>")
            }
        })
        .transpose()?;

    // `--chaos-seed <s>` injects seeded faults between client and
    // server, so the retry machinery has weather to prove itself in.
    let chaos_seed = args
        .iter()
        .position(|a| a == "--chaos-seed")
        .map(|i| {
            args.remove(i); // the flag
            if i < args.len() {
                args.remove(i) // its value
                    .parse::<u64>()
                    .map_err(|_| "usage: --chaos-seed <seed>")
            } else {
                Err("usage: --chaos-seed <seed>")
            }
        })
        .transpose()?;
    if chaos_seed.is_some() && retry.is_none() {
        return Err(
            "--chaos-seed injects faults; pair it with --retry <n> or the session \
                    will simply fail"
                .into(),
        );
    }

    if promote && args.first().map(String::as_str) != Some("--replicate-from") {
        return Err("--promote arms follower failover; pair it with --replicate-from".into());
    }

    if (stats_once || stats_every.is_some())
        && args.first().map(String::as_str) != Some("--connect")
    {
        return Err(
            "--stats/--stats-every query a serving process; pair them with \
                    --connect <addr>"
                .into(),
        );
    }

    match args.first().map(String::as_str) {
        None => {
            if retry.is_some() || chaos_seed.is_some() {
                return Err(
                    "--retry/--chaos-seed exercise the socket path; use them with \
                            --net or --connect"
                        .into(),
                );
            }
            if scrub {
                // Offline integrity check: open (recover), verify
                // every record, report, exit.
                make_server(data_dir, true)?;
                return Ok(());
            }
            // In-process: the transport is the server itself.
            run_script(make_server(data_dir, false)?)
        }
        Some("--net") => {
            // Loopback: same script, real frames on a real socket.
            let server = make_server(data_dir, scrub)?;
            let handle = NetServer::spawn(server, "127.0.0.1:0")?;
            println!("-- loopback server listening on {}", handle.addr());
            let (pool, _chaos) = make_client(&handle.addr().to_string(), retry, chaos_seed)?;
            let result = run_script(pool);
            handle.shutdown();
            result
        }
        Some("--listen") => {
            if retry.is_some() || chaos_seed.is_some() {
                return Err(
                    "--retry/--chaos-seed are client-side flags; use them with --connect".into(),
                );
            }
            let addr = args.get(1).map_or("127.0.0.1:4460", String::as_str);
            let listener = std::net::TcpListener::bind(addr)?;
            println!("-- serving encrypted tables on {}", listener.local_addr()?);
            println!("-- connect with: cargo run --example encrypted_sql -- --connect {addr}");
            NetServer::serve(listener, make_server(data_dir, scrub)?)?;
            Ok(())
        }
        Some("--replicate-from") => {
            let dir = data_dir
                .ok_or("--replicate-from stores the follower's log; pair it with --data-dir")?;
            let primary = args
                .get(1)
                .ok_or("usage: encrypted_sql --replicate-from <primary-addr> [serve-addr]")?
                .clone();
            let serve_addr = args.get(2).map_or("127.0.0.1:4461", String::as_str);
            // The replication feed: one pooled connection to the
            // primary. Pulls long-poll on the primary, so the feed
            // must not share connections with latency-sensitive
            // traffic — it gets its own.
            let feed = PooledClient::connect(&primary, 1)?;
            let mut replica = Replica::bootstrap(feed, dir, ReplicaOptions::default())?;
            println!(
                "-- follower of {primary}: {} table(s) at stream offset {}",
                replica.server().table_names().len(),
                replica.offset()
            );
            replica.start();
            // Serve reads from the follower's store. (A primary
            // compaction re-bootstraps the follower into a fresh
            // generation; restart this process after one to re-serve
            // the new generation.)
            let handle = NetServer::spawn(replica.server(), serve_addr)?;
            println!("-- serving read-only follower on {}", handle.addr());
            if !promote {
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
            // Armed failover: promote once the primary stays
            // unreachable for a few consecutive probes (a single
            // failed pull may be a blip the tailer rides out).
            let mut strikes = 0u32;
            loop {
                std::thread::sleep(Duration::from_millis(500));
                strikes = if replica.last_error().is_some() {
                    strikes + 1
                } else {
                    0
                };
                if strikes > 0 {
                    print_follower_health(&replica.server(), strikes);
                }
                if strikes >= 4 {
                    break;
                }
            }
            println!(
                "-- primary unreachable ({}); promoting",
                replica.last_error().unwrap_or_default()
            );
            let promoted = replica.promote();
            handle.shutdown();
            let handle = NetServer::spawn(promoted, serve_addr)?;
            println!(
                "-- promoted: serving as primary on {} (repoint clients here)",
                handle.addr()
            );
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Some("--connect") => {
            if data_dir.is_some() {
                return Err("--data-dir is a server-side flag; use it with --listen/--net".into());
            }
            let addr = args
                .get(1)
                .ok_or("usage: encrypted_sql --connect <addr>")?
                .clone();
            match retry {
                Some(n) => println!("-- connecting to {addr} (2-connection pool, {n} attempts)"),
                None => println!("-- connecting to {addr} (2-connection pool)"),
            }
            let (pool, _chaos) = make_client(addr.as_str(), retry, chaos_seed)?;
            if stats_once {
                return print_stats(&pool);
            }
            if let Some(secs) = stats_every {
                loop {
                    print_stats(&pool)?;
                    std::thread::sleep(Duration::from_secs(secs.max(1)));
                }
            }
            run_script(pool)
        }
        Some(other) => Err(format!(
            "unknown mode {other:?}; use --net, --listen [addr], or --connect <addr> \
             (server-side extra: --data-dir <path> for persistence; client-side: \
             --retry <n> for exactly-once retries, --chaos-seed <s> for fault injection)"
        )
        .into()),
    }
}

/// Parses and executes the demo script against `transport` — an
/// in-process [`Server`] or a [`PooledClient`] across TCP — while a
/// local plaintext engine cross-checks every SELECT. The transport is
/// cloned into each table's crypto client; clones of a
/// [`PooledClient`] share one bounded connection pool.
fn run_script<T: Transport + Clone>(transport: T) -> Result<(), Box<dyn std::error::Error>> {
    let script = [
        "CREATE TABLE Emp (name STRING(16), dept STRING(8), salary INT)",
        "INSERT INTO Emp VALUES ('Montgomery', 'HR', 7500), ('Smith', 'IT', 4900)",
        "INSERT INTO Emp VALUES ('Jones', 'IT', 1200), ('Ng', 'IT', 4900)",
        "SELECT * FROM Emp WHERE name = 'Montgomery'",
        "SELECT name, salary FROM Emp WHERE dept = 'IT' AND salary = 4900",
        "SELECT name FROM Emp WHERE dept = 'HR' OR salary = 1200",
        "DELETE FROM Emp WHERE name = 'Jones'",
        "SELECT * FROM Emp",
        "DROP TABLE Emp",
    ];

    // Plaintext reference engine (runs locally) …
    let mut reference = Catalog::new();
    // … and the encrypted deployment (client + untrusted server).
    let master = SecretKey::from_bytes([33u8; 32]);
    let mut client: Option<Client<T>> = None;

    for statement_text in script {
        println!("sql> {statement_text}");
        let reference_outcome = sql::execute(&mut reference, statement_text)?;

        match sql::parse_statement(statement_text)? {
            Statement::CreateTable(schema) => {
                let ph = FinalSwpPh::new(schema.clone(), &master)?;
                let mut c = Client::new(ph, transport.clone());
                // A durable server may have recovered this table from
                // a previous (killed) run; the script's CREATE means
                // "start fresh", so drop any leftover best-effort.
                let _ = c.drop_table();
                // Outsource the empty table so inserts have a target.
                c.outsource(&dbph::relation::Relation::empty(schema))?;
                client = Some(c);
                println!("  created (outsourced under client key)");
            }
            Statement::Insert { rows, .. } => {
                let c = client.as_mut().expect("CREATE TABLE first");
                // Multi-row INSERTs ship as one AppendBatch message —
                // one round-trip, identical per-tuple server events.
                let tuples: Vec<Tuple> = rows.into_iter().map(Tuple::new).collect();
                c.insert_many(&tuples)?;
                println!("  inserted {} row(s) in one batch", tuples.len());
            }
            Statement::Select(stmt) => {
                let c = client.as_ref().expect("CREATE TABLE first");
                let rows = match &stmt.filter {
                    Some(dnf) => {
                        let relation = c.select_dnf(dnf)?;
                        dbph::relation::exec::project(&relation, &stmt.projection)?
                    }
                    None => {
                        // Whole-table reads stream as bounded chunks —
                        // the transfer that used to buffer the table
                        // in one frame.
                        let all = c.fetch_all_chunked(dbph::core::protocol::DEFAULT_CHUNK_BYTES)?;
                        dbph::relation::exec::project(&all, &stmt.projection)?
                    }
                };
                for row in &rows {
                    println!("  {row}");
                }
                // Cross-check against the plaintext engine.
                if let ExecOutcome::Rows { rows: expected, .. } = reference_outcome {
                    let mut a = rows.clone();
                    let mut b = expected.clone();
                    a.sort();
                    b.sort();
                    assert_eq!(a, b, "encrypted result diverged from plaintext reference");
                    println!("  ✓ matches plaintext reference ({} row(s))", rows.len());
                }
            }
            Statement::Delete { filter, .. } => {
                let c = client.as_ref().expect("CREATE TABLE first");
                let removed = c.delete(&filter)?;
                println!("  deleted {removed} row(s)");
            }
            Statement::DropTable(_) => {
                if let Some(c) = client.take() {
                    // Leave a shared server clean so --connect runs
                    // back-to-back against one --listen process.
                    c.drop_table()?;
                }
                println!("  dropped");
            }
        }
        println!();
    }
    Ok(())
}
