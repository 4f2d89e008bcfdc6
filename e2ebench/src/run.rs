//! One workload run: set-up, the timed closed loop, and the checks.
//!
//! Shape (every workload): one process; a durable group-commit
//! [`Server`] with 2 shards behind the default thread-per-connection
//! [`NetServer`] on loopback; one [`PooledClient`] connection carrying
//! one client session that waits for every reply.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dbph_core::protocol::{ClientMessage, ServerResponse};
use dbph_core::wire::{WireDecode as _, WireEncode as _};
use dbph_core::{
    Client, EncryptedTable, FinalSwpPh, NetServer, PhError, PooledClient, Replica, ReplicaOptions,
    ReplicationOptions, Server, ServerHandle, StatsSnapshot,
};
use dbph_relation::{Relation, Tuple};
use dbph_workload::employees::EmployeeGen;

use crate::host::{self, CpuTicks};
use crate::inputs::{Inputs, Model, Op, Spec};
use crate::session::Session;

/// Storage shards of every server (the reference host's core count).
pub const SHARDS: usize = 2;

/// A set-up's live deployment.
pub struct Rig {
    primary_dir: PathBuf,
    server: Server,
    handle: ServerHandle,
    pub pool: PooledClient,
    pub client: Client<PooledClient>,
    replica: Option<Replica>,
    /// Wall time of the `open_durable` that built `server` — a
    /// recovery from the log when set-up reopens the primary.
    pub recover: Duration,
}

fn open(dir: &Path) -> Result<(Server, Duration), PhError> {
    let started = Instant::now();
    let server = Server::open_durable(dir, SHARDS)?;
    Ok((server, started.elapsed()))
}

pub fn ph(inputs: &Inputs) -> FinalSwpPh {
    FinalSwpPh::new(inputs.relation.schema().clone(), &inputs.key).expect("Emp schema fits SWP")
}

/// Builds a deployment under `dir` and returns it with its set-up
/// time: from opening the data directory to ready for the first timed
/// operation. A fixed amount of work — no sleeps, no polling.
pub fn set_up(
    spec: &Spec,
    inputs: &Inputs,
    model: &Model,
    dir: &Path,
) -> Result<(Rig, Duration), PhError> {
    let primary_dir = dir.join("primary");
    let started = Instant::now();
    let (mut server, mut recover) = open(&primary_dir)?;
    if spec.index {
        server.enable_index();
    }
    let mut handle = NetServer::spawn(server.clone(), "127.0.0.1:0")?;
    let pool = PooledClient::connect(handle.addr(), 1)?;
    let mut client = Client::new(ph(inputs), pool.clone());
    client.outsource(&inputs.relation)?;
    for op in &inputs.warm {
        if let Op::Select { query, attr, value } = op {
            if !client
                .select(query)?
                .same_multiset(&model.expect(*attr, value))
            {
                return Err(PhError::Protocol(format!(
                    "wrong warm-up answer to {query}"
                )));
            }
        }
    }
    let mut replica = None;
    if spec.replicated {
        // Restart the primary so recovery is part of set-up, then
        // attach a semi-sync follower over its own TCP connection.
        handle.shutdown();
        drop(server);
        (server, recover) = open(&primary_dir)?;
        handle = NetServer::spawn(server.clone(), "127.0.0.1:0")?;
        pool.redirect(handle.addr())?;
        let feed = PooledClient::connect(handle.addr(), 1)?;
        let options = ReplicaOptions {
            poll_interval: Duration::ZERO,
            ..ReplicaOptions::default()
        };
        let mut follower = Replica::bootstrap(feed, dir.join("follower"), options)?;
        server.set_replication(ReplicationOptions {
            min_acks: 1,
            ..ReplicationOptions::default()
        })?;
        follower.start();
        replica = Some(follower);
    }
    let elapsed = started.elapsed();
    Ok((
        Rig {
            primary_dir,
            server,
            handle,
            pool,
            client,
            replica,
            recover,
        },
        elapsed,
    ))
}

/// Counters sampled around the timed phase.
pub struct Sample {
    pub primary: StatsSnapshot,
    pub follower: Option<StatsSnapshot>,
    pub client_retries: u64,
    pub disk_bytes: u64,
}

impl Rig {
    pub fn sample(&self) -> Sample {
        Sample {
            primary: self.server.stats_snapshot(),
            follower: self.replica.as_ref().map(|r| r.server().stats_snapshot()),
            client_retries: self.pool.telemetry().client_retries.get(),
            disk_bytes: host::dir_bytes(&self.primary_dir),
        }
    }

    /// Events in the server's transcript so far.
    pub fn observer_events(&self) -> usize {
        self.server.observer().events().len()
    }

    /// Stops every thread of the deployment. For a replicated rig with
    /// `expected` (every acknowledged row, and the operations that
    /// wrote them), promotes the follower, reopens the primary from its
    /// log, and returns the insert operations with a row missing from
    /// either copy.
    pub fn tear_down(
        self,
        inputs: &Inputs,
        expected: Option<(&Relation, &[Op])>,
    ) -> Result<usize, PhError> {
        let Rig {
            primary_dir,
            server,
            handle,
            pool,
            client,
            replica,
            ..
        } = self;
        drop(client);
        drop(pool);
        handle.shutdown();
        drop(server);
        let (Some(follower), Some((rows, ops))) = (replica, expected) else {
            return Ok(0);
        };
        let promoted = fetch_table(&follower.promote())?;
        let reopened = fetch_table(&open(&primary_dir)?.0)?;
        let ph = ph(inputs);
        // Decrypt one copy; the other only when the two differ.
        let mut lost = missing(&decrypt(&ph, &reopened)?, rows, ops);
        if promoted != reopened {
            lost = lost.max(1) + missing(&decrypt(&ph, &promoted)?, rows, ops);
        }
        Ok(lost)
    }
}

/// The `Emp` table as a server holds it, fetched in-process.
fn fetch_table(server: &Server) -> Result<EncryptedTable, PhError> {
    let name = EmployeeGen::schema().name().to_string();
    let response = server.handle(&ClientMessage::FetchAll { name }.to_wire());
    match ServerResponse::from_wire(&response)? {
        ServerResponse::Table(t) => Ok(t),
        other => Err(PhError::Protocol(format!("fetch answered {other:?}"))),
    }
}

/// Decrypts `table` into the `Emp` relation.
fn decrypt(ph: &FinalSwpPh, table: &EncryptedTable) -> Result<Relation, PhError> {
    let tuples = ph
        .decrypt_docs(table)?
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    Ok(Relation::from_tuples(EmployeeGen::schema(), tuples)?)
}

/// 0 when `copy` holds exactly the acknowledged rows; otherwise the
/// number of insert operations with a row absent from it (at least 1).
fn missing(copy: &Relation, expected: &Relation, ops: &[Op]) -> usize {
    if copy.same_multiset(expected) {
        return 0;
    }
    let held: BTreeSet<&Tuple> = copy.tuples().iter().collect();
    let lost = ops
        .iter()
        .filter(|op| matches!(op, Op::Insert(rows) if rows.iter().any(|r| !held.contains(r))))
        .count();
    lost.max(1)
}

/// What the timed phase measured.
pub struct Timed {
    /// Per-operation latency, in operation order.
    pub latencies_ns: Vec<u64>,
    /// When each operation completed, from the start of the loop.
    pub ends_ns: Vec<u64>,
    pub wall: Duration,
    pub cpu_s: f64,
    pub steal_share: f64,
    pub loadavg_1m: f64,
    /// Operations that failed or answered wrongly.
    pub failed: usize,
}

/// Runs `ops` closed-loop through `session`, then checks every answer
/// against `model` (which it advances past the inserts). Answers are
/// kept until the loop ends, so checking stays outside the timer.
pub fn drive(session: &mut dyn Session, ops: &[Op], model: &mut Model) -> Timed {
    let mut latencies_ns = Vec::with_capacity(ops.len());
    let mut ends_ns = Vec::with_capacity(ops.len());
    let mut answers: Vec<Result<Option<Relation>, PhError>> = Vec::with_capacity(ops.len());
    let ticks = CpuTicks::now();
    let cpu = host::process_cpu_s();
    let started = Instant::now();
    for op in ops {
        let t0 = Instant::now();
        let answer = match op {
            Op::Select { query, .. } => session.select(query).map(Some),
            Op::Insert(rows) => session.insert(rows).map(|()| None),
        };
        let end = Instant::now();
        latencies_ns.push(nanos(end - t0));
        ends_ns.push(nanos(end - started));
        answers.push(answer);
    }
    let wall = started.elapsed();
    let cpu_s = host::process_cpu_s() - cpu;
    let steal_share = CpuTicks::now().steal_share_since(&ticks);
    let loadavg_1m = host::loadavg_1m();

    let mut failed = 0;
    for (op, answer) in ops.iter().zip(answers) {
        let ok = match (op, answer) {
            (Op::Select { attr, value, .. }, Ok(Some(got))) => {
                got.same_multiset(&model.expect(*attr, value))
            }
            (Op::Insert(rows), Ok(None)) => {
                rows.iter().for_each(|r| model.insert(r));
                true
            }
            _ => false,
        };
        failed += usize::from(!ok);
    }
    Timed {
        latencies_ns,
        ends_ns,
        wall,
        cpu_s,
        steal_share,
        loadavg_1m,
        failed,
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A run's working directory under `.e2ebench_run/`, removed on drop.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".e2ebench_run").join(format!("{label}-{}", std::process::id()));
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}
