//! Database privacy homomorphisms — the paper's primary contribution,
//! and the outsourcing deployment built around it.
//!
//! Evdokimov, Fischmann & Günther (ICDE 2006) define a *database
//! privacy homomorphism* (Definition 1.1) as a tuple `(K, E, Eq, D)`
//! where `E` encrypts tables, `Eq` encrypts queries, `D` decrypts, and
//! plaintext relational operations commute with ciphertext operations:
//! `E_k(σ_i(R)) = ψ_i(E_k(R))`. Alex holds the key; Eve (the server)
//! stores ciphertext and evaluates `ψ`. Everything she sees can be
//! recorded by [`server::Observer`] as the adversary's transcript: the
//! games and the transcript suites ask for it with
//! [`ServerConfig::transcript`]; a deployed server records nothing.
//!
//! Module map (design history and open items live in `ROADMAP.md`):
//!
//! * The scheme: [`ph`] (the Definition 1.1 trait; `ψ` runs keyless),
//!   [`encoding`] (the §3 attribute encoding), [`swp_ph`] (the §3
//!   construction over SWP and the one reference `ψ`,
//!   [`swp_ph::execute_query`]), [`varlen`] (per-attribute word
//!   widths).
//! * Alex and Eve: [`client`], [`server`], [`protocol`] and [`wire`]
//!   (the byte-level messages), [`codec`] and [`net`] (framed TCP, a
//!   thread-per-connection front-end, a pooled client with retries),
//!   [`sys`] (the raw `listen` that deepens the accept backlog),
//!   [`fault`] (seeded fault injection for the chaos suites).
//! * Eve's engine: [`storage`] (fixed-capacity columnar shards, batch scans,
//!   the dedup window), [`arena`] (columnar word storage), [`executor`]
//!   (the worker pool), [`index`] (the opt-in encrypted multimap).
//! * Eve's disk: [`durable`] (the segment log, group commit,
//!   compaction, recovery), [`replica`] (log-shipping followers),
//!   [`snapshot`] (Alex's integrity-checked offline export).
//! * The operator plane: [`telemetry`] (transcript-invisible metrics).
//!
//! Every server-internal mechanism — table layout, pool size, transport,
//! durability, index, telemetry — must leave responses and transcripts
//! byte-identical; the suites under `tests/` pin that.

// `deny`, not `forbid`: the [`sys`] module (one raw `listen`
// declaration) carries the crate's only scoped `allow(unsafe_code)`;
// everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod client;
pub mod codec;
pub mod durable;
pub mod encoding;
pub mod error;
pub mod executor;
pub mod fault;
pub mod index;
pub mod net;
pub mod ph;
pub mod protocol;
pub mod replica;
pub mod server;
pub mod snapshot;
pub mod storage;
pub mod swp_ph;
pub mod sys;
pub mod telemetry;
pub mod varlen;
pub mod wire;

pub use arena::WordArena;
pub use client::Client;
pub use durable::{DurableLog, DurableOptions, ReplicationOptions, ScrubReport, TempDir};
pub use encoding::WordCodec;
pub use error::PhError;
pub use executor::{Executor, ExecutorStats};
pub use fault::{ChaosPlan, ChaosProxy, FaultPlan, FaultRng, FaultTransport};
pub use index::{Posting, ProbeStats, TableIndex};
pub use net::{
    NetOptions, NetServer, PoolOptions, PooledClient, RetryPolicy, ServerHandle, Transport,
};
pub use ph::{DatabasePh, IncrementalPh};
pub use replica::{Replica, ReplicaOptions};
pub use server::{Observer, Server, ServerConfig};
pub use storage::{ShardedTable, TableStore};
pub use swp_ph::{ColumnarTable, EncryptedQuery, EncryptedTable, FinalSwpPh, SwpPh};
pub use telemetry::{HistogramSnapshot, MetricValue, StatsSnapshot, Telemetry};
pub use varlen::VarlenPh;
