//! Transcript-invisible telemetry: counters, gauges, log2 latency
//! histograms, and a versioned snapshot the operator can pull.
//!
//! # Leakage stance
//!
//! Every metric in this module is a pure function of work Eve already
//! performs on her own hardware: how long *her* fsync took, how deep
//! *her* executor queue got, how many frames *her* sockets moved.
//! Nothing here derives from Alex's plaintext, keys, or query terms
//! beyond what the existing adversary transcript already records.
//! The discipline is enforced the same way sharding and durability
//! were: the telemetry test matrix pins responses, response ordering,
//! observer transcripts, and durable segment bytes byte-identical
//! with collection enabled vs disabled.
//!
//! # Cost model
//!
//! All primitives are relaxed atomics — an increment is one
//! uncontended `fetch_add(1, Relaxed)`. Timed sections pay exactly
//! one [`std::time::Instant`] pair, and only when the registry is enabled; the
//! enabled check itself is a single relaxed load. There is no
//! registry map, no string hashing, and no allocation on the hot
//! path: every metric is a named struct field, and strings appear
//! only at snapshot time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use crate::error::PhError;
use crate::protocol::tag;
use crate::wire::{Reader, WireDecode, WireEncode};

/// Version stamp carried by every [`StatsSnapshot`] on the wire.
///
/// Bump when the snapshot encoding changes shape; decoders reject
/// versions they do not understand rather than misparse.
pub const STATS_VERSION: u16 = 1;

/// The size gauges a server samples at snapshot time from the state
/// that could grow with traffic, in snapshot order: the [`Observer`]
/// transcript's events (0 when it is not recording), the dedup
/// window's clients and cached entries, and the index's posting keys
/// and the document ids they hold. Sampling them costs the request
/// path nothing; a soak run reads them to show memory stays bounded.
///
/// [`Observer`]: crate::server::Observer
pub const SIZE_GAUGES: [&str; 5] = [
    "transcript_events",
    "dedup_clients",
    "dedup_entries",
    "index_postings",
    "index_posting_ids",
];

/// Histogram bucket count: bucket `b` holds samples whose bit length
/// is `b` (i.e. values in `[2^(b-1), 2^b)`), bucket 0 holds zeros.
/// 65 buckets cover the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Number of request-kind slots in [`Telemetry::requests`]: slot `k`
/// times requests whose leading wire tag is the live tag `k`; slot 0
/// absorbs malformed frames and unknown or retired tags. Sized one
/// past the highest client tag.
pub const REQUEST_KINDS: usize = 14;

/// A monotonically increasing counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (relaxed atomics).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero (a disable/enable flip mid
    /// connection must not wrap the live-connection gauge).
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water marks).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket log2 histogram with total count, sum, and max.
///
/// Bucket boundaries are powers of two, so a recorded value lands in
/// its bucket with two instructions (`leading_zeros` + index) and the
/// snapshot can derive p50/p95/p99 to within a factor of two — ample
/// for spotting an fsync stall or a retry storm, and free of the
/// allocation/locking a sampling reservoir would need.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a sample: its bit length (0 for 0).
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `b` (`2^b - 1`; 0 for bucket 0).
#[inline]
fn bucket_upper(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating past ~584 years).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the histogram (sparse buckets).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((u8::try_from(i).expect("<=64"), n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A frozen copy of one [`Histogram`], wire-encodable and queryable
/// for approximate quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (mean = `sum / count`).
    pub sum: u64,
    /// Largest sample seen (exact, not bucketed).
    pub max: u64,
    /// Sparse `(bucket_index, count)` pairs, ascending, zeros elided.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Approximate quantile `q` in `[0, 1]`: the inclusive upper
    /// bound of the bucket containing the `ceil(q * count)`-th
    /// sample, clamped to the exact observed max. Returns 0 when the
    /// histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(b, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper(usize::from(b)).min(self.max);
            }
        }
        self.max
    }
}

impl WireEncode for HistogramSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.count.encode(buf);
        self.sum.encode(buf);
        self.max.encode(buf);
        self.buckets.encode(buf);
    }
}

impl WireDecode for HistogramSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        Ok(Self {
            count: u64::decode(r)?,
            sum: u64::decode(r)?,
            max: u64::decode(r)?,
            buckets: Vec::<(u8, u64)>::decode(r)?,
        })
    }
}

/// One sampled metric value inside a [`StatsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter sample.
    Counter(u64),
    /// Gauge sample.
    Gauge(u64),
    /// Histogram sample.
    Histogram(HistogramSnapshot),
}

impl WireEncode for MetricValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            MetricValue::Counter(v) => {
                buf.push(0);
                v.encode(buf);
            }
            MetricValue::Gauge(v) => {
                buf.push(1);
                v.encode(buf);
            }
            MetricValue::Histogram(h) => {
                buf.push(2);
                h.encode(buf);
            }
        }
    }
}

impl WireDecode for MetricValue {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        match u8::decode(r)? {
            0 => Ok(MetricValue::Counter(u64::decode(r)?)),
            1 => Ok(MetricValue::Gauge(u64::decode(r)?)),
            2 => Ok(MetricValue::Histogram(HistogramSnapshot::decode(r)?)),
            k => Err(PhError::Wire(format!("unknown metric kind {k}"))),
        }
    }
}

/// A point-in-time dump of a server's full metrics registry,
/// carried by `ServerResponse::StatsSnapshot`.
///
/// Fetching one records **no** `ServerEvent`s: the operator's health
/// probe never perturbs the adversary transcript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Encoding version, [`STATS_VERSION`].
    pub version: u16,
    /// `(name, value)` pairs in stable registry order.
    pub metrics: Vec<(String, MetricValue)>,
}

impl StatsSnapshot {
    /// Looks up a metric by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Counter/gauge value by name (None for histograms or misses).
    #[must_use]
    pub fn scalar(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            MetricValue::Histogram(_) => None,
        }
    }

    /// Histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

impl WireEncode for StatsSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.version.encode(buf);
        self.metrics.encode(buf);
    }
}

impl WireDecode for StatsSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        let version = u16::decode(r)?;
        if version != STATS_VERSION {
            return Err(PhError::Wire(format!(
                "unsupported stats version {version} (speak {STATS_VERSION})"
            )));
        }
        Ok(Self {
            version,
            metrics: Vec::<(String, MetricValue)>::decode(r)?,
        })
    }
}

impl std::fmt::Display for StatsSnapshot {
    /// Text exposition: one `<kind> <name> <value>` line per metric;
    /// histograms render count/mean/p50/p95/p99/max in nanoseconds
    /// or raw units as recorded.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "# stats v{}", self.version)?;
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(v) => writeln!(f, "counter   {name} {v}")?,
                MetricValue::Gauge(v) => writeln!(f, "gauge     {name} {v}")?,
                MetricValue::Histogram(h) => {
                    let mean = h.sum.checked_div(h.count).unwrap_or(0);
                    writeln!(
                        f,
                        "histogram {name} count={} mean={} p50={} p95={} p99={} max={}",
                        h.count,
                        mean,
                        h.quantile(0.50),
                        h.quantile(0.95),
                        h.quantile(0.99),
                        h.max,
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// The per-server metrics registry.
///
/// Every field is a plain struct member — no interior map, no name
/// lookup on the hot path. A `Server` owns one `Arc<Telemetry>`
/// shared by its clones, the durable log, the net front-end, and
/// the replica runtime; `PooledClient` owns a separate instance for
/// the client-side retry plane.
#[derive(Debug, Default)]
pub struct Telemetry {
    enabled: AtomicBool,

    /// Request latency histograms indexed by leading wire tag
    /// (nanoseconds; slot 0 = malformed frames and unknown or retired
    /// tags).
    pub requests: [Histogram; REQUEST_KINDS],
    /// Tagged mutations admitted as first-sighted.
    pub dedup_fresh: Counter,
    /// Tagged mutations answered from the dedup window (retries).
    pub dedup_replays: Counter,
    /// Tagged mutations rejected as older than the window.
    pub dedup_stale: Counter,
    /// Queries answered by a full trapdoor scan (one per query,
    /// batched or not).
    pub plan_scan_queries: Counter,
    /// Queries answered through the encrypted inverted index.
    pub plan_probe_queries: Counter,
    /// Index probes answered from a cached posting prefix.
    pub index_probe_hits: Counter,
    /// Index probes that had no cached prefix.
    pub index_probe_misses: Counter,
    /// Posting-list lengths returned by index probes.
    pub index_posting_len: Histogram,
    /// Delta-scan length: the SWP checks each probe ran over the
    /// documents past its cached prefix (the whole table on a cold
    /// probe), not the new matches it found.
    pub index_delta_len: Histogram,

    /// Nanoseconds per durable-log `fsync`.
    pub fsync_nanos: Histogram,
    /// Nanoseconds writers wait at the group-commit barrier.
    pub commit_wait_nanos: Histogram,
    /// Records covered per group-commit sync (window occupancy).
    pub commit_window_records: Histogram,

    /// Connections currently being served.
    pub net_conns_live: Gauge,
    /// Connections accepted since start.
    pub net_conns_accepted: Counter,
    /// Connections reaped by the idle timeout (a silent peer, or one
    /// that stopped reading its responses).
    pub net_conns_reaped: Counter,
    /// Request frames decoded.
    pub net_frames_in: Counter,
    /// Response frames written.
    pub net_frames_out: Counter,
    /// Request bytes read (payload + length prefix).
    pub net_bytes_in: Counter,
    /// Response bytes written (payload + length prefix).
    pub net_bytes_out: Counter,

    /// Replication chunks served to followers (primary side).
    pub repl_chunks_shipped: Counter,
    /// Replication bytes served to followers (primary side).
    pub repl_bytes_shipped: Counter,
    /// Times a `ReplPull` parked in the long-poll wait.
    pub repl_longpoll_parks: Counter,
    /// Follower resyncs (tail fell behind a compaction).
    pub repl_resyncs: Counter,
    /// Replication chunks applied by this node as a follower.
    pub repl_chunks_applied: Counter,

    /// Client-side: retry attempts beyond each first send.
    pub client_retries: Counter,
    /// Client-side: total nanoseconds slept in retry backoff.
    pub client_backoff_nanos: Counter,
    /// Client-side: explicit redirects to a promoted primary.
    pub client_failovers: Counter,
    /// Client-side: stale pooled connections replaced by fresh dials.
    pub client_reconnects: Counter,
}

impl Telemetry {
    /// A fresh registry with collection enabled.
    #[must_use]
    pub fn new() -> Self {
        let t = Self::default();
        t.enabled.store(true, Ordering::Relaxed);
        t
    }

    /// Whether collection is currently enabled (one relaxed load —
    /// every instrumentation site checks this before touching a
    /// metric or taking a timestamp).
    #[inline]
    #[must_use]
    pub fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns collection on or off at runtime. Off freezes every
    /// counter and histogram; it exists so tests and benches can
    /// compare instrumented vs uninstrumented behaviour on the same
    /// binary.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The request-latency histogram for a leading wire tag; a tag
    /// that names no live message kind lands in slot 0.
    #[inline]
    #[must_use]
    pub fn request_latency(&self, tag: u8) -> &Histogram {
        let live = tag::name(tag).is_some();
        &self.requests[if live { usize::from(tag) } else { 0 }]
    }

    /// Samples every registry metric into `(name, value)` pairs in
    /// stable declaration order. The server layers its own sampled
    /// sources (durable log, executor) on top of this.
    #[must_use]
    pub fn snapshot_metrics(&self) -> Vec<(String, MetricValue)> {
        let mut m: Vec<(String, MetricValue)> = Vec::new();
        let c = |m: &mut Vec<(String, MetricValue)>, name: &str, v: &Counter| {
            m.push((name.to_string(), MetricValue::Counter(v.get())));
        };
        let g = |m: &mut Vec<(String, MetricValue)>, name: &str, v: &Gauge| {
            m.push((name.to_string(), MetricValue::Gauge(v.get())));
        };
        let h = |m: &mut Vec<(String, MetricValue)>, name: &str, v: &Histogram| {
            m.push((name.to_string(), MetricValue::Histogram(v.snapshot())));
        };
        h(&mut m, "req_other_nanos", &self.requests[0]);
        for (t, name) in tag::NAMES {
            h(
                &mut m,
                &format!("req_{name}_nanos"),
                &self.requests[usize::from(t)],
            );
        }
        c(&mut m, "dedup_fresh", &self.dedup_fresh);
        c(&mut m, "dedup_replays", &self.dedup_replays);
        c(&mut m, "dedup_stale", &self.dedup_stale);
        c(&mut m, "plan_scan_queries", &self.plan_scan_queries);
        c(&mut m, "plan_probe_queries", &self.plan_probe_queries);
        c(&mut m, "index_probe_hits", &self.index_probe_hits);
        c(&mut m, "index_probe_misses", &self.index_probe_misses);
        h(&mut m, "index_posting_len", &self.index_posting_len);
        h(&mut m, "index_delta_len", &self.index_delta_len);
        h(&mut m, "fsync_nanos", &self.fsync_nanos);
        h(&mut m, "commit_wait_nanos", &self.commit_wait_nanos);
        h(&mut m, "commit_window_records", &self.commit_window_records);
        g(&mut m, "net_conns_live", &self.net_conns_live);
        c(&mut m, "net_conns_accepted", &self.net_conns_accepted);
        c(&mut m, "net_conns_reaped", &self.net_conns_reaped);
        c(&mut m, "net_frames_in", &self.net_frames_in);
        c(&mut m, "net_frames_out", &self.net_frames_out);
        c(&mut m, "net_bytes_in", &self.net_bytes_in);
        c(&mut m, "net_bytes_out", &self.net_bytes_out);
        c(&mut m, "repl_chunks_shipped", &self.repl_chunks_shipped);
        c(&mut m, "repl_bytes_shipped", &self.repl_bytes_shipped);
        c(&mut m, "repl_longpoll_parks", &self.repl_longpoll_parks);
        c(&mut m, "repl_resyncs", &self.repl_resyncs);
        c(&mut m, "repl_chunks_applied", &self.repl_chunks_applied);
        c(&mut m, "client_retries", &self.client_retries);
        c(&mut m, "client_backoff_nanos", &self.client_backoff_nanos);
        c(&mut m, "client_failovers", &self.client_failovers);
        c(&mut m, "client_reconnects", &self.client_reconnects);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value falls at or below its bucket's upper bound.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 33, u64::MAX] {
            assert!(v <= bucket_upper(bucket_of(v)));
        }
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        // p50 of 1..=100 is in bucket [32,64) -> upper 63; the
        // log2 approximation must bracket the true median within 2x.
        let p50 = s.quantile(0.50);
        assert!((50..=100).contains(&p50), "p50 {p50}");
        assert_eq!(s.quantile(1.0), 100); // clamped to exact max
        assert_eq!(s.quantile(0.0), 1); // rank clamps to 1
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.max, 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn gauge_saturates_and_tracks_high_water() {
        let g = Gauge::default();
        g.dec();
        assert_eq!(g.get(), 0, "dec saturates at zero");
        g.set_max(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.inc();
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn snapshot_roundtrips_on_the_wire() {
        let t = Telemetry::new();
        t.dedup_fresh.add(3);
        t.fsync_nanos.record(1500);
        t.fsync_nanos.record(0);
        t.net_conns_live.set(2);
        let snap = StatsSnapshot {
            version: STATS_VERSION,
            metrics: t.snapshot_metrics(),
        };
        let bytes = snap.to_wire();
        let back = StatsSnapshot::from_wire(&bytes).expect("roundtrip");
        assert_eq!(back, snap);
        assert_eq!(back.scalar("dedup_fresh"), Some(3));
        assert_eq!(back.scalar("net_conns_live"), Some(2));
        let h = back.histogram("fsync_nanos").expect("hist");
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 1500);
    }

    #[test]
    fn unknown_stats_version_rejected() {
        let snap = StatsSnapshot {
            version: STATS_VERSION,
            metrics: Vec::new(),
        };
        let mut bytes = snap.to_wire();
        bytes[0] = 0xFF; // corrupt the version (little-endian u16)
        assert!(StatsSnapshot::from_wire(&bytes).is_err());
    }

    #[test]
    fn disabled_registry_reports_off() {
        let t = Telemetry::new();
        assert!(t.on());
        t.set_enabled(false);
        assert!(!t.on());
        // The switch freezes nothing by itself — call sites check
        // `on()` — but the snapshot path must still work while off.
        assert!(!t.snapshot_metrics().is_empty());
    }

    #[test]
    fn request_kind_names_cover_all_slots() {
        // Every live tag has its own slot and a distinct, non-empty
        // name that is not the unknown-tag slot's.
        let mut names = std::collections::BTreeSet::new();
        for (t, name) in tag::NAMES {
            assert!(usize::from(t) < REQUEST_KINDS && t != 0, "tag {t}");
            assert!(!name.is_empty() && name != "other", "tag {t}");
            assert!(names.insert(name), "two tags named {name}");
            assert_eq!(tag::name(t), Some(name));
        }
        assert_eq!(tag::name(tag::STATS), Some("stats"));
        // Retired and unknown tags are timed in slot 0.
        let t = Telemetry::new();
        for retired in [0u8, 11, 14, 99] {
            assert!(tag::name(retired).is_none());
            assert!(std::ptr::eq(t.request_latency(retired), &t.requests[0]));
        }
        // No two metrics of a server's full snapshot share a name.
        let metrics = crate::server::Server::open(&crate::server::ServerConfig::default(), None)
            .unwrap()
            .stats_snapshot()
            .metrics;
        let unique: std::collections::BTreeSet<&str> =
            metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(unique.len(), metrics.len(), "duplicate metric names");
        assert!(unique.contains("req_other_nanos"));
        assert!(!unique.contains("req_ping_nanos"));
    }

    #[test]
    fn display_exposition_lists_every_metric() {
        let t = Telemetry::new();
        t.client_retries.inc();
        let snap = StatsSnapshot {
            version: STATS_VERSION,
            metrics: t.snapshot_metrics(),
        };
        let text = format!("{snap}");
        assert!(text.contains("counter   client_retries 1"));
        assert!(text.contains("histogram fsync_nanos"));
        assert!(text.contains("gauge     net_conns_live"));
        assert!(text.starts_with("# stats v1"));
    }
}
