//! End-to-end and per-layer metrics from one run's measurements.
//!
//! Per-layer numbers come from outside the program: the traced
//! session's spans, and deltas of `Server::stats_snapshot` (primary and
//! follower) and the pool's client counters across the timed phase.

use crate::inputs::{Op, Spec};
use crate::run::{Sample, Timed};
use crate::trace::{Layer, LayerTime};

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `q`-quantile of `sorted` by nearest rank.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Operations per measurement window: a window's p99 has ten samples
/// beyond it.
pub const WINDOW_OPS: usize = 1000;

/// One window of the timed phase.
struct Window {
    ops: usize,
    seconds: f64,
    sorted_ns: Vec<u64>,
}

/// The timed phase cut into consecutive windows of about
/// [`WINDOW_OPS`] operations.
fn windows(timed: &Timed) -> Vec<Window> {
    let n = timed.latencies_ns.len();
    let count = window_count(n);
    let mut start_ns = 0;
    (0..count)
        .map(|w| {
            let (lo, hi) = (w * n / count, (w + 1) * n / count);
            let end_ns = timed.ends_ns[hi - 1];
            let mut sorted_ns = timed.latencies_ns[lo..hi].to_vec();
            sorted_ns.sort_unstable();
            let seconds = (end_ns - start_ns) as f64 / 1e9;
            start_ns = end_ns;
            Window {
                ops: hi - lo,
                seconds,
                sorted_ns,
            }
        })
        .collect()
}

/// Median over `windows` of each window's throughput.
fn ops_per_s(windows: &[Window]) -> f64 {
    let mut per_window: Vec<f64> = windows.iter().map(|w| w.ops as f64 / w.seconds).collect();
    median(&mut per_window)
}

/// Median over `windows` of each window's `q`-quantile latency, in ms.
fn latency_ms(windows: &[Window], q: f64) -> f64 {
    let mut per_window: Vec<f64> = windows
        .iter()
        .map(|w| quantile(&w.sorted_ns, q) as f64 / 1e6)
        .collect();
    median(&mut per_window)
}

/// Number of measurement windows in a timed phase of `ops` operations.
pub fn window_count(ops: usize) -> usize {
    (ops / WINDOW_OPS).max(1)
}

/// What a user of the system sees, from the untraced run. Throughput
/// and the median latency are medians over the run's windows, so a
/// burst of host noise shorter than half the run does not move them.
/// The latency tail is in [`tail`].
pub fn end_to_end(
    timed: &Timed,
    setup_s: f64,
    peak_rss_mb: f64,
    disk_bytes: u64,
    live_rows: usize,
) -> Vec<Metric> {
    let windows = windows(timed);
    let ops = timed.latencies_ns.len() as f64;
    vec![
        metric("ops_per_s", ops_per_s(&windows), "1/s"),
        metric("p50_ms", latency_ms(&windows, 0.50), "ms"),
        metric("cpu_us_per_op", timed.cpu_s * 1e6 / ops, "us"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric(
            "disk_bytes_per_row",
            ratio(disk_bytes as f64, live_rows as f64),
            "B",
        ),
        metric("setup_s", setup_s, "s"),
    ]
}

/// The latency tail of an untraced run, medians over windows. It is
/// recorded but not bounded: on a shared host the share of operations
/// that CPU steal and disk contention delay moves p95 and p99 by more
/// than any bound between runs of the same code (see `README.md`).
pub fn tail(timed: &Timed) -> Vec<Metric> {
    let windows = windows(timed);
    vec![
        metric("untraced.p95_ms", latency_ms(&windows, 0.95), "ms"),
        metric("untraced.p99_ms", latency_ms(&windows, 0.99), "ms"),
    ]
}

/// Counter and histogram deltas between two samples.
struct Delta<'a> {
    before: &'a Sample,
    after: &'a Sample,
}

impl Delta<'_> {
    fn counter(&self, name: &str) -> f64 {
        let get = |s: &Sample| s.primary.scalar(name).unwrap_or(0);
        get(self.after).saturating_sub(get(self.before)) as f64
    }

    fn follower_counter(&self, name: &str) -> f64 {
        let get = |s: &Sample| {
            s.follower
                .as_ref()
                .and_then(|f| f.scalar(name))
                .unwrap_or(0)
        };
        get(self.after).saturating_sub(get(self.before)) as f64
    }

    /// `(count, sum)` added to a histogram.
    fn hist(&self, name: &str) -> (f64, f64) {
        let get = |s: &Sample| {
            s.primary
                .histogram(name)
                .map_or((0, 0), |h| (h.count, h.sum))
        };
        let (c0, s0) = get(self.before);
        let (c1, s1) = get(self.after);
        (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
    }

    fn mean(&self, name: &str) -> f64 {
        let (count, sum) = self.hist(name);
        ratio(sum, count)
    }
}

/// Inputs to the per-layer attribution of one traced run.
pub struct Traced<'a> {
    pub spec: &'a Spec,
    pub ops: &'a [Op],
    pub timed: &'a Timed,
    pub before: &'a Sample,
    pub after: &'a Sample,
    pub layers: &'a [LayerTime],
    pub observer_events: usize,
    pub recover_ms: f64,
    /// The untraced run over the same operations.
    pub untraced: &'a Timed,
}

/// Cipher words per `Emp` document: one per attribute.
const WORDS_PER_DOC: f64 = 3.0;

pub fn per_layer(t: &Traced<'_>) -> Vec<Metric> {
    let d = Delta {
        before: t.before,
        after: t.after,
    };
    let ops = t.ops.len() as f64;
    let (_, inserts, inserted_rows) = crate::inputs::mix(t.ops);
    let wall_s = t.timed.wall.as_secs_f64();
    let layer = |l: Layer| t.layers.get(l.slot()).copied().unwrap_or_default();

    let mut out = Vec::new();
    for (l, name) in [
        (Layer::EncryptQuery, "swp_ph.encrypt_query_us"),
        (Layer::DecryptResult, "swp_ph.decrypt_result_us"),
        (Layer::AppendTuple, "swp_ph.append_tuple_us"),
        (Layer::Encode, "protocol.encode_us"),
        (Layer::Decode, "protocol.decode_us"),
        (Layer::Op, "client.glue_us"),
        (Layer::Call, "net.call_us"),
    ] {
        out.push(metric(name, layer(l).mean_us(), "us"));
    }

    // Server-side handling of the session's own requests (the
    // follower's replication pulls are excluded).
    let kinds = ["query", "append", "append_batch"];
    let mut handled = (0.0, 0.0);
    for kind in kinds {
        let (count, sum) = d.hist(&format!("req_{kind}_nanos"));
        handled = (handled.0 + count, handled.1 + sum);
        out.push(metric(
            &format!("server.handle_{kind}_us"),
            ratio(sum, count) / 1e3,
            "us",
        ));
    }
    let handle_us = ratio(handled.1, handled.0) / 1e3;
    out.push(metric("server.handle_us", handle_us, "us"));
    out.push(metric(
        "net.transport_us",
        layer(Layer::Call).mean_us() - handle_us,
        "us",
    ));
    out.push(metric(
        "net.bytes_per_op",
        (d.counter("net_bytes_in") + d.counter("net_bytes_out")) / ops,
        "B",
    ));
    out.push(metric(
        "net.client_retries",
        t.after
            .client_retries
            .saturating_sub(t.before.client_retries) as f64,
        "count",
    ));
    out.push(metric(
        "server.observer_events_per_op",
        t.observer_events as f64 / ops,
        "count",
    ));

    let hits = d.counter("index_probe_hits");
    let misses = d.counter("index_probe_misses");
    out.push(metric(
        "index.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    ));
    out.push(metric(
        "index.delta_len_mean",
        d.mean("index_delta_len"),
        "count",
    ));

    let busy_ns = d.counter("exec_busy_nanos");
    let workers = t.after.primary.scalar("exec_workers").unwrap_or(1) as f64;
    out.push(metric("executor.busy_us_per_op", busy_ns / 1e3 / ops, "us"));
    out.push(metric(
        "executor.tasks_per_op",
        d.counter("exec_tasks") / ops,
        "count",
    ));
    out.push(metric(
        "executor.utilization",
        ratio(busy_ns / 1e9, wall_s * workers),
        "ratio",
    ));
    // Scans read the whole preloaded table (no inserts run alongside).
    let scan_words = d.counter("plan_scan_queries") * t.spec.rows as f64 * WORDS_PER_DOC;
    out.push(metric(
        "storage.scan_words_per_us",
        ratio(scan_words, busy_ns / 1e3),
        "1/us",
    ));

    out.push(metric(
        "durable.syncs_per_mutation",
        ratio(d.counter("log_syncs"), inserts as f64),
        "ratio",
    ));
    out.push(metric(
        "durable.fsync_us",
        d.mean("fsync_nanos") / 1e3,
        "us",
    ));
    out.push(metric(
        "durable.commit_wait_us",
        d.mean("commit_wait_nanos") / 1e3,
        "us",
    ));
    out.push(metric(
        "durable.records_per_sync",
        d.mean("commit_window_records"),
        "count",
    ));
    out.push(metric(
        "durable.log_bytes_per_row",
        ratio(
            t.after.disk_bytes.saturating_sub(t.before.disk_bytes) as f64,
            inserted_rows as f64,
        ),
        "B",
    ));
    out.push(metric("durable.recover_ms", t.recover_ms, "ms"));

    let chunks = d.follower_counter("repl_chunks_applied");
    out.push(metric(
        "replica.records_per_chunk",
        ratio(
            if t.spec.replicated {
                inserts as f64
            } else {
                0.0
            },
            chunks,
        ),
        "count",
    ));
    out.push(metric(
        "replica.follower_syncs_per_op",
        d.follower_counter("log_syncs") / ops,
        "count",
    ));
    out.push(metric(
        "replica.degraded_acks",
        d.counter("repl_semi_sync_degraded"),
        "count",
    ));
    out.extend(tail(t.untraced));
    // Throughput lost to tracing, each side a median over windows so
    // that a burst of host noise in one run does not pass for it.
    out.push(metric(
        "trace.overhead_pct",
        (ops_per_s(&windows(t.untraced)) / ops_per_s(&windows(t.timed)) - 1.0) * 100.0,
        "%",
    ));
    out
}
