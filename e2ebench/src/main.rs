//! Socket-to-decrypt benchmark for the SWP outsourcing deployment.
//!
//! Drives Alex's real path — client encryption, framing, loopback TCP,
//! a durable group-commit server, decryption and the false-positive
//! filter — one closed-loop session at a time, checks every answer
//! against a plaintext model, and prints one JSON line last:
//!
//! ```text
//! e2ebench --workload <point_rw|scan_select|ingest_replicated|all>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! same seed untraced and then traced, and reports the per-layer
//! metrics and the tracing overhead. `--workload all` does both for
//! every workload. See `e2ebench/README.md`.

mod host;
mod inputs;
mod metrics;
mod run;
mod session;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use dbph_core::PhError;

use crate::inputs::{generate, mix, Inputs, Model, Spec, Workload};
use crate::metrics::{median, Metric, Traced};
use crate::run::{drive, ph, set_up, Rig, RunDir, Sample, Timed};
use crate::session::TracedSession;
use crate::trace::LayerTime;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w = Workload::parse(&value).ok_or(format!("unknown workload {value}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One pass over the operation sequence on a fresh deployment.
struct Pass {
    timed: Timed,
    before: Sample,
    after: Sample,
    setups_s: Vec<f64>,
    recover_ms: f64,
    peak_rss_mb: f64,
    live_rows: usize,
    /// Failed operations: wrong or failed answers (transport errors
    /// included), degraded semi-sync acks and acknowledged rows lost at
    /// failover.
    failed: usize,
    /// Traced passes only: layer self times, spans, transcript growth.
    layers: Vec<LayerTime>,
    spans_tsv: String,
    observer_events: usize,
}

fn pass(
    spec: &Spec,
    inputs: &Inputs,
    dir: &Path,
    setup_reps: usize,
    traced: bool,
) -> Result<Pass, PhError> {
    let mut model = Model::new(&inputs.relation);
    let mut setups_s = Vec::with_capacity(setup_reps);
    let mut rig: Option<Rig> = None;
    for rep in 0..setup_reps {
        if let Some(previous) = rig.take() {
            previous.tear_down(inputs, None)?;
        }
        let (next, elapsed) = set_up(spec, inputs, &model, &dir.join(format!("rep{rep}")))?;
        setups_s.push(elapsed.as_secs_f64());
        rig = Some(next);
    }
    let mut rig = rig.expect("at least one set-up");
    let events_before = if traced { rig.observer_events() } else { 0 };
    let before = rig.sample();
    let (timed, tracer) = if traced {
        let rows = u64::try_from(inputs.relation.len()).expect("small");
        let mut session = TracedSession::new(ph(inputs), rig.pool.clone(), rows);
        let timed = drive(&mut session, &inputs.ops, &mut model);
        (timed, Some(session.tracer))
    } else {
        (drive(&mut rig.client, &inputs.ops, &mut model), None)
    };
    let after = rig.sample();
    let observer_events = if traced {
        rig.observer_events() - events_before
    } else {
        0
    };
    let peak_rss_mb = host::peak_rss_mb();
    let recover_ms = rig.recover.as_secs_f64() * 1e3;
    let lost = rig.tear_down(inputs, Some((model.all(), &inputs.ops)))?;
    let degraded = |s: &Sample| s.primary.scalar("repl_semi_sync_degraded").unwrap_or(0);
    let failed = timed.failed
        + lost
        + usize::try_from(degraded(&after).saturating_sub(degraded(&before))).unwrap_or(usize::MAX);
    Ok(Pass {
        timed,
        before,
        after,
        setups_s,
        recover_ms,
        peak_rss_mb,
        live_rows: model.all().len(),
        failed,
        layers: tracer
            .as_ref()
            .map(|t| t.self_times().to_vec())
            .unwrap_or_default(),
        spans_tsv: tracer.map(|t| t.to_tsv()).unwrap_or_default(),
        observer_events,
    })
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn run_workload(workload: Workload, args: &Args, trace: bool) -> Result<Outcome, PhError> {
    let spec = workload.spec();
    let inputs = generate(workload, &spec, args.seed, spec.ops(args.seconds));
    let run_dir = RunDir::new(workload.name())
        .map_err(|e| PhError::Durability(format!("run directory: {e}")))?;
    // `peak_rss_mb` is this workload's own peak, not an earlier one's.
    host::reset_peak_rss();
    let (selects, inserts, rows) = mix(&inputs.ops);
    let n = inputs.ops.len();
    println!(
        "# {} seed={} trace={} provenance={} nproc={} target_cpu={}",
        workload.name(),
        args.seed,
        u8::from(trace),
        host::provenance(),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        host::target_cpu(),
    );
    println!(
        "# table_rows={} ops={n} (selects={selects} inserts={inserts} inserted_rows={rows}) \
         windows={} of ~{} ops, each with {} samples beyond its p95 and {} beyond its p99",
        spec.rows,
        metrics::window_count(n),
        n / metrics::window_count(n),
        n / metrics::window_count(n) / 20,
        n / metrics::window_count(n) / 100,
    );

    if !trace {
        let p = pass(
            &spec,
            &inputs,
            &run_dir.0.join("untraced"),
            spec.setup_reps,
            false,
        )?;
        println!(
            "# setup_reps={} setup_s={:?} steal_share={:.4} loadavg_1m={:.2}",
            p.setups_s.len(),
            p.setups_s,
            p.timed.steal_share,
            p.timed.loadavg_1m
        );
        let metrics = end_to_end(&p);
        for m in metrics.iter().chain(&metrics::tail(&p.timed)) {
            println!(
                "{:<20} {:>14.4} {:<5} {}",
                m.name,
                m.value,
                m.unit,
                samples(m, &p)
            );
        }
        return Ok(Outcome {
            attempted: n,
            failed: p.failed,
            metrics,
        });
    }

    let plain = pass(&spec, &inputs, &run_dir.0.join("untraced"), 1, false)?;
    let traced = pass(&spec, &inputs, &run_dir.0.join("traced"), 1, true)?;
    println!(
        "# untraced_wall_s={:.4} traced_wall_s={:.4} steal_share={:.4} loadavg_1m={:.2}",
        plain.timed.wall.as_secs_f64(),
        traced.timed.wall.as_secs_f64(),
        traced.timed.steal_share,
        traced.timed.loadavg_1m
    );
    let metrics = per_layer(&spec, &inputs, &traced, &plain);
    for m in &metrics {
        println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let spans = Path::new(".e2ebench_run").join(format!("spans-{}.tsv", workload.name()));
    std::fs::write(&spans, &traced.spans_tsv)
        .map_err(|e| PhError::Durability(format!("write {}: {e}", spans.display())))?;
    println!("# spans written to {}", spans.display());
    Ok(Outcome {
        attempted: 2 * n,
        failed: plain.failed + traced.failed,
        metrics,
    })
}

fn end_to_end(p: &Pass) -> Vec<Metric> {
    let mut setups = p.setups_s.clone();
    metrics::end_to_end(
        &p.timed,
        median(&mut setups),
        p.peak_rss_mb,
        p.after.disk_bytes,
        p.live_rows,
    )
}

/// Per-layer metrics of `traced`, with its overhead over `plain`.
fn per_layer(spec: &Spec, inputs: &Inputs, traced: &Pass, plain: &Pass) -> Vec<Metric> {
    metrics::per_layer(&Traced {
        spec,
        ops: &inputs.ops,
        timed: &traced.timed,
        before: &traced.before,
        after: &traced.after,
        layers: &traced.layers,
        observer_events: traced.observer_events,
        recover_ms: traced.recover_ms,
        untraced: &plain.timed,
    })
}

/// How many measurements stand behind an end-to-end metric.
fn samples(m: &Metric, p: &Pass) -> String {
    let n = p.timed.latencies_ns.len();
    match m.name.as_str() {
        "setup_s" => format!("median of {} set-ups", p.setups_s.len()),
        "peak_rss_mb" | "disk_bytes_per_row" => "one reading after the timed phase".into(),
        "cpu_us_per_op" => format!("{n} operations"),
        "untraced.p95_ms" | "untraced.p99_ms" => format!(
            "median of {} windows, {n} latency samples; recorded, not bounded",
            metrics::window_count(n)
        ),
        _ => format!(
            "median of {} windows, {n} latency samples",
            metrics::window_count(n)
        ),
    }
}

fn json(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    // `--workload all` runs every workload untraced and traced.
    let several = args.workloads.len() > 1;
    let modes: &[bool] = if several {
        &[false, true]
    } else {
        &[args.trace]
    };
    let (mut attempted, mut failed, mut all) = (0, 0, Vec::new());
    for (&workload, &trace) in args
        .workloads
        .iter()
        .flat_map(|w| modes.iter().map(move |t| (w, t)))
    {
        match run_workload(workload, &args, trace) {
            Ok(o) => {
                attempted += o.attempted;
                failed += o.failed;
                for mut m in o.metrics {
                    if several {
                        m.name = format!("{}.{}", workload.name(), m.name);
                    }
                    all.push(m);
                }
            }
            Err(e) => {
                eprintln!("e2ebench: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", json(attempted, failed, &all));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run of `workload` small enough for a unit test.
    fn small(workload: Workload) -> Spec {
        let spec = workload.spec();
        Spec {
            rows: 300,
            hot_names: spec.hot_names.min(16),
            setup_reps: 1,
            ..spec
        }
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }

    /// The counts a seed must repeat exactly, run after run, traced or
    /// not: the operation mix, `index.hit_ratio`,
    /// `durable.syncs_per_mutation` and `disk_bytes_per_row`.
    #[test]
    fn one_seed_repeats_its_counts_exactly() {
        for workload in Workload::ALL {
            let spec = small(workload);
            let inputs = generate(workload, &spec, 7, 120);
            assert!(inputs.ops == generate(workload, &spec, 7, 120).ops);
            assert!(inputs.ops != generate(workload, &spec, 8, 120).ops);
            let run_dir = RunDir::new(&format!("test-{}", workload.name())).expect("run directory");
            let passes: Vec<Pass> = [false, false, true]
                .iter()
                .enumerate()
                .map(|(i, &traced)| {
                    pass(&spec, &inputs, &run_dir.0.join(i.to_string()), 1, traced).expect("pass")
                })
                .collect();
            let pinned = |p: &Pass| {
                let layers = per_layer(&spec, &inputs, p, &passes[0]);
                [
                    value(&layers, "index.hit_ratio"),
                    value(&layers, "durable.syncs_per_mutation"),
                    value(&end_to_end(p), "disk_bytes_per_row"),
                ]
            };
            let first = pinned(&passes[0]);
            for p in &passes {
                assert_eq!(p.failed, 0, "{}", workload.name());
                assert_eq!(p.timed.latencies_ns.len(), inputs.ops.len());
                assert_eq!(pinned(p), first, "{}", workload.name());
            }
            assert!(first[2] > 0.0, "{}", workload.name());
            if workload == Workload::PointRw {
                assert!(first[0] > 0.5, "hot probes should hit: {first:?}");
            }
            if workload != Workload::ScanSelect {
                assert!(first[1] >= 1.0, "{first:?}");
            }
        }
    }
}
