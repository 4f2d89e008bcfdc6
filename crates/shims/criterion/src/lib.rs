//! Offline shim for `criterion`.
//!
//! Implements the API surface the workspace's benches use
//! (`criterion_group!`/`criterion_main!`, `Criterion::benchmark_group`,
//! `BenchmarkGroup::{throughput, bench_function, finish}`,
//! `BenchmarkId`, `Bencher::iter`, `black_box`) over a simple
//! wall-clock harness: auto-calibrated iteration counts, several
//! samples per benchmark, median + min reported.
//!
//! Set `CRITERION_JSON=<path>` to also write all results of a bench
//! run as a JSON array (used to check benchmark artifacts into the
//! repo), and `CRITERION_SAMPLE_MS` to change the per-sample time
//! budget (default 150 ms). Every JSON row carries its provenance and
//! its spread: the commit (read from `.git`, marked `-dirty` when the
//! tree has uncommitted changes, or `unknown`), the core
//! count, the sample budget and count, and the min, quartiles and max
//! of the samples beside the median.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer value laundering.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Units processed per iteration, for derived rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes per iteration.
    Bytes(u64),
    /// Logical elements per iteration.
    Elements(u64),
}

/// A benchmark identifier: `function_name/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter rendering.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id from just the parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Accepts both `&str` and [`BenchmarkId`] where criterion does.
pub trait IntoBenchmarkId {
    /// The rendered id string.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Measures `f`: calibrates an iteration count to the per-sample
    /// budget, then records several timed samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let budget = sample_budget();
        // Calibrate: double the batch until one batch costs ≥ ~budget/8.
        let mut batch: u64 = 1;
        let per_iter_estimate = loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= budget / 8 || batch >= 1 << 24 {
                break elapsed.as_secs_f64() / batch as f64;
            }
            batch *= 2;
        };
        let target_iters =
            ((budget.as_secs_f64() / per_iter_estimate.max(1e-9)) as u64).clamp(1, 1 << 24);

        self.samples_ns.clear();
        for _ in 0..SAMPLES {
            let start = Instant::now();
            for _ in 0..target_iters {
                black_box(f());
            }
            let ns = start.elapsed().as_secs_f64() * 1e9 / target_iters as f64;
            self.samples_ns.push(ns);
        }
    }
}

/// Timed samples per benchmark.
const SAMPLES: usize = 5;

fn sample_budget() -> Duration {
    let ms = std::env::var("CRITERION_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(150);
    Duration::from_millis(ms.max(1))
}

/// The commit the bench was built from: `HEAD` of the nearest `.git`
/// directory at or above `dir`, followed through the ref it names
/// (loose or packed), or `unknown`. It ends in `-dirty` when the
/// working tree has uncommitted changes to tracked files, so an
/// artifact made before its change was committed does not pass for
/// the parent's; where `git` cannot run, the sha goes unmarked.
fn commit_in(dir: &Path) -> String {
    let resolve = || -> Option<String> {
        let git = dir
            .ancestors()
            .map(|d| d.join(".git"))
            .find(|g| g.is_dir())?;
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let Some(name) = head.trim().strip_prefix("ref: ") else {
            return Some(head.trim().to_string());
        };
        if let Ok(sha) = std::fs::read_to_string(git.join(name)) {
            return Some(sha.trim().to_string());
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed.lines().find_map(|line| {
            let (sha, r) = line.split_once(' ')?;
            (r == name).then(|| sha.to_string())
        })
    };
    let Some(sha) =
        resolve().filter(|sha| !sha.is_empty() && sha.bytes().all(|b| b.is_ascii_hexdigit()))
    else {
        return "unknown".to_string();
    };
    let dirty = std::process::Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
        .is_ok_and(|out| out.status.success() && !out.stdout.is_empty());
    if dirty {
        format!("{sha}-dirty")
    } else {
        sha
    }
}

/// The sample at quantile `q` of ascending `sorted` (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/function/parameter` path.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Fastest sample, nanoseconds per iteration.
    pub min_ns: f64,
    /// Every sample, nanoseconds per iteration, ascending.
    pub samples_ns: Vec<f64>,
    /// Declared throughput, if any.
    pub throughput: Option<Throughput>,
}

impl BenchResult {
    fn rate(&self) -> Option<String> {
        let per_sec = |units: u64| units as f64 / (self.median_ns * 1e-9);
        match self.throughput {
            Some(Throughput::Bytes(n)) => {
                Some(format!("{:.1} MiB/s", per_sec(n) / (1024.0 * 1024.0)))
            }
            Some(Throughput::Elements(n)) => Some(format!("{:.0} elem/s", per_sec(n))),
            None => None,
        }
    }
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        self.run_one(id.into_id(), None, f);
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(
        &mut self,
        id: String,
        throughput: Option<Throughput>,
        mut f: F,
    ) {
        let mut bencher = Bencher {
            samples_ns: Vec::new(),
        };
        f(&mut bencher);
        let mut ns = bencher.samples_ns;
        assert!(!ns.is_empty(), "benchmark {id} never called Bencher::iter");
        ns.sort_by(|a, b| a.total_cmp(b));
        let result = BenchResult {
            id,
            median_ns: ns[ns.len() / 2],
            min_ns: ns[0],
            samples_ns: ns,
            throughput,
        };
        let rate = result
            .rate()
            .map(|r| format!("  ({r})"))
            .unwrap_or_default();
        println!(
            "bench: {:<56} {:>14.1} ns/iter (min {:.1}){rate}",
            result.id, result.median_ns, result.min_ns
        );
        self.results.push(result);
    }

    /// Writes collected results as JSON when `CRITERION_JSON` is set.
    /// Called by [`criterion_main!`]; harmless to call twice.
    pub fn write_json_if_requested(&self) {
        let Ok(path) = std::env::var("CRITERION_JSON") else {
            return;
        };
        let commit =
            std::env::current_dir().map_or_else(|_| "unknown".to_string(), |cwd| commit_in(&cwd));
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let sample_ms = sample_budget().as_millis();
        let mut out = String::from("[\n");
        for (i, r) in self.results.iter().enumerate() {
            let (tp_kind, tp_units) = match r.throughput {
                Some(Throughput::Bytes(n)) => ("\"bytes\"", n),
                Some(Throughput::Elements(n)) => ("\"elements\"", n),
                None => ("null", 0),
            };
            let ns = &r.samples_ns;
            out.push_str(&format!(
                "  {{\"id\": \"{}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \
                 \"p25_ns\": {:.1}, \"p75_ns\": {:.1}, \"max_ns\": {:.1}, \
                 \"samples\": {}, \"sample_ms\": {sample_ms}, \"nproc\": {nproc}, \
                 \"commit\": \"{commit}\", \
                 \"throughput_kind\": {}, \"throughput_units\": {}}}{}\n",
                r.id.replace('"', "'"),
                r.median_ns,
                r.min_ns,
                quantile(ns, 0.25),
                quantile(ns, 0.75),
                ns[ns.len() - 1],
                ns.len(),
                tp_kind,
                tp_units,
                if i + 1 == self.results.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        let mut file =
            std::fs::File::create(&path).unwrap_or_else(|e| panic!("CRITERION_JSON={path}: {e}"));
        file.write_all(out.as_bytes())
            .expect("writing benchmark JSON");
        println!("benchmark JSON written to {path}");
    }

    /// All results measured so far.
    #[must_use]
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// A group of benchmarks sharing a name prefix and throughput setting.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares the work per iteration for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into_id());
        self.criterion.run_one(id, self.throughput, f);
        self
    }

    /// Ends the group (accepted for API compatibility).
    pub fn finish(self) {}
}

/// Declares a benchmark group function, as criterion does.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(criterion: &mut $crate::Criterion) {
            $($target(criterion);)+
        }
    };
}

/// Declares the bench `main` that runs the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default();
            $($group(&mut criterion);)+
            criterion.write_json_if_requested();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        std::env::set_var("CRITERION_SAMPLE_MS", "1");
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        assert_eq!(c.results().len(), 1);
        assert!(c.results()[0].median_ns >= 0.0);
    }

    #[test]
    fn json_rows_carry_provenance_and_spread() {
        std::env::set_var("CRITERION_SAMPLE_MS", "1");
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        let path = std::env::temp_dir().join(format!("criterion-shim-{}.json", std::process::id()));
        std::env::set_var("CRITERION_JSON", &path);
        c.write_json_if_requested();
        std::env::remove_var("CRITERION_JSON");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for field in [
            "\"p25_ns\"",
            "\"p75_ns\"",
            "\"max_ns\"",
            "\"samples\": 5",
            "\"sample_ms\": 1",
            "\"nproc\": ",
            "\"commit\": \"",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
        let r = &c.results()[0];
        assert_eq!(r.samples_ns.len(), SAMPLES);
        assert!(r.samples_ns.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn commit_marks_a_dirty_tree() {
        let dir = std::env::temp_dir().join(format!("criterion-shim-git-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let git = |args: &[&str]| {
            std::process::Command::new("git")
                .arg("-C")
                .arg(&dir)
                .args(args)
                .output()
                .ok()
                .filter(|out| out.status.success())
                .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        if git(&["init", "-q"]).is_none() {
            eprintln!("SKIPPED: git cannot run here");
            return;
        }
        assert_eq!(commit_in(&dir), "unknown", "no commit yet");
        std::fs::write(dir.join("f"), "one").unwrap();
        git(&["add", "f"]).unwrap();
        git(&[
            "-c",
            "user.name=bench",
            "-c",
            "user.email=bench@localhost",
            "commit",
            "-q",
            "-m",
            "one",
        ])
        .unwrap();
        let sha = git(&["rev-parse", "HEAD"]).unwrap();
        assert_eq!(commit_in(&dir), sha);
        // Untracked files leave the tree clean; an edit does not.
        std::fs::write(dir.join("untracked"), "x").unwrap();
        assert_eq!(commit_in(&dir), sha);
        std::fs::write(dir.join("f"), "two").unwrap();
        assert_eq!(commit_in(&dir), format!("{sha}-dirty"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quantiles_take_the_nearest_rank() {
        let ns = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&ns, 0.25), 2.0);
        assert_eq!(quantile(&ns, 0.5), 3.0);
        assert_eq!(quantile(&ns, 0.75), 4.0);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn groups_prefix_ids() {
        std::env::set_var("CRITERION_SAMPLE_MS", "1");
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.throughput(Throughput::Elements(10));
            g.bench_function(BenchmarkId::new("f", 4), |b| b.iter(|| black_box(0)));
            g.finish();
        }
        assert_eq!(c.results()[0].id, "g/f/4");
        assert!(c.results()[0].throughput.is_some());
    }
}
