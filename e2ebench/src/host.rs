//! What the host did during a run: process CPU time, peak memory,
//! steal and load, and the provenance of the binary. Linux `/proc`
//! only; a missing file reads as zero.

use std::fs;
use std::path::Path;

/// `USER_HZ`: the unit of `/proc` CPU times on every Linux target.
const TICKS_PER_SECOND: f64 = 100.0;

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// User + system CPU time of this process (all threads), in seconds.
pub fn process_cpu_s() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Restarts the `VmHWM` high-water mark at the current resident set
/// size.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// The aggregate `cpu` line of `/proc/stat`: `(steal, total)` ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> Self {
        let stat = read("/proc/stat");
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user and nice.
        CpuTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Share of all CPU time the hypervisor stole since `earlier`.
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// The 1-minute load average.
pub fn loadavg_1m() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// `-C target-cpu` of this build, from the flags Cargo compiled it with.
pub fn target_cpu() -> &'static str {
    env!("E2EBENCH_RUSTFLAGS")
        .split_whitespace()
        .find_map(|w| w.split_once("target-cpu=").map(|(_, cpu)| cpu))
        .unwrap_or("generic")
}

/// A digest of the sources the benchmark builds: the repository's
/// `crates/`, its Cargo configuration and this package. It identifies
/// the code that was built, uncommitted changes included.
pub fn provenance() -> String {
    let mut files = Vec::new();
    for root in [
        ".cargo",
        "crates",
        "e2ebench/src",
        "e2ebench/build.rs",
        "e2ebench/Cargo.toml",
        "e2ebench/Cargo.lock",
    ] {
        collect(Path::new(root), &mut files);
    }
    if files.is_empty() {
        return "unknown (no sources in the working directory)".into();
    }
    files.sort();
    let mut hasher = dbph_crypto::sha256::Sha256::new();
    for f in &files {
        hasher.update(f.to_string_lossy().as_bytes());
        hasher.update(&fs::read(f).unwrap_or_default());
    }
    let digest = hasher.finalize();
    let hex: String = digest.iter().take(10).map(|b| format!("{b:02x}")).collect();
    format!("src-sha256:{hex}")
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = fs::read_dir(path) {
        for e in entries.flatten() {
            collect(&e.path(), out);
        }
    }
}
