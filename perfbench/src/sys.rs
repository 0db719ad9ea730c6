//! Process-level facts: peak memory, provenance, the work directory,
//! and the repeated set-up measurement.

use drybell_obs::json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads this process may use.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker and generator threads the benchmark uses: never more than
/// the host's hardware threads, and never more than two.
pub fn workers() -> usize {
    host_parallelism().clamp(1, 2)
}

/// Provenance recorded with every result.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool, inputs: Json) -> Json {
    Json::obj(vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("trace", Json::from(trace)),
        ("host_parallelism", Json::from(host_parallelism())),
        ("workers", Json::from(workers())),
        ("inputs", inputs),
        (
            "git_commit",
            Json::from(std::env::var("PERFBENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "build_profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

/// A scratch directory under the checkout's `perfbench/out`, removed
/// when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Create `perfbench/out/work-<tag>-<pid>` (relative to the current
    /// directory, the checkout root).
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let path = out_dir().join(format!("work-{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where results, traces and scratch files go.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// Run `setup` `times` times and keep the last result, timing each.
/// Every repetition must produce the same input fingerprint; the
/// returned count is how many did not.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<(T, u64), String>,
) -> Result<(T, Vec<f64>, u64), String> {
    let mut seconds = Vec::with_capacity(times);
    let mut kept: Option<T> = None;
    let mut first: Option<u64> = None;
    let mut mismatches = 0;
    for _ in 0..times.max(1) {
        // Free the previous copy first, so peak memory reflects one
        // set-up, not two.
        drop(kept.take());
        let start = Instant::now();
        let (value, fingerprint) = setup()?;
        seconds.push(start.elapsed().as_secs_f64());
        match first {
            None => first = Some(fingerprint),
            Some(f) if f != fingerprint => mismatches += 1,
            Some(_) => {}
        }
        kept = Some(value);
    }
    let value = kept.ok_or("no set-up ran")?;
    Ok((value, seconds, mismatches))
}

/// FNV-1a over bytes.
pub fn fnv_bytes(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the raw votes of a label matrix, row by row.
pub fn matrix_checksum(m: &drybell_core::LabelMatrix) -> u64 {
    let mut h = FNV_BASIS;
    for i in 0..m.num_examples() {
        for &v in m.row(i) {
            h = fnv_bytes(h, &v.to_le_bytes());
        }
    }
    h
}
