//! What the harness reads from and measures about the host: `/proc`
//! counters, cache sizes, the scratch directory, and the two bandwidth
//! kernels that serve as denominators for the codec kernels.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// All scratch files live in one unique directory under the output
/// directory, removed on drop — also when a workload fails half-way.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create(out: &Path) -> std::io::Result<Self> {
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = out.join(format!("scratch-{}-{nonce:09}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Bytes this process has passed to `write`-family calls so far.
pub fn io_wchar() -> u64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0)
}

fn mem_available_bytes() -> u64 {
    proc_field("/proc/meminfo", "MemAvailable:").map_or(0, |kib| kib * 1024)
}

/// Sizes in bytes of cpu0's data/unified caches, innermost first.
pub fn cache_sizes() -> Vec<u64> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(kind), Some(size)) = (read("type"), read("size")) else { break };
        if kind.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let (digits, scale) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1024),
            Some(b'M') => (&size[..size.len() - 1], 1024 * 1024),
            _ => (size, 1),
        };
        if let Ok(v) = digits.parse::<u64>() {
            out.push(v * scale);
        }
    }
    out
}

pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Measured sustainable bandwidth of this host, single-threaded like the
/// per-brick kernel replays it is compared with.
#[derive(Debug, Clone, Copy)]
pub struct Bandwidth {
    pub memcpy_gibps: f64,
    pub triad_gibps: f64,
    pub array_bytes: u64,
    pub llc_bytes: u64,
    /// The arrays were under 4 × LLC: the numbers are cache-assisted and
    /// must not serve as a DRAM roofline.
    pub cache_assisted: bool,
}

/// Largest bandwidth array: faulting in more costs seconds on a small VM
/// (three 1 GiB arrays took 14 s on the reference host), so a host whose
/// LLC is over a quarter of this reads as cache-assisted instead.
pub const ARRAY_CAP: u64 = 256 << 20;

/// Copy and STREAM-triad over arrays of 4 × LLC each when `max_array_bytes`
/// and half of `MemAvailable` allow three of them, else over the largest
/// that fit.
pub fn measure_bandwidth(max_array_bytes: u64) -> Bandwidth {
    let llc_bytes = cache_sizes().last().copied().unwrap_or(32 << 20);
    let wanted = 4 * llc_bytes;
    let fits = (mem_available_bytes() / 2 / 3).max(1 << 20);
    let array_bytes = wanted.min(fits).min(max_array_bytes);
    let n = (array_bytes / 8) as usize;
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let mut a = vec![0.0f64; n];

    fn best(mut pass: impl FnMut(), bytes: u64) -> f64 {
        let mut best = f64::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            pass();
            best = best.min(t.elapsed().as_secs_f64());
        }
        bytes as f64 / best / (1u64 << 30) as f64
    }
    let memcpy_gibps = best(
        || {
            a.copy_from_slice(&b);
            std::hint::black_box(&mut a);
        },
        2 * array_bytes,
    );
    let s = std::hint::black_box(3.0f64);
    let triad_gibps = best(
        || {
            for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
                *x = y + s * z;
            }
            std::hint::black_box(&mut a);
        },
        3 * array_bytes,
    );
    Bandwidth {
        memcpy_gibps,
        triad_gibps,
        array_bytes: (n * 8) as u64,
        llc_bytes,
        cache_assisted: array_bytes < wanted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_removed_on_drop_even_with_files_inside() {
        let out = std::env::temp_dir().join(format!("sysbench-test-{}", std::process::id()));
        let dir = {
            let s = Scratch::create(&out).unwrap();
            std::fs::write(s.path("a.strm"), b"x").unwrap();
            assert!(s.path("a.strm").exists());
            s.path("")
        };
        assert!(!dir.exists());
        let _ = std::fs::remove_dir(&out);
    }

    #[test]
    fn proc_readers_and_bandwidth_return_sane_numbers() {
        assert!(peak_rss_mib() > 0.0);
        assert!(parallelism() >= 1);
        let bw = measure_bandwidth(1 << 20);
        assert!(bw.memcpy_gibps > 0.0 && bw.triad_gibps > 0.0);
        assert!(bw.cache_assisted, "1 MiB arrays are never 4 x LLC");
    }
}
