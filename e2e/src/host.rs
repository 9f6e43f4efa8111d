//! Facts about the host a run was measured on, and the process-level
//! plumbing (scratch directory, peak RSS) the workloads share.

use std::fs;
use std::path::{Path, PathBuf};

fn read_trimmed(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn status_field(key: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn loadavg() -> String {
    read_trimmed("/proc/loadavg")
        .map(|s| s.split(' ').take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unreadable".into())
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark driver's checkout is not a repository.
fn git_commit() -> String {
    let head = |dir: &Path| -> Option<String> {
        let head = fs::read_to_string(dir.join(".git/HEAD")).ok()?;
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            Some(r) => fs::read_to_string(dir.join(".git").join(r))
                .ok()
                .map(|s| s.trim().to_string()),
            None => Some(head.to_string()),
        }
    };
    std::env::current_dir()
        .ok()
        .and_then(|d| d.ancestors().find_map(head))
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// One line of host facts for the head of every output.
pub fn facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc {nproc} | affinity {} | kernel {} | governor {} | commit {}",
        status_field("Cpus_allowed_list").unwrap_or_else(|| "unreadable".into()),
        read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unreadable".into()),
        read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
            .unwrap_or_else(|| "unreadable".into()),
        git_commit(),
    )
}

/// Where the benchmark keeps what it writes (daemon data dirs, span
/// dumps): next to its own executable, which is inside the build
/// directory of the checkout it was built from.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    exe.parent()
        .expect("executable has a directory")
        .join("e2e-out")
}

/// A scratch directory for this process, emptied and removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Self {
        let dir = out_dir().join(format!("work-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Bytes held by every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
