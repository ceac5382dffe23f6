//! Process resources and the host description printed with every result.

use std::path::Path;
use std::time::{Duration, Instant};

/// Open descriptors, live threads and this process's shared-memory ring
/// segments at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resources {
    fds: usize,
    threads: usize,
    shm_segments: usize,
}

impl Resources {
    /// Counts the resources now.
    pub fn sample() -> Self {
        Resources {
            fds: entries(Path::new("/proc/self/fd"), |_| true),
            threads: entries(Path::new("/proc/self/task"), |_| true),
            shm_segments: entries(&rsn_serve::shm::segment_dir(), |name| {
                name.starts_with(&format!("rsn-ring-{}-", std::process::id()))
            }),
        }
    }

    /// Waits up to `timeout` for every count to fall back to this baseline.
    /// Shard connection threads wind down after their sockets close, so the
    /// counts settle shortly after teardown; what is still above baseline
    /// at the deadline has leaked.
    pub fn settle(self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Resources::sample();
            if now.fds <= self.fds
                && now.threads <= self.threads
                && now.shm_segments <= self.shm_segments
            {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "resources did not return to baseline after teardown: \
                     fds {} -> {}, threads {} -> {}, shm segments {} -> {}",
                    self.fds,
                    now.fds,
                    self.threads,
                    now.threads,
                    self.shm_segments,
                    now.shm_segments
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn entries(dir: &Path, keep: impl Fn(&str) -> bool) -> usize {
    std::fs::read_dir(dir).map_or(0, |list| {
        list.filter_map(Result::ok)
            .filter(|entry| keep(&entry.file_name().to_string_lossy()))
            .count()
    })
}

/// Peak resident memory of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
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
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `host` block printed before every result: core count, kernel,
/// source commit, and the run's workload and seed.
pub fn host_json(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string());
    format!(
        "{{\"host\": {{\"available_parallelism\": {parallelism}, \"kernel\": \"{}\", \
         \"commit\": \"{}\", \"workload\": \"{workload}\", \"seed\": {seed}, \
         \"seconds\": {seconds}, \"trace\": {trace}}}}}",
        escape(&kernel),
        escape(&git_commit())
    )
}

/// The commit of the source tree the benchmark was built from, read from
/// `.git` without running git; "unknown" outside a repository.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&git.join(reference))
        .map(|c| c.trim().to_string())
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}
