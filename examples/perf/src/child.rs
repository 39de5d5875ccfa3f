//! Building the shipped binaries and running one of them as a measured
//! child process: wall time, CPU time and peak resident set.

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::procfs;

/// Where cargo put the binaries under test, and where the benchmark may
/// write its own files.
pub struct Binaries {
    pub cbft: PathBuf,
    pub cbftd: PathBuf,
    /// `<target dir>/perf-work`: generated inputs, child output, traces.
    pub work_root: PathBuf,
}

/// The repository root: two levels above this package's manifest.
fn repo_root() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize()
        .map_err(|e| format!("no repository at {}: {e}", root.display()))
}

/// Builds `cbft` and `cbftd` in release mode from the repository's own
/// manifest (a no-op when they are current) and returns their paths. The
/// target directory is `CARGO_TARGET_DIR` when set, else the repository's
/// `target/`.
pub fn build_binaries() -> Result<Binaries, String> {
    let root = repo_root()?;
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| format!("no current directory: {e}"))?
            .join(dir),
        None => root.join("target"),
    };
    let cargo = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--bin", "cbft", "--bin", "cbftd", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    // The result line owns stdout; whatever cargo said goes to stderr.
    let mut stderr = io::stderr();
    let _ = stderr.write_all(&cargo.stdout);
    let _ = stderr.write_all(&cargo.stderr);
    if !cargo.status.success() {
        return Err(format!("building cbft and cbftd failed ({})", cargo.status));
    }
    let bins = Binaries {
        cbft: target.join("release/cbft"),
        cbftd: target.join("release/cbftd"),
        work_root: target.join("perf-work"),
    };
    for bin in [&bins.cbft, &bins.cbftd] {
        if !bin.is_file() {
            return Err(format!("cargo built no {}", bin.display()));
        }
    }
    Ok(bins)
}

/// One finished child process.
#[derive(Debug)]
pub struct ChildRun {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// User plus system CPU seconds of the child (10 ms resolution).
    pub cpu_s: f64,
    /// Last `VmHWM` seen, polled every 10 ms.
    pub peak_rss_mb: f64,
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
}

/// Runs `command` to completion with every `CBFT_*` variable removed from
/// its environment. Output goes to files under `scratch` (no pipe for the
/// child to block on, no reader thread competing for a core).
pub fn run(command: &[String], scratch: &Path) -> io::Result<ChildRun> {
    let out_path = scratch.join("child.stdout");
    let err_path = scratch.join("child.stderr");
    let mut cmd = Command::new(&command[0]);
    cmd.args(&command[1..])
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CBFT_") {
            cmd.env_remove(key);
        }
    }

    let cpu_before = procfs::children_cpu_seconds();
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = child.id();
    let exited = AtomicBool::new(false);
    let (status, wall_s, peak_rss_mb) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut peak = 0.0f64;
            while !exited.load(Ordering::Relaxed) {
                if let Some(mb) = procfs::peak_rss_mb(pid) {
                    peak = peak.max(mb);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        let status = child.wait();
        let wall_s = start.elapsed().as_secs_f64();
        exited.store(true, Ordering::Relaxed);
        (
            status,
            wall_s,
            poller.join().expect("poller does not panic"),
        )
    });
    let cpu_s = procfs::children_cpu_seconds() - cpu_before;
    Ok(ChildRun {
        wall_s,
        cpu_s,
        peak_rss_mb,
        success: status?.success(),
        stdout: fs::read_to_string(&out_path)?,
        stderr: fs::read_to_string(&err_path)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_real_child() {
        let dir = std::env::temp_dir().join(format!("perf_child_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let cmd: Vec<String> = ["sh", "-c", "echo out; echo err >&2; sleep 0.05; exit 3"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let run = run(&cmd, &dir).unwrap();
        assert!(!run.success);
        assert_eq!(run.stdout, "out\n");
        assert_eq!(run.stderr, "err\n");
        assert!(run.wall_s >= 0.05, "{run:?}");
        assert!(run.peak_rss_mb > 0.0, "{run:?}");
        assert!(run.cpu_s >= 0.0);
        fs::remove_dir_all(&dir).ok();
    }
}
