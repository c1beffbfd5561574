//! What a result must record to be comparable: the host class (cores and
//! CPU model), the toolchain, and the code that ran.

use std::path::Path;
use std::process::Command;

/// Host and build identity recorded with every result.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD`, when the checkout is a git repository.
    pub commit: Option<String>,
    /// FNV-1a digest of the program's sources (`crates/**` and the root
    /// manifest), which identifies the code where git cannot.
    pub source_digest: String,
}

impl Host {
    /// Probes the running host. Run from the root of a checkout.
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let output = |cmd: &str, args: &[&str]| {
            Command::new(cmd)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        Host {
            nproc,
            cpu_model,
            rustc: output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: output("git", &["rev-parse", "HEAD"]),
            source_digest: source_digest(Path::new(".")),
        }
    }

    /// The host class results may be compared within.
    pub fn class(&self) -> String {
        format!("{} x {}", self.nproc, self.cpu_model)
    }
}

/// Digest of every file under `root/crates` plus `root/Cargo.toml` and
/// `root/Cargo.lock`, in path order.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, files);
                } else {
                    files.push(path);
                }
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The process's peak resident set, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
