//! The run environment recorded next to every result, and peak-memory
//! readings from `/proc`.

use fec_json::Json;
use std::process::Command;

/// Facts about the host and build a result depends on.
#[derive(Debug, Clone)]
pub struct RunEnv {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory's checkout, or
    /// `unknown` when it is not a git checkout.
    pub commit: String,
}

impl RunEnv {
    /// Collects the environment (runs `rustc` and `git` once each).
    pub fn collect() -> Self {
        RunEnv {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|text| {
                    text.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split_once(':'))
                        .map(|(_, model)| model.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: command_line("rustc", &["--version"]),
            // Only this checkout's own history names the measured commit; a
            // git repository further up would name an unrelated one.
            commit: if std::path::Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_string()
            },
        }
    }

    /// The environment as a JSON object for the results file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::from(self.nproc)),
            ("cpu_model", Json::str(self.cpu_model.clone())),
            ("rustc", Json::str(self.rustc.clone())),
            ("commit", Json::str(self.commit.clone())),
        ])
    }
}

/// First line of a command's standard output, or `unknown` when the
/// command is missing or fails.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size (`VmHWM`) of `pid` (this process for `None`),
/// in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
