//! The record of the machine a result was measured on, and process gauges.

use std::process::Command;

/// What a result must carry to be comparable with another.
#[derive(Debug, Clone)]
pub struct MachineRecord {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// Commit of the measured tree, or `unknown` outside a git checkout.
    pub git_commit: String,
}

impl MachineRecord {
    /// Probes the current machine. Every probe degrades to `unknown`.
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["-V"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output; `unknown` if it fails.
fn command_line(program: &str, args: &[&str]) -> String {
    // git must not climb out of the working directory into an enclosing
    // repository and report its commit instead
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// User plus system CPU time of this process, in seconds (all threads).
pub fn process_cpu_s() -> f64 {
    // fields 14 and 15 of /proc/self/stat, in clock ticks; the command name
    // (field 2) may hold spaces, so count from the closing parenthesis
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let rest = stat.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: u64 = fields.get(11)?.parse().ok()?;
            let stime: u64 = fields.get(12)?.parse().ok()?;
            Some(utime + stime)
        })
        .unwrap_or(0);
    // the kernel's USER_HZ is 100 on every Linux target this runs on
    ticks as f64 / 100.0
}
