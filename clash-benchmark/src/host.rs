//! Host-side readings: process CPU time, peak RSS, and the `host{}`
//! block of the report. Linux `/proc` only — the harness refuses to
//! report a metric it cannot read rather than inventing a zero.

use std::fs;
use std::process::Command;

use crate::json::Json;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. It is
/// 100 on every Linux ABI user space can see, whatever the kernel's
/// internal tick rate.
const USER_HZ: f64 = 100.0;

/// Process-wide user + system CPU seconds so far, threads that already
/// exited included (the program's shard workers are scoped threads).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("/proc/self/stat: no command field")?;
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || -> Result<f64, String> {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "/proc/self/stat: utime/stime missing".to_owned())
    };
    Ok((ticks()? + ticks()?) / USER_HZ)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_owned())
}

/// Worker threads the host can run at once.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .flatten()
}

/// The `host{cores, cpu_model, rustc, commit}` block, filled from the
/// machine the run happened on. Unknown fields say so.
pub fn host_block() -> Json {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let unknown = || "unknown".to_owned();
    Json::obj([
        ("cores", Json::Int(cores() as i64)),
        ("cpu_model", Json::str(cpu_model)),
        (
            "rustc",
            Json::str(first_line_of("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "commit",
            Json::str(
                first_line_of("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let a = cpu_seconds().unwrap();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = cpu_seconds().unwrap();
        assert!(b >= a && b < a + 60.0, "cpu went {a} -> {b}");
        assert!(peak_rss_mb().unwrap() > 0.5);
        assert!(cores() >= 1);
    }
}
