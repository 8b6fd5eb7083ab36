//! CPU time and peak memory of a process, read from `/proc`.

use std::io;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100
/// on every Linux configuration this runs on; reading it properly needs
/// `sysconf`, which the standard library does not expose.
const TICKS_PER_SECOND: f64 = 100.0;

fn bad_data(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// User + system CPU seconds consumed by all threads of `pid` so far
/// (`"self"` for this process), dead threads included.
pub fn cpu_seconds(pid: &str) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; fields are counted after its `)`.
    let rest = stat
        .rsplit_once(')')
        .ok_or_else(|| bad_data(format!("/proc/{pid}/stat has no `)`")))?
        .1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| bad_data(format!("/proc/{pid}/stat lacks field {i}")))
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_SECOND)
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mib(pid: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| bad_data(format!("/proc/{pid}/status lacks VmHWM")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(cpu_seconds("self").unwrap() >= 0.0);
        assert!(peak_rss_mib("self").unwrap() > 0.0);
        assert!(cpu_seconds("0").is_err());
    }
}
