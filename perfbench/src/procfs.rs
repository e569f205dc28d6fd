//! Process and thread resource readings from Linux `/proc`.
//!
//! CPU times come from the `utime`/`stime` fields of `stat`, in clock
//! ticks of 1/100 s (`USER_HZ`, fixed at 100 on every Linux ABI the
//! workspace builds for). Off Linux every reading is 0.

/// Clock ticks per second of the `stat` CPU fields.
const TICKS_PER_SEC: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of this process, in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User and system CPU seconds from one `stat` file's contents.
fn parse_cpu(stat: &str) -> Option<(f64, f64)> {
    // The command name (field 2) is parenthesised and may hold spaces;
    // the fixed fields start after its closing parenthesis, with `state`
    // first, so `utime` and `stime` (fields 14 and 15) sit at 11 and 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_SEC, stime / TICKS_PER_SEC))
}

/// CPU seconds (user + system) consumed so far by this process, threads
/// that have already exited included.
#[must_use]
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu(&s))
        .map_or(0.0, |(u, s)| u + s)
}

/// User and system CPU seconds of this process's live thread named
/// `name`, or `(0, 0)` if no such thread exists.
#[must_use]
pub fn thread_cpu_s(name: &str) -> (f64, f64) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return (0.0, 0.0);
    };
    for task in tasks.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            if let Some(cpu) =
                std::fs::read_to_string(task.path().join("stat")).ok().and_then(|s| parse_cpu(&s))
            {
                return cpu;
            }
        }
    }
    (0.0, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cpu_fields_after_a_command_with_spaces() {
        let stat = "42 (a (b) c) S 1 42 42 0 -1 4194304 10 0 0 0 250 30 0 0 20 0 3 0";
        assert_eq!(parse_cpu(stat), Some((2.5, 0.3)));
    }
}
