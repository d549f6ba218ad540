//! Readers for the few `/proc` fields the benchmark uses.

use std::path::Path;

/// CPU time a process has used so far, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTicks {
    /// User-mode ticks (`utime`, field 14).
    pub user: u64,
    /// Kernel-mode ticks (`stime`, field 15).
    pub system: u64,
}

impl CpuTicks {
    /// `self − earlier`, field by field.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            user: self.user.saturating_sub(earlier.user),
            system: self.system.saturating_sub(earlier.system),
        }
    }
}

/// Parses `utime`/`stime` out of a `/proc/<pid>/stat` line. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let after = &text[text.rfind(')')? + 1..];
    // Field 3 (state) is the first token after the name.
    let fields: Vec<&str> = after.split_whitespace().collect();
    Some(CpuTicks {
        user: fields.get(11)?.parse().ok()?,
        system: fields.get(12)?.parse().ok()?,
    })
}

/// The memory and scheduling lines of a `/proc/<pid>/status` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Status {
    /// Peak resident set size, kB (`VmHWM`).
    pub vm_hwm_kb: u64,
    /// Voluntary context switches.
    pub voluntary: u64,
    /// Involuntary context switches.
    pub nonvoluntary: u64,
}

/// Parses a `/proc/<pid>/status` file; absent lines read as 0.
pub fn parse_status(text: &str) -> Status {
    let mut status = Status::default();
    for line in text.lines() {
        let Some((name, rest)) = line.split_once(':') else {
            continue;
        };
        let value = || {
            rest.split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        match name {
            "VmHWM" => status.vm_hwm_kb = value(),
            "voluntary_ctxt_switches" => status.voluntary = value(),
            "nonvoluntary_ctxt_switches" => status.nonvoluntary = value(),
            _ => {}
        }
    }
    status
}

/// Process-wide CPU ticks of `pid`.
pub fn cpu(pid: u32) -> Option<CpuTicks> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// CPU time of `pid` summed over its live threads, ns: the first field
/// of each `/proc/<pid>/task/<tid>/schedstat`. The same time `utime` and
/// `stime` count, at nanosecond instead of 10 ms resolution.
pub fn cpu_ns(pid: u32) -> Option<u64> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    let mut total = 0;
    for entry in tasks.flatten() {
        let text = std::fs::read_to_string(entry.path().join("schedstat")).ok()?;
        total += parse_schedstat(&text)?;
    }
    Some(total)
}

/// The on-CPU nanoseconds of a `schedstat` line.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `pid`'s status, with context switches summed over all of its threads
/// (the process-level file counts only the main thread's).
pub fn status(pid: u32) -> Option<Status> {
    let mut status = parse_status(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?);
    let tasks = Path::new("/proc").join(pid.to_string()).join("task");
    if let Ok(entries) = std::fs::read_dir(tasks) {
        let (mut voluntary, mut nonvoluntary) = (0, 0);
        for entry in entries.flatten() {
            if let Ok(text) = std::fs::read_to_string(entry.path().join("status")) {
                let task = parse_status(&text);
                voluntary += task.voluntary;
                nonvoluntary += task.nonvoluntary;
            }
        }
        status.voluntary = voluntary;
        status.nonvoluntary = nonvoluntary;
    }
    Some(status)
}

/// Peak RSS of the calling process, MiB.
pub fn own_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .map(|t| parse_status(&t).vm_hwm_kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// The 1-minute load average.
pub fn loadavg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (repro serve) x) S 1 4242 4242 0 -1 4194560 1805 0 0 0 \
                    173 41 0 0 20 0 4 0 123456 21000000 900 18446744073709551615";
        assert_eq!(
            parse_stat(line),
            Some(CpuTicks {
                user: 173,
                system: 41
            })
        );
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn cpu_ticks_subtract() {
        let a = CpuTicks {
            user: 10,
            system: 5,
        };
        let b = CpuTicks {
            user: 35,
            system: 6,
        };
        let d = b.since(a);
        assert_eq!(
            d,
            CpuTicks {
                user: 25,
                system: 1
            }
        );
        assert_eq!(a.since(b), CpuTicks::default());
    }

    #[test]
    fn status_lines_parse_and_missing_ones_read_zero() {
        let text = "Name:\trepro\nVmPeak:\t  30000 kB\nVmHWM:\t   5120 kB\n\
                    voluntary_ctxt_switches:\t812\nnonvoluntary_ctxt_switches:\t9\n";
        assert_eq!(
            parse_status(text),
            Status {
                vm_hwm_kb: 5120,
                voluntary: 812,
                nonvoluntary: 9
            }
        );
        assert_eq!(parse_status("Name:\tx\n"), Status::default());
    }

    #[test]
    fn schedstat_reads_its_first_field() {
        assert_eq!(parse_schedstat("756207 83390 1\n"), Some(756_207));
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(cpu_ns(std::process::id()).is_some_and(|ns| ns > 0));
        let me = std::process::id();
        assert!(cpu(me).is_some());
        let status = status(me).expect("own status");
        assert!(status.vm_hwm_kb > 0);
        assert!(own_peak_rss_mb() > 0.0);
    }
}
