//! Process accounting from `/proc`: CPU time split into user and
//! kernel time, minor page faults, peak resident set, and the host
//! description stamped into the ledger.

use std::io;

/// `/proc` reports CPU time in `USER_HZ` ticks, which Linux fixes at
/// 100 for every architecture's user-visible interface.
const TICKS_PER_S: f64 = 100.0;

/// A point-in-time reading of this process's counters. Thread times
/// include threads that already exited, so deltas between two readings
/// cover every thread the evaluation spawned and joined in between.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minflt: u64,
}

impl Usage {
    /// Read `/proc/self/stat`.
    pub fn now() -> Usage {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .expect("/proc/self/stat is readable and well formed on Linux")
    }

    /// The counters accrued since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt.saturating_sub(earlier.minflt),
        }
    }

    /// Add another delta into this one.
    pub fn add(&mut self, other: Usage) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.minflt += other.minflt;
    }

    /// User plus kernel seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parse the fields after the parenthesised command name, which may
/// itself hold spaces and parentheses: `minflt` is field 10, `utime`
/// field 14 and `stime` field 15 of `proc(5)`.
fn parse_stat(s: &str) -> Option<Usage> {
    let rest = &s[s.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `fields[0]` is field 3 (the state letter).
    let field = |n: usize| -> Option<u64> { fields.get(n - 3)?.parse().ok() };
    Some(Usage {
        minflt: field(10)?,
        user_s: field(14)? as f64 / TICKS_PER_S,
        sys_s: field(15)? as f64 / TICKS_PER_S,
    })
}

/// Peak resident set size (`VmHWM`) of this process in KiB.
pub fn peak_rss_kib() -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_odd_command_names() {
        let line = "4242 (a) b (c)) S 1 2 3 4 5 6 777 8 9 10 250 75 0 0 20 0 1 0";
        let u = parse_stat(line).unwrap();
        assert_eq!(u.minflt, 777);
        assert_eq!(u.user_s, 2.5);
        assert_eq!(u.sys_s, 0.75);
    }

    #[test]
    fn live_counters_are_readable_and_monotone() {
        let a = Usage::now();
        let mut v = vec![0u8; 1 << 22];
        v.iter_mut().enumerate().for_each(|(i, b)| *b = i as u8);
        std::hint::black_box(&v);
        let d = Usage::now().since(a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0);
        assert!(peak_rss_kib().unwrap() > 0);
    }
}
