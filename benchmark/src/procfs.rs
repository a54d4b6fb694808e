//! What Linux tells a process about itself and its host: CPU time,
//! peak resident set, thread count, CPU model and cache sizes.
//!
//! Parsers take the file's text so they can be tested without `/proc`.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed
/// at 100 by the Linux ABI on every mainstream architecture (it is what
/// `sysconf(_SC_CLK_TCK)` returns); the harness links no libc to ask.
pub const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` (clock ticks, all threads, reaped threads included)
/// from the text of `/proc/<pid>/stat`.
///
/// The second field is the executable name in parentheses and may hold
/// spaces and parentheses itself, so fields are counted from the *last*
/// `)`: `state` is field 3, `utime` field 14, `stime` field 15.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The integer value of a `Key:   123 kB`-style line of
/// `/proc/<pid>/status` (`VmHWM`, `Threads`, …).
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Process CPU seconds so far (user + system, every thread).
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(f64::NAN, |ticks| ticks as f64 / TICKS_PER_SEC)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, "VmHWM"))
        .map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Threads alive in this process right now.
pub fn thread_count() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, "Threads"))
        .unwrap_or(0)
}

/// `model name` of the first CPU in the text of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// A sysfs cache size such as `512K` or `32M`, in KiB.
pub fn parse_cache_kib(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, scale) = match t.as_bytes().last()? {
        b'K' => (&t[..t.len() - 1], 1),
        b'M' => (&t[..t.len() - 1], 1024),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

/// Host facts recorded beside every result, so two records can be
/// judged comparable without reading code.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// CPU model string (or `unknown`).
    pub cpu_model: String,
    /// Unified L2 size of cpu0 in KiB (0 when sysfs does not say).
    pub l2_kib: u64,
    /// L3 size of cpu0 in KiB (0 when sysfs does not say).
    pub l3_kib: u64,
}

impl Host {
    /// Reads the host facts from `/proc` and sysfs.
    pub fn detect() -> Host {
        let cache = |index: u32| {
            fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
            ))
            .ok()
            .and_then(|s| parse_cache_kib(&s))
            .unwrap_or(0)
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| parse_cpu_model(&s))
                .unwrap_or_else(|| "unknown".into()),
            l2_kib: cache(2),
            l3_kib: cache(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_survive_a_hostile_comm_field() {
        // comm = "a) b (c" — spaces and both parentheses inside.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 \
                    120 0 0 0 731 19 0 0 20 0 3 0 1234 5678 90";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(731 + 19));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nThreads:\t17\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_field(status, "Threads"), Some(17));
        assert_eq!(parse_status_field(status, "Vm"), None);
        assert_eq!(parse_status_field(status, "VmSwap"), None);
    }

    #[test]
    fn live_proc_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn cpu_model_and_cache_sizes() {
        let cpuinfo = "processor\t: 0\nmodel name\t: Some CPU @ 2.00GHz\nflags\t: fpu\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Some CPU @ 2.00GHz")
        );
        assert_eq!(parse_cache_kib("512K\n"), Some(512));
        assert_eq!(parse_cache_kib("32M"), Some(32 * 1024));
        assert_eq!(parse_cache_kib("4096"), Some(4096));
        assert_eq!(parse_cache_kib(""), None);
    }
}
