//! `/proc` readers: CPU time of reaped children, a child's peak resident
//! set, and the host facts every record carries.

use std::fs;

/// Kernel clock ticks per second in `/proc/*/stat`. `USER_HZ` is 100 on
/// every Linux architecture this repository builds on; the standard
/// library has no `sysconf`, and the benchmark takes no `libc` dependency.
const TICKS_PER_SECOND: f64 = 100.0;

/// `cutime + cstime` (fields 16 and 17 of `proc(5)`'s `stat`) in ticks:
/// the CPU time of every child this process has waited for.
pub fn parse_children_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) may contain spaces and parentheses;
    // the fields after its closing parenthesis are well formed.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(13);
    let cutime: u64 = fields.next()?.parse().ok()?;
    let cstime: u64 = fields.next()?.parse().ok()?;
    Some(cutime + cstime)
}

/// User plus system CPU seconds of all reaped children so far. A
/// repetition's CPU cost is the difference across its `wait`.
pub fn children_cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_children_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_SECOND)
}

/// A `Name:   123 kB` line of `/proc/<pid>/status`, in kB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Peak resident set (`VmHWM`) of a live process in MB; `None` once it
/// has exited (a zombie's status has no `Vm*` lines).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_status_kb(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_owned())
    })
}

/// CPU model of this host, or `unknown`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (perf (x) y) S 1 4242 4242 0 -1 4194304 100 200 0 0 \
                    7 3 150 25 20 0 1 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_children_ticks(stat), Some(175));
        assert_eq!(parse_children_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_children_ticks("garbage"), None);
    }

    #[test]
    fn own_stat_parses() {
        let stat = fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_children_ticks(&stat).is_some(), "{stat}");
    }

    #[test]
    fn status_lines_parse_in_kb() {
        let status = "Name:\tcbft\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51200));
        assert_eq!(parse_status_kb(status, "VmPeak"), Some(204800));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
        assert_eq!(parse_status_kb(status, "Threads"), None, "not a kB line");
        let me = peak_rss_mb(std::process::id()).expect("own status has VmHWM");
        assert!(me > 0.0);
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let info =
            "processor\t: 0\nmodel name\t: Fast CPU @ 2GHz\nprocessor\t: 1\nmodel name\t: Other\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Fast CPU @ 2GHz"));
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }
}
