//! What the benchmark asks the operating system: CPU time of the process
//! (the CPU-time clock) and of named threads, context switches, peak
//! resident memory, the CPU model (`/proc`). Parsers take the file text,
//! so they are tested on captured samples.

use std::fs;

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time (user + system, every thread that ever ran, exited
/// ones included), nanoseconds. `/proc/self/stat` has the same total in
/// 10 ms ticks, too coarse for a 60 ms round; the standard library has
/// no CPU clock, so this is the one foreign call the benchmark makes.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` through `tp`, which
    // points to a live, correctly laid out `Timespec`, and keeps no
    // reference to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The number after `key:` in a `/proc/<pid>/status` text (`VmHWM` in
/// KiB, `voluntary_ctxt_switches` as a count).
pub fn parse_status_value(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Nanoseconds on a CPU: the first field of a `schedstat` file.
pub fn parse_schedstat_run_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// `model name` of the first processor in `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<&str> {
    cpuinfo.lines().find_map(|line| {
        let rest = line.strip_prefix("model name")?;
        Some(rest.trim_start().strip_prefix(':')?.trim())
    })
}

/// CPU time of the calling thread, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat_run_ns(&s))
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_value(&s, "VmHWM"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s).map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// CPU time and voluntary context switches of live threads whose name
/// starts with `prefix`, summed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadUsage {
    pub cpu_ns: u64,
    pub voluntary_switches: u64,
}

impl ThreadUsage {
    pub fn of_threads_named(prefix: &str) -> Self {
        let mut usage = ThreadUsage::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else { return usage };
        for task in tasks.flatten() {
            let dir = task.path();
            let named = fs::read_to_string(dir.join("comm")).is_ok_and(|c| c.starts_with(prefix));
            if !named {
                continue;
            }
            if let Ok(s) = fs::read_to_string(dir.join("schedstat")) {
                usage.cpu_ns += parse_schedstat_run_ns(&s).unwrap_or(0);
            }
            if let Ok(s) = fs::read_to_string(dir.join("status")) {
                usage.voluntary_switches +=
                    parse_status_value(&s, "voluntary_ctxt_switches").unwrap_or(0);
            }
        }
        usage
    }

    pub fn since(self, earlier: ThreadUsage) -> ThreadUsage {
        ThreadUsage {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            voluntary_switches: self.voluntary_switches.saturating_sub(earlier.voluntary_switches),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured on the bench host.
    const STATUS: &str = "Name:\tbenchmark\nVmPeak:\t  104000 kB\nVmHWM:\t   61600 kB\n\
        VmRSS:\t   60000 kB\nThreads:\t3\nCpus_allowed_list:\t0-1\n\
        voluntary_ctxt_switches:\t1234\nnonvoluntary_ctxt_switches:\t56\n";

    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        while process_cpu_ns() - before < 2_000_000 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_ns() - before >= 2_000_000);
    }

    #[test]
    fn status_values_by_exact_key() {
        assert_eq!(parse_status_value(STATUS, "VmHWM"), Some(61600));
        assert_eq!(parse_status_value(STATUS, "voluntary_ctxt_switches"), Some(1234));
        // A key that is only a prefix of a line's key must not match.
        assert_eq!(parse_status_value(STATUS, "Vm"), None);
        assert_eq!(parse_status_value(STATUS, "VmSwap"), None);
    }

    #[test]
    fn schedstat_and_cpuinfo() {
        assert_eq!(parse_schedstat_run_ns("738466 55446 1\n"), Some(738466));
        assert_eq!(parse_schedstat_run_ns(""), None);
        let cpuinfo = "processor\t: 0\nvendor_id\t: GenuineIntel\n\
            model name\t: Intel(R) Xeon(R) Processor @ 2.10GHz\nprocessor\t: 1\n\
            model name\t: other\n";
        assert_eq!(parse_cpu_model(cpuinfo), Some("Intel(R) Xeon(R) Processor @ 2.10GHz"));
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn usage_difference_saturates() {
        let a = ThreadUsage { cpu_ns: 10, voluntary_switches: 3 };
        let b = ThreadUsage { cpu_ns: 25, voluntary_switches: 2 };
        assert_eq!(b.since(a), ThreadUsage { cpu_ns: 15, voluntary_switches: 0 });
    }
}
