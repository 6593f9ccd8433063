//! Process CPU clocks and host context read from `/proc`.
//!
//! Costs are charged in process CPU time (`CLOCK_PROCESS_CPUTIME_ID`): it
//! sums every thread of the process, so work the program moves onto its
//! pool, its server threads or its ack pumps still counts, and it does not
//! advance while the hypervisor runs another guest.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("s2a-bench reads Linux process clocks and /proc; build it on 64-bit Linux");

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed so far by every thread of this process.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux, enforced by the `compile_error!` above) and the clock
    // id is a constant Linux defines; the call writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Nanoseconds since a fixed epoch; every timestamp of a run shares it.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    pub fn new() -> Clock {
        Clock { epoch: Instant::now() }
    }

    pub fn ns(&self) -> u64 {
        Instant::now().saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn instant(&self, ns: u64) -> Instant {
        self.epoch + std::time::Duration::from_nanos(ns)
    }
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> =
        line.split_whitespace().skip(1).take(8).filter_map(|f| f.parse().ok()).collect();
    if fields.len() < 8 {
        return None;
    }
    Some((fields[7], fields.iter().sum()))
}

/// Host steal share between two points in time.
pub struct StealMeter {
    start: Option<(u64, u64)>,
}

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter { start: cpu_jiffies() }
    }

    /// Percent of all host CPU time stolen since `start` (0 when the
    /// kernel exposes no steal accounting).
    pub fn pct(&self) -> f64 {
        match (self.start, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|v| v.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
