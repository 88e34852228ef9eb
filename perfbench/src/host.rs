//! Host readings: parallelism, process memory and CPU time, and the small
//! order statistics every workload reports with.

use std::time::Instant;

/// Parallelism usable by this process (affinity and cgroup masks applied):
/// what a replay with `workers: 0` resolves to.
pub fn usable_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Online CPUs of the host, from `/proc/cpuinfo` (at least the usable
/// parallelism, which is also the fallback off Linux).
pub fn host_cpus() -> usize {
    let online = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    online.max(usable_parallelism())
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        l.strip_prefix(field)?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()
    })
}

/// Peak resident set size of this process (`VmHWM`), MiB; 0 when unreadable.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Resets the peak-RSS mark to the current RSS (`clear_refs` mode 5), so a
/// later [`peak_rss_mib`] bounds only what ran after this call. Returns
/// false when the kernel refused, in which case the peak still includes the
/// set-up.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// User plus system CPU seconds this process has consumed (all threads),
/// from `/proc/self/stat`; 0 when unreadable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks (100 Hz on
    // every Linux this runs on).
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => 0.0,
    }
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Quantile `q` of `values` by linear interpolation between closest ranks
/// (sorts in place). NaN for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}
