//! Host telemetry from `/proc`, so a run taken in a slow period shows as
//! one. Readers return 0 (or `None`) where the file is missing.

/// `VmHWM` of this process (peak resident set), bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Machine-wide steal time from the `cpu` line of `/proc/stat`, seconds
/// (assuming the usual `USER_HZ` of 100).
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|t| t.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// `(on-CPU seconds, run-queue wait seconds)` of the calling thread, from
/// `/proc/thread-self/schedstat`; `None` where the file is missing. The
/// kernel keeps steal time (the hypervisor running another guest) and
/// run-queue waits out of on-CPU time, but advances it only at scheduler
/// ticks (4 ms at `HZ=250`): it suits long intervals, or sums of many
/// short ones whose errors cancel, not a single short interval.
pub fn thread_schedstat() -> Option<(f64, f64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    let on_cpu = fields.next()??;
    let waited = fields.next()??;
    Some((on_cpu as f64 * 1e-9, waited as f64 * 1e-9))
}
