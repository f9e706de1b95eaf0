//! This process's own numbers from `/proc/self`.

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size so far, in MB (10⁶ bytes).
pub fn peak_rss_mb() -> Option<f64> {
    status_field("VmHWM:").map(|kb| kb as f64 * 1024.0 / 1e6)
}

/// Resets the peak-RSS high-water mark to the current RSS, so that input
/// generation and the oracle's tables do not hide the program's own
/// footprint. Best effort: where the kernel refuses, the mark simply
/// keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Threads alive in this process.
pub fn threads() -> Option<u64> {
    status_field("Threads:")
}
