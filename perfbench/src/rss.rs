//! Peak resident memory of this process.

/// Peak resident set size so far (`VmHWM`), MiB.
///
/// `getrusage`'s `ru_maxrss` would be simpler but survives `execve`:
/// under `cargo run` it reports cargo's own peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_is_positive_and_grows_with_a_touched_allocation() {
        let before = super::peak_rss_mb();
        assert!(before > 0.0);
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(super::peak_rss_mb() >= before + 32.0);
    }
}
