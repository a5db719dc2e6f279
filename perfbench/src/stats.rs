//! Order statistics and process measurements shared by the workloads.

use std::time::Duration;

/// Nearest-rank percentile of `values` (`q` in `(0, 1]`); sorts a copy.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (nearest rank) of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Median over consecutive windows of `window` values of `f(window)`; a
/// short tail joins the last full window.  A burst of host interference
/// then spoils a few windows instead of shifting the whole figure.
pub fn window_median(values: &[f64], window: usize, f: impl Fn(&[f64]) -> f64) -> f64 {
    assert!(window > 0 && !values.is_empty());
    let full = (values.len() / window).max(1);
    let per: Vec<f64> = (0..full)
        .map(|w| {
            let end = if w + 1 == full {
                values.len()
            } else {
                (w + 1) * window
            };
            f(&values[w * window..end])
        })
        .collect();
    median(&per)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the host took from this machine (steal) and all CPU time, in
/// clock ticks since boot, from `/proc/stat`.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Hardware threads this process may run on.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn window_median_ignores_one_disturbed_window() {
        let mut v = vec![1.0; 50];
        v[10..20].fill(100.0);
        assert_eq!(window_median(&v, 10, median), 1.0);
        // The 5-value tail joins the last window instead of standing alone.
        assert_eq!(window_median(&v[..25], 10, |w| w.len() as f64), 10.0);
    }
}
