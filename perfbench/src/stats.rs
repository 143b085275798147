//! Summaries of samples, and the peak resident memory of a process.

/// Linear-interpolation quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The highest of p50/p90/p99/p99.9 that has at least ten samples beyond
/// it: a percentile with fewer is a single slow statement, not a tail.
pub fn reportable_percentiles(n: usize) -> Vec<f64> {
    [0.5, 0.9, 0.99, 0.999]
        .into_iter()
        .filter(|q| (n as f64) * (1.0 - q) >= 10.0)
        .collect()
}

/// `count median [q1, q3]` of a sample, for the provenance lines.
pub fn spread(values: &[f64]) -> String {
    let s = sorted(values);
    format!(
        "n={} median={:.4} q1={:.4} q3={:.4}",
        s.len(),
        quantile(&s, 0.5),
        quantile(&s, 0.25),
        quantile(&s, 0.75)
    )
}

/// `VmHWM` (peak resident set) of a process, in MiB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&s, 0.1), 1.4);
        assert_eq!(reportable_percentiles(150), vec![0.5, 0.9]);
        assert_eq!(reportable_percentiles(1000), vec![0.5, 0.9, 0.99]);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
