//! Small numeric helpers: order statistics, histogram percentiles, seeds
//! and process memory.

use botmeter_obs::HistogramSnapshot;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between order statistics; `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of an obs latency histogram in nanoseconds, read as the
/// upper bound of the power-of-two bucket holding it (the histogram keeps
/// no finer resolution), capped at the exact maximum.
pub fn histogram_quantile_ns(hist: Option<&HistogramSnapshot>, q: f64) -> f64 {
    let Some(hist) = hist else { return 0.0 };
    if hist.count == 0 {
        return 0.0;
    }
    let rank = ((q * hist.count as f64).ceil() as u64).clamp(1, hist.count);
    let mut seen = 0;
    for bucket in &hist.buckets {
        seen += bucket.count;
        if seen >= rank {
            return bucket.le_ns.min(hist.max_ns) as f64;
        }
    }
    hist.max_ns as f64
}

/// SplitMix64: derives independent per-item seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak_rss_mb needs /proc/self/status (Linux)");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib / 1024.0
}

/// Worker threads every workload runs with: the machine's cores, never
/// more.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
