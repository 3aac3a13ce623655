//! Order statistics used by the report: nearest-rank percentiles, the
//! tail rule (the highest percentile a sample supports) and throughput.

/// Percentiles the tail rule tries, highest first.
const TAIL_CANDIDATES: [u32; 3] = [99, 90, 50];

/// A percentile must have at least this many samples above it before
/// the report calls it a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p`% of the sample at or below it. `None` on an empty
/// sample.
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: u32) -> usize {
    let r = (n * p as usize).div_ceil(100);
    r.clamp(1, n)
}

/// How many samples lie strictly after the rank of percentile `p`.
pub fn beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The tail a sample of `n` supports: the highest of p99/p90/p50 with at
/// least [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when even p50
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Sorts a copy ascending (samples are finite timings).
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median by nearest rank.
pub fn median(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    percentile(&sorted(values), 50)
}

/// Arithmetic mean; `None` on an empty sample.
pub fn mean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    (n > 0).then(|| sum / n as f64)
}

/// Throughput of several closed-loop connections: for each, the median
/// of its sessions' `weight / seconds`, summed over connections. A
/// connection without sessions adds nothing.
pub fn connection_rate(connections: impl IntoIterator<Item = Vec<(f64, f64)>>) -> f64 {
    connections
        .into_iter()
        .filter_map(|sessions| {
            median(
                sessions
                    .into_iter()
                    .filter(|&(_, secs)| secs > 0.0)
                    .map(|(weight, secs)| weight / secs),
            )
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50), Some(50.0));
        assert_eq!(percentile(&s, 90), Some(90.0));
        assert_eq!(percentile(&s, 99), Some(99.0));
        assert_eq!(percentile(&ramp(1), 99), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&ramp(5), 50), Some(3.0));
    }

    #[test]
    fn beyond_counts_samples_after_the_rank() {
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(99, 90), 9);
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(beyond(999, 99), 9);
        assert_eq!(beyond(0, 50), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond; 999 falls to p90.
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(999), Some(90));
        // 100 samples: p90 has exactly 10 beyond; 99 falls to p50.
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), Some(50));
        // 20 samples: p50 has exactly 10 beyond; fewer support no tail.
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
    }

    #[test]
    fn connection_rate_sums_median_session_rates() {
        // Four 5 s sessions and one that waited out a 10 s open stall:
        // the median session still runs at 0.2 sessions/s.
        let one = vec![(1.0, 5.0), (1.0, 5.1), (1.0, 15.0), (1.0, 4.9), (1.0, 5.0)];
        assert_eq!(connection_rate([one.clone()]), 1.0 / 5.0);
        // Two connections add; an idle one adds nothing.
        let fast = vec![(10.0, 0.5), (10.0, 0.5), (10.0, 0.5)];
        assert_eq!(connection_rate([one, fast, Vec::new()]), 0.2 + 20.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median([3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(mean([1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(std::iter::empty()), None);
    }
}
