//! Percentiles that count failures as misses, the backlog test, and
//! the capacity search over a rate grid.

/// Latency of a request that has no latency: it was answered RETRY or
/// FAILED, or never answered. Sorts after every real latency, so it
/// lands in the top percentiles as +∞ would.
pub const MISS: u64 = u64::MAX;

/// Fewest samples a percentile needs beyond it (above its rank).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile of `sorted` (ascending, misses as
/// [`MISS`]), in the samples' unit. Returns `f64::INFINITY` when the
/// rank falls on a miss, and `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond the rank.
pub fn percentile(sorted: &[u64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let v = sorted[rank - 1];
    Some(if v == MISS { f64::INFINITY } else { v as f64 })
}

/// Sorts `samples` and takes the `p`-th percentile (see [`percentile`]).
pub fn percentile_of(mut samples: Vec<u64>, p: f64) -> Option<f64> {
    samples.sort_unstable();
    percentile(&samples, p)
}

/// Median of finite `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// True when latencies (in due-time order, misses as [`MISS`]) show a
/// growing backlog: the median of the last quarter exceeds both twice
/// the median of the first quarter and `floor`. The floor keeps a swing
/// of a sub-millisecond median (the host's scheduler moving threads
/// about) from reading as a backlog; a real one grows without bound.
pub fn growing_backlog(in_due_order: &[u64], floor: u64) -> bool {
    let (first, last) = quarter_medians(in_due_order);
    last == MISS || (last > first.saturating_mul(2) && last > floor)
}

/// Medians of the first and the last quarter of `xs` (0 when empty).
pub fn quarter_medians(xs: &[u64]) -> (u64, u64) {
    let q = xs.len() / 4;
    if q == 0 {
        return (0, 0);
    }
    (median_u64(&xs[..q]), median_u64(&xs[xs.len() - q..]))
}

fn median_u64(xs: &[u64]) -> u64 {
    let mut v = xs.to_vec();
    v.sort_unstable();
    v[(v.len() - 1) / 2]
}

/// Binary search for the highest grid index whose probe passes,
/// assuming a pass at one rate implies a pass at every lower rate.
/// Probes about log2(n) points; `None` when even the lowest fails.
pub fn highest_passing(n: usize, mut probe: impl FnMut(usize) -> bool) -> Option<usize> {
    let (mut lo, mut hi) = (0, n); // the answer's index + 1 lies in [lo, hi]
    let mut best = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe(mid) {
            best = Some(mid);
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    best
}

/// Evenly spaced rates from `first` to `last` inclusive.
pub fn grid(first: f64, last: f64, step: f64) -> Vec<f64> {
    let points = ((last - first) / step).round() as usize + 1;
    (0..points).map(|i| first + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_as_misses_in_percentiles() {
        // 1000 samples; the 11 slowest are failures.
        let mut v: Vec<u64> = (1..=989).collect();
        v.extend(std::iter::repeat_n(MISS, 11));
        v.sort_unstable();
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 98.85), Some(989.0));
        assert_eq!(percentile(&v, 99.0), Some(f64::INFINITY));
    }

    #[test]
    fn failures_dominate_the_median_once_they_are_half() {
        let mut v = vec![MISS; 600];
        v.extend(1..=400u64);
        assert_eq!(percentile_of(v, 50.0), Some(f64::INFINITY));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 99.5), None);
        assert_eq!(percentile(&v[..999], 99.0), None);
    }

    #[test]
    fn backlog_is_detected_from_quarter_medians() {
        let steady: Vec<u64> = (0..400).map(|i| 100 + i % 7).collect();
        assert!(!growing_backlog(&steady, 0));
        let growing: Vec<u64> = (0..400).map(|i| 100 + 10 * i).collect();
        assert!(growing_backlog(&growing, 0));
        // Doubling below the floor is a swing, not a backlog.
        assert!(!growing_backlog(&growing, 10_000));
        let mut failing = steady.clone();
        failing[300..].fill(MISS);
        assert!(growing_backlog(&failing, 10_000));
    }

    /// p99 of an M/M/1-like curve that diverges at `cap`.
    fn synthetic_p99_us(rate: f64, cap: f64) -> f64 {
        if rate >= cap {
            f64::INFINITY
        } else {
            4.6e6 / (cap - rate)
        }
    }

    #[test]
    fn capacity_search_finds_the_last_rate_under_the_limit() {
        let rates = grid(8_000.0, 18_000.0, 1_000.0);
        assert_eq!(rates.len(), 11);
        // With a 1 ms limit a rate passes when it is ≤ cap − 4.6k.
        for (cap, want) in [
            (17_000.0, 12_000.0),
            (22_700.0, 18_000.0),
            (12_700.0, 8_000.0),
        ] {
            let mut probes = 0;
            let got = highest_passing(rates.len(), |i| {
                probes += 1;
                synthetic_p99_us(rates[i], cap) <= 1_000.0
            })
            .map(|i| rates[i]);
            assert_eq!(got, Some(want), "cap {cap}");
            assert!(probes <= 4, "{probes} probes for 11 points");
        }
    }

    #[test]
    fn capacity_search_reports_none_when_every_rate_fails() {
        let rates = grid(8_000.0, 18_000.0, 1_000.0);
        assert_eq!(
            highest_passing(rates.len(), |i| synthetic_p99_us(rates[i], 5_000.0) < 1e9),
            None
        );
        assert_eq!(highest_passing(rates.len(), |_| true), Some(10));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
