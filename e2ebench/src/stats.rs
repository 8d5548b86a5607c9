//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, span self time and the unattributed share, and `failed_ratio`.
//! Kept free of any solver types so the unit tests pin it exactly.

/// A half-open time interval `[start, end)` in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
}

impl Interval {
    pub fn new(start: u64, end: u64) -> Self {
        Interval {
            start,
            end: end.max(start),
        }
    }

    pub fn len(&self) -> u64 {
        self.end - self.start
    }
}

/// Total length covered by the union of `spans` after clipping each to
/// `within`. Overlapping and nested spans (a `CommSpin` inside its
/// `CommWait`) are counted once.
pub fn covered_ns(within: Interval, spans: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = spans
        .iter()
        .map(|s| Interval::new(s.start.max(within.start), s.end.min(within.end)))
        .filter(|s| s.len() > 0)
        .collect();
    clipped.sort_by_key(|s| s.start);
    let mut total = 0;
    let mut cur: Option<Interval> = None;
    for s in clipped {
        match cur {
            Some(c) if s.start <= c.end => cur = Some(Interval::new(c.start, c.end.max(s.end))),
            Some(c) => {
                total += c.len();
                cur = Some(s);
            }
            None => cur = Some(s),
        }
    }
    total + cur.map_or(0, |c| c.len())
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover.
pub fn self_time_ns(parent: Interval, children: &[Interval]) -> u64 {
    parent.len() - covered_ns(parent, children)
}

/// Share (in percent) of the summed `steps` that no span in `spans` covers.
pub fn unattributed_pct(steps: &[Interval], spans: &[Interval]) -> f64 {
    let mut sorted = spans.to_vec();
    sorted.sort_by_key(|s| s.start);
    // A span overlapping a step starts in [step.start − longest, step.end).
    let longest = sorted.iter().map(Interval::len).max().unwrap_or(0);
    let mut total = 0u64;
    let mut uncovered = 0u64;
    for step in steps {
        let lo = sorted.partition_point(|s| s.start < step.start.saturating_sub(longest));
        let hi = sorted.partition_point(|s| s.start < step.end);
        total += step.len();
        uncovered += self_time_ns(*step, &sorted[lo..hi]);
    }
    if total == 0 {
        0.0
    } else {
        uncovered as f64 / total as f64 * 100.0
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The percentiles a report may name, highest first.
pub const TAIL_CANDIDATES: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// The highest percentile of [`TAIL_CANDIDATES`] not above `want` with at
/// least ten of `n` samples beyond it; `None` with fewer than 20 samples.
pub fn tail_q(n: usize, want: f64) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .filter(|&q| q <= want)
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// [`tail_q`] applied to `xs`: `(q used, value)`.
pub fn tail_at_most(xs: &[f64], want: f64) -> Option<(f64, f64)> {
    tail_q(xs.len(), want).map(|q| (q, percentile(xs, q)))
}

/// Label of a percentile, `0.95 → "p95"`, `0.999 → "p99.9"`.
pub fn pct_label(q: f64) -> String {
    let p = q * 100.0;
    if (p - p.round()).abs() < 1e-9 {
        format!("p{}", p.round() as u64)
    } else {
        format!("p{p:.1}")
    }
}

/// Failed operations as a share of *attempted* operations (not of the ones
/// that succeeded). Zero attempts is a benchmark bug, not a ratio.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "failed_ratio needs at least one attempt");
    assert!(failed <= attempted, "more failures than attempts");
    failed as f64 / attempted as f64
}

/// `(pred − meas) / meas` in percent; 0 when nothing was measured.
pub fn error_pct(pred: f64, meas: f64) -> f64 {
    if meas > 0.0 {
        (pred - meas) / meas * 100.0
    } else {
        0.0
    }
}

/// `max / mean − 1` (the load-imbalance measure `L_max/L_avg − 1`);
/// 0 for one value or all zeros.
pub fn imbalance(xs: &[f64]) -> f64 {
    let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let max = xs.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean - 1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(a, b)
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent [0,100); children [10,40) and [30,50) overlap on [30,40),
        // [45,47) nests inside the second, [90,120) sticks out of the parent.
        let parent = iv(0, 100);
        let kids = [iv(10, 40), iv(30, 50), iv(45, 47), iv(90, 120)];
        assert_eq!(covered_ns(parent, &kids), 40 + 10);
        assert_eq!(self_time_ns(parent, &kids), 50);
        // Children given out of order give the same answer.
        let shuffled = [iv(90, 120), iv(45, 47), iv(30, 50), iv(10, 40)];
        assert_eq!(self_time_ns(parent, &shuffled), 50);
        // No children: all self time. A child covering everything: none.
        assert_eq!(self_time_ns(parent, &[]), 100);
        assert_eq!(self_time_ns(parent, &[iv(0, 100), iv(20, 30)]), 0);
        // Touching children merge without a gap.
        assert_eq!(covered_ns(parent, &[iv(0, 10), iv(10, 20)]), 20);
    }

    #[test]
    fn unattributed_share_sums_over_steps() {
        // Two steps of 100 ns; the first has 60 ns covered, the second 90.
        let steps = [iv(0, 100), iv(200, 300)];
        let spans = [iv(0, 30), iv(20, 60), iv(210, 300), iv(250, 260)];
        assert!((unattributed_pct(&steps, &spans) - 25.0).abs() < 1e-12);
        // A span between steps does not count for either.
        let spans = [iv(100, 200)];
        assert!((unattributed_pct(&steps, &spans) - 100.0).abs() < 1e-12);
        // A long span that starts before the first step covers both.
        let spans = [iv(0, 1_000)];
        assert_eq!(unattributed_pct(&steps, &spans), 0.0);
        assert_eq!(unattributed_pct(&[], &spans), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p95 of n samples leaves n − ceil(0.95 n) beyond it: 10 at n = 200.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(tail_q(200, 1.0), Some(0.95));
        assert_eq!(tail_q(199, 1.0), Some(0.9));
        assert_eq!(tail_q(1000, 1.0), Some(0.99));
        assert_eq!(tail_q(10_000, 1.0), Some(0.999));
        assert_eq!(tail_q(40, 1.0), Some(0.75));
        assert_eq!(tail_q(20, 1.0), Some(0.5));
        assert_eq!(tail_q(19, 1.0), None);
        let xs: Vec<f64> = (1..=60).map(f64::from).collect();
        // 60 samples: p95 and p90 leave 3 and 6 beyond, p75 leaves 15.
        assert_eq!(tail_at_most(&xs, 0.95), Some((0.75, 45.0)));
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_at_most(&xs, 0.95), Some((0.95, 190.0)));
        assert_eq!(pct_label(0.95), "p95");
        assert_eq!(pct_label(0.999), "p99.9");
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5), 3.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 1.0), 5.0);
    }

    #[test]
    fn failed_ratio_is_over_attempts() {
        // 3 failures out of 12 attempts is 0.25, not 3/9 of the successes.
        assert_eq!(failed_ratio(3, 12), 0.25);
        assert_eq!(failed_ratio(0, 7), 0.0);
        assert_eq!(failed_ratio(7, 7), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn failed_ratio_rejects_zero_attempts() {
        failed_ratio(0, 0);
    }

    #[test]
    fn model_error_and_imbalance() {
        assert_eq!(error_pct(150.0, 100.0), 50.0);
        assert_eq!(error_pct(1.0, 0.0), 0.0);
        assert_eq!(imbalance(&[3.0, 1.0]), 0.5);
        assert_eq!(imbalance(&[2.0]), 0.0);
    }
}
