//! Order statistics: the pieces a wrong number would hide in.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// value with at least `p`% of the samples at or below it. `None` on an
/// empty slice — a percentile nobody measured is absent, never 0.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`percentile`], but only when at least `beyond` samples lie strictly
/// above the chosen rank — the guide's "ten samples beyond" rule, so a
/// tail percentile is never read off one or two outliers.
pub fn percentile_supported(sorted: &[f64], p: f64, beyond: usize) -> Option<f64> {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    (sorted.len() >= rank.max(1) + beyond).then(|| percentile(sorted, p)).flatten()
}

/// Arithmetic mean; `None` on an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Sorts a copy ascending (total order; the inputs are never NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A value with the spread of the sub-windows it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Nearest-rank quartiles of `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Self> {
        let s = sorted(values);
        Some(Self {
            q1: percentile(&s, 25.0)?,
            median: percentile(&s, 50.0)?,
            q3: percentile(&s, 75.0)?,
        })
    }

    /// Inter-quartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Buckets event offsets (seconds from the phase start) into consecutive
/// windows of `width` seconds and returns events per second in every
/// *complete* window — the trailing partial window is dropped so a phase
/// that ends mid-window does not report a slow one.
pub fn window_rates(offsets_s: &[f64], phase_s: f64, width: f64) -> Vec<f64> {
    let windows = (phase_s / width).floor() as usize;
    let mut counts = vec![0u64; windows];
    for &t in offsets_s {
        let w = (t / width) as usize;
        if t >= 0.0 && w < windows {
            counts[w] += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / width).collect()
}

/// Median of up to `max_samples` durations returned by `sample`, in
/// microseconds; stops early once `budget` is spent (at least one sample
/// is always taken).
pub fn median_us(
    budget: Duration,
    max_samples: usize,
    sample: &mut dyn FnMut() -> Duration,
) -> f64 {
    let deadline = Instant::now() + budget;
    let mut us = Vec::with_capacity(max_samples);
    while us.is_empty() || (us.len() < max_samples && Instant::now() < deadline) {
        us.push(sample().as_secs_f64() * 1e6);
    }
    percentile(&sorted(&us), 50.0).expect("at least one sample")
}

/// Median microseconds per call of `f` over up to `max_calls` calls,
/// timed in batches of `batch` so that a sub-microsecond call is not
/// drowned by the clock reads around it.
pub fn time_batches(budget: Duration, max_calls: usize, batch: usize, f: &mut dyn FnMut()) -> f64 {
    median_us(budget, max_calls / batch, &mut || {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        start.elapsed() / batch as u32
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 95.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 is rank 190: exactly ten samples lie beyond it.
        assert_eq!(percentile_supported(&v, 95.0, 10), Some(190.0));
        // p99 is rank 198: only two beyond.
        assert_eq!(percentile_supported(&v, 99.0, 10), None);
        assert_eq!(percentile_supported(&v[..199], 95.0, 10), None);
        assert_eq!(percentile_supported(&[], 50.0, 0), None);
    }

    #[test]
    fn quartiles_and_iqr_share() {
        let q = Quartiles::of(&[40.0, 10.0, 30.0, 20.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (10.0, 20.0, 30.0));
        assert_eq!(q.iqr_share(), 1.0);
        assert!(Quartiles::of(&[]).is_none());
    }

    #[test]
    fn window_rates_drop_the_partial_tail_window() {
        // 3 events in [0,0.5), 1 in [0.5,1.0), 1 in the partial tail.
        let rates = window_rates(&[0.1, 0.2, 0.3, 0.7, 1.1], 1.2, 0.5);
        assert_eq!(rates, vec![6.0, 2.0]);
        let q = Quartiles::of(&rates).unwrap();
        assert_eq!(q.median, 2.0);
    }
}
