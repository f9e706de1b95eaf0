//! Order statistics over small sample sets.

/// The median (mean of the two middle values for an even count).
/// `None` for an empty set.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile of an ascending-sorted set: the smallest
/// sample with at least `p` of the set at or below it.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// A metric measured once per repetition. The reported value is the
/// repetitions' quartile *on the good side*: the value a quarter of the
/// way from the best repetition to the worst.
///
/// The reference machine is a 2-vCPU guest. A memory-bound kernel on it
/// swings between 1× and ~0.6× of its speed in phases of 1–20 s while a
/// dependent-multiply loop beside it stays within ±3%, and two busy
/// threads together deliver anything from 1.2× to 2× of one (busy
/// neighbours, or the guest's own two vCPUs, on sibling hardware threads,
/// most likely). That interference only ever slows the program down, so
/// the median of the repetitions mostly measures the neighbours; the best
/// repetition alone is too easily a lucky burst. Measured over sets of
/// 20 s runs, the good-side quartile had the smallest run-to-run spread of
/// the three on most metrics. The median and the range are printed beside it.
#[derive(Debug, Clone)]
pub struct Summary {
    pub quartile: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// `None` when no repetition produced a value.
    pub fn of(values: &[f64], better: Better) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_unstable_by(f64::total_cmp);
        if better == Better::Higher {
            v.reverse();
        }
        // Best first.
        let (best, worst) = (*v.first()?, *v.last()?);
        Some(Summary {
            quartile: v[(v.len() - 1) / 4],
            median: median(values)?,
            min: best.min(worst),
            max: best.max(worst),
            n: v.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn the_good_side_quartile_is_reported() {
        let reps = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0];
        let high = Summary::of(&reps, Better::Higher).unwrap();
        assert_eq!((high.quartile, high.median, high.n), (7.0, 5.0, 9));
        assert_eq!((high.min, high.max), (1.0, 9.0));
        assert_eq!(Summary::of(&reps, Better::Lower).unwrap().quartile, 3.0);
        assert_eq!(
            Summary::of(&[4.0, 2.0], Better::Lower).unwrap().quartile,
            2.0
        );
        assert!(Summary::of(&[], Better::Lower).is_none());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), Some(50));
        assert_eq!(percentile_sorted(&v, 0.99), Some(99));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100));
        assert_eq!(percentile_sorted(&[7], 0.99), Some(7));
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }
}
