//! Order statistics for the benchmark's samples.
//!
//! One definition serves every median, quartile and percentile the
//! benchmark prints: linear interpolation between the two closest ranks of
//! the sorted sample (the "type 7" rule most tools default to).

/// The `q`-quantile (`0.0..=1.0`) of a sample sorted in ascending order.
/// An empty sample has no quantile; it reads 0 so that a layer that never
/// ran prints a plain zero.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The `p`-th percentile (`0..=100`) of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), p / 100.0)
}

/// What the benchmark prints for a timed metric: the median with its
/// quartiles, the extremes and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        n: s.len(),
        min: quantile_sorted(&s, 0.0),
        q1: quantile_sorted(&s, 0.25),
        median: quantile_sorted(&s, 0.5),
        q3: quantile_sorted(&s, 0.75),
        max: quantile_sorted(&s, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.min, s.max), (5, 1.0, 5.0));
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let s = summarize(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (17.5, 25.0, 32.5));
    }

    #[test]
    fn percentiles_hit_the_ends_and_the_middle() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 95.0), 96.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        // Out-of-range requests clamp instead of indexing out of bounds.
        assert_eq!(percentile(&v, 250.0), 101.0);
    }

    #[test]
    fn order_of_the_input_does_not_matter() {
        let a = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        let b = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a, b);
    }
}
