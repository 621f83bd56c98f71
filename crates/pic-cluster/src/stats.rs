//! Load-balance statistics.
//!
//! The paper quantifies imbalance as max particles per core vs the ideal;
//! this module adds the standard complementary metrics (max/mean ratio,
//! coefficient of variation, Gini coefficient) used when reporting how
//! (un)even a load vector is.

/// Summary statistics of a per-core load vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceStats {
    pub max: f64,
    pub min: f64,
    pub mean: f64,
    /// `max / mean`; 1.0 = perfectly balanced. The BSP step-time metric.
    pub imbalance: f64,
    /// Coefficient of variation (population std / mean).
    pub cv: f64,
    /// Gini coefficient ∈ [0, 1); 0 = perfectly even.
    pub gini: f64,
}

impl BalanceStats {
    /// Compute from a load vector. Empty or all-zero vectors yield the
    /// neutral statistics (imbalance 1, cv 0, gini 0).
    ///
    /// NaN-tolerant: NaN entries (e.g. 0/0 timing ratios fed in by the
    /// tracer) are excluded from every aggregate instead of poisoning
    /// them; an all-NaN vector behaves like an empty one.
    pub fn from_loads(loads: &[f64]) -> BalanceStats {
        let mut sum = 0.0f64;
        let mut max = f64::MIN;
        let mut min = f64::MAX;
        let mut n = 0usize;
        for &l in loads {
            if l.is_nan() {
                continue;
            }
            sum += l;
            max = max.max(l);
            min = min.min(l);
            n += 1;
        }
        if n == 0 {
            return BalanceStats {
                max: 0.0,
                min: 0.0,
                mean: 0.0,
                imbalance: 1.0,
                cv: 0.0,
                gini: 0.0,
            };
        }
        let mean = sum / n as f64;
        if sum <= 0.0 {
            return BalanceStats {
                max,
                min,
                mean,
                imbalance: 1.0,
                cv: 0.0,
                gini: 0.0,
            };
        }
        let var: f64 = loads
            .iter()
            .filter(|l| !l.is_nan())
            .map(|&l| (l - mean) * (l - mean))
            .sum::<f64>()
            / n as f64;
        let cv = var.sqrt() / mean;
        // Gini via the sorted formula: G = (2 Σ_i i·x_i) / (n Σ x) − (n+1)/n,
        // with 1-based i over ascending x.
        let mut sorted: Vec<f64> = loads.iter().copied().filter(|l| !l.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        let weighted: f64 = sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 + 1.0) * x)
            .sum();
        let gini = (2.0 * weighted) / (n as f64 * sum) - (n as f64 + 1.0) / n as f64;
        BalanceStats {
            max,
            min,
            mean,
            imbalance: max / mean,
            cv,
            gini: gini.max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_vector() {
        let s = BalanceStats::from_loads(&[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(s.imbalance, 1.0);
        assert_eq!(s.cv, 0.0);
        assert!(s.gini.abs() < 1e-12);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.min, 5.0);
    }

    #[test]
    fn skewed_vector() {
        let s = BalanceStats::from_loads(&[10.0, 0.0, 0.0, 0.0]);
        assert_eq!(s.imbalance, 4.0);
        assert!(s.gini > 0.7, "gini {}", s.gini);
        assert!(s.cv > 1.5);
    }

    #[test]
    fn gini_ordering_matches_intuition() {
        let even = BalanceStats::from_loads(&[3.0, 3.0, 3.0]).gini;
        let mild = BalanceStats::from_loads(&[2.0, 3.0, 4.0]).gini;
        let harsh = BalanceStats::from_loads(&[0.0, 1.0, 8.0]).gini;
        assert!(even < mild && mild < harsh, "{even} {mild} {harsh}");
    }

    #[test]
    fn degenerate_inputs() {
        let s = BalanceStats::from_loads(&[]);
        assert_eq!(s.imbalance, 1.0);
        let s = BalanceStats::from_loads(&[0.0, 0.0]);
        assert_eq!(s.imbalance, 1.0);
        assert_eq!(s.gini, 0.0);
    }

    #[test]
    fn nan_loads_do_not_panic_or_poison() {
        // Regression: `partial_cmp().unwrap()` in the Gini sort used to
        // panic on any NaN entry. NaN values must be excluded instead.
        let s = BalanceStats::from_loads(&[4.0, f64::NAN, 2.0, f64::NAN]);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.mean, 3.0);
        assert!((s.imbalance - 4.0 / 3.0).abs() < 1e-12);
        assert!(s.cv.is_finite() && s.gini.is_finite());
        // The non-NaN subset [4,2] must give the same stats.
        assert_eq!(s, BalanceStats::from_loads(&[4.0, 2.0]));

        // All-NaN behaves like empty: neutral statistics.
        let s = BalanceStats::from_loads(&[f64::NAN, f64::NAN]);
        assert_eq!(s.imbalance, 1.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.gini, 0.0);

        // Infinities are not NaN and pass through arithmetic untouched.
        let s = BalanceStats::from_loads(&[f64::INFINITY, 1.0]);
        assert_eq!(s.max, f64::INFINITY);
    }
}
