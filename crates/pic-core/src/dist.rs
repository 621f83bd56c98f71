//! Initial particle distributions (paper §III-E).
//!
//! Every distribution is reduced to a deterministic vector of **particle
//! counts per cell column** (plus a row range for the patch mode). The same
//! vector drives both the actual particle placement ([`crate::init`]) and
//! the analytic load model used by the full-scale experiments
//! (`pic-cluster::loadmodel`) — the kernel's deterministic drift means
//! per-rank loads at any step are a pure function of this vector.
//!
//! Counts are integerized with the largest-remainder method so the total is
//! *exactly* `n` for every distribution and every grid size.

/// Initial particle distribution over the mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Uniform: every cell column receives `n/c` particles (the `r = 1`
    /// degenerate case of [`Distribution::Geometric`]).
    Uniform,
    /// Exponential/geometric skew (paper §III-E1): a cell in column `i`
    /// holds `p(i) = A·r^i` particles. The paper's experiments use
    /// `r = 0.999`. Per-processor counts form a geometric series with
    /// ratio `r^(c/P)` (paper eq. 8).
    Geometric {
        /// Attenuation per column; `0 < r`. `r < 1` puts the bulk of the
        /// particles in low-index columns.
        r: f64,
    },
    /// Sinusoidal (paper §III-E2): `p(i) ∝ 1 + cos(2πi/(c−1))`.
    Sinusoidal,
    /// Linear ramp (paper §III-E3): `p(i) ∝ β − α·i/(c−1)`; `α ≤ β`
    /// controls the slope (α = 0 degenerates to uniform).
    Linear { alpha: f64, beta: f64 },
    /// Uniform inside the column range `[x0, x1)` × row range `[y0, y1)`
    /// only (paper §III-E4). The relative patch size tunes how hard the
    /// balancing task is.
    Patch {
        x0: usize,
        x1: usize,
        y0: usize,
        y1: usize,
    },
}

impl Distribution {
    /// The paper's experimental skew: geometric with `r = 0.999`.
    pub const PAPER_SKEW: Distribution = Distribution::Geometric { r: 0.999 };

    /// Real-valued weight of cell column `i` of `c` (unnormalized).
    fn weight(&self, i: usize, c: usize) -> f64 {
        match *self {
            Distribution::Uniform => 1.0,
            Distribution::Geometric { r } => r.powi(i as i32),
            Distribution::Sinusoidal => {
                1.0 + (2.0 * std::f64::consts::PI * i as f64 / (c as f64 - 1.0)).cos()
            }
            Distribution::Linear { alpha, beta } => {
                (beta - alpha * i as f64 / (c as f64 - 1.0)).max(0.0)
            }
            Distribution::Patch { x0, x1, .. } => {
                if i >= x0 && i < x1 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Row range `[lo, hi)` that receives particles; the full grid except
    /// for the patch mode.
    pub fn row_range(&self, c: usize) -> (usize, usize) {
        match *self {
            Distribution::Patch { y0, y1, .. } => (y0.min(c), y1.min(c)),
            _ => (0, c),
        }
    }

    /// Deterministic particle count per cell **column**, summing exactly to
    /// `n`, via the largest-remainder (Hamilton) method.
    pub fn column_counts(&self, c: usize, n: u64) -> Vec<u64> {
        assert!(c > 0, "need at least one column");
        let weights: Vec<f64> = (0..c).map(|i| self.weight(i, c)).collect();
        largest_remainder(&weights, n)
    }
}

/// Apportion `n` items over real-valued weights with the largest-remainder
/// method: exact total, deterministic, and within one item of the ideal
/// share per bucket.
pub fn largest_remainder(weights: &[f64], n: u64) -> Vec<u64> {
    let total: f64 = weights.iter().sum();
    assert!(
        total.is_finite() && total >= 0.0,
        "weights must be finite and non-negative"
    );
    let len = weights.len();
    if total <= 0.0 {
        // Degenerate: spread evenly.
        let mut out = vec![n / len as u64; len];
        for item in out.iter_mut().take((n % len as u64) as usize) {
            *item += 1;
        }
        return out;
    }
    let mut counts = vec![0u64; len];
    let mut assigned: u64 = 0;
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(len);
    for (i, &w) in weights.iter().enumerate() {
        let share = n as f64 * w / total;
        let fl = share.floor();
        counts[i] = fl as u64;
        assigned += counts[i];
        remainders.push((share - fl, i));
    }
    // Give leftover items to the largest fractional parts; ties broken by
    // index for determinism.
    remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    let mut leftover = n.saturating_sub(assigned);
    let mut idx = 0;
    while leftover > 0 {
        counts[remainders[idx % len].1] += 1;
        leftover -= 1;
        idx += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_counts_sum_and_spread() {
        let counts = Distribution::Uniform.column_counts(10, 1003);
        assert_eq!(counts.iter().sum::<u64>(), 1003);
        assert!(counts.iter().all(|&c| c == 100 || c == 101));
    }

    #[test]
    fn geometric_counts_decay() {
        let d = Distribution::Geometric { r: 0.5 };
        let counts = d.column_counts(8, 10_000);
        assert_eq!(counts.iter().sum::<u64>(), 10_000);
        for w in counts.windows(2) {
            assert!(
                w[0] >= w[1],
                "geometric counts must be non-increasing: {counts:?}"
            );
        }
        // First column holds about half the particles (1-r = 0.5, c large enough).
        assert!((counts[0] as f64 - 5000.0).abs() < 50.0, "{counts:?}");
    }

    #[test]
    fn geometric_r_one_is_uniform() {
        let d = Distribution::Geometric { r: 1.0 };
        let counts = d.column_counts(6, 600);
        assert_eq!(counts, vec![100; 6]);
    }

    #[test]
    fn geometric_processor_ratio_matches_eq8() {
        // Paper eq. 8: per-block-column counts form a geometric series with
        // ratio r^(c/P).
        let c = 1000;
        let p = 10;
        let r: f64 = 0.995;
        let d = Distribution::Geometric { r };
        let n = 1_000_000u64;
        let counts = d.column_counts(c, n);
        let block: Vec<f64> = (0..p)
            .map(|b| counts[b * c / p..(b + 1) * c / p].iter().sum::<u64>() as f64)
            .collect();
        let want = r.powi((c / p) as i32);
        for w in block.windows(2) {
            let ratio = w[1] / w[0];
            assert!(
                (ratio - want).abs() < 0.01 * want,
                "ratio {ratio} vs eq.8 {want}"
            );
        }
    }

    #[test]
    fn sinusoidal_peaks_at_edges() {
        let d = Distribution::Sinusoidal;
        let counts = d.column_counts(101, 100_000);
        assert_eq!(counts.iter().sum::<u64>(), 100_000);
        assert!(counts[0] > counts[25], "cos peak at column 0");
        assert!(counts[100] > counts[75], "cos peak at last column");
        assert!(counts[50] < 100, "trough at the middle: {}", counts[50]);
    }

    #[test]
    fn linear_ramp() {
        let d = Distribution::Linear {
            alpha: 1.0,
            beta: 1.0,
        };
        let counts = d.column_counts(100, 50_000);
        assert_eq!(counts.iter().sum::<u64>(), 50_000);
        assert!(counts[0] > counts[50] && counts[50] > counts[98]);
        assert_eq!(counts[99], 0, "weight hits zero at the last column");
    }

    #[test]
    fn patch_restricts_columns_and_rows() {
        let d = Distribution::Patch {
            x0: 10,
            x1: 20,
            y0: 5,
            y1: 8,
        };
        let counts = d.column_counts(50, 1000);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        assert!(counts[..10].iter().all(|&c| c == 0));
        assert!(counts[20..].iter().all(|&c| c == 0));
        assert!(counts[10..20].iter().all(|&c| c == 100));
        assert_eq!(d.row_range(50), (5, 8));
        assert_eq!(Distribution::Uniform.row_range(50), (0, 50));
    }

    #[test]
    fn largest_remainder_exact_and_fair() {
        let counts = largest_remainder(&[1.0, 1.0, 1.0], 100);
        assert_eq!(counts.iter().sum::<u64>(), 100);
        let counts = largest_remainder(&[3.0, 1.0], 9);
        assert_eq!(counts, vec![7, 2]); // 6.75 → 7 (larger remainder), 2.25 → 2
        let counts = largest_remainder(&[0.0, 0.0], 5);
        assert_eq!(counts.iter().sum::<u64>(), 5);
    }
}
