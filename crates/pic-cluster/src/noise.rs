//! System non-uniformity injection (the paper's category-1 sources of
//! load imbalance: OS noise, different core frequencies, non-uniform
//! communication distances).
//!
//! The paper's §II notes that while the PIC PRK does not specifically
//! target category 1, "many of the types in this category are
//! indistinguishable from category 2, which can be used as a substitute" —
//! and points to the Gremlins project for comprehensive coverage. This
//! module is that substitute for the *modeled* runs: deterministic
//! per-core/per-step compute-speed perturbations. It exposes the key
//! qualitative difference between the two balancing philosophies: a
//! runtime balancer measures *time* and compensates for slow cores, while
//! the application-specific diffusion scheme equalizes *particle counts*
//! and is blind to them.

use pic_core::rng::SplitMix64;

/// Deterministic compute-speed perturbation model.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum NoiseModel {
    /// Perfectly uniform machine (the default).
    #[default]
    None,
    /// Fixed per-core slowdown factors (≥ 1.0 = that much slower), e.g. a
    /// down-clocked socket or a straggler node.
    CoreSpeeds { factors: Vec<f64> },
    /// Per-core, per-step multiplicative jitter: compute is scaled by
    /// `1 + amplitude · u(core, step)` with `u ∈ [0, 1)` from a
    /// deterministic hash — OS-noise-like interference.
    Jitter { amplitude: f64, seed: u64 },
}

impl NoiseModel {
    /// Helper: the last `n_slow` cores run `slowdown`× slower (a straggler
    /// node), everyone else at full speed.
    pub fn slow_tail(cores: usize, n_slow: usize, slowdown: f64) -> NoiseModel {
        assert!(n_slow <= cores && slowdown >= 1.0);
        let mut factors = vec![1.0; cores];
        for f in factors.iter_mut().skip(cores - n_slow) {
            *f = slowdown;
        }
        NoiseModel::CoreSpeeds { factors }
    }

    /// Compute-time multiplier for `core` at `step` (≥ 1.0).
    #[inline]
    pub fn factor(&self, core: usize, step: u64) -> f64 {
        match self {
            NoiseModel::None => 1.0,
            NoiseModel::CoreSpeeds { factors } => factors.get(core).copied().unwrap_or(1.0),
            NoiseModel::Jitter { amplitude, seed } => {
                let h = SplitMix64::seed_from_u64(seed ^ ((core as u64) << 32) ^ step).next_u64();
                1.0 + amplitude * (h >> 11) as f64 / (1u64 << 53) as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_unity() {
        let n = NoiseModel::None;
        assert_eq!(n.factor(0, 0), 1.0);
        assert_eq!(n.factor(100, 9999), 1.0);
    }

    #[test]
    fn slow_tail_marks_last_cores() {
        let n = NoiseModel::slow_tail(8, 2, 3.0);
        assert_eq!(n.factor(0, 0), 1.0);
        assert_eq!(n.factor(5, 0), 1.0);
        assert_eq!(n.factor(6, 0), 3.0);
        assert_eq!(n.factor(7, 123), 3.0);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let n = NoiseModel::Jitter {
            amplitude: 0.5,
            seed: 42,
        };
        for core in 0..10 {
            for step in 0..50u64 {
                let f = n.factor(core, step);
                assert!((1.0..1.5).contains(&f), "factor {f}");
                assert_eq!(f, n.factor(core, step), "must be deterministic");
            }
        }
        // Different seeds decorrelate.
        let m = NoiseModel::Jitter {
            amplitude: 0.5,
            seed: 43,
        };
        assert_ne!(n.factor(3, 7), m.factor(3, 7));
    }

    #[test]
    fn jitter_varies_across_cores_and_steps() {
        let n = NoiseModel::Jitter {
            amplitude: 1.0,
            seed: 7,
        };
        let a = n.factor(0, 0);
        let b = n.factor(1, 0);
        let c = n.factor(0, 1);
        assert!(a != b || a != c, "jitter should vary");
    }
}
