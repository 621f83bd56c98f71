//! The `mpi-2d-LB` implementation (paper §IV-B): diffusion-based,
//! application-specific load balancing restricted to the x direction.
//!
//! Every `interval` steps, the per-processor-column particle counts are
//! aggregated; for each pair of adjacent processor columns whose counts
//! differ by more than the threshold `τ`, the cut between them moves
//! `border_w` cells toward the heavy side, handing the border cells — and
//! the particles inside them — to the lighter neighbor. Because only
//! x-cuts move, subdomains stay rectangular and the decomposition remains
//! a Cartesian product: communication stays regular nearest-neighbor, the
//! property the paper credits for this scheme's strong-scaling advantage.

/// Tuning knobs of the diffusion balancer (the paper's three interfering
/// parameters: frequency, threshold, border width — "should be co-tuned").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffusionParams {
    /// Steps between load-balancing invocations.
    pub interval: u32,
    /// Count difference between adjacent processor columns that triggers a
    /// transfer.
    pub tau: u64,
    /// Number of mesh-cell columns handed over per transfer.
    pub border_w: usize,
}

impl Default for DiffusionParams {
    fn default() -> Self {
        DiffusionParams {
            interval: 20,
            tau: 0,
            border_w: 1,
        }
    }
}

/// Which phases of the paper's two-phase scheme run.
///
/// §IV-B: "Another relatively simple 2D solution performs load balancing in
/// only one coordinate direction ... as long as the drift velocity of the
/// 'particle cloud' matches the direction in which we perform the
/// diffusion-based load balancing." The paper's experiments use
/// [`DiffusionMode::XOnly`]; the full [`DiffusionMode::TwoPhase`] scheme
/// also moves the y-cuts and handles rotated workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiffusionMode {
    /// Balance x-cuts only (the paper's experimental choice).
    #[default]
    XOnly,
    /// Balance y-cuts only.
    YOnly,
    /// Phase 1 in x, then phase 2 in y (the full §IV-B scheme).
    TwoPhase,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{run_config, BalancerSpec};
    use crate::runner::ParConfig;
    use pic_cluster::balancer::{
        diffuse_xcuts, diffuse_xcuts_from_histogram, per_column_counts_into,
    };
    use pic_comm::world::run_threads;
    use pic_core::dist::Distribution;
    use pic_core::geometry::Grid;
    use pic_core::init::InitConfig;
    use pic_core::verify::triangular_id_sum;

    fn cfg(n: u64, dist: Distribution, steps: u32) -> ParConfig {
        ParConfig::new(
            InitConfig::new(Grid::new(32).unwrap(), n, dist)
                .with_m(1)
                .build()
                .unwrap(),
            steps,
        )
    }

    /// `cfg` under the diffusion balancer.
    fn diffusing(cfg: &ParConfig, params: DiffusionParams, mode: DiffusionMode) -> ParConfig {
        cfg.clone()
            .with_balancer(BalancerSpec::Diffusion { params, mode })
    }

    #[test]
    fn diffuse_xcuts_moves_toward_heavy() {
        // Heavy left column: cut 1 moves left.
        let cuts = diffuse_xcuts(&[0, 8, 16], &[100, 10], 0, 2, 16);
        assert_eq!(cuts, vec![0, 6, 16]);
        // Heavy right column: cut moves right.
        let cuts = diffuse_xcuts(&[0, 8, 16], &[10, 100], 0, 2, 16);
        assert_eq!(cuts, vec![0, 10, 16]);
        // Within threshold: no move.
        let cuts = diffuse_xcuts(&[0, 8, 16], &[100, 95], 10, 2, 16);
        assert_eq!(cuts, vec![0, 8, 16]);
    }

    #[test]
    fn diffuse_xcuts_clamps_minimum_width() {
        // Column 0 is already one cell wide; it cannot shrink further.
        let cuts = diffuse_xcuts(&[0, 1, 16], &[100, 10], 0, 3, 16);
        assert_eq!(cuts, vec![0, 1, 16]);
        // Right end clamp: last column keeps one cell.
        let cuts = diffuse_xcuts(&[0, 15, 16], &[10, 100], 0, 3, 16);
        assert_eq!(cuts, vec![0, 15, 16]);
    }

    #[test]
    fn diffuse_xcuts_cascading_clamp_stays_sorted() {
        let cuts = diffuse_xcuts(&[0, 2, 4, 6, 16], &[1000, 900, 800, 0], 0, 3, 16);
        for w in cuts.windows(2) {
            assert!(w[0] < w[1], "{cuts:?}");
        }
        assert_eq!(cuts[0], 0);
        assert_eq!(cuts[4], 16);
    }

    #[test]
    fn per_column_counts_aggregates_histogram_slices() {
        let hist = [5u64, 0, 3, 7, 1, 2, 0, 4];
        let mut out = vec![99; 7]; // stale contents must be overwritten
        per_column_counts_into(&hist, &[0, 2, 5, 8], &mut out);
        assert_eq!(out, vec![5, 11, 6]);
        // Degenerate single-column world.
        per_column_counts_into(&hist, &[0, 8], &mut out);
        assert_eq!(out, vec![22]);
        // The histogram-driven decision equals the counts-driven one.
        let cuts = diffuse_xcuts_from_histogram(&[0, 2, 5, 8], &hist, 0, 1);
        assert_eq!(cuts, diffuse_xcuts(&[0, 2, 5, 8], &[5, 11, 6], 0, 1, 8));
    }

    #[test]
    fn binned_histogram_fast_path_drives_cut_movement() {
        // End to end: the column histogram the serial engine reads back
        // from its store (it never re-sorts, so after the first sweep that
        // is the store's scan, not the O(columns) prefix sums) alone steers the diffusion cuts after the paper's
        // drifting skewed cloud.
        use pic_core::engine::Simulation;
        let grid = Grid::new(32).unwrap();
        let setup = InitConfig::new(grid, 2000, Distribution::Geometric { r: 0.8 })
            .with_m(1)
            .build()
            .unwrap();
        let mut sim = Simulation::new(setup);
        let ncells = grid.ncells();
        let px = 4;
        let mut cuts: Vec<usize> = (0..=px).map(|i| i * ncells / px).collect();
        let static_cuts = cuts.clone();
        let mut hist = Vec::new();
        let mut counts = Vec::new();
        let (mut max_balanced, mut max_static) = (0u64, 0u64);
        for _ in 0..40 {
            sim.step();
            sim.column_histogram_into(&mut hist);
            // The store's histogram agrees with a count over the
            // canonical population.
            let mut scan = vec![0u64; ncells];
            for p in sim.particles() {
                scan[grid.cell_of(p.x)] += 1;
            }
            assert_eq!(hist, scan);
            // Track worst-case per-processor-column load under moving vs
            // frozen cuts (border_w 2 per step outruns the 1 cell/step
            // drift, as in `balancing_reduces_max_count_vs_baseline`).
            cuts = diffuse_xcuts_from_histogram(&cuts, &hist, 0, 2);
            per_column_counts_into(&hist, &cuts, &mut counts);
            max_balanced = max_balanced.max(*counts.iter().max().unwrap());
            per_column_counts_into(&hist, &static_cuts, &mut counts);
            max_static = max_static.max(*counts.iter().max().unwrap());
        }
        assert!(sim.verify().passed());
        assert!(
            max_balanced < max_static,
            "histogram-driven cuts max {max_balanced} must beat static cuts max {max_static}"
        );
    }

    #[test]
    fn verified_run_with_balancing() {
        let c = cfg(600, Distribution::Geometric { r: 0.85 }, 60);
        let params = DiffusionParams {
            interval: 5,
            tau: 0,
            border_w: 2,
        };
        let lb = diffusing(&c, params, DiffusionMode::XOnly);
        let outcomes = run_threads(4, |comm| run_config(&comm, &lb));
        for o in &outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
            assert_eq!(o.total_count, 600);
            assert_eq!(o.verify.id_sum, triangular_id_sum(600));
        }
    }

    #[test]
    fn balancing_reduces_max_count_vs_baseline() {
        let c = cfg(2000, Distribution::Geometric { r: 0.8 }, 40);
        let base = run_threads(4, |comm| run_config(&comm, &c));
        // The skew drifts one cell per step, so the cut must be able to
        // move faster than that: border_w / interval > 1.
        let params = DiffusionParams {
            interval: 1,
            tau: 0,
            border_w: 2,
        };
        let lb = diffusing(&c, params, DiffusionMode::XOnly);
        let balanced = run_threads(4, |comm| run_config(&comm, &lb));
        assert!(base[0].verify.passed());
        assert!(balanced[0].verify.passed());
        assert!(
            balanced[0].max_count < base[0].max_count,
            "diffusion max {} must beat baseline max {}",
            balanced[0].max_count,
            base[0].max_count
        );
    }

    #[test]
    fn single_column_world_is_a_noop_balancer() {
        // px = 1 (p = 1): no internal cuts, balancer must be harmless.
        let c = cfg(100, Distribution::Geometric { r: 0.9 }, 12);
        let lb = diffusing(&c, DiffusionParams::default(), DiffusionMode::XOnly);
        let outcomes = run_threads(1, |comm| run_config(&comm, &lb));
        assert!(outcomes[0].verify.passed());
    }

    #[test]
    fn x_only_defeated_by_rotated_distribution() {
        // Paper §III-E1: rotating the particle distribution 90° defeats a
        // balancer that only works in the other direction; the full
        // two-phase scheme handles it.
        use pic_core::init::SkewAxis;
        let c = ParConfig::new(
            InitConfig::new(
                Grid::new(32).unwrap(),
                2000,
                Distribution::Geometric { r: 0.8 },
            )
            .with_skew_axis(SkewAxis::Y)
            .with_m(1) // the skew drifts vertically
            .build()
            .unwrap(),
            40,
        );
        let params = DiffusionParams {
            interval: 1,
            tau: 0,
            border_w: 2,
        };
        let base = run_threads(4, |comm| run_config(&comm, &c));
        let lb = diffusing(&c, params, DiffusionMode::XOnly);
        let xonly = run_threads(4, |comm| run_config(&comm, &lb));
        let lb = diffusing(&c, params, DiffusionMode::TwoPhase);
        let twophase = run_threads(4, |comm| run_config(&comm, &lb));
        for o in [&base[0], &xonly[0], &twophase[0]] {
            assert!(o.verify.passed(), "{:?}", o.verify);
        }
        // x-only balancing cannot help a row-skewed load...
        assert!(
            xonly[0].max_count as f64 > 0.9 * base[0].max_count as f64,
            "x-only should be ineffective: {} vs baseline {}",
            xonly[0].max_count,
            base[0].max_count
        );
        // ...while the two-phase scheme substantially reduces the max.
        assert!(
            (twophase[0].max_count as f64) < 0.8 * base[0].max_count as f64,
            "two-phase must help: {} vs baseline {}",
            twophase[0].max_count,
            base[0].max_count
        );
    }

    #[test]
    fn y_only_mode_balances_row_skew() {
        use pic_core::init::SkewAxis;
        let c = ParConfig::new(
            InitConfig::new(Grid::new(32).unwrap(), 1500, Distribution::Sinusoidal)
                .with_skew_axis(SkewAxis::Y)
                .with_m(-1)
                .build()
                .unwrap(),
            30,
        );
        let params = DiffusionParams {
            interval: 1,
            tau: 0,
            border_w: 2,
        };
        let lb = diffusing(&c, params, DiffusionMode::YOnly);
        let out = run_threads(4, |comm| run_config(&comm, &lb));
        assert!(out[0].verify.passed(), "{:?}", out[0].verify);
    }

    #[test]
    fn sinusoidal_distribution_balances_too() {
        let c = cfg(800, Distribution::Sinusoidal, 48);
        let params = DiffusionParams {
            interval: 4,
            tau: 10,
            border_w: 1,
        };
        let lb = diffusing(&c, params, DiffusionMode::XOnly);
        let outcomes = run_threads(6, |comm| run_config(&comm, &lb));
        for o in outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
        }
    }
}
