//! Property tests of the machine model, cost model, BSP accounting, the
//! analytic load model, and the balance decision functions.

use pic_cluster::balancer::{diffuse_xcuts_from_histogram, greedy_assign, refine_assign};
use pic_cluster::bsp::BspSimulator;
use pic_cluster::cost::CostModel;
use pic_cluster::loadmodel::ColumnLoadModel;
use pic_cluster::machine::{Distance, MachineModel};
use pic_core::dist::Distribution;
use proptest::prelude::*;

/// A uniform partition of `ncells` into `px` columns, `xcuts` style.
fn uniform_cuts(px: usize, ncells: usize) -> Vec<usize> {
    (0..=px).map(|i| i * ncells / px).collect()
}

/// The partition invariant every diffusion decision must keep: pinned
/// ends, strictly increasing interior (≥ 1 cell per column).
fn assert_partition(
    cuts: &[usize],
    px: usize,
    ncells: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(cuts.len(), px + 1);
    prop_assert_eq!(cuts[0], 0);
    prop_assert_eq!(cuts[px], ncells);
    for w in cuts.windows(2) {
        prop_assert!(w[0] < w[1], "cuts not strictly increasing: {cuts:?}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Distance classification is symmetric and consistent with the
    /// hierarchy (same socket ⊂ same node).
    #[test]
    fn distance_symmetry_and_hierarchy(
        cores_pow in 1usize..8,
        a_sel in any::<u64>(),
        b_sel in any::<u64>(),
    ) {
        let cores = 1usize << cores_pow;
        let m = MachineModel::edison(cores);
        let total = m.total_cores();
        let a = (a_sel % total as u64) as usize;
        let b = (b_sel % total as u64) as usize;
        prop_assert_eq!(m.distance(a, b), m.distance(b, a));
        match m.distance(a, b) {
            Distance::SameCore => prop_assert_eq!(a, b),
            Distance::SameSocket => {
                prop_assert_eq!(m.socket_of(a), m.socket_of(b));
                prop_assert_eq!(m.node_of(a), m.node_of(b));
            }
            Distance::SameNode => {
                prop_assert_ne!(m.socket_of(a), m.socket_of(b));
                prop_assert_eq!(m.node_of(a), m.node_of(b));
            }
            Distance::Remote => prop_assert_ne!(m.node_of(a), m.node_of(b)),
        }
    }

    /// Message cost is monotone in bytes and in distance.
    #[test]
    fn msg_cost_monotone(bytes in 0.0f64..1e9, extra in 1.0f64..1e6) {
        let c = CostModel::edison_like();
        for d in Distance::ALL {
            prop_assert!(c.msg_cost_ns(d, bytes + extra) > c.msg_cost_ns(d, bytes));
        }
        for w in Distance::ALL.windows(2) {
            prop_assert!(c.msg_cost_ns(w[1], bytes) > c.msg_cost_ns(w[0], bytes));
        }
    }

    /// BSP total time is at least the sum of per-step maxima and the
    /// imbalance statistic is ≥ 1.
    #[test]
    fn bsp_accounting_invariants(
        cores in 1usize..16,
        steps in 1usize..50,
        seed in any::<u64>(),
    ) {
        let machine = MachineModel::edison(cores);
        let cost = CostModel::edison_like();
        let mut sim = BspSimulator::new(machine, cost, cores);
        let mut sum_max = 0.0;
        for s in 0..steps {
            let compute: Vec<f64> = (0..cores)
                .map(|c| ((seed >> ((s * cores + c) % 48)) % 1000) as f64)
                .collect();
            let comm = vec![0.0; cores];
            sum_max += compute.iter().cloned().fold(0.0f64, f64::max);
            sim.step(&compute, &comm);
        }
        let st = sim.stats();
        prop_assert!(st.seconds * 1e9 >= sum_max - 1e-6);
        prop_assert!(st.imbalance >= 1.0 - 1e-12, "imbalance {}", st.imbalance);
        prop_assert_eq!(st.steps, steps as u64);
    }

    /// Load-model range queries are additive: count(a,c) = count(a,b) +
    /// count(b,c), after any number of advances.
    #[test]
    fn loadmodel_range_additivity(
        chalf in 4usize..64,
        n in 0u64..100_000,
        k in 0u32..4,
        adv in 0u64..500,
        splits in any::<u64>(),
    ) {
        let c = chalf * 2;
        prop_assume!(2 * (k as usize) < c);
        let mut m = ColumnLoadModel::new(Distribution::Geometric { r: 0.97 }, c, n, k, 1);
        m.advance(adv);
        let a = (splits % c as u64) as usize;
        let cc = a + ((splits >> 16) % (c as u64 - a as u64 + 1)) as usize;
        let b = a + ((splits >> 32) % (cc as u64 - a as u64 + 1)) as usize;
        prop_assert_eq!(
            m.count_in_columns(a, cc),
            m.count_in_columns(a, b) + m.count_in_columns(b, cc)
        );
    }

    /// Advancing by x then y equals advancing by x+y, and a full period
    /// returns the initial histogram.
    #[test]
    fn loadmodel_advance_composition(
        chalf in 4usize..32,
        n in 1u64..50_000,
        x in 0u64..300,
        y in 0u64..300,
    ) {
        let c = chalf * 2;
        let dist = Distribution::Sinusoidal;
        let mut a = ColumnLoadModel::new(dist, c, n, 0, 1);
        let mut b = ColumnLoadModel::new(dist, c, n, 0, 1);
        a.advance(x);
        a.advance(y);
        b.advance(x + y);
        for j in 0..c {
            prop_assert_eq!(a.count_in_column(j), b.count_in_column(j));
        }
        // Full period: stride 1, so c steps restore the histogram.
        let mut p = ColumnLoadModel::new(dist, c, n, 0, 1);
        let initial: Vec<u64> = (0..c).map(|j| p.count_in_column(j)).collect();
        p.advance(c as u64);
        let after: Vec<u64> = (0..c).map(|j| p.count_in_column(j)).collect();
        prop_assert_eq!(initial, after);
    }

    /// Crossing counts never exceed the total and sum of crossing at every
    /// cut equals stride × total for uniform... (bounded sanity).
    #[test]
    fn crossing_cut_bounded(
        chalf in 4usize..32,
        n in 0u64..20_000,
        k in 0u32..3,
        cut_sel in any::<u64>(),
        adv in 0u64..100,
    ) {
        let c = chalf * 2;
        prop_assume!(2 * (k as u64) < c as u64);
        let mut m = ColumnLoadModel::new(Distribution::Geometric { r: 0.9 }, c, n, k, 1);
        m.advance(adv);
        let cut = (cut_sel % c as u64) as usize;
        prop_assert!(m.crossing_cut(cut) <= n);
    }

    /// A zero-total histogram never moves a cut: with nothing to balance,
    /// the decision is the identity, whatever the border width.
    #[test]
    fn diffusion_zero_total_histogram_is_identity(
        px in 1usize..8,
        cells_per in 1usize..16,
        border_w in 1usize..1000,
        tau in 0u64..100,
    ) {
        let ncells = px * cells_per;
        let cuts = uniform_cuts(px, ncells);
        let hist = vec![0u64; ncells];
        let out = diffuse_xcuts_from_histogram(&cuts, &hist, tau, border_w);
        prop_assert_eq!(out, cuts);
    }

    /// A single heavy mesh column — the most lopsided histogram possible —
    /// must still produce a valid partition for any border width (the
    /// clamp absorbs arbitrarily wild proposals, including the huge
    /// `border_w` casts that used to wrap).
    #[test]
    fn diffusion_single_heavy_column_keeps_partition(
        px in 2usize..8,
        cells_per in 1usize..16,
        heavy_sel in any::<u64>(),
        weight in 1u64..u64::MAX / 2,
        border_w in 1usize..usize::MAX,
        adv in 0usize..4,
    ) {
        let ncells = px * cells_per;
        let mut cuts = uniform_cuts(px, ncells);
        let mut hist = vec![0u64; ncells];
        hist[(heavy_sel % ncells as u64) as usize] = weight;
        // Iterate the decision a few times: the fixed point must stay a
        // partition too (cascading clamps interact across rounds).
        for _ in 0..=adv {
            cuts = diffuse_xcuts_from_histogram(&cuts, &hist, 0, border_w);
            assert_partition(&cuts, px, ncells)?;
        }
    }

    /// Arbitrary histograms, thresholds and border widths: the decision
    /// always yields a valid partition and is replicated (two evaluations
    /// from identical inputs agree bit-for-bit).
    #[test]
    fn diffusion_always_partitions_and_replicates(
        px in 1usize..8,
        cells_per in 1usize..16,
        seed in any::<u64>(),
        tau in 0u64..10_000,
        border_w in 1usize..100,
    ) {
        let ncells = px * cells_per;
        let cuts = uniform_cuts(px, ncells);
        let hist: Vec<u64> = (0..ncells)
            .map(|i| seed.rotate_left((i % 64) as u32) % 100_000)
            .collect();
        let a = diffuse_xcuts_from_histogram(&cuts, &hist, tau, border_w);
        let b = diffuse_xcuts_from_histogram(&cuts, &hist, tau, border_w);
        assert_partition(&a, px, ncells)?;
        prop_assert_eq!(a, b);
    }

    /// The VP assignment strategies must return a complete, in-range
    /// assignment for any load vector — including non-finite loads (the
    /// NaN-safe total order must never panic and never emit an out-of-range
    /// core id).
    #[test]
    fn vp_assignments_total_and_in_range(
        nvps in 1usize..32,
        cores in 1usize..8,
        seed in any::<u64>(),
        nan_sel in any::<u64>(),
    ) {
        let mut loads: Vec<f64> = (0..nvps)
            .map(|i| (seed.rotate_left((i % 64) as u32) % 1000) as f64)
            .collect();
        if nan_sel.is_multiple_of(3) {
            loads[(nan_sel % nvps as u64) as usize] = f64::NAN;
        }
        let greedy = greedy_assign(&loads, cores);
        prop_assert_eq!(greedy.len(), nvps);
        prop_assert!(greedy.iter().all(|&c| c < cores));
        let current: Vec<usize> = (0..nvps).map(|i| i % cores).collect();
        let refined = refine_assign(&loads, &current, cores, usize::MAX);
        prop_assert_eq!(refined.len(), nvps);
        prop_assert!(refined.iter().all(|&c| c < cores));
    }
}
