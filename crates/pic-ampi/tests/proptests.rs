//! Property tests of the VP grid and the balancing strategies.

use pic_ampi::vp::VpGrid;
use pic_ampi::Balancer;
use pic_cluster::balancer::{greedy_assign, imbalance, refine_assign};
use proptest::prelude::*;

fn arb_loads() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1000.0, 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Greedy always produces a valid assignment and never does worse than
    /// `max_vp_load / avg` allows: its max core load is at most
    /// `avg + max_vp` (classic LPT-style bound, loose form).
    #[test]
    fn greedy_bound(loads in arb_loads(), cores in 1usize..12) {
        let asg = greedy_assign(&loads, cores);
        prop_assert_eq!(asg.len(), loads.len());
        prop_assert!(asg.iter().all(|&c| c < cores));
        let total: f64 = loads.iter().sum();
        let maxvp = loads.iter().cloned().fold(0.0f64, f64::max);
        let mut core_loads = vec![0.0f64; cores];
        for (vp, &c) in asg.iter().enumerate() {
            core_loads[c] += loads[vp];
        }
        let maxcore = core_loads.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(
            maxcore <= total / cores as f64 + maxvp + 1e-9,
            "greedy max {maxcore} vs bound {}",
            total / cores as f64 + maxvp
        );
    }

    /// Refine never increases the imbalance, preserves the VP set, and
    /// yields a valid assignment.
    #[test]
    fn refine_never_worse(
        loads in arb_loads(),
        cores in 1usize..12,
        seed in any::<u64>(),
        max_moves in 0usize..100,
    ) {
        let current: Vec<usize> = (0..loads.len())
            .map(|v| ((seed >> (v % 48)) % cores as u64) as usize)
            .collect();
        let before = imbalance(&loads, &current, cores);
        let asg = refine_assign(&loads, &current, cores, max_moves);
        prop_assert_eq!(asg.len(), loads.len());
        prop_assert!(asg.iter().all(|&c| c < cores));
        let after = imbalance(&loads, &asg, cores);
        prop_assert!(after <= before + 1e-9, "refine worsened {before} → {after}");
    }

    /// Refine with zero budget is the identity.
    #[test]
    fn refine_zero_budget_identity(loads in arb_loads(), cores in 1usize..8) {
        let current: Vec<usize> = (0..loads.len()).map(|v| v % cores).collect();
        prop_assert_eq!(refine_assign(&loads, &current, cores, 0), current);
    }

    /// Balancer::rebalance is deterministic.
    #[test]
    fn strategies_deterministic(loads in arb_loads(), cores in 1usize..8) {
        let current: Vec<usize> = (0..loads.len()).map(|v| v % cores).collect();
        for b in [Balancer::None, Balancer::Greedy, Balancer::Refine { max_moves: 16 }] {
            let a1 = b.rebalance(&loads, &current, cores);
            let a2 = b.rebalance(&loads, &current, cores);
            prop_assert_eq!(a1, a2);
        }
    }

    /// The VP grid always covers the mesh exactly, and the initial
    /// assignment puts the same number of VPs on every core.
    #[test]
    fn vp_grid_cover_and_balance(
        cores in 1usize..25,
        d in 1usize..17,
        ncells_mult in 1usize..4,
    ) {
        // Grid must be even and at least as wide as the VP grid.
        let g_probe = VpGrid::new(1 << 12, cores, d); // probe dims
        let need = g_probe.decomp().px.max(g_probe.decomp().py);
        let ncells = (need * ncells_mult).max(need).div_ceil(2) * 2;
        let g = VpGrid::new(ncells, cores, d);
        prop_assert_eq!(g.vp_count(), cores * d);
        let asg = g.initial_assignment();
        let mut per_core = vec![0usize; cores];
        for &c in &asg {
            prop_assert!(c < cores);
            per_core[c] += 1;
        }
        prop_assert!(per_core.iter().all(|&n| n == d), "{per_core:?}");
        // Coverage.
        let total: usize = (0..g.vp_count()).map(|vp| g.vp_cells(vp)).sum();
        prop_assert_eq!(total, ncells * ncells);
    }
}
