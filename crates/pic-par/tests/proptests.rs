//! Property tests of the decomposition and the diffusion decision logic.

use pic_cluster::balancer::diffuse_xcuts;
use pic_par::decomp::{factor_2d, Decomp2d};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// factor_2d always factors exactly with px ≥ py.
    #[test]
    fn factor_2d_exact(p in 1usize..10_000) {
        let (px, py) = factor_2d(p);
        prop_assert_eq!(px * py, p);
        prop_assert!(px >= py);
    }

    /// A uniform decomposition is always a partition and owner lookups are
    /// consistent with bounds.
    #[test]
    fn uniform_decomp_partitions(
        ncells_half in 8usize..64,
        p in 1usize..24,
    ) {
        let ncells = ncells_half * 2;
        prop_assume!(factor_2d(p).0 <= ncells);
        let d = Decomp2d::uniform(ncells, p);
        prop_assert!(d.is_partition());
        let total: usize = (0..p).map(|r| d.cell_count(r)).sum();
        prop_assert_eq!(total, ncells * ncells);
        // Spot-check owner lookups.
        for col in [0, ncells / 3, ncells - 1] {
            for row in [0, ncells / 2, ncells - 1] {
                let owner = d.owner_of_cell(col, row);
                prop_assert!(d.owns(owner, col, row));
            }
        }
    }

    /// diffuse_xcuts always yields a valid strictly-increasing cut vector
    /// with pinned ends, whatever the counts and parameters.
    #[test]
    fn diffuse_xcuts_always_valid(
        px in 2usize..32,
        ncells_mult in 2usize..64,
        tau in 0u64..1000,
        w in 1usize..200,
        seed in any::<u64>(),
    ) {
        let ncells = px * ncells_mult;
        let xcuts: Vec<usize> = (0..=px).map(|i| i * ncells / px).collect();
        let counts: Vec<u64> = (0..px).map(|i| (seed >> (i % 48)) % 10_000).collect();
        let new = diffuse_xcuts(&xcuts, &counts, tau, w, ncells);
        prop_assert_eq!(new.len(), px + 1);
        prop_assert_eq!(new[0], 0);
        prop_assert_eq!(new[px], ncells);
        for win in new.windows(2) {
            prop_assert!(win[0] < win[1], "{:?}", new);
        }
    }

    /// Repeated diffusion on static counts converges: cuts stop moving
    /// once all adjacent differences are within τ, and the final max
    /// column width imbalance reflects the count balance.
    #[test]
    fn diffusion_reaches_fixed_point_on_static_uniform(
        px in 2usize..12,
        width in 8usize..40,
    ) {
        let ncells = px * width;
        let mut xcuts: Vec<usize> = (0..=px).map(|i| i * ncells / px).collect();
        // Uniform density: count proportional to width.
        let density = 100u64;
        for _ in 0..10_000 {
            let counts: Vec<u64> = (0..px)
                .map(|i| (xcuts[i + 1] - xcuts[i]) as u64 * density)
                .collect();
            let new = diffuse_xcuts(&xcuts, &counts, density, 1, ncells);
            if new == xcuts {
                break;
            }
            xcuts = new;
        }
        let counts: Vec<u64> = (0..px)
            .map(|i| (xcuts[i + 1] - xcuts[i]) as u64 * density)
            .collect();
        let new = diffuse_xcuts(&xcuts, &counts, density, 1, ncells);
        prop_assert_eq!(&new, &xcuts, "must be at a fixed point");
        // At the fixed point adjacent widths differ by ≤ 1 cell (τ = one
        // cell's worth of particles).
        for w2 in xcuts.windows(3) {
            let a = w2[1] - w2[0];
            let b = w2[2] - w2[1];
            prop_assert!(a.abs_diff(b) <= 1, "widths {a} vs {b}");
        }
    }

    /// pcol_of is the inverse of the cut ranges for arbitrary valid cuts.
    #[test]
    fn pcol_lookup_matches_ranges(
        widths in prop::collection::vec(1usize..20, 2..16),
    ) {
        let ncells_raw: usize = widths.iter().sum();
        let ncells = ncells_raw.next_multiple_of(2);
        let mut widths = widths;
        if ncells != ncells_raw {
            *widths.last_mut().unwrap() += 1;
        }
        let px = widths.len();
        let mut d = Decomp2d::uniform_grid(ncells, px, 1);
        let mut cuts = vec![0usize];
        for w in &widths {
            cuts.push(cuts.last().unwrap() + w);
        }
        d.set_xcuts(cuts.clone());
        for cx in 0..px {
            for col in cuts[cx]..cuts[cx + 1] {
                prop_assert_eq!(d.pcol_of(col), cx);
            }
        }
    }
}
