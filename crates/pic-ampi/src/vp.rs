//! The virtual-processor grid.
//!
//! Over-decomposition follows the AMPI recipe: the domain is split into
//! `d · P` subdomains exactly as if there were `d · P` MPI ranks, and each
//! physical core initially receives a compact `a × b` block of VPs
//! (`a · b = d`), so the starting placement is locality-preserving — the
//! paper's assumption before the load balancer starts scattering VPs.

use pic_par::decomp::{factor_2d, Decomp2d, OwnerTable};

/// The VP-level decomposition plus the core-grid geometry.
#[derive(Debug, Clone)]
pub struct VpGrid {
    /// VP-level Cartesian decomposition of the mesh (`vpx × vpy` blocks).
    /// Fixed at construction — VP balancing moves the VP→core assignment,
    /// never these cuts — which is what lets `owners` be built once.
    decomp: Decomp2d,
    /// O(1) cell → VP table of `decomp` (the routing scan asks this once
    /// per resident particle per step).
    owners: OwnerTable,
    /// Physical core grid.
    pub px: usize,
    pub py: usize,
    /// VPs per core in x / y (`a · b = d`).
    pub a: usize,
    pub b: usize,
}

impl VpGrid {
    /// Build the VP grid for `cores` cores and over-decomposition `d`.
    /// The VP grid dims are `(px·a, py·b)` with `(a, b) = factor_2d(d)`,
    /// so the initial block placement is exact.
    pub fn new(ncells: usize, cores: usize, d: usize) -> VpGrid {
        assert!(d >= 1, "over-decomposition degree must be ≥ 1");
        let (px, py) = factor_2d(cores);
        let (a, b) = factor_2d(d);
        let decomp = Decomp2d::uniform_grid(ncells, px * a, py * b);
        VpGrid {
            owners: OwnerTable::new(&decomp),
            decomp,
            px,
            py,
            a,
            b,
        }
    }

    /// The VP-level decomposition.
    #[inline]
    pub fn decomp(&self) -> &Decomp2d {
        &self.decomp
    }

    /// Total VP count (`d · P`).
    #[inline]
    pub fn vp_count(&self) -> usize {
        self.decomp.ranks()
    }

    /// Number of physical cores.
    #[inline]
    pub fn cores(&self) -> usize {
        self.px * self.py
    }

    /// Initial locality-preserving VP→core assignment: VP `(vx, vy)` goes
    /// to core `(vx / a, vy / b)`.
    pub fn initial_assignment(&self) -> Vec<usize> {
        (0..self.vp_count())
            .map(|vp| {
                let (vx, vy) = self.decomp.coords_of(vp);
                let cx = vx / self.a;
                let cy = vy / self.b;
                cy * self.px + cx
            })
            .collect()
    }

    /// VP owning cell `(col, row)`.
    #[inline]
    pub fn vp_of_cell(&self, col: usize, row: usize) -> usize {
        self.owners.owner_of_cell(col, row)
    }

    /// Cells in one VP's subgrid.
    pub fn vp_cells(&self, vp: usize) -> usize {
        self.decomp.cell_count(vp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vp_grid_dims_multiply_core_grid() {
        let g = VpGrid::new(192, 24, 4); // cores 24 → (6,4); d 4 → (2,2)
        assert_eq!((g.px, g.py), (6, 4));
        assert_eq!((g.a, g.b), (2, 2));
        assert_eq!(g.decomp().px, 12);
        assert_eq!(g.decomp().py, 8);
        assert_eq!(g.vp_count(), 96);
        assert_eq!(g.cores(), 24);
    }

    #[test]
    fn initial_assignment_is_balanced_and_compact() {
        let g = VpGrid::new(96, 6, 8); // (3,2) cores × (4,2) vps-per-core
        let asg = g.initial_assignment();
        let mut per_core = vec![0usize; 6];
        for &c in &asg {
            per_core[c] += 1;
        }
        assert!(per_core.iter().all(|&n| n == 8), "{per_core:?}");
        // Compactness: the VPs of core 0 form a contiguous block.
        let mine: Vec<usize> = (0..g.vp_count()).filter(|&v| asg[v] == 0).collect();
        for &vp in &mine {
            let (vx, vy) = g.decomp().coords_of(vp);
            assert!(vx < g.a && vy < g.b);
        }
    }

    #[test]
    fn d_one_degenerates_to_plain_decomposition() {
        let g = VpGrid::new(64, 8, 1);
        assert_eq!(g.vp_count(), 8);
        let asg = g.initial_assignment();
        assert_eq!(asg, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn vp_ownership_covers_grid() {
        let g = VpGrid::new(32, 4, 4);
        let mut counts = vec![0usize; g.vp_count()];
        for col in 0..32 {
            for row in 0..32 {
                counts[g.vp_of_cell(col, row)] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, 32 * 32);
        assert!(counts.iter().all(|&c| c > 0));
        assert_eq!(counts.len(), g.vp_count());
        for (vp, &count) in counts.iter().enumerate() {
            assert_eq!(count, g.vp_cells(vp));
        }
    }
}
