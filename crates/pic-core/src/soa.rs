//! Structure-of-arrays particle storage.
//!
//! The hot loop touches `x, y, vx, vy, q` every step but the verification
//! metadata (`x0, y0, k, m, born_at`) only at the end; splitting the record
//! keeps the sweep's working set dense and lets the compiler vectorize the
//! kinematics. The arithmetic per particle is identical (same operation
//! order), so an SoA sweep produces bit-identical state to the AoS sweep —
//! asserted by tests, and the property that lets implementations pick
//! either layout freely.

use crate::charge::{total_force, SimConstants};
use crate::geometry::Grid;
use crate::particle::Particle;

/// The scalar SoA sweep kernel: eqs. 1–2 over a contiguous span of the
/// arrays, the same per-particle instruction sequence as the AoS sweep.
#[inline(always)]
fn advance_span(
    grid: &Grid,
    consts: &SimConstants,
    x: &mut [f64],
    y: &mut [f64],
    vx: &mut [f64],
    vy: &mut [f64],
    q: &[f64],
) {
    let dt = consts.dt;
    // Re-slice everything to one length so the bounds checks fold away.
    let n = x.len();
    let (y, vx, vy, q) = (&mut y[..n], &mut vx[..n], &mut vy[..n], &q[..n]);
    for i in 0..n {
        let (ax, ay) = total_force(grid, consts, x[i], y[i], q[i]);
        x[i] = grid.wrap_coord(x[i] + (vx[i] + 0.5 * ax * dt) * dt);
        y[i] = grid.wrap_coord(y[i] + (vy[i] + 0.5 * ay * dt) * dt);
        vx[i] += ax * dt;
        vy[i] += ay * dt;
    }
}

/// A batch of particles in structure-of-arrays layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParticleBatch {
    pub id: Vec<u64>,
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub vx: Vec<f64>,
    pub vy: Vec<f64>,
    pub q: Vec<f64>,
    pub x0: Vec<f64>,
    pub y0: Vec<f64>,
    pub k: Vec<u32>,
    pub m: Vec<i32>,
    pub born_at: Vec<u32>,
}

impl ParticleBatch {
    pub fn new() -> ParticleBatch {
        ParticleBatch::default()
    }

    pub fn with_capacity(n: usize) -> ParticleBatch {
        ParticleBatch {
            id: Vec::with_capacity(n),
            x: Vec::with_capacity(n),
            y: Vec::with_capacity(n),
            vx: Vec::with_capacity(n),
            vy: Vec::with_capacity(n),
            q: Vec::with_capacity(n),
            x0: Vec::with_capacity(n),
            y0: Vec::with_capacity(n),
            k: Vec::with_capacity(n),
            m: Vec::with_capacity(n),
            born_at: Vec::with_capacity(n),
        }
    }

    pub fn from_particles(particles: &[Particle]) -> ParticleBatch {
        let mut b = ParticleBatch::with_capacity(particles.len());
        for p in particles {
            b.push(*p);
        }
        b
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.id.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    pub fn push(&mut self, p: Particle) {
        self.id.push(p.id);
        self.x.push(p.x);
        self.y.push(p.y);
        self.vx.push(p.vx);
        self.vy.push(p.vy);
        self.q.push(p.q);
        self.x0.push(p.x0);
        self.y0.push(p.y0);
        self.k.push(p.k);
        self.m.push(p.m);
        self.born_at.push(p.born_at);
    }

    /// Materialize element `i` as an AoS record.
    pub fn get(&self, i: usize) -> Particle {
        Particle {
            id: self.id[i],
            x: self.x[i],
            y: self.y[i],
            vx: self.vx[i],
            vy: self.vy[i],
            q: self.q[i],
            x0: self.x0[i],
            y0: self.y0[i],
            k: self.k[i],
            m: self.m[i],
            born_at: self.born_at[i],
        }
    }

    /// O(1) removal by swapping with the last element (order not
    /// preserved — fine for a particle bag). Returns the removed particle.
    pub fn swap_remove(&mut self, i: usize) -> Particle {
        Particle {
            id: self.id.swap_remove(i),
            x: self.x.swap_remove(i),
            y: self.y.swap_remove(i),
            vx: self.vx.swap_remove(i),
            vy: self.vy.swap_remove(i),
            q: self.q.swap_remove(i),
            x0: self.x0.swap_remove(i),
            y0: self.y0.swap_remove(i),
            k: self.k.swap_remove(i),
            m: self.m.swap_remove(i),
            born_at: self.born_at.swap_remove(i),
        }
    }

    /// Overwrite element `i` from an AoS record (failure-injection and
    /// test harness support).
    pub fn set(&mut self, i: usize, p: Particle) {
        self.id[i] = p.id;
        self.x[i] = p.x;
        self.y[i] = p.y;
        self.vx[i] = p.vx;
        self.vy[i] = p.vy;
        self.q[i] = p.q;
        self.x0[i] = p.x0;
        self.y0[i] = p.y0;
        self.k[i] = p.k;
        self.m[i] = p.m;
        self.born_at[i] = p.born_at;
    }

    /// Remove and return the last particle.
    pub fn pop(&mut self) -> Option<Particle> {
        if self.is_empty() {
            return None;
        }
        Some(self.swap_remove(self.len() - 1))
    }

    /// Remove every particle whose id is in `doomed`, preserving the order
    /// of the survivors (the SoA counterpart of `Vec::retain`, used by
    /// removal events so an SoA-stored run keeps the same particle order
    /// as an AoS-stored one). Returns the removed particles in their
    /// original order.
    pub fn remove_ids(&mut self, doomed: &std::collections::HashSet<u64>) -> Vec<Particle> {
        let n = self.len();
        let mut removed = Vec::with_capacity(doomed.len());
        let mut w = 0;
        for r in 0..n {
            if doomed.contains(&self.id[r]) {
                removed.push(self.get(r));
            } else {
                if w != r {
                    self.id[w] = self.id[r];
                    self.x[w] = self.x[r];
                    self.y[w] = self.y[r];
                    self.vx[w] = self.vx[r];
                    self.vy[w] = self.vy[r];
                    self.q[w] = self.q[r];
                    self.x0[w] = self.x0[r];
                    self.y0[w] = self.y0[r];
                    self.k[w] = self.k[r];
                    self.m[w] = self.m[r];
                    self.born_at[w] = self.born_at[r];
                }
                w += 1;
            }
        }
        self.truncate(w);
        removed
    }

    /// Apply a removal event directly on the SoA store: remove up to
    /// `count` particles inside `region`, lowest ids first — the same
    /// deterministic rule as [`crate::init::apply_removal`] on AoS, so
    /// both layouts shed exactly the same particles.
    pub fn remove_in_region(
        &mut self,
        region: &crate::events::Region,
        count: u64,
    ) -> Vec<Particle> {
        let mut candidate_ids: Vec<u64> = (0..self.len())
            .filter(|&i| region.contains_point(self.x[i], self.y[i]))
            .map(|i| self.id[i])
            .collect();
        candidate_ids.sort_unstable();
        candidate_ids.truncate(count as usize);
        let doomed: std::collections::HashSet<u64> = candidate_ids.into_iter().collect();
        self.remove_ids(&doomed)
    }

    /// Copy element `src` over element `dst` across all eleven arrays —
    /// the hole-refill step of the binned drain.
    pub(crate) fn copy_element(&mut self, src: usize, dst: usize) {
        self.id[dst] = self.id[src];
        self.x[dst] = self.x[src];
        self.y[dst] = self.y[src];
        self.vx[dst] = self.vx[src];
        self.vy[dst] = self.vy[src];
        self.q[dst] = self.q[src];
        self.x0[dst] = self.x0[src];
        self.y0[dst] = self.y0[src];
        self.k[dst] = self.k[src];
        self.m[dst] = self.m[src];
        self.born_at[dst] = self.born_at[src];
    }

    /// Move the elements of `src` to start at `dst` across all eleven
    /// arrays (overlap allowed, like `slice::copy_within`).
    pub(crate) fn copy_within(&mut self, src: std::ops::Range<usize>, dst: usize) {
        self.id.copy_within(src.clone(), dst);
        self.x.copy_within(src.clone(), dst);
        self.y.copy_within(src.clone(), dst);
        self.vx.copy_within(src.clone(), dst);
        self.vy.copy_within(src.clone(), dst);
        self.q.copy_within(src.clone(), dst);
        self.x0.copy_within(src.clone(), dst);
        self.y0.copy_within(src.clone(), dst);
        self.k.copy_within(src.clone(), dst);
        self.m.copy_within(src.clone(), dst);
        self.born_at.copy_within(src, dst);
    }

    /// Shorten the batch to `len` particles.
    pub fn truncate(&mut self, len: usize) {
        self.id.truncate(len);
        self.x.truncate(len);
        self.y.truncate(len);
        self.vx.truncate(len);
        self.vy.truncate(len);
        self.q.truncate(len);
        self.x0.truncate(len);
        self.y0.truncate(len);
        self.k.truncate(len);
        self.m.truncate(len);
        self.born_at.truncate(len);
    }

    pub fn to_particles(&self) -> Vec<Particle> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Advance every particle one step — same math, same order as the AoS
    /// sweep, so the resulting state is bit-identical.
    pub fn advance_all(&mut self, grid: &Grid, consts: &SimConstants) {
        let n = self.len();
        advance_span(
            grid,
            consts,
            &mut self.x[..n],
            &mut self.y[..n],
            &mut self.vx[..n],
            &mut self.vy[..n],
            &self.q[..n],
        );
    }

    /// Remove and return every particle for which `leaves` is true (used
    /// by exchange phases). Order of the survivors is not preserved.
    ///
    /// After a `swap_remove` the element swapped into position `i` has not
    /// been tested yet, so the loop deliberately does **not** advance `i`
    /// on removal — the regression test `drain_retests_swapped_in_leaver`
    /// pins this down.
    pub fn drain_leavers<F>(&mut self, leaves: F) -> Vec<Particle>
    where
        F: Fn(f64, f64) -> bool,
    {
        // Steady state has few leavers (border cells only), but reserving
        // a small slab up front keeps the common case to at most one
        // allocation instead of the doubling ramp from empty.
        let mut out = Vec::with_capacity((self.len() / 8).clamp(4, 1024));
        let mut i = 0;
        while i < self.len() {
            if self.leaves_at(i, &leaves) {
                out.push(self.swap_remove(i));
            } else {
                i += 1;
            }
        }
        out
    }

    /// Predicate application for [`ParticleBatch::drain_leavers`], kept on
    /// the inline path so the closure call vanishes into the scan loop.
    #[inline(always)]
    fn leaves_at<F: Fn(f64, f64) -> bool>(&self, i: usize, leaves: &F) -> bool {
        leaves(self.x[i], self.y[i])
    }

    /// Sum of ids (checksum contribution).
    pub fn id_sum(&self) -> u128 {
        self.id.iter().map(|&i| i as u128).sum()
    }
}

impl FromIterator<Particle> for ParticleBatch {
    fn from_iter<I: IntoIterator<Item = Particle>>(iter: I) -> Self {
        let mut b = ParticleBatch::new();
        for p in iter {
            b.push(p);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::init::InitConfig;
    use crate::motion::advance_all as advance_all_aos;
    use crate::verify::{triangular_id_sum, verify_all, DEFAULT_TOLERANCE};

    fn population(n: u64) -> (Grid, Vec<Particle>) {
        let grid = Grid::new(32).unwrap();
        let s = InitConfig::new(grid, n, Distribution::Sinusoidal)
            .with_k(1)
            .with_m(-1)
            .build()
            .unwrap();
        (grid, s.particles)
    }

    #[test]
    fn roundtrip_preserves_records() {
        let (_, ps) = population(257);
        let batch = ParticleBatch::from_particles(&ps);
        assert_eq!(batch.len(), 257);
        assert_eq!(batch.to_particles(), ps);
        assert_eq!(batch.id_sum(), triangular_id_sum(257));
    }

    #[test]
    fn soa_sweep_bitwise_matches_aos() {
        let (grid, mut aos) = population(500);
        let consts = SimConstants::CANONICAL;
        let mut soa = ParticleBatch::from_particles(&aos);
        for _ in 0..25 {
            advance_all_aos(&grid, &consts, &mut aos);
            soa.advance_all(&grid, &consts);
        }
        for (i, p) in aos.iter().enumerate() {
            assert_eq!(p.x.to_bits(), soa.x[i].to_bits(), "x[{i}]");
            assert_eq!(p.y.to_bits(), soa.y[i].to_bits());
            assert_eq!(p.vx.to_bits(), soa.vx[i].to_bits());
            assert_eq!(p.vy.to_bits(), soa.vy[i].to_bits());
        }
    }

    #[test]
    fn soa_run_verifies() {
        let (grid, ps) = population(300);
        let consts = SimConstants::CANONICAL;
        let mut soa = ParticleBatch::from_particles(&ps);
        for _ in 0..60 {
            soa.advance_all(&grid, &consts);
        }
        let report = verify_all(
            &grid,
            &soa.to_particles(),
            60,
            triangular_id_sum(300),
            DEFAULT_TOLERANCE,
        );
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn swap_remove_and_drain() {
        let (grid, ps) = population(100);
        let mut soa = ParticleBatch::from_particles(&ps);
        let victim = soa.get(10);
        let removed = soa.swap_remove(10);
        assert_eq!(victim, removed);
        assert_eq!(soa.len(), 99);
        // Drain everything in the left half of the domain.
        let half = grid.extent() / 2.0;
        let gone = soa.drain_leavers(|x, _| x < half);
        assert!(gone.iter().all(|p| p.x < half));
        assert!((0..soa.len()).all(|i| soa.x[i] >= half));
        assert_eq!(gone.len() + soa.len(), 99);
    }

    #[test]
    fn drain_retests_swapped_in_leaver() {
        // Regression for the swap_remove scan: when position i is drained,
        // the element swapped in from the back may itself be a leaver and
        // must be re-tested at the same index, not skipped. Lay out the
        // batch so every removal at i swaps *another* leaver into i.
        let (_, ps) = population(8);
        let mut soa = ParticleBatch::new();
        // x pattern: leaver, stayer, stayer, ..., then leavers at the back
        // that will be swapped into the holes.
        let xs = [1.0, 10.0, 10.0, 10.0, 2.0, 3.0, 4.0, 0.5];
        for (p, &x) in ps.iter().zip(&xs) {
            let mut p = *p;
            p.x = x;
            soa.push(p);
        }
        let gone = soa.drain_leavers(|x, _| x < 5.0);
        assert_eq!(gone.len(), 5, "all five leavers removed: {gone:?}");
        assert_eq!(soa.len(), 3);
        assert!((0..soa.len()).all(|i| soa.x[i] >= 5.0), "{:?}", soa.x);
        assert!(gone.iter().all(|p| p.x < 5.0));
    }

    #[test]
    fn from_iterator() {
        let (_, ps) = population(42);
        let batch: ParticleBatch = ps.iter().copied().collect();
        assert_eq!(batch.len(), 42);
    }
}
