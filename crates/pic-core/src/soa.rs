//! Structure-of-arrays particle storage.
//!
//! The hot loop touches `x, y, vx, vy, q` every step but the verification
//! metadata (`x0, y0, k, m, born_at`) only at the end; splitting the record
//! keeps the sweep's working set dense and lets the compiler vectorize the
//! kinematics. The arithmetic per particle is identical (same operation
//! order), so an SoA sweep produces bit-identical state to the AoS sweep —
//! asserted by the [`crate::bin`] tests, and the property that lets
//! implementations pick either layout freely.

use crate::events::{lowest_ids, Region};
use crate::particle::Particle;

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

    /// `n` zero-filled particles: the target of a scatter that writes
    /// every element (zeroed allocations map their pages lazily, so
    /// nothing but the scatter touches the memory).
    pub(crate) fn zeroed(n: usize) -> ParticleBatch {
        ParticleBatch {
            id: vec![0; n],
            x: vec![0.0; n],
            y: vec![0.0; n],
            vx: vec![0.0; n],
            vy: vec![0.0; n],
            q: vec![0.0; n],
            x0: vec![0.0; n],
            y0: vec![0.0; n],
            k: vec![0; n],
            m: vec![0; n],
            born_at: vec![0; n],
        }
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

    /// Remove every particle inside `region` whose id is at most `max_id`,
    /// preserving the order of the survivors (the SoA counterpart of
    /// `Vec::retain`, so an SoA-stored run keeps the same particle order
    /// as an AoS-stored one). Each removed particle goes to `removed`, in
    /// its original order; returns how many were removed.
    pub(crate) fn remove_in_region_upto(
        &mut self,
        region: &Region,
        max_id: u64,
        mut removed: impl FnMut(Particle),
    ) -> usize {
        let n = self.len();
        let mut w = 0;
        for r in 0..n {
            if self.id[r] <= max_id && region.contains_point(self.x[r], self.y[r]) {
                removed(self.get(r));
            } else {
                if w != r {
                    self.copy_element(r, w);
                }
                w += 1;
            }
        }
        self.truncate(w);
        n - w
    }

    /// Apply a removal event directly on the SoA store: remove up to
    /// `count` particles inside `region`, lowest ids first — the same
    /// deterministic rule as [`crate::init::apply_removal`] on AoS, so
    /// both layouts shed exactly the same particles.
    pub fn remove_in_region(&mut self, region: &Region, count: u64) -> Vec<Particle> {
        let mut candidate_ids: Vec<u64> = (0..self.len())
            .filter(|&i| region.contains_point(self.x[i], self.y[i]))
            .map(|i| self.id[i])
            .collect();
        let mut removed = Vec::new();
        if let Some(max_id) = lowest_ids(&mut candidate_ids, count) {
            removed.reserve_exact(candidate_ids.len());
            self.remove_in_region_upto(region, max_id, |p| removed.push(p));
        }
        removed
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
    use crate::geometry::Grid;
    use crate::init::InitConfig;
    use crate::verify::triangular_id_sum;

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
        let batch: ParticleBatch = ps.iter().copied().collect();
        assert_eq!(batch.len(), 257);
        assert_eq!(batch.to_particles(), ps);
        assert_eq!(batch.id_sum(), triangular_id_sum(257));
    }

    #[test]
    fn swap_remove_and_drain() {
        let (_, ps) = population(100);
        let mut soa: ParticleBatch = ps.iter().copied().collect();
        let victim = soa.get(10);
        let removed = soa.swap_remove(10);
        assert_eq!(victim, removed);
        assert_eq!(soa.len(), 99);
        // Drain the rest from the back: every other record exactly once.
        let mut gone: Vec<u64> = std::iter::from_fn(|| soa.pop()).map(|p| p.id).collect();
        assert!(soa.is_empty());
        gone.push(removed.id);
        gone.sort_unstable();
        assert_eq!(gone, (1..=100).collect::<Vec<u64>>());
    }

    #[test]
    fn from_iterator() {
        let (_, ps) = population(42);
        let batch: ParticleBatch = ps.iter().copied().collect();
        assert_eq!(batch.len(), 42);
    }
}
