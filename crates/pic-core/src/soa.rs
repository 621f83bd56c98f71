//! Structure-of-arrays particle storage.
//!
//! The hot loop touches `x, y, vx, vy, q` every step but the verification
//! metadata (`x0, y0, k, m, born_at`) only at the end; splitting the record
//! keeps the sweep's working set dense and lets the compiler vectorize the
//! kinematics. The arithmetic per particle is identical (same operation
//! order), so an SoA sweep produces bit-identical state to the AoS sweep —
//! asserted by the [`crate::bin`] tests, and the property that lets
//! implementations pick either layout freely.

use std::ops::Range;

use crate::events::Region;
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
    /// `Vec::retain`). Returns how many were removed, and how many
    /// survivors came from below index `mark`.
    pub(crate) fn remove_in_region_upto(
        &mut self,
        region: &Region,
        max_id: u64,
        mark: usize,
    ) -> (usize, usize) {
        let n = self.len();
        let (mut w, mut below) = (0, 0);
        for r in 0..n {
            if r == mark {
                below = w;
            }
            if self.id[r] > max_id || !region.contains_point(self.x[r], self.y[r]) {
                if w != r {
                    self.copy_element(r, w);
                }
                w += 1;
            }
        }
        if mark >= n {
            below = w;
        }
        self.truncate(w);
        (n - w, below)
    }

    /// Copy element `src` over element `dst` across all eleven arrays.
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

    /// Exchange the elements `a..a + len` with `b..b + len` across all
    /// eleven arrays (`a + len <= b`).
    pub(crate) fn swap_blocks(&mut self, a: usize, b: usize, len: usize) {
        swap_blocks(&mut self.id, a, b, len);
        swap_blocks(&mut self.x, a, b, len);
        swap_blocks(&mut self.y, a, b, len);
        swap_blocks(&mut self.vx, a, b, len);
        swap_blocks(&mut self.vy, a, b, len);
        swap_blocks(&mut self.q, a, b, len);
        swap_blocks(&mut self.x0, a, b, len);
        swap_blocks(&mut self.y0, a, b, len);
        swap_blocks(&mut self.k, a, b, len);
        swap_blocks(&mut self.m, a, b, len);
        swap_blocks(&mut self.born_at, a, b, len);
    }

    /// Copy the elements of `src` reversed over `dst..dst + src.len()`
    /// across all eleven arrays: element `dst + j` takes `src.end − 1 − j`
    /// — a run of the binned drain's refill, whose survivors come from the
    /// end of the batch, last first. The destination lies wholly below the
    /// source (panics otherwise).
    pub(crate) fn copy_reversed(&mut self, src: Range<usize>, dst: usize) {
        copy_reversed(&mut self.id, src.clone(), dst);
        copy_reversed(&mut self.x, src.clone(), dst);
        copy_reversed(&mut self.y, src.clone(), dst);
        copy_reversed(&mut self.vx, src.clone(), dst);
        copy_reversed(&mut self.vy, src.clone(), dst);
        copy_reversed(&mut self.q, src.clone(), dst);
        copy_reversed(&mut self.x0, src.clone(), dst);
        copy_reversed(&mut self.y0, src.clone(), dst);
        copy_reversed(&mut self.k, src.clone(), dst);
        copy_reversed(&mut self.m, src.clone(), dst);
        copy_reversed(&mut self.born_at, src, dst);
    }

    /// Append the elements `range` of `src`, one slice copy per field.
    pub(crate) fn extend_from_range(&mut self, src: &ParticleBatch, range: Range<usize>) {
        self.id.extend_from_slice(&src.id[range.clone()]);
        self.x.extend_from_slice(&src.x[range.clone()]);
        self.y.extend_from_slice(&src.y[range.clone()]);
        self.vx.extend_from_slice(&src.vx[range.clone()]);
        self.vy.extend_from_slice(&src.vy[range.clone()]);
        self.q.extend_from_slice(&src.q[range.clone()]);
        self.x0.extend_from_slice(&src.x0[range.clone()]);
        self.y0.extend_from_slice(&src.y0[range.clone()]);
        self.k.extend_from_slice(&src.k[range.clone()]);
        self.m.extend_from_slice(&src.m[range.clone()]);
        self.born_at.extend_from_slice(&src.born_at[range]);
    }

    /// Append element `i` of `src`, field by field with no AoS record in
    /// between — cheaper than [`Self::extend_from_range`] for a run of a
    /// few elements.
    #[inline]
    pub(crate) fn push_from(&mut self, src: &ParticleBatch, i: usize) {
        self.id.push(src.id[i]);
        self.x.push(src.x[i]);
        self.y.push(src.y[i]);
        self.vx.push(src.vx[i]);
        self.vy.push(src.vy[i]);
        self.q.push(src.q[i]);
        self.x0.push(src.x0[i]);
        self.y0.push(src.y0[i]);
        self.k.push(src.k[i]);
        self.m.push(src.m[i]);
        self.born_at.push(src.born_at[i]);
    }

    /// Remove every particle, keeping each array's capacity.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// How many particles the batch holds without reallocating (the
    /// smallest capacity of its eleven arrays).
    pub fn capacity(&self) -> usize {
        [
            self.id.capacity(),
            self.x.capacity(),
            self.y.capacity(),
            self.vx.capacity(),
            self.vy.capacity(),
            self.q.capacity(),
            self.x0.capacity(),
            self.y0.capacity(),
            self.k.capacity(),
            self.m.capacity(),
            self.born_at.capacity(),
        ]
        .into_iter()
        .min()
        .unwrap_or(0)
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

fn swap_blocks<T>(field: &mut [T], a: usize, b: usize, len: usize) {
    let (lo, hi) = field.split_at_mut(b);
    lo[a..a + len].swap_with_slice(&mut hi[..len]);
}

/// `field[dst + j] = field[src.end − 1 − j]` for every `j < src.len()`;
/// the destination must end at or below `src.start`.
fn copy_reversed<T: Copy>(field: &mut [T], src: Range<usize>, dst: usize) {
    let (low, high) = field.split_at_mut(src.start);
    let from = &high[..src.len()];
    for (d, &s) in low[dst..dst + src.len()].iter_mut().zip(from.iter().rev()) {
        *d = s;
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
    fn range_and_element_appends_match_the_records() {
        let (_, ps) = population(60);
        let src: ParticleBatch = ps.iter().copied().collect();
        let mut by_range = ParticleBatch::new();
        by_range.extend_from_range(&src, 10..25);
        by_range.extend_from_range(&src, 40..40);
        by_range.extend_from_range(&src, 50..53);
        let mut by_element = ParticleBatch::new();
        for i in (10..25).chain(50..53) {
            by_element.push_from(&src, i);
        }
        let want: Vec<Particle> = ps[10..25].iter().chain(&ps[50..53]).copied().collect();
        assert_eq!(by_range.to_particles(), want);
        assert_eq!(by_element, by_range);
        let mut whole = by_range.clone();
        whole.extend_from_range(&src, 0..src.len());
        assert_eq!(whole.to_particles(), [want, ps].concat());
    }

    #[test]
    fn clear_keeps_capacity() {
        let (_, ps) = population(40);
        let mut batch: ParticleBatch = ps.iter().copied().collect();
        let cap = batch.capacity();
        assert!(cap >= 40);
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.capacity(), cap);
        assert_eq!(ParticleBatch::new().capacity(), 0);
    }

    #[test]
    fn copy_reversed_writes_the_source_last_first() {
        let (_, ps) = population(30);
        let mut batch: ParticleBatch = ps.iter().copied().collect();
        batch.copy_reversed(20..25, 3);
        let mut want = ps.clone();
        for j in 0..5 {
            want[3 + j] = ps[24 - j];
        }
        assert_eq!(batch.to_particles(), want);
        // Adjacent ranges are legal: the destination ends at the source.
        batch.copy_reversed(10..12, 8);
        want[8] = want[11];
        want[9] = want[10];
        assert_eq!(batch.to_particles(), want);
    }

    #[test]
    #[should_panic]
    fn copy_reversed_rejects_a_destination_reaching_into_the_source() {
        let (_, ps) = population(30);
        let mut batch: ParticleBatch = ps.iter().copied().collect();
        batch.copy_reversed(20..25, 17);
    }

    #[test]
    fn from_iterator() {
        let (_, ps) = population(42);
        let batch: ParticleBatch = ps.iter().copied().collect();
        assert_eq!(batch.len(), 42);
    }
}
