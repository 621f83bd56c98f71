//! Particle initialization (paper §III-C).
//!
//! Particles are placed at **cell centers** — on the horizontal axis of
//! symmetry at relative position `x_π = h/2` — the configuration the paper
//! singles out for finite-precision exactness. Each particle's charge is
//! assigned per eq. 3 (scaled by an odd multiple `2k+1` for faster drift)
//! and its initial velocity is `(0, m·h/dt)` per eq. 4.
//!
//! Placement is fully deterministic given the configuration: the
//! distribution fixes a count per cell column, and within each column the
//! particles are spread over the row range either evenly (default) or by a
//! seeded RNG. Determinism is what makes the same configuration exactly
//! repeatable across the serial engine, the threaded parallel runs, and the
//! analytic load model.

use crate::charge::{particle_charge, sign_for_direction, SimConstants};
use crate::dist::{largest_remainder, Distribution};
use crate::events::{Event, EventKind, Region};
use crate::geometry::{Grid, GridError};
use crate::particle::Particle;
use crate::rng::SplitMix64;
use std::fmt;

/// Which axis the distribution's profile applies to.
///
/// The paper's distributions skew the particle counts by cell *column*
/// (§III-E), which a 1D block-column decomposition suffers from. §III-E1
/// notes that "efforts to combat load imbalances by switching to a fixed
/// 1D block-row decomposition can easily be defeated by rotating the
/// particle distribution over 90°" — [`SkewAxis::Y`] is that rotation: the
/// profile applies to rows (columns uniform), and the vertical velocity
/// parameter `m` drives the drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SkewAxis {
    /// Profile over cell columns (the paper's default orientation).
    #[default]
    X,
    /// Profile over cell rows (the rotated workload).
    Y,
}

/// How particles within a column are spread across its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSpread {
    /// Deterministic even spread (largest-remainder over rows). The particle
    /// count of every cell in a column differs by at most one, matching the
    /// paper's per-column analysis (§III-E1: "a cell lying in the i-th
    /// column ... contains p(i) particles").
    Even,
    /// Rows drawn from a seeded RNG (still reproducible; stresses atomics
    /// and fine-grained imbalance).
    Random { seed: u64 },
}

/// Complete, validated initialization recipe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InitConfig {
    pub grid: Grid,
    pub n: u64,
    pub dist: Distribution,
    pub consts: SimConstants,
    /// Horizontal stride parameter: particles travel `2k+1` cells/step.
    pub k: u32,
    /// Vertical cells per step (eq. 4 velocity multiplier).
    pub m: i32,
    /// Drift direction: +1 → +x, −1 → −x.
    pub dir: i8,
    pub spread: RowSpread,
    /// Axis the distribution profile applies to.
    pub skew_axis: SkewAxis,
}

/// Initialization errors.
#[derive(Debug, Clone, PartialEq)]
pub enum InitError {
    Grid(GridError),
    /// Direction must be +1 or −1.
    BadDirection(i8),
    /// The per-step displacement `2k+1` may not exceed the grid size —
    /// otherwise a particle laps the domain within one step and the
    /// "mirrored charges" deceleration argument breaks down.
    StrideTooLarge {
        stride: u64,
        ncells: usize,
    },
    /// Empty patch/region cannot receive particles.
    EmptyRegion,
    /// Distribution parameters outside their documented domain, or a
    /// patch reaching beyond the grid.
    BadDistribution {
        dist: Distribution,
        ncells: usize,
    },
}

impl fmt::Display for InitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InitError::Grid(e) => write!(f, "{e}"),
            InitError::BadDirection(d) => write!(f, "direction must be ±1, got {d}"),
            InitError::StrideTooLarge { stride, ncells } => {
                write!(f, "per-step stride {stride} exceeds grid size {ncells}")
            }
            InitError::EmptyRegion => write!(f, "target region contains no cells"),
            InitError::BadDistribution { dist, ncells } => match dist {
                Distribution::Geometric { r } => {
                    write!(f, "geometric ratio must be finite and > 0, got {r}")
                }
                Distribution::Linear { alpha, beta } => write!(
                    f,
                    "linear ramp needs finite alpha <= beta and beta > 0, \
                     got alpha {alpha}, beta {beta}"
                ),
                Distribution::Patch { x0, x1, y0, y1 } => write!(
                    f,
                    "patch [{x0}, {x1}) x [{y0}, {y1}) reaches outside the {ncells}-cell grid"
                ),
                other => write!(f, "bad distribution {other:?}"),
            },
        }
    }
}

impl std::error::Error for InitError {}

impl InitConfig {
    /// Start a configuration with defaults: canonical constants, `k = 0`,
    /// `m = 0`, rightward drift, even row spread.
    pub fn new(grid: Grid, n: u64, dist: Distribution) -> InitConfig {
        InitConfig {
            grid,
            n,
            dist,
            consts: SimConstants::CANONICAL,
            k: 0,
            m: 0,
            dir: 1,
            spread: RowSpread::Even,
            skew_axis: SkewAxis::X,
        }
    }

    pub fn with_k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    pub fn with_m(mut self, m: i32) -> Self {
        self.m = m;
        self
    }

    pub fn with_dir(mut self, dir: i8) -> Self {
        self.dir = dir;
        self
    }

    pub fn with_spread(mut self, spread: RowSpread) -> Self {
        self.spread = spread;
        self
    }

    /// Rotate the distribution 90°: profile over rows instead of columns.
    pub fn with_skew_axis(mut self, axis: SkewAxis) -> Self {
        self.skew_axis = axis;
        self
    }

    fn validate(&self) -> Result<(), InitError> {
        if self.dir != 1 && self.dir != -1 {
            return Err(InitError::BadDirection(self.dir));
        }
        let stride = 2 * self.k as u64 + 1;
        if stride > self.grid.ncells() as u64 {
            return Err(InitError::StrideTooLarge {
                stride,
                ncells: self.grid.ncells(),
            });
        }
        let ncells = self.grid.ncells();
        if let Distribution::Patch { x0, x1, y0, y1 } = self.dist {
            if x0 >= x1 || y0 >= y1 || x0 >= ncells || y0 >= ncells {
                return Err(InitError::EmptyRegion);
            }
        }
        // Outside these domains the column weights come out NaN, infinite,
        // alternating in sign, clipped or all zero — a panic or, worse, a
        // population that silently is not the one asked for.
        let in_domain = match self.dist {
            Distribution::Uniform | Distribution::Sinusoidal => true,
            Distribution::Geometric { r } => r.is_finite() && r > 0.0,
            Distribution::Linear { alpha, beta } => {
                alpha.is_finite() && beta.is_finite() && alpha <= beta && beta > 0.0
            }
            Distribution::Patch { x1, y1, .. } => x1 <= ncells && y1 <= ncells,
        };
        if !in_domain {
            return Err(InitError::BadDistribution {
                dist: self.dist,
                ncells,
            });
        }
        Ok(())
    }

    /// Produce the full particle population (ids `1..=n`).
    pub fn build(&self) -> Result<SimulationSetup, InitError> {
        self.validate()?;
        let counts = self.dist.column_counts(self.grid.ncells(), self.n);
        let (range_lo, range_hi) = self.dist.row_range(self.grid.ncells());
        let mut placer = Placer::new(self.grid, self.consts, self.spread);
        let mut particles = Vec::with_capacity(self.n as usize);
        let mut next_id = 1u64;
        match self.skew_axis {
            SkewAxis::X => {
                for (col, &count) in counts.iter().enumerate() {
                    placer.place_column(
                        col,
                        range_lo,
                        range_hi,
                        count,
                        self.k,
                        self.m,
                        self.dir,
                        0,
                        &mut next_id,
                        &mut particles,
                    );
                }
            }
            SkewAxis::Y => {
                // Transposed placement: `counts[j]` particles in row `j`,
                // spread across columns `[range_lo, range_hi)`.
                for (row, &count) in counts.iter().enumerate() {
                    placer.place_row(
                        row,
                        range_lo,
                        range_hi,
                        count,
                        self.k,
                        self.m,
                        self.dir,
                        0,
                        &mut next_id,
                        &mut particles,
                    );
                }
            }
        }
        debug_assert_eq!(particles.len() as u64, self.n);
        Ok(SimulationSetup {
            grid: self.grid,
            consts: self.consts,
            particles,
            events: Vec::new(),
            next_id,
        })
    }
}

/// Everything needed to start a simulation: grid, constants, the initial
/// particle population and the (possibly empty) event schedule.
#[derive(Debug, Clone)]
pub struct SimulationSetup {
    pub grid: Grid,
    pub consts: SimConstants,
    pub particles: Vec<Particle>,
    pub events: Vec<Event>,
    /// Next unassigned particle id (for injections).
    pub next_id: u64,
}

impl SimulationSetup {
    /// Append a timed event (injection/removal).
    pub fn with_event(mut self, event: Event) -> Self {
        self.events.push(event);
        self.events.sort_by_key(|e| e.at_step);
        self
    }

    /// Sum of ids of the initial population (`n(n+1)/2` for `n` particles).
    pub fn initial_id_sum(&self) -> u128 {
        self.particles.iter().map(|p| p.id as u128).sum()
    }
}

/// Shared placement machinery, also used for injections.
pub(crate) struct Placer {
    grid: Grid,
    consts: SimConstants,
    spread: RowSpread,
    rng: Option<SplitMix64>,
}

impl Placer {
    pub(crate) fn new(grid: Grid, consts: SimConstants, spread: RowSpread) -> Placer {
        let rng = match spread {
            RowSpread::Even => None,
            RowSpread::Random { seed } => Some(SplitMix64::seed_from_u64(seed)),
        };
        Placer {
            grid,
            consts,
            spread,
            rng,
        }
    }

    /// Place `count` particles in column `col`, rows `[row_lo, row_hi)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn place_column(
        &mut self,
        col: usize,
        row_lo: usize,
        row_hi: usize,
        count: u64,
        k: u32,
        m: i32,
        dir: i8,
        born_at: u32,
        next_id: &mut u64,
        out: &mut Vec<Particle>,
    ) {
        if count == 0 || row_hi <= row_lo {
            return;
        }
        let qp = particle_charge(&self.consts, 0.5, k, sign_for_direction(col, dir));
        let vy0 = m as f64 * self.consts.h / self.consts.dt;
        let emit = |row: usize, next_id: &mut u64, out: &mut Vec<Particle>| {
            let (x, y) = self.grid.cell_center(col, row);
            out.push(Particle {
                id: *next_id,
                x,
                y,
                vx: 0.0,
                vy: vy0,
                q: qp,
                x0: x,
                y0: y,
                k,
                m,
                born_at,
            });
            *next_id += 1;
        };
        match self.spread {
            RowSpread::Even => {
                // floor share per row plus a Bresenham-spread remainder, so
                // the extras land evenly across the row range instead of
                // piling onto the first rows (keeps any contiguous row
                // block within ±1 of its uniform share — the property the
                // analytic load model relies on).
                let nrows = (row_hi - row_lo) as u64;
                let base = count / nrows;
                let rem = count % nrows;
                for ri in 0..nrows {
                    let extra = ((ri + 1) * rem) / nrows - (ri * rem) / nrows;
                    for _ in 0..base + extra {
                        emit(row_lo + ri as usize, next_id, out);
                    }
                }
            }
            RowSpread::Random { .. } => {
                let rng = self.rng.as_mut().expect("random spread has an RNG");
                for _ in 0..count {
                    let row = rng.gen_range(row_lo..row_hi);
                    emit(row, next_id, out);
                }
            }
        }
    }
}

impl Placer {
    /// Place `count` particles in row `row`, columns `[col_lo, col_hi)` —
    /// the transposed counterpart of [`Placer::place_column`]. The charge
    /// depends on each particle's *column* parity, so it is computed per
    /// emitted particle.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn place_row(
        &mut self,
        row: usize,
        col_lo: usize,
        col_hi: usize,
        count: u64,
        k: u32,
        m: i32,
        dir: i8,
        born_at: u32,
        next_id: &mut u64,
        out: &mut Vec<Particle>,
    ) {
        if count == 0 || col_hi <= col_lo {
            return;
        }
        let vy0 = m as f64 * self.consts.h / self.consts.dt;
        let emit = |col: usize, next_id: &mut u64, out: &mut Vec<Particle>| {
            let qp = particle_charge(&self.consts, 0.5, k, sign_for_direction(col, dir));
            let (x, y) = self.grid.cell_center(col, row);
            out.push(Particle {
                id: *next_id,
                x,
                y,
                vx: 0.0,
                vy: vy0,
                q: qp,
                x0: x,
                y0: y,
                k,
                m,
                born_at,
            });
            *next_id += 1;
        };
        match self.spread {
            RowSpread::Even => {
                let ncols = (col_hi - col_lo) as u64;
                let base = count / ncols;
                let rem = count % ncols;
                for ci in 0..ncols {
                    let extra = ((ci + 1) * rem) / ncols - (ci * rem) / ncols;
                    for _ in 0..base + extra {
                        emit(col_lo + ci as usize, next_id, out);
                    }
                }
            }
            RowSpread::Random { .. } => {
                let rng = self.rng.as_mut().expect("random spread has an RNG");
                for _ in 0..count {
                    let col = rng.gen_range(col_lo..col_hi);
                    emit(col, next_id, out);
                }
            }
        }
    }
}

/// Materialize an injection event into concrete particles (deterministic
/// given `next_id`); used by the serial engine and, rank-locally, by the
/// parallel implementations.
// The argument list mirrors EventKind::Inject field-for-field; bundling
// them into a struct would just duplicate that type.
#[allow(clippy::too_many_arguments)]
pub fn build_injection(
    grid: Grid,
    consts: SimConstants,
    region: Region,
    count: u64,
    k: u32,
    m: i32,
    dir: i8,
    born_at: u32,
    next_id: &mut u64,
) -> Vec<Particle> {
    let ncols = region.x1.saturating_sub(region.x0);
    if ncols == 0 || region.y1 <= region.y0 {
        return Vec::new();
    }
    let weights = vec![1.0f64; ncols];
    let per_col = largest_remainder(&weights, count);
    let mut placer = Placer::new(grid, consts, RowSpread::Even);
    let mut out = Vec::with_capacity(count as usize);
    for (ci, &cnt) in per_col.iter().enumerate() {
        placer.place_column(
            region.x0 + ci,
            region.y0,
            region.y1,
            cnt,
            k,
            m,
            dir,
            born_at,
            next_id,
            &mut out,
        );
    }
    out
}

/// Apply a removal event to a particle vector: remove up to `count`
/// particles inside the region, lowest ids first (deterministic across any
/// partitioning of the particles). Returns the removed particles.
pub fn apply_removal(particles: &mut Vec<Particle>, region: Region, count: u64) -> Vec<Particle> {
    let mut candidate_ids: Vec<u64> = particles
        .iter()
        .filter(|p| region.contains_point(p.x, p.y))
        .map(|p| p.id)
        .collect();
    candidate_ids.sort_unstable();
    candidate_ids.truncate(count as usize);
    let doomed: std::collections::HashSet<u64> = candidate_ids.into_iter().collect();
    let mut removed = Vec::with_capacity(doomed.len());
    particles.retain(|p| {
        if doomed.contains(&p.id) {
            removed.push(*p);
            false
        } else {
            true
        }
    });
    removed
}

/// Validate an event against a grid (regions in range, etc.).
pub fn validate_event(grid: &Grid, event: &Event) -> Result<(), InitError> {
    let r = event.region;
    if r.x0 >= r.x1 || r.y0 >= r.y1 || r.x1 > grid.ncells() || r.y1 > grid.ncells() {
        return Err(InitError::EmptyRegion);
    }
    if let EventKind::Inject { k, dir, .. } = event.kind {
        if dir != 1 && dir != -1 {
            return Err(InitError::BadDirection(dir));
        }
        let stride = 2 * k as u64 + 1;
        if stride > grid.ncells() as u64 {
            return Err(InitError::StrideTooLarge {
                stride,
                ncells: grid.ncells(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::new(16).unwrap()
    }

    #[test]
    fn build_produces_exactly_n_with_sequential_ids() {
        let cfg = InitConfig::new(grid(), 1234, Distribution::Uniform);
        let setup = cfg.build().unwrap();
        assert_eq!(setup.particles.len(), 1234);
        let mut ids: Vec<u64> = setup.particles.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=1234).collect::<Vec<u64>>());
        assert_eq!(setup.initial_id_sum(), 1234u128 * 1235 / 2);
        assert_eq!(setup.next_id, 1235);
    }

    #[test]
    fn particles_sit_at_cell_centers() {
        let cfg = InitConfig::new(grid(), 500, Distribution::PAPER_SKEW);
        let setup = cfg.build().unwrap();
        for p in &setup.particles {
            assert_eq!(p.x.fract(), 0.5, "x must be a cell center");
            assert_eq!(p.y.fract(), 0.5);
            assert_eq!(p.x, p.x0);
            assert_eq!(p.y, p.y0);
            assert_eq!(p.vx, 0.0);
            assert_eq!(p.born_at, 0);
        }
    }

    #[test]
    fn velocity_and_charge_follow_parameters() {
        let cfg = InitConfig::new(grid(), 100, Distribution::Uniform)
            .with_k(1)
            .with_m(-2);
        let setup = cfg.build().unwrap();
        for p in &setup.particles {
            assert_eq!(p.vy, -2.0);
            assert_eq!(p.k, 1);
            assert_eq!(p.m, -2);
            assert_eq!(p.direction(&grid()), 1);
            assert_eq!(p.cells_per_step_x(&grid()), 3);
        }
    }

    #[test]
    fn even_spread_balances_rows_within_one() {
        let cfg = InitConfig::new(grid(), 16 * 16 * 3 + 7, Distribution::Uniform);
        let setup = cfg.build().unwrap();
        let mut per_cell = std::collections::HashMap::new();
        for p in &setup.particles {
            *per_cell
                .entry(grid().cell_of_point(p.x, p.y))
                .or_insert(0u64) += 1;
        }
        let max = per_cell.values().max().unwrap();
        let min = per_cell.values().min().unwrap();
        assert!(
            max - min <= 2,
            "cells should be near-even: max {max} min {min}"
        );
    }

    #[test]
    fn random_spread_is_reproducible() {
        let mk = |seed| {
            InitConfig::new(grid(), 400, Distribution::Uniform)
                .with_spread(RowSpread::Random { seed })
                .build()
                .unwrap()
        };
        let a = mk(7);
        let b = mk(7);
        let c = mk(8);
        assert_eq!(a.particles, b.particles);
        assert_ne!(a.particles, c.particles);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            InitConfig::new(grid(), 10, Distribution::Uniform)
                .with_dir(0)
                .build(),
            Err(InitError::BadDirection(0))
        ));
        assert!(matches!(
            InitConfig::new(grid(), 10, Distribution::Uniform)
                .with_k(8)
                .build(),
            Err(InitError::StrideTooLarge { stride: 17, .. })
        ));
        assert!(matches!(
            InitConfig::new(
                grid(),
                10,
                Distribution::Patch {
                    x0: 5,
                    x1: 5,
                    y0: 0,
                    y1: 4
                }
            )
            .build(),
            Err(InitError::EmptyRegion)
        ));
    }

    #[test]
    fn patch_places_only_inside() {
        let cfg = InitConfig::new(
            grid(),
            300,
            Distribution::Patch {
                x0: 2,
                x1: 6,
                y0: 8,
                y1: 12,
            },
        );
        let setup = cfg.build().unwrap();
        assert_eq!(setup.particles.len(), 300);
        for p in &setup.particles {
            let (c, r) = grid().cell_of_point(p.x, p.y);
            assert!((2..6).contains(&c) && (8..12).contains(&r));
        }
    }

    #[test]
    fn row_skew_transposes_the_profile() {
        let dist = Distribution::Geometric { r: 0.7 };
        let x = InitConfig::new(grid(), 1_000, dist).build().unwrap();
        let y = InitConfig::new(grid(), 1_000, dist)
            .with_skew_axis(SkewAxis::Y)
            .build()
            .unwrap();
        let mut col_hist_x = vec![0u64; 16];
        let mut row_hist_y = vec![0u64; 16];
        for p in &x.particles {
            col_hist_x[grid().cell_of(p.x)] += 1;
        }
        for p in &y.particles {
            row_hist_y[grid().cell_of(p.y)] += 1;
        }
        assert_eq!(
            col_hist_x, row_hist_y,
            "rotation must transpose the profile"
        );
        // And the rotated population is near-uniform in x.
        let mut col_hist_y = vec![0u64; 16];
        for p in &y.particles {
            col_hist_y[grid().cell_of(p.x)] += 1;
        }
        let max = *col_hist_y.iter().max().unwrap();
        let min = *col_hist_y.iter().min().unwrap();
        assert!(
            max - min <= 16,
            "columns near-uniform under Y skew: {col_hist_y:?}"
        );
    }

    #[test]
    fn row_skew_population_verifies_after_run() {
        use crate::engine::Simulation;
        let setup = InitConfig::new(grid(), 500, Distribution::Geometric { r: 0.8 })
            .with_skew_axis(SkewAxis::Y)
            .with_m(1)
            .build()
            .unwrap();
        let mut sim = Simulation::new(setup);
        sim.run(50);
        assert!(sim.verify().passed());
    }

    #[test]
    fn injection_materializes_count_and_ids() {
        let mut next_id = 101;
        let ps = build_injection(
            grid(),
            SimConstants::CANONICAL,
            Region {
                x0: 0,
                x1: 4,
                y0: 0,
                y1: 4,
            },
            37,
            0,
            1,
            1,
            50,
            &mut next_id,
        );
        assert_eq!(ps.len(), 37);
        assert_eq!(next_id, 138);
        assert!(ps.iter().all(|p| p.born_at == 50));
        let ids: std::collections::HashSet<u64> = ps.iter().map(|p| p.id).collect();
        assert_eq!(ids.len(), 37);
    }

    #[test]
    fn removal_takes_lowest_ids_in_region() {
        let cfg = InitConfig::new(grid(), 64, Distribution::Uniform);
        let mut particles = cfg.build().unwrap().particles;
        let region = Region {
            x0: 0,
            x1: 8,
            y0: 0,
            y1: 16,
        };
        let inside_before: Vec<u64> = particles
            .iter()
            .filter(|p| region.contains_point(p.x, p.y))
            .map(|p| p.id)
            .collect();
        let removed = apply_removal(&mut particles, region, 5);
        assert_eq!(removed.len(), 5);
        let mut expected = inside_before.clone();
        expected.sort_unstable();
        let removed_ids: Vec<u64> = {
            let mut v: Vec<u64> = removed.iter().map(|p| p.id).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(removed_ids, expected[..5].to_vec());
        assert_eq!(particles.len(), 59);
    }

    #[test]
    fn removal_caps_at_population() {
        let cfg = InitConfig::new(grid(), 10, Distribution::Uniform);
        let mut particles = cfg.build().unwrap().particles;
        let removed = apply_removal(&mut particles, Region::whole(16), 1000);
        assert_eq!(removed.len(), 10);
        assert!(particles.is_empty());
    }
}
