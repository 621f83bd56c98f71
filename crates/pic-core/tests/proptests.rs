//! Property-based tests of the kernel specification's invariants.

use pic_core::charge::{
    direction_from_charge, mesh_charge, particle_charge, sign_for_direction, total_force,
    SimConstants,
};
use pic_core::dist::{largest_remainder, Distribution};
use pic_core::engine::Simulation;
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_core::motion::advance_particle;
use pic_core::particle::Particle;
use pic_core::verify::{expected_position, triangular_id_sum, verify_all, DEFAULT_TOLERANCE};
use proptest::prelude::*;

fn grids() -> impl Strategy<Value = Grid> {
    (1usize..64).prop_map(|half| Grid::new(half * 2).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wrapped coordinates always land in [0, L), and cell-center offsets
    /// survive exactly.
    #[test]
    fn wrap_coord_in_range(grid in grids(), x in -1e6f64..1e6) {
        let w = grid.wrap_coord(x);
        prop_assert!((0.0..grid.extent()).contains(&w), "wrap({x}) = {w}");
    }

    #[test]
    fn wrap_cell_in_range(grid in grids(), i in -100_000i64..100_000) {
        let c = grid.wrap_cell(i);
        prop_assert!(c < grid.ncells());
        // Consistency: wrapping i and i + n agree.
        prop_assert_eq!(c, grid.wrap_cell(i + grid.ncells() as i64));
    }

    /// Mesh charge depends only on column parity.
    #[test]
    fn mesh_charge_parity(col in 0usize..1_000_000, q in 0.1f64..10.0) {
        let c = mesh_charge(col, q);
        prop_assert_eq!(c.abs(), q);
        prop_assert_eq!(c > 0.0, col % 2 == 0);
        prop_assert_eq!(mesh_charge(col + 2, q), c);
    }

    /// The charge assignment of eq. 3 always realizes an acceleration of
    /// ±2(2k+1)·h/dt² at a cell center, whatever the cell and direction.
    #[test]
    fn eq3_realizes_exact_stride_acceleration(
        grid in grids(),
        colfrac in 0.0f64..1.0,
        rowfrac in 0.0f64..1.0,
        k in 0u32..20,
        dir in prop::bool::ANY,
    ) {
        let col = ((grid.ncells() as f64 * colfrac) as usize).min(grid.ncells() - 1);
        let row = ((grid.ncells() as f64 * rowfrac) as usize).min(grid.ncells() - 1);
        let dir = if dir { 1i8 } else { -1 };
        let c = SimConstants::CANONICAL;
        let qp = particle_charge(&c, 0.5, k, sign_for_direction(col, dir));
        let (x, y) = grid.cell_center(col, row);
        let (ax, ay) = total_force(&grid, &c, x, y, qp);
        let want = 2.0 * (2 * k + 1) as f64 * dir as f64;
        prop_assert!((ax - want).abs() < 1e-11 * want.abs().max(1.0), "ax={ax} want={want}");
        prop_assert_eq!(ay, 0.0);
        prop_assert_eq!(direction_from_charge(col, qp), dir);
    }

    /// One integration step from rest moves the particle exactly (2k+1)
    /// cells in x and m cells in y (up to fp tolerance), for any start cell.
    #[test]
    fn single_step_displacement(
        gridhalf in 8usize..40,
        col in 0usize..16,
        row in 0usize..16,
        k in 0u32..3,
        m in -3i32..4,
        dir in prop::bool::ANY,
    ) {
        let grid = Grid::new(gridhalf * 2).unwrap();
        let dir = if dir { 1i8 } else { -1 };
        let c = SimConstants::CANONICAL;
        let (x, y) = grid.cell_center(col, row);
        let mut p = Particle {
            id: 1, x, y, vx: 0.0, vy: m as f64,
            q: particle_charge(&c, 0.5, k, sign_for_direction(col, dir)),
            x0: x, y0: y, k, m, born_at: 0,
        };
        advance_particle(&grid, &c, &mut p);
        let (ex, ey) = expected_position(&grid, &p, 1);
        prop_assert!((grid.periodic_delta(p.x, ex)).abs() < 1e-10, "x={} expected {ex}", p.x);
        prop_assert!((grid.periodic_delta(p.y, ey)).abs() < 1e-10, "y={} expected {ey}", p.y);
    }

    /// Largest-remainder apportionment: exact total, each bucket within one
    /// of its ideal share.
    #[test]
    fn largest_remainder_properties(
        weights in prop::collection::vec(0.0f64..100.0, 1..50),
        n in 0u64..100_000,
    ) {
        let total_w: f64 = weights.iter().sum();
        let counts = largest_remainder(&weights, n);
        prop_assert_eq!(counts.iter().sum::<u64>(), n);
        if total_w > 0.0 {
            for (i, (&c, &w)) in counts.iter().zip(&weights).enumerate() {
                let ideal = n as f64 * w / total_w;
                prop_assert!(
                    (c as f64 - ideal).abs() <= 1.0 + 1e-9,
                    "bucket {i}: count {c} vs ideal {ideal}"
                );
            }
        }
    }

    /// Distribution column counts always sum to exactly n.
    #[test]
    fn distribution_totals(
        grid in grids(),
        n in 0u64..50_000,
        which in 0usize..5,
        r in 0.5f64..1.5,
    ) {
        let c = grid.ncells();
        let dist = match which {
            0 => Distribution::Uniform,
            1 => Distribution::Geometric { r },
            2 => Distribution::Sinusoidal,
            3 => Distribution::Linear { alpha: 1.0, beta: 2.0 },
            _ => Distribution::Patch { x0: 0, x1: (c / 2).max(1), y0: 0, y1: (c / 2).max(1) },
        };
        let counts = dist.column_counts(c, n);
        prop_assert_eq!(counts.len(), c);
        prop_assert_eq!(counts.iter().sum::<u64>(), n);
    }

    /// Full simulation: any spec-conforming configuration verifies after
    /// any number of steps.
    #[test]
    fn any_configuration_verifies(
        gridhalf in 4usize..24,
        n in 1u64..400,
        k in 0u32..3,
        m in -2i32..3,
        dir in prop::bool::ANY,
        steps in 0u32..120,
        which in 0usize..3,
    ) {
        let grid = Grid::new(gridhalf * 2).unwrap();
        prop_assume!(2 * (k as u64) < grid.ncells() as u64);
        let dist = match which {
            0 => Distribution::Uniform,
            1 => Distribution::Geometric { r: 0.93 },
            _ => Distribution::Sinusoidal,
        };
        let cfg = InitConfig::new(grid, n, dist)
            .with_k(k)
            .with_m(m)
            .with_dir(if dir { 1 } else { -1 });
        let mut sim = Simulation::new(cfg.build().unwrap());
        sim.run(steps);
        let report = sim.verify();
        prop_assert!(report.passed(), "{report:?}");
        prop_assert_eq!(report.id_sum, triangular_id_sum(n));
    }

    /// Any single-particle position corruption beyond tolerance is caught.
    #[test]
    fn corruption_always_detected(
        victim_frac in 0.0f64..1.0,
        offset in prop::sample::select(vec![1.0f64, -1.0, 2.0, 0.001, -0.5]),
        steps in 1u32..40,
    ) {
        let grid = Grid::new(32).unwrap();
        let cfg = InitConfig::new(grid, 100, Distribution::Uniform).with_m(1);
        let mut sim = Simulation::new(cfg.build().unwrap());
        sim.run(steps);
        let idx = ((100.0 * victim_frac) as usize).min(99);
        sim.mutate_particle(idx, |p| p.x = grid.wrap_coord(p.x + offset));
        let report = sim.verify();
        prop_assert_eq!(report.position_failures, 1);
        prop_assert!(!report.passed());
    }

    /// Injection/removal events keep the ledger consistent: the run always
    /// verifies and the population size is exactly as scheduled.
    #[test]
    fn events_preserve_verification(
        inject_at in 1u32..20,
        remove_at in 21u32..40,
        inject_n in 1u64..100,
        remove_n in 1u64..100,
        steps in 41u32..80,
    ) {
        let grid = Grid::new(32).unwrap();
        let region = Region { x0: 0, x1: 16, y0: 0, y1: 16 };
        let setup = InitConfig::new(grid, 200, Distribution::Uniform)
            .with_m(1)
            .build()
            .unwrap()
            .with_event(Event::inject(inject_at, region, inject_n, 0, 0, 1))
            .with_event(Event::remove(remove_at, Region::whole(32), remove_n));
        let mut sim = Simulation::new(setup);
        sim.run(steps);
        let report = sim.verify();
        prop_assert!(report.passed(), "{report:?}");
        prop_assert_eq!(sim.particle_count() as u64, 200 + inject_n - remove_n.min(200 + inject_n));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SoA batches behave exactly like Vec<Particle> under random
    /// push/swap_remove sequences.
    #[test]
    fn soa_matches_vec_model(ops in prop::collection::vec(any::<u64>(), 1..120)) {
        use pic_core::soa::ParticleBatch;
        let grid = Grid::new(16).unwrap();
        let seed = InitConfig::new(grid, 30, Distribution::Uniform)
            .build()
            .unwrap()
            .particles;
        let mut model: Vec<Particle> = Vec::new();
        let mut batch = ParticleBatch::new();
        for op in ops {
            if op % 3 != 0 || model.is_empty() {
                let p = seed[(op % 30) as usize];
                model.push(p);
                batch.push(p);
            } else {
                let i = (op as usize / 3) % model.len();
                let a = model.swap_remove(i);
                let b = batch.swap_remove(i);
                prop_assert_eq!(a, b);
            }
            prop_assert_eq!(model.len(), batch.len());
        }
        prop_assert_eq!(&batch.to_particles(), &model);
    }

    /// Analytic trajectories agree with simulation for arbitrary particles
    /// at arbitrary steps.
    #[test]
    fn trajectory_oracle(
        gridhalf in 4usize..16,
        col in 0usize..8,
        row in 0usize..8,
        k in 0u32..3,
        m in -3i32..4,
        dirb in prop::bool::ANY,
        probe in 0u64..50,
    ) {
        use pic_core::trajectory::state_at;
        use pic_core::charge::{particle_charge, sign_for_direction};
        use pic_core::motion::advance_particle;
        let grid = Grid::new(gridhalf * 2).unwrap();
        prop_assume!(2 * (k as u64) < grid.ncells() as u64);
        let consts = SimConstants::CANONICAL;
        let dir = if dirb { 1i8 } else { -1 };
        let (x, y) = grid.cell_center(col, row);
        let mut p = Particle {
            id: 1, x, y, vx: 0.0, vy: m as f64,
            q: particle_charge(&consts, 0.5, k, sign_for_direction(col, dir)),
            x0: x, y0: y, k, m, born_at: 0,
        };
        for _ in 0..probe {
            advance_particle(&grid, &consts, &mut p);
        }
        let oracle = state_at(&grid, &consts, &p, probe);
        prop_assert!(grid.periodic_delta(p.x, oracle.x).abs() < 1e-8);
        prop_assert!(grid.periodic_delta(p.y, oracle.y).abs() < 1e-8);
        prop_assert!((p.vx - oracle.vx).abs() < 1e-8, "vx {} vs {}", p.vx, oracle.vx);
        prop_assert!((p.vy - oracle.vy).abs() < 1e-8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chunked (binned) SoA sweep is bit-identical to the serial AoS
    /// sweep for every distribution family, with injection and removal
    /// events firing mid-run, across degenerate and non-dividing chunk sizes.
    #[test]
    fn chunked_soa_bitwise_matches_aos_serial_all_distributions(
        which in 0usize..5,
        n in 50u64..300,
        k in 0u32..2,
        m in -2i32..3,
        steps in 10u32..50,
        inject_n in 1u64..60,
        remove_n in 1u64..60,
        r in 0.8f64..1.2,
    ) {
        use pic_core::engine::SweepMode;
        let grid = Grid::new(32).unwrap();
        let dist = match which {
            0 => Distribution::Uniform,
            1 => Distribution::Geometric { r },
            2 => Distribution::Sinusoidal,
            3 => Distribution::Linear { alpha: 1.0, beta: 2.0 },
            _ => Distribution::Patch { x0: 4, x1: 16, y0: 4, y1: 16 },
        };
        let setup = InitConfig::new(grid, n, dist)
            .with_k(k)
            .with_m(m)
            .build()
            .unwrap()
            .with_event(Event::inject(3, Region { x0: 0, x1: 16, y0: 0, y1: 16 }, inject_n, 0, 0, 1))
            .with_event(Event::remove(7, Region::whole(32), remove_n));
        let mut reference = Simulation::with_mode(setup.clone(), SweepMode::Serial);
        reference.run(steps);
        let expect = reference.particles();
        for chunk in [1usize, 7, 64, n as usize] {
            let mut sim = Simulation::with_mode(setup.clone(), SweepMode::SoaBinned)
                .with_chunk_size(chunk);
            sim.run(steps);
            // PartialEq on Particle is field-exact over the raw f64s, so
            // equality here means bit-for-bit identical trajectories.
            prop_assert_eq!(&sim.particles(), &expect, "chunk {} diverged", chunk);
            prop_assert_eq!(sim.expected_id_sum(), reference.expected_id_sum());
            let report = sim.verify();
            prop_assert!(report.passed(), "chunk {chunk}: {report:?}");
        }
    }
    /// The cell-binned sweep is bit-identical to the serial AoS sweep for
    /// every distribution family, with injection and removal events firing
    /// mid-run, across every SIMD
    /// backend executable on this host (widest vector down to forced
    /// scalar) — the counting-sort traversal reorder, the parity-hoisted
    /// kernel, and the lane-per-particle vectorization change scheduling
    /// and bookkeeping only, never arithmetic.
    #[test]
    fn binned_bitwise_matches_aos_serial_all_distributions(
        which in 0usize..5,
        n in 50u64..300,
        k in 0u32..2,
        m in -2i32..3,
        steps in 10u32..50,
        inject_n in 1u64..60,
        remove_n in 1u64..60,
        r in 0.8f64..1.2,
    ) {
        use pic_core::engine::SweepMode;
        let grid = Grid::new(32).unwrap();
        let dist = match which {
            0 => Distribution::Uniform,
            1 => Distribution::Geometric { r },
            2 => Distribution::Sinusoidal,
            3 => Distribution::Linear { alpha: 1.0, beta: 2.0 },
            _ => Distribution::Patch { x0: 4, x1: 16, y0: 4, y1: 16 },
        };
        let setup = InitConfig::new(grid, n, dist)
            .with_k(k)
            .with_m(m)
            .build()
            .unwrap()
            .with_event(Event::inject(3, Region { x0: 0, x1: 16, y0: 0, y1: 16 }, inject_n, 0, 0, 1))
            .with_event(Event::remove(7, Region::whole(32), remove_n));
        let mut reference = Simulation::with_mode(setup.clone(), SweepMode::Serial);
        reference.run(steps);
        let expect = reference.particles();
        for backend in pic_core::simd::SimdBackend::available() {
            let mut sim = Simulation::with_mode(setup.clone(), SweepMode::SoaBinned)
                .with_simd_backend(backend);
            sim.run(steps);
            // PartialEq on Particle is field-exact over the raw f64s, so
            // equality here means bit-for-bit identical trajectories.
            prop_assert_eq!(
                &sim.particles(), &expect,
                "backend {} diverged", backend.name()
            );
            prop_assert_eq!(sim.expected_id_sum(), reference.expected_id_sum());
            let report = sim.verify();
            prop_assert!(report.passed(), "backend {}: {report:?}", backend.name());
        }
    }

    /// SIMD span tails: a patch distribution narrowed to a single column
    /// yields per-cell spans of every length in 0..=7, exercising the
    /// quartet body (4-lane groups) and the scalar remainder loop at every
    /// possible tail length. All executable backends must be bit-identical
    /// to the serial AoS reference.
    #[test]
    fn simd_span_tails_bitwise_match_aos_serial(
        span_len in 0u64..8,
        extra_cols in 0usize..3,
        k in 0u32..2,
        m in -2i32..3,
        steps in 5u32..25,
    ) {
        use pic_core::engine::SweepMode;
        use pic_core::simd::SimdBackend;
        let grid = Grid::new(32).unwrap();
        // One narrow patch column plus a few neighbours: per-cell spans of
        // length span_len, including the empty-population edge case.
        let x1 = 5 + extra_cols;
        let n = span_len * (1 + extra_cols as u64);
        let setup = InitConfig::new(grid, n, Distribution::Patch { x0: 4, x1, y0: 4, y1: 20 })
            .with_k(k)
            .with_m(m)
            .build()
            .unwrap();
        let mut reference = Simulation::with_mode(setup.clone(), SweepMode::Serial);
        reference.run(steps);
        let expect = reference.particles();
        for backend in SimdBackend::available() {
            let mut sim = Simulation::with_mode(setup.clone(), SweepMode::SoaBinned)
                .with_simd_backend(backend);
            sim.run(steps);
            prop_assert_eq!(
                &sim.particles(), &expect,
                "span {} backend {} diverged", span_len, backend.name()
            );
            prop_assert!(sim.verify().passed());
        }
    }

    /// Force-field parity antisymmetry — the invariant behind the binned
    /// kernel's corner-charge hoisting. At the mirrored relative position
    /// (`1 − f`, dyadic so the mirror is exact) in a column of opposite
    /// parity, the x-force negates bit-exactly and the y-force is
    /// bit-identical: negation and squaring are sign-symmetric in IEEE
    /// arithmetic and the kernel's corner pairing is commutative.
    #[test]
    fn force_field_parity_antisymmetry(
        gridhalf in 2usize..32,
        even_col in 0usize..16,
        odd_col in 0usize..16,
        fx_num in 1u64..64,
        fy_num in 0u64..64,
        qp in -5.0f64..5.0,
    ) {
        let grid = Grid::new(gridhalf * 2).unwrap();
        let even_col = (even_col * 2) % grid.ncells();
        let odd_col = (odd_col * 2 + 1) % grid.ncells();
        let f = fx_num as f64 / 64.0; // dyadic: 1 - f is exact
        let row = (fy_num as usize / 8) % grid.ncells();
        let y = row as f64 + (fy_num % 8) as f64 / 8.0;
        // Exact negation up to the sign of zero: a cancelling sum yields
        // +0.0 in both parities (IEEE `-a + a = +0.0`), so a bitwise
        // negation check must treat ±0.0 as one value.
        let negates = |a: f64, b: f64| (a == 0.0 && b == 0.0) || a.to_bits() == (-b).to_bits();
        let (ax_e, ay_e) = total_force(&grid, &SimConstants::CANONICAL, even_col as f64 + f, y, qp);
        let (ax_o, ay_o) = total_force(&grid, &SimConstants::CANONICAL, odd_col as f64 + (1.0 - f), y, qp);
        prop_assert!(negates(ax_e, ax_o), "fx must negate exactly: {ax_e} vs {ax_o}");
        prop_assert_eq!(ay_e.to_bits(), ay_o.to_bits(), "fy must match exactly");
        // Same relative position, opposite parity: every corner charge
        // negates, so the whole force negates bit-exactly.
        let (ax_n, ay_n) = total_force(&grid, &SimConstants::CANONICAL, odd_col as f64 + f, y, qp);
        prop_assert!(negates(ax_e, ax_n), "{ax_e} vs {ax_n}");
        prop_assert!(negates(ay_e, ay_n), "{ay_e} vs {ay_n}");
    }

    /// The binned store's histogram — the O(columns) prefix sums while
    /// the binning is fresh (before the first sweep), the store's own scan
    /// afterwards — agrees with a count over the canonical view for every
    /// distribution family with mid-run injection and removal, at every
    /// step of the run.
    #[test]
    fn binned_histogram_matches_scan_all_distributions(
        which in 0usize..5,
        n in 50u64..300,
        k in 0u32..2,
        m in -2i32..3,
        steps in 10u32..30,
        inject_n in 1u64..60,
        remove_n in 1u64..60,
    ) {
        use pic_core::engine::SweepMode;
        let grid = Grid::new(32).unwrap();
        let dist = match which {
            0 => Distribution::Uniform,
            1 => Distribution::Geometric { r: 0.9 },
            2 => Distribution::Sinusoidal,
            3 => Distribution::Linear { alpha: 1.0, beta: 2.0 },
            _ => Distribution::Patch { x0: 4, x1: 16, y0: 4, y1: 16 },
        };
        let setup = InitConfig::new(grid, n, dist)
            .with_k(k)
            .with_m(m)
            .build()
            .unwrap()
            .with_event(Event::inject(3, Region { x0: 0, x1: 16, y0: 0, y1: 16 }, inject_n, 0, 0, 1))
            .with_event(Event::remove(7, Region::whole(32), remove_n));
        let mut sim = Simulation::with_mode(setup, SweepMode::SoaBinned);
        let mut h = Vec::new();
        for _ in 0..=steps {
            sim.column_histogram_into(&mut h);
            let mut scan = vec![0u64; grid.ncells()];
            for p in sim.particles() {
                scan[grid.cell_of(p.x)] += 1;
            }
            prop_assert_eq!(&h, &scan, "histogram diverged at step {}", sim.step_index());
            sim.step();
        }
    }
}

/// Deterministic regression: same config builds identical populations.
#[test]
fn init_is_deterministic() {
    let grid = Grid::new(64).unwrap();
    let mk = || {
        InitConfig::new(grid, 5_000, Distribution::PAPER_SKEW)
            .with_k(1)
            .with_m(2)
            .build()
            .unwrap()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.particles, b.particles);
}

/// Verify-all over a partitioned population equals verify over the whole.
#[test]
fn partitioned_verification_merges() {
    let grid = Grid::new(32).unwrap();
    let cfg = InitConfig::new(grid, 300, Distribution::Sinusoidal).with_m(1);
    let mut sim = Simulation::new(cfg.build().unwrap());
    sim.run(25);
    let whole = sim.verify();
    let particles = sim.particles();
    let (a, b) = particles.split_at(100);
    let ra = verify_all(&grid, a, 25, 0, DEFAULT_TOLERANCE);
    let rb = verify_all(&grid, b, 25, 0, DEFAULT_TOLERANCE);
    let mut merged = ra.merge(&rb);
    merged.expected_id_sum = triangular_id_sum(300);
    assert_eq!(merged.checked, whole.checked);
    assert_eq!(merged.id_sum, whole.id_sum);
    assert_eq!(merged.passed(), whole.passed());
}

/// The input property the span kernels' corner fold is keyed on (DESIGN.md
/// §10): every particle the initializer or an injection event places sits
/// at exact cell mid-height, and stays there — `a_y ≡ 0`, `y += m·h` is
/// exact, the wrap adds an integer — so `y.fract()` is `0.5` bit for bit
/// on every particle at every step. A placement change that breaks this
/// would silently send every group down the four-evaluation path; it fails
/// here instead of in a benchmark.
#[test]
fn conforming_populations_stay_at_exact_mid_height() {
    use pic_core::engine::SweepMode;
    use pic_core::init::{RowSpread, SkewAxis};
    let grid = Grid::new(32).unwrap();
    let dists = [
        Distribution::Uniform,
        Distribution::Geometric { r: 0.9 },
        Distribution::Sinusoidal,
        Distribution::Linear {
            alpha: 1.0,
            beta: 3.0,
        },
        Distribution::Patch {
            x0: 4,
            x1: 20,
            y0: 8,
            y1: 30,
        },
    ];
    for (i, dist) in dists.into_iter().enumerate() {
        for (k, m, dir) in [(0, 1, 1), (1, -2, -1), (2, 3, 1), (0, 0, -1)] {
            let setup = InitConfig::new(grid, 700, dist)
                .with_k(k)
                .with_m(m)
                .with_dir(dir)
                .with_spread(if i % 2 == 0 {
                    RowSpread::Even
                } else {
                    RowSpread::Random { seed: 2016 }
                })
                .with_skew_axis(if k == 2 { SkewAxis::Y } else { SkewAxis::X })
                .build()
                .unwrap()
                .with_event(Event::inject(
                    0,
                    Region {
                        x0: 0,
                        x1: 8,
                        y0: 0,
                        y1: 32,
                    },
                    90,
                    1,
                    -m,
                    -dir,
                ))
                .with_event(Event::inject(37, Region::whole(32), 150, k, 5, dir))
                .with_event(Event::remove(60, Region::whole(32), 100));
            let mut sim = Simulation::with_mode(setup, SweepMode::SoaBinned);
            for step in 0..=100 {
                let batch = sim.batch().unwrap();
                assert!(
                    batch
                        .y
                        .iter()
                        .all(|y| y.fract().to_bits() == 0.5f64.to_bits()),
                    "{dist:?} k={k} m={m}: a particle left mid-height by step {step}"
                );
                sim.step();
            }
            assert_eq!(sim.particle_count(), 700 + 90 + 150 - 100);
            assert!(sim.verify().passed());
        }
    }
}
