//! The apply of a balance round (DESIGN.md §12) against the one oracle:
//! scripted cut moves driven through the three pinned steps —
//! `rebuild_charges` and `rebind_store` (both empty), `rehome` (the step's
//! exchange under the new map) — must end in the AoS oracle's final state
//! (`pic_core::reference`), per id, bit for bit, on the degenerate shapes
//! a balancer can produce: moves at any step, wide moves, emptied ranks,
//! ranks at the domain edges with a wrapping population, mixed strides,
//! events beside a round, 2 × 2 decompositions with x-, y- and two-phase
//! moves, and rounds that move nothing.

use pic_comm::comm::Communicator;
use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::{InitConfig, SimulationSetup};
use pic_core::particle::Particle;
use pic_par::decomp::Decomp2d;
use pic_par::runner::RankState;
use proptest::prelude::*;

/// One balance round of a script: the cuts in force after step `after`.
#[derive(Debug, Clone, Default)]
struct Round {
    after: u32,
    xcuts: Option<Vec<usize>>,
    ycuts: Option<Vec<usize>>,
    /// Apply the events due at the next step before the round, so the
    /// round meets injected and removed particles.
    events_first: bool,
}

fn x_move(after: u32, xcuts: &[usize]) -> Round {
    Round {
        after,
        xcuts: Some(xcuts.to_vec()),
        ..Round::default()
    }
}

/// Sorted (id, x-bits, y-bits, vx-bits, vy-bits) of a whole population.
fn bit_finals(particles: &[Particle]) -> Vec<(u64, u64, u64, u64, u64)> {
    let mut v: Vec<_> = particles
        .iter()
        .map(|p| {
            (
                p.id,
                p.x.to_bits(),
                p.y.to_bits(),
                p.vx.to_bits(),
                p.vy.to_bits(),
            )
        })
        .collect();
    v.sort_by_key(|t| t.0);
    v
}

/// The round as `pic_par::balance::lb_round` (and the benchmark's copy)
/// applies a decision, followed by what must hold on every rank after it.
fn apply_round(comm: &Communicator, st: &mut RankState, round: &Round) {
    if round.events_first {
        st.apply_due_events(comm);
    }
    let mut moved = false;
    if let Some(x) = round.xcuts.as_ref().filter(|x| **x != st.decomp.xcuts) {
        st.decomp.set_xcuts(x.clone());
        moved = true;
    }
    if let Some(y) = round.ycuts.as_ref().filter(|y| **y != st.decomp.ycuts) {
        st.decomp.set_ycuts(y.clone());
        moved = true;
    }
    if moved {
        st.rebuild_charges();
    }
    st.rehome(comm);
    st.rebind_store();
    assert_homed(st, "after a round");
}

/// Every particle `st` holds lies in a cell its rank owns. Particles never
/// interact, so a mis-homed one still verifies and still matches the
/// oracle per id: only this check sees a leaver the drain missed.
fn assert_homed(st: &RankState, when: &str) {
    let batch = st.store.batch();
    for (&x, &y) in batch.x.iter().zip(&batch.y) {
        let (c, r) = st.grid.cell_of_point(x, y);
        assert_eq!(st.decomp.owner_of_cell(c, r), st.rank, "mis-homed {when}");
    }
}

/// Run `steps` steps from `decomp` under `script` and hold the union of
/// the ranks' final particles to the oracle, per id, bit for bit.
fn check(setup: &SimulationSetup, decomp: &Decomp2d, steps: u32, script: &[Round]) {
    let per_rank = run_threads(decomp.ranks(), |comm| {
        let mut st = RankState::new(setup, decomp.clone(), comm.rank());
        for s in 1..=steps {
            st.step(&comm);
            assert_homed(&st, &format!("after step {s}"));
            for round in script.iter().filter(|r| r.after == s) {
                apply_round(&comm, &mut st, round);
            }
        }
        let report = st.verify(&comm);
        assert!(report.passed(), "{report:?}");
        st.store.batch().to_particles()
    });
    let oracle = pic_core::reference::run(setup.clone(), steps);
    assert_eq!(
        bit_finals(&oracle),
        bit_finals(&per_rank.concat()),
        "{decomp:?} {script:?}"
    );
}

fn drifting(ncells: usize, n: u64, dist: Distribution, k: u32, m: i32, dir: i8) -> SimulationSetup {
    InitConfig::new(Grid::new(ncells).unwrap(), n, dist)
        .with_k(k)
        .with_m(m)
        .with_dir(dir)
        .build()
        .unwrap()
}

#[test]
fn cut_moves_at_store_ages_15_16_and_31() {
    // Stride 1 on 64 columns, and no event: moves after steps 15, 16
    // and 31, one of each phase parity and one a stride past the first.
    let setup = drifting(64, 1_500, Distribution::Geometric { r: 0.95 }, 0, 1, 1);
    let script = [
        x_move(15, &[0, 36, 64]),
        x_move(16, &[0, 29, 64]),
        x_move(31, &[0, 33, 64]),
    ];
    check(&setup, &Decomp2d::columns(64, 2), 40, &script);
}

#[test]
fn moves_wider_than_what_is_still_ordered() {
    // A 20-column move after step 12, then a 40-column move back after
    // step 28: most of a rank's slab changes hands at once.
    let setup = drifting(64, 1_500, Distribution::Sinusoidal, 0, 0, -1);
    let script = [x_move(12, &[0, 52, 64]), x_move(28, &[0, 12, 64])];
    check(&setup, &Decomp2d::columns(64, 2), 36, &script);
}

#[test]
fn moves_that_empty_a_rank() {
    // An 8-column patch drifting right through three ranks: each move
    // leaves one rank without a particle, and the next one refills it.
    let patch = Distribution::Patch {
        x0: 20,
        x1: 28,
        y0: 0,
        y1: 64,
    };
    let setup = drifting(64, 900, patch, 0, 1, 1);
    let script = [
        x_move(4, &[0, 10, 42, 64]),
        x_move(7, &[0, 40, 42, 64]),
        x_move(9, &[0, 1, 2, 64]),
        x_move(20, &[0, 21, 42, 64]),
    ];
    check(&setup, &Decomp2d::columns(64, 3), 30, &script);
}

#[test]
fn edge_ranks_with_a_wrapping_population() {
    // Rank 0 touches column 0, rank 1 column L − 1, and rank 1 is thinner
    // than the stride: particles of rank 0 hop over it and wrap back into
    // rank 0 without ever leaving.
    for dir in [1i8, -1] {
        let setup = drifting(32, 800, Distribution::Uniform, 1, 1, dir);
        let mut decomp = Decomp2d::columns(32, 2);
        decomp.set_xcuts(vec![0, 30, 32]);
        let script = [
            x_move(3, &[0, 28, 32]),
            x_move(6, &[0, 30, 32]),
            x_move(9, &[0, 2, 32]),
            x_move(13, &[0, 16, 32]),
            x_move(14, &[0, 31, 32]),
        ];
        check(&setup, &decomp, 24, &script);
    }
}

#[test]
fn mixed_strides() {
    // An injected k = 2 burst (stride 5) moves left; the k = 0 bulk moves
    // right beside it.
    let burst = Region {
        x0: 30,
        x1: 50,
        y0: 0,
        y1: 64,
    };
    let setup = drifting(64, 1_200, Distribution::Geometric { r: 0.97 }, 0, 1, 1)
        .with_event(Event::inject(0, burst, 300, 2, -1, -1));
    let script = [
        x_move(2, &[0, 20, 40, 64]),
        x_move(3, &[0, 26, 34, 64]),
        x_move(9, &[0, 8, 56, 64]),
        x_move(12, &[0, 21, 42, 64]),
    ];
    check(&setup, &Decomp2d::columns(64, 3), 20, &script);
}

#[test]
fn events_beside_a_round() {
    let setup = drifting(32, 700, Distribution::Geometric { r: 0.9 }, 1, 1, 1)
        // Fired by the step the first round follows…
        .with_event(Event::inject(5, Region::whole(32), 120, 0, 1, -1))
        .with_event(Event::remove(5, Region::whole(32), 90))
        // …and applied right before the second, which therefore meets the
        // newcomers and the removal's compaction.
        .with_event(Event::inject(10, Region::whole(32), 60, 1, 0, 1))
        .with_event(Event::remove(10, Region::whole(32), 200));
    let script = [
        x_move(6, &[0, 12, 32]),
        Round {
            events_first: true,
            ..x_move(10, &[0, 19, 32])
        },
    ];
    check(&setup, &Decomp2d::columns(32, 2), 18, &script);
}

#[test]
fn two_by_two_with_x_y_and_two_phase_moves() {
    // m = 0 never crosses a row, m = 1 crosses every step (`check` asserts
    // homing after each one).
    let both = Round {
        after: 11,
        xcuts: Some(vec![0, 17, 32]),
        ycuts: Some(vec![0, 9, 32]),
        ..Round::default()
    };
    let script = [
        x_move(3, &[0, 12, 32]),
        Round {
            after: 7,
            ycuts: Some(vec![0, 20, 32]),
            ..Round::default()
        },
        both,
        x_move(13, &[0, 16, 32]),
    ];
    for m in [0, 1] {
        let setup = drifting(32, 900, Distribution::Geometric { r: 0.9 }, 0, m, 1);
        check(&setup, &Decomp2d::uniform_grid(32, 2, 2), 20, &script);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random cut sequences on random shapes: whatever a balancer could
    /// decide, after whatever step, the apply is invisible per id.
    #[test]
    fn random_cut_sequences_match_the_serial_engine(
        shape in prop::sample::select(vec![(2usize, 1usize), (3, 1), (4, 1), (2, 2), (1, 2)]),
        k in 0u32..2,
        m in -1i32..2,
        leftwards in any::<bool>(),
        dist_i in 0usize..3,
        interval in 1u32..7,
        seeds in prop::collection::vec(any::<u64>(), 6),
    ) {
        let (px, py) = shape;
        let dist = [
            Distribution::Uniform,
            Distribution::Geometric { r: 0.9 },
            Distribution::Sinusoidal,
        ][dist_i];
        let setup = drifting(32, 500, dist, k, m, if leftwards { -1 } else { 1 })
            .with_event(Event::inject(4, Region::whole(32), 60, 1 - k, -m, 1))
            .with_event(Event::remove(9, Region::whole(32), 80));
        // Strictly increasing interior cuts drawn from a seed.
        let cuts = |parts: usize, seed: u64| -> Vec<usize> {
            let mut picks: Vec<usize> = (1..32).collect();
            let mut s = seed;
            let mut inner: Vec<usize> = (1..parts)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    picks.swap_remove((s >> 33) as usize % picks.len())
                })
                .collect();
            inner.sort_unstable();
            [vec![0], inner, vec![32]].concat()
        };
        let script: Vec<Round> = (seeds.iter().enumerate())
            .map(|(i, &seed)| Round {
                after: (i as u32 + 1) * interval,
                xcuts: (seed & 1 == 0).then(|| cuts(px, seed)),
                ycuts: (seed & 2 == 0).then(|| cuts(py, seed >> 7)),
                ..Round::default()
            })
            .collect();
        let decomp = Decomp2d::uniform_grid(32, px, py);
        check(&setup, &decomp, 6 * interval + 3, &script);
    }
}
