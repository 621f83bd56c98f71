//! The shared distributed verify (`runner::verify_store`, DESIGN.md §6)
//! streams over each rank's binned store in storage order. Its report must
//! equal, field for field, `verify_all` over the whole world materialised
//! and sorted by id — on a clean world and on one with more corrupted
//! particles than `failing_ids` holds, spread over the ranks.

use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_core::particle::Particle;
use pic_core::verify::{verify_all, VerifyReport, DEFAULT_TOLERANCE, MAX_FAILING_IDS};
use pic_par::decomp::Decomp2d;
use pic_par::runner::{RankKernel, RankState};

const STEPS: u32 = 40;
/// Corrupted particles per rank: rank 1 alone exceeds the cap, so its own
/// list is truncated before the merge.
const CORRUPT: [usize; 4] = [5, MAX_FAILING_IDS + 4, 6, 5];

struct RankResult {
    clean: (VerifyReport, Vec<Particle>),
    corrupted: (VerifyReport, Vec<Particle>),
    expected_id_sum: u128,
    storage_is_shuffled: bool,
}

#[test]
fn streamed_distributed_verify_equals_verify_all_over_the_sorted_world() {
    let grid = Grid::new(32).unwrap();
    let region = Region {
        x0: 3,
        x1: 29,
        y0: 0,
        y1: 32,
    };
    let setup = InitConfig::new(grid, 900, Distribution::Uniform)
        .with_k(1)
        .with_m(1)
        .build()
        .unwrap()
        .with_event(Event::inject(9, region, 120, 0, -1, -1))
        .with_event(Event::remove(21, Region::whole(32), 70));
    let results = run_threads(4, |comm| {
        let decomp = Decomp2d::uniform(grid.ncells(), comm.size());
        let mut st = RankState::with_kernel(&setup, decomp, comm.rank(), RankKernel::default());
        for _ in 0..STEPS {
            st.step(&comm);
        }
        let clean = (st.verify(&comm), st.store.to_particles());
        let b = &mut st.store;
        let ids = &b.batch().id;
        let storage_is_shuffled = ids.windows(2).any(|w| w[0] > w[1]);
        let n = b.len();
        let want = CORRUPT[comm.rank()];
        assert!(n > 2 * want, "rank {} holds only {n}", comm.rank());
        // Distinct canonical indices spread through the id range.
        for j in 0..want {
            let idx = j * (n / want);
            let mut p = b.particle_at(idx);
            p.y = grid.wrap_coord(p.y + 1.5 + j as f64 * 0.25);
            b.set(idx, p);
        }
        RankResult {
            clean,
            corrupted: (st.verify(&comm), st.store.to_particles()),
            expected_id_sum: st.expected_id_sum(),
            storage_is_shuffled,
        }
    });
    assert!(
        results.iter().any(|r| r.storage_is_shuffled),
        "every rank's storage order is already canonical: the test cannot bite"
    );
    let reference = |pick: fn(&RankResult) -> &(VerifyReport, Vec<Particle>)| {
        let mut world: Vec<Particle> = results
            .iter()
            .flat_map(|r| pick(r).1.iter().copied())
            .collect();
        world.sort_unstable_by_key(|p| p.id);
        verify_all(
            &grid,
            &world,
            STEPS,
            results[0].expected_id_sum,
            DEFAULT_TOLERANCE,
        )
    };

    let clean = reference(|r| &r.clean);
    assert!(clean.passed(), "{clean:?}");
    assert_eq!(clean.checked, 900 + 120 - 70);
    let corrupted = reference(|r| &r.corrupted);
    let total: usize = CORRUPT.iter().sum();
    assert_eq!(corrupted.position_failures, total as u64);
    assert_eq!(corrupted.failing_ids.len(), MAX_FAILING_IDS);
    assert!(corrupted.failing_ids.windows(2).all(|w| w[0] < w[1]));
    for (rank, r) in results.iter().enumerate() {
        assert_eq!(r.clean.0, clean, "rank {rank}, clean world");
        assert_eq!(r.corrupted.0, corrupted, "rank {rank}, corrupted world");
    }
}
