//! Particle exchange between ranks.
//!
//! After each step (and after every re-decomposition), particles whose
//! containing cell left the local subdomain are routed to their new owner.
//! Destinations are usually the four Cartesian neighbors (particles move
//! `2k+1 ≪ strip width` cells per step), but the implementation handles
//! arbitrary hops — the paper allows "high particle speeds, in which case
//! load imbalances have a more (pseudo-)random nature" — via an
//! owner-directed personalized all-to-all.

use pic_comm::collective::alltoallv_take_into;
use pic_comm::comm::Communicator;
use pic_core::bin::{BinnedStore, Classifier};
use pic_core::geometry::Grid;
use pic_core::soa::ParticleBatch;

/// Reusable scratch for the exchange path: per-destination staging
/// buckets and the arrival side. Holding one of these in per-rank state
/// makes the steady-state exchange loop allocation-free — buckets are
/// `clear()`ed, not dropped, and *circulate*: the staging buckets
/// themselves are the wire payloads (owned [`ParticleBatch`]es, one array
/// per field: the drain fills them with slice copies, no encode or decode
/// pass), so every send surrenders its bucket (channel transfer, like an
/// MPI send buffer), and the bucket received from each rank is appended
/// to the store one slice per field, cleared, and becomes the staging
/// bucket for that rank. The two buckets of a rank pair trade ends every
/// exchange, so steady traffic circulates buffers instead of allocating
/// them.
#[derive(Debug, Default)]
pub struct ExchangeBuffers {
    /// Per-destination staging buckets; they go on the wire as-is (slots
    /// are emptied by the take-based all-to-all and refilled with the
    /// arrival bucket from the same rank).
    outgoing: Vec<ParticleBatch>,
    /// Arrival payloads, one per source rank (outer vector reused across
    /// steps).
    inbox: Vec<ParticleBatch>,
    /// Payload messages put on the wire since the last counter take.
    msgs_sent: u64,
}

impl ExchangeBuffers {
    pub fn new() -> ExchangeBuffers {
        ExchangeBuffers::default()
    }

    /// Does nothing: every exchange runs the one dense wire. Kept only
    /// because the benchmark's route probe (`bench/src/probe.rs:158`) calls
    /// it; adapter v2 deletes it.
    #[doc(hidden)]
    pub fn enable_sparse(
        &mut self,
        _size: usize,
        _my_rank: usize,
        _neighbors: impl IntoIterator<Item = usize>,
    ) {
    }

    /// Drain the wire-message counter: payload messages put on the wire
    /// (one per rank per exchange, the self-delivery included) since the
    /// previous take. Feeds the `msgs_sent` trace counter.
    pub(crate) fn take_messages_sent(&mut self) -> u64 {
        std::mem::take(&mut self.msgs_sent)
    }

    /// Put the staged buckets on the wire, hand every arrival bucket (in
    /// source-rank order, self excluded) to `sink` with its source rank,
    /// then clear each arrival bucket into the staging slot of the rank it
    /// came from. Returns the particle count delivered.
    fn exchange(
        &mut self,
        comm: &Communicator,
        mut sink: impl FnMut(usize, &ParticleBatch),
    ) -> usize {
        self.msgs_sent += comm.size() as u64;
        alltoallv_take_into(comm, &mut self.outgoing, &mut self.inbox);
        let me = comm.rank();
        let mut received = 0usize;
        for (src, bucket) in self.inbox.iter_mut().enumerate() {
            if src != me {
                received += bucket.len();
                sink(src, bucket);
            }
            bucket.clear();
        }
        std::mem::swap(&mut self.outgoing, &mut self.inbox);
        received
    }
}

/// `route_binned` under an owner closure, which also answers the
/// drain one particle at a time: the door for the benchmark's route probe
/// and the tests. Returns `(sent, received)` particle counts.
pub fn route_binned_with<F>(
    comm: &Communicator,
    my_rank: usize,
    owner: F,
    store: &mut BinnedStore,
    grid: &Grid,
    bufs: &mut ExchangeBuffers,
) -> (usize, usize)
where
    F: Fn(usize, usize) -> usize,
{
    debug_assert_eq!(comm.rank(), my_rank);
    let keep = |c, r| owner(c, r) == my_rank;
    route_binned(comm, keep, &owner, store, grid, bufs)
}

/// The one exchange — of the step, of a rehome after a balance round, and
/// of [`route_binned_with`]: drain every particle `classifier` finds
/// leaving straight out of the rank's [`BinnedStore`], stage each in the
/// bucket of `owner(col, row)` (a communicator rank;
/// [`BinnedStore::drain_leavers_to_buckets`]), run the all-to-all, and
/// append every arrival bucket to the store, one slice copy per field.
/// Returns `(sent, received)` particle counts. Debug builds check that
/// `owner` names this rank for every arrival, and name the particle and
/// the rank that sent it if it does not.
pub(crate) fn route_binned(
    comm: &Communicator,
    classifier: impl Classifier,
    owner: impl Fn(usize, usize) -> usize,
    store: &mut BinnedStore,
    grid: &Grid,
    bufs: &mut ExchangeBuffers,
) -> (usize, usize) {
    let (me, nranks) = (comm.rank(), comm.size());
    bufs.outgoing.resize_with(nranks, ParticleBatch::new);
    let dst_of = |c, r| {
        let dst = owner(c, r);
        debug_assert!(dst < nranks && dst != me, "bad destination {dst}");
        dst
    };
    let sent = store.drain_leavers_to_buckets(grid, classifier, dst_of, &mut bufs.outgoing);
    let received = bufs.exchange(comm, |src, bucket| {
        if cfg!(debug_assertions) {
            check_homed(grid, &owner, me, src, bucket);
        }
        store.append_tail(bucket);
    });
    (sent, received)
}

/// Panic unless `owner` names rank `me` for the cell of every particle of
/// `arrivals` (sent by rank `src`).
fn check_homed(
    grid: &Grid,
    owner: impl Fn(usize, usize) -> usize,
    me: usize,
    src: usize,
    arrivals: &ParticleBatch,
) {
    for ((&id, &x), &y) in arrivals.id.iter().zip(&arrivals.x).zip(&arrivals.y) {
        let (c, r) = grid.cell_of_point(x, y);
        let o = owner(c, r);
        assert!(
            o == me,
            "mis-routed migrant: particle {id} from rank {src} lies in cell ({c}, {r}), \
             which rank {o} owns, not rank {me}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{Decomp2d, VpGrid};
    use pic_comm::world::run_threads;
    use pic_core::dist::Distribution;
    use pic_core::init::InitConfig;
    use pic_core::owner::OwnerTable;
    use pic_core::particle::Particle;

    /// The particles of a full population owned by `rank`.
    fn local_slice(decomp: &Decomp2d, grid: &Grid, rank: usize, all: &[Particle]) -> Vec<Particle> {
        all.iter()
            .filter(|p| {
                let (col, row) = grid.cell_of_point(p.x, p.y);
                decomp.owner_of_cell(col, row) == rank
            })
            .copied()
            .collect()
    }

    /// A store of every particle of `ps`.
    fn whole_store(ps: &[Particle], grid: &Grid) -> BinnedStore {
        BinnedStore::new_owned(ps, grid, |_, _| true)
    }

    fn setup(n: u64) -> (Grid, Vec<Particle>) {
        let grid = Grid::new(16).unwrap();
        let s = InitConfig::new(grid, n, Distribution::Uniform)
            .build()
            .unwrap();
        (grid, s.particles)
    }

    /// `route_binned` as the rank step calls it under the cuts: the
    /// owner table's drain classifier and its owner lookup.
    fn route_cuts(
        comm: &Communicator,
        table: &OwnerTable,
        grid: &Grid,
        store: &mut BinnedStore,
        bufs: &mut ExchangeBuffers,
    ) -> (usize, usize) {
        let classifier = table.map(comm.rank());
        let owner = |c, r| table.owner_of_cell(c, r);
        route_binned(comm, classifier, owner, store, grid, bufs)
    }

    #[test]
    fn local_slices_partition_population() {
        let (grid, all) = setup(333);
        let decomp = Decomp2d::uniform(16, 4);
        let mut seen = 0usize;
        for r in 0..4 {
            seen += local_slice(&decomp, &grid, r, &all).len();
        }
        assert_eq!(seen, 333);
    }

    /// A whole-grid store over the deliberately mis-assigned strided subset
    /// `id % ranks == rank`, regardless of ownership.
    fn strided_store(grid: &Grid, all: &[Particle], rank: usize, ranks: usize) -> BinnedStore {
        let mine: Vec<Particle> = all
            .iter()
            .filter(|p| (p.id as usize) % ranks == rank)
            .copied()
            .collect();
        whole_store(&mine, grid)
    }

    /// Assert every held particle is owned by `rank`; `(count, id sum)`.
    fn settled(store: &BinnedStore, grid: &Grid, d: &Decomp2d, rank: usize) -> (usize, u128) {
        let mine = store.to_particles();
        for p in &mine {
            let (c, r) = grid.cell_of_point(p.x, p.y);
            assert_eq!(d.owner_of_cell(c, r), rank);
        }
        (mine.len(), mine.iter().map(|p| p.id as u128).sum::<u128>())
    }

    #[test]
    fn rehome_moves_everything_to_owners() {
        let (grid, all) = setup(200);
        let decomp = Decomp2d::uniform(16, 4);
        let totals = run_threads(4, |comm| {
            let rank = comm.rank();
            let mut store = strided_store(&grid, &all, rank, 4);
            let d = decomp.clone();
            let owner = |c, r| d.owner_of_cell(c, r);
            let mut bufs = ExchangeBuffers::new();
            route_binned_with(&comm, rank, owner, &mut store, &grid, &mut bufs);
            // Now everything local must be owned.
            settled(&store, &grid, &d, rank)
        });
        let total: usize = totals.iter().map(|t| t.0).sum();
        let idsum: u128 = totals.iter().map(|t| t.1).sum();
        assert_eq!(total, 200);
        assert_eq!(idsum, 200u128 * 201 / 2, "no particle lost or duplicated");
    }

    #[test]
    fn reused_buffers_match_fresh_allocation_routing() {
        // Route the same mis-assigned population twice per rank through one
        // ExchangeBuffers — the second pass (warm buffers) must behave
        // exactly like routing through freshly allocated ones.
        let (grid, all) = setup(240);
        let decomp = Decomp2d::uniform(16, 4);
        let totals = run_threads(4, |comm| {
            let rank = comm.rank();
            let owner = |c, r| decomp.owner_of_cell(c, r);
            let mut bufs = ExchangeBuffers::new();
            let mut fresh = strided_store(&grid, &all, rank, 4);
            let mut warm = strided_store(&grid, &all, rank, 4);
            let mut cold = ExchangeBuffers::new();
            route_binned_with(&comm, rank, owner, &mut fresh, &grid, &mut cold);
            // First pass warms the buckets, second pass reuses them.
            route_binned_with(&comm, rank, owner, &mut warm, &grid, &mut bufs);
            let (sent, received) =
                route_binned_with(&comm, rank, owner, &mut warm, &grid, &mut bufs);
            assert_eq!(sent, 0, "second pass must already be settled");
            assert_eq!(received, 0);
            assert_eq!(
                fresh.to_particles(),
                warm.to_particles(),
                "warm-buffer routing must match fresh routing"
            );
            warm.len()
        });
        assert_eq!(totals.iter().sum::<usize>(), 240);
    }

    #[test]
    fn arrival_buckets_become_the_staging_buckets_of_their_senders() {
        // Rank 0 holds the whole population and every other rank nothing,
        // so each rank pair carries traffic one way only: 0 → r.
        let (grid, all) = setup(300);
        let decomp = Decomp2d::columns(16, 3);
        let per_rank = run_threads(3, |comm| {
            let rank = comm.rank();
            let mine = if rank == 0 { all.clone() } else { Vec::new() };
            let mut store = whole_store(&mine, &grid);
            let owner = |c, r| decomp.owner_of_cell(c, r);
            let mut bufs = ExchangeBuffers::new();
            let (_, received) = route_binned_with(&comm, rank, owner, &mut store, &grid, &mut bufs);
            assert!(
                bufs.outgoing.iter().all(ParticleBatch::is_empty),
                "rank {rank}"
            );
            let caps: Vec<usize> = bufs.outgoing.iter().map(|b| b.id.capacity()).collect();
            (received, caps)
        });
        for (rank, (received, caps)) in per_rank.iter().enumerate().skip(1) {
            assert!(*received > 0, "rank {rank} got no traffic");
            assert!(
                caps[0] >= *received,
                "rank {rank}: the slot for rank 0 holds capacity {}, rank 0 sent {received}",
                caps[0]
            );
        }
    }

    #[test]
    fn binned_route_rehomes_and_matches_serial_sweep() {
        use pic_core::motion::advance_all;
        let (grid, all) = setup(400);
        let decomp = Decomp2d::columns(16, 4);
        let table = OwnerTable::new(&decomp.xcuts, &decomp.ycuts);
        let steps = 12;
        let mut want = all.clone();
        for _ in 0..steps {
            advance_all(&grid, &mut want);
        }
        want.sort_unstable_by_key(|p| p.id);
        let per_rank = run_threads(4, |comm| {
            let rank = comm.rank();
            let mine = local_slice(&decomp, &grid, rank, &all);
            let mut store = whole_store(&mine, &grid);
            let mut bufs = ExchangeBuffers::new();
            for _ in 0..steps {
                store.sweep(&grid);
                route_cuts(&comm, &table, &grid, &mut store, &mut bufs);
            }
            let local = store.to_particles();
            for p in &local {
                let (c, r) = grid.cell_of_point(p.x, p.y);
                assert_eq!(decomp.owner_of_cell(c, r), rank, "mis-homed survivor");
            }
            local
        });
        let mut got: Vec<Particle> = per_rank.into_iter().flatten().collect();
        got.sort_unstable_by_key(|p| p.id);
        assert_eq!(want, got, "binned rank loop diverged from serial sweep");
    }

    /// Rank 0 routes by a map that hands rank 1 every cell, rank 1 by
    /// `owner`; `stray` (id 7) starts on rank 0, and its cell is rank 0's
    /// under `owner`. The arrival check names it and its sender at once.
    fn send_a_stray(grid: Grid, stray: Particle, owner: impl Fn(usize, usize) -> usize + Sync) {
        run_threads(2, |comm| {
            let rank = comm.rank();
            let mine = if rank == 0 { vec![stray] } else { Vec::new() };
            let mut store = whole_store(&mine, &grid);
            let mut bufs = ExchangeBuffers::new();
            let to_rank_1 = |_, _| 1;
            if rank == 0 {
                route_binned_with(&comm, rank, to_rank_1, &mut store, &grid, &mut bufs)
            } else {
                route_binned_with(&comm, rank, &owner, &mut store, &grid, &mut bufs)
            }
        });
    }

    /// Under the cuts: the stray lies in rank 0's columns.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "rank 1 panicked: mis-routed migrant: particle 7 from rank 0 lies in cell"
    )]
    fn a_mis_routed_arrival_fails_where_it_lands() {
        let (grid, all) = setup(200);
        let decomp = Decomp2d::columns(16, 2);
        let owner = |c, r| decomp.owner_of_cell(c, r);
        let mut stray = *(all.iter())
            .find(|p| decomp.owner_of_cell(grid.cell_of(p.x), 0) == 0)
            .unwrap();
        stray.id = 7;
        send_a_stray(grid, stray, owner);
    }

    /// Under a VP map, whose store spans the whole grid: the stray lies in
    /// a VP of rank 0's, which a stale table on rank 0 gives rank 1.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "rank 1 panicked: mis-routed migrant: particle 7 from rank 0 lies in cell"
    )]
    fn a_mis_routed_arrival_under_a_vp_map_fails_where_it_lands() {
        let (grid, all) = setup(200);
        let vps = VpGrid::new(16, 2, 4);
        let assignment = vps.initial_assignment();
        let owner = |c, r| assignment[vps.vp_of_cell(c, r)];
        let mut stray = *(all.iter())
            .find(|p| owner(grid.cell_of(p.x), grid.cell_of(p.y)) == 0)
            .unwrap();
        stray.id = 7;
        send_a_stray(grid, stray, owner);
    }

    #[test]
    fn rehome_noop_when_all_owned() {
        let (grid, all) = setup(100);
        let decomp = Decomp2d::uniform(16, 2);
        let table = OwnerTable::new(&decomp.xcuts, &decomp.ycuts);
        let counts = run_threads(2, |comm| {
            let rank = comm.rank();
            let mine = local_slice(&decomp, &grid, rank, &all);
            let mut store = whole_store(&mine, &grid);
            let mut bufs = ExchangeBuffers::new();
            let moved = route_cuts(&comm, &table, &grid, &mut store, &mut bufs);
            assert_eq!(moved, (0, 0));
            assert_eq!(store.len(), mine.len());
            mine.len()
        });
        assert_eq!(counts.iter().sum::<usize>(), 100);
    }
}
