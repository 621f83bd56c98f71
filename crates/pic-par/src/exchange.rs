//! Particle exchange between ranks.
//!
//! After each step (and after every re-decomposition), particles whose
//! containing cell left the local subdomain are routed to their new owner.
//! Destinations are usually the four Cartesian neighbors (particles move
//! `2k+1 ≪ strip width` cells per step), but the implementation handles
//! arbitrary hops — the paper allows "high particle speeds, in which case
//! load imbalances have a more (pseudo-)random nature" — via an
//! owner-directed personalized all-to-all.

use pic_comm::collective::{alltoallv_finish_into, alltoallv_start, AlltoallvHandle};
use pic_comm::comm::Communicator;
use pic_core::bin::{BinnedStore, Classifier};
use pic_core::geometry::Grid;
use pic_core::soa::ParticleBatch;

/// Upper bound on recycled buckets held between steps (bounds the
/// capacity the free-list can pin on wildly asymmetric traffic).
const MAX_SPARE_BUFS: usize = 64;

/// Reusable scratch for the exchange path: per-destination staging
/// buckets and the arrival side. Holding one of these in per-rank state
/// makes the steady-state exchange loop allocation-free — buckets are
/// `clear()`ed, not dropped, and *recycled*:
/// the staging buckets themselves are the wire payloads (owned
/// [`ParticleBatch`]es, one array per field: the drain fills them with
/// slice copies, no encode or decode pass), so every send surrenders its
/// bucket (channel transfer, like an MPI send buffer), but the buckets
/// received from other ranks are appended to the store one slice per
/// field and then donate their capacity back to the free-list, so steady
/// symmetric traffic circulates buffers instead of allocating them.
#[derive(Debug, Default)]
pub struct ExchangeBuffers {
    /// Per-destination staging buckets; they go on the wire as-is (slots
    /// are emptied by the take-based all-to-all and refilled from `spare`
    /// next step).
    outgoing: Vec<ParticleBatch>,
    /// Arrival payloads (outer vector reused across steps).
    inbox: Vec<ParticleBatch>,
    /// Recycled buckets feeding the next staging pass.
    spare: Vec<ParticleBatch>,
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

    /// Prepare the per-destination staging buckets for a new exchange:
    /// size the outer vector, clear every bucket, and — sends consume the
    /// buckets themselves — refill empty-capacity slots from the free-list.
    fn begin_staging(&mut self, nranks: usize) {
        self.outgoing.resize_with(nranks, ParticleBatch::new);
        self.outgoing.iter_mut().for_each(ParticleBatch::clear);
        for slot in &mut self.outgoing {
            if slot.capacity() == 0 {
                if let Some(mut recycled) = self.spare.pop() {
                    recycled.clear();
                    *slot = recycled;
                }
            }
        }
    }

    /// Put the staged buckets on the wire and account the message counter.
    fn start_wire(&mut self, comm: &Communicator) -> AlltoallvHandle {
        self.msgs_sent += comm.size() as u64;
        alltoallv_start(comm, &mut self.outgoing)
    }

    /// Complete an exchange started by [`ExchangeBuffers::start_wire`] and
    /// hand every arrival bucket (in source-rank order, self excluded) to
    /// `sink` with its source rank, recycling the buckets afterwards.
    /// Returns the particle count delivered.
    fn finish_arrivals(
        &mut self,
        comm: &Communicator,
        handle: AlltoallvHandle,
        mut sink: impl FnMut(usize, &ParticleBatch),
    ) -> usize {
        let me = comm.rank();
        let mut received = 0usize;
        alltoallv_finish_into(comm, handle, &mut self.inbox);
        for (src, bucket) in self.inbox.iter().enumerate() {
            if src != me {
                received += bucket.len();
                sink(src, bucket);
            }
        }
        for bucket in self.inbox.drain(..) {
            if bucket.capacity() > 0 && self.spare.len() < MAX_SPARE_BUFS {
                self.spare.push(bucket);
            }
        }
        received
    }
}

/// The synchronous exchange under an owner closure: drain every mis-homed
/// particle straight out of the rank's [`BinnedStore`] (holes refilled from
/// the end of the batch — no shifting), route it to `owner(col, row)` (a
/// communicator rank), and append arrivals to the store's mixed region,
/// leaving the amortized rebin schedule untouched. Returns
/// `(sent, received)` particle counts.
///
/// The drain asks the closure one particle at a time: this is the door for
/// the benchmark's route probe and the tests. The rank step hands
/// [`route_start`] its ownership map's vector classifier instead.
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
    let inflight = route_start(comm, keep, &owner, |_| true, store, grid, bufs);
    let sent = inflight.sent;
    let received = route_binned_finish(comm, inflight, store, bufs);
    (sent, received)
}

/// An exchange whose sends are posted but whose receives have not been
/// completed — the split between [`route_start`] and
/// [`route_binned_finish`]. Dropping it without finishing strands the
/// matching receives on every peer.
#[must_use = "a started exchange must be completed with route_binned_finish"]
pub struct ExchangeInFlight {
    handle: AlltoallvHandle,
    /// The grid the leavers were routed on: what the arrival check reads
    /// an arrival's column with.
    grid: Grid,
    /// Particles this rank handed to other ranks at the start.
    pub sent: usize,
}

/// First half of the split-phase exchange, and the one staging entry:
/// drain the leavers `classifier` finds in the bins whose **global
/// column** satisfies `active` (plus the mixed region, which is always
/// tested), stage each in the bucket of `owner(col, row)`
/// ([`BinnedStore::drain_leavers_to_buckets`]), and post all sends. It
/// returns without waiting for any peer (the sends never block), so the
/// rank step passes its border columns here, sweeps the interior while the
/// messages are in flight, and calls [`route_binned_finish`] afterwards.
/// Passing `|_| true` drains everything.
///
/// The caller guarantees inactive columns hold no leavers; for a store
/// swept with per-step column stride `s`, that is exactly the bins within
/// [`BinnedStore::border_width`]`(s)` of a subdomain edge.
pub fn route_start(
    comm: &Communicator,
    classifier: impl Classifier,
    owner: impl Fn(usize, usize) -> usize,
    active: impl FnMut(usize) -> bool,
    store: &mut BinnedStore,
    grid: &Grid,
    bufs: &mut ExchangeBuffers,
) -> ExchangeInFlight {
    bufs.begin_staging(comm.size());
    let (me, nranks) = (comm.rank(), comm.size());
    let dst_of = |c, r| {
        let dst = owner(c, r);
        debug_assert!(dst < nranks && dst != me, "bad destination {dst}");
        dst
    };
    let sent = store.drain_leavers_to_buckets(grid, active, classifier, dst_of, &mut bufs.outgoing);
    let handle = bufs.start_wire(comm);
    ExchangeInFlight {
        handle,
        grid: *grid,
        sent,
    }
}

/// Second half of the split-phase binned exchange: complete the receives
/// and append every arrival bucket to the store's mixed region, one slice
/// copy per field. Returns the number of particles received. Debug builds
/// check that every arrival lies in the store's column range, and name
/// the particle and the rank that sent it if one does not.
pub fn route_binned_finish(
    comm: &Communicator,
    inflight: ExchangeInFlight,
    store: &mut BinnedStore,
    bufs: &mut ExchangeBuffers,
) -> usize {
    let grid = inflight.grid;
    bufs.finish_arrivals(comm, inflight.handle, |src, bucket| {
        if cfg!(debug_assertions) {
            check_homed(&grid, store.columns(), src, bucket);
        }
        store.append_tail(bucket);
    })
}

/// Panic unless every particle of `arrivals` (sent by rank `src`) lies in
/// the column range `cols` of the store it is about to join.
fn check_homed(grid: &Grid, cols: (usize, usize), src: usize, arrivals: &ParticleBatch) {
    for (&id, &x) in arrivals.id.iter().zip(&arrivals.x) {
        let c = grid.cell_of(x);
        assert!(
            (cols.0..cols.1).contains(&c),
            "mis-routed migrant: particle {id} from rank {src} lies in column {c}, \
             outside this store's columns {}..{}",
            cols.0,
            cols.1
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{Decomp2d, OwnerTable};
    use pic_comm::world::run_threads;
    use pic_core::bin::DEFAULT_REBIN;
    use pic_core::charge::SimConstants;
    use pic_core::dist::Distribution;
    use pic_core::init::InitConfig;
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

    fn setup(n: u64) -> (Grid, Vec<Particle>) {
        let grid = Grid::new(16).unwrap();
        let s = InitConfig::new(grid, n, Distribution::Uniform)
            .build()
            .unwrap();
        (grid, s.particles)
    }

    /// [`route_start`] as the rank step calls it under the cuts: the
    /// owner table's drain classifier and its owner lookup.
    fn start_cuts(
        comm: &Communicator,
        table: &OwnerTable,
        grid: &Grid,
        active: impl FnMut(usize) -> bool,
        store: &mut BinnedStore,
        bufs: &mut ExchangeBuffers,
    ) -> ExchangeInFlight {
        let classifier = table.map(grid, comm.rank());
        let owner = |c, r| table.owner_of_cell(c, r);
        route_start(comm, classifier, owner, active, store, grid, bufs)
    }

    /// One rank step on a subdomain store, in the rank step's order: the
    /// border columns and the mixed region swept, their leavers staged,
    /// the interior swept while the exchange is in flight, the arrivals
    /// appended, the age bumped. With `stride` `None` the interior is
    /// empty: the whole slab is the border and the drain tests every bin.
    fn rank_step(
        comm: &Communicator,
        table: &OwnerTable,
        grid: &Grid,
        stride: Option<usize>,
        store: &mut BinnedStore,
        bufs: &mut ExchangeBuffers,
    ) {
        let consts = SimConstants::CANONICAL;
        let (x0, x1) = store.columns();
        store.prepare_sweep(grid);
        let interior = match stride {
            Some(s) => {
                let w = store.border_width(s);
                let lo = (x0 + w).min(x1);
                lo..x1.saturating_sub(w).max(lo)
            }
            None => x1..x1,
        };
        store.sweep_cols(grid, &consts, x0..interior.start);
        store.sweep_cols(grid, &consts, interior.end..x1);
        store.sweep_tail_pass(grid, &consts);
        let inflight = start_cuts(comm, table, grid, |c| !interior.contains(&c), store, bufs);
        store.sweep_cols(grid, &consts, interior);
        route_binned_finish(comm, inflight, store, bufs);
        store.end_sweep();
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
        BinnedStore::new(&mine, grid, DEFAULT_REBIN)
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
    fn split_phase_start_posts_without_waiting_for_a_peer() {
        // Rank 1 starts only once rank 0's start has returned (a barrier
        // outside the communicator): a start that waited for a peer would
        // deadlock here. The world runs on a helper thread under a 10 s
        // watchdog so a hang fails, not stalls.
        let (grid, all) = setup(200);
        let decomp = Decomp2d::columns(16, 2);
        let table = OwnerTable::new(&decomp);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let started = std::sync::Barrier::new(2);
            let totals = run_threads(2, |comm| {
                let rank = comm.rank();
                let mut store = strided_store(&grid, &all, rank, 2);
                let mut bufs = ExchangeBuffers::new();
                if rank == 1 {
                    started.wait();
                }
                let inflight = start_cuts(&comm, &table, &grid, |_| true, &mut store, &mut bufs);
                if rank == 0 {
                    started.wait();
                }
                route_binned_finish(&comm, inflight, &mut store, &mut bufs);
                settled(&store, &grid, &decomp, rank)
            });
            tx.send(totals)
        });
        let totals = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("rank 0's start waited for rank 1");
        let total: usize = totals.iter().map(|t| t.0).sum();
        let idsum: u128 = totals.iter().map(|t| t.1).sum();
        assert_eq!(total, 200);
        assert_eq!(idsum, 200u128 * 201 / 2, "no particle lost or duplicated");
    }

    #[test]
    fn split_phase_start_finish_matches_synchronous() {
        // The border drain (an interior swept while the exchange is in
        // flight) against the whole-slab drain (an empty interior): the
        // tail and border bins still deliver every leaver.
        let (grid, all) = setup(300);
        let decomp = Decomp2d::columns(16, 4);
        let table = OwnerTable::new(&decomp);
        let steps = 10;
        let run = |stride: Option<usize>| {
            run_threads(4, |comm| {
                let rank = comm.rank();
                let mine = local_slice(&decomp, &grid, rank, &all);
                let ((x0, x1), _) = decomp.bounds(rank);
                let mut store = BinnedStore::new_subdomain(&mine, &grid, DEFAULT_REBIN, x0, x1);
                let mut bufs = ExchangeBuffers::new();
                for _ in 0..steps {
                    rank_step(&comm, &table, &grid, stride, &mut store, &mut bufs);
                }
                store.to_particles()
            })
        };
        let whole_slab = run(None);
        let border = run(Some(1)); // k = 0 population: stride 1
        let flat = |rs: &[Vec<Particle>]| {
            let mut v: Vec<Particle> = rs.concat();
            v.sort_unstable_by_key(|p| p.id);
            v
        };
        assert_eq!(flat(&whole_slab), flat(&border), "split-phase diverged");
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
    fn binned_route_rehomes_and_matches_serial_sweep() {
        use pic_core::motion::advance_all;
        let (grid, all) = setup(400);
        let decomp = Decomp2d::columns(16, 4);
        let table = OwnerTable::new(&decomp);
        let steps = 12;
        let mut want = all.clone();
        for _ in 0..steps {
            advance_all(&grid, &SimConstants::CANONICAL, &mut want);
        }
        want.sort_unstable_by_key(|p| p.id);
        let per_rank = run_threads(4, |comm| {
            let rank = comm.rank();
            let mine = local_slice(&decomp, &grid, rank, &all);
            let ((x0, x1), _) = decomp.bounds(rank);
            let mut store = BinnedStore::new_subdomain(&mine, &grid, DEFAULT_REBIN, x0, x1);
            let mut bufs = ExchangeBuffers::new();
            for _ in 0..steps {
                rank_step(&comm, &table, &grid, None, &mut store, &mut bufs);
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

    /// Rank 0 sends rank 1 a particle that lies in rank 0's own columns:
    /// the arrival append names it and its sender at once, not the next
    /// sort.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "rank 1 panicked: mis-routed migrant: particle 7 from rank 0 lies in column"
    )]
    fn a_mis_routed_arrival_fails_where_it_lands() {
        let (grid, all) = setup(200);
        let decomp = Decomp2d::columns(16, 2);
        let mut stray = *(all.iter())
            .find(|p| decomp.owner_of_cell(grid.cell_of(p.x), 0) == 0)
            .unwrap();
        stray.id = 7;
        run_threads(2, |comm| {
            let rank = comm.rank();
            let ((x0, x1), _) = decomp.bounds(rank);
            let mine = if rank == 0 { vec![stray] } else { Vec::new() };
            let mut store = BinnedStore::new_subdomain(&mine, &grid, DEFAULT_REBIN, x0, x1);
            let mut bufs = ExchangeBuffers::new();
            // Rank 0 evicts everything to rank 1; rank 1 keeps everything.
            let classifier = |_, _| rank == 1;
            let inflight = route_start(
                &comm,
                classifier,
                |_, _| 1,
                |_| true,
                &mut store,
                &grid,
                &mut bufs,
            );
            route_binned_finish(&comm, inflight, &mut store, &mut bufs)
        });
    }

    #[test]
    fn rehome_noop_when_all_owned() {
        let (grid, all) = setup(100);
        let decomp = Decomp2d::uniform(16, 2);
        let table = OwnerTable::new(&decomp);
        let counts = run_threads(2, |comm| {
            let rank = comm.rank();
            let mine = local_slice(&decomp, &grid, rank, &all);
            let ((x0, x1), _) = decomp.bounds(rank);
            let mut store = BinnedStore::new_subdomain(&mine, &grid, DEFAULT_REBIN, x0, x1);
            let mut bufs = ExchangeBuffers::new();
            let inflight = start_cuts(&comm, &table, &grid, |_| true, &mut store, &mut bufs);
            assert_eq!(inflight.sent, 0);
            assert_eq!(
                route_binned_finish(&comm, inflight, &mut store, &mut bufs),
                0
            );
            assert_eq!(store.len(), mine.len());
            mine.len()
        });
        assert_eq!(counts.iter().sum::<usize>(), 100);
    }
}
