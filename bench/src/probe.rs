//! Layer probes: isolated timings of one public function each, at the
//! volume the named workload measured. They cover the sub-layers that
//! `par.step` hides on the overlapped path (drain, wire) and two calls the
//! monolithic runs give no seam for (the balance allreduce, the VP owner
//! scan). Together with `adapter.rs` this is all the program code the
//! benchmark calls.

use crate::adapter::{Case, Runner, AMPI_D};
use pic_ampi::VpGrid;
use pic_comm::{allreduce_vec_u64, alltoallv_take_into, run_threads, ReduceOp};
use pic_core::bin::{BinnedStore, DEFAULT_REBIN};
use pic_core::particle::Particle;
use pic_par::exchange::{route_binned_with, ExchangeBuffers};
use std::hint::black_box;
use std::time::Instant;

/// What the traced run measured, which sets each probe's volume.
#[derive(Debug, Clone, Copy, Default)]
pub struct Volume {
    /// Particles one rank sends away in one step, on average.
    pub migrants_per_rank_step: u64,
    pub balance_rounds: u64,
}

/// A probe that does not apply to the workload reads 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    pub drain_ns_per_migrant: f64,
    pub wire_ns_per_exchange: f64,
    /// Computed, not measured: particles on the wire × `size_of::<Particle>()`.
    pub wire_bytes_per_exchange: f64,
    pub allreduce_ns_per_call: f64,
    pub vp_route_ns_per_resident: f64,
}

pub fn run(case: &Case, volume: Volume) -> Probes {
    let mut p = Probes::default();
    match case.workload.runner {
        Runner::Serial => {}
        Runner::Cut(_) => {
            if volume.migrants_per_rank_step > 0 {
                p.drain_ns_per_migrant = drain(case, volume.migrants_per_rank_step);
                p.wire_ns_per_exchange = wire(case, volume.migrants_per_rank_step);
                p.wire_bytes_per_exchange = (case.ranks as u64
                    * volume.migrants_per_rank_step
                    * std::mem::size_of::<Particle>() as u64)
                    as f64;
            }
            if volume.balance_rounds > 0 {
                p.allreduce_ns_per_call = allreduce(case);
            }
        }
        Runner::Ampi => p.vp_route_ns_per_resident = vp_route(case),
    }
    p
}

/// `BinnedStore::drain_leavers_into` + `push_tail` on rank 0's store: the
/// rightmost columns holding `migrants` particles leave and come back.
fn drain(case: &Case, migrants: u64) -> f64 {
    const ROUNDS: usize = 5;
    let setup = &case.cfg.setup;
    let grid = &setup.grid;
    let hi = (grid.ncells() / case.ranks).max(1);
    let locals: Vec<Particle> = setup
        .particles
        .iter()
        .filter(|p| grid.cell_of(p.x) < hi)
        .copied()
        .collect();
    let mut per_col = vec![0u64; hi];
    for p in &locals {
        per_col[grid.cell_of(p.x)] += 1;
    }
    let (mut lo, mut held) = (hi, 0u64);
    while lo > 0 && held < migrants {
        lo -= 1;
        held += per_col[lo];
    }
    let mut store = BinnedStore::new_subdomain(&locals, grid, DEFAULT_REBIN, 0, hi);
    let mut out: Vec<Particle> = Vec::with_capacity(held as usize);
    let (mut ns, mut drained) = (0u64, 0u64);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        drained += store.drain_leavers_into(grid, |c, _| c < lo, |p| out.push(p)) as u64;
        for p in out.drain(..) {
            store.push_tail(p);
        }
        ns += t.elapsed().as_nanos() as u64;
        // Fold the tail back into bin order, untimed, so every round
        // compacts the same layout.
        store.rebin(grid);
    }
    black_box(store.len());
    ns as f64 / drained.max(1) as f64
}

/// Typed `alltoallv` between the ranks: each sends `migrants` particles to
/// its right neighbour; buffers circulate as they do in the rank loop.
fn wire(case: &Case, migrants: u64) -> f64 {
    const EXCHANGES: u32 = 200;
    let sample = case.cfg.setup.particles[0];
    let per_rank = run_threads(case.ranks, |comm| {
        let (me, size) = (comm.rank(), comm.size());
        let (to, from) = ((me + 1) % size, (me + size - 1) % size);
        let mut outgoing: Vec<Vec<Particle>> = vec![Vec::new(); size];
        outgoing[to] = vec![sample; migrants as usize];
        let mut incoming: Vec<Vec<Particle>> = Vec::new();
        let t = Instant::now();
        for _ in 0..EXCHANGES {
            alltoallv_take_into(&comm, &mut outgoing, &mut incoming);
            std::mem::swap(&mut outgoing[to], &mut incoming[from]);
        }
        let ns = t.elapsed().as_nanos() as f64;
        black_box(&outgoing);
        ns / EXCHANGES as f64
    });
    per_rank.into_iter().fold(0.0, f64::max)
}

/// `allreduce_vec_u64` of 1024 entries — the balance round's histogram
/// gather at this grid size.
fn allreduce(case: &Case) -> f64 {
    const CALLS: u32 = 1000;
    let per_rank = run_threads(case.ranks, |comm| {
        let mine = vec![comm.rank() as u64 + 1; 1024];
        let t = Instant::now();
        for _ in 0..CALLS {
            black_box(allreduce_vec_u64(&comm, &mine, ReduceOp::Sum));
        }
        t.elapsed().as_nanos() as f64 / CALLS as f64
    });
    per_rank.into_iter().fold(0.0, f64::max)
}

/// `route_binned_with` under the `VpGrid` owner closure on full-grid
/// stores with nothing to send: the scan `run_ampi` pays every step.
fn vp_route(case: &Case) -> f64 {
    const SCANS: u32 = 5;
    let setup = &case.cfg.setup;
    let grid = &setup.grid;
    let vps = VpGrid::new(grid.ncells(), case.ranks, AMPI_D);
    let assignment = vps.initial_assignment();
    let owner = |c: usize, r: usize| assignment[vps.vp_of_cell(c, r)];
    let per_rank = run_threads(case.ranks, |comm| {
        let (me, size) = (comm.rank(), comm.size());
        let locals: Vec<Particle> = setup
            .particles
            .iter()
            .filter(|p| {
                let (c, r) = grid.cell_of_point(p.x, p.y);
                owner(c, r) == me
            })
            .copied()
            .collect();
        let mut store = BinnedStore::new(&locals, grid, DEFAULT_REBIN);
        let mut bufs = ExchangeBuffers::new();
        bufs.enable_sparse(size, me, 0..size);
        let t = Instant::now();
        for _ in 0..SCANS {
            let (sent, _) = route_binned_with(&comm, me, owner, &mut store, grid, &mut bufs);
            assert_eq!(sent, 0, "the route probe must have no migrants");
        }
        (store.len(), t.elapsed().as_nanos() as f64 / SCANS as f64)
    });
    // The skewed input leaves one rank nearly empty; the fullest rank is
    // the one whose scan the run waits for.
    let (residents, ns) = per_rank
        .into_iter()
        .max_by_key(|(residents, _)| *residents)
        .unwrap_or((0, 0.0));
    ns / residents.max(1) as f64
}
