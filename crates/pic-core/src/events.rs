//! Dynamic particle injection and removal (paper §III-E5).
//!
//! "At a particular time `t'` we uniformly inject/remove particles in/from a
//! subdomain `R'`. This functionality can be used to stress adaptiveness of
//! the load balancing strategy, because injections/removals adjust abruptly
//! the local amount of work."
//!
//! Events are applied deterministically at the *start* of the step whose
//! index they name, before any particle moves in that step, so an injected
//! particle participates in `T − t'` steps.
//!
//! [`EventLedger`] is the one place these rules run on a binned store: the
//! serial engine holds one, and so does every rank. The AoS oracle
//! ([`crate::reference`]) keeps its own copy of the rules, on purpose.

use crate::bin::BinnedStore;
use crate::charge::SimConstants;
use crate::geometry::Grid;
use crate::init::{build_injection, SimulationSetup};

/// A rectangular cell region `[x0, x1) × [y0, y1)` of the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    pub x0: usize,
    pub x1: usize,
    pub y0: usize,
    pub y1: usize,
}

impl Region {
    /// Region covering the whole grid.
    pub fn whole(ncells: usize) -> Region {
        Region {
            x0: 0,
            x1: ncells,
            y0: 0,
            y1: ncells,
        }
    }

    /// Number of cells in the region.
    pub fn cell_count(&self) -> usize {
        self.x1.saturating_sub(self.x0) * self.y1.saturating_sub(self.y0)
    }

    /// Whether the cell `(col, row)` lies inside the region.
    #[inline]
    pub fn contains_cell(&self, col: usize, row: usize) -> bool {
        col >= self.x0 && col < self.x1 && row >= self.y0 && row < self.y1
    }

    /// Whether a continuous position lies inside the region.
    #[inline]
    pub fn contains_point(&self, x: f64, y: f64) -> bool {
        x >= self.x0 as f64 && x < self.x1 as f64 && y >= self.y0 as f64 && y < self.y1 as f64
    }
}

/// What a timed event does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Uniformly inject `count` new particles into the region; they follow
    /// the usual spec (cell-center placement, eq. 3 charges) with the given
    /// motion parameters.
    Inject {
        count: u64,
        /// Horizontal stride parameter (cells per step = 2k+1).
        k: u32,
        /// Vertical cells per step.
        m: i32,
        /// Drift direction (+1 right, −1 left).
        dir: i8,
    },
    /// Remove up to `count` particles currently inside the region
    /// (deterministically: the lowest-id residents first).
    Remove { count: u64 },
}

/// A timed event: applied at the start of step `at_step`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    pub at_step: u32,
    pub region: Region,
    pub kind: EventKind,
}

/// The removal rule's selection: keep the `count` smallest of the distinct
/// `ids` (in no particular order) and return the largest one kept, `None`
/// when none is. Inside the event's region, `id <= cutoff` then names
/// exactly the doomed particles, so a store can remove them in one
/// order-preserving pass without a set. A selection, not a sort: O(len).
pub fn lowest_ids(ids: &mut Vec<u64>, count: u64) -> Option<u64> {
    let keep = usize::try_from(count).map_or(ids.len(), |c| c.min(ids.len()));
    if keep == 0 {
        ids.clear();
        return None;
    }
    let cutoff = *ids.select_nth_unstable(keep - 1).1;
    ids.truncate(keep);
    Some(cutoff)
}

impl Event {
    pub fn inject(at_step: u32, region: Region, count: u64, k: u32, m: i32, dir: i8) -> Event {
        Event {
            at_step,
            region,
            kind: EventKind::Inject { count, k, m, dir },
        }
    }

    pub fn remove(at_step: u32, region: Region, count: u64) -> Event {
        Event {
            at_step,
            region,
            kind: EventKind::Remove { count },
        }
    }
}

/// The event ledger of one store: the step-sorted schedule with its cursor,
/// the id counter injections draw from, and the id checksum the final
/// population must add up to. A store that holds a share of the population
/// (a rank) applies every event through its own ledger, so the ledgers stay
/// identical across stores without a broadcast; what differs is only which
/// newcomers a store keeps, and how the stores agree on a removal.
#[derive(Debug, Clone)]
pub struct EventLedger {
    grid: Grid,
    consts: SimConstants,
    events: Vec<Event>,
    next_event: usize,
    next_id: u64,
    expected_id_sum: u128,
}

impl EventLedger {
    pub fn new(setup: &SimulationSetup) -> EventLedger {
        let mut events = setup.events.clone();
        events.sort_by_key(|e| e.at_step);
        EventLedger {
            grid: setup.grid,
            consts: setup.consts,
            events,
            next_event: 0,
            next_id: setup.next_id,
            expected_id_sum: setup.initial_id_sum(),
        }
    }

    /// Sum of the ids that must be alive after the events applied so far.
    pub fn expected_id_sum(&self) -> u128 {
        self.expected_id_sum
    }

    /// Apply the events due at `step` (0-based) to `store`. Injections are
    /// materialized identically by every ledger (same id assignment) and
    /// stored where `owns(col, row)` holds. A removal takes
    /// the `count` lowest in-region ids of the whole population: the store
    /// offers its own `count` lowest (the global ones are among them),
    /// `agree` turns that offer into every store's offers — the identity
    /// for a store that holds the whole population, a gather across ranks
    /// otherwise — and the largest id of the selection from those is the
    /// cutoff at or below which the store removes in its region: one
    /// order-preserving pass, no id set.
    pub fn apply_due(
        &mut self,
        step: u32,
        store: &mut BinnedStore,
        owns: impl Fn(usize, usize) -> bool,
        mut agree: impl FnMut(Vec<u64>) -> Vec<u64>,
    ) {
        while self.next_event < self.events.len() && self.events[self.next_event].at_step == step {
            let e = self.events[self.next_event];
            self.next_event += 1;
            match e.kind {
                EventKind::Inject { count, k, m, dir } => {
                    let newcomers = build_injection(
                        self.grid,
                        self.consts,
                        e.region,
                        count,
                        k,
                        m,
                        dir,
                        step,
                        &mut self.next_id,
                    );
                    for p in &newcomers {
                        self.expected_id_sum += p.id as u128;
                        let (c, r) = self.grid.cell_of_point(p.x, p.y);
                        if owns(c, r) {
                            store.push_tail(*p);
                        }
                    }
                }
                EventKind::Remove { count } => {
                    let mut offered = ids_in_region(store, &e.region);
                    lowest_ids(&mut offered, count);
                    let mut all = agree(offered);
                    if let Some(cutoff) = lowest_ids(&mut all, count) {
                        self.expected_id_sum -= all.iter().map(|&id| id as u128).sum::<u128>();
                        store.remove_in_region_upto(&e.region, cutoff);
                    }
                }
            }
        }
    }
}

/// Ids of the particles `store` holds inside `region`.
fn ids_in_region(store: &BinnedStore, region: &Region) -> Vec<u64> {
    let batch = store.batch();
    (0..batch.len())
        .filter(|&i| region.contains_point(batch.x[i], batch.y[i]))
        .map(|i| batch.id[i])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_membership() {
        let r = Region {
            x0: 2,
            x1: 5,
            y0: 1,
            y1: 3,
        };
        assert!(r.contains_cell(2, 1));
        assert!(r.contains_cell(4, 2));
        assert!(!r.contains_cell(5, 2));
        assert!(!r.contains_cell(4, 3));
        assert!(r.contains_point(2.0, 1.0));
        assert!(r.contains_point(4.999, 2.999));
        assert!(!r.contains_point(5.0, 2.0));
        assert_eq!(r.cell_count(), 6);
    }

    #[test]
    fn whole_grid_region() {
        let r = Region::whole(8);
        assert_eq!(r.cell_count(), 64);
        assert!(r.contains_cell(7, 7));
    }

    #[test]
    fn lowest_ids_keeps_the_smallest_and_names_the_cutoff() {
        let all = [17u64, 3, 99, 42, 8, 23];
        for (count, want) in [
            (0u64, vec![]),
            (1, vec![3]),
            (3, vec![3, 8, 17]),
            (6, vec![3, 8, 17, 23, 42, 99]),
            (u64::MAX, vec![3, 8, 17, 23, 42, 99]),
        ] {
            let mut ids = all.to_vec();
            let cutoff = lowest_ids(&mut ids, count);
            ids.sort_unstable();
            assert_eq!(ids, want, "count {count}");
            assert_eq!(cutoff, want.last().copied(), "count {count}");
        }
        assert_eq!(lowest_ids(&mut Vec::new(), 5), None);
    }

    #[test]
    fn degenerate_region_is_empty() {
        let r = Region {
            x0: 5,
            x1: 5,
            y0: 0,
            y1: 10,
        };
        assert_eq!(r.cell_count(), 0);
        assert!(!r.contains_cell(5, 3));
    }
}
