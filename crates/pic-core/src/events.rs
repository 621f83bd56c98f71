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
