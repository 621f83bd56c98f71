//! Bulk-synchronous phase simulator.
//!
//! The PIC PRK is a BSP code: every step, each rank computes on its
//! particles, exchanges leavers with its neighbors, and (implicitly)
//! synchronizes. The modeled step time is therefore
//!
//! ```text
//! t_step = max over cores (compute_ns + comm_ns) + sync_ns(P)
//! ```
//!
//! Load-balancing phases add their own serialized or per-core terms. The
//! simulator accumulates totals plus the imbalance statistics the paper
//! discusses (max particles per core, max/avg compute ratio).

use crate::cost::CostModel;
use crate::machine::MachineModel;

/// Accumulating BSP time model for one run.
#[derive(Debug, Clone)]
pub struct BspSimulator {
    cost: CostModel,
    cores: usize,
    steps: u64,
    total_ns: f64,
    compute_max_ns: f64,
    compute_sum_ns: f64,
    comm_max_ns: f64,
    lb_ns: f64,
    migrated_bytes: f64,
}

impl BspSimulator {
    /// `cores` is the number of *active* cores (≤ the machine's total).
    pub fn new(machine: MachineModel, cost: CostModel, cores: usize) -> BspSimulator {
        assert!(cores >= 1 && cores <= machine.total_cores());
        BspSimulator {
            cost,
            cores,
            steps: 0,
            total_ns: 0.0,
            compute_max_ns: 0.0,
            compute_sum_ns: 0.0,
            comm_max_ns: 0.0,
            lb_ns: 0.0,
            migrated_bytes: 0.0,
        }
    }

    /// Record one simulation step given per-core compute and communication
    /// nanoseconds. Slices must have length `cores`.
    pub fn step(&mut self, compute_ns: &[f64], comm_ns: &[f64]) {
        debug_assert_eq!(compute_ns.len(), self.cores);
        debug_assert_eq!(comm_ns.len(), self.cores);
        let mut max_total = 0.0f64;
        let mut max_compute = 0.0f64;
        let mut max_comm = 0.0f64;
        let mut sum_compute = 0.0f64;
        for i in 0..self.cores {
            let t = compute_ns[i] + comm_ns[i];
            max_total = max_total.max(t);
            max_compute = max_compute.max(compute_ns[i]);
            max_comm = max_comm.max(comm_ns[i]);
            sum_compute += compute_ns[i];
        }
        self.steps += 1;
        self.total_ns += max_total + self.cost.sync_ns(self.cores);
        self.compute_max_ns += max_compute;
        self.compute_sum_ns += sum_compute;
        self.comm_max_ns += max_comm;
    }

    /// Record a load-balancing phase: `critical_path_ns` is added to wall
    /// time (it happens while all ranks wait), `bytes` to the migration
    /// traffic tally.
    pub fn lb_phase(&mut self, critical_path_ns: f64, bytes: f64) {
        self.total_ns += critical_path_ns;
        self.lb_ns += critical_path_ns;
        self.migrated_bytes += bytes;
    }

    /// Finish and summarize.
    pub fn stats(&self) -> RunStats {
        let avg_compute = if self.steps > 0 && self.cores > 0 {
            self.compute_sum_ns / self.cores as f64
        } else {
            0.0
        };
        RunStats {
            seconds: self.total_ns * 1e-9,
            steps: self.steps,
            compute_seconds: self.compute_max_ns * 1e-9,
            comm_seconds: self.comm_max_ns * 1e-9,
            lb_seconds: self.lb_ns * 1e-9,
            migrated_bytes: self.migrated_bytes,
            imbalance: if avg_compute > 0.0 {
                self.compute_max_ns / avg_compute
            } else {
                1.0
            },
        }
    }
}

/// Summary of one modeled run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Modeled wall-clock seconds.
    pub seconds: f64,
    /// Steps executed.
    pub steps: u64,
    /// Seconds on the compute critical path (Σ per-step max compute).
    pub compute_seconds: f64,
    /// Seconds on the communication critical path.
    pub comm_seconds: f64,
    /// Seconds spent in load-balancing phases.
    pub lb_seconds: f64,
    /// Total bytes migrated by load balancing.
    pub migrated_bytes: f64,
    /// Load imbalance: (Σ max compute) / (Σ avg compute); 1.0 = perfect.
    pub imbalance: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(cores: usize) -> BspSimulator {
        BspSimulator::new(MachineModel::edison(cores), CostModel::edison_like(), cores)
    }

    #[test]
    fn perfectly_balanced_run() {
        let mut s = sim(4);
        for _ in 0..10 {
            s.step(&[100.0; 4], &[0.0; 4]);
        }
        let st = s.stats();
        assert_eq!(st.steps, 10);
        assert!((st.imbalance - 1.0).abs() < 1e-12);
        // 10 × (100 + sync)
        let sync = CostModel::edison_like().sync_ns(4);
        assert!((st.seconds - 10.0 * (100.0 + sync) * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn imbalance_ratio() {
        let mut s = sim(2);
        s.step(&[300.0, 100.0], &[0.0, 0.0]);
        let st = s.stats();
        // max = 300, avg = 200 → 1.5
        assert!((st.imbalance - 1.5).abs() < 1e-12);
    }

    #[test]
    fn comm_adds_to_critical_path() {
        let mut s = sim(2);
        s.step(&[100.0, 100.0], &[0.0, 50.0]);
        let st = s.stats();
        let sync = CostModel::edison_like().sync_ns(2);
        assert!((st.seconds - (150.0 + sync) * 1e-9).abs() < 1e-18);
        assert!((st.comm_seconds - 50.0e-9).abs() < 1e-18);
    }

    #[test]
    fn lb_phase_accumulates() {
        let mut s = sim(2);
        s.step(&[1.0, 1.0], &[0.0, 0.0]);
        s.lb_phase(5_000.0, 1024.0);
        let st = s.stats();
        assert!((st.lb_seconds - 5e-6).abs() < 1e-15);
        assert_eq!(st.migrated_bytes, 1024.0);
        assert!(st.seconds > 5e-6);
    }

    #[test]
    #[should_panic]
    fn too_many_cores_rejected() {
        let _ = BspSimulator::new(MachineModel::edison(24), CostModel::edison_like(), 25);
    }
}
