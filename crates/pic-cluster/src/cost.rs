//! Cost model: how many nanoseconds each primitive operation takes.
//!
//! Defaults are calibrated to the paper's platform (Edison, 2.4 GHz
//! Ivy Bridge, Aries interconnect) so the *shapes* of the reproduced
//! figures — who wins, rough factors, crossovers — land where the paper's
//! do. The headline calibration: the strong-scaling experiment (2,998²
//! cells, 600 k particles, 6,000 steps) takes ≈500 s serial in the paper's
//! Figure 6-left ⇒ ≈140 ns per particle-step (four Coulomb evaluations
//! with `sqrt` + divisions).

use crate::machine::Distance;

/// Nanosecond costs of the model's primitive operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Compute cost per particle per step (force + integration).
    pub particle_ns: f64,
    /// Per-message latency by [`Distance`] index.
    pub msg_latency_ns: [f64; 4],
    /// Per-byte transfer cost by [`Distance`] index.
    pub byte_ns: [f64; 4],
    /// Per-step synchronization cost: `sync_ns_per_log2 × log₂(cores)`
    /// (allreduce/barrier trees).
    pub sync_ns_per_log2: f64,
    /// Fixed bookkeeping cost per load-balancing invocation per core
    /// (count reductions, decision logic).
    pub lb_decision_ns: f64,
    /// Per-VP scheduling overhead per step (context switch between
    /// user-level threads in the AMPI model).
    pub vp_sched_ns: f64,
    /// Wire bytes per migrated/communicated particle.
    pub particle_bytes: f64,
    /// Bytes per migrated grid cell (charge value + bookkeeping).
    pub cell_bytes: f64,
    /// Fixed cost of one runtime (AMPI/Charm++-style) load-balancer
    /// invocation: quiescence detection + centralized strategy setup.
    pub ampi_lb_base_ns: f64,
    /// LB-invocation cost per tree level (`× ⌈log₂ cores⌉`): gathering
    /// instrumented loads to / broadcasting decisions from the central
    /// strategy.
    pub ampi_lb_tree_ns: f64,
    /// Additional LB-invocation cost per VP (strategy input size,
    /// PUP sizing passes).
    pub ampi_lb_per_vp_ns: f64,
    /// Per-message scheduling overhead of the virtualized runtime (user-
    /// level thread wakeup + message routing through the scheduler),
    /// charged on top of the transport cost for VP-to-VP messages.
    pub ampi_msg_overhead_ns: f64,
}

impl CostModel {
    /// Edison-like calibration (see module docs).
    pub fn edison_like() -> CostModel {
        CostModel {
            particle_ns: 140.0,
            // SameCore ≈ memcpy handoff; SameSocket via shared L3;
            // SameNode via QPI; Remote via Aries (~1.5 µs one-sided).
            msg_latency_ns: [80.0, 400.0, 800.0, 1_800.0],
            // ~inverse bandwidth: 30 GB/s socket, 12 GB/s QPI, 8 GB/s NIC.
            byte_ns: [0.008, 0.033, 0.083, 0.125],
            sync_ns_per_log2: 1_200.0,
            lb_decision_ns: 25_000.0,
            vp_sched_ns: 250.0,
            particle_bytes: 88.0, // a 76-byte particle record + framing
            cell_bytes: 8.0,
            // Calibrated against the paper's Figure 5 sensitivity: at 192
            // cores the gap between F = 20 and F = 160 implies roughly
            // 0.2–0.4 s per load-balancer invocation (Charm++ 6.6.1-era
            // centralized strategies with PUP-based migration). The gather
            // is tree-structured, so the cost grows with log₂(cores) and
            // with the VP count, not linearly with cores.
            ampi_lb_base_ns: 150e6,
            ampi_lb_tree_ns: 10e6,
            ampi_lb_per_vp_ns: 10_000.0,
            ampi_msg_overhead_ns: 2_500.0,
        }
    }

    /// Total fixed cost of one runtime LB invocation on `cores` cores with
    /// `vps` virtual processors (migration volume charged separately).
    #[inline]
    pub fn ampi_lb_invocation_ns(&self, cores: usize, vps: usize) -> f64 {
        let levels = if cores <= 1 {
            0.0
        } else {
            (cores as f64).log2().ceil()
        };
        self.ampi_lb_base_ns + self.ampi_lb_tree_ns * levels + self.ampi_lb_per_vp_ns * vps as f64
    }

    /// Cost of one message of `bytes` bytes over `dist`.
    #[inline]
    pub fn msg_cost_ns(&self, dist: Distance, bytes: f64) -> f64 {
        self.msg_latency_ns[dist.index()] + bytes * self.byte_ns[dist.index()]
    }

    /// Cost of communicating `count` particles over `dist` as one message.
    #[inline]
    pub fn particle_msg_ns(&self, dist: Distance, count: f64) -> f64 {
        if count <= 0.0 {
            // Even an empty exchange round-trips a header in the reference
            // implementations (they post sends/recvs unconditionally).
            return self.msg_latency_ns[dist.index()];
        }
        self.msg_cost_ns(dist, count * self.particle_bytes)
    }

    /// Cost of migrating a subgrid of `cells` cells plus `particles`
    /// particles over `dist`.
    #[inline]
    pub fn migration_ns(&self, dist: Distance, cells: f64, particles: f64) -> f64 {
        self.msg_cost_ns(
            dist,
            cells * self.cell_bytes + particles * self.particle_bytes,
        )
    }

    /// Per-step synchronization cost for a `cores`-core job.
    #[inline]
    pub fn sync_ns(&self, cores: usize) -> f64 {
        if cores <= 1 {
            0.0
        } else {
            self.sync_ns_per_log2 * (cores as f64).log2().ceil()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_orders_with_distance() {
        let c = CostModel::edison_like();
        for w in Distance::ALL.windows(2) {
            assert!(
                c.msg_latency_ns[w[0].index()] < c.msg_latency_ns[w[1].index()],
                "latency must grow with distance"
            );
            assert!(c.byte_ns[w[0].index()] < c.byte_ns[w[1].index()]);
        }
    }

    #[test]
    fn msg_cost_latency_plus_bandwidth() {
        let c = CostModel::edison_like();
        let small = c.msg_cost_ns(Distance::Remote, 0.0);
        let big = c.msg_cost_ns(Distance::Remote, 1_000_000.0);
        assert_eq!(small, c.msg_latency_ns[3]);
        assert!((big - small - 125_000.0).abs() < 1.0);
    }

    #[test]
    fn empty_particle_message_costs_latency() {
        let c = CostModel::edison_like();
        assert_eq!(
            c.particle_msg_ns(Distance::SameNode, 0.0),
            c.msg_latency_ns[Distance::SameNode.index()]
        );
    }

    #[test]
    fn sync_cost_scales_logarithmically() {
        let c = CostModel::edison_like();
        assert_eq!(c.sync_ns(1), 0.0);
        assert!(c.sync_ns(1024) > c.sync_ns(2));
        assert_eq!(c.sync_ns(1024), 10.0 * c.sync_ns_per_log2);
    }

    #[test]
    fn serial_calibration_near_paper() {
        // 600k particles × 6000 steps at the calibrated rate ≈ 500 s,
        // matching the paper's single-core strong-scaling start point.
        let c = CostModel::edison_like();
        let serial_s = 600_000.0 * 6_000.0 * c.particle_ns * 1e-9;
        assert!(
            (400.0..650.0).contains(&serial_s),
            "serial estimate {serial_s}"
        );
    }
}
