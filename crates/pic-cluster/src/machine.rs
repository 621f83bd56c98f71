//! Hierarchical machine model: nodes × sockets × cores.
//!
//! Cores are numbered contiguously (core `c` lives in socket `c / cps`,
//! node `c / (cps·spn)`), matching the usual block placement of MPI ranks
//! on a Cray system. The model exists to classify the *distance* of a
//! message, which selects the latency/bandwidth bucket in
//! [`crate::cost::CostModel`].

/// Communication distance class between two cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Distance {
    /// Same core (e.g. two VPs co-located on one core): a memcpy.
    SameCore,
    /// Different cores, same socket: shared L3.
    SameSocket,
    /// Different sockets, same node: QPI hop.
    SameNode,
    /// Different nodes: network (Aries in the reference machine).
    Remote,
}

impl Distance {
    /// Index into per-distance cost arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Distance::SameCore => 0,
            Distance::SameSocket => 1,
            Distance::SameNode => 2,
            Distance::Remote => 3,
        }
    }

    pub const ALL: [Distance; 4] = [
        Distance::SameCore,
        Distance::SameSocket,
        Distance::SameNode,
        Distance::Remote,
    ];
}

/// A homogeneous cluster: `nodes` nodes, each with `sockets_per_node`
/// sockets of `cores_per_socket` cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineModel {
    pub nodes: usize,
    pub sockets_per_node: usize,
    pub cores_per_socket: usize,
}

impl MachineModel {
    /// An Edison-like node layout (2 × 12-core sockets) with enough nodes
    /// for `cores` cores.
    pub fn edison(cores: usize) -> MachineModel {
        assert!(cores > 0);
        let per_node = 24;
        MachineModel {
            nodes: cores.div_ceil(per_node),
            sockets_per_node: 2,
            cores_per_socket: 12,
        }
    }

    /// Total number of cores.
    #[inline]
    pub fn total_cores(&self) -> usize {
        self.nodes * self.sockets_per_node * self.cores_per_socket
    }

    #[inline]
    pub fn cores_per_node(&self) -> usize {
        self.sockets_per_node * self.cores_per_socket
    }

    /// Node index of a core.
    #[inline]
    pub fn node_of(&self, core: usize) -> usize {
        core / self.cores_per_node()
    }

    /// Global socket index of a core.
    #[inline]
    pub fn socket_of(&self, core: usize) -> usize {
        core / self.cores_per_socket
    }

    /// Distance class between two cores.
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> Distance {
        if a == b {
            Distance::SameCore
        } else if self.socket_of(a) == self.socket_of(b) {
            Distance::SameSocket
        } else if self.node_of(a) == self.node_of(b) {
            Distance::SameNode
        } else {
            Distance::Remote
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edison_layout() {
        let m = MachineModel::edison(192);
        assert_eq!(m.nodes, 8);
        assert_eq!(m.total_cores(), 192);
        assert_eq!(m.cores_per_node(), 24);
    }

    #[test]
    fn edison_rounds_up_partial_nodes() {
        let m = MachineModel::edison(25);
        assert_eq!(m.nodes, 2);
        assert_eq!(m.total_cores(), 48);
    }

    #[test]
    fn distance_classes() {
        let m = MachineModel::edison(48);
        assert_eq!(m.distance(0, 0), Distance::SameCore);
        assert_eq!(m.distance(0, 11), Distance::SameSocket);
        assert_eq!(m.distance(0, 12), Distance::SameNode);
        assert_eq!(m.distance(0, 23), Distance::SameNode);
        assert_eq!(m.distance(0, 24), Distance::Remote);
        assert_eq!(m.distance(25, 30), Distance::SameSocket);
    }

    #[test]
    fn distance_is_symmetric() {
        let m = MachineModel::edison(96);
        for &(a, b) in &[(0usize, 13), (5, 40), (70, 95), (12, 12)] {
            assert_eq!(m.distance(a, b), m.distance(b, a));
        }
    }

    #[test]
    fn distance_indices_distinct() {
        let idxs: Vec<usize> = Distance::ALL.iter().map(|d| d.index()).collect();
        assert_eq!(idxs, vec![0, 1, 2, 3]);
    }
}
