//! Property tests of the message-passing substrate: arbitrary payload
//! matrices and world sizes must all deliver exactly what was sent.

use pic_comm::collective::{allgatherv, allreduce_vec_u64, alltoallv_take_into};
use pic_comm::comm::ReduceOp;
use pic_comm::world::run_threads;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// alltoallv delivers every payload to exactly the right peer, for
    /// arbitrary (including empty) payload matrices.
    #[test]
    fn alltoallv_arbitrary_matrix(
        p in 1usize..6,
        seed in any::<u64>(),
    ) {
        let sizes: Vec<Vec<usize>> = (0..p)
            .map(|s| (0..p).map(|d| ((seed >> ((s * p + d) % 48)) % 17) as usize).collect())
            .collect();
        let sizes2 = sizes.clone();
        let results = run_threads(p, move |comm| {
            let me = comm.rank();
            let mut outgoing: Vec<Vec<u64>> = (0..p)
                .map(|d| vec![(me * 31 + d) as u64; sizes2[me][d]])
                .collect();
            let mut incoming = Vec::new();
            alltoallv_take_into(&comm, &mut outgoing, &mut incoming);
            incoming
        });
        for (dst, incoming) in results.into_iter().enumerate() {
            for (src, payload) in incoming.into_iter().enumerate() {
                prop_assert_eq!(payload.len(), sizes[src][dst]);
                prop_assert!(payload.iter().all(|&w| w == (src * 31 + dst) as u64));
            }
        }
    }

    /// Vector allreduce equals a serial fold for arbitrary inputs.
    #[test]
    fn allreduce_matches_serial_fold(
        p in 1usize..6,
        base in prop::collection::vec(0u64..1_000_000, 1..8),
    ) {
        let n = base.len();
        let base2 = base.clone();
        let got = run_threads(p, move |comm| {
            let mine: Vec<u64> = base2.iter().map(|&b| b + comm.rank() as u64).collect();
            allreduce_vec_u64(&comm, &mine, ReduceOp::Sum)
        });
        let expected: Vec<u64> = (0..n)
            .map(|i| (0..p).map(|r| base[i] + r as u64).sum())
            .collect();
        for g in got {
            prop_assert_eq!(&g, &expected);
        }
    }

    /// allgatherv returns payloads in rank order for arbitrary lengths.
    #[test]
    fn allgatherv_rank_order(
        p in 1usize..6,
        lens in prop::collection::vec(0usize..32, 6),
    ) {
        let lens2 = lens.clone();
        let got = run_threads(p, move |comm| {
            allgatherv(&comm, vec![comm.rank() as u64; lens2[comm.rank()]])
        });
        for g in got {
            prop_assert_eq!(g.len(), p);
            for (src, payload) in g.iter().enumerate() {
                prop_assert_eq!(payload.len(), lens[src]);
                prop_assert!(payload.iter().all(|&w| w == src as u64));
            }
        }
    }
}
