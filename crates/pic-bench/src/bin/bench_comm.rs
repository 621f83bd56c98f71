//! `bench_comm` — microbenchmark of the particle-exchange collective:
//! dense synchronous alltoallv vs the sparse neighbor-aware variant vs
//! the sparse *split-phase* form (start → local compute → finish), on a
//! neighbor-ring traffic pattern (each rank has payloads only for its two
//! ring neighbors, the shape a PIC column decomposition produces).
//!
//! ```text
//! bench_comm [--out PATH] [--ranks LIST] [--iters N] [--payload LIST]
//! ```
//!
//! `--payload` takes a comma list of payload sizes in bytes (default
//! `1024,4096,16384`). The rows are written as one JSON object to
//! `--out PATH`, or to stdout without it; the dense/sparse crossover
//! table kept in CHANGES.md (PR 21) was read off such a run.
//! All exchange variants perform the identical compute kernel per
//! iteration; only its position relative to the wire traffic moves.
//! Ranks are OS threads, so counts beyond the host's cores
//! oversubscribe — each row carries an `oversubscribed` flag.

use pic_comm::collective::allreduce_u64;
use pic_comm::comm::Communicator;
use pic_comm::comm::ReduceOp;
use pic_comm::sparse::{
    alltoallv_finish_into, alltoallv_sparse_finish_into, alltoallv_sparse_start, alltoallv_start,
    SparsePlan,
};
use pic_comm::world::run_threads;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    DenseSync,
    SparseSync,
    SparseSplit,
}

impl Variant {
    const ALL: [Variant; 3] = [
        Variant::DenseSync,
        Variant::SparseSync,
        Variant::SparseSplit,
    ];

    fn name(self) -> &'static str {
        match self {
            Variant::DenseSync => "dense-sync",
            Variant::SparseSync => "sparse-sync",
            Variant::SparseSplit => "sparse-split-phase",
        }
    }
}

struct Row {
    variant: &'static str,
    ranks: usize,
    payload: usize,
    oversubscribed: bool,
    /// Max over ranks of the mean wall time per iteration.
    ns_per_iter: f64,
    /// Global wire messages (payload + count + escape rounds) per iteration.
    msgs_per_iter: f64,
    /// Payload messages the sparse protocol elided per iteration.
    skipped_per_iter: f64,
}

/// The stand-in for the interior sweep: enough arithmetic to give the
/// in-flight messages something to hide behind. Returns a value the
/// caller folds into a sink so the loop cannot be optimized away.
fn compute_kernel(seed: u64, work: usize) -> u64 {
    let mut acc = seed;
    for i in 0..work {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
    }
    acc
}

fn bench_variant(
    comm: &Communicator,
    variant: Variant,
    iters: u32,
    payload: usize,
    work: usize,
) -> (f64, u64, u64) {
    let size = comm.size();
    let rank = comm.rank();
    // Ring neighbors: the traffic of a column decomposition.
    let left = (rank + size - 1) % size;
    let right = (rank + 1) % size;
    let mut plan = SparsePlan::new(size, rank, [left, right]);
    let mut outgoing: Vec<Vec<u8>> = vec![Vec::new(); size];
    let mut incoming: Vec<Vec<u8>> = Vec::new();
    let mut sink = 0u64;
    let (mut msgs, mut skipped) = (0u64, 0u64);

    let t0 = Instant::now();
    for it in 0..iters {
        for (d, buf) in outgoing.iter_mut().enumerate() {
            buf.clear();
            if d == left || d == right {
                buf.resize(payload, it as u8);
            }
        }
        match variant {
            Variant::DenseSync => {
                let h = alltoallv_start(comm, &mut outgoing);
                msgs += h.messages_sent();
                alltoallv_finish_into(comm, h, &mut incoming);
                sink ^= compute_kernel(sink.wrapping_add(it as u64), work);
            }
            Variant::SparseSync => {
                let h = alltoallv_sparse_start(comm, &mut outgoing, &mut plan);
                msgs += h.messages_sent();
                skipped += h.messages_skipped();
                alltoallv_sparse_finish_into(comm, h, &mut plan, &mut incoming);
                sink ^= compute_kernel(sink.wrapping_add(it as u64), work);
            }
            Variant::SparseSplit => {
                let h = alltoallv_sparse_start(comm, &mut outgoing, &mut plan);
                msgs += h.messages_sent();
                skipped += h.messages_skipped();
                // The compute runs while the wires drain — the overlap
                // window the split-phase API exists for.
                sink ^= compute_kernel(sink.wrapping_add(it as u64), work);
                alltoallv_sparse_finish_into(comm, h, &mut plan, &mut incoming);
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as u64 / iters as u64;
    std::hint::black_box(sink);
    (ns as f64, msgs, skipped)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|s| s.as_str())
    };
    let out_path = get("--out");
    let rank_counts: Vec<usize> = get("--ranks")
        .unwrap_or("2,4,8")
        .split(',')
        .map(|t| t.trim().parse().expect("bad --ranks entry"))
        .collect();
    let iters: u32 = get("--iters").map_or(2000, |v| v.parse().expect("bad --iters"));
    let payloads: Vec<usize> = get("--payload")
        .unwrap_or("1024,4096,16384")
        .split(',')
        .map(|t| t.trim().parse().expect("bad --payload entry"))
        .collect();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut rows = Vec::new();
    for &payload in &payloads {
        // Compute sized to roughly a payload's worth of touches per rank.
        let work = payload;
        for &ranks in &rank_counts {
            for variant in Variant::ALL {
                let results = run_threads(ranks, |comm| {
                    let (ns, msgs, skipped) = bench_variant(&comm, variant, iters, payload, work);
                    // Slowest rank bounds the step; message totals are global.
                    let ns_max = allreduce_u64(&comm, ns as u64, ReduceOp::Max);
                    let msgs_tot = allreduce_u64(&comm, msgs, ReduceOp::Sum);
                    let skip_tot = allreduce_u64(&comm, skipped, ReduceOp::Sum);
                    (ns_max, msgs_tot, skip_tot)
                });
                let (ns_max, msgs_tot, skip_tot) = results[0];
                let row = Row {
                    variant: variant.name(),
                    ranks,
                    payload,
                    oversubscribed: ranks > host_cores,
                    ns_per_iter: ns_max as f64,
                    msgs_per_iter: msgs_tot as f64 / iters as f64,
                    skipped_per_iter: skip_tot as f64 / iters as f64,
                };
                eprintln!(
                    "{:<18} ranks={} payload={:<6} {:>10.0} ns/iter msgs/iter={:.1} \
                     skipped/iter={:.1}",
                    row.variant,
                    row.ranks,
                    row.payload,
                    row.ns_per_iter,
                    row.msgs_per_iter,
                    row.skipped_per_iter
                );
                rows.push(row);
            }
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"comm\",");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"comm\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"variant\": \"{}\", \"ranks\": {}, \"oversubscribed\": {}, \
             \"iters\": {iters}, \"payload_bytes\": {}, \
             \"ns_per_iter\": {:.0}, \"msgs_per_iter\": {:.1}, \
             \"msgs_skipped_per_iter\": {:.1}}}{comma}",
            r.variant,
            r.ranks,
            r.oversubscribed,
            r.payload,
            r.ns_per_iter,
            r.msgs_per_iter,
            r.skipped_per_iter
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    pic_bench::report::write_or_print(out_path, &json);
}
