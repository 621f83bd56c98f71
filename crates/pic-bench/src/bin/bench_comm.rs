//! `bench_comm` — microbenchmark of the particle-exchange collective:
//! dense synchronous alltoallv vs the sparse neighbor-aware variant vs
//! the sparse *split-phase* form (start → local compute → finish), plus
//! the wire-format contrast pair (byte-serialized particle records vs
//! the typed zero-copy lane), on a neighbor-ring traffic pattern (each
//! rank has payloads only for its two ring neighbors, the shape a PIC
//! column decomposition produces).
//!
//! ```text
//! bench_comm [--out PATH] [--ranks LIST] [--iters N] [--payload LIST]
//! ```
//!
//! `--payload` takes a comma list of payload sizes in bytes (default
//! `1024,4096,16384`); the typed variants carry the equivalent particle
//! count (`payload / 76`, the wire-record size). The rows are spliced
//! into `BENCH_par.json` (default `--out`) as the top-level `"comm"`
//! section, replacing an existing one, so the archived artifact stays
//! one file; a dense/sparse crossover table is
//! also spliced into `results/par_scaling.md` when that file exists.
//! All exchange variants perform the identical compute kernel per
//! iteration; only its position relative to the wire traffic moves.
//! Ranks are OS threads, so counts beyond the host's cores
//! oversubscribe — each row carries the same `oversubscribed` flag as
//! the main benchmark.

use pic_comm::collective::allreduce_u64;
use pic_comm::comm::Communicator;
use pic_comm::comm::ReduceOp;
use pic_comm::sparse::{
    alltoallv_finish_into, alltoallv_sparse_finish_into, alltoallv_sparse_start, alltoallv_start,
    SparsePlan,
};
use pic_comm::world::run_threads;
use pic_core::particle::Particle;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    DenseSync,
    SparseSync,
    SparseSplit,
    /// Particle traffic on the byte wire: encode each bucket into its
    /// 76-byte-per-record buffer, alltoallv the bytes, decode each
    /// arrival — the serialization oracle's per-step cost.
    BytesWire,
    /// The same particle traffic on the typed lane: the buckets
    /// themselves cross the fabric by ownership — no encode, no decode,
    /// no per-particle copy.
    TypedWire,
}

impl Variant {
    const ALL: [Variant; 5] = [
        Variant::DenseSync,
        Variant::SparseSync,
        Variant::SparseSplit,
        Variant::BytesWire,
        Variant::TypedWire,
    ];

    fn name(self) -> &'static str {
        match self {
            Variant::DenseSync => "dense-sync",
            Variant::SparseSync => "sparse-sync",
            Variant::SparseSplit => "sparse-split-phase",
            Variant::BytesWire => "bytes-wire",
            Variant::TypedWire => "typed-wire",
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

fn sample_particle(id: u64) -> Particle {
    Particle {
        id,
        x: 3.5 + id as f64,
        y: 7.5,
        vx: -2.0,
        vy: 1.0,
        q: -0.3535533905932738,
        x0: 1.5,
        y0: 7.5,
        k: 2,
        m: -1,
        born_at: 0,
    }
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
    // Wire-format contrast state: the same per-neighbor particle count a
    // `payload`-byte message carries, staged as typed buckets.
    let np = (payload / Particle::WIRE_SIZE).max(1);
    let mut buckets: Vec<Vec<Particle>> = vec![Vec::new(); size];
    let mut typed_incoming: Vec<Vec<Particle>> = Vec::new();
    let mut arrivals: Vec<Particle> = Vec::new();
    let mut sink = 0u64;
    let (mut msgs, mut skipped) = (0u64, 0u64);

    let t0 = Instant::now();
    for it in 0..iters {
        match variant {
            Variant::DenseSync | Variant::SparseSync | Variant::SparseSplit => {
                for (d, buf) in outgoing.iter_mut().enumerate() {
                    buf.clear();
                    if d == left || d == right {
                        buf.resize(payload, it as u8);
                    }
                }
            }
            Variant::BytesWire | Variant::TypedWire => {
                for (d, b) in buckets.iter_mut().enumerate() {
                    b.clear();
                    if d == left || d == right {
                        b.extend((0..np).map(|i| sample_particle(i as u64 + it as u64)));
                    }
                }
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
            Variant::BytesWire => {
                // Serialization oracle: encode → wire → decode, the work
                // the typed lane deletes.
                for (d, buf) in outgoing.iter_mut().enumerate() {
                    buf.clear();
                    for p in &buckets[d] {
                        p.encode(buf);
                    }
                }
                let h = alltoallv_start(comm, &mut outgoing);
                msgs += h.messages_sent();
                alltoallv_finish_into(comm, h, &mut incoming);
                arrivals.clear();
                for buf in &incoming {
                    Particle::decode_each(buf, |p| arrivals.push(p)).expect("wire-aligned buffer");
                }
                sink ^= arrivals.last().map_or(0, |p| p.id);
                sink ^= compute_kernel(sink.wrapping_add(it as u64), work);
            }
            Variant::TypedWire => {
                let h = alltoallv_start(comm, &mut buckets);
                msgs += h.messages_sent();
                alltoallv_finish_into(comm, h, &mut typed_incoming);
                arrivals.clear();
                for b in &typed_incoming {
                    arrivals.extend_from_slice(b);
                }
                // Recycle arrival capacity into next iteration's staging
                // slots, the way the runtime's spare free-list does, so
                // steady state stays allocation-free here too.
                for (slot, b) in buckets.iter_mut().zip(typed_incoming.drain(..)) {
                    *slot = b;
                }
                sink ^= arrivals.last().map_or(0, |p| p.id);
                sink ^= compute_kernel(sink.wrapping_add(it as u64), work);
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
    let out_path = get("--out").unwrap_or("BENCH_par.json").to_string();
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

    let mut section = String::new();
    let _ = writeln!(section, "  \"comm\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            section,
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
    let _ = writeln!(section, "  ],");

    let merged = splice_comm_section(
        std::fs::read_to_string(&out_path).ok().as_deref(),
        &section,
        host_cores,
    );
    std::fs::write(&out_path, merged).expect("write benchmark artifact");
    eprintln!("wrote comm section into {out_path}");

    let md_path = "results/par_scaling.md";
    if let Ok(md) = std::fs::read_to_string(md_path) {
        let spliced = splice_crossover_table(&md, &crossover_table(&rows));
        std::fs::write(md_path, spliced).expect("write crossover table");
        eprintln!("spliced crossover table into {md_path}");
    }
}

/// The dense/sparse crossover and byte/typed payload contrast tables, as a
/// markdown section.
fn crossover_table(rows: &[Row]) -> String {
    let find = |variant: &str, ranks: usize, payload: usize| -> Option<f64> {
        rows.iter()
            .find(|r| r.variant == variant && r.ranks == ranks && r.payload == payload)
            .map(|r| r.ns_per_iter)
    };
    let mut md = String::from(
        "## Exchange microbenchmark crossover (`bench_comm`, ring traffic)\n\n\
         Per-iteration wall time of the dense synchronous alltoallv vs the \
         sparse split-phase protocol, by world size and payload. The sparse \
         protocol's fixed overhead (escape dissemination + per-neighbor \
         count wires) dominates at small world sizes. The wire pair carries the same \
         bytes as particle records: `bytes-wire` encodes/decodes the \
         76-byte oracle format, `typed-wire` moves the buckets by \
         ownership.\n\n\
         | ranks | payload B | dense ns | sparse-split ns | winner | \
         bytes-wire ns | typed-wire ns | typed speedup |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    let mut keys: Vec<(usize, usize)> = rows.iter().map(|r| (r.ranks, r.payload)).collect();
    keys.sort_unstable();
    keys.dedup();
    for (ranks, payload) in keys {
        let (Some(dense), Some(split), Some(bytes), Some(typed)) = (
            find("dense-sync", ranks, payload),
            find("sparse-split-phase", ranks, payload),
            find("bytes-wire", ranks, payload),
            find("typed-wire", ranks, payload),
        ) else {
            continue;
        };
        let winner = if dense <= split { "dense" } else { "sparse" };
        let _ = writeln!(
            md,
            "| {ranks} | {payload} | {dense:.0} | {split:.0} | {winner} | \
             {bytes:.0} | {typed:.0} | {:.2}x |",
            bytes / typed
        );
    }
    md.push('\n');
    md
}

/// Insert (or replace) the crossover section in `par_scaling.md`. The
/// section spans from its `## ` heading to the next `## ` heading (or
/// EOF), so a rerun replaces the table in place.
fn splice_crossover_table(existing: &str, section: &str) -> String {
    const HEADING: &str = "## Exchange microbenchmark crossover";
    let mut out = String::new();
    let mut skipping = false;
    let mut inserted = false;
    for line in existing.lines() {
        if line.starts_with(HEADING) {
            skipping = true;
            out.push_str(section);
            inserted = true;
            continue;
        }
        if skipping {
            if line.starts_with("## ") {
                skipping = false;
            } else {
                continue;
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    if !inserted {
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out.push_str(section);
    }
    out
}

/// Insert (or replace) the `"comm"` section in the `BENCH_par.json` artifact.
/// The artifact is our own line-oriented emission, so a line-based splice
/// is reliable: the section starts at the `  "comm": [` line and ends at
/// the next `  ],` (or `  ]`) line. Without an existing artifact a
/// minimal wrapper is produced.
fn splice_comm_section(existing: Option<&str>, section: &str, host_cores: usize) -> String {
    let Some(text) = existing else {
        return format!(
            "{{\n  \"benchmark\": \"par\",\n  \"host_cores\": {host_cores},\n{}  \"results\": []\n}}\n",
            section
        );
    };
    let lines: Vec<&str> = text.lines().collect();
    let mut out = String::new();
    let mut i = 0;
    let mut inserted = false;
    while i < lines.len() {
        let line = lines[i];
        if line.trim_start().starts_with("\"comm\": [") {
            // Skip the stale section through its closing bracket line.
            while i < lines.len() && lines[i].trim() != "]," && lines[i].trim() != "]" {
                i += 1;
            }
            i += 1; // the bracket line itself
            out.push_str(section);
            inserted = true;
            continue;
        }
        // Insert ahead of the results array on first sight.
        if !inserted && line.trim_start().starts_with("\"results\": [") {
            out.push_str(section);
            inserted = true;
        }
        out.push_str(line);
        out.push('\n');
        i += 1;
    }
    if !inserted {
        // No results array either — degenerate artifact; append before the
        // closing brace.
        let body = out.trim_end().trim_end_matches('}').to_string();
        return format!("{body}{section}}}\n");
    }
    out
}
