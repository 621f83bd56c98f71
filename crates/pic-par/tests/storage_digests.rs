//! Storage-order digests: where every particle *sits* in its rank's store
//! at the end of a run, and how many particles every exchange moved,
//! held to a fixed answer.
//!
//! The per-id suites (`rank_kernel_equivalence`, `cross_impl_equivalence`)
//! sort by id before they compare, so they cannot see a drain that emits
//! the same leavers in another order, or refills its holes from another
//! end. This suite can: each case folds every rank's final batch in
//! *storage* order (`id`, `x`, `y`, `vx`, `vy` bits) and the exchange
//! counts into one 64-bit FNV-1a digest compared with a pinned value.
//!
//! Two kinds of case:
//! * a hand-driven rank loop (`RankState::step_traced` per step) records
//!   every rank's `(sent, received)` of every step;
//! * a balanced run (`run_config_traced`, every rank traced at every step)
//!   records the global particles rehomed per step (sent = received
//!   summed over ranks), balance rounds included, and every cut or VP
//!   table record.
//!
//! The digest does not depend on the SIMD backend (the file passes with
//! `PIC_NO_SIMD=1` too). When a change moves storage order on purpose, the
//! failure message lists `("case name", 0x…)` rows to paste over the pins.

use pic_cluster::balancer::VpStrategy;
use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::{InitConfig, SimulationSetup};
use pic_core::soa::ParticleBatch;
use pic_par::decomp::Decomp2d;
use pic_par::runner::{ParConfig, RankKernel, RankState};
use pic_par::{run_config_traced, BalancerSpec, DiffusionMode, DiffusionParams};
use pic_trace::{Counter, Tracer};

const STEPS: u32 = 30;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A rank's batch in storage order, prefixed with its length.
    fn batch(&mut self, b: &ParticleBatch) {
        self.word(b.len() as u64);
        for i in 0..b.len() {
            self.word(b.id[i]);
            for v in [b.x[i], b.y[i], b.vx[i], b.vy[i]] {
                self.word(v.to_bits());
            }
        }
    }
}

/// A population with drift in both axes (k = 1: stride 3; m = 1).
fn setup(dist: Distribution, m: i32) -> SimulationSetup {
    InitConfig::new(Grid::new(32).unwrap(), 600, dist)
        .with_k(1)
        .with_m(m)
        .build()
        .unwrap()
}

/// Hand-driven rank loop over `decomp`: every rank's per-step
/// `(sent, received)` and final storage-order batch.
fn manual(setup: &SimulationSetup, decomp: &Decomp2d, kernel: RankKernel) -> u64 {
    let ranks = run_threads(decomp.ranks(), |comm| {
        let mut st = RankState::with_kernel(setup, decomp.clone(), comm.rank(), kernel);
        let mut h = Fnv::new();
        for _ in 0..STEPS {
            // The step applies the same events again as a no-op (the
            // ledger's cursor has moved), so `before` is the count the
            // exchange starts from.
            st.apply_due_events(&comm);
            let before = st.local_count();
            let sent = st.step_traced(&comm, &mut Tracer::disabled());
            h.word(sent as u64);
            h.word((st.local_count() + sent - before) as u64);
        }
        let out = st.finish(&comm);
        assert!(out.verify.passed(), "{:?}", out.verify);
        h.batch(&out.particles);
        h.0
    });
    let mut h = Fnv::new();
    ranks.into_iter().for_each(|d| h.word(d));
    h.0
}

/// A balanced run with every rank traced at every step: the global
/// particles rehomed per step, every cut / VP table record, and every
/// rank's final storage-order batch.
fn balanced(cfg: &ParConfig, ranks: usize) -> u64 {
    let ranks = run_threads(ranks, |comm| {
        let mut t = Tracer::in_memory(1);
        let out = run_config_traced(&comm, cfg, &mut t);
        assert!(out.verify.passed(), "{:?}", out.verify);
        let report = t.finish().expect("every rank traces");
        let mut h = Fnv::new();
        h.word(report.steps.len() as u64);
        for s in &report.steps {
            h.word(s.step);
            h.word(s.counters[Counter::Rehomed as usize]);
        }
        h.word(report.cuts.len() as u64);
        for c in &report.cuts {
            h.word(c.step);
            h.word(c.axis as u64);
            c.new.iter().for_each(|&v| h.word(v as u64));
            c.counts.iter().for_each(|&v| h.word(v));
        }
        h.batch(&out.particles);
        h.0
    });
    let mut h = Fnv::new();
    ranks.into_iter().for_each(|d| h.word(d));
    h.0
}

fn diffusion(interval: u32, mode: DiffusionMode) -> BalancerSpec {
    let params = DiffusionParams {
        interval,
        tau: 0,
        border_w: 2,
    };
    BalancerSpec::Diffusion { params, mode }
}

fn cases() -> Vec<(&'static str, u64)> {
    let geo = Distribution::Geometric { r: 0.9 };
    let kernel = RankKernel::default();
    let schedule = setup(Distribution::Sinusoidal, 1)
        .with_event(Event::inject(
            7,
            Region {
                x0: 2,
                x1: 12,
                y0: 2,
                y1: 12,
            },
            40,
            0,
            1,
            1,
        ))
        .with_event(Event::remove(15, Region::whole(32), 25));
    let balanced_cfg = |spec| ParConfig::new(setup(geo, 1), STEPS).with_balancer(spec);
    let vp = BalancerSpec::Vp {
        d: 4,
        interval: 5,
        strategy: VpStrategy::paper_default(),
    };
    let columns = Decomp2d::columns(32, 4);
    let blocks = Decomp2d::uniform(32, 4);
    vec![
        ("1x4 columns", manual(&setup(geo, 1), &columns, kernel)),
        ("2x2 cuts m=1", manual(&setup(geo, 1), &blocks, kernel)),
        (
            "inject + remove, 1x2 columns",
            manual(&schedule, &Decomp2d::columns(32, 2), kernel),
        ),
        (
            "inject + remove, 2x2 cuts",
            manual(&schedule, &blocks, kernel),
        ),
        (
            "diffusion x-only, 2 ranks",
            balanced(&balanced_cfg(diffusion(5, DiffusionMode::XOnly)), 2),
        ),
        (
            "diffusion two-phase, 4 ranks",
            balanced(&balanced_cfg(diffusion(5, DiffusionMode::TwoPhase)), 4),
        ),
        ("vp d=4 refine, 2 ranks", balanced(&balanced_cfg(vp), 2)),
        ("vp d=4 refine, 4 ranks", balanced(&balanced_cfg(vp), 4)),
    ]
}

#[rustfmt::skip]
const PINNED: [(&str, u64); 8] = [
    ("1x4 columns", 0x801e_7c32_19a4_84de),
    ("2x2 cuts m=1", 0xf2c7_c990_b768_136c),
    ("inject + remove, 1x2 columns", 0xd3f9_ac87_ff26_ede2),
    ("inject + remove, 2x2 cuts", 0x5d32_21e4_c822_482e),
    ("diffusion x-only, 2 ranks", 0x334e_263a_2aa6_084d),
    ("diffusion two-phase, 4 ranks", 0x13ab_1c2c_f96f_9403),
    ("vp d=4 refine, 2 ranks", 0x7eb5_0a6d_6ca8_72ca),
    ("vp d=4 refine, 4 ranks", 0x1c65_aa29_6d49_53b2),
];

#[test]
fn storage_order_and_exchange_counts_are_pinned() {
    let got = cases();
    let names = |v: &[(&str, u64)]| v.iter().map(|c| c.0.to_string()).collect::<Vec<_>>();
    assert_eq!(names(&PINNED), names(&got), "the cases and the pins differ");
    let moved: Vec<String> = PINNED
        .iter()
        .zip(&got)
        .filter(|(p, g)| p.1 != g.1)
        .map(|(p, g)| format!("    (\"{}\", {:#018x}), // pinned {:#018x}", g.0, g.1, p.1))
        .collect();
    assert!(
        moved.is_empty(),
        "{} storage digest(s) moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
