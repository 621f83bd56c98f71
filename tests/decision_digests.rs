//! Decision digests: what every balancer *decided*, held to a fixed answer.
//!
//! Each named case runs one configuration on thread-ranks with every rank
//! tracing, and folds every rank's `"cuts"` records `(step, axis, old,
//! counts, new)`, `"switch"` records and final `(local_count, max_count,
//! total_count)` into one 64-bit FNV-1a digest that is compared with a
//! pinned value. The pins were printed by the pre-trait copies of the rank
//! loops that `crates/{pic-par, pic-ampi}/tests/balancer_conformance.rs`
//! carried until PR 22 (CHANGES.md has the command), on the commit where
//! those suites proved copy == trait loop — so a digest compares the code
//! with that answer, not with itself. The per-id final state of every
//! balancer is held to `pic_core::reference::run` elsewhere
//! (`cross_impl_equivalence`, `rank_kernel_equivalence`,
//! `rebin_independence`); here it is only checked against the closed form
//! (`verify.passed()`).
//!
//! The matrix: 3 distributions × ranks {1, 2, 4} for the static baseline,
//! × interval {1, 5} for x-only diffusion, ranks {2, 4} for two-phase
//! diffusion, and `VpStrategy::{Refine, Greedy, None}` × ranks {1, 2, 4}
//! for the VP runtime. When a change moves a decision on purpose, the
//! failure message lists `("case name", 0x…)` rows to paste over the pins.

use pic_ampi::Balancer;
use pic_comm::comm::Communicator;
use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_par::diffusion::{DiffusionMode, DiffusionParams};
use pic_par::runner::{ParConfig, ParOutcome};
use pic_par::{run_config_traced, BalancerSpec};
use pic_trace::{CutRecord, SwitchRecord, TraceReport, Tracer};

/// What one rank contributes to a case's digest.
#[derive(Debug, Clone, PartialEq)]
struct RankDecisions {
    cuts: Vec<CutRecord>,
    switches: Vec<SwitchRecord>,
    /// Final `(local_count, max_count, total_count)`.
    counts: (u64, u64, u64),
}

/// 64-bit FNV-1a over little-endian words; every sequence is prefixed with
/// its length so no two field boundaries can trade elements unnoticed.
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

    fn words(&mut self, vs: impl ExactSizeIterator<Item = u64>) {
        self.word(vs.len() as u64);
        vs.for_each(|v| self.word(v));
    }
}

fn digest(ranks: &[RankDecisions]) -> u64 {
    let mut h = Fnv::new();
    h.word(ranks.len() as u64);
    for r in ranks {
        h.word(r.cuts.len() as u64);
        for c in &r.cuts {
            h.word(c.step);
            h.word(c.axis as u64);
            h.words(c.old.iter().map(|&v| v as u64));
            h.words(c.counts.iter().copied());
            h.words(c.new.iter().map(|&v| v as u64));
        }
        h.word(r.switches.len() as u64);
        for s in &r.switches {
            h.word(s.step);
            h.words(s.from.bytes().map(u64::from));
            h.words(s.to.bytes().map(u64::from));
            h.word(s.imbalance.to_bits());
        }
        let (local, max, total) = r.counts;
        h.word(local);
        h.word(max);
        h.word(total);
    }
    h.0
}

/// Run one configuration with a tracer on every rank; every rank verifies.
fn traced(
    label: &str,
    ranks: usize,
    run: impl Fn(&Communicator, &mut Tracer) -> ParOutcome + Send + Sync,
) -> Vec<(ParOutcome, TraceReport)> {
    run_threads(ranks, |comm| {
        let mut t = Tracer::in_memory(1);
        let o = run(&comm, &mut t);
        assert!(
            o.verify.passed(),
            "{label} rank {}: {:?}",
            comm.rank(),
            o.verify
        );
        (o, t.finish().expect("every rank traces"))
    })
}

/// What every rank of one case decided; the decisions are replicated, so
/// every rank must have recorded what rank 0 recorded.
fn decisions(
    label: &str,
    ranks: usize,
    run: impl Fn(&Communicator, &mut Tracer) -> ParOutcome + Send + Sync,
) -> Vec<RankDecisions> {
    let out: Vec<RankDecisions> = traced(label, ranks, run)
        .into_iter()
        .map(|(o, report)| RankDecisions {
            cuts: report.cuts,
            switches: report.switches,
            counts: (o.local_count as u64, o.max_count, o.total_count),
        })
        .collect();
    for (rank, r) in out.iter().enumerate() {
        assert_eq!(r.cuts, out[0].cuts, "{label}: rank {rank} cut decisions");
        assert_eq!(r.switches, out[0].switches, "{label}: rank {rank} switches");
        let (max_total, want) = ((r.counts.1, r.counts.2), (out[0].counts.1, out[0].counts.2));
        assert_eq!(
            max_total, want,
            "{label}: rank {rank} (max_count, total_count)"
        );
    }
    out
}

/// Compare the digests a family produced with its pins, name by name.
fn assert_pinned(pinned: &[(&str, u64)], got: &[(String, u64)]) {
    let pinned_names: Vec<&str> = pinned.iter().map(|p| p.0).collect();
    let got_names: Vec<&str> = got.iter().map(|g| g.0.as_str()).collect();
    assert_eq!(
        pinned_names, got_names,
        "the matrix and the pin table name different cases"
    );
    let moved: Vec<String> = pinned
        .iter()
        .zip(got)
        .filter(|(p, g)| p.1 != g.1)
        .map(|(p, g)| format!("    (\"{}\", {:#018x}), // pinned {:#018x}", g.0, g.1, p.1))
        .collect();
    assert!(
        moved.is_empty(),
        "{} decision digest(s) moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

fn cfg(n: u64, dist: Distribution, steps: u32) -> ParConfig {
    ParConfig::new(
        InitConfig::new(Grid::new(32).unwrap(), n, dist)
            .with_m(1)
            .build()
            .unwrap(),
        steps,
    )
}

const DISTS: [Distribution; 3] = [
    Distribution::Geometric { r: 0.85 },
    Distribution::Sinusoidal,
    Distribution::Uniform,
];

fn diffusion_x(interval: u32) -> (DiffusionParams, DiffusionMode) {
    let params = DiffusionParams {
        interval,
        tau: 0,
        border_w: 2,
    };
    (params, DiffusionMode::XOnly)
}

/// One case of the matrix: `c` under its own balancer, every rank traced.
fn case_digest(label: String, c: &ParConfig, ranks: usize) -> (String, u64) {
    let d = digest(&decisions(&label, ranks, |comm, t| {
        run_config_traced(comm, c, t)
    }));
    (label, d)
}

#[rustfmt::skip]
const BASELINE: [(&str, u64); 9] = [
    ("baseline Geometric { r: 0.85 } ranks=1", 0x0320_34ca_d455_79c8),
    ("baseline Geometric { r: 0.85 } ranks=2", 0x4dcd_e819_ea35_f3ed),
    ("baseline Geometric { r: 0.85 } ranks=4", 0x93ae_4841_7481_18bb),
    ("baseline Sinusoidal ranks=1", 0x0320_34ca_d455_79c8),
    ("baseline Sinusoidal ranks=2", 0x3f86_7770_8f04_94ca),
    ("baseline Sinusoidal ranks=4", 0xa97a_e3ec_f20d_ce81),
    ("baseline Uniform ranks=1", 0x0320_34ca_d455_79c8),
    ("baseline Uniform ranks=2", 0xace1_d78a_a811_cda7),
    ("baseline Uniform ranks=4", 0xfddc_d281_1587_b991),
];

#[rustfmt::skip]
const DIFFUSION_X: [(&str, u64); 18] = [
    ("diffusion-x Geometric { r: 0.85 } ranks=1 F=1", 0xd886_6645_970e_7312),
    ("diffusion-x Geometric { r: 0.85 } ranks=1 F=5", 0x89c3_d7bb_383d_2f28),
    ("diffusion-x Geometric { r: 0.85 } ranks=2 F=1", 0x7371_7e4d_b3fb_dc7d),
    ("diffusion-x Geometric { r: 0.85 } ranks=2 F=5", 0x1f3d_6cf4_3048_06c5),
    ("diffusion-x Geometric { r: 0.85 } ranks=4 F=1", 0x21c6_30e3_bfc9_d6ab),
    ("diffusion-x Geometric { r: 0.85 } ranks=4 F=5", 0xc84e_a555_aecd_e6d3),
    ("diffusion-x Sinusoidal ranks=1 F=1", 0xd886_6645_970e_7312),
    ("diffusion-x Sinusoidal ranks=1 F=5", 0x89c3_d7bb_383d_2f28),
    ("diffusion-x Sinusoidal ranks=2 F=1", 0xe15b_b342_80f3_0aeb),
    ("diffusion-x Sinusoidal ranks=2 F=5", 0x902a_6d2d_f1bc_83aa),
    ("diffusion-x Sinusoidal ranks=4 F=1", 0x618d_5504_32f3_bfe1),
    ("diffusion-x Sinusoidal ranks=4 F=5", 0xef62_d2ef_44f5_6b05),
    ("diffusion-x Uniform ranks=1 F=1", 0xd886_6645_970e_7312),
    ("diffusion-x Uniform ranks=1 F=5", 0x89c3_d7bb_383d_2f28),
    ("diffusion-x Uniform ranks=2 F=1", 0x0c76_d074_8d80_0fd3),
    ("diffusion-x Uniform ranks=2 F=5", 0xe5e4_2d9f_fb9e_59c7),
    ("diffusion-x Uniform ranks=4 F=1", 0xf899_cd65_fd4d_3e15),
    ("diffusion-x Uniform ranks=4 F=5", 0x1c8c_0be2_b911_4e51),
];

#[rustfmt::skip]
const DIFFUSION_2P: [(&str, u64); 6] = [
    ("diffusion-2p Geometric { r: 0.85 } ranks=2", 0x37d8_e5f5_0797_31a7),
    ("diffusion-2p Geometric { r: 0.85 } ranks=4", 0xd89e_1186_04f1_4f7e),
    ("diffusion-2p Sinusoidal ranks=2", 0x08e0_34c4_4696_e58a),
    ("diffusion-2p Sinusoidal ranks=4", 0xd3ba_c281_3e8f_d2ff),
    ("diffusion-2p Uniform ranks=2", 0x1893_5c0b_f2e6_7dfa),
    ("diffusion-2p Uniform ranks=4", 0xbd51_f33c_27ad_1ec7),
];

#[rustfmt::skip]
const AMPI: [(&str, u64); 9] = [
    ("ampi Refine { max_moves: 18446744073709551615 } ranks=1", 0xc2f0_6af7_9b65_c4a9),
    ("ampi Refine { max_moves: 18446744073709551615 } ranks=2", 0x729a_3d2b_568e_5f09),
    ("ampi Refine { max_moves: 18446744073709551615 } ranks=4", 0x46b8_a6ce_e480_654b),
    ("ampi Greedy ranks=1", 0xc2f0_6af7_9b65_c4a9),
    ("ampi Greedy ranks=2", 0x3406_f852_6a49_4849),
    ("ampi Greedy ranks=4", 0x4367_5b8f_b7db_0471),
    ("ampi None ranks=1", 0xc2f0_6af7_9b65_c4a9),
    ("ampi None ranks=2", 0xd9b1_4237_f8c1_e3c9),
    ("ampi None ranks=4", 0x4bcb_8123_e69c_56f3),
];

#[test]
fn baseline_decisions_match_pinned_digests() {
    let mut got = Vec::new();
    for dist in DISTS {
        for ranks in [1usize, 2, 4] {
            let c = cfg(1200, dist, 24);
            got.push(case_digest(
                format!("baseline {dist:?} ranks={ranks}"),
                &c,
                ranks,
            ));
        }
    }
    assert_pinned(&BASELINE, &got);
}

#[test]
fn diffusion_xonly_decisions_match_pinned_digests() {
    let mut got = Vec::new();
    for dist in DISTS {
        for ranks in [1usize, 2, 4] {
            for interval in [1u32, 5] {
                let (params, mode) = diffusion_x(interval);
                let c = cfg(1200, dist, 24).with_balancer(BalancerSpec::Diffusion { params, mode });
                let label = format!("diffusion-x {dist:?} ranks={ranks} F={interval}");
                got.push(case_digest(label, &c, ranks));
            }
        }
    }
    assert_pinned(&DIFFUSION_X, &got);
}

#[test]
fn diffusion_twophase_decisions_match_pinned_digests() {
    // The collective-ordering case: the pre-trait loop gathered row counts
    // *after* applying the x-cuts, the trait loop gathers both before one
    // decide() — the same decisions, because the row aggregation never
    // depends on the x-cuts.
    let mut got = Vec::new();
    for dist in DISTS {
        for ranks in [2usize, 4] {
            let params = DiffusionParams {
                interval: 5,
                tau: 0,
                border_w: 1,
            };
            let c = cfg(1500, dist, 30).with_balancer(BalancerSpec::Diffusion {
                params,
                mode: DiffusionMode::TwoPhase,
            });
            got.push(case_digest(
                format!("diffusion-2p {dist:?} ranks={ranks}"),
                &c,
                ranks,
            ));
        }
    }
    assert_pinned(&DIFFUSION_2P, &got);
}

#[test]
fn ampi_decisions_match_pinned_digests() {
    let mut got = Vec::new();
    for strategy in [Balancer::paper_default(), Balancer::Greedy, Balancer::None] {
        for ranks in [1usize, 2, 4] {
            let c = cfg(1200, Distribution::Geometric { r: 0.85 }, 24).with_balancer(
                BalancerSpec::Vp {
                    d: 4,
                    interval: 4,
                    strategy,
                },
            );
            got.push(case_digest(
                format!("ampi {strategy:?} ranks={ranks}"),
                &c,
                ranks,
            ));
        }
    }
    assert_pinned(&AMPI, &got);
}

/// A digest that cannot fail pins nothing: starting from a recorded case,
/// a change to any one field of any record — and to one cut of one rank
/// only — must change the digest.
#[test]
fn digest_changes_when_any_recorded_field_is_perturbed() {
    let name = DIFFUSION_X[5].0;
    assert_eq!(name, "diffusion-x Geometric { r: 0.85 } ranks=4 F=5");
    let (params, mode) = diffusion_x(5);
    let c = cfg(1200, DISTS[0], 24).with_balancer(BalancerSpec::Diffusion { params, mode });
    let mut base = decisions(name, 4, |comm, t| run_config_traced(comm, &c, t));
    let recorded = digest(&base);
    let moving = base[0]
        .cuts
        .iter()
        .position(|c| c.old != c.new)
        .expect("geometric skew moves a cut");
    // The matrix records no switch; give the base one so its fields are
    // perturbed too.
    base[3].switches.push(SwitchRecord {
        step: 10,
        from: "static".into(),
        to: "diffusion".into(),
        imbalance: 1.5,
    });
    let reference = digest(&base);
    assert_ne!(reference, recorded, "an added switch record must show");

    type Perturb = (&'static str, fn(&mut RankDecisions, usize));
    let perturbations: [Perturb; 14] = [
        ("cut.step", |r, i| r.cuts[i].step += 1),
        ("cut.axis", |r, i| r.cuts[i].axis = 'y'),
        ("cut.old", |r, i| r.cuts[i].old[1] += 1),
        ("cut.counts", |r, i| r.cuts[i].counts[0] += 1),
        ("cut.new", |r, i| r.cuts[i].new[1] -= 1),
        // Same words, boundary moved: the last count becomes the first new cut.
        ("cut.counts|new boundary", |r, i| {
            let v = r.cuts[i].counts.pop().unwrap();
            r.cuts[i].new.insert(0, v as usize);
        }),
        ("cut dropped", |r, i| drop(r.cuts.remove(i))),
        ("local_count", |r, _| r.counts.0 += 1),
        ("max_count", |r, _| r.counts.1 += 1),
        ("total_count", |r, _| r.counts.2 += 1),
        ("switch.step", |r, _| r.switches[0].step += 1),
        ("switch.from", |r, _| {
            r.switches[0].from = "diffusion".into()
        }),
        ("switch.to", |r, _| r.switches[0].to = "adaptive".into()),
        ("switch.imbalance", |r, _| r.switches[0].imbalance = 1.25),
    ];
    for (what, perturb) in perturbations {
        let mut changed = base.clone();
        // Rank 3 only: the digest reads every rank, not rank 0's replica.
        perturb(&mut changed[3], moving);
        assert_ne!(changed, base, "{what}: the perturbation is a no-op");
        assert_ne!(digest(&changed), reference, "{what} is not in the digest");
    }
    let mut changed = base.clone();
    changed.swap(0, 3);
    assert_ne!(
        digest(&changed),
        reference,
        "rank order is not in the digest"
    );
}

/// The switch sequence every rank recorded, asserted identical on all of
/// them and non-empty.
fn replicated_switches(outcomes: &[(ParOutcome, TraceReport)]) -> &[SwitchRecord] {
    let reference = &outcomes[0].1.switches;
    assert!(
        !reference.is_empty(),
        "sustained geometric skew must trigger at least one switch"
    );
    for (rank, (_, report)) in outcomes.iter().enumerate() {
        assert_eq!(
            &report.switches, reference,
            "rank {rank} disagrees on the switch sequence"
        );
        assert_eq!(report.summary.balancer, "adaptive");
        assert_eq!(report.summary.switches, reference.len() as u64);
    }
    reference
}

#[test]
fn adaptive_switch_sequence_is_replicated_on_every_rank() {
    // Determinism contract: the adaptive balancer derives its decisions
    // only from already-replicated collectives, so every rank must compute
    // the identical switch sequence with no extra communication.
    let params = DiffusionParams {
        interval: 5,
        tau: 0,
        border_w: 2,
    };
    let c =
        cfg(2000, Distribution::Geometric { r: 0.9 }, 60).with_balancer(BalancerSpec::Adaptive {
            params,
            mode: DiffusionMode::XOnly,
        });
    let outcomes = traced("adaptive", 4, |comm, t| run_config_traced(comm, &c, t));
    replicated_switches(&outcomes);
}

#[test]
fn ampi_adaptive_switch_sequence_is_replicated_on_every_rank() {
    let c = cfg(1200, Distribution::Geometric { r: 0.85 }, 40)
        .with_balancer(BalancerSpec::VpAdaptive { d: 4, interval: 4 });
    let outcomes = traced("vp-adaptive", 4, |comm, t| run_config_traced(comm, &c, t));
    replicated_switches(&outcomes);
}
