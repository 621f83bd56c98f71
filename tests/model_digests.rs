//! Model digests: every field of every modeled run, held to fixed bits.
//!
//! Each named case runs one modeled configuration and compares the exact
//! `f64::to_bits()` of every [`ModelOutcome`] field — `seconds`, every
//! `RunStats` field, `max_particles_end`, `ideal_particles` and
//! `remote_neighbor_frac` — with a pinned row. The pins were printed by
//! the three hand-written step loops (`model_baseline`, `model_diffusion`
//! and the VP runtime's `model_ampi`) before they became one loop over two
//! ownership maps, so a row compares the code with that answer, not with
//! itself. The two baseline-under-jitter rows are the exception; their
//! comment says why.
//!
//! The matrix, on a 256-cell grid over 48 modeled cores (two Edison nodes,
//! so the remote-neighbour fraction is not trivially zero): the baseline,
//! diffusion at two parameter sets, and `VpStrategy::{Refine, Greedy,
//! None}` at d ∈ {1, 8}; under no noise, a slow socket and per-step
//! jitter; drifting right at k = 0 and left at k = 1. When a change moves
//! a number on purpose, the failure message lists the rows to paste over
//! the pins.

use pic_ampi::{AmpiParams, Balancer};
use pic_cluster::cost::CostModel;
use pic_cluster::machine::MachineModel;
use pic_cluster::noise::NoiseModel;
use pic_core::dist::Distribution;
use pic_par::diffusion::DiffusionParams;
use pic_par::model_impl::{model_ampi, model_baseline, model_diffusion, ModelConfig, ModelOutcome};

const CORES: usize = 48;

/// The pinned fields, in row order.
const FIELDS: [&str; 11] = [
    "seconds",
    "stats.seconds",
    "stats.steps",
    "stats.compute_seconds",
    "stats.comm_seconds",
    "stats.lb_seconds",
    "stats.migrated_bytes",
    "stats.imbalance",
    "max_particles_end",
    "ideal_particles",
    "remote_neighbor_frac",
];

type Row = [u64; 11];

fn bits(o: &ModelOutcome) -> Row {
    let s = &o.stats;
    [
        o.seconds.to_bits(),
        s.seconds.to_bits(),
        s.steps,
        s.compute_seconds.to_bits(),
        s.comm_seconds.to_bits(),
        s.lb_seconds.to_bits(),
        s.migrated_bytes.to_bits(),
        s.imbalance.to_bits(),
        o.max_particles_end.to_bits(),
        o.ideal_particles.to_bits(),
        o.remote_neighbor_frac.to_bits(),
    ]
}

fn noises() -> [(&'static str, NoiseModel); 3] {
    [
        ("none", NoiseModel::None),
        ("slow-tail", NoiseModel::slow_tail(CORES, 12, 2.0)),
        (
            "jitter",
            NoiseModel::Jitter {
                amplitude: 0.5,
                seed: 7,
            },
        ),
    ]
}

/// Every noise × motion shape, with its case-name suffix.
fn shapes() -> Vec<(String, ModelConfig)> {
    let mut out = Vec::new();
    for (name, noise) in noises() {
        for (k, dir) in [(0u32, 1i8), (1, -1)] {
            let cfg = ModelConfig {
                ncells: 256,
                n: 256_000,
                steps: 120,
                dist: Distribution::Geometric { r: 0.98 },
                k,
                dir,
                cores: CORES,
                machine: MachineModel::edison(CORES),
                cost: CostModel::edison_like(),
                noise: noise.clone(),
            };
            out.push((format!("{name} k={k} dir={dir:+}"), cfg));
        }
    }
    out
}

/// Compare a family's rows with its pins, name by name and field by field.
fn assert_pinned(pinned: &[(&str, Row)], got: &[(String, ModelOutcome)]) {
    let got: Vec<(&str, Row)> = got.iter().map(|(n, o)| (n.as_str(), bits(o))).collect();
    let names = |rows: &[(&str, Row)]| rows.iter().map(|r| r.0.to_owned()).collect::<Vec<_>>();
    assert_eq!(
        names(pinned),
        names(&got),
        "the matrix and the pin table name different cases"
    );
    let moved: Vec<String> = pinned
        .iter()
        .zip(&got)
        .filter(|(p, g)| p.1 != g.1)
        .map(|(p, g)| {
            let fields: Vec<&str> = (0..FIELDS.len())
                .filter(|&i| p.1[i] != g.1[i])
                .map(|i| FIELDS[i])
                .collect();
            let words: Vec<String> = g.1.iter().map(|w| format!("{w:#018x}")).collect();
            format!(
                "    (\"{}\", [{}]), // moved: {}",
                g.0,
                words.join(", "),
                fields.join(", ")
            )
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} modeled run(s) moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn baseline_outcomes_match_pinned_bits() {
    let got: Vec<(String, ModelOutcome)> = shapes()
        .into_iter()
        .map(|(shape, cfg)| (format!("baseline {shape}"), model_baseline(&cfg)))
        .collect();
    assert_pinned(&BASELINE, &got);
}

#[test]
fn diffusion_outcomes_match_pinned_bits() {
    let mut got = Vec::new();
    for (shape, cfg) in shapes() {
        for (interval, tau, border_w) in [(10u32, 0u64, 4usize), (25, 500, 12)] {
            let params = DiffusionParams {
                interval,
                tau,
                border_w,
            };
            let name = format!("diffusion F={interval} tau={tau} w={border_w} {shape}");
            got.push((name, model_diffusion(&cfg, params)));
        }
    }
    assert_pinned(&DIFFUSION, &got);
}

#[test]
fn vp_outcomes_match_pinned_bits() {
    let mut got = Vec::new();
    for (shape, cfg) in shapes() {
        for (name, balancer) in [
            ("refine", Balancer::paper_default()),
            ("greedy", Balancer::Greedy),
            ("none", Balancer::None),
        ] {
            for d in [1usize, 8] {
                let params = AmpiParams {
                    d,
                    interval: 20,
                    balancer,
                };
                got.push((
                    format!("vp-{name} d={d} {shape}"),
                    model_ampi(&cfg, &params),
                ));
            }
        }
    }
    assert_pinned(&VP, &got);
}

// Rows: the words of `FIELDS`, in order.

#[rustfmt::skip]
const BASELINE: [(&str, Row); 6] = [
    ("baseline none k=0 dir=+1", [0x3fd27aa2211ce3fa, 0x3fd27aa2211ce3fa, 0x0000000000000078, 0x3fd2642750e74e2e, 0x3f427af20c120034, 0x0000000000000000, 0x0000000000000000, 0x4009a84b6bb98c7e, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("baseline none k=1 dir=-1", [0x3fd2b55e59142588, 0x3fd2b55e59142588, 0x0000000000000078, 0x3fd28fb40ca1f9e6, 0x3f598a9efe565495, 0x0000000000000000, 0x0000000000000000, 0x4009e50ce631f8a1, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("baseline slow-tail k=0 dir=+1", [0x3fe26ebcdcbe6e96, 0x3fe26ebcdcbe6e96, 0x0000000000000078, 0x3fe2642750e74e2e, 0x3f427af20c120034, 0x0000000000000000, 0x0000000000000000, 0x4015133784e5102e, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("baseline slow-tail k=1 dir=-1", [0x3fe2a0ef2663c0c8, 0x3fe2a0ef2663c0c8, 0x0000000000000078, 0x3fe28fb40ca1f9e6, 0x3f598a9efe565495, 0x0000000000000000, 0x0000000000000000, 0x40149a99067cb3aa, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    // Re-pinned when the baseline began charging steps 1..=steps like every
    // other modeled run (it charged 0..steps): under per-step jitter it now
    // samples the same noise steps as the balanced runs it is compared with.
    ("baseline jitter k=0 dir=+1", [0x3fda2af88323028d, 0x3fda2af88323028d, 0x0000000000000078, 0x3fda1574e6e0783d, 0x3f427af20c120034, 0x0000000000000000, 0x0000000000000000, 0x400d302ee830b59f, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("baseline jitter k=1 dir=-1", [0x3fda949f682e7308, 0x3fda949f682e7308, 0x0000000000000078, 0x3fda73cd916a3f2f, 0x3f598a9efe565495, 0x0000000000000000, 0x0000000000000000, 0x400d753481922d4a, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
];

#[rustfmt::skip]
const DIFFUSION: [(&str, Row); 12] = [
    ("diffusion F=10 tau=0 w=4 none k=0 dir=+1", [0x3fcca8456bbc85a3, 0x3fcca8456bbc85a3, 0x0000000000000078, 0x3fcc68d8b8be4d03, 0x3f4684cc020b9ad8, 0x3f408f35b5b3d13c, 0x41835ce000000000, 0x4003d1229a027525, 0x40c6d76980000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("diffusion F=25 tau=500 w=12 none k=0 dir=+1", [0x3fd26506636032a1, 0x3fd26506636032a1, 0x0000000000000078, 0x3fd249d7a8f3d4a4, 0x3f44090fa5ab3464, 0x3f30b0819f2de80b, 0x4184dc9c80000000, 0x4009839694467382, 0x40d0449e00000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("diffusion F=10 tau=0 w=4 none k=1 dir=-1", [0x3fd36d4868cb99bd, 0x3fd36d4868cb99bd, 0x0000000000000078, 0x3fd34165c4eb56fc, 0x3f594570a432d968, 0x3f3d277960966a98, 0x41798ff280000000, 0x400adcf31eb851ec, 0x40d25eb480000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("diffusion F=25 tau=500 w=12 none k=1 dir=-1", [0x3fd53c44d2755071, 0x3fd53c44d2755071, 0x0000000000000078, 0x3fd5153898a2cea2, 0x3f580e249c5eec7c, 0x3f30ee30f1a2b7ab, 0x417e48e180000000, 0x400d699af4f0d845, 0x40d4b4ed00000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("diffusion F=10 tau=0 w=4 slow-tail k=0 dir=+1", [0x3fdc87a581f1e859, 0x3fdc87a581f1e859, 0x0000000000000078, 0x3fdc68d8b8be4d03, 0x3f4684cc020b9ad8, 0x3f408f35b5b3d13c, 0x41835ce000000000, 0x400ff389ed8c95ba, 0x40c6d76980000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("diffusion F=25 tau=500 w=12 slow-tail k=0 dir=+1", [0x3fe256f3a3e4e85b, 0x3fe256f3a3e4e85b, 0x0000000000000078, 0x3fe249d7a8f3d4a4, 0x3f44090fa5ab3464, 0x3f30b0819f2de80b, 0x4184dc9c80000000, 0x40146d6d5aded332, 0x40d0449e00000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("diffusion F=10 tau=0 w=4 slow-tail k=1 dir=-1", [0x3fe355ba78ecc4c7, 0x3fe355ba78ecc4c7, 0x0000000000000078, 0x3fe34165c4eb56fc, 0x3f594570a432d968, 0x3f3d277960966a98, 0x41798ff280000000, 0x40154e0ecf00f911, 0x40d25eb480000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("diffusion F=25 tau=500 w=12 slow-tail k=1 dir=-1", [0x3fe52722a0531d6f, 0x3fe52722a0531d6f, 0x0000000000000078, 0x3fe5153898a2cea2, 0x3f580e249c5eec7c, 0x3f30ee30f1a2b7ab, 0x417e48e180000000, 0x40175b0c7cddc854, 0x40d4b4ed00000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("diffusion F=10 tau=0 w=4 jitter k=0 dir=+1", [0x3fd450b0bb8f06a6, 0x3fd450b0bb8f06a6, 0x0000000000000078, 0x3fd431ef76b368c9, 0x3f4684cc020b9ad8, 0x3f408f35b5b3d13c, 0x41835ce000000000, 0x40069a1ae0b5bed8, 0x40c6d76980000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("diffusion F=25 tau=500 w=12 jitter k=0 dir=+1", [0x3fd9f34ece63af17, 0x3fd9f34ece63af17, 0x0000000000000078, 0x3fd9d977a96a137f, 0x3f44090fa5ab3464, 0x3f30b0819f2de80b, 0x4184dc9c80000000, 0x400cefcc8f53e382, 0x40d0449e00000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("diffusion F=10 tau=0 w=4 jitter k=1 dir=-1", [0x3fdb922d69f31a25, 0x3fdb922d69f31a25, 0x0000000000000078, 0x3fdb6aad6a80cf6c, 0x3f594570a432d968, 0x3f3d277960966a98, 0x41798ff280000000, 0x400e8cc63f5c02d6, 0x40d25eb480000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("diffusion F=25 tau=500 w=12 jitter k=1 dir=-1", [0x3fde27f70a2cf5da, 0x3fde27f70a2cf5da, 0x0000000000000078, 0x3fde0540894d1496, 0x3f580e249c5eec7c, 0x3f30ee30f1a2b7ab, 0x417e48e180000000, 0x4010b57cf535571e, 0x40d4b4ed00000000, 0x40b4d55555555555, 0x0000000000000000]),
];

#[rustfmt::skip]
const VP: [(&str, Row); 36] = [
    ("vp-refine d=1 none k=0 dir=+1", [0x3ff577de84828860, 0x3ff577de84828860, 0x0000000000000078, 0x3fd264a525288382, 0x3f53120e1e33994a, 0x3ff0d6a161e4f766, 0x0000000000000000, 0x4009a6c818bebdf9, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-refine d=8 none k=0 dir=+1", [0x3ff39548d0f7469c, 0x3ff39548d0f7469c, 0x0000000000000078, 0x3fc2b87e7bdbee7e, 0x3f85ca2c7a46007c, 0x3ff11d019ff9a7c6, 0x41802a2ee1000000, 0x3ffa0c189e6d636c, 0x40c09ed800000000, 0x40b4d55555555555, 0x3fd4555555555555]),
    ("vp-greedy d=1 none k=0 dir=+1", [0x3ff57af2cae2808c, 0x3ff57af2cae2808c, 0x0000000000000078, 0x3fd264a525288382, 0x3f54b7c7d164c484, 0x3ff0d9633112b49d, 0x4195346b9bc00000, 0x4009a6c818bebdf9, 0x40d11b5d80000000, 0x40b4d55555555555, 0x3fd0000000000000]),
    ("vp-greedy d=8 none k=0 dir=+1", [0x3ff383150b4d529b, 0x3ff383150b4d529b, 0x0000000000000078, 0x3fc1eaffb3290cbf, 0x3f81e5760836ee2a, 0x3ff11ee070eaaebb, 0x4199b73086800000, 0x3ff8ee2d843816dd, 0x40bfdc3000000000, 0x40b4d55555555555, 0x3fdd555555555555]),
    ("vp-none d=1 none k=0 dir=+1", [0x3ff577de84828860, 0x3ff577de84828860, 0x0000000000000078, 0x3fd264a525288382, 0x3f53120e1e33994a, 0x3ff0d6a161e4f766, 0x0000000000000000, 0x4009a6c818bebdf9, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-none d=8 none k=0 dir=+1", [0x3ff5d0de3a890685, 0x3ff5d0de3a890685, 0x0000000000000078, 0x3fd26815f2f0f8d1, 0x3f77fc81dbb6b2bc, 0x3ff11b71758e2197, 0x0000000000000000, 0x40099c3812138db7, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-refine d=1 none k=1 dir=-1", [0x3ff5868d928058c3, 0x3ff5868d928058c3, 0x0000000000000078, 0x3fd29031e0e32f3a, 0x3f61af9a0b4076e4, 0x3ff0d6a161e4f766, 0x0000000000000000, 0x4009e3845e81a45f, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-refine d=8 none k=1 dir=-1", [0x3ff557765a7bb20b, 0x3ff557765a7bb20b, 0x0000000000000078, 0x3fcffe72f7187acc, 0x3f8e5527d97c0407, 0x3ff11db34d0cb7d6, 0x418742f9c1000000, 0x400641f10890dbec, 0x40c7ec8000000000, 0x40b4d55555555555, 0x3fdbaaaaaaaaaaab]),
    ("vp-greedy d=1 none k=1 dir=-1", [0x3ff58f49beaacc35, 0x3ff58f49beaacc35, 0x0000000000000078, 0x3fd29031e0e32f3a, 0x3f6a4ab0240c15ce, 0x3ff0db1779cf44d5, 0x419a665c22400000, 0x4009e3845e81a45f, 0x40d11b5d80000000, 0x40b4d55555555555, 0x3fd0000000000000]),
    ("vp-greedy d=8 none k=1 dir=-1", [0x3ff3bb1f66d6282d, 0x3ff3bb1f66d6282d, 0x0000000000000078, 0x3fc348dcc2b922a1, 0x3f8927e706fd9621, 0x3ff11ea79467eeaf, 0x41982c8f92800000, 0x3ffad4f6f9f547c6, 0x40bc209300000000, 0x40b4d55555555555, 0x3fe0000000000000]),
    ("vp-none d=1 none k=1 dir=-1", [0x3ff5868d928058c3, 0x3ff5868d928058c3, 0x0000000000000078, 0x3fd29031e0e32f3a, 0x3f61af9a0b4076e4, 0x3ff0d6a161e4f766, 0x0000000000000000, 0x4009e3845e81a45f, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-none d=8 none k=1 dir=-1", [0x3ff5e1e020e7121c, 0x3ff5e1e020e7121c, 0x0000000000000078, 0x3fd293a2aeaba489, 0x3f7e28c8f1ce011b, 0x3ff11b71758e2197, 0x0000000000000000, 0x4009d8cfffcbb615, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-refine d=1 slow-tail k=0 dir=+1", [0x3ffa10946a9a86ae, 0x3ffa10946a9a86ae, 0x0000000000000078, 0x3fe264663b07e8d8, 0x3f53120e1e33994a, 0x3ff0d6a161e4f766, 0x0000000000000000, 0x40151203d80e629f, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-refine d=8 slow-tail k=0 dir=+1", [0x3ff57974466411a8, 0x3ff57974466411a8, 0x0000000000000078, 0x3fd0d4ec7386348d, 0x3f85a66564f6c5c5, 0x3ff11d28ddd21edd, 0x417d307a61000000, 0x4003dda1f0e1044d, 0x40c3f88400000000, 0x40b4d55555555555, 0x3fd4000000000000]),
    ("vp-greedy d=1 slow-tail k=0 dir=+1", [0x3ff63a84cfe4ccf3, 0x3ff63a84cfe4ccf3, 0x0000000000000078, 0x3fd561d0735ff407, 0x3f5769ad1e442398, 0x3ff0d9b02d498fdf, 0x4197eff088200000, 0x400c2db3ad27ae9b, 0x40d11b5d80000000, 0x40b4d55555555555, 0x3fdaaaaaaaaaaaab]),
    ("vp-greedy d=8 slow-tail k=0 dir=+1", [0x3ff678580c3d5acd, 0x3ff678580c3d5acd, 0x0000000000000078, 0x3fd4c47a598d6503, 0x3f8363450cd1d8fe, 0x3ff11f6b7d7e344a, 0x419b14cc8d600000, 0x400645a0277f22a3, 0x40c0664700000000, 0x40b4d55555555555, 0x3fe0000000000000]),
    ("vp-none d=1 slow-tail k=0 dir=+1", [0x3ffa10946a9a86ae, 0x3ffa10946a9a86ae, 0x0000000000000078, 0x3fe264663b07e8d8, 0x3f53120e1e33994a, 0x3ff0d6a161e4f766, 0x0000000000000000, 0x40151203d80e629f, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-none d=8 slow-tail k=0 dir=+1", [0x3ffa698140ca7004, 0x3ffa698140ca7004, 0x0000000000000078, 0x3fe2661ea1ec2380, 0x3f77fc81dbb6b2bc, 0x3ff11b71758e2197, 0x0000000000000000, 0x4015099ed89ab60b, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-refine d=1 slow-tail k=1 dir=-1", [0x3ffa29ad8f6d2fc4, 0x3ffa29ad8f6d2fc4, 0x0000000000000078, 0x3fe28ff2f6c29490, 0x3f61af9a0b4076e4, 0x3ff0d6a161e4f766, 0x0000000000000000, 0x40149977350b53c3, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-refine d=8 slow-tail k=1 dir=-1", [0x3ff859bf6741410d, 0x3ff859bf6741410d, 0x0000000000000078, 0x3fdc1c0f1c27a8e7, 0x3f8c93bf5bd448e5, 0x3ff11e310dc94da0, 0x4187e03db4c00000, 0x400fe7e466541268, 0x40cb7c5d80000000, 0x40b4d55555555555, 0x3fdeaaaaaaaaaaab]),
    ("vp-greedy d=1 slow-tail k=1 dir=-1", [0x3ff858580792dcad, 0x3ff858580792dcad, 0x0000000000000078, 0x3fddb5d970493e38, 0x3f6ab086794bf7be, 0x3ff0db34f16f815e, 0x419b0ec280400000, 0x40103fd307ab3045, 0x40d11b5d80000000, 0x40b4d55555555555, 0x3fd0000000000000]),
    ("vp-greedy d=8 slow-tail k=1 dir=-1", [0x3ff6f6b9e36ea641, 0x3ff6f6b9e36ea641, 0x0000000000000078, 0x3fd67895662e3243, 0x3f8dba1ef3c0118d, 0x3ff11f41109247da, 0x419ae4a597600000, 0x4008b2173e3a36d7, 0x40c0a01a00000000, 0x40b4d55555555555, 0x3fdfaaaaaaaaaaab]),
    ("vp-none d=1 slow-tail k=1 dir=-1", [0x3ffa29ad8f6d2fc4, 0x3ffa29ad8f6d2fc4, 0x0000000000000078, 0x3fe28ff2f6c29490, 0x3f61af9a0b4076e4, 0x3ff0d6a161e4f766, 0x0000000000000000, 0x40149977350b53c3, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-none d=8 slow-tail k=1 dir=-1", [0x3ffa84f4cab98fd5, 0x3ffa84f4cab98fd5, 0x0000000000000078, 0x3fe291ab5da6cf38, 0x3f7e28c8f1ce011b, 0x3ff11b71758e2197, 0x0000000000000000, 0x4014918ecb7b223e, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-refine d=1 jitter k=0 dir=+1", [0x3ff763f41d041004, 0x3ff763f41d041004, 0x0000000000000078, 0x3fda15f2bb21ad92, 0x3f53120e1e33994a, 0x3ff0d6a161e4f766, 0x0000000000000000, 0x400d2eba14e9f034, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-refine d=8 jitter k=0 dir=+1", [0x3ff4e6a660c9c9a8, 0x3ff4e6a660c9c9a8, 0x0000000000000078, 0x3fcd6643272267d4, 0x3f8851cee5b8e103, 0x3ff11cfc9e186864, 0x417d9e33ce800000, 0x4000691b9007954d, 0x40c36f3400000000, 0x40b4d55555555555, 0x3fceaaaaaaaaaaab]),
    ("vp-greedy d=1 jitter k=0 dir=+1", [0x3ff7704919c55704, 0x3ff7704919c55704, 0x0000000000000078, 0x3fda39580be7228a, 0x3f5585b223524afa, 0x3ff0d98dd8b6d7c4, 0x419abb7640000000, 0x400d47fd16fdbe24, 0x40d11b5d80000000, 0x40b4d55555555555, 0x3fd0000000000000]),
    ("vp-greedy d=8 jitter k=0 dir=+1", [0x3ff4989c247a2feb, 0x3ff4989c247a2feb, 0x0000000000000078, 0x3fcaa3a090059b94, 0x3f827005e7890d22, 0x3ff11f1ce523ca56, 0x419b0ae4daa00000, 0x3ffdb34b49071d57, 0x40c08c8a00000000, 0x40b4d55555555555, 0x3fde000000000000]),
    ("vp-none d=1 jitter k=0 dir=+1", [0x3ff763f41d041004, 0x3ff763f41d041004, 0x0000000000000078, 0x3fda15f2bb21ad92, 0x3f53120e1e33994a, 0x3ff0d6a161e4f766, 0x0000000000000000, 0x400d2eba14e9f034, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-none d=8 jitter k=0 dir=+1", [0x3ff7bce73788996b, 0x3ff7bce73788996b, 0x0000000000000078, 0x3fda196388ea22e0, 0x3f77fc81dbb6b2bc, 0x3ff11b71758e2197, 0x0000000000000000, 0x400d248de653fa01, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-refine d=1 jitter k=1 dir=-1", [0x3ff77e5dd646ec21, 0x3ff77e5dd646ec21, 0x0000000000000078, 0x3fda744b65ab7483, 0x3f61af9a0b4076e4, 0x3ff0d6a161e4f766, 0x0000000000000000, 0x400d73bcc1ec3781, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-refine d=8 jitter k=1 dir=-1", [0x3ff737ef62588952, 0x3ff737ef62588952, 0x0000000000000078, 0x3fd7898f057da6c5, 0x3f8ce3f35f4ca8b5, 0x3ff11db1028858b6, 0x41882486d0800000, 0x400a379fa0ac8a59, 0x40c9f30780000000, 0x40b4d55555555555, 0x3fdf000000000000]),
    ("vp-greedy d=1 jitter k=1 dir=-1", [0x3ff77ba7afb05029, 0x3ff77ba7afb05029, 0x0000000000000078, 0x3fda4251a4843084, 0x3f6b4277f2c08f01, 0x3ff0db5e2253e6a2, 0x419b4cdd26c00000, 0x400d61a76ae38be0, 0x40d11b5d80000000, 0x40b4d55555555555, 0x3fd0000000000000]),
    ("vp-greedy d=8 jitter k=1 dir=-1", [0x3ff4f5b905e6f88e, 0x3ff4f5b905e6f88e, 0x0000000000000078, 0x3fcd17d6380bbc24, 0x3f8a7861e26e349f, 0x3ff11f08a43f9e40, 0x419b0f3657600000, 0x400038ba533718ba, 0x40c0598f80000000, 0x40b4d55555555555, 0x3fe0000000000000]),
    ("vp-none d=1 jitter k=1 dir=-1", [0x3ff77e5dd646ec21, 0x3ff77e5dd646ec21, 0x0000000000000078, 0x3fda744b65ab7483, 0x3f61af9a0b4076e4, 0x3ff0d6a161e4f766, 0x0000000000000000, 0x400d73bcc1ec3781, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
    ("vp-none d=8 jitter k=1 dir=-1", [0x3ff7d99cc78b6e26, 0x3ff7d99cc78b6e26, 0x0000000000000078, 0x3fda77bc3373e9d1, 0x3f7e28c8f1ce011b, 0x3ff11b71758e2197, 0x0000000000000000, 0x400d697c21043d3f, 0x40d11b5d80000000, 0x40b4d55555555555, 0x0000000000000000]),
];
