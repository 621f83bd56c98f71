//! The analytic load model and the functional implementations must agree:
//! the model's per-rank counts are exactly what the particle-level runs
//! produce (for even row spread), and its imbalance predictions match the
//! functional `max_count` measurements.

use pic_cluster::loadmodel::ColumnLoadModel;
use pic_comm::world::run_threads;
use pic_par::decomp::Decomp2d;
use pic_par::run_config;
use pic_par::runner::ParConfig;
use pic_prk::prelude::*;

#[test]
fn model_rank_counts_match_functional_baseline() {
    let ncells = 32;
    let n = 2_048u64;
    let steps = 37u32;
    let dist = Distribution::Geometric { r: 0.9 };
    let cfg = ParConfig::new(
        InitConfig::new(Grid::new(ncells).unwrap(), n, dist)
            .build()
            .unwrap(),
        steps,
    );
    let ranks = 4usize;
    let outcomes = run_threads(ranks, |comm| run_config(&comm, &cfg));
    assert!(outcomes[0].verify.passed());

    let decomp = Decomp2d::uniform(ncells, ranks);
    let mut model = ColumnLoadModel::new(dist, ncells, n, 0, 1);
    model.advance(steps as u64);
    for (rank, o) in outcomes.iter().enumerate() {
        let (cols, rows) = decomp.bounds(rank);
        let predicted = model.count_in_rect(cols, rows);
        let actual = o.local_count as f64;
        // Even row spread puts each column's particles within ±1 per cell;
        // across a rank's rows the rounding is bounded by the column count.
        assert!(
            (predicted - actual).abs() <= ncells as f64,
            "rank {rank}: model {predicted} vs functional {actual}"
        );
    }
    let max_pred = (0..ranks)
        .map(|r| {
            let (cols, rows) = decomp.bounds(r);
            model.count_in_rect(cols, rows)
        })
        .fold(0.0f64, f64::max);
    let max_actual = outcomes[0].max_count as f64;
    assert!(
        (max_pred - max_actual).abs() / max_actual < 0.05,
        "max-count prediction {max_pred} vs measured {max_actual}"
    );
}

#[test]
fn model_total_is_conserved_through_advance() {
    let mut m = ColumnLoadModel::new(Distribution::PAPER_SKEW, 2_998, 600_000, 0, 1);
    for _ in 0..100 {
        m.advance(61);
        assert_eq!(m.count_in_columns(0, 2_998), 600_000);
    }
}

#[test]
fn modeled_imbalance_matches_eq8_prediction() {
    // Paper eq. 8: per-processor-column counts form a geometric series
    // with ratio r^(c/P). Check the model's initial imbalance against the
    // closed form for a 1D column decomposition.
    let c = 1_000usize;
    let px = 10usize;
    let r: f64 = 0.995;
    let n = 1_000_000u64;
    let model = ColumnLoadModel::new(Distribution::Geometric { r }, c, n, 0, 1);
    let ratio = r.powi((c / px) as i32);
    // Closed-form share of block column 0: (1 − ratio) / (1 − ratio^px).
    let share0 = (1.0 - ratio) / (1.0 - ratio.powi(px as i32));
    let predicted_max = share0 * n as f64;
    let measured_max = (0..px)
        .map(|i| model.count_in_columns(i * c / px, (i + 1) * c / px) as f64)
        .fold(0.0f64, f64::max);
    assert!(
        (predicted_max - measured_max).abs() / predicted_max < 0.02,
        "eq.8 closed form {predicted_max} vs model {measured_max}"
    );
}

#[test]
fn paper_e5_geometry_reproduced_by_pure_counting() {
    // The §V-B numbers are count geometry, independent of the cost model:
    // 2,998² cells, 600 k particles, r = 0.999, 24 ranks ⇒ baseline
    // max/ideal ≈ 2.5 (paper: 62,645 / 25,000 = 2.51).
    let decomp = Decomp2d::uniform(2_998, 24);
    let mut model = ColumnLoadModel::new(Distribution::PAPER_SKEW, 2_998, 600_000, 0, 1);
    model.advance(6_000);
    let max = (0..24)
        .map(|rk| {
            let (cols, rows) = decomp.bounds(rk);
            model.count_in_rect(cols, rows)
        })
        .fold(0.0f64, f64::max);
    let ratio = max / 25_000.0;
    assert!(
        (2.0..3.2).contains(&ratio),
        "baseline max/ideal {ratio}, paper 2.51 (max {max})"
    );
}
