//! Error-path coverage: every public error type renders a useful message
//! and implements `std::error::Error` (so callers can `?` them into
//! `Box<dyn Error>` pipelines).

use pic_prk::core::geometry::{Grid, GridError};
use pic_prk::core::init::InitError;
use pic_prk::prelude::*;
use std::error::Error;

fn as_error<E: Error>(e: &E) -> String {
    format!("{e}")
}

#[test]
fn grid_errors_explain_the_constraint() {
    let odd = Grid::new(7).unwrap_err();
    assert_eq!(odd, GridError::OddSize(7));
    assert!(as_error(&odd).contains("even"));
    let tiny = Grid::new(0).unwrap_err();
    assert!(as_error(&tiny).contains("too small"));
}

#[test]
fn init_errors_name_the_offending_value() {
    let grid = Grid::new(8).unwrap();
    let bad_dir = InitConfig::new(grid, 1, Distribution::Uniform)
        .with_dir(0)
        .build()
        .unwrap_err();
    assert!(as_error(&bad_dir).contains("±1"));
    assert!(as_error(&bad_dir).contains('0'));

    let too_fast = InitConfig::new(grid, 1, Distribution::Uniform)
        .with_k(10)
        .build()
        .unwrap_err();
    let msg = as_error(&too_fast);
    assert!(msg.contains("21") && msg.contains('8'), "{msg}");

    let empty = InitConfig::new(
        grid,
        1,
        Distribution::Patch {
            x0: 3,
            x1: 3,
            y0: 0,
            y1: 8,
        },
    )
    .build()
    .unwrap_err();
    assert!(as_error(&empty).contains("no cells"));

    // Parameters outside the distribution's domain: an `Err` naming the
    // value, where there used to be a panic or a silently different
    // population.
    let bad_dist = |dist| {
        let err = InitConfig::new(grid, 100, dist).build().unwrap_err();
        assert!(matches!(err, InitError::BadDistribution { .. }), "{err:?}");
        as_error(&err)
    };
    assert!(bad_dist(Distribution::Geometric { r: f64::NAN }).contains("NaN"));
    assert!(bad_dist(Distribution::Geometric { r: -1.0 }).contains("-1"));
    let ramp = bad_dist(Distribution::Linear {
        alpha: 5.0,
        beta: 1.0,
    });
    assert!(
        ramp.contains("alpha 5") && ramp.contains("beta 1"),
        "{ramp}"
    );
    let patch = bad_dist(Distribution::Patch {
        x0: 0,
        x1: 100,
        y0: 0,
        y1: 8,
    });
    assert!(patch.contains("100") && patch.contains("8-cell"), "{patch}");
}

#[test]
fn event_validation_catches_out_of_range_regions() {
    use pic_prk::core::init::validate_event;
    let grid = Grid::new(16).unwrap();
    // Region beyond the grid.
    let e = Event::inject(
        0,
        Region {
            x0: 0,
            x1: 32,
            y0: 0,
            y1: 8,
        },
        5,
        0,
        0,
        1,
    );
    assert!(validate_event(&grid, &e).is_err());
    // Stride too large for the grid.
    let e = Event::inject(
        0,
        Region {
            x0: 0,
            x1: 8,
            y0: 0,
            y1: 8,
        },
        5,
        20,
        0,
        1,
    );
    assert!(matches!(
        validate_event(&grid, &e),
        Err(InitError::StrideTooLarge { stride: 41, .. })
    ));
    // Valid event passes.
    let e = Event::remove(
        3,
        Region {
            x0: 0,
            x1: 16,
            y0: 0,
            y1: 16,
        },
        5,
    );
    assert!(validate_event(&grid, &e).is_ok());
}

#[test]
fn errors_box_into_dyn_error() {
    // The `?`-ergonomics check: all error types can flow through a
    // Box<dyn Error> result.
    fn pipeline() -> Result<(), Box<dyn Error>> {
        let grid = Grid::new(9).map_err(Box::new)?;
        let _ = InitConfig::new(grid, 1, Distribution::Uniform).build()?;
        Ok(())
    }
    let err = pipeline().unwrap_err();
    assert!(err.to_string().contains("odd"));
}
