//! The run report's stage table is the run's root spans grouped by
//! stage, so it must account for the wall time of the calls it
//! profiled. A test binary of its own: the profiler gate is
//! process-global, and no other test here may flip it mid-run.

use quicksand_core::experiments::table1;
use quicksand_core::scenario::{Scenario, ScenarioConfig};
use quicksand_obs::{self as obs, RunReport};
use std::time::Instant;

#[test]
fn root_span_stages_cover_the_profiled_wall() {
    obs::prof::reset();
    obs::prof::set_enabled(true);
    let started = Instant::now();
    let scenario = Scenario::build(ScenarioConfig::small(0xA11));
    let month = scenario.run_month().expect("valid scenario");
    let t1 = table1(&scenario, &month);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    obs::prof::set_enabled(false);
    let profile = obs::prof::capture();
    assert!(t1.n_relays > 0);

    let report = RunReport::assemble("stage-coverage", &obs::metrics().snapshot(), &[], &profile);
    for stage in [
        "topology",
        "run",
        "fast",
        "churn",
        "collector",
        "experiments",
    ] {
        let s = report
            .stage(stage)
            .unwrap_or_else(|| panic!("stage {stage} missing: {:?}", report.stages));
        assert!(s.calls > 0 && s.wall_ms_total > 0.0, "{s:?}");
    }
    // Root spans never overlap on one thread, so the stages add up to
    // at most the wall, and every phase of the run is inside one.
    let covered: f64 = report.stages.iter().map(|s| s.wall_ms_total).sum();
    assert!(
        covered <= wall_ms * 1.001,
        "stages sum to {covered:.1} ms, more than the {wall_ms:.1} ms wall"
    );
    assert!(
        covered >= 0.9 * wall_ms,
        "stages cover {covered:.1} of {wall_ms:.1} ms ({:.3} < 0.9): {:?}",
        covered / wall_ms,
        report.stages
    );
}
