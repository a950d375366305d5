//! The full measurement pipeline at test scale, asserted against the
//! paper's qualitative claims (the "shape" contract of DESIGN.md §4).

use quicksand_core::adversary::ObservationMode;
use quicksand_core::countermeasures::{
    evaluate_guard_strategies, evaluate_monitoring, GuardStrategy,
};
use quicksand_core::experiments::{
    fig2_left, fig2_right, fig3_left, fig3_right, table1,
};
use quicksand_core::month_fnv;
use quicksand_core::scenario::{MonthResult, Scenario, ScenarioConfig};
use quicksand_net::Asn;
use quicksand_topology::RoutingTree;
use quicksand_traffic::{CircuitFlowConfig, TcpConfig};
use std::sync::OnceLock;

fn world() -> &'static (Scenario, MonthResult) {
    static W: OnceLock<(Scenario, MonthResult)> = OnceLock::new();
    W.get_or_init(|| {
        let s = Scenario::build(ScenarioConfig::small(4242));
        let m = s.run_month().expect("valid collector config");
        (s, m)
    })
}

/// T1: the dataset marginals come out of the pipeline self-consistent
/// (the generator's numbers re-derived through the LPM join and the
/// collector logs).
#[test]
fn table1_shape() {
    let (s, m) = world();
    let t = table1(s, m);
    assert_eq!(t.n_relays, s.config.consensus.n_relays);
    // Skewed relays-per-prefix distribution like the paper's (median 1
    // at paper scale; allow 2 at the small test scale).
    assert!(t.prefix_stats.relays_per_prefix_median <= 2);
    assert!(
        t.prefix_stats.relays_per_prefix_max
            >= 3 * t.prefix_stats.relays_per_prefix_median
    );
    // Partial feeds keep per-prefix session visibility well below 100%.
    assert!(t.mean_session_visibility > 0.05);
    assert!(t.mean_session_visibility < 0.8);
    assert!(t.max_session_visibility <= 1.0);
    // At least one near-full-feed session.
    assert!(
        t.max_prefixes_per_session as f64
            >= 0.8 * t.prefix_stats.n_prefixes as f64
    );
}

/// F2L: guard/exit relays are concentrated — a handful of ASes host a
/// disproportionate share.
#[test]
fn fig2_left_shape() {
    let (s, _) = world();
    let f = fig2_left(s);
    assert!(
        f.top5_share > 0.15,
        "no concentration: top-5 share {:.3}",
        f.top5_share
    );
    // And yet the tail is long (many ASes host at least one relay).
    assert!(f.n_hosting_ases > 20);
}

/// F2R: all four segment curves are nearly identical — the asymmetric
/// observation claim.
#[test]
fn fig2_right_shape() {
    let f = fig2_right(
        &CircuitFlowConfig {
            first_hop: TcpConfig {
                transfer_bytes: 6 << 20,
                ..Default::default()
            },
            ..Default::default()
        },
        30,
    );
    assert!(
        f.min_pairwise_correlation > 0.95,
        "curves diverge: {}",
        f.min_pairwise_correlation
    );
}

/// F3L: Tor prefixes churn more than the per-session median prefix.
#[test]
fn fig3_left_shape() {
    let (s, m) = world();
    let f = fig3_left(s, m);
    assert!(
        f.fraction_above_one > 0.3,
        "Tor prefixes not churnier: {:.3}",
        f.fraction_above_one
    );
    assert!(f.max_ratio > 3.0, "no heavy tail: {}", f.max_ratio);
}

/// F3R: churn grants extra ASes a ≥5-minute look at Tor traffic. The
/// test world runs only a week of churn (the full-scale month reaches
/// the paper's ~50%-at-≥2 regime; see EXPERIMENTS.md), so assert the
/// shape at proportionally lower levels.
#[test]
fn fig3_right_shape() {
    let (s, m) = world();
    let f = fig3_right(s, m);
    assert!(
        f.ccdf.at(1.0) > 0.15,
        "too little extra exposure at ≥1: {:.3}",
        f.ccdf.at(1.0)
    );
    assert!(
        f.fraction_at_least_2 > 0.05,
        "too little extra exposure at ≥2: {:.3}",
        f.fraction_at_least_2
    );
    // Not everything explodes: the tail thins out.
    assert!(f.fraction_above_5 < f.fraction_at_least_2);
}

/// §3.3: over sampled circuits, the asymmetric predicate never shrinks
/// and sometimes strictly grows the set of deanonymizing ASes. Gains
/// are rare at test scale (routing is often symmetric under one policy
/// model), so sample broadly with cached trees.
#[test]
fn asymmetric_mode_dominates_symmetric() {
    let (s, _) = world();
    let g = &s.topo.graph;
    let stubs = &s.topo.stubs;
    let guards: Vec<Asn> = s.consensus.guards().map(|r| r.host_as).collect();
    let exits: Vec<Asn> = s.consensus.exits().map(|r| r.host_as).collect();
    let mut trees: std::collections::BTreeMap<Asn, RoutingTree> =
        std::collections::BTreeMap::new();
    let mut strictly_larger = 0usize;
    let mut circuits = 0usize;
    for i in 0..400usize {
        let client = stubs[i * 7 % stubs.len()];
        let guard = guards[i * 13 % guards.len()];
        let exit = exits[i * 17 % exits.len()];
        let dest = stubs[(i * 23 + 41) % stubs.len()];
        let distinct: std::collections::BTreeSet<Asn> =
            [client, guard, exit, dest].into_iter().collect();
        if distinct.len() < 4 {
            continue;
        }
        for a in [client, guard, exit, dest] {
            trees
                .entry(a)
                .or_insert_with(|| RoutingTree::compute(g, a).unwrap());
        }
        let obs = quicksand_core::adversary::SegmentObservers::compute(
            g,
            client,
            guard,
            exit,
            dest,
            &trees[&guard],
            &trees[&client],
            &trees[&dest],
            &trees[&exit],
        )
        .unwrap();
        let sym = obs.deanonymizing_ases(ObservationMode::SymmetricOnly);
        let asym = obs.deanonymizing_ases(ObservationMode::AnyDirection);
        assert!(sym.is_subset(&asym), "asymmetric must dominate");
        if asym.len() > sym.len() {
            strictly_larger += 1;
        }
        circuits += 1;
    }
    assert!(circuits >= 300);
    assert!(
        strictly_larger > 0,
        "asymmetry never helped across {circuits} circuits — suspicious"
    );
}

/// §5: dynamics-aware guard selection beats vanilla on the temporal
/// exposure metric, and the monitor catches injected attacks.
#[test]
fn countermeasures_shape() {
    let (s, m) = world();
    let eval = evaluate_guard_strategies(s, 5, 3, &[0.05], 9);
    let x_of = |st: GuardStrategy| {
        eval.rows
            .iter()
            .find(|(q, _, _)| *q == st)
            .map(|(_, x, _)| *x)
            .unwrap()
    };
    assert!(x_of(GuardStrategy::DynamicsAware) <= x_of(GuardStrategy::Vanilla) + 1e-9);
    let mon = evaluate_monitoring(s, m, 16, 9);
    assert_eq!(mon.hijack_score.recall(), 1.0);
    assert!(mon.splice_score.recall() > 0.4);
}

/// Determinism across the whole pipeline: identical seeds produce
/// identical logs and figures.
#[test]
fn pipeline_is_deterministic() {
    let a = Scenario::build(ScenarioConfig::small(606)).run_month().unwrap();
    let b = Scenario::build(ScenarioConfig::small(606)).run_month().unwrap();
    assert_eq!(a.raw.len(), b.raw.len());
    assert_eq!(a.cleaned.records, b.cleaned.records);
}

/// The small tier's raw update log is pinned byte for byte: a change to
/// the replay's record order (or content) fails here under plain
/// `cargo test`, not only in the benchmark. Same value as the
/// benchmark's small-tier pin and `BENCH_monthreplay.json`.
#[test]
fn small_tier_raw_log_fnv_is_pinned() {
    let month = Scenario::build(ScenarioConfig::small(0xA11))
        .run_month()
        .expect("valid collector config");
    assert_eq!(month_fnv(&month), 0x8b87_8e69_74f3_c613);
}

/// A full month's log survives the MRT-style binary round trip, and the
/// figures computed from the decoded log are identical.
#[test]
fn month_log_roundtrips_through_mrt() {
    let (s, m) = world();
    let mut buf = Vec::new();
    quicksand_bgp::mrt::write_log(&m.cleaned, &mut buf).expect("serialize");
    let back = quicksand_bgp::mrt::read_log(&mut buf.as_slice()).expect("parse");
    assert_eq!(back.records, m.cleaned.records);
    // Metrics computed on the decoded log agree exactly.
    let before = fig3_left(s, m);
    let reparsed = crate_month(back, m.horizon_end);
    let after = fig3_left(s, &reparsed);
    assert_eq!(before.ccdf.len(), after.ccdf.len());
    assert_eq!(before.fraction_above_one, after.fraction_above_one);
}

/// Helper: wrap a decoded log in a MonthResult shell for the figure
/// functions.
fn crate_month(cleaned: quicksand_bgp::UpdateLog, horizon_end: quicksand_net::SimTime) -> MonthResult {
    MonthResult {
        raw: cleaned.clone(),
        cleaned,
        removed_duplicates: 0,
        reset_bursts: 0,
        horizon_end,
    }
}
