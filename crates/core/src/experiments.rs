//! Reproduction of every table and figure in the paper's evaluation
//! (§4), plus the analytical model and attack experiments (see
//! DESIGN.md §4 for the experiment index).
//!
//! Each function computes one artifact's data from a [`Scenario`] (or a
//! traffic/attack configuration) and returns a plain struct that
//! `report` renders and the benches re-run at reduced scale.
//!
//! An artifact that calls no `detect` or `correlate` entry point runs
//! as one `experiments.<artifact>` span. The others (fig2-right,
//! hijack, intercept, stealth) are timed by those stages' own spans,
//! which a wrapping span would turn from root spans into children and
//! so hide from the run report's stage table.

use crate::scenario::{MonthResult, Scenario};
use crate::temporal;
use quicksand_attack::community::{stealth_frontier, FrontierPoint};
use quicksand_attack::hijack::origin_hijack;
use quicksand_attack::intercept::plan_interception;
use quicksand_bgp::metrics::{churn_ratios, path_changes, Ccdf};
use quicksand_bgp::{Route, SimConfig, UpdateMessage};
use quicksand_net::{Asn, SimDuration, SimTime};
use quicksand_obs as obs;
use quicksand_tor::TorPrefixStats;
use quicksand_traffic::correlate::{correlate, CorrelationConfig};
use quicksand_traffic::{CircuitFlow, CircuitFlowConfig, Segment};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeSet;

/// T1 — the §4 "Methodology and datasets" statistics block.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// Total relays (paper: 4586).
    pub n_relays: usize,
    /// Guard-flagged relays (paper: 1918).
    pub n_guards: usize,
    /// Exit-flagged relays (paper: 891).
    pub n_exits: usize,
    /// Both flags (paper: 442).
    pub n_both: usize,
    /// Tor-prefix statistics (paper: 1251 prefixes, 650 ASes, median 1,
    /// p75 2, max 33).
    pub prefix_stats: TorPrefixStats,
    /// Mean fraction of sessions on which a Tor prefix was received
    /// (paper: 40%).
    pub mean_session_visibility: f64,
    /// Max fraction (paper: 60%).
    pub max_session_visibility: f64,
    /// Median number of Tor prefixes learned per session (paper: 438 =
    /// 35% of total).
    pub median_prefixes_per_session: usize,
    /// Max (paper: 1242 = 99%).
    pub max_prefixes_per_session: usize,
}

/// Compute T1 from a built scenario and its month run.
pub fn table1(scenario: &Scenario, month: &MonthResult) -> Table1 {
    let _span = obs::prof::span("experiments", "table1");
    let c = &scenario.consensus;
    let tor = scenario.tor_prefix_set();
    let log = &month.cleaned;
    let sessions = log.sessions();
    let n_sessions = sessions.len().max(1);

    // Visibility: which sessions announced each Tor prefix at least once.
    let mut seen_on: std::collections::BTreeMap<
        quicksand_net::Ipv4Prefix,
        BTreeSet<quicksand_bgp::SessionId>,
    > = Default::default();
    for r in &log.records {
        if let UpdateMessage::Announce(_) = r.msg {
            let p = r.msg.prefix();
            if tor.contains(&p) {
                seen_on.entry(p).or_default().insert(r.session);
            }
        }
    }
    let fractions: Vec<f64> = tor
        .iter()
        .map(|p| {
            seen_on.get(p).map_or(0.0, |s| s.len() as f64) / n_sessions as f64
        })
        .collect();
    let mean_vis = fractions.iter().sum::<f64>() / fractions.len().max(1) as f64;
    let max_vis = fractions.iter().copied().fold(0.0f64, f64::max);

    let mut per_session: Vec<usize> = sessions
        .iter()
        .map(|s| {
            log.prefixes_on(*s)
                .into_iter()
                .filter(|p| tor.contains(p))
                .count()
        })
        .collect();
    per_session.sort_unstable();
    let median = per_session.get(per_session.len() / 2).copied().unwrap_or(0);
    let max = per_session.last().copied().unwrap_or(0);

    Table1 {
        n_relays: c.len(),
        n_guards: c.guards().count(),
        n_exits: c.exits().count(),
        n_both: c.guard_and_exit().count(),
        prefix_stats: scenario.tor_prefixes.stats(),
        mean_session_visibility: mean_vis,
        max_session_visibility: max_vis,
        median_prefixes_per_session: median,
        max_prefixes_per_session: max,
    }
}

/// F2L — Fig 2 (left): relay concentration across ASes.
#[derive(Clone, Debug)]
pub struct Fig2Left {
    /// `(number of top ASes, cumulative % of guard/exit relays)` curve.
    pub curve: Vec<(usize, f64)>,
    /// Share of the top 5 ASes (paper: ~20%).
    pub top5_share: f64,
    /// Number of distinct ASes hosting guard/exit relays.
    pub n_hosting_ases: usize,
}

/// Compute F2L from the consensus.
pub fn fig2_left(scenario: &Scenario) -> Fig2Left {
    let _span = obs::prof::span("experiments", "fig2_left");
    let mut per_as: std::collections::BTreeMap<Asn, usize> = Default::default();
    for r in scenario.consensus.guards_or_exits() {
        *per_as.entry(r.host_as).or_default() += 1;
    }
    let mut counts: Vec<usize> = per_as.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let total: usize = counts.iter().sum();
    let mut curve = Vec::with_capacity(counts.len());
    let mut cum = 0usize;
    for (i, c) in counts.iter().enumerate() {
        cum += c;
        curve.push((i + 1, 100.0 * cum as f64 / total as f64));
    }
    let top5_share = counts.iter().take(5).sum::<usize>() as f64 / total as f64;
    Fig2Left {
        curve,
        top5_share,
        n_hosting_ases: counts.len(),
    }
}

/// F2R — Fig 2 (right): the asymmetric traffic-analysis time series.
#[derive(Clone, Debug)]
pub struct Fig2Right {
    /// The simulated circuit flow (all eight captures).
    pub flow: CircuitFlow,
    /// `(label, [(seconds, megabytes)])` — the four curves the paper
    /// plots: guard→client data, client→guard acks, server→exit data,
    /// exit→server acks.
    pub curves: Vec<(String, Vec<(f64, f64)>)>,
    /// Minimum pairwise correlation among the four curves (the figure's
    /// claim: "nearly identical", so this should be ≈ 1).
    pub min_pairwise_correlation: f64,
}

/// Compute F2R by simulating a large download over a circuit.
pub fn fig2_right(config: &CircuitFlowConfig, samples: usize) -> Fig2Right {
    let flow = CircuitFlow::simulate(config);
    let end = flow.completed_at;
    let four = [
        flow.capture(Segment::GuardClient, true).clone(),
        flow.capture(Segment::GuardClient, false).clone(),
        flow.capture(Segment::ServerExit, true).clone(),
        flow.capture(Segment::ServerExit, false).clone(),
    ];
    let curves = four
        .iter()
        .map(|c| {
            let pts: Vec<(f64, f64)> = (0..=samples)
                .map(|k| {
                    let t = SimTime(end.0 * k as u64 / samples as u64);
                    (t.as_secs_f64(), c.series.at(t) as f64 / 1e6)
                })
                .collect();
            (c.label.clone(), pts)
        })
        .collect();
    // Bin width scaled to the transfer duration (~50 bins) so short
    // test transfers and the paper's 30-second download both get a
    // well-conditioned increment vector.
    let corr_cfg = CorrelationConfig {
        bin: quicksand_net::SimDuration((end.0 / 50).max(10_000)),
        max_lag_bins: 8,
    };
    let mut min_corr = f64::INFINITY;
    for i in 0..four.len() {
        for j in (i + 1)..four.len() {
            let r = correlate(&four[i], &four[j], SimTime::ZERO, end, &corr_cfg);
            min_corr = min_corr.min(r.coefficient);
        }
    }
    Fig2Right {
        flow,
        curves,
        min_pairwise_correlation: min_corr,
    }
}

/// F3L — Fig 3 (left): CCDF of median-normalized Tor-prefix churn.
#[derive(Clone, Debug)]
pub struct Fig3Left {
    /// The CCDF of per-(session, Tor prefix) change ratios.
    pub ccdf: Ccdf,
    /// Fraction of ratios > 1 (paper: >50%).
    pub fraction_above_one: f64,
    /// The maximum ratio (paper: >2000 for one pathological prefix).
    pub max_ratio: f64,
}

/// Compute F3L from a month run.
pub fn fig3_left(scenario: &Scenario, month: &MonthResult) -> Fig3Left {
    let _span = obs::prof::span("experiments", "fig3_left");
    let changes = path_changes(&month.cleaned);
    let ratios = churn_ratios(&changes, &scenario.tor_prefix_set());
    let ccdf = Ccdf::new(ratios);
    let fraction_above_one = ccdf.at(1.0 + 1e-9);
    let max_ratio = ccdf.max().unwrap_or(0.0);
    Fig3Left {
        ccdf,
        fraction_above_one,
        max_ratio,
    }
}

/// F3R — Fig 3 (right): CCDF of extra ASes (≥ 5 min) per Tor prefix.
#[derive(Clone, Debug)]
pub struct Fig3Right {
    /// CCDF of per-prefix extra-AS counts.
    pub ccdf: Ccdf,
    /// Fraction of prefixes gaining ≥ 2 extra ASes (paper: ~50%).
    pub fraction_at_least_2: f64,
    /// Fraction gaining > 5 (paper: ~8%).
    pub fraction_above_5: f64,
}

/// Compute F3R from a month run.
///
/// "Cases" are (session, Tor prefix) pairs, matching the paper's "in
/// 50% of the cases, the number of ASes seeing Tor traffic increased by
/// 2": each vantage has its own baseline first path, and extra ASes are
/// counted against it. (A union-across-sessions variant is available as
/// [`quicksand_bgp::metrics::extra_ases_per_prefix`]; it reads ~one
/// order of magnitude higher since 70 vantages see 70 different paths.)
pub fn fig3_right(scenario: &Scenario, month: &MonthResult) -> Fig3Right {
    let _span = obs::prof::span("experiments", "fig3_right");
    let tor = scenario.tor_prefix_set();
    let timelines = quicksand_bgp::metrics::PathTimeline::from_log(&month.cleaned);
    let counts: Vec<f64> = timelines
        .into_iter()
        .filter(|((_, p), _)| tor.contains(p))
        .map(|(_, tl)| {
            tl.extra_ases(month.horizon_end, SimDuration::from_mins(5)).len() as f64
        })
        .collect();
    let ccdf = Ccdf::new(counts);
    Fig3Right {
        fraction_at_least_2: ccdf.at(2.0),
        fraction_above_5: ccdf.at(5.0 + 1e-9),
        ccdf,
    }
}

/// M1 — the §3.1 model sweep: compromise probability vs `f`, `x`, `l`.
#[derive(Clone, Debug)]
pub struct ModelSweep {
    /// Rows: `(f, x, l, analytic probability, Monte-Carlo estimate)`.
    pub rows: Vec<(f64, usize, usize, f64, f64)>,
}

/// Compute M1 (with Monte-Carlo validation per row).
pub fn model_sweep(fs: &[f64], xs: &[usize], ls: &[usize], trials: u32) -> ModelSweep {
    let _span = obs::prof::span("experiments", "model");
    let mut rows = Vec::new();
    for (i, &f) in fs.iter().enumerate() {
        for (j, &x) in xs.iter().enumerate() {
            for (k, &l) in ls.iter().enumerate() {
                let analytic = temporal::multi_guard_probability(f, x, l);
                // Monte Carlo: x·l distinct ASes, one segment.
                let entry: BTreeSet<Asn> =
                    (0..(x * l) as u32).map(Asn).collect();
                let mc = temporal::monte_carlo_end_to_end(
                    f,
                    &entry,
                    &entry,
                    trials,
                    (i * 1000 + j * 10 + k) as u64,
                );
                rows.push((f, x, l, analytic, mc));
            }
        }
    }
    ModelSweep { rows }
}

/// A1 — hijack experiment: capture fractions and anonymity-set
/// reduction per attacker tier.
#[derive(Clone, Debug)]
pub struct HijackExperiment {
    /// Rows: `(attacker tier label, mean capture fraction, mean exposed
    /// anonymity-set fraction)`.
    pub rows: Vec<(String, f64, f64)>,
    /// Number of (victim, attacker) samples per tier.
    pub samples_per_tier: usize,
}

/// Run A1: hijack sampled guard prefixes from attackers in each tier.
pub fn hijack_experiment(scenario: &Scenario, samples: usize, seed: u64) -> HijackExperiment {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = &scenario.topo.graph;
    // Victim ASes: origins of guard-hosting prefixes.
    let guard_ases: Vec<Asn> = scenario
        .consensus
        .guards()
        .map(|r| r.host_as)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    // Synthetic client population: 2000 clients over stub ASes.
    let clients: std::collections::BTreeMap<u64, Asn> = (0..2000u64)
        .map(|id| {
            let a = scenario.topo.stubs[rng.gen_range(0..scenario.topo.stubs.len())];
            (id, a)
        })
        .collect();
    let connected: BTreeSet<u64> = clients.keys().copied().collect();

    let tiers: [(&str, &[Asn]); 3] = [
        ("tier1", &scenario.topo.tier1),
        ("tier2", &scenario.topo.tier2),
        ("stub", &scenario.topo.stubs),
    ];
    let mut rows = Vec::new();
    for (label, pool) in tiers {
        let mut cap_sum = 0.0;
        let mut anon_sum = 0.0;
        let mut n = 0usize;
        for _ in 0..samples {
            let victim = guard_ases[rng.gen_range(0..guard_ases.len())];
            let attacker = pool[rng.gen_range(0..pool.len())];
            if attacker == victim {
                continue;
            }
            let out = origin_hijack(g, victim, attacker);
            cap_sum += out.capture_fraction(g);
            let set = quicksand_attack::anonymity::exposed_anonymity_set(
                &clients,
                &connected,
                &out.captured,
            );
            anon_sum += set.exposure_fraction();
            n += 1;
        }
        rows.push((
            label.to_string(),
            cap_sum / n.max(1) as f64,
            anon_sum / n.max(1) as f64,
        ));
    }
    HijackExperiment {
        rows,
        samples_per_tier: samples,
    }
}

/// A2 — interception experiment: feasibility and stealth.
#[derive(Clone, Debug)]
pub struct InterceptExperiment {
    /// Fraction of sampled (victim, attacker) pairs where interception
    /// is feasible.
    pub feasibility: f64,
    /// Mean capture fraction of feasible interceptions.
    pub mean_capture: f64,
    /// Mean number of ASes observing the forwarded (egress) traffic.
    pub mean_forwarding_observers: f64,
    /// Number of samples attempted.
    pub samples: usize,
}

/// Run A2 over sampled victim guard ASes and multihomed attackers.
pub fn intercept_experiment(
    scenario: &Scenario,
    samples: usize,
    seed: u64,
) -> InterceptExperiment {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = &scenario.topo.graph;
    let guard_ases: Vec<Asn> = scenario
        .consensus
        .guards()
        .map(|r| r.host_as)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    // Attackers: multihomed ASes (interception requires ≥ 2 neighbors).
    let attackers: Vec<Asn> = g.asns().filter(|a| g.degree(*a) >= 2).collect();
    let mut feasible = 0usize;
    let mut cap_sum = 0.0;
    let mut obs_sum = 0.0;
    let mut n = 0usize;
    for _ in 0..samples {
        let victim = guard_ases[rng.gen_range(0..guard_ases.len())];
        let attacker = attackers[rng.gen_range(0..attackers.len())];
        if attacker == victim {
            continue;
        }
        n += 1;
        if let Some(plan) = plan_interception(g, victim, attacker) {
            feasible += 1;
            cap_sum += plan.outcome.captured.len() as f64 / g.len() as f64;
            obs_sum += plan.forwarding_observers(attacker).len() as f64;
        }
    }
    InterceptExperiment {
        feasibility: feasible as f64 / n.max(1) as f64,
        mean_capture: cap_sum / feasible.max(1) as f64,
        mean_forwarding_observers: obs_sum / feasible.max(1) as f64,
        samples: n,
    }
}

/// E9 — convergence transients: ASes that glimpse a *client's* traffic
/// only during BGP path exploration ("the convergence process allows
/// even more far-flung ASes to get a (temporary) look at the client's
/// traffic", §3.1).
#[derive(Clone, Debug)]
pub struct ConvergenceExperiment {
    /// Per (trial, client): `(ASes on stable paths before ∪ after, ASes
    /// crossed during convergence, extra transient ASes)`.
    pub samples: Vec<(usize, usize, usize)>,
    /// Mean extra transient ASes per client path per event.
    pub mean_extra: f64,
    /// Fraction of client paths that exposed at least one extra AS.
    pub fraction_exposed: f64,
}

/// Run E9: fail the link carrying a guard prefix's traffic and, for
/// sampled client ASes, compare the ASes crossed on transient selected
/// paths against the union of the stable paths before and after the
/// event.
pub fn convergence_experiment(
    scenario: &Scenario,
    trials: usize,
    seed: u64,
) -> ConvergenceExperiment {
    let _span = obs::prof::span("experiments", "convergence");
    let mut rng = StdRng::seed_from_u64(seed);
    let g = &scenario.topo.graph;
    let guard_ases: Vec<Asn> = scenario
        .consensus
        .guards()
        .map(|r| r.host_as)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let prefix: quicksand_net::Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
    let mut samples = Vec::new();
    for t in 0..trials {
        let origin = guard_ases[rng.gen_range(0..guard_ases.len())];
        // Fail one of the origin's provider links and watch convergence.
        let providers: Vec<Asn> = g.providers(origin).collect();
        if providers.len() < 2 {
            continue; // need an alternative for interesting convergence
        }
        let failed = providers[rng.gen_range(0..providers.len())];
        // Sampled client ASes (stubs other than the origin).
        let clients: Vec<Asn> = scenario
            .topo
            .stubs
            .iter()
            .copied()
            .filter(|&a| a != origin)
            .step_by(7)
            .take(12)
            .collect();

        let mut sim = quicksand_bgp::EventSim::new(
            g,
            SimConfig {
                seed: seed.wrapping_add(t as u64),
                ..SimConfig::default()
            },
        );
        sim.originate(origin, Route::originate(prefix, origin), None);
        sim.run_to_quiescence();
        let before: std::collections::BTreeMap<Asn, BTreeSet<Asn>> = clients
            .iter()
            .filter_map(|&c| sim.path_at(c, &prefix).map(|p| (c, p.as_set())))
            .collect();
        sim.link_down(origin, failed);
        let history = sim.run_recording(prefix);
        for &c in &clients {
            let Some(changes) = history.get(&c) else { continue };
            let Some(base_before) = before.get(&c) else { continue };
            // Stable-after = the last recorded path.
            let Some((_, Some(after_path))) = changes.last() else {
                continue;
            };
            let mut stable: BTreeSet<Asn> = base_before.clone();
            stable.extend(after_path.as_set());
            let mut during: BTreeSet<Asn> = BTreeSet::new();
            for (_, path) in changes {
                if let Some(p) = path {
                    during.extend(p.as_set());
                }
            }
            let extra = during.difference(&stable).count();
            samples.push((stable.len(), during.len(), extra));
        }
    }
    let mean_extra = samples.iter().map(|&(_, _, e)| e as f64).sum::<f64>()
        / samples.len().max(1) as f64;
    let fraction_exposed = samples.iter().filter(|&&(_, _, e)| e > 0).count() as f64
        / samples.len().max(1) as f64;
    ConvergenceExperiment {
        samples,
        mean_extra,
        fraction_exposed,
    }
}

/// S1 — the community-scoped stealth frontier (\[35\], §3.2/§5): how
/// much capture an attacker retains as it scopes the hijack away from
/// the collector vantage points.
#[derive(Clone, Debug)]
pub struct StealthExperiment {
    /// Per sampled (victim, attacker): the greedy frontier of
    /// (blocked edges, capture fraction, vantage visibility).
    pub frontiers: Vec<Vec<FrontierPoint>>,
    /// Mean capture fraction retained at the *stealthiest* point of
    /// each frontier.
    pub mean_stealthy_capture: f64,
    /// Mean visibility at the stealthiest point (0 = fully hidden from
    /// all collector sessions).
    pub mean_final_visibility: f64,
}

/// Run S1 over sampled victim guard ASes and attacker ASes, using the
/// scenario's collector session peers as the monitoring vantages.
pub fn stealth_experiment(
    scenario: &Scenario,
    samples: usize,
    max_blocks: usize,
    seed: u64,
) -> StealthExperiment {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = &scenario.topo.graph;
    let guard_ases: Vec<Asn> = scenario
        .consensus
        .guards()
        .map(|r| r.host_as)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let attackers: Vec<Asn> = g.asns().filter(|a| g.degree(*a) >= 2).collect();
    let vantages = &scenario.session_peers;
    let mut frontiers = Vec::new();
    let mut cap_sum = 0.0;
    let mut vis_sum = 0.0;
    for _ in 0..samples {
        let victim = guard_ases[rng.gen_range(0..guard_ases.len())];
        let attacker = attackers[rng.gen_range(0..attackers.len())];
        if attacker == victim {
            continue;
        }
        let f = stealth_frontier(g, victim, attacker, vantages, max_blocks);
        if let Some(last) = f.last() {
            cap_sum += last.capture;
            vis_sum += last.visibility;
        }
        frontiers.push(f);
    }
    let n = frontiers.len().max(1) as f64;
    StealthExperiment {
        mean_stealthy_capture: cap_sum / n,
        mean_final_visibility: vis_sum / n,
        frontiers,
    }
}

/// P1 — the premise behind §3.1: static AS-path analysis (Feamster–
/// Dingledine, Edman–Syverson) underestimates exposure, because it sees
/// one snapshot path where a month of churn crosses many more ASes.
#[derive(Clone, Debug)]
pub struct StaticVsDynamic {
    /// Mean ASes on the static (first) client→guard path.
    pub mean_static: f64,
    /// Mean distinct ASes (≥ 5 min) over the month.
    pub mean_dynamic: f64,
    /// Mean compromise probability at `f` using the static estimate.
    pub p_static: f64,
    /// Mean compromise probability at `f` using the dynamic truth.
    pub p_dynamic: f64,
    /// The f used.
    pub f: f64,
    /// Accuracy of Gao relationship inference run on the month's
    /// cleaned collector log (the toolchain prior work relied on),
    /// against the generator's ground-truth relationships.
    pub inference_accuracy: f64,
    /// (client, guard) pairs sampled.
    pub n_pairs: usize,
}

/// Run P1 over sampled (client, guard-AS) pairs and the month's log.
pub fn static_vs_dynamic(
    scenario: &Scenario,
    month: &MonthResult,
    n_clients: usize,
    n_guards: usize,
    f: f64,
    seed: u64,
) -> StaticVsDynamic {
    let _span = obs::prof::span("experiments", "static_vs_dynamic");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clients: Vec<Asn> = scenario.topo.stubs.clone();
    clients.shuffle(&mut rng);
    clients.truncate(n_clients);
    let guard_ases: Vec<Asn> = scenario
        .consensus
        .guards()
        .map(|r| r.host_as)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .take(n_guards)
        .collect();
    let hist = scenario.path_history(&clients, &guard_ases);
    let horizon = scenario.horizon_end();
    let min_dur = SimDuration::from_mins(5);
    let mut static_sum = 0.0;
    let mut dyn_sum = 0.0;
    let mut p_static = 0.0;
    let mut p_dynamic = 0.0;
    let mut n_pairs = 0usize;
    for ((_, _), tl) in &hist {
        let stat = tl.baseline().len();
        let dynamic = tl.distinct_ases(horizon, min_dur).len();
        static_sum += stat as f64;
        dyn_sum += dynamic as f64;
        p_static += temporal::compromise_probability(f, stat);
        p_dynamic += temporal::compromise_probability(f, dynamic);
        n_pairs += 1;
    }
    let n = n_pairs.max(1) as f64;

    // Gao inference over the month's observed AS paths — the same
    // estimation pipeline prior AS-aware Tor work used.
    let mut paths: Vec<quicksand_net::AsPath> = Vec::new();
    for r in &month.cleaned.records {
        if let UpdateMessage::Announce(route) = &r.msg {
            if route.as_path.len() >= 2 {
                paths.push(route.as_path.clone());
            }
        }
        if paths.len() >= 50_000 {
            break; // plenty for inference; bound the cost
        }
    }
    let inferred = quicksand_topology::infer::infer_relationships(
        &paths,
        &quicksand_topology::infer::InferenceConfig::default(),
    );
    let inference_accuracy =
        quicksand_topology::infer::accuracy_against(&scenario.topo.graph, &inferred);

    StaticVsDynamic {
        mean_static: static_sum / n,
        mean_dynamic: dyn_sum / n,
        p_static: p_static / n,
        p_dynamic: p_dynamic / n,
        f,
        inference_accuracy,
        n_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> &'static (Scenario, crate::scenario::MonthResult) {
        crate::testworld::get()
    }

    #[test]
    fn table1_matches_consensus() {
        let (s, m) = world();
        let t = table1(s, m);
        assert_eq!(t.n_relays, 300);
        assert_eq!(t.n_guards, 125);
        assert_eq!(t.n_exits, 58);
        assert_eq!(t.n_both, 29);
        assert!(t.prefix_stats.n_prefixes > 0);
        assert!(t.mean_session_visibility > 0.0);
        assert!(t.max_session_visibility <= 1.0);
        assert!(t.max_prefixes_per_session >= t.median_prefixes_per_session);
    }

    #[test]
    fn fig2_left_curve_is_cumulative() {
        let (s, _) = world();
        let f = fig2_left(s);
        assert!(!f.curve.is_empty());
        assert!((f.curve.last().unwrap().1 - 100.0).abs() < 1e-9);
        for w in f.curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert!(f.top5_share > 0.05, "no concentration: {}", f.top5_share);
    }

    #[test]
    fn fig2_right_curves_nearly_identical() {
        let cfg = CircuitFlowConfig {
            first_hop: quicksand_traffic::TcpConfig {
                transfer_bytes: 2 * 1024 * 1024,
                ..Default::default()
            },
            ..Default::default()
        };
        let f = fig2_right(&cfg, 30);
        assert_eq!(f.curves.len(), 4);
        assert!(
            f.min_pairwise_correlation > 0.9,
            "correlation {}",
            f.min_pairwise_correlation
        );
        // Curves end at the same transfer total (2 MB).
        for (label, pts) in &f.curves {
            let last = pts.last().unwrap().1;
            assert!(
                (last - 2.0 * 1024.0 * 1024.0 / 1e6).abs() < 0.05,
                "{label} ends at {last} MB"
            );
        }
    }

    #[test]
    fn fig3_pipeline_produces_distributions() {
        let (s, m) = world();
        let l = fig3_left(s, m);
        assert!(!l.ccdf.is_empty());
        assert!(l.max_ratio >= 1.0);
        let r = fig3_right(s, m);
        assert!(!r.ccdf.is_empty());
        assert!(r.fraction_at_least_2 >= 0.0 && r.fraction_at_least_2 <= 1.0);
    }

    #[test]
    fn model_sweep_monte_carlo_agrees() {
        let sweep = model_sweep(&[0.05, 0.1], &[4, 10], &[1, 3], 20_000);
        assert_eq!(sweep.rows.len(), 8);
        for (f, x, l, analytic, mc) in sweep.rows {
            assert!(
                (analytic - mc).abs() < 0.02,
                "f={f} x={x} l={l}: {analytic} vs {mc}"
            );
        }
    }

    #[test]
    fn hijack_experiment_produces_rows() {
        let (s, _) = world();
        let h = hijack_experiment(s, 10, 7);
        assert_eq!(h.rows.len(), 3);
        for (label, cap, anon) in &h.rows {
            assert!(*cap > 0.0 && *cap < 1.0, "{label}: capture {cap}");
            assert!(*anon >= 0.0 && *anon <= 1.0);
        }
    }

    #[test]
    fn intercept_experiment_runs() {
        let (s, _) = world();
        let i = intercept_experiment(s, 30, 11);
        assert!(i.samples > 0);
        assert!(i.feasibility >= 0.0 && i.feasibility <= 1.0);
        if i.feasibility > 0.0 {
            assert!(i.mean_capture > 0.0);
            assert!(i.mean_forwarding_observers >= 2.0);
        }
    }

    #[test]
    fn static_analysis_underestimates() {
        let (s, m) = world();
        let r = static_vs_dynamic(s, m, 5, 8, 0.05, 19);
        assert!(r.n_pairs > 0);
        assert!(
            r.mean_dynamic >= r.mean_static,
            "dynamic {} < static {}",
            r.mean_dynamic,
            r.mean_static
        );
        assert!(r.p_dynamic >= r.p_static - 1e-12);
        assert!(
            r.inference_accuracy > 0.6,
            "inference accuracy {}",
            r.inference_accuracy
        );
    }

    #[test]
    fn stealth_experiment_trades_capture_for_stealth() {
        let (s, _) = world();
        let e = stealth_experiment(s, 6, 5, 17);
        assert!(!e.frontiers.is_empty());
        for f in &e.frontiers {
            // Visibility never increases along a frontier.
            for w in f.windows(2) {
                assert!(w[1].visibility <= w[0].visibility + 1e-12);
            }
        }
        assert!(e.mean_final_visibility <= 1.0);
    }

    #[test]
    fn convergence_exposes_extra_ases() {
        let (s, _) = world();
        let e = convergence_experiment(s, 5, 13);
        assert!(!e.samples.is_empty());
        // Transient exposure is nonnegative by construction.
        assert!(e.mean_extra >= 0.0);
    }
}
