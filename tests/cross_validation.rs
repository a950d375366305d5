//! Cross-validation of the workspace's two BGP engines and the static
//! multi-origin computation: on identical inputs they must agree
//! exactly, which is what justifies using the fast engine for the
//! month-scale experiments (DESIGN.md §3).

use quicksand_attack::{MultiOriginRouting, OriginSpec};
use quicksand_bgp::{ChurnConfig, ChurnGenerator, EventSim, FastConverge, LinkChange, Route, SimConfig};
use quicksand_net::{Asn, Ipv4Prefix, SimDuration};
use quicksand_topology::{RoutingTree, TopologyConfig, TopologyGenerator};
use rand::prelude::*;
use rand::rngs::StdRng;

fn prefix() -> Ipv4Prefix {
    "203.0.113.0/24".parse().unwrap()
}

/// Message-level convergence equals static Gao–Rexford routing for
/// every AS and several destinations on a generated topology.
#[test]
fn event_sim_converges_to_routing_tree() {
    let t = TopologyGenerator::new(TopologyConfig::small(101)).generate();
    let asns: Vec<Asn> = t.graph.asns().collect();
    for &dest in asns.iter().step_by(asns.len() / 5) {
        let mut sim = EventSim::new(&t.graph, SimConfig::default());
        sim.originate(dest, Route::originate(prefix(), dest), None);
        sim.run_to_quiescence();
        let tree = RoutingTree::compute(&t.graph, dest).unwrap();
        for &src in &asns {
            assert_eq!(
                sim.path_at(src, &prefix()),
                tree.as_path_at(&t.graph, src),
                "divergence at {src} → {dest}"
            );
        }
    }
}

/// After a random sequence of link failures and recoveries, the
/// incremental FastConverge trees equal a from-scratch recompute, and
/// the message-level simulator agrees with both.
#[test]
fn fast_converge_equals_event_sim_after_churn() {
    let t = TopologyGenerator::new(TopologyConfig::small(202)).generate();
    let asns: Vec<Asn> = t.graph.asns().collect();
    let dest = asns[asns.len() / 3];

    // Collect candidate links (avoid isolating the destination: skip
    // its access links).
    let mut links = Vec::new();
    for i in 0..t.graph.len() {
        let a = t.graph.asn_of(i);
        for &(j, _) in t.graph.neighbors_idx(i) {
            let b = t.graph.asn_of(j);
            if a < b && a != dest && b != dest {
                links.push((a, b));
            }
        }
    }

    let mut fc = FastConverge::new(t.graph.clone(), [dest]);
    let mut sim = EventSim::new(&t.graph, SimConfig::default());
    sim.originate(dest, Route::originate(prefix(), dest), None);
    sim.run_to_quiescence();

    let mut rng = StdRng::seed_from_u64(77);
    let mut down: Vec<(Asn, Asn)> = Vec::new();
    for step in 0..25 {
        // Flip a random link (down if up, up if down).
        let (a, b) = if !down.is_empty() && rng.gen_bool(0.4) {
            down.remove(rng.gen_range(0..down.len()))
        } else {
            links[rng.gen_range(0..links.len())]
        };
        let is_down = fc.graph().relationship(a, b).is_none();
        if is_down {
            fc.apply(LinkChange::up(a, b));
            sim.link_up(a, b);
        } else {
            fc.apply(LinkChange::down(a, b));
            sim.link_down(a, b);
            down.push((a, b));
        }
        sim.run_to_quiescence();

        // All three views agree.
        let fresh = RoutingTree::compute(fc.graph(), dest).unwrap();
        for &src in asns.iter().step_by(3) {
            let want = fresh.as_path_at(fc.graph(), src);
            assert_eq!(
                fc.tree(dest).unwrap().as_path_at(fc.graph(), src),
                want,
                "fastconverge diverged at {src} (step {step})"
            );
            assert_eq!(
                sim.path_at(src, &prefix()),
                want,
                "eventsim diverged at {src} (step {step})"
            );
        }
    }
}

/// The engines agree *under generated churn*: the exact event sequence
/// the month replay would play (a `ChurnGenerator` schedule, not
/// hand-picked flips) drives both `FastConverge` and the message-level
/// `EventSim`, and after every event all stable paths for several
/// tracked origins are identical. This is the oracle that lets the
/// month replay treat `FastConverge` as ground truth.
#[test]
fn fast_converge_equals_event_sim_under_generated_churn() {
    let t = TopologyGenerator::new(TopologyConfig::small(505)).generate();
    let asns: Vec<Asn> = t.graph.asns().collect();
    // A few tracked origins spread across the AS space, like the month
    // replay's mix of Tor-hosting and control origins.
    let origins: Vec<Asn> = asns.iter().copied().step_by(asns.len() / 3).take(3).collect();
    let pfx = |i: usize| -> Ipv4Prefix {
        format!("198.{}.0.0/16", 51 + i).parse().unwrap()
    };

    let mut events = ChurnGenerator::new(ChurnConfig {
        horizon: SimDuration::from_days(2),
        seed: 1717,
        ..Default::default()
    })
    .generate(&t.graph, &t.hosting);
    assert!(events.len() > 40, "churn schedule unexpectedly sparse");
    // The full schedule would make quiescence-per-event slow; a prefix
    // of it still exercises downs, recoveries, and overlapping outages.
    events.truncate(40);

    let mut fc = FastConverge::new(t.graph.clone(), origins.iter().copied());
    let mut sim = EventSim::new(&t.graph, SimConfig::default());
    for (i, &o) in origins.iter().enumerate() {
        sim.originate(o, Route::originate(pfx(i), o), None);
    }
    sim.run_to_quiescence();

    for (step, ev) in events.iter().enumerate() {
        fc.apply(ev.change);
        if ev.change.up {
            sim.link_up(ev.change.a, ev.change.b);
        } else {
            sim.link_down(ev.change.a, ev.change.b);
        }
        sim.run_to_quiescence();
        for (i, &o) in origins.iter().enumerate() {
            for &src in asns.iter().step_by(7) {
                assert_eq!(
                    fc.tree(o).unwrap().as_path_at(fc.graph(), src),
                    sim.path_at(src, &pfx(i)),
                    "engines diverged at {src} → {o} (event {step}, {:?})",
                    ev.change
                );
            }
        }
    }
}

/// Cross-validation at Internet scale: on the `large` tier's 20k-AS
/// regional topology, the incremental `FastConverge` trees must equal a
/// from-scratch `RoutingTree` recompute after every generated churn
/// event, and the message-level `EventSim` must agree with the static
/// tree at initial convergence. (Per-event message-level quiescence at
/// 20k ASes is what the fast engine exists to avoid, so the event-sim
/// leg checks the converged state once.)
#[test]
fn large_tier_engines_agree_under_generated_churn() {
    let t = TopologyGenerator::new(TopologyConfig::internet(20_000, 0xD1FF)).generate();
    assert!(t.graph.len() >= 20_000);
    let asns: Vec<Asn> = t.graph.asns().collect();
    let origins: Vec<Asn> =
        asns.iter().copied().step_by(asns.len() / 3).take(3).collect();
    let pfx = |i: usize| -> Ipv4Prefix {
        format!("198.{}.0.0/16", 51 + i).parse().unwrap()
    };

    // Message-level leg: initial convergence for one origin equals the
    // static Gao-Rexford tree at every sampled AS.
    let mut sim = EventSim::new(&t.graph, SimConfig::default());
    sim.originate(origins[0], Route::originate(pfx(0), origins[0]), None);
    sim.run_to_quiescence();
    let tree = RoutingTree::compute(&t.graph, origins[0]).unwrap();
    for &src in asns.iter().step_by(97) {
        assert_eq!(
            sim.path_at(src, &pfx(0)),
            tree.as_path_at(&t.graph, src),
            "event sim diverged from static tree at {src}"
        );
    }
    drop(sim);

    // Incremental leg: FastConverge vs from-scratch recompute across a
    // generated churn schedule.
    let mut events = ChurnGenerator::new(ChurnConfig {
        horizon: SimDuration::from_days(1),
        seed: 1717,
        ..Default::default()
    })
    .generate(&t.graph, &t.hosting);
    assert!(events.len() > 60, "churn schedule unexpectedly sparse");
    events.truncate(60);
    let mut fc = FastConverge::new(t.graph.clone(), origins.iter().copied());
    for (step, ev) in events.iter().enumerate() {
        fc.apply(ev.change);
        for &o in &origins {
            let fresh = RoutingTree::compute(fc.graph(), o).unwrap();
            for &src in asns.iter().step_by(157) {
                assert_eq!(
                    fc.tree(o).unwrap().as_path_at(fc.graph(), src),
                    fresh.as_path_at(fc.graph(), src),
                    "fastconverge diverged at {src} → {o} (event {step}, {:?})",
                    ev.change
                );
            }
        }
    }
}

/// The static multi-origin split equals what the message-level
/// simulator converges to under a hijack.
#[test]
fn multi_origin_split_matches_event_sim_hijack() {
    let t = TopologyGenerator::new(TopologyConfig::small(303)).generate();
    let asns: Vec<Asn> = t.graph.asns().collect();
    let victim = asns[asns.len() - 1];
    let attacker = asns[asns.len() / 2];
    assert_ne!(victim, attacker);

    let mut sim = EventSim::new(&t.graph, SimConfig::default());
    sim.originate(victim, Route::originate(prefix(), victim), None);
    sim.run_to_quiescence();
    sim.originate(attacker, Route::originate(prefix(), attacker), None);
    sim.run_to_quiescence();

    let split = MultiOriginRouting::compute(
        &t.graph,
        &[OriginSpec::plain(victim), OriginSpec::plain(attacker)],
    );
    for &a in &asns {
        assert_eq!(
            sim.selected_origin(a, &prefix()),
            split.selected_origin(&t.graph, a),
            "origin split diverged at {a}"
        );
    }
}

/// Selective announcement (the interception trick) agrees between the
/// static computation and the message-level simulator.
#[test]
fn scoped_announcement_matches_event_sim() {
    let t = TopologyGenerator::new(TopologyConfig::small(404)).generate();
    let asns: Vec<Asn> = t.graph.asns().collect();
    // Pick a multihomed origin and withhold one provider.
    let origin = *asns
        .iter()
        .find(|a| t.graph.providers(**a).count() >= 2)
        .expect("multihomed AS exists");
    let providers: Vec<Asn> = t.graph.providers(origin).collect();
    let withheld = providers[0];
    let announce_to: Vec<Asn> = t
        .graph
        .providers(origin)
        .chain(t.graph.peers(origin))
        .chain(t.graph.customers(origin))
        .filter(|&n| n != withheld)
        .collect();

    let mut sim = EventSim::new(&t.graph, SimConfig::default());
    sim.originate(
        origin,
        Route::originate(prefix(), origin),
        Some(&announce_to),
    );
    sim.run_to_quiescence();

    let split = MultiOriginRouting::compute(
        &t.graph,
        &[OriginSpec::only_to(origin, &announce_to)],
    );
    for &a in &asns {
        assert_eq!(
            sim.path_at(a, &prefix()),
            split.as_path_at(&t.graph, a),
            "scoped announcement diverged at {a}"
        );
    }
}
