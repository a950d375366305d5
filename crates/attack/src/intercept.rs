//! Prefix interception (§3.2, "Traffic analysis via prefix interception").
//!
//! Interception (Ballani et al. \[11\]) is the hijack variant that keeps
//! the victim's connections alive: the attacker attracts traffic for the
//! victim's prefix *and* retains a working egress path to the victim, so
//! it can forward everything on after recording it. The paper's point:
//! unlike a blackholing hijack, interception enables *exact*
//! deanonymization by end-to-end timing analysis, because the flow never
//! drops.
//!
//! The classic technique is selective announcement: the attacker
//! announces the victim's prefix to all neighbors *except* a chosen
//! egress neighbor, and relies on the egress still routing toward the
//! legitimate origin. [`plan_interception`] searches the attacker's
//! neighbors for a viable egress and returns the resulting capture set
//! and forwarding path.

use crate::hijack::{origin_hijack_scoped, HijackOutcome};
use crate::multi::OriginSpec;
use quicksand_net::Asn;
use quicksand_obs as obs;
use quicksand_topology::AsGraph;
use std::collections::BTreeSet;

/// A viable interception: the hijack outcome plus the egress that keeps
/// traffic flowing to the victim.
#[derive(Clone, Debug)]
pub struct Interception {
    /// The neighbor the attacker withholds the announcement from, and
    /// forwards intercepted traffic through.
    pub egress: Asn,
    /// The AS path the forwarded traffic takes from the egress to the
    /// victim (egress first, victim last).
    pub egress_path: Vec<Asn>,
    /// The hijack outcome (capture set etc.) under the selective
    /// announcement.
    pub outcome: HijackOutcome,
}

impl Interception {
    /// All ASes that see the intercepted traffic on its way back to the
    /// victim (attacker and egress path, victim included).
    pub fn forwarding_observers(&self, attacker: Asn) -> BTreeSet<Asn> {
        let mut s: BTreeSet<Asn> = self.egress_path.iter().copied().collect();
        s.insert(attacker);
        s
    }
}

/// Search for a viable interception of `victim`'s prefix by `attacker`:
/// try each neighbor as the withheld egress (providers first — they are
/// likeliest to retain a legitimate route) and return the first egress
/// that still routes to the victim after the attack, preferring the
/// egress that maximizes the capture set.
///
/// Returns `None` when no neighbor of the attacker retains a route to
/// the victim under any selective announcement (interception
/// infeasible).
pub fn plan_interception(
    graph: &AsGraph,
    victim: Asn,
    attacker: Asn,
) -> Option<Interception> {
    assert_ne!(victim, attacker, "attacker cannot be the victim");
    // Candidate egresses in deterministic order: providers, then peers,
    // then customers (ascending ASN within each class).
    let mut candidates: Vec<Asn> = graph.providers(attacker).collect();
    candidates.extend(graph.peers(attacker));
    candidates.extend(graph.customers(attacker));

    let mut best: Option<Interception> = None;
    for egress in candidates {
        let announce_to: Vec<Asn> = graph
            .providers(attacker)
            .chain(graph.peers(attacker))
            .chain(graph.customers(attacker))
            .filter(|&n| n != egress)
            .collect();
        if announce_to.is_empty() {
            continue; // single-homed attacker cannot intercept
        }
        let outcome = origin_hijack_scoped(
            graph,
            victim,
            OriginSpec::only_to(attacker, &announce_to),
        );
        // Egress must still route to the victim.
        if outcome.routing.selected_origin(graph, egress) != Some(victim) {
            continue;
        }
        let egress_path = outcome
            .routing
            .path_from(graph, egress)
            .expect("egress is routed");
        // The forwarded traffic must not loop back through the attacker.
        if egress_path.contains(&attacker) {
            continue;
        }
        let candidate = Interception {
            egress,
            egress_path,
            outcome,
        };
        let better = match &best {
            None => true,
            Some(b) => candidate.outcome.captured.len() > b.outcome.captured.len(),
        };
        if better {
            best = Some(candidate);
        }
    }
    // The inner origin_hijack_scoped calls open "detect" spans; here
    // only the plan outcome is counted.
    obs::incr("detect", "intercept_plans", 1);
    if best.is_some() {
        obs::incr("detect", "intercepts_found", 1);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::testutil::diamond;

    /// The diamond plus AS 10, a stub multihomed across the two halves
    /// (providers 3 and 6) — the classic interception launch position.
    fn diamond_with_spanner() -> AsGraph {
        let mut g = diamond();
        g.add_as(Asn(10), quicksand_topology::Tier::Stub).unwrap();
        g.add_customer_provider(Asn(10), Asn(3)).unwrap();
        g.add_customer_provider(Asn(10), Asn(6)).unwrap();
        g
    }

    #[test]
    fn interception_with_spanning_attacker() {
        let g = diamond_with_spanner();
        // 10 intercepts 7's prefix: announce via 6, keep 3 (which has a
        // direct customer route to 7's side) as egress.
        let plan = plan_interception(&g, Asn(7), Asn(10)).expect("feasible");
        assert_eq!(plan.egress, Asn(3));
        assert_eq!(plan.egress_path.last(), Some(&Asn(7)));
        assert!(!plan.egress_path.contains(&Asn(10)));
        // A real capture happened.
        assert!(plan.outcome.captured.len() > 1, "{:?}", plan.outcome.captured);
        let obs = plan.forwarding_observers(Asn(10));
        assert!(obs.contains(&Asn(10)));
        assert!(obs.contains(&Asn(7)));
    }

    #[test]
    fn peering_between_providers_defeats_interception() {
        // 8's two providers (4, 5) peer directly: whichever one 8 holds
        // back as egress hears the hijack over the peer link, and
        // peer > provider means the egress is captured. A genuine
        // policy-model outcome worth pinning down.
        let g = diamond();
        assert!(plan_interception(&g, Asn(9), Asn(8)).is_none());
        assert!(plan_interception(&g, Asn(7), Asn(8)).is_none());
    }

    #[test]
    fn single_homed_attacker_cannot_intercept() {
        let g = diamond();
        // 7 has a single provider (3): withholding it leaves nobody to
        // announce to.
        assert!(plan_interception(&g, Asn(9), Asn(7)).is_none());
    }

    #[test]
    fn interception_keeps_victim_reachable_from_captured_ases() {
        let g = diamond_with_spanner();
        let plan = plan_interception(&g, Asn(7), Asn(10)).expect("feasible");
        // End-to-end: a captured AS's traffic reaches the attacker, then
        // flows via the egress path to the victim — the connection stays
        // alive. Verify the splice terminates at the victim.
        for &a in plan.outcome.captured.iter().filter(|&&a| a != Asn(10)) {
            let to_attacker = plan.outcome.routing.path_from(&g, a).unwrap();
            assert_eq!(to_attacker.last(), Some(&Asn(10)));
            let mut full = to_attacker.clone();
            full.extend(plan.egress_path.iter().copied());
            assert_eq!(full.last(), Some(&Asn(7)));
        }
    }
}
