//! Equality gate for the linear `RoutingTree::compute` (DESIGN.md §11).
//!
//! `compute` keeps, per node, the best offer seen so far instead of
//! collecting and sorting offers (phases 1 and 2) or popping a binary
//! heap (phase 3). That is only legal if every tie still breaks the
//! way the sorted/heap-ordered original broke it, so this file keeps
//! that original three-phase algorithm verbatim as a reference, written
//! against the public graph API, and asserts `route_at_idx` equality at
//! every node for every origin:
//!
//! * on generated tiered topologies across `QUICKSAND_TEST_SEEDS` ×
//!   the small and medium scenario tiers;
//! * on the same topologies after random `remove_link`s, which leaves
//!   spans uncompacted and some ASes disconnected;
//! * on arbitrary small graphs whose ASNs are not monotone in node
//!   index, so a tie broken by index instead of ASN shows up.

use proptest::prelude::*;
use quicksand_net::Asn;
use quicksand_topology::{
    AsGraph, ComputeScratch, Relationship, RouteClass, RoutingTree, Tier, TopologyConfig,
    TopologyGenerator,
};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Seeds for the sweep tests; `QUICKSAND_TEST_SEEDS` overrides.
fn env_seeds(default: &[u64]) -> Vec<u64> {
    match std::env::var("QUICKSAND_TEST_SEEDS") {
        Ok(s) if !s.trim().is_empty() => s
            .split(',')
            .map(|tok| {
                let tok = tok.trim();
                let parsed = match tok.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => tok.parse(),
                };
                parsed.unwrap_or_else(|_| panic!("QUICKSAND_TEST_SEEDS: bad seed {tok:?}"))
            })
            .collect(),
        _ => default.to_vec(),
    }
}

/// The topologies of the small and medium scenario tiers.
fn tiers(seed: u64) -> Vec<(&'static str, TopologyConfig)> {
    vec![
        ("small", TopologyConfig::small(seed)),
        (
            "medium",
            TopologyConfig {
                n_ases: 800,
                n_tier1: 6,
                seed,
                ..Default::default()
            },
        ),
    ]
}

/// `(class, dist, next)` per node, as `RoutingTree::route_at_idx`
/// reports it.
type Route = Option<(RouteClass, u32, usize)>;

/// The sorting/heap three-phase algorithm `compute` replaced, verbatim
/// apart from reading the graph through its public API.
fn reference(graph: &AsGraph, dest: Asn) -> Vec<Route> {
    let n = graph.len();
    let d = graph.index_of(dest).expect("destination in graph");
    let mut entries: Vec<Route> = vec![None; n];
    entries[d] = Some((RouteClass::Origin, 0, d));

    // Phase 1: customer routes, one sorted offer list per BFS level.
    let mut frontier = vec![d];
    let mut dist = 0u32;
    while !frontier.is_empty() {
        dist += 1;
        let mut offers: Vec<(usize, usize)> = Vec::new(); // (provider, via)
        for &x in &frontier {
            for &(p, rel) in graph.neighbors_idx(x) {
                if rel == Relationship::Provider && entries[p].is_none() {
                    offers.push((p, x));
                }
            }
        }
        offers.sort_by_key(|&(p, via)| (p, graph.asn_of(via)));
        let mut next_frontier = Vec::new();
        for (p, via) in offers {
            if entries[p].is_none() {
                entries[p] = Some((RouteClass::Customer, dist, via));
                next_frontier.push(p);
            }
        }
        frontier = next_frontier;
    }

    // Phase 2: peer routes, one sorted offer list.
    let mut peer_offers: Vec<(usize, u32, Asn, usize)> = Vec::new(); // (q, dist, via_asn, via)
    for x in 0..n {
        let Some((class, xdist, _)) = entries[x] else {
            continue;
        };
        if class > RouteClass::Customer {
            continue;
        }
        for &(q, rel) in graph.neighbors_idx(x) {
            if rel == Relationship::Peer {
                let better = match entries[q] {
                    None => true,
                    Some((qclass, _, _)) => qclass > RouteClass::Peer,
                };
                if better {
                    peer_offers.push((q, xdist + 1, graph.asn_of(x), x));
                }
            }
        }
    }
    peer_offers.sort_by_key(|&(q, dist, via_asn, _)| (q, dist, via_asn));
    for (q, dist, _, via) in peer_offers {
        let take = match entries[q] {
            None => true,
            Some((qclass, qdist, _)) => {
                qclass > RouteClass::Peer || (qclass == RouteClass::Peer && dist < qdist)
            }
        };
        if take {
            entries[q] = Some((RouteClass::Peer, dist, via));
        }
    }

    // Phase 3: provider routes, Dijkstra with a (dist, via ASN) heap.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u32, Asn, usize, usize)>> = BinaryHeap::new();
    for x in 0..n {
        let Some((_, xdist, _)) = entries[x] else {
            continue;
        };
        for &(c, rel) in graph.neighbors_idx(x) {
            if rel == Relationship::Customer && entries[c].is_none() {
                heap.push(Reverse((xdist + 1, graph.asn_of(x), c, x)));
            }
        }
    }
    while let Some(Reverse((dist, _, c, via))) = heap.pop() {
        if entries[c].is_some() {
            continue;
        }
        entries[c] = Some((RouteClass::Provider, dist, via));
        for &(cc, rel) in graph.neighbors_idx(c) {
            if rel == Relationship::Customer && entries[cc].is_none() {
                heap.push(Reverse((dist + 1, graph.asn_of(c), cc, c)));
            }
        }
    }
    entries
}

/// Every origin's tree, built through one shared scratch as the cold
/// start builds them, equals the reference at every node. Returns the
/// number of unrouted (origin, node) pairs seen.
fn assert_all_origins_match(label: &str, g: &AsGraph) -> usize {
    let mut scratch = ComputeScratch::new();
    let mut unrouted = 0;
    for o in 0..g.len() {
        let dest = g.asn_of(o);
        let want = reference(g, dest);
        let got = RoutingTree::compute_with(g, dest, &mut scratch).expect("origin in graph");
        for (i, w) in want.iter().enumerate() {
            assert_eq!(
                got.route_at_idx(i),
                *w,
                "{label}: origin {dest}, node {} ({i})",
                g.asn_of(i)
            );
        }
        unrouted += want.iter().filter(|r| r.is_none()).count();
    }
    unrouted
}

#[test]
fn compute_matches_reference_across_seed_and_tier_sweep() {
    for seed in env_seeds(&[0xA11, 0xA12, 5, 7]) {
        for (tier, config) in tiers(seed) {
            let g = TopologyGenerator::new(config).generate().graph;
            let label = format!("{tier}/seed={seed:#x}");
            assert_eq!(
                assert_all_origins_match(&label, &g),
                0,
                "{label}: disconnected"
            );
        }
    }
}

#[test]
fn compute_matches_reference_after_random_link_removals() {
    for seed in env_seeds(&[0xA11, 0xA12, 5, 7]) {
        for (tier, config) in tiers(seed) {
            let mut g = TopologyGenerator::new(config).generate().graph;
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0A1);
            let mut links: Vec<(Asn, Asn)> = Vec::new();
            for i in 0..g.len() {
                for &(j, _) in g.neighbors_idx(i) {
                    if i < j {
                        links.push((g.asn_of(i), g.asn_of(j)));
                    }
                }
            }
            links.shuffle(&mut rng);
            // Cut a tenth of all links: spans shrink in place, and with
            // them some stubs lose every provider.
            for &(a, b) in &links[..links.len() / 10] {
                g.remove_link(a, b).unwrap();
            }
            // Isolate one AS outright, so it is unrouted in every other
            // tree and routes nowhere in its own.
            let lone = g.asn_of(rng.gen_range(0..g.len()));
            let lone_idx = g.index_of(lone).unwrap();
            let nbrs: Vec<Asn> = g
                .neighbors_idx(lone_idx)
                .iter()
                .map(|&(j, _)| g.asn_of(j))
                .collect();
            for nb in nbrs {
                g.remove_link(lone, nb).unwrap();
            }
            let label = format!("{tier}/seed={seed:#x}/cut");
            let unrouted = assert_all_origins_match(&label, &g);
            assert!(unrouted > 0, "{label}: no AS was disconnected");
        }
    }
}

/// ASN of node `i`, deliberately non-monotone in insertion order so
/// "lowest next-hop ASN" and "lowest next-hop index" disagree.
fn asn(i: usize) -> Asn {
    Asn(((i * 37) % 100 + 1) as u32)
}

proptest! {
    /// Arbitrary relationship graphs (customer–provider cycles,
    /// multiple peerings, isolated ASes included): the reference and
    /// `compute` agree for every origin, through a reused scratch.
    #[test]
    fn compute_matches_reference_on_arbitrary_graphs(
        n in 2usize..24,
        links in proptest::collection::vec((0usize..24, 0usize..24, 0u8..3), 0..80),
    ) {
        let mut g = AsGraph::new();
        for i in 0..n {
            g.add_as(asn(i), Tier::Stub).unwrap();
        }
        for (a, b, kind) in links {
            let (a, b) = (asn(a % n), asn(b % n));
            // Self-links and duplicates are rejected; skip them.
            let _ = match kind {
                0 => g.add_customer_provider(a, b),
                1 => g.add_customer_provider(b, a),
                _ => g.add_peering(a, b),
            };
        }
        assert_all_origins_match("arbitrary", &g);
    }
}
