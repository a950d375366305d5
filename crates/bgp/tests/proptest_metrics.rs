//! Property-based invariants of `bgp::metrics`, the Fig-3 statistics:
//!
//! * a CCDF is monotone non-increasing (and correctly anchored at its
//!   extremes) for any sample set;
//! * the churn-ratio distribution is invariant under session
//!   relabeling — session IDs are collector bookkeeping, not signal;
//! * path-change counts are invariant under log *fragment order*: a log
//!   assembled by merging per-session fragments in the canonical
//!   `(time, session)` order is indistinguishable from the serially
//!   appended log.

use proptest::collection::vec;
use proptest::prelude::*;
use quicksand_bgp::metrics::{churn_ratios, path_changes, Ccdf};
use quicksand_bgp::{Route, SessionId, UpdateLog, UpdateMessage, UpdateRecord};
use quicksand_net::{AsPath, Asn, Ipv4Prefix, SimTime};
use std::collections::{BTreeMap, BTreeSet};

fn prefix(i: usize) -> Ipv4Prefix {
    format!("10.{}.0.0/16", i % 8).parse().unwrap()
}

/// Build one update record from a generated tuple: `(seconds, session,
/// prefix index, path seed, announce?)`.
fn record(at_s: u64, sess: u32, pfx: usize, pathseed: u32, announce: bool) -> UpdateRecord {
    let session = SessionId(sess);
    let msg = if announce {
        UpdateMessage::Announce(Route {
            prefix: prefix(pfx),
            as_path: AsPath::from_asns([
                Asn(sess + 1),
                Asn(100 + pathseed % 5),
                Asn(65_000),
            ]),
            communities: Default::default(),
        })
    } else {
        UpdateMessage::Withdraw(prefix(pfx))
    };
    UpdateRecord {
        at: SimTime::from_secs(at_s),
        session,
        msg,
    }
}

proptest! {
    /// CCDF invariants: `points()` is strictly increasing in value with
    /// non-increasing survival fractions, `at()` is monotone
    /// non-increasing over arbitrary probes, and the extremes anchor at
    /// 1 (at or below the minimum) and 0 (above the maximum).
    #[test]
    fn ccdf_is_monotone_non_increasing(
        samples in vec(0.0f64..50.0, 0..40),
        probes in vec(-5.0f64..55.0, 2..16),
    ) {
        let ccdf = Ccdf::new(samples);
        let pts = ccdf.points();
        for w in pts.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "points not ascending in value");
            prop_assert!(w[0].1 >= w[1].1, "survival fraction increased");
        }
        let mut probes = probes;
        probes.sort_by(f64::total_cmp);
        for w in probes.windows(2) {
            // Counts over a fixed sample set: exact, no epsilon needed.
            prop_assert!(ccdf.at(w[0]) >= ccdf.at(w[1]), "at() not monotone");
        }
        if let (Some(&(min, _)), Some(max)) = (pts.first(), ccdf.max()) {
            prop_assert_eq!(ccdf.at(min), 1.0);
            prop_assert_eq!(ccdf.at(min - 1.0), 1.0);
            prop_assert_eq!(ccdf.at(max + 1.0), 0.0);
        }
    }

    /// Relabeling sessions (any order-reversing injective map, so even
    /// the `BTreeMap` iteration order changes) permutes — never alters —
    /// the churn-ratio population: per-session medians and ratios are
    /// computed within each session's group, which relabeling preserves.
    #[test]
    fn churn_ratio_ccdf_invariant_under_session_relabeling(
        counts in vec((0u32..5, 0usize..6, 0u32..20), 1..40),
        offset in 1u32..50,
    ) {
        let mut changes: BTreeMap<(SessionId, Ipv4Prefix), u32> = BTreeMap::new();
        for &(s, p, c) in &counts {
            changes.insert((SessionId(s), prefix(p)), c);
        }
        let tor: BTreeSet<Ipv4Prefix> = [prefix(0), prefix(1)].into_iter().collect();
        // s ↦ offset + 7·(4 − s): injective on 0..5 and order-reversing.
        let relabeled: BTreeMap<(SessionId, Ipv4Prefix), u32> = changes
            .iter()
            .map(|(&(s, p), &c)| ((SessionId(offset + 7 * (4 - s.0)), p), c))
            .collect();

        let mut base = churn_ratios(&changes, &tor);
        let mut relab = churn_ratios(&relabeled, &tor);
        base.sort_by(f64::total_cmp);
        relab.sort_by(f64::total_cmp);
        // Same arithmetic on the same per-session groups ⇒ the sorted
        // ratio multisets (and hence their CCDF) are bit-equal.
        prop_assert_eq!(base.len(), relab.len());
        for (a, b) in base.iter().zip(&relab) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The merge argument, as a property: split a canonically
    /// ordered log into per-session fragments (preserving each
    /// session's subsequence) and k-way-merge them back by
    /// `(time, session)` — the result is the original log, record for
    /// record, so every per-`(session, prefix)` statistic, in
    /// particular `path_changes`, is invariant under fragment order.
    #[test]
    fn path_change_counts_invariant_under_log_fragment_order(
        recs in vec((0u64..500, 0u32..4, 0usize..3, 0u32..3, proptest::bool::ANY), 0..60),
    ) {
        let mut records: Vec<UpdateRecord> = recs
            .iter()
            .map(|&(at, s, p, seed, ann)| record(at, s, p, seed, ann))
            .collect();
        // Canonical collector order: stable-sorted by (time, session),
        // ties preserving append order.
        records.sort_by_key(|r| (r.at, r.session));
        let canonical = UpdateLog { records: records.clone() };

        // Split into per-session fragments.
        let mut fragments: BTreeMap<SessionId, Vec<UpdateRecord>> = BTreeMap::new();
        for r in records {
            fragments.entry(r.session).or_default().push(r);
        }
        // K-way merge by (time, session): repeatedly take the fragment
        // whose head record has the least key.
        let mut heads: Vec<(SessionId, usize)> =
            fragments.keys().map(|&s| (s, 0)).collect();
        let mut merged: Vec<UpdateRecord> = Vec::new();
        loop {
            let next = heads
                .iter()
                .enumerate()
                .filter(|(_, &(s, i))| i < fragments[&s].len())
                .min_by_key(|(_, &(s, i))| (fragments[&s][i].at, s));
            let Some((slot, &(s, i))) = next else { break };
            merged.push(fragments[&s][i].clone());
            heads[slot] = (s, i + 1);
        }

        let merged = UpdateLog { records: merged };
        prop_assert_eq!(&merged, &canonical, "merge is not the canonical order");
        prop_assert_eq!(path_changes(&merged), path_changes(&canonical));
    }
}
