//! Incremental-verification equivalence: [`audit_delta`] must agree
//! with the full [`audit`] on every class a delta touches.
//!
//! Two directions, over live campus snapshots (clean and
//! deliberately corrupted so real violations exist):
//!
//! - **Soundness**: every violation the scoped audit reports also
//!   appears in the full audit (scoping never invents findings).
//! - **Completeness on touched classes**: every full-audit violation
//!   whose witness packet is covered by some delta cube — plus every
//!   structural violation, which scoping never skips — appears in
//!   the scoped audit.

use livesec::controller::{FASTPASS_PRIORITY, INGRESS_COOKIE};
use livesec_net::Ipv4Net;
use livesec_openflow::Match;
use livesec_sim::SimDuration;
use livesec_verify::{audit, audit_delta, RuleDelta, Snapshot};
use livesec_workloads::{CampusScenario, ScenarioConfig};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// Three snapshots: a clean converged campus, one with a fast-pass
/// entry no record backs (a stale-fastpass violation), and one with a
/// forged block covering traffic the dataplane still delivers
/// (blocked-reachable violations).
fn snapshots() -> &'static Vec<Snapshot> {
    static SNAPS: OnceLock<Vec<Snapshot>> = OnceLock::new();
    SNAPS.get_or_init(|| {
        let mut s = CampusScenario::build(ScenarioConfig::default());
        s.campus.world.run_for(SimDuration::from_secs(3));
        let clean = Snapshot::of_campus(&s.campus);

        // Copy one flow's ingress entry up to fast-pass priority with
        // no record behind it: a bypass outliving its teardown.
        let mut stale = clean.clone();
        let orphan = stale.switches.iter_mut().find_map(|sw| {
            let e = sw.entries.iter().find(|e| e.cookie == INGRESS_COOKIE)?;
            let mut e = e.clone();
            e.priority = FASTPASS_PRIORITY;
            sw.entries.push(e);
            Some(())
        });
        assert!(orphan.is_some(), "the campus installed an ingress entry");

        // Forge a block over a flow whose path is installed and
        // delivering: the dataplane now provably violates it.
        let mut blocked = clean.clone();
        let forged = blocked.flows.iter().find_map(|f| {
            let src = blocked.host_of(f.key.dl_src)?;
            Some((src.dpid, Match::exact_any_port(&f.key)))
        });
        if let Some(b) = forged {
            blocked.blocks.push(b);
        }
        vec![clean, stale, blocked]
    })
}

fn arb_cube() -> impl Strategy<Value = Match> {
    (
        proptest::option::of((0u32..24, 24u8..=32)),
        proptest::option::of((0u32..24, 24u8..=32)),
        proptest::option::of(prop_oneof![Just(6u8), Just(17u8), Just(1u8)]),
        proptest::option::of(prop_oneof![Just(80u16), Just(22), Just(23), Just(20_000)]),
    )
        .prop_map(|(src, dst, proto, port)| {
            let mut m = Match::any();
            if let Some((v, len)) = src {
                m = m.with_nw_src(Ipv4Net::new(Ipv4Addr::from(0x0a00_0000 | v), len));
            }
            if let Some((v, len)) = dst {
                m = m.with_nw_dst(Ipv4Net::new(Ipv4Addr::from(0x0a00_0000 | v), len));
            }
            if let Some(p) = proto {
                m = m.with_nw_proto(p);
            }
            if let Some(p) = port {
                m = m.with_tp_dst(p);
            }
            m
        })
}

proptest! {
    #[test]
    fn scoped_audit_agrees_with_full_audit_on_touched_classes(
        snap_idx in 0usize..3,
        cubes in proptest::collection::vec(arb_cube(), 1..4),
    ) {
        let snap = &snapshots()[snap_idx];
        let deltas: Vec<RuleDelta> =
            cubes.into_iter().map(RuleDelta::network_wide).collect();

        let full = audit(snap);
        let scoped = audit_delta(snap, &deltas);
        let full_strs: Vec<String> = full.iter().map(|v| v.to_string()).collect();
        let scoped_strs: Vec<String> = scoped.iter().map(|v| v.to_string()).collect();

        // Soundness: scoping never invents a violation.
        for s in &scoped_strs {
            prop_assert!(full_strs.contains(s), "scoped-only violation: {s}");
        }

        // Completeness on touched classes: a full-audit violation
        // whose witness a delta cube covers (or with no witness at
        // all — structural) must survive scoping.
        for v in &full {
            let touched = match v.witness() {
                None => true,
                Some(w) => deltas
                    .iter()
                    .any(|d| d.matcher.matches(w.in_port, &w.key)),
            };
            if touched {
                let s = v.to_string();
                prop_assert!(
                    scoped_strs.contains(&s),
                    "touched violation dropped by scoping: {s}"
                );
            }
        }
    }

    /// The universal delta is the full audit, verbatim.
    #[test]
    fn universal_delta_is_the_full_audit(snap_idx in 0usize..3) {
        let snap = &snapshots()[snap_idx];
        let mut full: Vec<String> = audit(snap).iter().map(|v| v.to_string()).collect();
        let mut scoped: Vec<String> = audit_delta(snap, &[RuleDelta::network_wide(Match::any())])
            .iter()
            .map(|v| v.to_string())
            .collect();
        full.sort();
        scoped.sort();
        prop_assert_eq!(full, scoped);
    }
}

/// The corrupted snapshots really do produce violations — otherwise
/// the equivalence property above would be vacuous on findings — and
/// the clean one produces none, so the findings are the corruptions'.
#[test]
fn corrupted_snapshots_have_findings() {
    let snaps = snapshots();
    assert!(
        audit(&snaps[0]).is_empty(),
        "the clean snapshot audits clean"
    );
    assert!(
        !audit(&snaps[1]).is_empty(),
        "orphan-fast-pass snapshot should violate fast-pass freshness"
    );
    assert!(
        !audit(&snaps[2]).is_empty(),
        "forged-block snapshot should violate blocked-unreachable"
    );
}
