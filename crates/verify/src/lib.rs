#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! **livesec-verify**: a VeriFlow-style header-space invariant
//! verifier for the LiveSec dataplane.
//!
//! LiveSec's security guarantees live entirely in the flow tables the
//! controller installs: a drop rule at the wrong priority, a steering
//! entry lost to a partition, or a fast-pass entry that outlives its
//! record silently voids the paper's "interactive policy enforcement"
//! (§III). This crate closes that gap with static analysis over the
//! *emitted* forwarding state: take a [`Snapshot`] of every switch's
//! flow table plus the controller's hosts, flows, blocks and
//! fast-pass records, symbolically carve the header space into
//! equivalence classes (wildcard-aware, on `livesec_openflow`'s match
//! algebra), extract a concrete witness packet per class, and replay
//! each witness through the tables — with the switch's own lookup and
//! action code — to prove or refute eight invariants:
//!
//! 1. **Blocked unreachable** — traffic covered by a standing block
//!    is not delivered (or fanned out) to any endpoint from any
//!    ingress.
//! 2. **No forwarding loops** — no packet revisits a
//!    `(switch, port, headers)` state: one witness per entry's winner
//!    region and looked-up EtherType.
//! 3. **No blackholes** — both directions of every admitted flow reach
//!    their destination. A table miss or explicit punt is the reactive
//!    packet-in path, not a blackhole; a wrong host, a dead port, loss
//!    in the fabric or a fan-out is.
//! 4. **Waypoint enforcement** — a flow whose policy names a service
//!    chain traverses an element of each required type, in order,
//!    before egress, unless a standing fast-pass sanctions the
//!    bypass.
//! 5. **Fast-pass freshness** — every fast-pass-priority entry is
//!    backed by a standing record (a policy or topology change tears
//!    down the records it stales).
//! 6. **No silent shadowing** — equal-priority overlapping entries
//!    with different actions are reported with the masked rule
//!    (equal-action overlaps are benign).
//! 7. **Shard coverage** (sharded planes) — every registered switch
//!    is owned by exactly one live shard.
//! 8. **Quarantine isolation** — a switch the accountability layer
//!    evicted for deviating holds no flow entries, locates no hosts,
//!    and is claimed by no live shard.
//!
//! Use it three ways: the library API ([`audit`]), the campus hooks
//! ([`audit_campus`] / [`audit_settled`]) that in-sim test suites run
//! after convergence and after every fault heal, or the
//! `livesec-verify` CLI binary, which builds a scenario, runs it, and
//! pretty-prints every violation with its witness packet.

pub mod delta;
pub mod invariants;
pub mod snapshot;
pub mod trace;

pub use delta::{audit_delta, EcIndex, RuleDelta};
pub use invariants::{audit, audit_scoped, AuditScope, Violation, Witness};
pub use snapshot::{FlowView, HostInfo, Snapshot, SwitchState};
pub use trace::{trace, Trace, TraceEnd, TraceStep};

use livesec::deploy::Campus;
use livesec_sim::SimDuration;

/// Audits a running campus: snapshot + [`audit`] in one call.
pub fn audit_campus(campus: &Campus) -> Vec<Violation> {
    audit(&Snapshot::of_campus(campus))
}

/// Audits a campus that may still be settling: re-audit every `step`
/// of simulated time until the dataplane is clean or `windows`
/// retries are exhausted, returning the last set of violations.
///
/// Flow entries idle out per-switch while the controller's records
/// retire on the resulting notifications, so moments exist where the
/// two views legitimately disagree; convergence-style retrying (the
/// same discipline the reconciliation tests use) separates those
/// transients from real violations, which persist.
pub fn audit_settled(campus: &mut Campus, windows: u32, step: SimDuration) -> Vec<Violation> {
    let mut violations = audit_campus(campus);
    for _ in 0..windows {
        if violations.is_empty() {
            return violations;
        }
        campus.world.run_for(step);
        violations = audit_campus(campus);
    }
    violations
}
