//! Deterministic fault injection: the [`FaultPlan`].
//!
//! A fault plan is a seed-driven schedule of control-plane and link
//! faults. Installing one into a [`crate::World`] enqueues each fault
//! as an ordinary simulation event, so fault runs are exactly as
//! deterministic as fault-free ones: the same seed and plan produce a
//! byte-identical event history.

use crate::ids::{NodeId, PortId};
use crate::time::SimTime;
use std::fmt;

/// A single scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Partition `node`'s control channel: control messages to and
    /// from it silently vanish until [`FaultKind::HealControl`].
    PartitionControl {
        /// The node whose secure channel is cut.
        node: NodeId,
    },
    /// Heal a control-channel partition installed earlier.
    HealControl {
        /// The node whose secure channel is restored.
        node: NodeId,
    },
    /// Take the data link attached to `(node, port)` down in both
    /// directions. Unlike [`crate::World::disconnect`] the link object
    /// survives and can come back with [`FaultKind::LinkUp`].
    LinkDown {
        /// Either endpoint of the link.
        node: NodeId,
        /// The port on that endpoint.
        port: PortId,
    },
    /// Bring a flapped link back up.
    LinkUp {
        /// The endpoint named in the matching [`FaultKind::LinkDown`].
        node: NodeId,
        /// The port on that endpoint.
        port: PortId,
    },
    /// Crash `node` and immediately restart it: the node's
    /// [`crate::Node::on_crash_restart`] hook runs, wiping whatever
    /// volatile state the node models (e.g. an OpenFlow flow table).
    CrashRestart {
        /// The node to crash.
        node: NodeId,
    },
    /// Corrupt the next `count` control messages sent *by* `node`
    /// (one random byte each, drawn from the plan's dedicated RNG).
    CorruptControl {
        /// The sender whose frames get mangled.
        node: NodeId,
        /// How many outgoing control messages to corrupt.
        count: u32,
    },
    /// Kill controller shard `shard` of the sharded control plane
    /// running at `node`: the plane's [`crate::Node::on_shard_down`]
    /// hook runs, and surviving shards adopt the dead shard's
    /// switches. A no-op on nodes that don't model shards.
    ShardDown {
        /// The node hosting the sharded control plane.
        node: NodeId,
        /// The shard to kill.
        shard: u32,
    },
    /// Tamper with one installed flow entry on `node`: the node's
    /// [`crate::Node::on_rule_tamper`] hook runs with a salt drawn
    /// from the dedicated fault RNG and silently rewrites an entry's
    /// actions behind the controller's back (no `FlowRemoved`, no
    /// error — the compromise is invisible at the control channel).
    RuleTamper {
        /// The switch whose table is tampered with.
        node: NodeId,
    },
    /// Put `node` into silent-misforward mode: its
    /// [`crate::Node::on_misforward`] hook runs and from then on the
    /// switch forwards matching packets out a wrong port *without*
    /// touching its flow table — the table still reads correct.
    /// Cleared by a [`FaultKind::CrashRestart`] (the compromise is
    /// volatile).
    SilentMisforward {
        /// The switch that starts misforwarding.
        node: NodeId,
    },
    /// Make `node` originate a frame the controller never admitted:
    /// its [`crate::Node::on_packet_inject`] hook runs with a salt
    /// from the fault RNG and emits a forged packet into the fabric.
    PacketInject {
        /// The switch that injects the packet.
        node: NodeId,
    },
}

/// A fault and the absolute simulated time at which it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, seed-driven schedule of faults.
///
/// Build one with [`FaultPlan::new`] and [`FaultPlan::at`], then hand
/// it to [`crate::World::install_fault_plan`]. The `seed` drives only
/// the *corruption* RNG — it is deliberately separate from the world's
/// traffic RNG so enabling faults never perturbs the random choices an
/// otherwise-identical fault-free run would make.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for the dedicated fault RNG (frame corruption).
    pub seed: u64,
    /// The scheduled faults, in whatever order they were added.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates an empty plan with the given corruption-RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Schedules `kind` at absolute time `at` (builder style).
    #[must_use]
    pub fn at(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Schedules `kind` at absolute time `at` (in-place).
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks the plan for internal consistency.
    ///
    /// Today that means: every [`FaultKind::HealControl`] must have a
    /// [`FaultKind::PartitionControl`] for the same node scheduled at
    /// or before it — a heal with nothing to heal is almost certainly
    /// a typo'd node id, and silently ignoring it would hide the bug.
    /// [`crate::World::install_fault_plan`] calls this and refuses the
    /// plan on `Err`.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::UnmatchedHeal`] for the first heal in plan
    /// order with no matching partition.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for heal in &self.events {
            let FaultKind::HealControl { node } = heal.kind else {
                continue;
            };
            let matched = self
                .events
                .iter()
                .any(|e| e.kind == FaultKind::PartitionControl { node } && e.at <= heal.at);
            if !matched {
                return Err(FaultPlanError::UnmatchedHeal { node, at: heal.at });
            }
        }
        Ok(())
    }
}

/// Why a [`FaultPlan`] was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A [`FaultKind::HealControl`] with no
    /// [`FaultKind::PartitionControl`] for the same node scheduled at or
    /// before it.
    UnmatchedHeal {
        /// The node the heal names.
        node: NodeId,
        /// When the heal is scheduled.
        at: SimTime,
    },
    /// A fault scheduled before the world's clock: installing it would
    /// set the clock back.
    BeforeClock {
        /// When the fault is scheduled.
        at: SimTime,
        /// The world's clock at installation.
        now: SimTime,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::UnmatchedHeal { node, at } => write!(
                f,
                "HealControl for node {} at {at} has no matching \
                 PartitionControl scheduled at or before it",
                node.0
            ),
            FaultPlanError::BeforeClock { at, now } => {
                write!(f, "fault at {at} is before the clock ({now})")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_in_order() {
        let plan = FaultPlan::new(9)
            .at(
                SimTime::from_nanos(5),
                FaultKind::PartitionControl { node: NodeId(1) },
            )
            .at(
                SimTime::from_nanos(9),
                FaultKind::HealControl { node: NodeId(1) },
            );
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(
            plan.events[0].kind,
            FaultKind::PartitionControl { node: NodeId(1) }
        );
    }

    #[test]
    fn empty_plan_reports_empty() {
        let plan = FaultPlan::new(0);
        assert!(plan.is_empty());
    }

    #[test]
    fn heal_with_matching_partition_validates() {
        let plan = FaultPlan::new(1)
            .at(
                SimTime::from_nanos(5),
                FaultKind::PartitionControl { node: NodeId(3) },
            )
            .at(
                SimTime::from_nanos(9),
                FaultKind::HealControl { node: NodeId(3) },
            );
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn heal_without_partition_is_rejected() {
        let plan = FaultPlan::new(1).at(
            SimTime::from_nanos(9),
            FaultKind::HealControl { node: NodeId(3) },
        );
        let err = plan.validate().unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::UnmatchedHeal {
                node: NodeId(3),
                at: SimTime::from_nanos(9)
            }
        );
        assert!(
            err.to_string().contains("no matching PartitionControl"),
            "{err}"
        );
    }

    #[test]
    fn heal_before_partition_is_rejected() {
        // The partition exists but fires *after* the heal: still a bug.
        let plan = FaultPlan::new(1)
            .at(
                SimTime::from_nanos(9),
                FaultKind::HealControl { node: NodeId(3) },
            )
            .at(
                SimTime::from_nanos(20),
                FaultKind::PartitionControl { node: NodeId(3) },
            );
        assert!(plan.validate().is_err());
    }

    #[test]
    fn heal_for_wrong_node_is_rejected() {
        let plan = FaultPlan::new(1)
            .at(
                SimTime::from_nanos(5),
                FaultKind::PartitionControl { node: NodeId(3) },
            )
            .at(
                SimTime::from_nanos(9),
                FaultKind::HealControl { node: NodeId(4) },
            );
        assert!(plan.validate().is_err());
    }
}
