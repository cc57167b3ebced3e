//! Two-hop abstract routing and steering-program compilation
//! (paper §III-C.3 and §IV-A).
//!
//! Because the legacy fabric provides full-mesh reachability between
//! AS switches, any end-to-end delivery is abstractly two hops:
//! ingress AS switch → egress AS switch. Steering a flow through
//! service elements chains such segments: at each hop the destination
//! MAC is rewritten to the next hop, the legacy layer delivers by
//! plain L2 switching, and the next hop's switch relays to the
//! attached port. [`compile_path`] turns a hop list into the complete
//! set of flow entries — the generalization of the paper's 4-entry
//! program (§IV-A) to arbitrary chain lengths.

use livesec_net::{FlowKey, MacAddr};
use livesec_openflow::{Action, ActionList, Match, OutPort};
use std::fmt;

/// One hop of a flow's path: a periphery attachment point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Hop {
    /// The hop's MAC address (host, SE, or gateway).
    pub mac: MacAddr,
    /// The AS switch it attaches to.
    pub dpid: u64,
    /// The Network-Periphery port on that switch.
    pub port: u32,
}

/// A flow entry destined for one switch.
#[derive(Clone, PartialEq, Debug)]
pub struct SwitchEntry {
    /// The switch to install on.
    pub dpid: u64,
    /// The match.
    pub matcher: Match,
    /// The actions.
    pub actions: ActionList,
    /// The priority.
    pub priority: u16,
}

/// The compiled entry set for one direction of one flow.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SteeringProgram {
    /// Entries to install, ingress-first.
    pub entries: Vec<SwitchEntry>,
}

impl SteeringProgram {
    /// The actions of the ingress entry (applied to packet-outs of the
    /// first, controller-buffered packet).
    pub fn ingress_actions(&self) -> &[Action] {
        self.entries
            .first()
            .map(|e| e.actions.as_slice())
            .unwrap_or(&[])
    }
}

impl fmt::Display for SteeringProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(
                f,
                "dpid {}: {} -> {}",
                e.dpid,
                e.matcher,
                e.actions
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )?;
        }
        Ok(())
    }
}

/// Why a path could not be compiled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoutingError {
    /// Fewer than two hops.
    TooFewHops,
    /// A cross-switch segment needs this switch's uplink port, which
    /// LLDP discovery hasn't established yet.
    MissingUplink {
        /// The switch lacking a known uplink.
        dpid: u64,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::TooFewHops => write!(f, "path needs at least source and destination"),
            RoutingError::MissingUplink { dpid } => {
                write!(f, "uplink port of switch {dpid} not yet discovered")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// Compiles the flow entries realizing `key`'s path through `hops`.
///
/// `hops[0]` is the source, `hops[last]` the destination, and any
/// middle hops are service elements (traversed in order). `uplink`
/// maps a datapath id to its legacy-facing port.
///
/// The original `key.dl_dst` must be the destination hop's MAC (the
/// source addressed its frames there); intermediate rewrites and the
/// final restoration all fall out of the segment construction.
///
/// Besides rewriting the destination MAC toward the next hop (the
/// paper's steering primitive), segments *after* a service element
/// also rewrite the **source** MAC to the element's own address,
/// restoring the original at the egress. Without this, a steered flow
/// crosses the legacy fabric several times with the same source MAC
/// arriving from different switches, and the legacy layer's MAC
/// learning flaps between ports and blackholes the flow. With it,
/// every MAC is only ever sourced from one attachment point.
///
/// The program is one allocation, its entry list, sized once for the
/// segments' entries and relays; each entry's actions fit inline in its
/// [`ActionList`].
///
/// # Errors
///
/// Returns [`RoutingError`] if fewer than two hops are given or a
/// needed uplink port is unknown.
pub fn compile_path(
    key: &FlowKey,
    hops: &[Hop],
    uplink: impl Fn(u64) -> Option<u32>,
    priority: u16,
) -> Result<SteeringProgram, RoutingError> {
    if hops.len() < 2 {
        return Err(RoutingError::TooFewHops);
    }
    let last = hops.len() - 1;
    // At most an entry and a relay per segment.
    let mut program = SteeringProgram {
        entries: Vec::with_capacity(2 * last),
    };
    for (i, (cur, next)) in hops.iter().zip(hops.iter().skip(1)).enumerate() {
        // The frame as it enters hop i's switch. The source emits the
        // original headers; a service element re-emits exactly the
        // frame it received (dl_dst = its own MAC, dl_src = whatever
        // the previous segment set).
        let mut entering = *key;
        if i > 0 {
            entering.dl_dst = cur.mac;
            if let Some(before) = hops.get(i - 1).filter(|_| i > 1) {
                entering.dl_src = before.mac;
            }
        }

        // What the frame should look like while traveling segment i.
        let same_switch = cur.dpid == next.dpid;
        let seg_src = if i == 0 || (same_switch && i + 1 == last) {
            // First leg keeps the user's MAC; a same-switch final
            // delivery restores it directly (no legacy transit).
            key.dl_src
        } else {
            cur.mac
        };

        let mut actions = ActionList::new();
        if entering.dl_src != seg_src {
            actions.push(Action::SetDlSrc(seg_src));
        }
        if entering.dl_dst != next.mac {
            actions.push(Action::SetDlDst(next.mac));
        }
        let out_port = if same_switch {
            next.port
        } else {
            uplink(cur.dpid).ok_or(RoutingError::MissingUplink { dpid: cur.dpid })?
        };
        actions.push(Action::Output(OutPort::Physical(out_port)));
        program.entries.push(SwitchEntry {
            dpid: cur.dpid,
            matcher: Match::exact(cur.port, &entering),
            actions,
            priority,
        });

        // Relay entry at the next hop's switch when the segment
        // crosses the legacy fabric.
        if !same_switch {
            let mut seg = *key;
            seg.dl_src = seg_src;
            seg.dl_dst = next.mac;
            let in_up = uplink(next.dpid).ok_or(RoutingError::MissingUplink { dpid: next.dpid })?;
            let mut relay_actions = ActionList::new();
            if i + 1 == last && seg.dl_src != key.dl_src {
                // Egress: restore the original source MAC.
                relay_actions.push(Action::SetDlSrc(key.dl_src));
            }
            relay_actions.push(Action::Output(OutPort::Physical(next.port)));
            program.entries.push(SwitchEntry {
                dpid: next.dpid,
                matcher: Match::exact(in_up, &seg),
                actions: relay_actions,
                priority,
            });
        }
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(0xa),
            dl_dst: MacAddr::from_u64(0xb),
            dl_type: 0x0800,
            nw_src: "10.0.0.1".parse().unwrap(),
            nw_dst: "10.0.0.2".parse().unwrap(),
            nw_proto: 6,
            tp_src: 555,
            tp_dst: 80,
        }
    }

    fn hop(mac: u64, dpid: u64, port: u32) -> Hop {
        Hop {
            mac: MacAddr::from_u64(mac),
            dpid,
            port,
        }
    }

    fn uplink1(_: u64) -> Option<u32> {
        Some(1)
    }

    #[test]
    fn direct_same_switch() {
        // src and dst on the same switch: one entry, no rewrite.
        let p = compile_path(&key(), &[hop(0xa, 1, 2), hop(0xb, 1, 3)], uplink1, 100).unwrap();
        assert_eq!(p.entries.len(), 1);
        let e = &p.entries[0];
        assert_eq!(e.dpid, 1);
        assert_eq!(e.matcher.in_port, Some(2));
        assert_eq!(e.actions, vec![Action::Output(OutPort::Physical(3))]);
    }

    #[test]
    fn direct_cross_switch() {
        // Plain two-hop routing: ingress + egress entries.
        let p = compile_path(&key(), &[hop(0xa, 1, 2), hop(0xb, 2, 3)], uplink1, 100).unwrap();
        assert_eq!(p.entries.len(), 2);
        assert_eq!(p.entries[0].dpid, 1);
        assert_eq!(
            p.entries[0].actions,
            vec![Action::Output(OutPort::Physical(1))],
            "no rewrite needed: dl_dst is already the destination"
        );
        assert_eq!(p.entries[1].dpid, 2);
        assert_eq!(
            p.entries[1].matcher.in_port,
            Some(1),
            "egress matches uplink"
        );
        assert_eq!(
            p.entries[1].actions,
            vec![Action::Output(OutPort::Physical(3))]
        );
    }

    #[test]
    fn paper_four_entry_program() {
        // §IV-A: src@S1 → SE@S2 → gateway@S3 = exactly 4 entries.
        let se = hop(0xfe, 2, 4);
        let p = compile_path(&key(), &[hop(0xa, 1, 2), se, hop(0xb, 3, 5)], uplink1, 100).unwrap();
        assert_eq!(p.entries.len(), 4);

        // (i) ingress: rewrite dl_dst to the SE, send to uplink.
        let e0 = &p.entries[0];
        assert_eq!(e0.dpid, 1);
        assert_eq!(
            e0.actions,
            vec![
                Action::SetDlDst(MacAddr::from_u64(0xfe)),
                Action::Output(OutPort::Physical(1)),
            ]
        );

        // (ii) SE switch: relay rewritten flow to the SE port.
        let e1 = &p.entries[1];
        assert_eq!(e1.dpid, 2);
        assert_eq!(e1.matcher.in_port, Some(1));
        assert_eq!(e1.matcher.dl_dst, Some(MacAddr::from_u64(0xfe)));
        assert_eq!(e1.actions, vec![Action::Output(OutPort::Physical(4))]);

        // (iii) SE switch: returned flow rewritten back to the
        // destination (and marked with the SE's source MAC so the
        // legacy layer's learning stays stable) and sent onward.
        let e2 = &p.entries[2];
        assert_eq!(e2.dpid, 2);
        assert_eq!(e2.matcher.in_port, Some(4), "from the SE's port");
        assert_eq!(e2.matcher.dl_dst, Some(MacAddr::from_u64(0xfe)));
        assert_eq!(
            e2.actions,
            vec![
                Action::SetDlSrc(MacAddr::from_u64(0xfe)),
                Action::SetDlDst(MacAddr::from_u64(0xb)),
                Action::Output(OutPort::Physical(1)),
            ]
        );

        // (iv) egress: restore the original source and deliver to the
        // gateway port.
        let e3 = &p.entries[3];
        assert_eq!(e3.dpid, 3);
        assert_eq!(e3.matcher.dl_dst, Some(MacAddr::from_u64(0xb)));
        assert_eq!(e3.matcher.dl_src, Some(MacAddr::from_u64(0xfe)));
        assert_eq!(
            e3.actions,
            vec![
                Action::SetDlSrc(MacAddr::from_u64(0xa)),
                Action::Output(OutPort::Physical(5))
            ]
        );
    }

    #[test]
    fn se_on_ingress_switch_collapses_entries() {
        // src and SE co-located: no relay entry for that segment.
        let p = compile_path(
            &key(),
            &[hop(0xa, 1, 2), hop(0xfe, 1, 4), hop(0xb, 2, 5)],
            uplink1,
            100,
        )
        .unwrap();
        // ingress->SE (1 entry, direct), SE->dst (1 entry at S1 + 1 relay at S2).
        assert_eq!(p.entries.len(), 3);
        assert_eq!(p.entries[0].dpid, 1);
        assert_eq!(
            p.entries[0].actions,
            vec![
                Action::SetDlDst(MacAddr::from_u64(0xfe)),
                Action::Output(OutPort::Physical(4)),
            ]
        );
    }

    #[test]
    fn two_element_chain() {
        let p = compile_path(
            &key(),
            &[
                hop(0xa, 1, 2),
                hop(0xf1, 2, 3),
                hop(0xf2, 3, 3),
                hop(0xb, 4, 5),
            ],
            uplink1,
            100,
        )
        .unwrap();
        // 3 cross-switch segments × 2 entries each.
        assert_eq!(p.entries.len(), 6);
        // Middle rewrite goes SE1 → SE2.
        let e = &p.entries[2];
        assert_eq!(e.dpid, 2);
        assert_eq!(e.matcher.in_port, Some(3));
        assert!(e
            .actions
            .contains(&Action::SetDlDst(MacAddr::from_u64(0xf2))));
    }

    #[test]
    fn errors() {
        assert_eq!(
            compile_path(&key(), &[hop(0xa, 1, 2)], uplink1, 1),
            Err(RoutingError::TooFewHops)
        );
        assert_eq!(
            compile_path(&key(), &[hop(0xa, 1, 2), hop(0xb, 2, 3)], |_| None, 1),
            Err(RoutingError::MissingUplink { dpid: 1 })
        );
    }

    #[test]
    fn ingress_actions_accessor() {
        let p = compile_path(&key(), &[hop(0xa, 1, 2), hop(0xb, 1, 3)], uplink1, 100).unwrap();
        assert_eq!(p.ingress_actions(), &[Action::Output(OutPort::Physical(3))]);
        assert!(SteeringProgram::default().ingress_actions().is_empty());
    }
}
