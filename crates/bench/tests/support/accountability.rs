//! Fixtures shared by the `accountability` bench and its floor test
//! (`tests/accountability.rs`): flows with registered 3-hop path
//! proofs, and the honest attestations a sampled packet leaves on them.

use livesec::accountability::{AccountabilityDetector, PathProof, ProofSource};
use livesec::flow_sig;
use livesec::routing::{SteeringProgram, SwitchEntry};
use livesec_net::{FlowKey, MacAddr};
use livesec_openflow::{
    attestation_tag, packet_tag, Action, ForwardingAttestation, Match, OutPort,
};
use livesec_sim::SimTime;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Proof hops every flow uses: ingress (cookie-tagged), SE relay,
/// egress — the hops `PathProof::hops` derives from a steered flow's
/// program ([`program_of`]).
pub const HOPS: [(u64, u32, u32, u64); 3] = [(1, 5, 1, 1), (2, 1, 7, 0), (3, 1, 9, 0)];

/// The ingress cookie of [`HOPS`].
const COOKIE: u64 = HOPS[0].3;

/// The program whose proof has the [`HOPS`]: one exact entry per hop,
/// emitting on the hop's out-port.
pub fn program_of(key: &FlowKey) -> SteeringProgram {
    SteeringProgram {
        entries: HOPS
            .iter()
            .map(|&(dpid, in_port, out_port, _)| SwitchEntry {
                dpid,
                matcher: Match::exact(in_port, key),
                actions: vec![Action::Output(OutPort::Physical(out_port))].into(),
                priority: 100,
            })
            .collect(),
    }
}

/// When replay observes: well past `PROOF_GRACE` of the t=0
/// registrations, so a mismatch is a verdict, not a stale-straggler
/// discard.
pub const REPLAY_AT: SimTime = SimTime::from_nanos(1_000_000_000);

pub fn key_of(i: u64) -> FlowKey {
    FlowKey {
        vlan: None,
        dl_src: MacAddr::from_u64(0x02_0000_0000 + i),
        dl_dst: MacAddr::from_u64(0x02_0000_0000 + i + 1),
        dl_type: 0x0800,
        nw_src: Ipv4Addr::from(0x0a00_0000 + (i as u32 & 0xff_ffff)),
        nw_dst: Ipv4Addr::from(0x0b00_0000 + (i as u32 & 0xff_ffff)),
        nw_proto: 6,
        tp_src: 40_000 + (i % 20_000) as u16,
        tp_dst: 80,
    }
}

/// What a switch with honest firmware reports for `hop`, whatever it
/// actually did there.
pub fn att(key: &FlowKey, pkt_tag: u64, hop: (u64, u32, u32, u64)) -> ForwardingAttestation {
    let (dpid, in_port, out_port, cookie) = hop;
    ForwardingAttestation {
        dpid,
        in_port,
        out_port,
        cookie,
        flow: *key,
        pkt_tag,
        tag: attestation_tag(dpid, in_port, out_port, cookie),
    }
}

/// A detector holding a [`HOPS`] path proof for each of `flows` flows.
pub fn loaded_detector(flows: u64) -> AccountabilityDetector {
    let mut d = AccountabilityDetector::new();
    for i in 0..flows {
        let key = key_of(i);
        let program = Rc::new(program_of(&key));
        d.register(
            flow_sig(&key),
            PathProof::of_program(program, COOKIE, ProofSource::Steering, SimTime::ZERO),
        );
    }
    d
}

/// Replays sampled packet `p` (of flow `p % flows`) over all three
/// hops, honestly; returns how many attestations drew a verdict.
pub fn replay_packet(d: &mut AccountabilityDetector, p: u64, flows: u64) -> usize {
    let key = key_of(p % flows);
    let pkt_tag = packet_tag(&key, 64 + (p & 0x3ff));
    HOPS.into_iter()
        .filter(|&hop| d.observe(REPLAY_AT, &att(&key, pkt_tag, hop)).is_some())
        .count()
}
