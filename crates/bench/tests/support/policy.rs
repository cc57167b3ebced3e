//! Fixtures shared by the `policy` bench and its floor test
//! (`tests/policy.rs`): a `.lsp` rulebook with one rule to edit, and a
//! 1000-switch snapshot whose single-rule deltas touch two items each.

use livesec_net::{FlowKey, Ipv4Net, MacAddr};
use livesec_openflow::{Action, FlowEntry, Match, OutPort};
use livesec_verify::{FlowView, HostInfo, Snapshot, SwitchState};
use std::net::Ipv4Addr;

/// Access switches in the synthetic campus.
pub const SWITCHES: u64 = 1_000;
/// Rules in the compiled program.
pub const RULES: usize = 200;

fn host_mac(i: u64) -> MacAddr {
    MacAddr::from_u64(0x02_0000_0000 + i)
}

fn host_ip(i: u64) -> Ipv4Addr {
    Ipv4Addr::from(0x0a00_0000 + i as u32)
}

/// One delivered flow per switch: host A (port 2) talks to host B
/// (port 3) on the same switch over exact-match entries, plus a
/// telnet block every fifth switch. Every item is clean by
/// construction, so audit time is tracing cost, not violation
/// formatting.
pub fn build_snapshot(switches: u64) -> Snapshot {
    let mut snap = Snapshot {
        switches: Vec::new(),
        hosts: Vec::new(),
        elements: Vec::new(),
        blocks: Vec::new(),
        flows: Vec::new(),
        fastpasses: Vec::new(),
        shards: Vec::new(),
        quarantined: Vec::new(),
    };
    for d in 1..=switches {
        let (a, b) = (host_mac(2 * d), host_mac(2 * d + 1));
        let key = FlowKey {
            vlan: None,
            dl_src: a,
            dl_dst: b,
            dl_type: 0x0800,
            nw_src: host_ip(2 * d),
            nw_dst: host_ip(2 * d + 1),
            nw_proto: 6,
            tp_src: 40_000,
            tp_dst: 80,
        };
        snap.hosts.push(HostInfo {
            mac: a,
            ip: key.nw_src,
            dpid: d,
            port: 2,
        });
        snap.hosts.push(HostInfo {
            mac: b,
            ip: key.nw_dst,
            dpid: d,
            port: 3,
        });
        snap.switches.push(SwitchState {
            dpid: d,
            uplink: Some(1),
            n_ports: 4,
            entries: vec![
                FlowEntry::new(
                    Match::exact_any_port(&key),
                    vec![Action::Output(OutPort::Physical(3))],
                    10,
                ),
                FlowEntry::new(
                    Match::exact_any_port(&key.reversed()),
                    vec![Action::Output(OutPort::Physical(2))],
                    10,
                ),
            ],
            degraded: false,
        });
        snap.flows.push(FlowView {
            key,
            chain: Vec::new(),
            blocked: false,
        });
        if d % 5 == 0 {
            snap.blocks
                .push((d, Match::any().with_nw_proto(6).with_tp_dst(2323)));
        }
    }
    snap
}

/// The cube a single-rule edit on switch `d`'s flow touches: one
/// destination host, one port — what `apply_policy_delta` reports for
/// a host-scoped rule.
pub fn single_rule_cube(d: u64) -> Match {
    Match::any()
        .with_nw_dst(Ipv4Net::host(host_ip(2 * d + 1)))
        .with_nw_proto(6)
        .with_tp_dst(80)
}

/// A `.lsp` rulebook with `n` port-disjoint rules; `flipped` turns that
/// rule's verdict to `deny`.
pub fn rulebook(n: usize, flipped: Option<usize>) -> String {
    let mut src = String::from("chain scrub = [ ids, protoid ]\n");
    for i in 0..n {
        let verdict = match (i % 3, Some(i) == flipped) {
            (_, true) => "deny",
            (0, _) => "allow",
            (1, _) => "via scrub",
            _ => "deny",
        };
        src.push_str(&format!(
            "rule r{i}: proto tcp port {} {verdict}\n",
            1000 + i
        ));
    }
    src.push_str("default allow\n");
    src
}
