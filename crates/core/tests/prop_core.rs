//! Property tests: steering-program correctness via an abstract
//! legacy-fabric interpreter, balancer invariants, policy-table
//! semantics, and the decision-cache module's round trip.

use livesec::balance::{
    Dispatcher, Grain, HashDispatch, LeastQueue, LoadBalancer, MinLoad, RoundRobin, SeView,
};
use livesec::cache::{CachedDecision, DecisionCache};
use livesec::policy::{PolicyDecision, PolicyRule, PolicyTable};
use livesec::routing::{compile_path, Hop, SwitchEntry};
use livesec_net::{FlowKey, HashMap, MacAddr};
use livesec_openflow::{Action, OutPort};
use livesec_services::ServiceType;
use livesec_sim::SimTime;
use proptest::prelude::*;
use std::rc::Rc;

fn base_key(dst_mac: MacAddr) -> FlowKey {
    FlowKey {
        vlan: None,
        dl_src: MacAddr::from_u64(0xa),
        dl_dst: dst_mac,
        dl_type: 0x0800,
        nw_src: "10.0.0.1".parse().unwrap(),
        nw_dst: "10.0.0.2".parse().unwrap(),
        nw_proto: 6,
        tp_src: 1111,
        tp_dst: 80,
    }
}

/// An online, idle IDS replica's view.
fn ids_view(mac: MacAddr) -> SeView {
    SeView {
        mac,
        service: ServiceType::IntrusionDetection,
        cpu: 0,
        mem: 0,
        pps: 0,
        total_pkts: 0,
        bps: 0,
        outstanding_flows: 0,
        recent_assignments: 0,
        last_seen: SimTime::ZERO,
        online: true,
    }
}

/// Abstract interpreter: walks a packet through the compiled program
/// over a legacy fabric that delivers by announced MAC location.
/// Returns the delivery point and final (dl_src, dl_dst), or None on
/// blackhole/loop.
fn interpret(
    key: FlowKey,
    hops: &[Hop],
    entries: &[SwitchEntry],
    uplink: u32,
) -> Option<((u64, u32), MacAddr, MacAddr)> {
    let locations: HashMap<MacAddr, (u64, u32)> =
        hops.iter().map(|h| (h.mac, (h.dpid, h.port))).collect();
    let dst = *hops.last().expect("non-empty");

    // The packet starts entering the source's switch from its port.
    let mut at = (hops[0].dpid, hops[0].port);
    let mut cur = key;
    for _step in 0..32 {
        // Delivered to the destination host?
        if at == (dst.dpid, dst.port) && cur.dl_dst == dst.mac {
            return Some((at, cur.dl_src, cur.dl_dst));
        }
        // Is `at` a service-element attachment? Then this is delivery
        // TO the SE; the SE re-emits the identical frame (same port).
        // We model that implicitly: the entry matching (dpid, port)
        // with the current headers covers both cases because the
        // compiler matches the SE's re-emission on the same port.

        // Find the matching entry at this switch/port.
        let entry = entries
            .iter()
            .find(|e| e.dpid == at.0 && e.matcher.matches(at.1, &cur))?;
        // Apply rewrites and the single output.
        let mut out_port = None;
        for a in &entry.actions {
            match a {
                Action::SetDlSrc(m) => cur.dl_src = *m,
                Action::SetDlDst(m) => cur.dl_dst = *m,
                Action::Output(OutPort::Physical(p)) => out_port = Some(*p),
                _ => return None,
            }
        }
        let out = out_port?;
        if out == uplink {
            // Legacy fabric: deliver to the announced location of
            // dl_dst; the frame enters that switch from its uplink.
            let (dpid, _port) = *locations.get(&cur.dl_dst)?;
            at = (dpid, uplink);
        } else {
            // Local delivery to an attached hop; the hop (host or SE)
            // receives it. An SE re-emits the frame into the same
            // port, so the next iteration looks up from there.
            at = (entry.dpid, out);
        }
    }
    None // loop
}

prop_compose! {
    /// 2..=5 hops over 1..=4 switches: src, 0..=3 SEs, dst.
    fn arb_hops()(
        n_mid in 0usize..=3,
        dpids in proptest::collection::vec(1u64..=4, 5),
        ports in proptest::collection::vec(2u32..=9, 5),
    ) -> Vec<Hop> {
        let mut hops = Vec::new();
        for i in 0..(n_mid + 2) {
            hops.push(Hop {
                mac: MacAddr::from_u64(0xa + i as u64),
                dpid: dpids[i],
                // Distinct ports per hop index avoid two hops sharing
                // an attachment point on the same switch.
                port: ports[i] + 10 * i as u32,
            });
        }
        hops
    }
}

proptest! {
    /// Every compiled steering program delivers the packet to the
    /// destination with the original MAC addresses restored, through
    /// the abstract legacy fabric, regardless of how hops are placed.
    #[test]
    fn steering_program_delivers_and_restores(hops in arb_hops()) {
        let key = base_key(hops.last().unwrap().mac);
        let program = compile_path(&key, &hops, |_| Some(1), 100).unwrap();
        let result = interpret(key, &hops, &program.entries, 1);
        let (at, dl_src, dl_dst) = result.expect("program must deliver");
        let dst = hops.last().unwrap();
        prop_assert_eq!(at, (dst.dpid, dst.port));
        prop_assert_eq!(dl_src, key.dl_src, "source MAC restored");
        prop_assert_eq!(dl_dst, key.dl_dst, "destination MAC restored");
    }

    /// The reverse program also delivers (session symmetry).
    #[test]
    fn reverse_program_delivers(hops in arb_hops()) {
        let key = base_key(hops.last().unwrap().mac);
        let mut rev_hops = hops.clone();
        rev_hops.reverse();
        let rkey = key.reversed();
        let program = compile_path(&rkey, &rev_hops, |_| Some(1), 100).unwrap();
        let result = interpret(rkey, &rev_hops, &program.entries, 1);
        prop_assert!(result.is_some(), "reverse path must deliver");
    }

    /// Per-segment invariants: ingress first, every cross-switch
    /// segment has a relay entry on the receiving switch's uplink.
    #[test]
    fn program_structure_invariants(hops in arb_hops()) {
        let key = base_key(hops.last().unwrap().mac);
        let program = compile_path(&key, &hops, |_| Some(1), 77).unwrap();
        prop_assert!(!program.entries.is_empty());
        let first = &program.entries[0];
        prop_assert_eq!(first.dpid, hops[0].dpid);
        prop_assert_eq!(first.matcher.in_port, Some(hops[0].port));
        for e in &program.entries {
            prop_assert_eq!(e.priority, 77);
            prop_assert!(e.matcher.is_exact_headers(), "steering entries are exact");
            // Exactly one output per entry.
            let outputs = e
                .actions
                .iter()
                .filter(|a| matches!(a, Action::Output(_)))
                .count();
            prop_assert_eq!(outputs, 1);
        }
        let cross = hops.windows(2).filter(|w| w[0].dpid != w[1].dpid).count();
        let same = hops.windows(2).filter(|w| w[0].dpid == w[1].dpid).count();
        prop_assert_eq!(program.entries.len(), same + 2 * cross);
    }

    /// Balancers always return an online candidate of the right type,
    /// and round-robin assigns within ±1 of perfectly even.
    #[test]
    fn balancer_invariants(n_se in 1usize..8, n_flows in 1usize..64) {
        let replicas: Vec<SeView> = (0..n_se)
            .map(|i| ids_view(MacAddr::from_u64(0x100 + i as u64)))
            .collect();
        let mut lb = LoadBalancer::new(RoundRobin::new(), Grain::Flow);
        let mut counts: HashMap<MacAddr, u32> = HashMap::default();
        for f in 0..n_flows {
            let mut key = base_key(MacAddr::from_u64(0xffff));
            key.tp_src = f as u16;
            let mac = lb
                .pick(&replicas, ServiceType::IntrusionDetection, &key)
                .expect("candidates online");
            prop_assert!(replicas.iter().any(|v| v.mac == mac));
            *counts.entry(mac).or_insert(0) += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0);
        let min = if counts.len() == n_se {
            counts.values().copied().min().unwrap_or(0)
        } else {
            0
        };
        prop_assert!(max - min <= 1, "round robin is even: {counts:?}");
    }

    /// Every dispatcher returns an in-range index.
    #[test]
    fn dispatchers_stay_in_range(n in 1usize..8, salt in any::<u16>()) {
        let candidates: Vec<SeView> = (0..n)
            .map(|i| SeView {
                mac: MacAddr::from_u64(i as u64),
                service: ServiceType::Firewall,
                cpu: (i * 13 % 100) as u8,
                mem: 0,
                pps: (i as u64 * 31) % 1000,
                total_pkts: (i as u64 * 97) % 10_000,
                bps: 0,
                outstanding_flows: (i as u32 * 7) % 13,
                recent_assignments: (i as u32) % 3,
                last_seen: SimTime::ZERO,
                online: true,
            })
            .collect();
        let mut key = base_key(MacAddr::from_u64(1));
        key.tp_src = salt;
        let user = MacAddr::from_u64(u64::from(salt));
        let mut dispatchers: Vec<Box<dyn Dispatcher>> = vec![
            Box::new(RoundRobin::new()),
            Box::new(HashDispatch::new()),
            Box::new(LeastQueue::new()),
            Box::new(MinLoad::new()),
        ];
        for d in dispatchers.iter_mut() {
            let idx = d.pick(&key, user, &candidates);
            prop_assert!(idx < n, "{} returned {idx} of {n}", d.name());
        }
    }

    /// The decision-cache module's round trip: insert a compiled
    /// decision for arbitrary hop placements, and the lookup must
    /// reproduce it bit for bit.
    #[test]
    fn cache_hit_equals_cold_path_compile(hops in arb_hops()) {
        let key = base_key(hops.last().unwrap().mac);
        let forward = compile_path(&key, &hops, |_| Some(1), 100).unwrap();
        let mut rev_hops = hops.clone();
        rev_hops.reverse();
        let reverse = compile_path(&key.reversed(), &rev_hops, |_| Some(1), 100).unwrap();
        let elements: Vec<MacAddr> = hops[1..hops.len() - 1].iter().map(|h| h.mac).collect();
        let cold = CachedDecision::Steer {
            services: vec![ServiceType::IntrusionDetection; elements.len()],
            elements,
            forward: Rc::new(forward),
            reverse: Rc::new(reverse),
        };
        let ingress = (hops[0].dpid, hops[0].port);
        let mut cache = DecisionCache::new();
        cache.insert(key, ingress, cold.clone());
        prop_assert_eq!(cache.lookup(&key, ingress), Some(cold));
    }

    /// Policy tables: first match wins, and the default applies iff no
    /// rule matches.
    #[test]
    fn policy_first_match_wins(ports in proptest::collection::vec(0u16..8, 0..8), probe in 0u16..8) {
        let mut table = PolicyTable::allow_all();
        for (i, p) in ports.iter().enumerate() {
            let rule = PolicyRule::named(&format!("r{i}")).dst_port(*p);
            table.push(if i % 2 == 0 { rule.deny() } else { rule.allow() });
        }
        let mut key = base_key(MacAddr::from_u64(1));
        key.tp_dst = probe;
        let (decision, name) = table.decide(&key);
        match ports.iter().position(|p| *p == probe) {
            None => {
                prop_assert_eq!(decision, &PolicyDecision::Allow);
                prop_assert_eq!(name, None);
            }
            Some(i) => {
                let expected_name = format!("r{i}");
                prop_assert_eq!(name, Some(expected_name.as_str()));
                let expect = if i % 2 == 0 { PolicyDecision::Deny } else { PolicyDecision::Allow };
                prop_assert_eq!(decision, &expect);
            }
        }
    }
}
