//! Robustness: the controller must survive hostile or corrupted
//! control-channel traffic and malformed service-element messages
//! while continuing to serve the legitimate network.

use livesec::balance::{Grain, HashDispatch, LoadBalancer};
use livesec_net::{MacAddr, Packet, Payload};
use livesec_services::{IdsEngine, ServiceElement, ServiceType, SE_CONTROL_MAC, SE_CONTROL_PORT};
use livesec_suite::prelude::*;
use livesec_switch::{App, AsSwitch, Host, HostIo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;

/// Floods the controller with random bytes over the control channel.
struct ControlFuzzer {
    controller: Option<NodeId>,
    rng: StdRng,
    remaining: u32,
    /// Delay before the first fuzz frame (0 = immediately).
    start_after: SimDuration,
}

impl Node for ControlFuzzer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.start_after + SimDuration::from_micros(200), 1);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let Some(ctrl) = self.controller else { return };
        let len = self.rng.gen_range(0..64);
        let mut bytes = vec![0u8; len];
        self.rng.fill(&mut bytes[..]);
        // Two thirds of the time, mangle a real message instead of
        // sending pure noise (deeper into the decoder): either flip a
        // byte, or truncate it mid-stream so the length prefix promises
        // more bytes than arrive.
        match self.remaining % 3 {
            0 => {
                bytes = livesec_openflow::codec::encode(&livesec_openflow::OfMessage::Hello, 1);
                if !bytes.is_empty() {
                    let pos = self.rng.gen_range(0..bytes.len());
                    bytes[pos] ^= self.rng.gen_range(1u8..=255);
                }
            }
            1 => {
                bytes = livesec_openflow::codec::encode(
                    &livesec_openflow::OfMessage::EchoRequest(self.remaining as u64),
                    1,
                );
                if bytes.len() > 1 {
                    let cut = self.rng.gen_range(1..bytes.len());
                    bytes.truncate(cut);
                }
            }
            _ => {}
        }
        ctx.send_control(ctrl, bytes);
        ctx.set_timer(SimDuration::from_micros(200), 1);
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _p: PortId, _pkt: Packet) {}
    fn on_control(&mut self, _ctx: &mut Ctx<'_>, _peer: NodeId, _bytes: &[u8]) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sends garbage "SE control" payloads through the packet-in path.
struct RogueSeNoise {
    seq: u32,
}

impl App for RogueSeNoise {
    fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
        io.set_timer(SimDuration::from_millis(50), 1);
    }
    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, _t: u64) {
        self.seq += 1;
        // Magic prefix but bogus structure.
        let mut payload = b"LSEC".to_vec();
        payload.push((self.seq % 256) as u8);
        payload.extend_from_slice(&self.seq.to_be_bytes());
        let pkt = Packet::new(
            livesec_net::EthernetHeader::new(
                io.mac(),
                SE_CONTROL_MAC,
                livesec_net::EtherType::Ipv4,
            ),
            livesec_net::Body::Ipv4(livesec_net::Ipv4Packet::new(
                livesec_net::Ipv4Header::new(io.ip(), std::net::Ipv4Addr::BROADCAST),
                livesec_net::Transport::Udp(livesec_net::UdpDatagram::new(
                    SE_CONTROL_PORT,
                    SE_CONTROL_PORT,
                    Payload::from(payload),
                )),
            )),
        );
        io.send_raw(pkt);
        io.set_timer(SimDuration::from_millis(50), 1);
    }
}

#[test]
fn controller_survives_fuzzed_control_and_rogue_se_traffic() {
    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("ids-web")
            .dst_port(80)
            .chain(vec![ServiceType::IntrusionDetection]),
    );
    let mut b = CampusBuilder::new(99, 2).with_policy(policy);
    let gw = b.add_gateway_with_app(0, HttpServer::new());
    b.add_service_element(0, ServiceElement::new(IdsEngine::engine()));
    let user = b.add_user(
        1,
        HttpClient::new(gw.ip, 20_000).with_think_time(SimDuration::from_millis(100)),
    );
    // The rogue host pushes malformed SE messages through packet-in.
    b.add_user(1, RogueSeNoise { seq: 0 });
    let mut campus = b.finish();
    // The fuzzer hammers the controller's secure channel directly.
    let fuzzer = campus.world.add_node(ControlFuzzer {
        controller: Some(campus.controller),
        rng: StdRng::seed_from_u64(0xf0bb),
        remaining: 5_000,
        start_after: SimDuration::from_micros(0),
    });
    let _ = fuzzer;

    campus.world.run_for(SimDuration::from_secs(3));

    // The controller neither panicked nor stopped serving: the
    // legitimate user browsed normally throughout.
    let done = campus
        .world
        .node::<Host<HttpClient>>(user.node)
        .app()
        .completed;
    assert!(done > 10, "legitimate traffic survived the noise: {done}");
    let c = campus.controller();
    assert!(c.topology().is_full_mesh(), "discovery unharmed");
    assert!(
        c.locations()
            .online_of(ServiceType::IntrusionDetection)
            .count()
            == 1,
        "real element still registered"
    );
}

/// Failure injection: a service element crashes (its access port goes
/// dark) in the middle of a burst of recurring flows. Subsequent
/// setups must re-steer through the surviving replica.
#[test]
fn se_crash_mid_burst_invalidates_and_resteers() {
    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("ids-web")
            .dst_port(80)
            .chain(vec![ServiceType::IntrusionDetection]),
    );
    let mut b = CampusBuilder::new(7, 2)
        .with_policy(policy)
        // Sticky per-user balancing: recurring setups repeat the same
        // pick until the crash.
        .with_balancer(LoadBalancer::new(HashDispatch::new(), Grain::User))
        // Idle timeout below the client's think time: every request is
        // a fresh setup of the same flow key.
        .configure_controller(|c| c.set_flow_idle_timeout(SimDuration::from_millis(300)));
    let gw = b.add_gateway_with_app(0, HttpServer::new());
    let ids_a = b.add_service_element(0, ServiceElement::new(IdsEngine::engine()));
    let ids_b = b.add_service_element(1, ServiceElement::new(IdsEngine::engine()));
    let user = b.add_user(
        1,
        HttpClient::new(gw.ip, 20_000).with_think_time(SimDuration::from_millis(400)),
    );
    let mut campus = b.finish();

    campus.world.run_for(SimDuration::from_secs(3));
    let starts_before = campus.controller().monitor().of_tag("flow_start").count();
    assert!(starts_before > 1, "flows never recurred");

    // Crash whichever element currently carries the user's flows.
    let carried: Vec<MacAddr> = campus
        .controller()
        .monitor()
        .of_tag("flow_start")
        .filter_map(|e| match &e.kind {
            EventKind::FlowStart { elements, .. } => elements.first().copied(),
            _ => None,
        })
        .collect();
    let dead_mac = *carried.last().expect("at least one steered flow");
    let (dead, survivor) = if dead_mac == ids_a.mac {
        (ids_a, ids_b)
    } else {
        (ids_b, ids_a)
    };
    campus
        .world
        .node_mut::<AsSwitch>(campus.as_switches[dead.switch])
        .fail_port(dead.port);

    campus.world.run_for(SimDuration::from_secs(3));
    let c = campus.controller();
    assert_eq!(
        c.locations()
            .online_of(ServiceType::IntrusionDetection)
            .count(),
        1,
        "dead element still considered online"
    );
    // Every setup after the crash steers through the survivor only.
    let resteered: Vec<Vec<MacAddr>> = c
        .monitor()
        .of_tag("flow_start")
        .skip(starts_before)
        .filter_map(|e| match &e.kind {
            EventKind::FlowStart { elements, .. } => Some(elements.clone()),
            _ => None,
        })
        .collect();
    assert!(!resteered.is_empty(), "no setups after the crash");
    assert!(
        resteered
            .iter()
            .rev()
            .take(3)
            .all(|els| els == &vec![survivor.mac]),
        "late setups must steer through the survivor: {resteered:?}"
    );
    let done = campus
        .world
        .node::<Host<HttpClient>>(user.node)
        .app()
        .completed;
    assert!(done > 5, "traffic survived the element crash: {done}");
}

/// Failure injection: a link status change (an uplink port drops)
/// mid-burst. Compiled programs may depend on the topology; flows must
/// keep being set up, and completing, across the change.
#[test]
fn link_down_mid_burst_invalidates_and_recompiles() {
    let mut b = CampusBuilder::new(11, 2)
        .with_policy(PolicyTable::allow_all())
        .configure_controller(|c| c.set_flow_idle_timeout(SimDuration::from_millis(300)));
    let gw = b.add_gateway_with_app(0, HttpServer::new());
    // All traffic stays on switch 0; switch 1 exists so one uplink can
    // die without partitioning the flows we watch.
    let user = b.add_user(
        0,
        HttpClient::new(gw.ip, 20_000).with_think_time(SimDuration::from_millis(400)),
    );
    let mut campus = b.finish();

    campus.world.run_for(SimDuration::from_secs(3));
    let before = campus.controller().fast_path_stats();

    let idle_switch = campus.as_switches[1];
    let dpid = campus
        .controller()
        .topology()
        .dpid_of_node(idle_switch)
        .expect("switch joined");
    let uplink = campus
        .controller()
        .topology()
        .uplink_of(dpid)
        .expect("uplink discovered");
    campus
        .world
        .node_mut::<AsSwitch>(idle_switch)
        .fail_port(uplink);

    campus.world.run_for(SimDuration::from_secs(3));
    let c = campus.controller();
    let after = c.fast_path_stats();
    assert!(
        after.flow_setups > before.flow_setups,
        "flows must keep being set up after the link change"
    );
    let done = campus
        .world
        .node::<Host<HttpClient>>(user.node)
        .app()
        .completed;
    assert!(done > 10, "traffic unaffected by the idle uplink: {done}");
}

/// Hostile reconnect: a switch is partitioned past the liveness
/// timeout, and the moment the partition heals, its first frames are
/// corrupted *and* a fuzzer floods the controller with garbage. The
/// controller must still re-register the switch, audit its table, and
/// resume serving traffic — resynchronization works through noise.
#[test]
fn garbage_right_after_reconnect_still_resynchronizes() {
    let mut b = CampusBuilder::new(13, 2).with_policy(PolicyTable::allow_all());
    let gw = b.add_gateway_with_app(0, HttpServer::new());
    let user = b.add_user(
        1,
        HttpClient::new(gw.ip, 20_000).with_think_time(SimDuration::from_millis(200)),
    );
    let mut campus = b.finish();
    let victim = campus.as_switches[1];

    // Partition for 4 s (past the 3 s liveness timeout), then mangle
    // the switch's first post-heal frames — the reconnect hellos.
    let heal_ns: u64 = 6_000_000_000;
    let mut plan = FaultPlan::new(0x6a7ba6e);
    plan.push(
        SimTime::from_nanos(2_000_000_000),
        FaultKind::PartitionControl { node: victim },
    );
    plan.push(
        SimTime::from_nanos(heal_ns),
        FaultKind::HealControl { node: victim },
    );
    plan.push(
        SimTime::from_nanos(heal_ns),
        FaultKind::CorruptControl {
            node: victim,
            count: 3,
        },
    );
    campus
        .world
        .install_fault_plan(&plan)
        .expect("valid fault plan");
    // Independent garbage starts hammering the controller's channel at
    // the same instant the switch tries to come back.
    campus.world.add_node(ControlFuzzer {
        controller: Some(campus.controller),
        rng: StdRng::seed_from_u64(0x6a7b),
        remaining: 5_000,
        start_after: SimDuration::from_nanos(heal_ns),
    });

    // Three corrupted hellos push the reconnect several backoff steps
    // out (worst case ~ heal + 7 s); run well past that.
    campus.world.run_for(SimDuration::from_secs(18));

    let c = campus.controller();
    let h = c.health_stats();
    assert!(h.switch_downs >= 1, "the partition was noticed: {h:?}");
    assert_eq!(
        h.switch_ups, h.switch_downs,
        "the switch re-registered through the garbage: {h:?}"
    );
    assert!(
        h.audits >= 1,
        "the reconnect triggered a flow-table audit: {h:?}"
    );
    assert!(c.topology().is_full_mesh(), "discovery recovered");
    let done = campus
        .world
        .node::<Host<HttpClient>>(user.node)
        .app()
        .completed;
    assert!(done > 10, "legitimate traffic kept completing: {done}");
    // The user (on the victim switch) kept getting flows set up after
    // the heal, proving the resynchronized switch actually serves.
    let after_heal = c
        .monitor()
        .of_tag("flow_start")
        .filter(|e| e.at > SimTime::from_nanos(heal_ns))
        .count();
    assert!(after_heal > 0, "no flow setups after the heal");
}
