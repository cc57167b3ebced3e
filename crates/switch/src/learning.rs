//! The Legacy-Switching layer: a MAC-learning Ethernet switch.

use livesec_net::{HashSet, Packet};
use livesec_sim::{Ctx, Node, PortId, SimDuration, SimTime};
use std::any::Any;
use std::collections::BTreeMap;

/// Timer token for the aging sweep.
const AGE_TICK: u64 = 1;

/// A classic transparent learning bridge with address aging.
///
/// This is the paper's Legacy-Switching layer: it provides plain L2
/// reachability between all Access-Switching switches and is entirely
/// unaware of OpenFlow. Loop freedom in redundant topologies comes from
/// [`crate::stp`], which marks blocked ports.
#[derive(Debug)]
pub struct LearningSwitch {
    n_ports: u32,
    // Ordered so the aging sweep in `on_timer` visits entries in
    // MAC order (DESIGN.md §6); lookups are keyed, so the switch
    // dataplane is unaffected.
    table: BTreeMap<livesec_net::MacAddr, (u32, SimTime)>,
    blocked: HashSet<u32>,
    age_limit: SimDuration,
    /// Frames forwarded (unicast hits).
    pub forwarded: u64,
    /// Frames flooded (unknown destination, broadcast, multicast).
    pub flooded: u64,
}

impl LearningSwitch {
    /// Creates a learning switch with `n_ports` ports and a 300 s
    /// address age limit (the common IEEE default).
    pub fn new(n_ports: u32) -> Self {
        LearningSwitch {
            n_ports,
            table: BTreeMap::new(),
            blocked: HashSet::default(),
            age_limit: SimDuration::from_secs(300),
            forwarded: 0,
            flooded: 0,
        }
    }

    /// Sets the address aging limit.
    pub fn with_age_limit(mut self, age_limit: SimDuration) -> Self {
        self.age_limit = age_limit;
        self
    }

    /// Blocks a port (spanning-tree discarding state): no learning, no
    /// forwarding in or out.
    pub fn block_port(&mut self, port: u32) {
        self.blocked.insert(port);
    }

    /// Number of learned addresses (for tests and monitoring).
    pub fn learned(&self) -> usize {
        self.table.len()
    }
}

impl Node for LearningSwitch {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.age_limit, AGE_TICK);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) {
        let in_port = port.number();
        if self.blocked.contains(&in_port) {
            return;
        }
        // Learn the source.
        if pkt.eth.src.is_unicast() {
            self.table.insert(pkt.eth.src, (in_port, ctx.now()));
        }
        // Forward.
        if pkt.eth.dst.is_unicast() {
            if let Some(&(out, seen)) = self.table.get(&pkt.eth.dst) {
                if ctx.now().saturating_since(seen) <= self.age_limit {
                    if out != in_port && !self.blocked.contains(&out) {
                        self.forwarded += 1;
                        ctx.send(PortId(out), pkt);
                    }
                    // Destination is on the ingress segment: filter.
                    return;
                }
            }
        }
        // Unknown unicast, broadcast or multicast: flood, to the ports
        // a frame can leave by.
        self.flooded += 1;
        for p in 1..=self.n_ports {
            if p != in_port && !ctx.is_unplugged(PortId(p)) && !self.blocked.contains(&p) {
                ctx.send(PortId(p), pkt.clone());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != AGE_TICK {
            return;
        }
        let now = ctx.now();
        let limit = self.age_limit;
        self.table
            .retain(|_, (_, seen)| now.saturating_since(*seen) <= limit);
        ctx.set_timer(self.age_limit, AGE_TICK);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_net::{MacAddr, PacketBuilder};
    use livesec_sim::{LinkSpec, World};

    struct Endpoint {
        mac: MacAddr,
        to_send: Vec<(MacAddr, u32)>, // (dst, payload len)
        got: Vec<Packet>,
    }

    impl Endpoint {
        fn new(mac: MacAddr) -> Self {
            Endpoint {
                mac,
                to_send: vec![],
                got: vec![],
            }
        }
    }

    impl Node for Endpoint {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            // Poll the outbox every 100 µs so tests can enqueue frames
            // between run_for() calls.
            ctx.set_timer(SimDuration::from_micros(100), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            for (dst, len) in self.to_send.drain(..) {
                let pkt = PacketBuilder::udp(self.mac, dst)
                    .ips("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap())
                    .ports(1, 2)
                    .payload_len(len)
                    .build();
                ctx.send(PortId(1), pkt);
            }
            ctx.set_timer(SimDuration::from_micros(100), 0);
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
            self.got.push(pkt);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn mac(v: u64) -> MacAddr {
        MacAddr::from_u64(v)
    }

    #[test]
    fn floods_unknown_then_learns() {
        let mut world = World::new(1);
        let sw = world.add_node(LearningSwitch::new(3));
        let a = world.add_node(Endpoint::new(mac(1)));
        let b = world.add_node(Endpoint::new(mac(2)));
        let c = world.add_node(Endpoint::new(mac(3)));
        world.connect(a, PortId(1), sw, PortId(1), LinkSpec::gigabit());
        world.connect(b, PortId(1), sw, PortId(2), LinkSpec::gigabit());
        world.connect(c, PortId(1), sw, PortId(3), LinkSpec::gigabit());

        // A sends to B (unknown): flooded to both B and C.
        world.node_mut::<Endpoint>(a).to_send = vec![(mac(2), 10)];
        world.run_for(SimDuration::from_millis(1));
        assert_eq!(world.node::<Endpoint>(b).got.len(), 1);
        assert_eq!(world.node::<Endpoint>(c).got.len(), 1);

        // B replies to A (learned): unicast, C sees nothing new.
        world.node_mut::<Endpoint>(b).to_send = vec![(mac(1), 10)];
        world.run_for(SimDuration::from_millis(1));
        assert_eq!(world.node::<Endpoint>(a).got.len(), 1);
        assert_eq!(world.node::<Endpoint>(c).got.len(), 1, "no extra flood");
        assert_eq!(world.node::<LearningSwitch>(sw).learned(), 2);
    }

    #[test]
    fn broadcast_always_floods() {
        let mut world = World::new(1);
        let sw = world.add_node(LearningSwitch::new(3));
        let a = world.add_node(Endpoint::new(mac(1)));
        let b = world.add_node(Endpoint::new(mac(2)));
        let c = world.add_node(Endpoint::new(mac(3)));
        world.connect(a, PortId(1), sw, PortId(1), LinkSpec::gigabit());
        world.connect(b, PortId(1), sw, PortId(2), LinkSpec::gigabit());
        world.connect(c, PortId(1), sw, PortId(3), LinkSpec::gigabit());
        world.node_mut::<Endpoint>(a).to_send = vec![(MacAddr::BROADCAST, 10)];
        world.run_for(SimDuration::from_millis(1));
        assert_eq!(world.node::<Endpoint>(b).got.len(), 1);
        assert_eq!(world.node::<Endpoint>(c).got.len(), 1);
        assert_eq!(world.node::<LearningSwitch>(sw).flooded, 1);
    }

    #[test]
    fn a_flood_reaches_only_plugged_ports() {
        // A legacy switch sized for a campus, with three cables: a
        // flood sends two frames and counts no drop on the empty ports.
        let mut world = World::new(1);
        let sw = world.add_node(LearningSwitch::new(160));
        let a = world.add_node(Endpoint::new(mac(1)));
        let b = world.add_node(Endpoint::new(mac(2)));
        let c = world.add_node(Endpoint::new(mac(3)));
        world.connect(a, PortId(1), sw, PortId(1), LinkSpec::gigabit());
        world.connect(b, PortId(1), sw, PortId(80), LinkSpec::gigabit());
        world.connect(c, PortId(1), sw, PortId(160), LinkSpec::gigabit());
        world.node_mut::<Endpoint>(a).to_send = vec![(MacAddr::BROADCAST, 10), (mac(9), 10)];
        world.run_for(SimDuration::from_millis(1));
        assert_eq!(world.node::<LearningSwitch>(sw).flooded, 2);
        let (mut sent, mut dropped) = (0, 0);
        for p in 1..=160 {
            let counters = world.kernel().port_counters(sw, PortId(p));
            sent += counters.tx_frames;
            dropped += counters.drops;
        }
        assert_eq!((sent, dropped), (2 * 2, 0));
        assert_eq!(world.node::<Endpoint>(b).got.len(), 2);
        assert_eq!(world.node::<Endpoint>(c).got.len(), 2);
    }

    #[test]
    fn blocked_port_is_silent() {
        let mut world = World::new(1);
        let sw = world.add_node(LearningSwitch::new(3));
        let a = world.add_node(Endpoint::new(mac(1)));
        let b = world.add_node(Endpoint::new(mac(2)));
        let c = world.add_node(Endpoint::new(mac(3)));
        world.connect(a, PortId(1), sw, PortId(1), LinkSpec::gigabit());
        world.connect(b, PortId(1), sw, PortId(2), LinkSpec::gigabit());
        world.connect(c, PortId(1), sw, PortId(3), LinkSpec::gigabit());
        world.node_mut::<LearningSwitch>(sw).block_port(3);
        world.node_mut::<Endpoint>(a).to_send = vec![(MacAddr::BROADCAST, 10)];
        world.run_for(SimDuration::from_millis(1));
        assert_eq!(world.node::<Endpoint>(b).got.len(), 1);
        assert!(world.node::<Endpoint>(c).got.is_empty(), "blocked");
    }

    #[test]
    fn addresses_age_out() {
        let mut world = World::new(1);
        let sw =
            world.add_node(LearningSwitch::new(2).with_age_limit(SimDuration::from_millis(50)));
        let a = world.add_node(Endpoint::new(mac(1)));
        let b = world.add_node(Endpoint::new(mac(2)));
        world.connect(a, PortId(1), sw, PortId(1), LinkSpec::gigabit());
        world.connect(b, PortId(1), sw, PortId(2), LinkSpec::gigabit());
        world.node_mut::<Endpoint>(a).to_send = vec![(mac(2), 10)];
        world.run_for(SimDuration::from_millis(1));
        assert_eq!(world.node::<LearningSwitch>(sw).learned(), 1);
        world.run_for(SimDuration::from_millis(200));
        assert_eq!(world.node::<LearningSwitch>(sw).learned(), 0, "aged out");
    }
}
