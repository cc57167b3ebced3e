//! Network-Periphery endpoints: hosts with pluggable applications.

use livesec_net::packet::arp_frame;
use livesec_net::{
    ArpOp, ArpPacket, Body, HashMap, IcmpMessage, IcmpType, Ipv4Header, Ipv4Net, Ipv4Packet,
    MacAddr, Packet, Payload, TcpFlags, TcpSegment, Transport, UdpDatagram,
};
use livesec_sim::{Ctx, Node, PortId, SimDuration, SimTime};
use rand::rngs::StdRng;
use std::any::Any;
use std::net::Ipv4Addr;

/// Timer token reserved for the host's internal ARP retry logic.
const ARP_RETRY_TOKEN: u64 = u64::MAX;
/// Timer token reserved for periodic gratuitous-ARP announcements.
/// Public so deployment tooling can trigger an immediate announcement
/// after migrating a host (real machines send a gratuitous ARP on
/// link-up).
pub const ANNOUNCE_TOKEN: u64 = u64::MAX - 1;

/// Application behaviour running on a [`Host`].
///
/// Traffic generators (`livesec-workloads`) and service-element
/// daemons (`livesec-services`) implement this. All methods receive a
/// [`HostIo`] that handles ARP resolution and packet construction.
pub trait App: 'static {
    /// Called once when the simulation starts.
    fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
        let _ = io;
    }

    /// Called for every delivered packet (addressed to this host or
    /// broadcast), except ARP and ICMP echo requests, which the host
    /// handles itself.
    fn on_packet(&mut self, io: &mut HostIo<'_, '_>, pkt: &Packet) {
        let _ = (io, pkt);
    }

    /// Called when a timer armed via [`HostIo::set_timer`] fires.
    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, token: u64) {
        let _ = (io, token);
    }

    /// Returns `true` if the app wants ICMP echo requests delivered to
    /// [`App::on_packet`] instead of the host shell answering them.
    /// Middlebox-style apps (service elements) that must forward
    /// steered traffic verbatim override this.
    fn wants_echo_requests(&self) -> bool {
        false
    }
}

/// Addressing and resolver state shared between the host shell and the
/// [`HostIo`] handed to apps.
struct HostCore {
    mac: MacAddr,
    ip: Ipv4Addr,
    /// Local subnet + gateway IP for off-subnet destinations.
    gateway: Option<(Ipv4Net, Ipv4Addr)>,
    /// Answer ARP requests for addresses outside this subnet (gateway
    /// behaviour). `None` = answer only for own IP.
    proxy_arp_outside: Option<Ipv4Net>,
    arp_cache: HashMap<Ipv4Addr, MacAddr>,
    /// Frames awaiting MAC resolution, keyed by next-hop IP.
    pending: Vec<(Ipv4Addr, Packet)>,
    arp_retries_left: HashMap<Ipv4Addr, u8>,
    announce_delay: SimDuration,
    reannounce_every: SimDuration,
    depart_at: Option<SimTime>,
    rx_bytes: u64,
    tx_bytes: u64,
}

impl HostCore {
    fn departed(&self, now: SimTime) -> bool {
        self.depart_at.map(|t| now >= t).unwrap_or(false)
    }
}

impl HostCore {
    fn next_hop(&self, dst_ip: Ipv4Addr) -> Ipv4Addr {
        match &self.gateway {
            Some((subnet, gw)) if !subnet.contains(dst_ip) => *gw,
            _ => dst_ip,
        }
    }
}

/// The per-callback handle through which an [`App`] sends traffic.
pub struct HostIo<'a, 'b> {
    core: &'a mut HostCore,
    ctx: &'a mut Ctx<'b>,
}

impl std::fmt::Debug for HostIo<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostIo")
            .field("ctx", &self.ctx)
            .finish_non_exhaustive()
    }
}

impl HostIo<'_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This host's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.core.mac
    }

    /// This host's IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.core.ip
    }

    /// The world's seeded RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.ctx.rng()
    }

    /// Arms an application timer.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `token` collides with the host's
    /// reserved internal tokens (`u64::MAX`, `u64::MAX - 1`).
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        debug_assert!(
            token != ARP_RETRY_TOKEN && token != ANNOUNCE_TOKEN,
            "token reserved for the host shell"
        );
        self.ctx.set_timer(delay, token);
    }

    /// Sends a UDP datagram to `dst_ip`, resolving the MAC via ARP (and
    /// the gateway for off-subnet destinations).
    pub fn send_udp(&mut self, dst_ip: Ipv4Addr, src_port: u16, dst_port: u16, payload: Payload) {
        let transport = Transport::Udp(UdpDatagram::new(src_port, dst_port, payload));
        self.send_ip(dst_ip, transport);
    }

    /// Sends a TCP segment to `dst_ip`.
    #[allow(clippy::too_many_arguments)]
    pub fn send_tcp(
        &mut self,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        payload: Payload,
    ) {
        let transport = Transport::Tcp(TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            payload,
        });
        self.send_ip(dst_ip, transport);
    }

    /// Sends an ICMP echo request to `dst_ip`.
    pub fn send_ping(&mut self, dst_ip: Ipv4Addr, ident: u16, seq: u16, data_len: u16) {
        let transport = Transport::Icmp(IcmpMessage::echo_request(ident, seq, data_len));
        self.send_ip(dst_ip, transport);
    }

    /// Sends a fully-built IPv4 transport to `dst_ip` (resolving MACs).
    pub fn send_ip(&mut self, dst_ip: Ipv4Addr, transport: Transport) {
        let pkt = Packet::new(
            livesec_net::EthernetHeader::new(
                self.core.mac,
                MacAddr::ZERO, // patched after resolution
                livesec_net::EtherType::Ipv4,
            ),
            Body::Ipv4(Ipv4Packet::new(
                Ipv4Header::new(self.core.ip, dst_ip),
                transport,
            )),
        );
        let next_hop = self.core.next_hop(dst_ip);
        if let Some(&mac) = self.core.arp_cache.get(&next_hop) {
            let mut resolved = pkt;
            resolved.eth.dst = mac;
            self.transmit(resolved);
        } else {
            self.core.pending.push((next_hop, pkt));
            self.send_arp_request(next_hop);
        }
    }

    /// Sends a pre-addressed frame as-is (no resolution). Used by
    /// service elements that reflect scrubbed traffic.
    pub fn send_raw(&mut self, pkt: Packet) {
        self.transmit(pkt);
    }

    /// Total bytes received by this host so far.
    pub fn rx_bytes(&self) -> u64 {
        self.core.rx_bytes
    }

    /// Total bytes transmitted by this host so far.
    pub fn tx_bytes(&self) -> u64 {
        self.core.tx_bytes
    }

    fn transmit(&mut self, pkt: Packet) {
        self.core.tx_bytes += pkt.wire_len() as u64;
        self.ctx.send(PortId(1), pkt);
    }

    fn send_arp_request(&mut self, target: Ipv4Addr) {
        self.core.arp_retries_left.entry(target).or_insert(3);
        let req = ArpPacket::request(self.core.mac, self.core.ip, target);
        self.transmit(arp_frame(req));
        self.ctx
            .set_timer(SimDuration::from_millis(100), ARP_RETRY_TOKEN);
    }

    fn flush_pending(&mut self, resolved: Ipv4Addr, mac: MacAddr) {
        let mut ready = Vec::new();
        self.core.pending.retain(|(hop, pkt)| {
            if *hop == resolved {
                ready.push(pkt.clone());
                false
            } else {
                true
            }
        });
        for mut pkt in ready {
            pkt.eth.dst = mac;
            self.transmit(pkt);
        }
    }
}

/// A Network-Periphery endpoint: one access port, an ARP resolver, and
/// a pluggable application.
///
/// Wired users, wireless users, the Internet gateway and (wrapped by
/// `livesec-services`) VM-based service elements are all `Host`s with
/// different [`App`]s and link speeds.
pub struct Host<A: App> {
    core: HostCore,
    app: A,
}

impl<A: App> std::fmt::Debug for Host<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("mac", &self.core.mac)
            .field("ip", &self.core.ip)
            .finish_non_exhaustive()
    }
}

impl<A: App> Host<A> {
    /// Creates a host with the given addresses and application.
    pub fn new(mac: MacAddr, ip: Ipv4Addr, app: A) -> Self {
        Host {
            core: HostCore {
                mac,
                ip,
                gateway: None,
                proxy_arp_outside: None,
                arp_cache: HashMap::default(),
                pending: Vec::new(),
                arp_retries_left: HashMap::default(),
                announce_delay: SimDuration::from_millis(10),
                reannounce_every: SimDuration::from_secs(30),
                depart_at: None,
                rx_bytes: 0,
                tx_bytes: 0,
            },
            app,
        }
    }

    /// Configures the local subnet and default gateway: traffic to
    /// destinations outside `subnet` resolves `gateway`'s MAC instead.
    pub fn with_gateway(mut self, subnet: Ipv4Net, gateway: Ipv4Addr) -> Self {
        self.core.gateway = Some((subnet, gateway));
        self
    }

    /// Makes this host answer ARP requests for any address *outside*
    /// `local` — the Internet-gateway role.
    pub fn with_proxy_arp_outside(mut self, local: Ipv4Net) -> Self {
        self.core.proxy_arp_outside = Some(local);
        self
    }

    /// Sets how often the host re-announces itself via gratuitous ARP
    /// (default 30 s). Must be shorter than the controller's ARP
    /// timeout for a present host to stay in the routing table.
    pub fn with_reannounce_interval(mut self, every: SimDuration) -> Self {
        self.core.reannounce_every = every;
        self
    }

    /// Scripts the host's departure: from `at` on it goes completely
    /// silent (no announcements, no app activity, no replies), exactly
    /// like a machine leaving the network. The controller notices via
    /// ARP timeout — the paper's user-leave detection.
    pub fn with_departure_at(mut self, at: SimTime) -> Self {
        self.core.depart_at = Some(at);
        self
    }

    /// The host's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.core.mac
    }

    /// The host's IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.core.ip
    }

    /// The application, for post-run inspection.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the application (e.g. to reconfigure between
    /// runs).
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Bytes received so far.
    pub fn rx_bytes(&self) -> u64 {
        self.core.rx_bytes
    }

    /// Bytes transmitted so far.
    pub fn tx_bytes(&self) -> u64 {
        self.core.tx_bytes
    }

    fn handle_arp(&mut self, ctx: &mut Ctx<'_>, arp: &ArpPacket) {
        // Learn the sender's mapping opportunistically.
        if arp.sha.is_unicast() && !arp.spa.is_unspecified() {
            self.core.arp_cache.insert(arp.spa, arp.sha);
            self.core.arp_retries_left.remove(&arp.spa);
            let mut io = HostIo {
                core: &mut self.core,
                ctx,
            };
            io.flush_pending(arp.spa, arp.sha);
        }
        if arp.op == ArpOp::Request && !arp.is_gratuitous() {
            let answers = arp.tpa == self.core.ip
                || self
                    .core
                    .proxy_arp_outside
                    .map(|local| !local.contains(arp.tpa))
                    .unwrap_or(false);
            if answers {
                let reply = ArpPacket::reply_to(arp, self.core.mac);
                let mut io = HostIo {
                    core: &mut self.core,
                    ctx,
                };
                io.transmit(arp_frame(reply));
            }
        }
    }

    fn handle_echo_request(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet, msg: &IcmpMessage) {
        let Some(ip) = pkt.ipv4() else {
            return; // ICMP only ever arrives inside an IPv4 packet
        };
        let reply = Packet::new(
            livesec_net::EthernetHeader::new(
                self.core.mac,
                pkt.eth.src,
                livesec_net::EtherType::Ipv4,
            ),
            Body::Ipv4(Ipv4Packet::new(
                // Reply from whatever address was pinged (gateway hosts
                // answer for many IPs).
                Ipv4Header::new(ip.header.dst, ip.header.src),
                Transport::Icmp(IcmpMessage::reply_to(msg)),
            )),
        );
        let mut io = HostIo {
            core: &mut self.core,
            ctx,
        };
        io.transmit(reply);
    }
}

impl<A: App> Node for Host<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Announce ourselves shortly after start (giving the
        // switch–controller handshake time to finish) and periodically
        // thereafter; this drives the controller's location discovery
        // (paper §III-C.2) and keeps the entry alive past the ARP
        // timeout.
        ctx.set_timer(self.core.announce_delay, ANNOUNCE_TOKEN);
        let mut io = HostIo {
            core: &mut self.core,
            ctx,
        };
        self.app.on_start(&mut io);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
        if self.core.departed(ctx.now()) {
            return; // the machine is gone
        }
        if pkt.eth.dst != self.core.mac && !pkt.eth.dst.is_multicast() {
            return; // not ours (flooded unicast for someone else)
        }
        self.core.rx_bytes += pkt.wire_len() as u64;
        match &pkt.body {
            Body::Arp(arp) => {
                let arp = *arp;
                self.handle_arp(ctx, &arp);
            }
            Body::Ipv4(ip) => {
                if let Transport::Icmp(msg) = &ip.transport {
                    if msg.kind == IcmpType::EchoRequest && !self.app.wants_echo_requests() {
                        let msg = *msg;
                        self.handle_echo_request(ctx, &pkt, &msg);
                        return;
                    }
                }
                let mut io = HostIo {
                    core: &mut self.core,
                    ctx,
                };
                self.app.on_packet(&mut io, &pkt);
            }
            _ => {} // LLDP floods etc.: ignore
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.core.departed(ctx.now()) {
            return; // the machine is gone
        }
        if token == ANNOUNCE_TOKEN {
            let g = ArpPacket::gratuitous(self.core.mac, self.core.ip);
            let every = self.core.reannounce_every;
            let mut io = HostIo {
                core: &mut self.core,
                ctx,
            };
            io.transmit(arp_frame(g));
            io.ctx.set_timer(every, ANNOUNCE_TOKEN);
            return;
        }
        if token == ARP_RETRY_TOKEN {
            // Retry unresolved targets; drop pendings that ran out.
            let targets: Vec<Ipv4Addr> = self.core.pending.iter().map(|(hop, _)| *hop).collect();
            for target in targets {
                if self.core.arp_cache.contains_key(&target) {
                    continue;
                }
                let retries = self.core.arp_retries_left.entry(target).or_insert(0);
                if *retries == 0 {
                    self.core.pending.retain(|(hop, _)| *hop != target);
                    continue;
                }
                *retries -= 1;
                let req = ArpPacket::request(self.core.mac, self.core.ip, target);
                let mut io = HostIo {
                    core: &mut self.core,
                    ctx,
                };
                io.transmit(arp_frame(req));
                io.ctx
                    .set_timer(SimDuration::from_millis(100), ARP_RETRY_TOKEN);
            }
            return;
        }
        let mut io = HostIo {
            core: &mut self.core,
            ctx,
        };
        self.app.on_timer(&mut io, token);
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
    use crate::learning::LearningSwitch;
    use livesec_sim::{LinkSpec, World};

    /// Sends `count` UDP datagrams to `dst` on start; counts deliveries.
    struct UdpTalker {
        dst: Ipv4Addr,
        count: u32,
        received: u32,
        last_payload_len: usize,
    }

    impl App for UdpTalker {
        fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
            for i in 0..self.count {
                io.send_udp(self.dst, 5000 + i as u16, 7, Payload::Synthetic(100));
            }
        }
        fn on_packet(&mut self, _io: &mut HostIo<'_, '_>, pkt: &Packet) {
            self.received += 1;
            if let Some(udp) = pkt.udp() {
                self.last_payload_len = udp.payload.len();
            }
        }
    }

    /// Echoes UDP back to the sender.
    struct UdpEcho {
        received: u32,
    }

    impl App for UdpEcho {
        fn on_packet(&mut self, io: &mut HostIo<'_, '_>, pkt: &Packet) {
            self.received += 1;
            if let (Some(ip), Some(udp)) = (pkt.ipv4(), pkt.udp()) {
                io.send_udp(
                    ip.header.src,
                    udp.dst_port,
                    udp.src_port,
                    udp.payload.clone(),
                );
            }
        }
    }

    fn two_hosts() -> (World, livesec_sim::NodeId, livesec_sim::NodeId) {
        let mut world = World::new(1);
        let sw = world.add_node(LearningSwitch::new(2));
        let a = world.add_node(Host::new(
            MacAddr::from_u64(1),
            "10.0.0.1".parse().unwrap(),
            UdpTalker {
                dst: "10.0.0.2".parse().unwrap(),
                count: 3,
                received: 0,
                last_payload_len: 0,
            },
        ));
        let b = world.add_node(Host::new(
            MacAddr::from_u64(2),
            "10.0.0.2".parse().unwrap(),
            UdpEcho { received: 0 },
        ));
        world.connect(a, PortId(1), sw, PortId(1), LinkSpec::gigabit());
        world.connect(b, PortId(1), sw, PortId(2), LinkSpec::gigabit());
        (world, a, b)
    }

    #[test]
    fn arp_resolution_then_delivery_and_echo() {
        let (mut world, a, b) = two_hosts();
        world.run_for(SimDuration::from_millis(50));
        let talker = world.node::<Host<UdpTalker>>(a);
        let echo = world.node::<Host<UdpEcho>>(b);
        assert_eq!(echo.app().received, 3, "all datagrams delivered");
        assert_eq!(talker.app().received, 3, "all echoes returned");
        assert_eq!(talker.app().last_payload_len, 100);
        assert!(talker.rx_bytes() > 0);
        assert!(talker.tx_bytes() > 0);
    }

    #[test]
    fn unresolvable_destination_gives_up() {
        let mut world = World::new(1);
        let sw = world.add_node(LearningSwitch::new(2));
        let a = world.add_node(Host::new(
            MacAddr::from_u64(1),
            "10.0.0.1".parse().unwrap(),
            UdpTalker {
                dst: "10.0.0.99".parse().unwrap(), // nobody home
                count: 1,
                received: 0,
                last_payload_len: 0,
            },
        ));
        world.connect(a, PortId(1), sw, PortId(1), LinkSpec::gigabit());
        world.run_for(SimDuration::from_secs(2));
        // 1 gratuitous + 1 initial request + 3 retries = 5 ARP frames.
        assert_eq!(world.kernel().port_counters(a, PortId(1)).tx_frames, 5);
    }

    /// Pinger app measuring RTT.
    struct Pinger {
        dst: Ipv4Addr,
        rtt: Option<SimDuration>,
        sent_at: Option<SimTime>,
    }

    impl App for Pinger {
        fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
            io.set_timer(SimDuration::from_millis(10), 1);
        }
        fn on_timer(&mut self, io: &mut HostIo<'_, '_>, _token: u64) {
            self.sent_at = Some(io.now());
            io.send_ping(self.dst, 7, 1, 56);
        }
        fn on_packet(&mut self, io: &mut HostIo<'_, '_>, pkt: &Packet) {
            if let Some(ip) = pkt.ipv4() {
                if let Transport::Icmp(msg) = &ip.transport {
                    if msg.kind == IcmpType::EchoReply {
                        self.rtt = Some(io.now().since(self.sent_at.expect("sent")));
                    }
                }
            }
        }
    }

    /// Sink that never replies at app level (host replies to pings).
    struct Quiet;
    impl App for Quiet {}

    #[test]
    fn ping_answered_by_host_shell() {
        let mut world = World::new(1);
        let sw = world.add_node(LearningSwitch::new(2));
        let a = world.add_node(Host::new(
            MacAddr::from_u64(1),
            "10.0.0.1".parse().unwrap(),
            Pinger {
                dst: "10.0.0.2".parse().unwrap(),
                rtt: None,
                sent_at: None,
            },
        ));
        let b = world.add_node(Host::new(
            MacAddr::from_u64(2),
            "10.0.0.2".parse().unwrap(),
            Quiet,
        ));
        world.connect(a, PortId(1), sw, PortId(1), LinkSpec::gigabit());
        world.connect(b, PortId(1), sw, PortId(2), LinkSpec::gigabit());
        world.run_for(SimDuration::from_millis(100));
        let rtt = world.node::<Host<Pinger>>(a).app().rtt;
        assert!(rtt.is_some(), "ping must be answered");
        assert!(rtt.unwrap() < SimDuration::from_millis(1));
    }

    #[test]
    fn gateway_answers_for_external_addresses() {
        let local: Ipv4Net = "10.0.0.0/24".parse().unwrap();
        let mut world = World::new(1);
        let sw = world.add_node(LearningSwitch::new(2));
        let a = world.add_node(
            Host::new(
                MacAddr::from_u64(1),
                "10.0.0.1".parse().unwrap(),
                Pinger {
                    dst: "8.8.8.8".parse().unwrap(),
                    rtt: None,
                    sent_at: None,
                },
            )
            .with_gateway(local, "10.0.0.254".parse().unwrap()),
        );
        let gw = world.add_node(
            Host::new(
                MacAddr::from_u64(0xff),
                "10.0.0.254".parse().unwrap(),
                Quiet,
            )
            .with_proxy_arp_outside(local),
        );
        world.connect(a, PortId(1), sw, PortId(1), LinkSpec::gigabit());
        world.connect(gw, PortId(1), sw, PortId(2), LinkSpec::gigabit());
        world.run_for(SimDuration::from_millis(100));
        let rtt = world.node::<Host<Pinger>>(a).app().rtt;
        assert!(rtt.is_some(), "external ping answered via gateway");
    }
}
