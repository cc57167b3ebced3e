//! The service-element application: capacity model, bypass forwarding,
//! and the controller control channel.

use crate::engines::{Finding, Inspector};
use crate::msg::{SeMessage, SE_CONTROL_MAC, SE_CONTROL_PORT};
use livesec_net::{
    Body, EtherType, EthernetHeader, FlowKey, Ipv4Header, Ipv4Packet, Packet, Payload, Transport,
    UdpDatagram,
};
use livesec_sim::{SimDuration, SimTime};
use livesec_switch::{App, HostIo};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Timer token: send the periodic online report.
const REPORT_TOKEN: u64 = 1;
/// Timer token: a queued packet finished processing.
const EMIT_TOKEN: u64 = 2;

/// Counters exposed by a [`ServiceElement`] for tests and experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeCounters {
    /// Packets fully processed (inspected and re-emitted).
    pub processed_packets: u64,
    /// Bytes fully processed.
    pub processed_bytes: u64,
    /// Packets dropped because the processing queue was full.
    pub overload_drops: u64,
    /// Event reports sent to the controller.
    pub events_sent: u64,
    /// Online reports sent to the controller.
    pub reports_sent: u64,
}

/// A VM-based service element: wraps an [`Inspector`] engine with the
/// paper's deployment behaviour.
///
/// * **Bypass-mode forwarding** — steered packets are re-emitted
///   unchanged after inspection; the AS switch's steering entries send
///   them onward (paper §IV-A).
/// * **Capacity model** — a configurable processing rate (default
///   500 Mbps, the paper's measured per-VM bypass rate) plus fixed
///   per-packet overhead; packets beyond a bounded backlog are
///   dropped. Throughput caps and queueing latency emerge from this.
/// * **Control channel** — periodic `Online` heartbeats with load
///   figures, and `Event` reports when the engine produces a finding,
///   both sent as magic-tagged UDP packets that the ingress switch
///   always punts to the controller.
pub struct ServiceElement<I: Inspector> {
    inspector: I,
    cert: u64,
    capacity_bps: u64,
    per_packet_overhead: SimDuration,
    max_backlog: SimDuration,
    report_interval: SimDuration,
    busy_until: SimTime,
    queue: VecDeque<Packet>,
    window_packets: u64,
    window_bits: u64,
    window_busy: SimDuration,
    counters: SeCounters,
}

impl<I: Inspector> std::fmt::Debug for ServiceElement<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceElement")
            .field("cert", &self.cert)
            .field("capacity_bps", &self.capacity_bps)
            .field("queued", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl<I: Inspector> ServiceElement<I> {
    /// Wraps `inspector` with the paper's defaults: 500 Mbps capacity,
    /// 5 µs per-packet overhead, 20 ms maximum backlog, 100 ms report
    /// interval.
    pub fn new(inspector: I) -> Self {
        ServiceElement {
            inspector,
            cert: 0,
            capacity_bps: 500_000_000,
            per_packet_overhead: SimDuration::from_micros(5),
            max_backlog: SimDuration::from_millis(20),
            report_interval: SimDuration::from_millis(100),
            busy_until: SimTime::ZERO,
            queue: VecDeque::new(),
            window_packets: 0,
            window_bits: 0,
            window_busy: SimDuration::ZERO,
            counters: SeCounters::default(),
        }
    }

    /// Sets the processing capacity in bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero.
    pub fn with_capacity_bps(mut self, bps: u64) -> Self {
        assert!(bps > 0, "capacity must be positive");
        self.capacity_bps = bps;
        self
    }

    /// Sets the certification token issued by the controller.
    pub fn with_cert(mut self, cert: u64) -> Self {
        self.cert = cert;
        self
    }

    /// Sets the per-packet processing overhead.
    pub fn with_per_packet_overhead(mut self, d: SimDuration) -> Self {
        self.per_packet_overhead = d;
        self
    }

    /// Sets the maximum processing backlog (queue depth in time units)
    /// before the element sheds load. Size it above the in-flight data
    /// the workload keeps outstanding through this element.
    pub fn with_max_backlog(mut self, d: SimDuration) -> Self {
        self.max_backlog = d;
        self
    }

    /// Sets the online-report interval.
    pub fn with_report_interval(mut self, d: SimDuration) -> Self {
        self.report_interval = d;
        self
    }

    /// The element's counters.
    pub fn counters(&self) -> SeCounters {
        self.counters
    }

    /// The wrapped engine.
    pub fn inspector(&self) -> &I {
        &self.inspector
    }

    fn send_control(&mut self, io: &mut HostIo<'_, '_>, msg: &SeMessage) {
        let payload = Payload::from(msg.encode());
        let pkt = Packet::new(
            EthernetHeader::new(io.mac(), SE_CONTROL_MAC, EtherType::Ipv4),
            Body::Ipv4(Ipv4Packet::new(
                Ipv4Header::new(io.ip(), Ipv4Addr::BROADCAST),
                Transport::Udp(UdpDatagram::new(SE_CONTROL_PORT, SE_CONTROL_PORT, payload)),
            )),
        );
        io.send_raw(pkt);
    }

    /// Reports a finding to the controller as an event.
    fn report(&mut self, io: &mut HostIo<'_, '_>, finding: Finding) {
        let msg = SeMessage::Event {
            cert: self.cert,
            flow: finding.flow,
            verdict: finding.verdict,
        };
        self.counters.events_sent += 1;
        self.send_control(io, &msg);
    }

    fn send_online(&mut self, io: &mut HostIo<'_, '_>) {
        let window_secs = self.report_interval.as_secs_f64();
        let cpu = if window_secs > 0.0 {
            ((self.window_busy.as_secs_f64() / window_secs) * 100.0).min(100.0) as u8
        } else {
            0
        };
        let msg = SeMessage::Online {
            service: self.inspector.service(),
            cert: self.cert,
            cpu,
            // Memory footprint: a fixed share plus queue pressure.
            mem: (10 + self.queue.len().min(90)) as u8,
            pps: self.window_packets,
            bps: (self.window_bits as f64 / window_secs.max(1e-9)) as u64,
            total_pkts: self.counters.processed_packets,
        };
        self.window_packets = 0;
        self.window_bits = 0;
        self.window_busy = SimDuration::ZERO;
        self.counters.reports_sent += 1;
        self.send_control(io, &msg);
    }
}

impl<I: Inspector> App for ServiceElement<I> {
    fn wants_echo_requests(&self) -> bool {
        true // steered pings must be forwarded, not answered
    }

    fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
        // First online report goes out immediately so the controller
        // learns the service type without waiting a full interval.
        self.send_online(io);
        io.set_timer(self.report_interval, REPORT_TOKEN);
    }

    fn on_packet(&mut self, io: &mut HostIo<'_, '_>, pkt: &Packet) {
        let now = io.now();
        let backlog = self.busy_until.saturating_since(now);
        if backlog > self.max_backlog {
            self.counters.overload_drops += 1;
            return;
        }
        let bits = (pkt.wire_len() * 8) as u64;
        let scan_time = SimDuration::from_nanos(
            ((bits as f64 / self.capacity_bps as f64) * 1e9 * self.inspector.cost_factor()) as u64,
        );
        let proc = self.per_packet_overhead + scan_time;
        let start = self.busy_until.max(now);
        self.busy_until = start + proc;
        self.window_busy += proc;
        self.queue.push_back(pkt.clone());
        io.set_timer(self.busy_until.since(now), EMIT_TOKEN);
    }

    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, token: u64) {
        match token {
            REPORT_TOKEN => {
                // Engine housekeeping first: stateful engines expire
                // idle connection state here and may produce findings
                // (e.g. ConnClosed for fast-passed flows whose packets
                // no longer traverse this element).
                let now = io.now();
                for finding in self.inspector.poll(now) {
                    self.report(io, finding);
                }
                self.send_online(io);
                io.set_timer(self.report_interval, REPORT_TOKEN);
            }
            EMIT_TOKEN => {
                let Some(pkt) = self.queue.pop_front() else {
                    return;
                };
                self.counters.processed_packets += 1;
                self.counters.processed_bytes += pkt.wire_len() as u64;
                self.window_packets += 1;
                self.window_bits += (pkt.wire_len() * 8) as u64;

                // Off-path reporting (paper §IV-A): a finding goes to
                // the controller, which enforces at the ingress; the
                // packet itself is re-emitted either way.
                if let Some(key) = FlowKey::of(&pkt) {
                    if let Some(finding) = self.inspector.inspect_packet(&key, &pkt, io.now()) {
                        self.report(io, finding);
                    }
                }
                io.send_raw(pkt);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::IdsEngine;
    use crate::msg::Verdict;
    use livesec_net::{MacAddr, PacketBuilder};
    use livesec_sim::{Ctx, LinkSpec, Node, NodeId, PortId, World};
    use livesec_switch::Host;
    use std::any::Any;

    /// Harness node standing in for the AS switch: forwards frames to
    /// the SE and records what comes back.
    struct Harness {
        to_send: Vec<Packet>,
        interval: SimDuration,
        returned: Vec<Packet>,
        control: Vec<SeMessage>,
    }

    impl Node for Harness {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, i: u64) {
            if (i as usize) < self.to_send.len() {
                ctx.send(PortId(1), self.to_send[i as usize].clone());
                ctx.set_timer(self.interval, i + 1);
            }
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) {
            if pkt.arp().is_some() {
                return; // host-shell ARP announcements
            }
            if pkt.eth.dst == SE_CONTROL_MAC {
                if let Some(udp) = pkt.udp() {
                    if let Some(msg) = SeMessage::decode(udp.payload.content()) {
                        self.control.push(msg);
                        return;
                    }
                }
            }
            self.returned.push(pkt);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    type IdsSe = ServiceElement<crate::engines::SignatureEngine>;

    fn se_mac() -> MacAddr {
        MacAddr::from_u64(0xfe01)
    }

    fn steered_packet(payload: &[u8]) -> Packet {
        // Ingress switch has already rewritten dl_dst to the SE's MAC.
        PacketBuilder::tcp(MacAddr::from_u64(1), se_mac())
            .ips("10.0.0.1".parse().unwrap(), "8.8.8.8".parse().unwrap())
            .ports(5555, 80)
            .payload_bytes(payload)
            .build()
    }

    fn world_with_se(
        se: IdsSe,
        packets: Vec<Packet>,
        interval: SimDuration,
    ) -> (World, NodeId, NodeId) {
        let mut world = World::new(1);
        let harness = world.add_node(Harness {
            to_send: packets,
            interval,
            returned: vec![],
            control: vec![],
        });
        let se_node = world.add_node(Host::new(se_mac(), "10.0.9.1".parse().unwrap(), se));
        world.connect(harness, PortId(1), se_node, PortId(1), LinkSpec::gigabit());
        (world, harness, se_node)
    }

    #[test]
    fn clean_traffic_passes_through_unchanged() {
        let se = ServiceElement::new(IdsEngine::engine());
        let pkt = steered_packet(b"GET /index.html HTTP/1.1\r\n");
        let (mut world, harness, se_node) =
            world_with_se(se, vec![pkt.clone()], SimDuration::from_millis(1));
        world.run_for(SimDuration::from_millis(50));
        let h = world.node::<Harness>(harness);
        assert_eq!(h.returned.len(), 1);
        assert_eq!(h.returned[0], pkt, "bypass mode re-emits unchanged");
        let c = world.node::<Host<IdsSe>>(se_node).app().counters();
        assert_eq!(c.processed_packets, 1);
        assert_eq!(c.events_sent, 0);
    }

    #[test]
    fn attack_reported_to_controller_channel() {
        let se = ServiceElement::new(IdsEngine::engine()).with_cert(0x42);
        let pkt = steered_packet(b"GET /../../etc/passwd HTTP/1.1");
        let (mut world, harness, se_node) =
            world_with_se(se, vec![pkt], SimDuration::from_millis(1));
        world.run_for(SimDuration::from_millis(50));
        let h = world.node::<Harness>(harness);
        let event = h
            .control
            .iter()
            .find_map(|m| match m {
                SeMessage::Event { cert, verdict, .. } => Some((cert, verdict)),
                _ => None,
            })
            .expect("event report sent");
        assert_eq!(*event.0, 0x42);
        assert!(matches!(event.1, Verdict::Malicious { .. }));
        // The packet is still forwarded (off-path reporting, not inline).
        assert_eq!(h.returned.len(), 1);
        assert_eq!(
            world
                .node::<Host<IdsSe>>(se_node)
                .app()
                .counters()
                .events_sent,
            1
        );
    }

    #[test]
    fn online_reports_carry_service_and_load() {
        let se = ServiceElement::new(IdsEngine::engine())
            .with_report_interval(SimDuration::from_millis(10));
        let (mut world, harness, _) = world_with_se(se, vec![], SimDuration::from_millis(1));
        world.run_for(SimDuration::from_millis(100));
        let h = world.node::<Harness>(harness);
        let onlines: Vec<_> = h
            .control
            .iter()
            .filter(|m| matches!(m, SeMessage::Online { .. }))
            .collect();
        assert!(onlines.len() >= 9, "got {}", onlines.len());
        match onlines[0] {
            SeMessage::Online { service, .. } => {
                assert_eq!(*service, crate::msg::ServiceType::IntrusionDetection);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn overload_drops_when_backlog_exceeded() {
        // 1 Mbps capacity, flooded with back-to-back MTU packets.
        let se = ServiceElement::new(IdsEngine::engine()).with_capacity_bps(1_000_000);
        let packets: Vec<Packet> = (0..50).map(|_| steered_packet(&vec![b'x'; 1400])).collect();
        let (mut world, _, se_node) = world_with_se(se, packets, SimDuration::from_micros(10));
        world.run_for(SimDuration::from_secs(1));
        let c = world.node::<Host<IdsSe>>(se_node).app().counters();
        assert!(c.overload_drops > 0, "must shed load: {c:?}");
        assert!(c.processed_packets > 0, "but still make progress: {c:?}");
    }

    #[test]
    fn throughput_capped_by_capacity() {
        // 10 Mbps capacity; offer ~50 Mbps for 100 ms.
        let se = ServiceElement::new(IdsEngine::engine())
            .with_capacity_bps(10_000_000)
            .with_per_packet_overhead(SimDuration::ZERO);
        let packets: Vec<Packet> = (0..500)
            .map(|_| steered_packet(&vec![b'x'; 1250]))
            .collect();
        let (mut world, harness, _) = world_with_se(se, packets, SimDuration::from_micros(200));
        world.run_for(SimDuration::from_millis(200));
        let h = world.node::<Harness>(harness);
        let returned_bits: usize = h.returned.iter().map(|p| p.wire_len() * 8).sum();
        let achieved_bps = returned_bits as f64 / 0.2;
        assert!(
            achieved_bps < 12_000_000.0,
            "capacity respected: {achieved_bps}"
        );
        assert!(achieved_bps > 5_000_000.0, "not starved: {achieved_bps}");
    }
}
