//! Traffic-generating applications.

use livesec_net::{
    Body, DhcpMessage, EtherType, EthernetHeader, HashMap, IcmpType, Ipv4Header, Ipv4Packet,
    MacAddr, Packet, Payload, TcpFlags, Transport, UdpDatagram,
};
use livesec_sim::{LatencySummary, SimDuration, SimTime};
use livesec_switch::{App, HostIo};
use std::net::Ipv4Addr;

/// Maximum TCP payload per segment (Ethernet MTU minus headers).
pub const MSS: u32 = 1448;

// ---------------------------------------------------------------- HTTP

/// An HTTP/1.1-flavored client: requests objects of a configured size
/// and measures completion latency and goodput.
///
/// The request line encodes the desired object size
/// (`GET /size/<n> HTTP/1.1`), which [`HttpServer`] honors.
#[derive(Debug)]
pub struct HttpClient {
    server: Ipv4Addr,
    object_size: u32,
    think_time: SimDuration,
    start_delay: SimDuration,
    max_requests: Option<u32>,
    src_port: u16,
    rotate_ports: bool,
    stall_timeout: SimDuration,
    last_progress: SimTime,
    outstanding: Option<(u32, SimTime)>, // (bytes still expected, started)
    /// Responses abandoned after stalling (lost segments).
    pub aborted: u32,
    /// Requests issued.
    pub requests: u32,
    /// Responses fully received.
    pub completed: u32,
    /// Application bytes received.
    pub bytes_received: u64,
    /// Per-request completion latencies.
    pub latencies: LatencySummary,
}

impl HttpClient {
    /// Creates a client fetching `object_size`-byte objects from
    /// `server` back-to-back (no think time) after a 1 s start delay.
    pub fn new(server: Ipv4Addr, object_size: u32) -> Self {
        HttpClient {
            server,
            object_size,
            think_time: SimDuration::ZERO,
            start_delay: SimDuration::from_secs(1),
            max_requests: None,
            src_port: 40_080,
            rotate_ports: false,
            stall_timeout: SimDuration::from_millis(300),
            last_progress: SimTime::ZERO,
            outstanding: None,
            aborted: 0,
            requests: 0,
            completed: 0,
            bytes_received: 0,
            latencies: LatencySummary::new(),
        }
    }

    /// Sets the pause between a completed response and the next
    /// request.
    pub fn with_think_time(mut self, d: SimDuration) -> Self {
        self.think_time = d;
        self
    }

    /// Sets the delay before the first request (default 1 s, letting
    /// discovery converge).
    pub fn with_start_delay(mut self, d: SimDuration) -> Self {
        self.start_delay = d;
        self
    }

    /// Stops after `n` requests.
    pub fn with_max_requests(mut self, n: u32) -> Self {
        self.max_requests = Some(n);
        self
    }

    /// Uses a specific client port (distinguishes parallel clients on
    /// one host).
    pub fn with_src_port(mut self, port: u16) -> Self {
        self.src_port = port;
        self
    }

    /// Uses a fresh source port per request, so each request is a new
    /// flow for the controller (needed to exercise per-flow load
    /// balancing with short-lived flows).
    pub fn with_rotating_ports(mut self) -> Self {
        self.rotate_ports = true;
        self
    }

    /// Goodput over the active window, in bits per second.
    pub fn goodput_bps(&self, window: SimDuration) -> f64 {
        (self.bytes_received * 8) as f64 / window.as_secs_f64()
    }

    fn issue(&mut self, io: &mut HostIo<'_, '_>) {
        if let Some(max) = self.max_requests {
            if self.requests >= max {
                return;
            }
        }
        self.requests += 1;
        self.last_progress = io.now();
        if self.rotate_ports {
            self.src_port = 40_080 + (self.src_port - 40_079) % 20_000;
        }
        self.outstanding = Some((self.object_size, io.now()));
        let req = format!(
            "GET /size/{} HTTP/1.1\r\nHost: internet.example\r\n\r\n",
            self.object_size
        );
        io.send_tcp(
            self.server,
            self.src_port,
            80,
            self.requests,
            0,
            TcpFlags::PSH | TcpFlags::ACK,
            Payload::from(req.into_bytes()),
        );
    }
}

impl App for HttpClient {
    fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
        io.set_timer(self.start_delay, 1);
        io.set_timer(self.start_delay + self.stall_timeout, 2);
    }

    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, token: u64) {
        match token {
            1 => self.issue(io),
            2 => {
                // Stall recovery: if a response made no progress for a
                // full timeout (tail segments lost to queue drops),
                // abandon it and move on.
                if self.outstanding.is_some()
                    && io.now().since(self.last_progress) >= self.stall_timeout
                {
                    self.outstanding = None;
                    self.aborted += 1;
                    self.issue(io);
                }
                io.set_timer(self.stall_timeout, 2);
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, io: &mut HostIo<'_, '_>, pkt: &Packet) {
        let Some(tcp) = pkt.tcp() else { return };
        if tcp.dst_port != self.src_port {
            return;
        }
        let n = tcp.payload.len() as u32;
        self.bytes_received += u64::from(n);
        self.last_progress = io.now();
        if let Some((remaining, started)) = self.outstanding {
            let left = remaining.saturating_sub(n);
            if left == 0 {
                self.completed += 1;
                self.latencies.record(io.now().since(started));
                self.outstanding = None;
                if self.think_time == SimDuration::ZERO {
                    self.issue(io);
                } else {
                    io.set_timer(self.think_time, 1);
                }
            } else {
                self.outstanding = Some((left, started));
            }
        }
    }
}

/// [`HttpServer`]'s aggregate response pacing rate.
const HTTP_PACE_BPS: u64 = 900_000_000;

/// The HTTP server side: answers `GET /size/<n>` with an `n`-byte
/// response streamed in MSS-sized segments, paced at 900 Mbps (a
/// stand-in for TCP's steady state: bursting whole objects would just
/// tail-drop at the first queue). Works as the gateway app, standing
/// in for "the Internet".
#[derive(Debug)]
pub struct HttpServer {
    queue: std::collections::VecDeque<(Ipv4Addr, u16, u32, Payload)>,
    draining: bool,
    /// Requests served.
    pub requests: u32,
    /// Response bytes sent.
    pub bytes_sent: u64,
}

impl Default for HttpServer {
    fn default() -> Self {
        Self::new()
    }
}

impl HttpServer {
    /// Creates the server, pacing responses at 900 Mbps.
    pub fn new() -> Self {
        HttpServer {
            queue: std::collections::VecDeque::new(),
            draining: false,
            requests: 0,
            bytes_sent: 0,
        }
    }

    fn parse_size(payload: &[u8]) -> Option<u32> {
        let text = std::str::from_utf8(payload).ok()?;
        let rest = text.strip_prefix("GET /size/")?;
        let end = rest.find(' ')?;
        rest[..end].parse().ok()
    }

    fn drain_one(&mut self, io: &mut HostIo<'_, '_>) {
        let Some((dst, port, seq, payload)) = self.queue.pop_front() else {
            self.draining = false;
            return;
        };
        let len = payload.len() as u64;
        io.send_tcp(dst, 80, port, seq, 0, TcpFlags::ACK, payload);
        self.bytes_sent += len;
        // Pace the next segment.
        let frame_bits = (len + 58) * 8;
        io.set_timer(
            SimDuration::from_nanos(frame_bits * 1_000_000_000 / HTTP_PACE_BPS),
            1,
        );
    }
}

impl App for HttpServer {
    fn on_packet(&mut self, io: &mut HostIo<'_, '_>, pkt: &Packet) {
        let (Some(ip), Some(tcp)) = (pkt.ipv4(), pkt.tcp()) else {
            return;
        };
        if tcp.dst_port != 80 {
            return;
        }
        let Some(size) = Self::parse_size(tcp.payload.content()) else {
            return;
        };
        self.requests += 1;
        // First segment carries the response headers as real content
        // (so protocol identification sees "HTTP/1.1 200 OK"), padded
        // to MSS; the remainder streams as synthetic payload.
        let header = format!("HTTP/1.1 200 OK\r\nContent-Length: {size}\r\n\r\n");
        let first_len = size.min(MSS);
        let mut first = header.into_bytes();
        first.resize(first_len as usize, b'.');
        self.queue
            .push_back((ip.header.src, tcp.src_port, 0, Payload::from(first)));
        let mut sent = first_len;
        let mut seq = 1u32;
        while sent < size {
            let chunk = (size - sent).min(MSS);
            self.queue
                .push_back((ip.header.src, tcp.src_port, seq, Payload::Synthetic(chunk)));
            sent += chunk;
            seq += 1;
        }
        if !self.draining {
            self.draining = true;
            self.drain_one(io);
        }
    }

    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, _token: u64) {
        self.drain_one(io);
    }
}

// ---------------------------------------------------------------- UDP

/// [`UdpBlaster`]'s payload bytes per datagram.
const UDP_PAYLOAD_LEN: u32 = 1400;

/// A constant-bit-rate UDP source (iperf-style): 1400-byte datagrams
/// to port 5001, sent until the run ends.
#[derive(Debug)]
pub struct UdpBlaster {
    dst: Ipv4Addr,
    rate_bps: u64,
    start_delay: SimDuration,
    /// Datagrams sent.
    pub sent: u64,
    /// Bytes of payload sent.
    pub bytes_sent: u64,
}

impl UdpBlaster {
    /// Creates a blaster sending `rate_bps` toward `dst` with 1400-byte
    /// datagrams after a 1 s start delay.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bps` is zero.
    pub fn new(dst: Ipv4Addr, rate_bps: u64) -> Self {
        assert!(rate_bps > 0, "rate must be positive");
        UdpBlaster {
            dst,
            rate_bps,
            start_delay: SimDuration::from_secs(1),
            sent: 0,
            bytes_sent: 0,
        }
    }

    /// Sets the start delay.
    pub fn with_start_delay(mut self, d: SimDuration) -> Self {
        self.start_delay = d;
        self
    }

    fn interval(&self) -> SimDuration {
        // Time to emit one datagram's worth of bits at the target rate.
        let frame_bits = (u64::from(UDP_PAYLOAD_LEN) + 8 + 20 + 14 + 4) * 8;
        SimDuration::from_nanos(frame_bits * 1_000_000_000 / self.rate_bps)
    }
}

impl App for UdpBlaster {
    fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
        io.set_timer(self.start_delay, 1);
    }

    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, _token: u64) {
        io.send_udp(self.dst, 5002, 5001, Payload::Synthetic(UDP_PAYLOAD_LEN));
        self.sent += 1;
        self.bytes_sent += u64::from(UDP_PAYLOAD_LEN);
        io.set_timer(self.interval(), 1);
    }
}

// ---------------------------------------------------------------- ping

/// Periodic ICMP echo with RTT statistics (the paper's §V-B.3 latency
/// probe).
#[derive(Debug)]
pub struct Pinger {
    dst: Ipv4Addr,
    interval: SimDuration,
    start_delay: SimDuration,
    max_pings: Option<u32>,
    in_flight: HashMap<u16, SimTime>,
    /// Echo requests sent.
    pub sent: u32,
    /// Echo replies received.
    pub received: u32,
    /// Round-trip times.
    pub rtts: LatencySummary,
}

impl Pinger {
    /// Creates a pinger probing `dst` every 20 ms after a 1 s delay.
    pub fn new(dst: Ipv4Addr) -> Self {
        Pinger {
            dst,
            interval: SimDuration::from_millis(20),
            start_delay: SimDuration::from_secs(1),
            max_pings: None,
            in_flight: HashMap::default(),
            sent: 0,
            received: 0,
            rtts: LatencySummary::new(),
        }
    }

    /// Sets the probe interval.
    pub fn with_interval(mut self, d: SimDuration) -> Self {
        self.interval = d;
        self
    }

    /// Sets the start delay.
    pub fn with_start_delay(mut self, d: SimDuration) -> Self {
        self.start_delay = d;
        self
    }

    /// Stops after `n` probes.
    pub fn with_max_pings(mut self, n: u32) -> Self {
        self.max_pings = Some(n);
        self
    }

    /// Fraction of probes lost (0.0..=1.0).
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            1.0 - f64::from(self.received) / f64::from(self.sent)
        }
    }
}

impl App for Pinger {
    fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
        io.set_timer(self.start_delay, 1);
    }

    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, _token: u64) {
        if let Some(max) = self.max_pings {
            if self.sent >= max {
                return;
            }
        }
        self.sent += 1;
        let seq = self.sent as u16;
        self.in_flight.insert(seq, io.now());
        io.send_ping(self.dst, 0x1d, seq, 56);
        io.set_timer(self.interval, 1);
    }

    fn on_packet(&mut self, io: &mut HostIo<'_, '_>, pkt: &Packet) {
        let Some(ip) = pkt.ipv4() else { return };
        if let Transport::Icmp(msg) = &ip.transport {
            if msg.kind == IcmpType::EchoReply {
                if let Some(sent_at) = self.in_flight.remove(&msg.seq) {
                    self.received += 1;
                    self.rtts.record(io.now().since(sent_at));
                }
            }
        }
    }
}

// ---------------------------------------------------------------- ssh

/// An interactive SSH session: protocol banner, then periodic
/// keystrokes; expects a [`TcpEchoServer`] on the far side.
#[derive(Debug)]
pub struct SshSession {
    server: Ipv4Addr,
    keystroke_interval: SimDuration,
    start_delay: SimDuration,
    banner_sent: bool,
    /// Keystrokes sent.
    pub keystrokes: u32,
    /// Echo bytes received.
    pub echoes: u32,
}

impl SshSession {
    /// Creates a session typing every 200 ms after a 1 s delay.
    pub fn new(server: Ipv4Addr) -> Self {
        SshSession {
            server,
            keystroke_interval: SimDuration::from_millis(200),
            start_delay: SimDuration::from_secs(1),
            banner_sent: false,
            keystrokes: 0,
            echoes: 0,
        }
    }

    /// Sets the keystroke interval.
    pub fn with_keystroke_interval(mut self, d: SimDuration) -> Self {
        self.keystroke_interval = d;
        self
    }

    /// Sets the start delay.
    pub fn with_start_delay(mut self, d: SimDuration) -> Self {
        self.start_delay = d;
        self
    }
}

impl App for SshSession {
    fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
        io.set_timer(self.start_delay, 1);
    }

    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, _token: u64) {
        let payload: Payload = if self.banner_sent {
            self.keystrokes += 1;
            Payload::from(vec![b'k'; 32])
        } else {
            self.banner_sent = true;
            Payload::from(b"SSH-2.0-OpenSSH_5.8p1".as_ref())
        };
        io.send_tcp(
            self.server,
            40_022,
            22,
            self.keystrokes,
            0,
            TcpFlags::PSH | TcpFlags::ACK,
            payload,
        );
        io.set_timer(self.keystroke_interval, 1);
    }

    fn on_packet(&mut self, _io: &mut HostIo<'_, '_>, pkt: &Packet) {
        if pkt.tcp().is_some() {
            self.echoes += 1;
        }
    }
}

/// Echoes every TCP payload back to its sender (SSH/telnet stand-in
/// server).
#[derive(Debug, Default)]
pub struct TcpEchoServer {
    /// Segments echoed.
    pub echoed: u64,
}

impl TcpEchoServer {
    /// Creates the server.
    pub fn new() -> Self {
        Self::default()
    }
}

impl App for TcpEchoServer {
    fn on_packet(&mut self, io: &mut HostIo<'_, '_>, pkt: &Packet) {
        let (Some(ip), Some(tcp)) = (pkt.ipv4(), pkt.tcp()) else {
            return;
        };
        self.echoed += 1;
        io.send_tcp(
            ip.header.src,
            tcp.dst_port,
            tcp.src_port,
            0,
            tcp.seq,
            TcpFlags::ACK,
            tcp.payload.clone(),
        );
    }
}

// ---------------------------------------------------------------- attack

/// A compromised web client: browses normally, then embeds attack
/// payloads (drawn from the IDS default rule set) in its requests.
#[derive(Debug)]
pub struct AttackClient {
    server: Ipv4Addr,
    start_delay: SimDuration,
    interval: SimDuration,
    benign_before_attack: u32,
    attack_payload: Vec<u8>,
    /// Requests sent (benign + malicious).
    pub sent: u32,
    /// Replies received.
    pub received: u32,
}

impl AttackClient {
    /// Creates an attacker that sends `benign_before_attack` innocent
    /// requests, then starts embedding a directory-traversal attack.
    pub fn new(server: Ipv4Addr, benign_before_attack: u32) -> Self {
        AttackClient {
            server,
            start_delay: SimDuration::from_secs(1),
            interval: SimDuration::from_millis(20),
            benign_before_attack,
            attack_payload: b"GET /../../etc/passwd HTTP/1.1\r\nHost: victim\r\n\r\n".to_vec(),
            sent: 0,
            received: 0,
        }
    }

    /// Sets a custom attack payload (e.g. a different IDS signature).
    pub fn with_attack_payload(mut self, payload: Vec<u8>) -> Self {
        self.attack_payload = payload;
        self
    }

    /// Sets the start delay.
    pub fn with_start_delay(mut self, d: SimDuration) -> Self {
        self.start_delay = d;
        self
    }

    /// Sets the request interval.
    pub fn with_interval(mut self, d: SimDuration) -> Self {
        self.interval = d;
        self
    }
}

impl App for AttackClient {
    fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
        io.set_timer(self.start_delay, 1);
    }

    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, _token: u64) {
        self.sent += 1;
        let payload: Payload = if self.sent <= self.benign_before_attack {
            Payload::from(b"GET /news.html HTTP/1.1\r\nHost: victim\r\n\r\n".as_ref())
        } else {
            Payload::from(self.attack_payload.clone())
        };
        io.send_tcp(
            self.server,
            40_666,
            80,
            self.sent,
            0,
            TcpFlags::PSH | TcpFlags::ACK,
            payload,
        );
        io.set_timer(self.interval, 1);
    }

    fn on_packet(&mut self, _io: &mut HostIo<'_, '_>, _pkt: &Packet) {
        self.received += 1;
    }
}

/// A SYN flooder: bare SYN probes toward one victim port, each from a
/// fresh source port, never completing a handshake — the half-open
/// connection shape a stateful firewall's conntrack flags as a flood.
#[derive(Debug)]
pub struct SynFlood {
    victim: Ipv4Addr,
    victim_port: u16,
    interval: SimDuration,
    src_port: u16,
    /// SYN probes sent.
    pub syns: u32,
    /// Replies received (a blocked flood sees none).
    pub replies: u32,
}

impl SynFlood {
    /// Creates a flooder probing `victim:victim_port` every 5 ms after
    /// a 1 s delay.
    pub fn new(victim: Ipv4Addr, victim_port: u16) -> Self {
        SynFlood {
            victim,
            victim_port,
            interval: SimDuration::from_millis(5),
            src_port: 50_000,
            syns: 0,
            replies: 0,
        }
    }

    /// Sets the probe interval.
    pub fn with_interval(mut self, d: SimDuration) -> Self {
        self.interval = d;
        self
    }
}

impl App for SynFlood {
    fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
        io.set_timer(SimDuration::from_secs(1), 1);
    }

    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, _token: u64) {
        self.syns += 1;
        // A fresh source port per probe: every SYN is a new flow to
        // the controller and a new half-open entry to the firewall.
        self.src_port = 50_000 + (self.src_port - 49_999) % 10_000;
        io.send_tcp(
            self.victim,
            self.src_port,
            self.victim_port,
            self.syns,
            0,
            TcpFlags::SYN,
            Payload::from(Vec::new()),
        );
        io.set_timer(self.interval, 1);
    }

    fn on_packet(&mut self, _io: &mut HostIo<'_, '_>, _pkt: &Packet) {
        self.replies += 1;
    }
}

// ---------------------------------------------------------------- dhcp

/// A DHCP client exercising the controller's directory proxy: runs the
/// DORA exchange at start and records the granted lease.
#[derive(Debug)]
pub struct DhcpClient {
    xid: u32,
    /// The lease obtained, once the exchange completes.
    pub lease: Option<Ipv4Addr>,
    /// Exchange messages received.
    pub replies: u32,
}

impl DhcpClient {
    /// Creates a client that solicits after 500 ms.
    pub fn new(xid: u32) -> Self {
        DhcpClient {
            xid,
            lease: None,
            replies: 0,
        }
    }

    fn send_dhcp(&self, io: &mut HostIo<'_, '_>, msg: &DhcpMessage) {
        // DHCP goes out as a broadcast before the host has an address.
        let pkt = Packet::new(
            EthernetHeader::new(io.mac(), MacAddr::BROADCAST, EtherType::Ipv4),
            Body::Ipv4(Ipv4Packet::new(
                Ipv4Header::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST),
                Transport::Udp(UdpDatagram::new(
                    DhcpMessage::CLIENT_PORT,
                    DhcpMessage::SERVER_PORT,
                    Payload::from(msg.encode()),
                )),
            )),
        );
        io.send_raw(pkt);
    }
}

impl App for DhcpClient {
    fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
        io.set_timer(SimDuration::from_millis(500), 1);
    }

    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, _token: u64) {
        let mac = io.mac();
        self.send_dhcp(io, &DhcpMessage::discover(self.xid, mac));
    }

    fn on_packet(&mut self, io: &mut HostIo<'_, '_>, pkt: &Packet) {
        let Some(udp) = pkt.udp() else { return };
        if udp.dst_port != DhcpMessage::CLIENT_PORT {
            return;
        }
        let Some(msg) = DhcpMessage::decode(udp.payload.content()) else {
            return;
        };
        if msg.xid != self.xid {
            return;
        }
        self.replies += 1;
        match msg.kind {
            livesec_net::DhcpMsgType::Offer => {
                let req = DhcpMessage::request(&msg);
                self.send_dhcp(io, &req);
            }
            livesec_net::DhcpMsgType::Ack => {
                self.lease = Some(msg.yiaddr);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_sim::{LinkSpec, PortId, World};
    use livesec_switch::{Host, LearningSwitch};

    fn two_hosts<A: App, B: App>(a: A, b: B) -> (World, livesec_sim::NodeId, livesec_sim::NodeId) {
        let mut world = World::new(3);
        let sw = world.add_node(LearningSwitch::new(2));
        let ha = world.add_node(Host::new(
            MacAddr::from_u64(1),
            "10.0.0.1".parse().unwrap(),
            a,
        ));
        let hb = world.add_node(Host::new(
            MacAddr::from_u64(2),
            "10.0.0.2".parse().unwrap(),
            b,
        ));
        world.connect(ha, PortId(1), sw, PortId(1), LinkSpec::gigabit());
        world.connect(hb, PortId(1), sw, PortId(2), LinkSpec::gigabit());
        (world, ha, hb)
    }

    #[test]
    fn http_request_response_cycle() {
        let client = HttpClient::new("10.0.0.2".parse().unwrap(), 100_000)
            .with_start_delay(SimDuration::from_millis(10))
            .with_max_requests(3);
        let (mut world, ha, hb) = two_hosts(client, HttpServer::new());
        world.run_for(SimDuration::from_secs(2));
        let c = world.node::<Host<HttpClient>>(ha);
        assert_eq!(c.app().completed, 3);
        assert_eq!(c.app().bytes_received, 300_000);
        assert_eq!(c.app().latencies.count(), 3);
        let s = world.node::<Host<HttpServer>>(hb);
        assert_eq!(s.app().requests, 3);
        assert_eq!(s.app().bytes_sent, 300_000);
    }

    #[test]
    fn http_server_ignores_garbage() {
        assert_eq!(HttpServer::parse_size(b"GET /size/512 HTTP/1.1"), Some(512));
        assert_eq!(HttpServer::parse_size(b"GET / HTTP/1.1"), None);
        assert_eq!(HttpServer::parse_size(b"\xff\xfe"), None);
        assert_eq!(HttpServer::parse_size(b"GET /size/xyz HTTP/1.1"), None);
    }

    #[test]
    fn udp_blaster_hits_target_rate() {
        let blaster = UdpBlaster::new("10.0.0.2".parse().unwrap(), 50_000_000)
            .with_start_delay(SimDuration::from_millis(10));
        let (mut world, _ha, hb) = two_hosts(blaster, livesec::deploy::NullApp);
        // 500 ms of sending.
        world.run_for(SimDuration::from_millis(510));
        let sink = world.node::<Host<livesec::deploy::NullApp>>(hb);
        let achieved = (sink.rx_bytes() * 8) as f64 / 0.5;
        assert!(
            (achieved - 50_000_000.0).abs() / 50_000_000.0 < 0.1,
            "achieved {achieved}"
        );
    }

    #[test]
    fn pinger_measures_rtt() {
        let pinger = Pinger::new("10.0.0.2".parse().unwrap())
            .with_start_delay(SimDuration::from_millis(10))
            .with_interval(SimDuration::from_millis(5))
            .with_max_pings(20);
        let (mut world, ha, _) = two_hosts(pinger, livesec::deploy::NullApp);
        world.run_for(SimDuration::from_secs(1));
        let p = world.node::<Host<Pinger>>(ha);
        assert_eq!(p.app().sent, 20);
        assert_eq!(p.app().received, 20);
        assert_eq!(p.app().loss_rate(), 0.0);
        assert!(p.app().rtts.mean().unwrap() < SimDuration::from_millis(1));
    }

    #[test]
    fn ssh_banner_then_keystrokes() {
        let ssh = SshSession::new("10.0.0.2".parse().unwrap())
            .with_start_delay(SimDuration::from_millis(10))
            .with_keystroke_interval(SimDuration::from_millis(50));
        let (mut world, ha, hb) = two_hosts(ssh, TcpEchoServer::new());
        world.run_for(SimDuration::from_secs(1));
        let s = world.node::<Host<SshSession>>(ha);
        assert!(s.app().keystrokes >= 15, "{}", s.app().keystrokes);
        assert!(s.app().echoes >= 15);
        assert!(world.node::<Host<TcpEchoServer>>(hb).app().echoed >= 16);
    }

    #[test]
    fn attacker_switches_to_malicious() {
        let atk = AttackClient::new("10.0.0.2".parse().unwrap(), 2)
            .with_start_delay(SimDuration::from_millis(10))
            .with_interval(SimDuration::from_millis(10));
        let (mut world, ha, _) = two_hosts(atk, TcpEchoServer::new());
        world.run_for(SimDuration::from_millis(200));
        let a = world.node::<Host<AttackClient>>(ha);
        assert!(a.app().sent > 10);
        assert!(a.app().received > 10, "echo server replies to all");
    }
}
