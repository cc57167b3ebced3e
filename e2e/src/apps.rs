//! Bench-owned host applications. The repo's generators send
//! `Payload::Synthetic` bulk and keep no per-packet send times, so the
//! two things the benchmark needs from inside a campus — real payload
//! bytes for the signature engines to scan, and first-packet latency of
//! brand-new flows — come from these four `App`s.

use livesec_net::{Packet, Payload, TcpFlags};
use livesec_sim::{SimDuration, SimTime};
use livesec_switch::{App, HostIo};
use std::net::Ipv4Addr;

/// SplitMix64: the benchmark's input generator. Everything random in a
/// workload (start jitter, object sizes, payload bytes) is drawn from
/// one of these seeded by `--seed`; the program under test never sees
/// the generator, only what it generated. Its own twenty lines rather
/// than the vendored `rand`: a seed must keep meaning the same inputs
/// when the repo's stand-in crates change.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A duration uniform in `0..max`.
    pub fn jitter(&mut self, max: SimDuration) -> SimDuration {
        SimDuration::from_nanos(self.below(max.as_nanos().max(1)))
    }

    /// `len` random printable bytes: real content for the signature
    /// automata to walk (partial matches included), with a chance of a
    /// whole-pattern hit — which would block the stream — below 1e-10
    /// per segment for the shortest shipped pattern.
    pub fn payload(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| 0x20 + self.below(95) as u8).collect()
    }
}

const BLOB_PORT: u16 = 9000;
const PROBE_PORT: u16 = 9100;
const TOKEN_SEND: u64 = 1;
const TOKEN_STALL: u64 = 2;
const STALL: SimDuration = SimDuration::from_millis(300);

/// Streams bursts of real-byte TCP segments at a [`BlobSink`] and waits
/// for the sink's acknowledgement of each burst before thinking and
/// sending the next: a closed loop, one transaction per burst.
#[derive(Debug, Default)]
pub struct BlobClient {
    sink: Option<Ipv4Addr>,
    src_port: u16,
    burst: u32,
    think: SimDuration,
    start_delay: SimDuration,
    /// Pre-generated segment payloads, cycled through.
    pool: Vec<Payload>,
    next_payload: usize,
    outstanding: Option<(u32, SimTime)>,
    last_progress: SimTime,
    /// Bursts started.
    pub bursts: u64,
    /// Bursts acknowledged.
    pub completed: u64,
    /// Bursts abandoned by the stall timer.
    pub aborted: u64,
    /// Latency of every completed burst, in completion order.
    pub latencies: Vec<SimDuration>,
}

impl BlobClient {
    pub fn new(
        sink: Ipv4Addr,
        src_port: u16,
        burst: u32,
        think: SimDuration,
        start_delay: SimDuration,
        pool: Vec<Payload>,
    ) -> Self {
        assert!(burst > 0 && !pool.is_empty(), "a burst needs segments");
        BlobClient {
            sink: Some(sink),
            src_port,
            burst,
            think,
            start_delay,
            pool,
            ..BlobClient::default()
        }
    }

    fn send_burst(&mut self, io: &mut HostIo<'_, '_>) {
        let Some(sink) = self.sink else { return };
        self.bursts += 1;
        let id = self.bursts as u32;
        self.outstanding = Some((id, io.now()));
        self.last_progress = io.now();
        for seq in 0..self.burst {
            let payload = self.pool[self.next_payload % self.pool.len()].clone();
            self.next_payload += 1;
            // `ack` carries the burst id so the sink can tell bursts apart.
            io.send_tcp(
                sink,
                self.src_port,
                BLOB_PORT,
                seq,
                id,
                TcpFlags::PSH | TcpFlags::ACK,
                payload,
            );
        }
    }
}

impl App for BlobClient {
    fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
        io.set_timer(self.start_delay, TOKEN_SEND);
        io.set_timer(self.start_delay + STALL, TOKEN_STALL);
    }

    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, token: u64) {
        match token {
            TOKEN_SEND => self.send_burst(io),
            TOKEN_STALL => {
                if self.outstanding.is_some() && io.now().since(self.last_progress) >= STALL {
                    self.outstanding = None;
                    self.aborted += 1;
                    self.send_burst(io);
                }
                io.set_timer(STALL, TOKEN_STALL);
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, io: &mut HostIo<'_, '_>, pkt: &Packet) {
        let Some(tcp) = pkt.tcp() else { return };
        if tcp.dst_port != self.src_port {
            return;
        }
        if let Some((id, started)) = self.outstanding {
            if tcp.ack == id {
                self.outstanding = None;
                self.completed += 1;
                self.latencies.push(io.now().since(started));
                io.set_timer(self.think, TOKEN_SEND);
            }
        }
    }
}

/// Counts the segments of each burst and acknowledges a burst when its
/// last segment arrives.
#[derive(Debug, Default)]
pub struct BlobSink {
    burst: u32,
    /// `(client, client port, burst id, segments seen)` of bursts in
    /// progress; one slot per client, so a lost segment costs one burst.
    progress: Vec<(Ipv4Addr, u16, u32, u32)>,
}

impl BlobSink {
    pub fn new(burst: u32) -> Self {
        BlobSink {
            burst,
            ..BlobSink::default()
        }
    }
}

impl App for BlobSink {
    fn on_packet(&mut self, io: &mut HostIo<'_, '_>, pkt: &Packet) {
        let (Some(ip), Some(tcp)) = (pkt.ipv4(), pkt.tcp()) else {
            return;
        };
        if tcp.dst_port != BLOB_PORT {
            return;
        }
        let (client, port, id) = (ip.header.src, tcp.src_port, tcp.ack);
        let slot = match self
            .progress
            .iter()
            .position(|s| s.0 == client && s.1 == port)
        {
            Some(i) => i,
            None => {
                self.progress.push((client, port, id, 0));
                self.progress.len() - 1
            }
        };
        let s = &mut self.progress[slot];
        if s.2 != id {
            (s.2, s.3) = (id, 0);
        }
        s.3 += 1;
        if s.3 == self.burst {
            io.send_tcp(
                client,
                BLOB_PORT,
                port,
                0,
                id,
                TcpFlags::ACK,
                Payload::from(b"ok".as_ref()),
            );
        }
    }
}

/// Opens a new flow every `interval`: one UDP datagram from a fresh
/// source port, carrying its own simulated send time, so the
/// [`ProbeSink`] can report first-packet latency of new flows.
#[derive(Debug, Default)]
pub struct Prober {
    sink: Option<Ipv4Addr>,
    interval: SimDuration,
    start_delay: SimDuration,
    next_port: u16,
    /// Send time of every probe, in order.
    pub sent: Vec<SimTime>,
}

impl Prober {
    pub fn new(sink: Ipv4Addr, interval: SimDuration, start_delay: SimDuration) -> Self {
        Prober {
            sink: Some(sink),
            interval,
            start_delay,
            next_port: 20_000,
            sent: Vec::new(),
        }
    }
}

impl App for Prober {
    fn on_start(&mut self, io: &mut HostIo<'_, '_>) {
        io.set_timer(self.start_delay, TOKEN_SEND);
    }

    fn on_timer(&mut self, io: &mut HostIo<'_, '_>, _token: u64) {
        let Some(sink) = self.sink else { return };
        self.next_port = 20_000 + (self.next_port - 19_999) % 20_000;
        self.sent.push(io.now());
        let stamp = io.now().as_nanos().to_be_bytes();
        io.send_udp(
            sink,
            self.next_port,
            PROBE_PORT,
            Payload::from(stamp.as_ref()),
        );
        io.set_timer(self.interval, TOKEN_SEND);
    }
}

/// Records `(sent at, latency)` of every probe that arrives.
#[derive(Debug, Default)]
pub struct ProbeSink {
    pub arrivals: Vec<(SimTime, SimDuration)>,
}

impl App for ProbeSink {
    fn on_packet(&mut self, io: &mut HostIo<'_, '_>, pkt: &Packet) {
        let Some(udp) = pkt.udp() else { return };
        if udp.dst_port != PROBE_PORT {
            return;
        }
        let Ok(stamp) = <[u8; 8]>::try_from(udp.payload.content()) else {
            return;
        };
        let sent = SimTime::from_nanos(u64::from_be_bytes(stamp));
        self.arrivals.push((sent, io.now().since(sent)));
    }
}
