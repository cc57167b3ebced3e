//! The service-element ↔ controller control protocol.
//!
//! Per the paper (§III-D.1), SE daemons encapsulate messages in UDP
//! packets with a specialized format and identifier. The AS switch
//! never gets a flow entry for these, so every message reaches the
//! controller as a packet-in, where the message-parsing module checks
//! the identifier and — if a certification token is required —
//! validates it before trusting the content.

#![warn(clippy::indexing_slicing)]

use livesec_net::{Cursor, FlowKey, MacAddr};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The magic identifier prefixing every control message.
pub const MAGIC: [u8; 4] = *b"LSEC";

/// UDP destination port of the control channel.
pub const SE_CONTROL_PORT: u16 = 47810;

/// Destination MAC for control messages: a reserved address no host
/// owns, so ingress AS switches always miss and packet-in.
pub const SE_CONTROL_MAC: MacAddr = MacAddr::new([0x02, 0x4c, 0x53, 0x45, 0x43, 0x00]);

/// The network service a service element provides.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ServiceType {
    /// Intrusion detection (the paper's Snort port).
    IntrusionDetection,
    /// Application protocol identification (the paper's L7-filter port).
    ProtocolIdentification,
    /// Stateless firewall.
    Firewall,
    /// Virus scanning.
    VirusScan,
    /// Content inspection.
    ContentInspection,
}

impl ServiceType {
    const ALL: [ServiceType; 5] = [
        ServiceType::IntrusionDetection,
        ServiceType::ProtocolIdentification,
        ServiceType::Firewall,
        ServiceType::VirusScan,
        ServiceType::ContentInspection,
    ];

    fn code(self) -> u8 {
        match self {
            ServiceType::IntrusionDetection => 1,
            ServiceType::ProtocolIdentification => 2,
            ServiceType::Firewall => 3,
            ServiceType::VirusScan => 4,
            ServiceType::ContentInspection => 5,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.code() == c)
    }
}

impl fmt::Display for ServiceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceType::IntrusionDetection => write!(f, "intrusion-detection"),
            ServiceType::ProtocolIdentification => write!(f, "protocol-identification"),
            ServiceType::Firewall => write!(f, "firewall"),
            ServiceType::VirusScan => write!(f, "virus-scan"),
            ServiceType::ContentInspection => write!(f, "content-inspection"),
        }
    }
}

/// The result a service element reports about a flow.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Malicious traffic detected; the controller should block the flow
    /// at its ingress switch.
    Malicious {
        /// Attack name (e.g. rule name).
        attack: String,
        /// Severity 1..=10.
        severity: u8,
    },
    /// The flow's application protocol was identified.
    Application {
        /// Application label (e.g. "http", "bittorrent").
        app: String,
    },
    /// Policy violation (firewall/content): block, but not an attack.
    PolicyViolation {
        /// Violated policy description.
        policy: String,
    },
    /// A stateful firewall confirmed the connection as established and
    /// admissible: the controller may install an inspection-bypassing
    /// fast-pass for it.
    ConnEstablished,
    /// A previously established connection closed (teardown or idle
    /// expiry): any fast-pass for it must come down.
    ConnClosed,
}

/// A message from a service element to the controller.
#[derive(Clone, PartialEq, Debug)]
pub enum SeMessage {
    /// Periodic heartbeat: existence, service type, and load.
    Online {
        /// What service this element provides.
        service: ServiceType,
        /// Certification token issued by the controller (0 = none).
        cert: u64,
        /// CPU utilization percent (0..=100).
        cpu: u8,
        /// Memory footprint percent (0..=100).
        mem: u8,
        /// Packets processed in the last reporting interval.
        pps: u64,
        /// Bits processed per second in the last interval.
        bps: u64,
        /// Cumulative packets processed since the element started —
        /// the deficit counter minimum-load dispatch balances on.
        total_pkts: u64,
    },
    /// A detection/identification result for a flow.
    Event {
        /// Certification token.
        cert: u64,
        /// The flow the result concerns (the paper's "12-tuple" is this
        /// 9-tuple plus the location fields the controller already
        /// knows from its routing table).
        flow: FlowKey,
        /// The result.
        verdict: Verdict,
    },
}

impl SeMessage {
    /// Encodes this message into the UDP payload format (magic +
    /// version + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&MAGIC);
        out.push(1); // version
        match self {
            SeMessage::Online {
                service,
                cert,
                cpu,
                mem,
                pps,
                bps,
                total_pkts,
            } => {
                out.push(0); // kind
                out.push(service.code());
                out.extend_from_slice(&cert.to_be_bytes());
                out.push(*cpu);
                out.push(*mem);
                out.extend_from_slice(&pps.to_be_bytes());
                out.extend_from_slice(&bps.to_be_bytes());
                out.extend_from_slice(&total_pkts.to_be_bytes());
            }
            SeMessage::Event {
                cert,
                flow,
                verdict,
            } => {
                out.push(1); // kind
                out.extend_from_slice(&cert.to_be_bytes());
                encode_flow(&mut out, flow);
                match verdict {
                    Verdict::Malicious { attack, severity } => {
                        out.push(0);
                        out.push(*severity);
                        put_str(&mut out, attack);
                    }
                    Verdict::Application { app } => {
                        out.push(1);
                        put_str(&mut out, app);
                    }
                    Verdict::PolicyViolation { policy } => {
                        out.push(2);
                        put_str(&mut out, policy);
                    }
                    Verdict::ConnEstablished => out.push(3),
                    Verdict::ConnClosed => out.push(4),
                }
            }
        }
        out
    }

    /// Decodes a control message; returns `None` if the magic, version
    /// or structure is wrong (the controller silently ignores such
    /// packets, treating them as ordinary traffic).
    pub fn decode(bytes: &[u8]) -> Option<SeMessage> {
        let mut r = Cursor::new(bytes);
        if r.array().ok()? != MAGIC {
            return None;
        }
        if r.u8().ok()? != 1 {
            return None;
        }
        match r.u8().ok()? {
            0 => Some(SeMessage::Online {
                service: ServiceType::from_code(r.u8().ok()?)?,
                cert: r.u64().ok()?,
                cpu: r.u8().ok()?,
                mem: r.u8().ok()?,
                pps: r.u64().ok()?,
                bps: r.u64().ok()?,
                total_pkts: r.u64().ok()?,
            }),
            1 => {
                let cert = r.u64().ok()?;
                let flow = decode_flow(&mut r)?;
                let verdict = match r.u8().ok()? {
                    0 => {
                        let severity = r.u8().ok()?;
                        Verdict::Malicious {
                            severity,
                            attack: get_string(&mut r)?,
                        }
                    }
                    1 => Verdict::Application {
                        app: get_string(&mut r)?,
                    },
                    2 => Verdict::PolicyViolation {
                        policy: get_string(&mut r)?,
                    },
                    3 => Verdict::ConnEstablished,
                    4 => Verdict::ConnClosed,
                    _ => return None,
                };
                Some(SeMessage::Event {
                    cert,
                    flow,
                    verdict,
                })
            }
            _ => None,
        }
    }

    /// Returns `true` if a UDP payload starts with the control magic.
    pub fn is_control_payload(bytes: &[u8]) -> bool {
        bytes.starts_with(&MAGIC)
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(bytes);
}

fn encode_flow(out: &mut Vec<u8>, f: &FlowKey) {
    out.extend_from_slice(&f.vlan.map(|v| v + 1).unwrap_or(0).to_be_bytes());
    out.extend_from_slice(&f.dl_src.octets());
    out.extend_from_slice(&f.dl_dst.octets());
    out.extend_from_slice(&f.dl_type.to_be_bytes());
    out.extend_from_slice(&f.nw_src.octets());
    out.extend_from_slice(&f.nw_dst.octets());
    out.push(f.nw_proto);
    out.extend_from_slice(&f.tp_src.to_be_bytes());
    out.extend_from_slice(&f.tp_dst.to_be_bytes());
}

fn get_string(r: &mut Cursor<'_>) -> Option<String> {
    let n = usize::from(r.u16().ok()?);
    String::from_utf8(r.take(n).ok()?.to_vec()).ok()
}

fn decode_flow(r: &mut Cursor<'_>) -> Option<FlowKey> {
    let vlan_raw = r.u16().ok()?;
    Some(FlowKey {
        vlan: if vlan_raw == 0 {
            None
        } else {
            Some(vlan_raw - 1)
        },
        dl_src: r.mac().ok()?,
        dl_dst: r.mac().ok()?,
        dl_type: r.u16().ok()?,
        nw_src: r.ipv4().ok()?,
        nw_dst: r.ipv4().ok()?,
        nw_proto: r.u8().ok()?,
        tp_src: r.u16().ok()?,
        tp_dst: r.u16().ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowKey {
        FlowKey {
            vlan: Some(12),
            dl_src: MacAddr::from_u64(1),
            dl_dst: MacAddr::from_u64(2),
            dl_type: 0x0800,
            nw_src: "10.0.0.1".parse().unwrap(),
            nw_dst: "10.0.0.2".parse().unwrap(),
            nw_proto: 6,
            tp_src: 555,
            tp_dst: 80,
        }
    }

    #[test]
    fn online_roundtrip() {
        let msg = SeMessage::Online {
            service: ServiceType::IntrusionDetection,
            cert: 0xdeadbeef,
            cpu: 42,
            mem: 17,
            pps: 123_456,
            bps: 421_000_000,
            total_pkts: 9_876_543,
        };
        assert_eq!(SeMessage::decode(&msg.encode()), Some(msg));
    }

    #[test]
    fn event_roundtrips_all_verdicts() {
        for verdict in [
            Verdict::Malicious {
                attack: "exploit.shellcode".into(),
                severity: 9,
            },
            Verdict::Application {
                app: "bittorrent".into(),
            },
            Verdict::PolicyViolation {
                policy: "no-dlp-keywords".into(),
            },
            Verdict::ConnEstablished,
            Verdict::ConnClosed,
        ] {
            let msg = SeMessage::Event {
                cert: 7,
                flow: flow(),
                verdict,
            };
            assert_eq!(SeMessage::decode(&msg.encode()), Some(msg));
        }
    }

    #[test]
    fn untagged_vlan_roundtrips() {
        let mut f = flow();
        f.vlan = None;
        let msg = SeMessage::Event {
            cert: 0,
            flow: f,
            verdict: Verdict::Application { app: "ssh".into() },
        };
        assert_eq!(SeMessage::decode(&msg.encode()), Some(msg));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(SeMessage::decode(b""), None);
        assert_eq!(SeMessage::decode(b"NOPE\x01\x00"), None);
        assert_eq!(SeMessage::decode(b"LSEC\x02\x00"), None, "bad version");
        assert_eq!(SeMessage::decode(b"LSEC\x01\x09"), None, "bad kind");
        // Truncated event.
        let msg = SeMessage::Event {
            cert: 7,
            flow: flow(),
            verdict: Verdict::Application { app: "x".into() },
        };
        let enc = msg.encode();
        assert_eq!(SeMessage::decode(&enc[..enc.len() - 1]), None);
    }

    #[test]
    fn control_payload_detection() {
        assert!(SeMessage::is_control_payload(b"LSEC\x01..."));
        assert!(!SeMessage::is_control_payload(b"GET / HTTP/1.1"));
        assert!(!SeMessage::is_control_payload(b"LS"));
    }

    #[test]
    fn service_type_codes_roundtrip() {
        for s in ServiceType::ALL {
            assert_eq!(ServiceType::from_code(s.code()), Some(s));
        }
        assert_eq!(ServiceType::from_code(99), None);
    }
}
