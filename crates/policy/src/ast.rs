//! The `.lsp` abstract syntax tree.
//!
//! Positions live on each declaration (`line`), enough for the
//! checker's diagnostics; structural equality includes them.

use livesec_net::{Ipv4Net, MacAddr};
use livesec_services::ServiceType;

/// A parsed policy program: the declaration list, in source order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// Top-level declarations.
    pub decls: Vec<Decl>,
}

/// One top-level declaration with its source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Decl {
    /// 1-based source line of the declaration keyword.
    pub line: u32,
    /// The declaration itself.
    pub kind: DeclKind,
}

/// The declaration forms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DeclKind {
    /// `group NAME = { member, ... }` — users by MAC or attachment
    /// prefix.
    Group {
        /// The group name.
        name: String,
        /// Its members.
        members: Vec<Member>,
    },
    /// `chain NAME = [ service, ... ]` — an ordered service chain.
    Chain {
        /// The chain name.
        name: String,
        /// Service types, in traversal order.
        services: Vec<ServiceType>,
    },
    /// `tenant NAME CIDR` — a named address scope rules can pin to.
    Tenant {
        /// The tenant name.
        name: String,
        /// The tenant's address space.
        net: Ipv4Net,
    },
    /// `rule NAME: clauses... verdict`.
    Rule(RuleDecl),
    /// `default allow|deny|via CHAIN` — the table's default decision.
    Default {
        /// The default verdict (`Limit` is rejected by the checker).
        verdict: Verdict,
    },
    /// `on app NAME allow|block` — aggregate flow control once the
    /// protocol-identification element labels a flow.
    OnApp {
        /// The application label.
        app: String,
        /// `true` = block the flow at its ingress.
        block: bool,
    },
}

/// A group member: a specific user (MAC) or an attachment prefix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Member {
    /// One user, by MAC address.
    Mac(MacAddr),
    /// Every user inside an IPv4 prefix.
    Net(Ipv4Net),
}

/// One `rule` declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RuleDecl {
    /// The rule name (unique across the program; delta identity).
    pub name: String,
    /// `from` selector: group name, prefix, or MAC.
    pub from: Option<Endpoint>,
    /// `to` selector: group name or prefix (MACs are rejected — the
    /// dataplane matches destinations by IP).
    pub to: Option<Endpoint>,
    /// `proto tcp|udp|icmp|N` selector.
    pub proto: Option<u8>,
    /// `port N` (destination transport port) selector.
    pub port: Option<u16>,
    /// `tenant NAME` scope: ANDs the tenant's prefix into the source.
    pub tenant: Option<String>,
    /// The verdict.
    pub verdict: Verdict,
}

/// A rule endpoint selector.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Endpoint {
    /// A group (or, in `from`, tenant-like named set) reference.
    Name(String),
    /// An IPv4 prefix.
    Net(Ipv4Net),
    /// A specific user's MAC (only valid in `from`).
    Mac(MacAddr),
}

/// What a rule decides.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Forward directly.
    Allow,
    /// Drop at the ingress switch.
    Deny,
    /// Steer through the named chain.
    Via(String),
    /// Admit but cap the flow's rate (advisory: recorded in the
    /// compiled policy's rate-limit list; no dataplane meter yet).
    Limit {
        /// The cap, in bits per second.
        bps: u64,
    },
}

/// The DSL keyword for a service type (`chain` bodies).
pub fn service_keyword(s: ServiceType) -> &'static str {
    match s {
        ServiceType::IntrusionDetection => "ids",
        ServiceType::ProtocolIdentification => "protoid",
        ServiceType::Firewall => "firewall",
        ServiceType::VirusScan => "virusscan",
        ServiceType::ContentInspection => "inspect",
    }
}

/// The service type a DSL keyword names, if any.
pub fn service_of_keyword(word: &str) -> Option<ServiceType> {
    match word {
        "ids" => Some(ServiceType::IntrusionDetection),
        "protoid" => Some(ServiceType::ProtocolIdentification),
        "firewall" => Some(ServiceType::Firewall),
        "virusscan" => Some(ServiceType::VirusScan),
        "inspect" => Some(ServiceType::ContentInspection),
        _ => None,
    }
}

/// The IP protocol number a DSL keyword names, if any.
pub fn proto_of_keyword(word: &str) -> Option<u8> {
    match word {
        "icmp" => Some(1),
        "tcp" => Some(6),
        "udp" => Some(17),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_keywords_round_trip() {
        for s in [
            ServiceType::IntrusionDetection,
            ServiceType::ProtocolIdentification,
            ServiceType::Firewall,
            ServiceType::VirusScan,
            ServiceType::ContentInspection,
        ] {
            assert_eq!(service_of_keyword(service_keyword(s)), Some(s));
        }
        assert_eq!(service_of_keyword("nat"), None);
    }

    #[test]
    fn proto_keywords_name_their_protocol_numbers() {
        for (word, p) in [("icmp", 1u8), ("tcp", 6), ("udp", 17)] {
            assert_eq!(proto_of_keyword(word), Some(p));
        }
        assert_eq!(proto_of_keyword("gre"), None);
    }
}
