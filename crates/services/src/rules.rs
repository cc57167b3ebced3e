//! A Snort-flavored rule language for the signature engines.
//!
//! The paper builds its intrusion-detection elements by porting Snort;
//! this module provides the operational half of that fidelity: rule
//! sets are written in (a subset of) Snort's rule syntax and compiled
//! into [`IdsRule`]s for the [`SignatureEngine`]. A rule's header
//! becomes its [`Match`] selector.
//!
//! Supported grammar, one rule per line:
//!
//! ```text
//! alert tcp any any -> any 80 (msg:"WEB attack"; content:"/etc/passwd"; sid:1001; priority:8;)
//! # comments and blank lines are skipped
//! alert tcp 10.0.0.0/24 any -> any any (msg:"lab scan"; content:"|90 90 90 90|"; sid:2; priority:9;)
//! ```
//!
//! * header: `alert <proto> <src> <src_port> -> <dst> <dst_port>` where
//!   proto ∈ {`tcp`, `udp`, `icmp`, `ip`}, addresses are `any` or CIDR,
//!   ports are `any` or a number;
//! * options: `msg` (rule name), `content` (required; `|..|` spans are
//!   hex bytes, as in Snort), `sid` (rule id), `priority`/`severity`
//!   (1..=10, default 5).

use crate::engines::{IdsRule, Severity, SignatureEngine};
use crate::msg::ServiceType;
use livesec_net::Ipv4Net;
use livesec_openflow::Match;
use std::fmt;

/// Error from [`parse_rules`], with the offending line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule parse error on line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for RuleParseError {}

fn err(line: usize, reason: impl Into<String>) -> RuleParseError {
    RuleParseError {
        line,
        reason: reason.into(),
    }
}

fn parse_proto(s: &str, line: usize) -> Result<Option<u8>, RuleParseError> {
    match s {
        "tcp" => Ok(Some(6)),
        "udp" => Ok(Some(17)),
        "icmp" => Ok(Some(1)),
        "ip" => Ok(None),
        other => Err(err(line, format!("unknown protocol {other:?}"))),
    }
}

fn parse_addr(s: &str, line: usize) -> Result<Option<Ipv4Net>, RuleParseError> {
    if s == "any" {
        return Ok(None);
    }
    if let Ok(net) = s.parse::<Ipv4Net>() {
        return Ok(Some(net));
    }
    if let Ok(ip) = s.parse::<std::net::Ipv4Addr>() {
        return Ok(Some(Ipv4Net::host(ip)));
    }
    Err(err(line, format!("bad address {s:?}")))
}

fn parse_port(s: &str, line: usize) -> Result<Option<u16>, RuleParseError> {
    if s == "any" {
        return Ok(None);
    }
    s.parse::<u16>()
        .map(Some)
        .map_err(|_| err(line, format!("bad port {s:?}")))
}

/// Decodes a Snort content string: literal bytes, with `|90 0a ff|`
/// spans decoded as hex.
fn parse_content(s: &str, line: usize) -> Result<Vec<u8>, RuleParseError> {
    let mut out = Vec::with_capacity(s.len());
    let mut in_hex = false;
    let mut hex_buf = String::new();
    for ch in s.chars() {
        if ch == '|' {
            if in_hex {
                for tok in hex_buf.split_whitespace() {
                    let b = u8::from_str_radix(tok, 16)
                        .map_err(|_| err(line, format!("bad hex byte {tok:?} in content")))?;
                    out.push(b);
                }
                hex_buf.clear();
            }
            in_hex = !in_hex;
        } else if in_hex {
            hex_buf.push(ch);
        } else {
            let mut buf = [0u8; 4];
            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
        }
    }
    if in_hex {
        return Err(err(line, "unterminated |hex| span in content"));
    }
    if out.is_empty() {
        return Err(err(line, "empty content"));
    }
    Ok(out)
}

/// Splits the option block `msg:"...";  content:"...";  sid:7;` into
/// `(key, value)` pairs, honoring quotes.
fn split_options(s: &str, line: usize) -> Result<Vec<(String, String)>, RuleParseError> {
    let mut out = Vec::new();
    let mut rest = s.trim();
    while !rest.is_empty() {
        let colon = rest
            .find(':')
            .ok_or_else(|| err(line, format!("expected `key:value` in {rest:?}")))?;
        let key = rest[..colon].trim().to_owned();
        rest = &rest[colon + 1..];
        let value;
        if let Some(stripped) = rest.trim_start().strip_prefix('"') {
            let close = stripped
                .find('"')
                .ok_or_else(|| err(line, "unterminated string"))?;
            value = stripped[..close].to_owned();
            rest = stripped[close + 1..]
                .trim_start()
                .strip_prefix(';')
                .ok_or_else(|| err(line, "missing `;` after option"))?;
        } else {
            let semi = rest
                .find(';')
                .ok_or_else(|| err(line, "missing `;` after option"))?;
            value = rest[..semi].trim().to_owned();
            rest = &rest[semi + 1..];
        }
        out.push((key, value));
        rest = rest.trim_start();
    }
    Ok(out)
}

fn parse_line(text: &str, line: usize, default_sid: u32) -> Result<IdsRule, RuleParseError> {
    let open = text
        .find('(')
        .ok_or_else(|| err(line, "missing option block `(...)`"))?;
    let close = text
        .rfind(')')
        .ok_or_else(|| err(line, "missing closing `)`"))?;
    if close < open {
        return Err(err(line, "malformed option block"));
    }
    let header: Vec<&str> = text[..open].split_whitespace().collect();
    let [action, proto, src, src_port, arrow, dst, dst_port] = header[..] else {
        return Err(err(
            line,
            "header must be `alert <proto> <src> <port> -> <dst> <port>`",
        ));
    };
    if action != "alert" {
        return Err(err(line, format!("unsupported action {action:?}")));
    }
    if arrow != "->" {
        return Err(err(line, format!("expected `->`, found {arrow:?}")));
    }

    let mut rule = IdsRule::new(default_sid, "unnamed rule", b"?", Severity::new(5));
    rule.header = Match {
        nw_proto: parse_proto(proto, line)?,
        nw_src: parse_addr(src, line)?,
        nw_dst: parse_addr(dst, line)?,
        tp_src: parse_port(src_port, line)?,
        tp_dst: parse_port(dst_port, line)?,
        ..Match::any()
    }
    .normalized();

    let mut content = None;
    for (key, value) in split_options(&text[open + 1..close], line)? {
        match key.as_str() {
            "msg" => rule.name = value,
            "content" => content = Some(parse_content(&value, line)?),
            "sid" => {
                rule.id = value
                    .parse()
                    .map_err(|_| err(line, format!("bad sid {value:?}")))?;
            }
            "priority" | "severity" => {
                let v: u8 = value
                    .parse()
                    .map_err(|_| err(line, format!("bad priority {value:?}")))?;
                rule.severity = Severity::new(v);
            }
            // Unknown options are tolerated, as Snort deployments carry
            // many engine-specific keywords.
            _ => {}
        }
    }
    rule.pattern = content.ok_or_else(|| err(line, "rule needs a `content` option"))?;
    Ok(rule)
}

/// Parses a rule file: one rule per line, `#` comments and blank lines
/// skipped.
///
/// ```rust
/// # fn main() -> Result<(), livesec_services::RuleParseError> {
/// let rules = livesec_services::parse_rules(
///     r#"alert tcp any any -> any 80 (msg:"demo"; content:"attack"; sid:1;)"#,
/// )?;
/// assert_eq!(rules[0].header.tp_dst, Some(80));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns the first [`RuleParseError`] encountered.
pub fn parse_rules(text: &str) -> Result<Vec<IdsRule>, RuleParseError> {
    let mut rules = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        rules.push(parse_line(line, line_no, 1_000_000 + line_no as u32)?);
    }
    Ok(rules)
}

impl SignatureEngine {
    /// Builds a signature engine from Snort-style rule text.
    ///
    /// # Errors
    ///
    /// Returns [`RuleParseError`] for malformed rules.
    pub fn from_rules_text(
        service: ServiceType,
        text: &str,
    ) -> Result<SignatureEngine, RuleParseError> {
        Ok(SignatureEngine::new(service, parse_rules(text)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_net::{FlowKey, MacAddr};

    fn flow(proto: u8, dst_port: u16) -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(1),
            dl_dst: MacAddr::from_u64(2),
            dl_type: 0x0800,
            nw_src: "10.0.0.5".parse().unwrap(),
            nw_dst: "192.168.1.9".parse().unwrap(),
            nw_proto: proto,
            tp_src: 40_000,
            tp_dst: dst_port,
        }
    }

    const RULESET: &str = r#"
# web attacks
alert tcp any any -> any 80 (msg:"WEB passwd grab"; content:"/etc/passwd"; sid:1001; priority:8;)
alert tcp 10.0.0.0/24 any -> any any (msg:"lab shellcode"; content:"|90 90 90 90|"; sid:1002; priority:9;)
alert udp any any -> any 53 (msg:"DNS tunnel marker"; content:"xfiltr8"; sid:1003;)
"#;

    #[test]
    fn parses_full_ruleset() {
        let rules = parse_rules(RULESET).unwrap();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[0].id, 1001);
        assert_eq!(rules[0].name, "WEB passwd grab");
        assert_eq!(rules[0].pattern, b"/etc/passwd");
        assert_eq!(rules[0].header.nw_proto, Some(6));
        assert_eq!(rules[0].header.tp_dst, Some(80));
        assert_eq!(rules[0].severity, Severity(8));

        assert_eq!(rules[1].pattern, vec![0x90, 0x90, 0x90, 0x90]);
        assert_eq!(rules[1].header.nw_src, Some("10.0.0.0/24".parse().unwrap()));
        assert_eq!(rules[1].header.tp_dst, None);

        assert_eq!(rules[2].header.nw_proto, Some(17));
        assert_eq!(rules[2].severity, Severity(5), "default priority");
    }

    #[test]
    fn mixed_literal_and_hex_content() {
        let rules = parse_rules(
            r#"alert tcp any any -> any any (msg:"mixed"; content:"GET |2f 65 74 63|/passwd"; sid:1;)"#,
        )
        .unwrap();
        assert_eq!(rules[0].pattern, b"GET /etc/passwd");
    }

    #[test]
    fn header_constraints_gate_matches() {
        let mut engine =
            SignatureEngine::from_rules_text(ServiceType::IntrusionDetection, RULESET).unwrap();
        // Rule 1001 needs tcp/80.
        assert!(engine.inspect(&flow(6, 80), b"cat /etc/passwd").is_some());
        // Same content on the wrong port: no match.
        assert!(engine.inspect(&flow(6, 443), b"cat /etc/passwd").is_none());
        // Rule 1003 needs udp/53.
        let mut dns = flow(17, 53);
        dns.tp_src = 5353;
        assert!(engine.inspect(&dns, b"...xfiltr8...").is_some());
    }

    #[test]
    fn header_gating_skips_to_matching_rule() {
        // One payload hits two rules' content; only the rule whose
        // header accepts the flow fires.
        let text = r#"
alert tcp any any -> any 80 (msg:"web"; content:"attack"; sid:1;)
alert udp any any -> any any (msg:"udp"; content:"attack"; sid:2;)
"#;
        let mut engine =
            SignatureEngine::from_rules_text(ServiceType::IntrusionDetection, text).unwrap();
        let finding = engine.inspect(&flow(17, 9), b"attack!").unwrap();
        match finding.verdict {
            crate::msg::Verdict::Malicious { attack, .. } => assert_eq!(attack, "udp"),
            other => panic!("wrong verdict {other:?}"),
        }
    }

    #[test]
    fn error_reporting_includes_line() {
        let bad = "alert tcp any any -> any 80 (msg:\"x\"; sid:1;)\n";
        let e = parse_rules(bad).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.reason.contains("content"));

        let bad2 = "\n\nalert tcp any any any 80 (content:\"x\"; sid:1;)\n";
        assert_eq!(parse_rules(bad2).unwrap_err().line, 3);
    }

    #[test]
    fn rejects_malformed_pieces() {
        for bad in [
            "drop tcp any any -> any 80 (content:\"x\"; sid:1;)",
            "alert bogus any any -> any 80 (content:\"x\"; sid:1;)",
            "alert tcp any any -> any 99999 (content:\"x\"; sid:1;)",
            "alert tcp not-an-ip any -> any 80 (content:\"x\"; sid:1;)",
            "alert tcp any any -> any 80 (content:\"|zz|\"; sid:1;)",
            "alert tcp any any -> any 80 (content:\"|90\"; sid:1;)",
            "alert tcp any any -> any 80 content:\"x\";",
            "alert tcp any any -> any 80 (content:\"\"; sid:1;)",
        ] {
            assert!(parse_rules(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn unknown_options_tolerated() {
        let rules = parse_rules(
            r#"alert tcp any any -> any 80 (msg:"x"; flow:to_server,established; content:"y"; classtype:web-application-attack; sid:9;)"#,
        )
        .unwrap();
        assert_eq!(rules[0].pattern, b"y");
    }

    #[test]
    fn comments_and_blanks_skipped() {
        assert!(parse_rules("# only a comment\n\n   \n").unwrap().is_empty());
    }
}
