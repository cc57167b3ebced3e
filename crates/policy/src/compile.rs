//! Lowering: a checked program becomes a [`PolicyTable`] plus the
//! advisory rate-limit list.
//!
//! Group references expand into one [`PolicyRule`] per member (cross
//! product with the `to` side), in declaration order; expanded rules
//! are named `name#0`, `name#1`, … so rule identity stays stable for
//! the delta compiler as long as membership is unchanged.

use crate::ast::{DeclKind, Endpoint, Member, Program, Verdict};
use crate::check::{check, shadow_diags};
use crate::diag::{has_errors, Diag};
use crate::parser::parse;
use livesec::policy::{AppAction, PolicyDecision, PolicyRule, PolicyTable};
use livesec_net::{Ipv4Net, MacAddr};
use livesec_openflow::Match;
use livesec_services::ServiceType;
use std::collections::BTreeMap;

/// An advisory rate cap attached to a compiled rule. The dataplane
/// has no meter abstraction yet, so limits compile to `Allow` plus
/// this record; operators (and the monitor) see the intent.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RateLimit {
    /// The lowered rule name the cap applies to.
    pub rule: String,
    /// The cap, in bits per second.
    pub bps: u64,
}

/// The result of compiling a `.lsp` program.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CompiledPolicy {
    /// The controller-ready policy table.
    pub table: PolicyTable,
    /// Advisory rate caps, in rule order.
    pub rate_limits: Vec<RateLimit>,
    /// Non-fatal diagnostics (shadowed-rule redundancy, etc.).
    pub warnings: Vec<Diag>,
}

/// Compiles `.lsp` source text. `Err` carries every diagnostic
/// (errors and warnings, source-ordered) when anything was fatal;
/// `Ok`'s [`CompiledPolicy::warnings`] carries the non-fatal rest.
pub fn compile(src: &str) -> Result<CompiledPolicy, Vec<Diag>> {
    let (program, mut diags) = parse(src);
    diags.extend(check(&program));
    if has_errors(&diags) {
        return Err(diags);
    }
    let (table, rate_limits, lowered) = lower(&program);
    diags.extend(shadow_diags(&lowered));
    if has_errors(&diags) {
        return Err(diags);
    }
    Ok(CompiledPolicy {
        table,
        rate_limits,
        warnings: diags,
    })
}

/// Lowers a *checked* program (unknown references were already
/// rejected; dangling ones fall back to matching nothing or allow).
/// Returns the table, the rate limits, and the lowered rules with
/// their declaration lines (for shadow analysis).
fn lower(program: &Program) -> (PolicyTable, Vec<RateLimit>, Vec<(PolicyRule, u32)>) {
    let mut groups: BTreeMap<&str, &[Member]> = BTreeMap::new();
    let mut chains: BTreeMap<&str, &[ServiceType]> = BTreeMap::new();
    let mut tenants: BTreeMap<&str, Ipv4Net> = BTreeMap::new();
    for decl in &program.decls {
        match &decl.kind {
            DeclKind::Group { name, members } => {
                groups.entry(name).or_insert(members);
            }
            DeclKind::Chain { name, services } => {
                chains.entry(name).or_insert(services);
            }
            DeclKind::Tenant { name, net } => {
                tenants.entry(name).or_insert(*net);
            }
            _ => {}
        }
    }

    let mut table = PolicyTable::allow_all();
    let mut rate_limits = Vec::new();
    let mut lowered = Vec::new();
    for decl in &program.decls {
        match &decl.kind {
            DeclKind::Default { verdict } => {
                table.set_default(decision_of(verdict, &chains));
            }
            DeclKind::OnApp { app, block } => {
                let action = if *block {
                    AppAction::Block
                } else {
                    AppAction::Allow
                };
                table.on_app(app, action);
            }
            DeclKind::Rule(r) => {
                // `from` expands to (source prefix, source MAC) pairs.
                let from_exps: Vec<(Option<Ipv4Net>, Option<MacAddr>)> = match &r.from {
                    None => vec![(None, None)],
                    Some(Endpoint::Net(net)) => vec![(Some(*net), None)],
                    Some(Endpoint::Mac(mac)) => vec![(None, Some(*mac))],
                    Some(Endpoint::Name(g)) => groups
                        .get(g.as_str())
                        .copied()
                        .unwrap_or(&[])
                        .iter()
                        .map(|m| match m {
                            Member::Net(net) => (Some(*net), None),
                            Member::Mac(mac) => (None, Some(*mac)),
                        })
                        .collect(),
                };
                // `to` expands to destination prefixes (the checker
                // rejected MAC destinations).
                let to_exps: Vec<Option<Ipv4Net>> = match &r.to {
                    None => vec![None],
                    Some(Endpoint::Net(net)) => vec![Some(*net)],
                    Some(Endpoint::Mac(_)) => Vec::new(),
                    Some(Endpoint::Name(g)) => groups
                        .get(g.as_str())
                        .copied()
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(|m| match m {
                            Member::Net(net) => Some(Some(*net)),
                            Member::Mac(_) => None,
                        })
                        .collect(),
                };
                let tenant_net = r.tenant.as_deref().and_then(|t| tenants.get(t)).copied();
                let decision = decision_of(&r.verdict, &chains);
                let many = from_exps.len() * to_exps.len() > 1;
                let mut i = 0usize;
                for (src, src_mac) in &from_exps {
                    for dst in &to_exps {
                        let name = if many {
                            format!("{}#{i}", r.name)
                        } else {
                            r.name.clone()
                        };
                        i += 1;
                        let rule = PolicyRule {
                            name: name.clone(),
                            matcher: Match {
                                // The tenant prefix stands in when the
                                // member pins no prefix of its own (the
                                // checker proved containment otherwise).
                                nw_src: src.or(tenant_net),
                                nw_dst: *dst,
                                dl_src: *src_mac,
                                nw_proto: r.proto,
                                tp_dst: r.port,
                                ..Match::any()
                            }
                            .normalized(),
                            decision: decision.clone(),
                        };
                        if let Verdict::Limit { bps } = r.verdict {
                            rate_limits.push(RateLimit { rule: name, bps });
                        }
                        lowered.push((rule.clone(), decl.line));
                        table.push(rule);
                    }
                }
            }
            _ => {}
        }
    }
    (table, rate_limits, lowered)
}

fn decision_of(verdict: &Verdict, chains: &BTreeMap<&str, &[ServiceType]>) -> PolicyDecision {
    match verdict {
        Verdict::Allow | Verdict::Limit { .. } => PolicyDecision::Allow,
        Verdict::Deny => PolicyDecision::Deny,
        Verdict::Via(chain) => PolicyDecision::Chain(
            chains
                .get(chain.as_str())
                .map(|s| s.to_vec())
                .unwrap_or_default(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec_net::FlowKey;

    fn key(src_ip: &str, dst_port: u16) -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(1),
            dl_dst: MacAddr::from_u64(2),
            dl_type: 0x0800,
            nw_src: src_ip.parse().unwrap(),
            nw_dst: "8.8.8.8".parse().unwrap(),
            nw_proto: 6,
            tp_src: 40000,
            tp_dst: dst_port,
        }
    }

    #[test]
    fn compiles_decisions_and_defaults() {
        let c = compile(
            "chain web = [ ids, protoid ]\n\
             rule web-ids: proto tcp port 80 via web\n\
             rule no-telnet: port 23 proto tcp deny\n\
             default deny\n\
             on app bittorrent block\n",
        )
        .expect("compiles");
        assert!(c.warnings.is_empty(), "{:?}", c.warnings);
        let (d, name) = c.table.decide(&key("10.0.0.1", 80));
        assert_eq!(name, Some("web-ids"));
        assert_eq!(
            d,
            &PolicyDecision::Chain(vec![
                ServiceType::IntrusionDetection,
                ServiceType::ProtocolIdentification
            ])
        );
        assert_eq!(
            c.table.decide(&key("10.0.0.1", 23)).0,
            &PolicyDecision::Deny
        );
        // Unmatched traffic hits the deny default.
        assert_eq!(
            c.table.decide(&key("10.0.0.1", 443)).0,
            &PolicyDecision::Deny
        );
        assert_eq!(c.table.app_action("bittorrent"), Some(AppAction::Block));
    }

    #[test]
    fn group_expansion_crosses_from_and_to() {
        let c = compile(
            "group clients = { 10.1.0.0/24, 0a:0b:0c:0d:0e:01 }\n\
             group servers = { 10.9.0.0/24, 10.9.1.0/24 }\n\
             rule lock: from clients to servers proto tcp deny\n",
        )
        .expect("compiles");
        assert_eq!(c.table.len(), 4);
        let names: Vec<&str> = c.table.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["lock#0", "lock#1", "lock#2", "lock#3"]);
        // The MAC member carries no src prefix; the net member does.
        let r0 = c.table.get("lock#0").unwrap();
        assert_eq!(r0.matcher.nw_src, Some("10.1.0.0/24".parse().unwrap()));
        assert_eq!(r0.matcher.dl_src, None);
        let r2 = c.table.get("lock#2").unwrap();
        assert_eq!(r2.matcher.nw_src, None);
        assert_eq!(
            r2.matcher.dl_src,
            Some("0a:0b:0c:0d:0e:01".parse().unwrap())
        );
    }

    #[test]
    fn tenant_prefix_fills_unpinned_sources() {
        let c = compile(
            "tenant lab 10.2.0.0/16\n\
             rule scoped: proto udp tenant lab deny\n\
             rule narrowed: from 10.2.7.0/24 tenant lab deny\n",
        )
        .expect("compiles");
        let scoped = c.table.get("scoped").unwrap();
        assert_eq!(scoped.matcher.nw_src, Some("10.2.0.0/16".parse().unwrap()));
        let narrowed = c.table.get("narrowed").unwrap();
        assert_eq!(
            narrowed.matcher.nw_src,
            Some("10.2.7.0/24".parse().unwrap())
        );
    }

    #[test]
    fn limits_compile_to_allow_plus_advisory() {
        let c = compile("rule capped: from 10.3.0.0/24 limit 25 mbps\n").expect("compiles");
        assert_eq!(
            c.table.get("capped").unwrap().decision,
            PolicyDecision::Allow
        );
        assert_eq!(
            c.rate_limits,
            vec![RateLimit {
                rule: "capped".into(),
                bps: 25_000_000
            }]
        );
    }

    #[test]
    fn errors_abort_compilation() {
        let err = compile("rule r: via nowhere\n").unwrap_err();
        assert!(err.iter().any(|d| d.message.contains("unknown chain")));
        // A conflicting full shadow is fatal too.
        let err = compile("rule a: proto tcp deny\nrule b: proto tcp port 80 allow\n").unwrap_err();
        assert!(
            err.iter().any(|d| d.message.contains("can never match")),
            "{err:?}"
        );
    }
}
