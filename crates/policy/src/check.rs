//! The semantic checker: name resolution, scope containment, and
//! shadow/conflict analysis over the `HeaderClass` header-space algebra.

use crate::ast::{Decl, DeclKind, Endpoint, Member, Program, Verdict};
use crate::diag::Diag;
use livesec::policy::PolicyRule;
use livesec_openflow::HeaderClass;
use std::collections::BTreeMap;

/// Checks a parsed program. Errors make it uncompilable; warnings
/// ride along. Diagnostics come out in deterministic source order
/// (one pass over the declarations, then the reference checks).
pub fn check(program: &Program) -> Vec<Diag> {
    let mut diags = Vec::new();
    let mut groups: BTreeMap<&str, &[Member]> = BTreeMap::new();
    let mut chains: BTreeMap<&str, usize> = BTreeMap::new();
    let mut tenants: BTreeMap<&str, livesec_net::Ipv4Net> = BTreeMap::new();
    let mut rules: BTreeMap<&str, u32> = BTreeMap::new();
    let mut apps: BTreeMap<&str, u32> = BTreeMap::new();
    let mut default_line: Option<u32> = None;

    // Pass 1: declarations, duplicate names, per-decl constraints.
    for decl in &program.decls {
        match &decl.kind {
            DeclKind::Group { name, members } => {
                if groups.insert(name, members).is_some() {
                    diags.push(dup(decl, "group", name));
                }
                if members.is_empty() {
                    diags.push(Diag::warning(
                        decl.line,
                        1,
                        format!("group `{name}` is empty and matches nothing"),
                    ));
                }
            }
            DeclKind::Chain { name, services } => {
                if chains.insert(name, services.len()).is_some() {
                    diags.push(dup(decl, "chain", name));
                }
                if services.is_empty() {
                    diags.push(Diag::warning(
                        decl.line,
                        1,
                        format!("chain `{name}` is empty (equivalent to allow)"),
                    ));
                }
            }
            DeclKind::Tenant { name, net } => {
                if tenants.insert(name, *net).is_some() {
                    diags.push(dup(decl, "tenant", name));
                }
            }
            DeclKind::Rule(r) => {
                if rules.insert(&r.name, decl.line).is_some() {
                    diags.push(dup(decl, "rule", &r.name));
                }
            }
            DeclKind::Default { verdict } => {
                if let Some(first) = default_line {
                    diags.push(Diag::error(
                        decl.line,
                        1,
                        format!("duplicate `default` (first on line {first})"),
                    ));
                } else {
                    default_line = Some(decl.line);
                }
                if matches!(verdict, Verdict::Limit { .. }) {
                    diags.push(Diag::error(
                        decl.line,
                        1,
                        "the default decision cannot be a rate limit".to_owned(),
                    ));
                }
            }
            DeclKind::OnApp { app, .. } => {
                if apps.insert(app, decl.line).is_some() {
                    diags.push(Diag::error(
                        decl.line,
                        1,
                        format!("duplicate `on app {app}`"),
                    ));
                }
            }
        }
    }

    // Pass 2: references and scope containment.
    for decl in &program.decls {
        let line = decl.line;
        match &decl.kind {
            DeclKind::Rule(r) => {
                if let Some(Endpoint::Name(g)) = &r.from {
                    if !groups.contains_key(g.as_str()) {
                        diags.push(Diag::error(
                            line,
                            1,
                            format!("rule `{}`: unknown group `{g}` in `from`", r.name),
                        ));
                    }
                }
                match &r.to {
                    Some(Endpoint::Name(g)) => match groups.get(g.as_str()) {
                        None => diags.push(Diag::error(
                            line,
                            1,
                            format!("rule `{}`: unknown group `{g}` in `to`", r.name),
                        )),
                        Some(members) => {
                            if members.iter().any(|m| matches!(m, Member::Mac(_))) {
                                diags.push(Diag::error(
                                    line,
                                    1,
                                    format!(
                                        "rule `{}`: group `{g}` has MAC members and cannot be \
                                         a `to` selector (destinations match on IP only)",
                                        r.name
                                    ),
                                ));
                            }
                        }
                    },
                    Some(Endpoint::Mac(mac)) => diags.push(Diag::error(
                        line,
                        1,
                        format!(
                            "rule `{}`: MAC {mac} cannot be a `to` selector \
                             (destinations match on IP only)",
                            r.name
                        ),
                    )),
                    _ => {}
                }
                if let Verdict::Via(chain) = &r.verdict {
                    if !chains.contains_key(chain.as_str()) {
                        diags.push(Diag::error(
                            line,
                            1,
                            format!("rule `{}`: unknown chain `{chain}`", r.name),
                        ));
                    }
                }
                if let Some(t) = &r.tenant {
                    match tenants.get(t.as_str()) {
                        None => diags.push(Diag::error(
                            line,
                            1,
                            format!("rule `{}`: unknown tenant `{t}`", r.name),
                        )),
                        Some(tnet) => {
                            let mut check_net = |net: &livesec_net::Ipv4Net| {
                                if !tnet.contains_net(net) {
                                    diags.push(Diag::error(
                                        line,
                                        1,
                                        format!(
                                            "rule `{}`: `from` prefix {net} escapes tenant \
                                             `{t}` ({tnet})",
                                            r.name
                                        ),
                                    ));
                                }
                            };
                            match &r.from {
                                Some(Endpoint::Net(net)) => check_net(net),
                                Some(Endpoint::Name(g)) => {
                                    for m in groups.get(g.as_str()).copied().unwrap_or(&[]) {
                                        if let Member::Net(net) = m {
                                            check_net(net);
                                        }
                                    }
                                }
                                _ => {}
                            }
                        }
                    }
                }
                let transport = matches!(r.proto, Some(6) | Some(17));
                if r.port.is_some() && !transport {
                    diags.push(Diag::warning(
                        line,
                        1,
                        format!(
                            "rule `{}`: `port` without `proto tcp` or `proto udp` matches \
                             the port field of any protocol",
                            r.name
                        ),
                    ));
                }
            }
            DeclKind::Default {
                verdict: Verdict::Via(chain),
            } if !chains.contains_key(chain.as_str()) => {
                diags.push(Diag::error(
                    line,
                    1,
                    format!("default: unknown chain `{chain}`"),
                ));
            }
            _ => {}
        }
    }
    diags
}

fn dup(decl: &Decl, kind: &str, name: &str) -> Diag {
    Diag::error(decl.line, 1, format!("duplicate {kind} `{name}`"))
}

/// Shadow/conflict analysis over *lowered* rules, using the
/// difference-of-cubes algebra: a rule whose cube is fully eaten by
/// earlier cubes can never match — an error when an earlier
/// overlapping rule decides differently (a real conflict), a
/// warning when every such rule agrees (mere redundancy).
pub fn shadow_diags(lowered: &[(PolicyRule, u32)]) -> Vec<Diag> {
    let mut diags = Vec::new();
    for (i, (rule, line)) in lowered.iter().enumerate() {
        let cube = rule.matcher;
        let mut region = HeaderClass::of(cube);
        let mut conflicting: Option<&str> = None;
        for (earlier, _) in lowered.iter().take(i) {
            if !earlier.matcher.overlaps(&cube) {
                continue;
            }
            region.subtract(&earlier.matcher);
            if earlier.decision != rule.decision && conflicting.is_none() {
                conflicting = Some(&earlier.name);
            }
        }
        if i > 0 && region.is_empty() {
            match conflicting {
                Some(other) => diags.push(Diag::error(
                    *line,
                    1,
                    format!(
                        "rule `{}` can never match: shadowed by earlier rules including \
                         `{other}`, which decides differently",
                        rule.name
                    ),
                )),
                None => diags.push(Diag::warning(
                    *line,
                    1,
                    format!(
                        "rule `{}` is redundant: earlier rules with the same decision \
                         already cover it",
                        rule.name
                    ),
                )),
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{has_errors, Severity};
    use crate::parser::parse;

    fn check_src(src: &str) -> Vec<Diag> {
        let (prog, diags) = parse(src);
        assert!(diags.is_empty(), "parse should be clean: {diags:?}");
        check(&prog)
    }

    #[test]
    fn clean_program_checks_clean() {
        let diags = check_src(
            "group eng = { 10.1.0.0/24 }\n\
             chain web = [ ids ]\n\
             tenant lab 10.0.0.0/8\n\
             rule r: from eng proto tcp port 80 tenant lab via web\n\
             default allow\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unknown_references_are_errors() {
        let diags = check_src("rule r: from ghosts to nowhere tenant none via missing\n");
        let msgs: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
        assert_eq!(diags.len(), 4, "{msgs:?}");
        assert!(has_errors(&diags));
        assert!(msgs.iter().any(|m| m.contains("unknown group `ghosts`")));
        assert!(msgs.iter().any(|m| m.contains("unknown group `nowhere`")));
        assert!(msgs.iter().any(|m| m.contains("unknown chain `missing`")));
        assert!(msgs.iter().any(|m| m.contains("unknown tenant `none`")));
    }

    #[test]
    fn mac_destinations_are_rejected() {
        let diags = check_src(
            "group eng = { 0a:0b:0c:0d:0e:01 }\n\
             rule direct: to 0a:0b:0c:0d:0e:02 deny\n\
             rule via-group: to eng deny\n",
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn tenant_escape_is_an_error() {
        let diags = check_src(
            "tenant lab 10.2.0.0/16\n\
             rule ok: from 10.2.9.0/24 tenant lab allow\n\
             rule bad: from 192.168.0.0/24 tenant lab allow\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("escapes tenant"));
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn duplicates_and_bad_default() {
        let diags = check_src(
            "rule r: allow\nrule r: deny\ndefault allow\ndefault deny\n\
             default limit 1 mbps\non app bt block\non app bt allow\n",
        );
        let msgs: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
        assert!(msgs.iter().any(|m| m.contains("duplicate rule `r`")));
        assert!(msgs.iter().any(|m| m.contains("duplicate `default`")));
        assert!(msgs.iter().any(|m| m.contains("cannot be a rate limit")));
        assert!(msgs.iter().any(|m| m.contains("duplicate `on app bt`")));
    }

    #[test]
    fn port_without_transport_proto_warns() {
        let diags = check_src("rule r: port 53 deny\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn shadow_analysis_distinguishes_conflict_from_redundancy() {
        use livesec::policy::PolicyRule;
        let lowered = vec![
            (PolicyRule::named("wide").proto(6).deny(), 1),
            (PolicyRule::named("dup").proto(6).dst_port(80).deny(), 2),
            (PolicyRule::named("dead").proto(6).dst_port(80), 3),
            (PolicyRule::named("live").proto(17), 4),
        ];
        let diags = shadow_diags(&lowered);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("`dup` is redundant"));
        assert_eq!(diags[1].severity, Severity::Error);
        assert!(diags[1].message.contains("`dead` can never match"));
    }
}
