//! Property tests for the `.lsp` toolchain: the parser is total (no
//! input panics it), and the delta compiler's edit scripts converge on
//! the from-scratch compile.

use livesec_net::{Ipv4Net, MacAddr};
use livesec_policy::ast::Member;
use livesec_policy::parser::parse;
use livesec_policy::{compile, compile_delta, lexer};
use livesec_services::ServiceType;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_net() -> impl Strategy<Value = Ipv4Net> {
    ((0u32..16), 8u8..=32)
        .prop_map(|(v, len)| Ipv4Net::new(Ipv4Addr::from(0x0a00_0000 | (v << 8)), len))
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    (1u64..64).prop_map(MacAddr::from_u64)
}

fn arb_member() -> impl Strategy<Value = Member> {
    prop_oneof![
        arb_mac().prop_map(Member::Mac),
        arb_net().prop_map(Member::Net)
    ]
}

fn arb_service() -> impl Strategy<Value = ServiceType> {
    prop_oneof![
        Just(ServiceType::IntrusionDetection),
        Just(ServiceType::ProtocolIdentification),
        Just(ServiceType::Firewall),
        Just(ServiceType::VirusScan),
        Just(ServiceType::ContentInspection),
    ]
}

/// A compilable program: unique rule names, each rule pinned to its
/// own destination port so no rule shadows another, references only
/// to declared groups/chains, no tenants (their containment check
/// would reject random prefixes).
fn arb_compilable_src() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec((arb_member(), arb_member()), 1..3),
        proptest::collection::vec(proptest::collection::vec(arb_service(), 0..3), 1..3),
        proptest::collection::vec(
            (proptest::option::of(0usize..3), 0usize..3, 0usize..4),
            0..6,
        ),
        any::<bool>(),
        proptest::collection::vec((0u32..3, any::<bool>()), 0..3),
    )
        .prop_map(|(groups, chains, rules, default_deny, apps)| {
            let mut src = String::new();
            for (i, (a, b)) in groups.iter().enumerate() {
                let fmt = |m: &Member| match m {
                    Member::Mac(mac) => mac.to_string(),
                    Member::Net(net) => net.to_string(),
                };
                src.push_str(&format!("group g{i} = {{ {}, {} }}\n", fmt(a), fmt(b)));
            }
            for (i, svcs) in chains.iter().enumerate() {
                let body: Vec<&str> = svcs
                    .iter()
                    .map(|s| livesec_policy::ast::service_keyword(*s))
                    .collect();
                src.push_str(&format!("chain c{i} = [ {} ]\n", body.join(", ")));
            }
            let n_groups = groups.len();
            let n_chains = chains.len();
            for (i, (from, chain, verdict)) in rules.iter().enumerate() {
                src.push_str(&format!("rule r{i}:"));
                if let Some(gi) = from {
                    // Only reference declared groups.
                    if *gi < n_groups {
                        src.push_str(&format!(" from g{gi}"));
                    }
                }
                // A unique port per rule keeps cubes disjoint, so the
                // shadow checker never aborts the compile.
                src.push_str(&format!(" proto tcp port {}", 1000 + i));
                match verdict {
                    2 => src.push_str(&format!(" via c{}\n", chain % n_chains)),
                    3 => src.push_str(&format!(" limit {} kbps\n", 8 * (i + 1))),
                    1 => src.push_str(" deny\n"),
                    _ => src.push_str(" allow\n"),
                }
            }
            if default_deny {
                src.push_str("default deny\n");
            }
            let apps: std::collections::BTreeMap<u32, bool> = apps.into_iter().collect();
            for (app, block) in apps {
                let action = if block { "block" } else { "allow" };
                src.push_str(&format!("on app a{app} {action}\n"));
            }
            src
        })
}

proptest! {
    /// The lexer and parser are total: arbitrary byte soup (lossily
    /// decoded) produces diagnostics, never a panic.
    #[test]
    fn parser_never_panics_on_byte_soup(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let src = String::from_utf8_lossy(&bytes);
        let toks = lexer::lex(&src);
        prop_assert!(!toks.is_empty()); // always at least Eof
        let (_prog, _diags) = parse(&src);
    }

    /// Near-miss soup: printable tokens with policy-ish words mixed
    /// in hits the parser's recovery paths rather than the lexer's.
    #[test]
    fn parser_never_panics_on_word_soup(
        words in proptest::collection::vec(0usize..29, 0..40),
    ) {
        const VOCAB: [&str; 29] = [
            "rule", "group", "chain", "tenant", "default", "on", "app", "from", "to",
            "proto", "port", "allow", "deny", "via", "limit", "mbps", "{", "}", "[",
            "]", "=", ",", ":", "10.0.0.1/24", "aa:bb:cc:dd:ee:ff", "65536", "999999999",
            "#", "x-y_z.9/",
        ];
        let src = words
            .iter()
            .map(|&w| VOCAB[w % VOCAB.len()])
            .collect::<Vec<_>>()
            .join(" ");
        let (_prog, _diags) = parse(&src);
    }

    /// Delta convergence: compiling `new` from scratch and applying
    /// `diff(old, new)` to `old`'s table produce identical tables.
    #[test]
    fn delta_script_converges_on_scratch_compile(
        old_src in arb_compilable_src(),
        new_src in arb_compilable_src(),
    ) {
        let old = compile(&old_src).expect("old compiles");
        let new = compile(&new_src).expect("new compiles");
        let (deltas, _) = compile_delta(&old_src, &new_src).expect("delta compiles");
        let mut migrated = old.table.clone();
        for d in &deltas {
            migrated.apply_delta(d);
        }
        prop_assert_eq!(migrated, new.table);
        // And the same-source script is empty.
        let (none, _) = compile_delta(&new_src, &new_src).expect("compiles");
        prop_assert!(none.is_empty(), "{none:?}");
    }
}
