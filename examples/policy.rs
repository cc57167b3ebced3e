//! The declarative policy pipeline end to end: compile a `.lsp`
//! program, install it through the builder, then — mid-traffic —
//! apply revision 2 as a compiled *delta* script and prove the edit
//! with the incremental auditor (DESIGN.md §14).
//!
//! Run with: `cargo run --release --example policy`

use livesec_policy::{compile, compile_delta, PolicyText};
use livesec_suite::prelude::*;
use livesec_verify::{audit_delta, RuleDelta, Snapshot};

const REV1: &str = include_str!("campus.lsp");
const REV2: &str = include_str!("campus_edit.lsp");

fn main() {
    // 1. Compile revision 1 and show what the compiler lowered.
    let rev1 = compile(REV1).expect("campus.lsp compiles");
    println!("campus.lsp: {} rules", rev1.table.len());
    for rule in rev1.table.iter() {
        println!("  {}: {} -> {:?}", rule.name, rule.matcher, rule.decision);
    }
    for limit in &rev1.rate_limits {
        println!("  advisory: cap `{}` at {} bps", limit.rule, limit.bps);
    }
    for warning in &rev1.warnings {
        println!("  {warning}");
    }

    // A broken edit never reaches the network — the checker rejects
    // it with stable line/column diagnostics.
    let broken = "rule web: proto tcp port 80 via no-such-chain\n";
    if let Err(diags) = compile(broken) {
        println!("\na broken revision is refused:");
        for d in &diags {
            println!("  {d}");
        }
    }

    // 2. Install it on a live campus: one web server behind the
    // gateway, an IDS element for web-chain, two browsing users.
    let mut b = CampusBuilder::new(42, 2)
        .with_policy_text(REV1)
        .expect("campus.lsp compiles");
    let gateway = b.add_gateway_with_app(0, HttpServer::new());
    b.add_service_element(0, ServiceElement::new(IdsEngine::engine()));
    b.add_user(1, HttpClient::new(gateway.ip, 30_000));
    b.add_user(1, HttpClient::new(gateway.ip, 30_000).with_src_port(40_081));
    let mut campus = b.finish();

    campus.world.run_for(SimDuration::from_secs(2));
    println!(
        "\nafter 2 s of browsing: {} flow setups",
        campus.controller().fast_path_stats().flow_setups
    );

    // 3. The live edit: diff revision 2 against revision 1 and apply
    // the minimal delta script — no wholesale table swap, no flush.
    let (deltas, _rev2) = compile_delta(REV1, REV2).expect("campus_edit.lsp compiles");
    println!("\nrevision 2 compiles to {} delta(s):", deltas.len());
    for d in &deltas {
        println!("  {d:?}");
    }
    let now = campus.world.kernel().now();
    let cubes = campus.controller_mut().apply_policy_delta(now, &deltas);
    println!("applied: {} header class(es) touched", cubes.len());

    // 4. Verify the edit incrementally: re-audit only the classes the
    // controller reported, not the whole dataplane.
    campus.world.run_for(SimDuration::from_secs(1));
    let scoped: Vec<RuleDelta> = cubes.into_iter().map(RuleDelta::network_wide).collect();
    let snapshot = Snapshot::of_campus(&campus);
    let violations = audit_delta(&snapshot, &scoped);
    assert!(
        violations.is_empty(),
        "incremental audit found: {violations:#?}"
    );
    println!("incremental audit of the edit: clean");
    println!(
        "final event summary: {:?}",
        campus.controller().monitor().summary()
    );
}
