//! Integration: user/VM mobility (paper §III-B "support the migration
//! of VMs without changing their IP address" and §III-D.1 dynamic
//! migration of service elements).

#[path = "support/switch_book.rs"]
mod switch_book;

use livesec_suite::prelude::*;

#[test]
fn user_migrates_between_switches_without_changing_addresses() {
    let mut b = CampusBuilder::new(21, 3)
        .configure_controller(|c| c.set_flow_idle_timeout(SimDuration::from_millis(300)));
    let gw = b.add_gateway_with_app(0, HttpServer::new());
    let user = b.add_user(
        1,
        HttpClient::new(gw.ip, 20_000)
            .with_think_time(SimDuration::from_millis(50))
            .with_rotating_ports(),
    );
    let mut campus = b.finish();

    campus.world.run_for(SimDuration::from_secs(3));
    let before = campus
        .world
        .node::<Host<HttpClient>>(user.node)
        .app()
        .completed;
    assert!(before > 10, "browsing before migration: {before}");
    {
        let c = campus.controller();
        let loc = c.locations().lookup(user.mac).expect("located");
        assert_eq!(loc.dpid, 2, "initially on switch index 1 (dpid 2)");
    }

    // Live-migrate the user to switch index 2.
    let user = campus.migrate_user(user, 2);
    campus.world.run_for(SimDuration::from_secs(3));

    let after = campus
        .world
        .node::<Host<HttpClient>>(user.node)
        .app()
        .completed;
    assert!(
        after > before + 10,
        "browsing continues after migration: {before} -> {after}"
    );

    let c = campus.controller();
    let loc = c.locations().lookup(user.mac).expect("still located");
    assert_eq!(loc.dpid, 3, "now on switch index 2 (dpid 3)");
    assert_eq!(loc.ip, user.ip, "IP unchanged across migration");

    // The controller observed the move (as leave+join via port-down
    // eviction, or as an explicit move).
    let summary = c.monitor().summary();
    let moved = summary.get("user_moved").copied().unwrap_or(0)
        + summary.get("user_leave").copied().unwrap_or(0);
    assert!(moved >= 1, "mobility visible in events: {summary:?}");
    switch_book::assert_switch_book(c);
}

#[test]
fn service_element_migrates_and_keeps_serving() {
    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("ids-web")
            .dst_port(80)
            .chain(vec![ServiceType::IntrusionDetection]),
    );
    let mut b = CampusBuilder::new(23, 3)
        .with_policy(policy)
        .configure_controller(|c| c.set_flow_idle_timeout(SimDuration::from_millis(300)));
    let gw = b.add_gateway_with_app(0, HttpServer::new());
    let se = b.add_service_element(1, ServiceElement::new(IdsEngine::engine()));
    let user = b.add_user(
        2,
        HttpClient::new(gw.ip, 20_000)
            .with_think_time(SimDuration::from_millis(50))
            .with_rotating_ports(),
    );
    let mut campus = b.finish();

    campus.world.run_for(SimDuration::from_secs(3));
    type IdsSe = ServiceElement<SignatureEngine>;
    let scrubbed_before = campus
        .world
        .node::<Host<IdsSe>>(se.node)
        .app()
        .counters()
        .processed_packets;
    assert!(
        scrubbed_before > 50,
        "SE active before move: {scrubbed_before}"
    );

    // Migrate the SE VM to switch 2 (same MAC/IP, new attachment).
    let se_as_user = UserHandle {
        node: se.node,
        mac: se.mac,
        ip: se.ip,
        switch: se.switch,
        port: se.port,
    };
    campus.migrate_user(se_as_user, 2);
    campus.world.run_for(SimDuration::from_secs(4));

    let scrubbed_after = campus
        .world
        .node::<Host<IdsSe>>(se.node)
        .app()
        .counters()
        .processed_packets;
    assert!(
        scrubbed_after > scrubbed_before + 50,
        "SE keeps scrubbing after migration: {scrubbed_before} -> {scrubbed_after}"
    );
    let done = campus
        .world
        .node::<Host<HttpClient>>(user.node)
        .app()
        .completed;
    assert!(done > 20, "user kept browsing throughout: {done}");
    switch_book::assert_switch_book(campus.controller());
}
