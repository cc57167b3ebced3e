//! Integration: the paper's full-scale deployment shape — 10 OvS
//! switches, Wi-Fi APs, mixed service elements, dozens of users —
//! running end to end with every subsystem engaged.

use livesec_suite::prelude::*;

#[test]
fn fit_building_scale_deployment_runs_end_to_end() {
    // Policy mirroring the deployed services: IDS for web, proto-id
    // for all TCP.
    let mut policy = PolicyTable::allow_all();
    policy.push(PolicyRule::named("web").dst_port(80).chain(vec![
        ServiceType::IntrusionDetection,
        ServiceType::ProtocolIdentification,
    ]));
    policy.push(
        PolicyRule::named("tcp")
            .proto(6)
            .chain(vec![ServiceType::ProtocolIdentification]),
    );

    // 10 OvS over a two-tier legacy core (core + 3 edges), 2 APs.
    let mut b = CampusBuilder::with_legacy_tiers(2026, 10, 3)
        .with_policy(policy)
        .with_balancer(LoadBalancer::min_load());
    let gw = b.add_gateway_with_app(0, HttpServer::new());
    let ap1 = b.add_wifi_ap();
    let ap2 = b.add_wifi_ap();

    // 2 SEs per wired switch, alternating service types.
    let mut ses = Vec::new();
    for s in 0..10 {
        ses.push(b.add_service_element(s, ServiceElement::new(IdsEngine::engine())));
        ses.push(b.add_service_element(s, ServiceElement::new(ProtoIdEngine::new())));
    }

    // 30 wired users across the OvS, 10 wireless per AP.
    let mut users = Vec::new();
    for u in 0..30u64 {
        users.push(
            b.add_user(
                (u % 10) as usize,
                HttpClient::new(gw.ip, 30_000)
                    .with_think_time(SimDuration::from_millis(50 + u * 3))
                    .with_start_delay(SimDuration::from_millis(900 + u * 11))
                    .with_src_port(42_000 + u as u16),
            ),
        );
    }
    for (ap, base) in [(ap1, 43_000u16), (ap2, 44_000u16)] {
        for u in 0..10u64 {
            users.push(
                b.add_user(
                    ap,
                    HttpClient::new(gw.ip, 10_000)
                        .with_think_time(SimDuration::from_millis(100 + u * 7))
                        .with_start_delay(SimDuration::from_millis(950 + u * 13))
                        .with_src_port(base + u as u16),
                ),
            );
        }
    }
    let mut campus = b.finish();
    campus.world.run_for(SimDuration::from_secs(4));

    let c = campus.controller();
    // Discovery converged over all 12 AS switches (10 OvS + 2 APs).
    assert_eq!(c.topology().switch_count(), 12);
    assert!(c.topology().is_full_mesh(), "full-mesh logical topology");

    // All 20 elements online and balanced over.
    assert_eq!(
        c.locations()
            .online_of(ServiceType::IntrusionDetection)
            .count(),
        10
    );
    assert_eq!(
        c.locations()
            .online_of(ServiceType::ProtocolIdentification)
            .count(),
        10
    );

    // All 50 users did useful work.
    let mut total_completed = 0u32;
    for u in &users {
        let host = campus.world.node::<Host<HttpClient>>(u.node);
        total_completed += host.app().completed;
    }
    assert!(
        total_completed > 200,
        "completed {total_completed} requests"
    );

    // Every IDS element shared the load (min-load spread it).
    type AnySe = ServiceElement<SignatureEngine>;
    let ids_loads: Vec<u64> = ses
        .iter()
        .step_by(2)
        .map(|h| {
            campus
                .world
                .node::<Host<AnySe>>(h.node)
                .app()
                .counters()
                .processed_packets
        })
        .collect();
    assert!(
        ids_loads.iter().all(|&p| p > 0),
        "every IDS element used: {ids_loads:?}"
    );

    // Monitor consistency.
    let summary = c.monitor().summary();
    assert!(summary["flow_start"] >= 50);
    assert!(summary["app_identified"] >= 40, "{summary:?}");
    assert_eq!(summary.get("attack_detected"), None, "no attacks staged");
    assert_eq!(c.rejected_se_msgs, 0);
}

#[test]
fn wireless_users_are_rate_limited_by_pantou() {
    let mut b = CampusBuilder::new(3, 1);
    let gw = b.add_gateway(0);
    let ap = b.add_wifi_ap();
    let wired = b.add_user(0, UdpBlaster::new(gw.ip, 300_000_000));
    let wireless = b.add_user(ap, UdpBlaster::new(gw.ip, 300_000_000));
    let mut campus = b.finish();
    campus.world.run_for(SimDuration::from_secs(2));

    let wired_sent = campus
        .world
        .kernel()
        .port_counters(campus.as_switches[wired.switch], PortId(wired.port))
        .rx_bytes;
    let wireless_sent = campus
        .world
        .kernel()
        .port_counters(campus.as_switches[wireless.switch], PortId(wireless.port))
        .rx_bytes;
    // The wired user admits ~100 Mbps; the wireless one ~43 Mbps.
    let ratio = wired_sent as f64 / wireless_sent as f64;
    assert!(
        (2.0..3.0).contains(&ratio),
        "100/43 ≈ 2.3, got {ratio} ({wired_sent}/{wireless_sent})"
    );
}
