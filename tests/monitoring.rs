//! Integration: the monitoring plane — port-stats polling (link load),
//! SE load reporting, and UI frame assembly under real traffic.

use livesec_suite::prelude::*;

#[test]
fn link_load_polling_tracks_real_traffic() {
    let mut b = CampusBuilder::new(13, 2).configure_controller(|c| c.set_stats_polling(5)); // every 500 ms
    let gw = b.add_gateway(0);
    let user = b.add_user(1, UdpBlaster::new(gw.ip, 50_000_000));
    let mut campus = b.finish();
    campus.world.run_for(SimDuration::from_secs(3));

    let c = campus.controller();
    let loads: Vec<(u64, u32, u64)> = c
        .monitor()
        .of_tag("link_load")
        .filter_map(|e| match &e.kind {
            EventKind::LinkLoad {
                dpid,
                port,
                tx_bytes,
                ..
            } => Some((*dpid, *port, *tx_bytes)),
            _ => None,
        })
        .collect();
    assert!(!loads.is_empty(), "polling produced link-load samples");

    // The user's ingress switch uplink (dpid 2, port 1) carried the
    // flood; at 50 Mbps a 500 ms sample holds ~3 MB.
    let uplink_max = loads
        .iter()
        .filter(|(dpid, port, _)| *dpid == 2 && *port == 1)
        .map(|(_, _, tx)| *tx)
        .max()
        .unwrap_or(0);
    assert!(
        uplink_max > 1_000_000,
        "uplink visibly loaded: max sample {uplink_max} bytes"
    );

    // An idle access port shows (next to) nothing.
    let idle_max = loads
        .iter()
        .filter(|(dpid, port, _)| *dpid == 1 && *port == 30)
        .map(|(_, _, tx)| *tx)
        .max()
        .unwrap_or(0);
    assert!(idle_max < 10_000, "idle port quiet: {idle_max}");

    // The frame view exposes the same numbers.
    let frame = c.monitor().frame(SimTime::from_nanos(3_000_000_000));
    assert!(
        frame.link_load.contains_key(&(2, 1)),
        "frame carries link load: {:?}",
        frame.link_load.keys().collect::<Vec<_>>()
    );
    let _ = user;
}

#[test]
fn service_aware_statistics_attribute_traffic_per_app_and_user() {
    // §IV-C: with protocol identification in the path, the controller
    // knows what service each user consumes and can aggregate traffic
    // per application.
    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("protoid")
            .proto(6)
            .chain(vec![ServiceType::ProtocolIdentification]),
    );
    let mut b = CampusBuilder::new(13, 2)
        .with_policy(policy)
        .configure_controller(|c| c.set_flow_idle_timeout(SimDuration::from_millis(300)));
    let gw = b.add_gateway_with_app(0, HttpServer::new());
    b.add_service_element(0, ServiceElement::new(ProtoIdEngine::new()));
    let web_user = b.add_user(
        1,
        HttpClient::new(gw.ip, 60_000)
            .with_think_time(SimDuration::from_millis(80))
            .with_rotating_ports(),
    );
    let ssh_server = b.add_user(0, TcpEchoServer::new());
    let ssh_user = b.add_user(
        1,
        SshSession::new(ssh_server.ip).with_keystroke_interval(SimDuration::from_millis(600)),
    );
    let mut campus = b.finish();
    campus.world.run_for(SimDuration::from_secs(6));

    let c = campus.controller();
    let apps = c.app_traffic();
    let http = apps.iter().find(|(a, _)| a == "http");
    let ssh = apps.iter().find(|(a, _)| a == "ssh");
    assert!(http.is_some(), "http attributed: {apps:?}");
    assert!(ssh.is_some(), "ssh attributed: {apps:?}");
    let (_, http_t) = http.unwrap();
    let (_, ssh_t) = ssh.unwrap();
    assert!(
        http_t.bytes > ssh_t.bytes * 3,
        "web dominates the mix: {http_t:?} vs {ssh_t:?}"
    );

    // Per-user attribution: the web user moved more bytes.
    let users = c.user_traffic();
    let web = users
        .iter()
        .find(|(m, _)| *m == web_user.mac)
        .map(|(_, t)| *t);
    let ssh_u = users
        .iter()
        .find(|(m, _)| *m == ssh_user.mac)
        .map(|(_, t)| *t);
    assert!(
        web.is_some() && ssh_u.is_some(),
        "both users tallied: {users:?}"
    );
    assert!(web.unwrap().bytes > ssh_u.unwrap().bytes);

    // The NIB snapshot exports all of it as JSON.
    let now = campus.world.kernel().now();
    let json = campus.controller().nib_json(now);
    assert!(json.contains("\"app_traffic\""));
    assert!(json.contains("http"));
    let snap = campus.controller().nib_snapshot(now);
    assert_eq!(snap.switches.len(), 2);
    assert!(snap.hosts.len() >= 4);
    assert_eq!(snap.elements.len(), 1);
}

#[test]
fn se_load_reports_reflect_utilization() {
    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("ids")
            .proto(17)
            .chain(vec![ServiceType::IntrusionDetection]),
    );
    let mut b = CampusBuilder::new(13, 2).with_policy(policy);
    let gw = b.add_gateway(0);
    // A small element so a 40 Mbps flood loads it visibly.
    let se = b.add_service_element(
        0,
        ServiceElement::new(IdsEngine::engine()).with_capacity_bps(100_000_000),
    );
    b.add_user(1, UdpBlaster::new(gw.ip, 40_000_000));
    let mut campus = b.finish();
    campus.world.run_for(SimDuration::from_secs(3));

    let c = campus.controller();
    let max_cpu = c
        .monitor()
        .of_tag("se_load")
        .filter_map(|e| match &e.kind {
            EventKind::SeLoad { mac, cpu, .. } if *mac == se.mac => Some(*cpu),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    // 40 Mbps into a 100 Mbps engine ≈ 40%+ CPU (plus per-packet cost).
    assert!(
        (30..=100).contains(&max_cpu),
        "element visibly loaded: {max_cpu}%"
    );
    // The registry mirrors the latest heartbeat.
    let view = c.locations().get(se.mac).expect("registered");
    assert!(view.online);
    assert!(
        view.total_pkts > 1000,
        "cumulative work: {}",
        view.total_pkts
    );
}
