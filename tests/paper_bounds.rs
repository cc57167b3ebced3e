//! The paper's evaluation (§V) held to the paper's own bounds.
//!
//! `BENCH_paper.txt` is the release stdout of livesec-bench's `exp`
//! binary: one `E<id>.<name> <value>` line per number E1–E11 report,
//! durations in ns, rates in bit/s. `scripts/check.sh` fails when a
//! fresh run differs from it by one byte; this file asserts on it each
//! bound the paper states, with the paper's words beside it, and the
//! shape EXPERIMENTS.md claims for the experiments that are ours. A
//! bound the reproduction misses is listed in [`KNOWN_MISSES`] and
//! asserted to still miss.

const RECORD: &str = include_str!("../BENCH_paper.txt");

/// The recorded value of `key`.
fn get(key: &str) -> &'static str {
    RECORD
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{key} is not in BENCH_paper.txt"))
}

/// The recorded value of `key` as a number.
fn num(key: &str) -> f64 {
    let value = get(key);
    value
        .parse()
        .unwrap_or_else(|_| panic!("{key} = {value:?} is not a number"))
}

/// The recorded per-element packet counts of `key`.
fn counts(key: &str) -> Vec<u64> {
    get(key)
        .split(' ')
        .map(|n| n.parse().expect("a packet count"))
        .collect()
}

/// Bounds the paper states that the reproduction misses:
/// `(key, the paper's words, the lower bound it misses)`. Each is
/// asserted to still miss, so a calibration that meets one fails
/// [`known_misses_still_miss`] until the bound moves out of this list
/// into a test that holds it.
const KNOWN_MISSES: &[(&str, &str, f64)] = &[(
    // 20 protocol-identification elements at the modeled 100 Mbps each
    // measure 1.92 Gbps.
    "E3.protoid.goodput_bps",
    "at least 2 Gbps of protocol identification",
    2e9,
)];

#[test]
fn known_misses_still_miss() {
    for &(key, paper, bound) in KNOWN_MISSES {
        let value = num(key);
        assert!(
            value < bound,
            "{key} = {value} now meets the paper's \"{paper}\": move it out of KNOWN_MISSES"
        );
    }
}

#[test]
fn the_record_has_one_well_formed_line_per_key() {
    let mut keys = std::collections::BTreeSet::new();
    for line in RECORD.lines() {
        let (key, value) = line.split_once(' ').expect("`key value`");
        let (id, name) = key.split_once('.').expect("`E<id>.<name>`");
        assert!(
            id.strip_prefix('E')
                .is_some_and(|n| n.parse::<u8>().is_ok_and(|n| (1..=11).contains(&n))),
            "{key}: not an E1–E11 key"
        );
        assert!(!name.is_empty() && !value.is_empty(), "{line:?}");
        assert!(keys.insert(key), "{key} is recorded twice");
    }
}

/// E1, §V-B.1: a wired user behind an OvS gets "up to 100 Mbps", a
/// wireless user behind a Pantou AP 43 Mbps.
#[test]
fn e1_access_throughput_is_the_papers() {
    for access in ["wired", "wifi"] {
        let key = format!("E1.{access}.vs_paper");
        // 100.0 % of the paper's figure, to the printed tenth.
        assert!((num(&key) - 1.0).abs() < 0.0005, "{key} = {}", num(&key));
    }
}

/// E2, §V-B.1: one IDS VM processes 421 Mbps of HTTP, two 827 Mbps, and
/// more are "limited to the Gigabit NIC of the physical host".
#[test]
fn e2_elements_scale_linearly_to_the_nic() {
    let one = num("E2.se1.goodput_bps");
    let two = num("E2.se2.goodput_bps");
    // The VM's calibrated 421 Mbps is a ceiling; HTTP requests and the
    // shared uplink take a few percent of it.
    assert!((0.9 * 421e6..=421e6).contains(&one), "one element: {one}");
    // 421 → 827 Mbps is ×1.96.
    assert!(
        (1.9..=2.1).contains(&(two / one)),
        "two elements: {two} vs {one}"
    );
    for n in [3, 4, 6, 8] {
        let rate = num(&format!("E2.se{n}.goodput_bps"));
        assert!(rate <= 1e9, "{n} elements exceed the NIC: {rate}");
    }
    let eight = num("E2.se8.goodput_bps");
    assert!(eight >= 0.9e9, "8 elements stop short of the NIC: {eight}");
}

/// E3, §V-B.1: the deployment provides "at least 8 Gbps" of intrusion
/// detection (its 2 Gbps of protocol identification is a known miss).
#[test]
fn e3_ids_aggregate_reaches_8_gbps() {
    assert_eq!(get("E3.ids.elements"), "20");
    let ids = num("E3.ids.goodput_bps");
    assert!(ids >= 8e9, "IDS aggregate {ids}");
}

/// E4, §V-B.2: with the minimum-load method "the real-time load
/// deviation among service elements is within 5%".
#[test]
fn e4_min_load_deviation_within_5_percent() {
    let min_load = num("E4.flow.min-load.max_dev");
    assert!(min_load <= 0.05, "min-load deviation {min_load}");
    // EXPERIMENTS.md: at flow grain every algorithm spreads over every
    // element, and min-load beats the other three.
    for algo in ["polling", "hash", "queuing", "min-load"] {
        let packets = counts(&format!("E4.flow.{algo}.packets"));
        assert_eq!(packets.len(), 8, "{algo}: {packets:?}");
        assert!(packets.iter().all(|&p| p > 0), "{algo}: {packets:?}");
        if algo != "min-load" {
            let dev = num(&format!("E4.flow.{algo}.max_dev"));
            assert!(min_load < dev, "{algo} {dev} beats min-load {min_load}");
        }
    }
}

/// E5, §V-B.3: "LiveSec only increases the average latency by around
/// 10%".
#[test]
fn e5_latency_overhead_is_around_10_percent() {
    // "Around 10 %", read as 5–15 %.
    let overhead = num("E5.overhead");
    assert!((0.05..=0.15).contains(&overhead), "overhead {overhead}");
    // The 250 µs WAN hop each way dominates the baseline.
    let baseline = num("E5.baseline_rtt_ns");
    assert!(baseline > 400_000.0, "baseline RTT {baseline} ns");
    // The controller's packet-out releases even the set-up ping.
    assert_eq!(num("E5.loss"), 0.0);
    // EXPERIMENTS.md: the AS layer alone costs part of it, the
    // element's detour the rest.
    let unsteered = num("E5.unsteered_overhead");
    assert!(
        0.0 < unsteered && unsteered < overhead,
        "unsteered {unsteered} vs steered {overhead}"
    );
}

/// E6/E7, Figures 7 and 8: a normal campus with browsing and SSH
/// users and no alerts, then a user leaves, a browser turns to
/// BitTorrent, and a malicious access is detected and blocked.
#[test]
fn e6_e7_frames_show_the_narrated_events() {
    assert!(num("E6.users") >= 6.0, "E6.users = {}", get("E6.users"));
    assert!(num("E6.app.http") >= 4.0 && num("E6.app.ssh") >= 1.0);
    assert_eq!(get("E6.alerts"), "0");
    assert_eq!(get("E6.elements"), "4");
    for event in [
        "user_left",
        "ssh_seen",
        "bittorrent_seen",
        "attack_detected",
        "attack_blocked",
    ] {
        assert_eq!(get(&format!("E7.{event}")), "true", "E7.{event}");
    }
    assert!(num("E7.users") < num("E6.users"), "the leaver is gone");
    assert!(num("E7.app.bittorrent") >= 1.0);
    assert!(num("E7.alerts") >= 2.0, "attack and block alerts");
}

/// E8, Figure 3: a flow is steered through an IDS element, the element
/// reports the attack, and the controller drops the flow at its
/// ingress.
#[test]
fn e8_attack_is_blocked_at_the_ingress() {
    let started = num("E8.flow_started_ns");
    let detected = num("E8.attack_detected_ns");
    let blocked = num("E8.flow_blocked_ns");
    assert!(started < detected && detected <= blocked);
    let reaction = num("E8.reaction_ns");
    assert!(reaction < 5e6, "reaction {reaction} ns");
    let (sent, received) = (num("E8.attacker_sent"), num("E8.victim_received"));
    assert!(received < sent / 2.0, "victim saw {received} of {sent}");
}

/// E9, Figure 4: two hosts' flows split over two elements by their
/// load reports.
#[test]
fn e9_two_hosts_split_over_two_elements() {
    let packets = counts("E9.packets");
    assert!(packets.len() == 2 && packets.iter().all(|&p| p > 0));
    assert!(num("E9.max_dev") <= 0.05, "deviation {}", get("E9.max_dev"));
}

/// E10 (ours): each chained element adds a detour; staler load reports
/// balance worse; a farther controller slows only the first packet.
#[test]
fn e10_ablations_have_their_shape() {
    let chain: Vec<f64> = (0..4)
        .map(|n| num(&format!("E10.chain{n}.rtt_ns")))
        .collect();
    assert!(
        chain.windows(2).all(|w| w[0] < w[1]),
        "chain RTTs {chain:?}"
    );
    let fresh = num("E10.report_25ms.max_dev");
    let stale = num("E10.report_1600ms.max_dev");
    assert!(fresh < stale, "25 ms {fresh} vs 1.6 s {stale}");
    let control = [50, 100, 500, 2000].map(|us| {
        let id = format!("E10.control_{us}us");
        (
            num(&format!("{id}.first_rtt_ns")),
            num(&format!("{id}.steady_rtt_ns")),
        )
    });
    assert!(
        control.windows(2).all(|w| w[0].0 < w[1].0),
        "first-ping RTTs {control:?}"
    );
    // Forwarding never touches the controller after set-up.
    let (near, far) = (control[0].1, control[3].1);
    assert!((far - near).abs() <= 0.01 * near, "steady RTTs {control:?}");
}

/// E11 (ours): one gateway box (Figure 1) stays at its own capacity
/// while distributed elements (Figure 2) keep pace with demand.
#[test]
fn e11_one_box_flattens_while_livesec_scales() {
    for pairs in [1, 2, 4, 8] {
        let id = format!("E11.pairs{pairs}");
        let traditional = num(&format!("{id}.traditional_bps"));
        assert!(traditional <= 421e6, "{id}: one box at {traditional}");
        let ratio = num(&format!("{id}.ratio"));
        assert!(ratio >= 0.9 * pairs as f64, "{id}: ratio {ratio}");
    }
}
