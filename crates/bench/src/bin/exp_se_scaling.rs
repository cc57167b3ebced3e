//! E2 — regenerates the §V-B.1 service-element scaling curve
//! (1 VM = 421 Mbps, 2 VMs = 827 Mbps, capped by the host NIC).

use livesec_bench::goodput::Scrub;
use livesec_bench::print_header;
use livesec_sim::{format_bps, SimDuration};

fn main() {
    print_header(
        "E2",
        "HTTP throughput vs number of IDS service elements on one OvS host",
    );
    println!(
        "{:>6} {:>14} {:>12} {:>14}",
        "n_se", "goodput", "per-SE", "paper ref"
    );
    let window = SimDuration::from_millis(600);
    let paper = |n: usize| match n {
        1 => "421 Mbps".to_owned(),
        2 => "827 Mbps".to_owned(),
        _ => "NIC-capped".to_owned(),
    };
    for n in [1usize, 2, 3, 4, 6, 8] {
        let bps = Scrub::one_host(n).goodput(3, window);
        println!(
            "{:>6} {:>14} {:>12} {:>14}",
            n,
            format_bps(bps),
            format_bps(bps / n as f64),
            paper(n)
        );
    }
}
