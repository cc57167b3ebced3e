//! E11 — traditional gateway middlebox vs LiveSec's distributed
//! elements under growing demand (the paper's Figure 1 vs Figure 2
//! motivation, quantified).

use livesec_bench::goodput::Scrub;
use livesec_bench::print_header;
use livesec_sim::{format_bps, SimDuration};

fn main() {
    print_header(
        "E11",
        "scrubbed throughput vs demand: traditional (1 box) vs LiveSec (distributed)",
    );
    println!(
        "{:>8} {:>18} {:>18} {:>8}",
        "pairs", "traditional", "livesec", "ratio"
    );
    let window = SimDuration::from_millis(500);
    for pairs in [1usize, 2, 4, 8] {
        let trad = Scrub::baseline(false, pairs).goodput(5, window);
        let live = Scrub::baseline(true, pairs).goodput(5, window);
        println!(
            "{:>8} {:>18} {:>18} {:>7.1}x",
            pairs,
            format_bps(trad),
            format_bps(live),
            live / trad
        );
    }
}
