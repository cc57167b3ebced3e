//! E3 — regenerates the §V-B.1 aggregate-capacity claim
//! (≥8 Gbps intrusion detection, ≥2 Gbps protocol identification).
//!
//! The full configuration (10 OvS hosting elements) takes a while in
//! debug builds; run with `--release`.

use livesec_bench::goodput::Scrub;
use livesec_bench::{print_header, print_rate_row};
use livesec_services::ServiceType;
use livesec_sim::SimDuration;

fn main() {
    print_header(
        "E3",
        "aggregate capacity (paper: >=8 Gbps IDS, >=2 Gbps proto-id)",
    );
    let window = SimDuration::from_millis(400);
    // 10 switches x 2 IDS elements at 421 Mbps each.
    let ids = Scrub::deployment(ServiceType::IntrusionDetection, 10, 2);
    print_rate_row(
        &format!("intrusion detection ({} elements)", ids.elements()),
        ids.goodput(5, window),
    );
    // 10 switches x 2 proto-id elements at 100 Mbps each.
    let pid = Scrub::deployment(ServiceType::ProtocolIdentification, 10, 2);
    print_rate_row(
        &format!("protocol identification ({} elements)", pid.elements()),
        pid.goodput(5, window),
    );
}
