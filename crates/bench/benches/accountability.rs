//! `accountability`: the forwarding-accountability hot paths — the
//! per-hop attestation tag a switch computes when sampling is on, and
//! the detector's replay of one packet's honest attestations against a
//! 10 000-flow proof table. The counts the replay must produce are
//! asserted by `tests/accountability.rs` over the same fixtures.

#[path = "../tests/support/accountability.rs"]
mod fixtures;

use criterion::{criterion_group, criterion_main, Criterion};
use fixtures::{key_of, loaded_detector, replay_packet};
use livesec_openflow::{attestation_tag, packet_tag};

/// Flows with registered 3-hop path proofs.
const FLOWS: u64 = 10_000;

fn bench_accountability(c: &mut Criterion) {
    let mut g = c.benchmark_group("accountability");
    let key = key_of(7);
    let mut i = 0u64;
    g.bench_function("tag", |b| {
        b.iter(|| {
            i += 1;
            attestation_tag(1, 5, 1, packet_tag(&key, 64 + (i & 0x3ff)))
        })
    });
    let mut d = loaded_detector(FLOWS);
    let mut p = 0u64;
    g.bench_function("replay_honest_packet", |b| {
        b.iter(|| {
            p += 1;
            replay_packet(&mut d, p, FLOWS)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_accountability);
criterion_main!(benches);
