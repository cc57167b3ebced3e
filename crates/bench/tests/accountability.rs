//! The deterministic floor under the `accountability` bench's fixtures:
//! honest replay leaves nothing behind, and every forgery is caught.
//! The bench times the same replay; only these counts are asserted.

#[path = "support/accountability.rs"]
mod fixtures;

use fixtures::{att, key_of, loaded_detector, program_of, replay_packet, HOPS, REPLAY_AT};
use livesec::accountability::{PathProof, ProofSource};
use livesec_openflow::packet_tag;
use livesec_sim::{SimDuration, SimTime};
use std::rc::Rc;

const FLOWS: u64 = 1_000;
const PACKETS: u64 = 20_000;

#[test]
fn the_fixture_programs_prove_the_fixture_hops() {
    let key = key_of(7);
    let proof = PathProof::of_program(
        Rc::new(program_of(&key)),
        HOPS[0].3,
        ProofSource::Steering,
        SimTime::ZERO,
    );
    let hops: Vec<_> = proof
        .hops()
        .map(|h| (h.dpid, h.in_port, h.out_port, h.cookie))
        .collect();
    assert_eq!(hops, HOPS);
}

#[test]
fn honest_replay_verifies_every_chain_and_every_forgery_is_caught() {
    let mut d = loaded_detector(FLOWS);
    let verdicts: usize = (0..PACKETS).map(|p| replay_packet(&mut d, p, FLOWS)).sum();
    assert_eq!(verdicts, 0, "honest replay produced verdicts");
    let stats = d.stats();
    assert_eq!(
        stats.chains_verified, PACKETS,
        "not every honest chain completed: {stats:?}"
    );
    assert_eq!(d.pending_chains(), 0, "chains left behind");
    assert!(d.sweep(REPLAY_AT + SimDuration::from_secs(10)).is_empty());

    // Every flow detours once at the relay hop: wrong out port, honest
    // firmware tag over what the switch actually did.
    let caught = (0..FLOWS)
        .filter(|&i| {
            let key = key_of(i);
            let forged = att(&key, packet_tag(&key, 9_999), (2, 1, 33, 0));
            d.observe(REPLAY_AT, &forged).is_some()
        })
        .count();
    assert_eq!(caught as u64, FLOWS, "a forged attestation went unflagged");
}
