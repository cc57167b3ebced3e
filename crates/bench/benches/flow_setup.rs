//! Micro-benchmark of the flow-setup fast path: a set-up from nothing
//! (`engine::decide`: policy lookup, balancer picks, forward + reverse
//! program compilation) against a set-up from a decision-cache hit
//! (`DecisionCache::lookup` + `engine::revalidate`: the picks again,
//! the memoized programs reused).
//!
//! Both rows time the functions `Controller::handle_flow` calls, over a
//! standalone `NetworkState` — the warm path still runs the stateful
//! balancer, because the controller does too (cache transparency) — so
//! the ratio reported here is the real per-setup saving. The
//! acceptance bar is warm ≥ 2× cold; see EXPERIMENTS.md for recorded
//! numbers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use livesec::balance::{Grain, HashDispatch, LoadBalancer};
use livesec::cache::DecisionCache;
use livesec::engine::{decide, revalidate};
use livesec::policy::{PolicyRule, PolicyTable};
use livesec::store::{NetworkState, StateStore};
use livesec_net::{FlowKey, MacAddr};
use livesec_services::{SeMessage, ServiceType};
use livesec_sim::SimTime;

const N_FLOWS: u64 = 64;
const N_SES: u64 = 4;

/// Three switches, the campus web chain, four replicas of each chained
/// service, and 64 web flows between located hosts.
fn fixture() -> (NetworkState, Vec<FlowKey>) {
    let mut store = NetworkState::new();
    for dpid in 1..=3 {
        store.set_uplink(dpid, 1);
    }
    // The campus web chain: intrusion detection, then protocol
    // identification (two replicated services, as in the paper's §V).
    let chain = [
        ServiceType::IntrusionDetection,
        ServiceType::ProtocolIdentification,
    ];
    let mut policy = PolicyTable::allow_all();
    policy.push(
        PolicyRule::named("web-ids-protoid")
            .proto(6)
            .dst_port(80)
            .chain(chain.to_vec()),
    );
    store.policy = policy;
    // Sticky per-user hashing: warm-path revalidation repeats the same
    // pick, as in a steady production workload.
    store.balancer = LoadBalancer::new(HashDispatch::new(), Grain::User);

    for i in 0..N_SES {
        for (j, service) in chain.into_iter().enumerate() {
            let mac = MacAddr::from_u64(0xe000 + 0x100 * j as u64 + i);
            let msg = SeMessage::Online {
                service,
                cert: 0,
                cpu: 10,
                mem: 0,
                pps: 0,
                bps: 0,
                total_pkts: 0,
            };
            store.registry.heartbeat(mac, &msg, SimTime::ZERO);
            store.locate(mac, 1 + (i + j as u64) % 3, 30 + 10 * j as u32 + i as u32);
        }
    }

    let mut keys = Vec::new();
    for f in 0..N_FLOWS {
        let src = MacAddr::from_u64(0xa000 + f);
        let dst = MacAddr::from_u64(0xb000 + f % 8);
        store.locate(src, 1 + f % 3, 2 + (f % 8) as u32);
        store.locate(dst, 1 + (f / 3) % 3, 12 + (f % 8) as u32);
        keys.push(FlowKey {
            vlan: None,
            dl_src: src,
            dl_dst: dst,
            dl_type: 0x0800,
            nw_src: format!("10.0.0.{}", 1 + f % 250).parse().unwrap(),
            nw_dst: "10.0.255.254".parse().unwrap(),
            nw_proto: 6,
            tp_src: 40_000 + f as u16,
            tp_dst: 80,
        });
    }
    (store, keys)
}

/// Where `key`'s packet-in arrives: its source host's attachment point.
fn ingress(store: &NetworkState, key: &FlowKey) -> (u64, u32) {
    let hop = store.hop_of(key.dl_src).expect("source located");
    (hop.dpid, hop.port)
}

fn bench_flow_setup(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_setup");
    // Sub-microsecond routines: plenty of samples are cheap and keep
    // the cold/warm ratio stable across runs.
    g.sample_size(300);

    let (mut store, keys) = fixture();
    let mut i = 0usize;
    g.bench_function("cold_compile", |b| {
        b.iter(|| {
            let key = keys[i % keys.len()];
            i += 1;
            black_box(decide(&mut store, &key))
        })
    });

    // Fill the cache the way the controller does: one cold decision per
    // key, held in replayable form.
    let (mut store, keys) = fixture();
    let mut cache = DecisionCache::new();
    for key in &keys {
        let memo = decide(&mut store, key).memo().expect("steered");
        cache.insert(*key, ingress(&store, key), memo);
    }
    let mut i = 0usize;
    g.bench_function("warm_cache_hit", |b| {
        b.iter(|| {
            let key = keys[i % keys.len()];
            i += 1;
            let hit = cache
                .lookup(&key, ingress(&store, &key))
                .expect("the cache holds every fixture flow");
            let (decision, stands) = revalidate(&mut store, &key, hit);
            assert!(stands, "sticky picks must revalidate");
            black_box(decision)
        })
    });
    assert!(
        cache.stats().hits > 0,
        "warm benchmark must exercise the hit path"
    );

    g.finish();
}

criterion_group!(benches, bench_flow_setup);
criterion_main!(benches);
