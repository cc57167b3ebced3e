//! Kernels: median wall time per call into each layer's public
//! functions, on inputs taken from the workload's own finished run —
//! the busiest switch's `table_snapshot()`, frames sampled off the
//! live traffic, the real `Monitor`, the controller's NIB and policy,
//! the real cache size. These are the per-operation costs the
//! reconstruction multiplies the exact counts by.

use crate::clock::time;
use crate::report::median;
use crate::workloads::Built;
use livesec::cache::{CachedDecision, DecisionCache};
use livesec::engine::{self, EngineDecision};
use livesec::routing::compile_path;
use livesec::store::StateStore;
use livesec_conntrack::ConnTable;
use livesec_net::{wire, FlowKey, Packet};
use livesec_openflow::{
    apply_actions, codec, FlowEntry, FlowModCommand, FlowTable, OfMessage, PacketInReason,
};
use livesec_services::{AhoCorasick, IdsEngine, Inspector, ProtoIdEngine};
use livesec_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;

const ROUNDS: usize = 7;
/// Rounds of a whole-state pass (an audit, a history dump): one call
/// is milliseconds, so a few are enough and many would cost seconds.
const WHOLE: usize = 3;
/// A round this long is not repeated: a 5 s audit of a wide campus
/// three times over would cost more than the traced rep itself.
const SLOW_NS: u64 = 250_000_000;
/// A round must be long enough for the clock to resolve it.
const ROUND_NS: u64 = 200_000;

/// Median ns per call of `f(i)`, `i` counting calls (inputs cycle).
fn per_call<R>(mut f: impl FnMut(usize) -> R) -> f64 {
    let mut i = 0usize;
    let mut round = |iters: u64| {
        time(|| {
            for _ in 0..iters {
                black_box(f(i));
                i += 1;
            }
        })
        .0
    };
    let mut iters = 1u64;
    while round(iters) < ROUND_NS && iters < 1 << 20 {
        iters *= 2;
    }
    median(
        (0..ROUNDS)
            .map(|_| round(iters) as f64 / iters as f64)
            .collect(),
    )
}

/// Median ns per item when each round needs fresh state: `fresh` builds
/// it untimed, `run` consumes `items` operations on it.
fn per_item<S>(
    rounds: usize,
    items: usize,
    mut fresh: impl FnMut() -> S,
    mut run: impl FnMut(S),
) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..rounds {
        let state = fresh();
        let ns = time(|| run(state)).0;
        samples.push(ns as f64 / items as f64);
        if ns > SLOW_NS {
            break; // one such round is already a steady figure
        }
    }
    median(samples)
}

/// The flow key an exact-match entry matches, with its in-port.
fn key_of(e: &FlowEntry) -> Option<(u32, FlowKey)> {
    let m = &e.matcher;
    Some((
        m.in_port?,
        FlowKey {
            vlan: match m.dl_vlan? {
                livesec_openflow::VlanMatch::Untagged => None,
                livesec_openflow::VlanMatch::Tagged(v) => Some(v),
            },
            dl_src: m.dl_src?,
            dl_dst: m.dl_dst?,
            dl_type: m.dl_type?,
            nw_src: m.nw_src?.addr(),
            nw_dst: m.nw_dst?.addr(),
            nw_proto: m.nw_proto?,
            tp_src: m.tp_src?,
            tp_dst: m.tp_dst?,
        },
    ))
}

fn table_of(entries: &[FlowEntry]) -> FlowTable {
    let mut t = FlowTable::new();
    for e in entries {
        t.insert_at(e.clone(), e.created_at);
    }
    t
}

fn flow_mod(e: &FlowEntry) -> OfMessage {
    OfMessage::FlowMod {
        command: FlowModCommand::Add,
        matcher: e.matcher,
        priority: e.priority,
        actions: e.actions.clone(),
        idle_timeout: e.idle_timeout,
        hard_timeout: e.hard_timeout,
        cookie: e.cookie,
        notify_removed: e.notify_removed,
    }
}

/// Runs every kernel. `frames` are `(in_port, frame)` pairs sampled at
/// AS switches during the traced window; `cache_entries` is the size
/// the decision cache had at the end of the window.
pub fn run(
    built: &mut Built,
    frames: &[(u32, Packet)],
    cache_entries: u64,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let now = built.campus.world.kernel().now();
    let now_ns = now.as_nanos();
    assert!(!frames.is_empty(), "a traced window always forwards frames");
    let frame = |i: usize| &frames[i % frames.len()].1;

    // --- net::wire, on the workload's own frame shapes.
    let wires: Vec<Vec<u8>> = frames.iter().map(|(_, p)| wire::serialize(p)).collect();
    out.insert(
        "net.wire.serialize_ns",
        per_call(|i| wire::serialize(frame(i))),
    );
    out.insert(
        "net.wire.parse_ns",
        per_call(|i| wire::parse(&wires[i % wires.len()])),
    );

    // --- openflow, on the busiest switch's table.
    let entries = (0..built.campus.as_switches.len())
        .map(|i| built.campus.switch(i).table_snapshot())
        .max_by_key(Vec::len)
        .unwrap_or_default();
    assert!(
        !entries.is_empty(),
        "the attacker's standing block alone is a flow entry"
    );
    let mods: Vec<OfMessage> = entries.iter().map(flow_mod).collect();
    let mod_bytes: Vec<Vec<u8>> = mods.iter().map(|m| codec::encode(m, 7)).collect();
    let packet_ins: Vec<Vec<u8>> = frames
        .iter()
        .zip(&wires)
        .map(|((port, _), data)| {
            codec::encode(
                &OfMessage::PacketIn {
                    in_port: *port,
                    reason: PacketInReason::NoMatch,
                    data: data.clone(),
                },
                7,
            )
        })
        .collect();
    out.insert(
        "openflow.codec.encode_flowmod_ns",
        per_call(|i| codec::encode(&mods[i % mods.len()], 7)),
    );
    out.insert(
        "openflow.codec.decode_flowmod_ns",
        per_call(|i| codec::decode(&mod_bytes[i % mod_bytes.len()])),
    );
    out.insert(
        "openflow.codec.decode_packetin_ns",
        per_call(|i| codec::decode(&packet_ins[i % packet_ins.len()])),
    );

    let hits: Vec<(u32, FlowKey)> = entries.iter().filter_map(key_of).collect();
    let mut table = table_of(&entries);
    if !hits.is_empty() {
        out.insert(
            "openflow.table.lookup_hit_ns",
            per_call(|i| {
                let (port, key) = &hits[i % hits.len()];
                table.lookup(*port, key, now_ns).is_some()
            }),
        );
        out.insert(
            "openflow.table.lookup_miss_ns",
            per_call(|i| {
                let (port, mut key) = hits[i % hits.len()];
                key.tp_src ^= 0x8000;
                key.nw_src = std::net::Ipv4Addr::new(192, 0, 2, 1);
                table.lookup(port, &key, now_ns).is_some()
            }),
        );
    }
    out.insert("openflow.table.expire_ns", per_call(|_| table.expire(0)));
    // Fresh entries into a table of the real size, as a flow-mod adds.
    const FRESH: usize = 1_024;
    let fresh: Vec<FlowEntry> = (0..FRESH)
        .map(|i| {
            let mut e = entries[i % entries.len()].clone();
            e.matcher.nw_src = Some(livesec_net::Ipv4Net::host(std::net::Ipv4Addr::new(
                198,
                51,
                (i >> 8) as u8,
                i as u8,
            )));
            e
        })
        .collect();
    out.insert(
        "openflow.table.insert_ns",
        per_item(
            ROUNDS,
            FRESH,
            || (table_of(&entries), fresh.clone()),
            |(mut t, fresh)| {
                for e in fresh {
                    t.insert_at(e, now_ns);
                }
                black_box(t.len());
            },
        ),
    );
    let actions: Vec<&[livesec_openflow::Action]> = entries
        .iter()
        .map(|e| e.actions.as_slice())
        .filter(|a| !a.is_empty())
        .collect();
    if !actions.is_empty() {
        out.insert(
            "openflow.action.apply_ns",
            per_call(|i| apply_actions(frame(i), actions[i % actions.len()])),
        );
    }

    // --- core: policy, engine, routing, cache — against the real NIB.
    let keys: Vec<FlowKey> = frames.iter().filter_map(|(_, p)| FlowKey::of(p)).collect();
    let controller = built.campus.controller_mut();
    if !keys.is_empty() {
        out.insert(
            "core.policy.decide_ns",
            per_call(|i| {
                controller
                    .policy()
                    .decide(&keys[i % keys.len()])
                    .1
                    .is_some()
            }),
        );
    }
    // Keys the engine can route: both ends located, decision = steer.
    let routed: Vec<(FlowKey, EngineDecision)> = keys
        .iter()
        .filter_map(|k| match engine::decide(controller, k) {
            d @ EngineDecision::Steer { .. } => Some((*k, d)),
            _ => None,
        })
        .collect();
    if !routed.is_empty() {
        out.insert(
            "core.engine.decide_ns",
            per_call(|i| engine::decide(controller, &routed[i % routed.len()].0)),
        );
        let paths: Vec<_> = routed
            .iter()
            .filter_map(|(key, d)| {
                let EngineDecision::Steer { elements, .. } = d else {
                    return None;
                };
                let mut hops = vec![controller.hop_of(key.dl_src)?];
                for mac in elements {
                    hops.push(controller.hop_of(*mac)?);
                }
                hops.push(controller.hop_of(key.dl_dst)?);
                Some((*key, hops))
            })
            .collect();
        out.insert(
            "core.routing.compile_ns",
            per_call(|i| {
                let (key, hops) = &paths[i % paths.len()];
                compile_path(
                    key,
                    hops,
                    |d| controller.uplink_of(d),
                    livesec::controller::STEER_PRIORITY,
                )
                .is_ok()
            }),
        );

        // A cache of the size the run ended with, filled with the run's
        // own decisions under distinct source ports.
        let cached = |i: usize| {
            let (mut key, d) = routed[i % routed.len()].clone();
            key.tp_src = (i % 60_000) as u16;
            key.nw_src = std::net::Ipv4Addr::from(0x0a00_0000 + (i / 60_000) as u32);
            let EngineDecision::Steer {
                services,
                elements,
                forward,
                reverse,
            } = d
            else {
                unreachable!("`routed` holds steer decisions only");
            };
            let ingress = controller
                .hop_of(key.dl_src)
                .map_or((0, 0), |h| (h.dpid, h.port));
            let decision = CachedDecision::Steer {
                services,
                elements,
                forward,
                reverse,
            };
            (key, ingress, decision)
        };
        let size = (cache_entries as usize).max(routed.len());
        let filled = || {
            let mut c = DecisionCache::new();
            for i in 0..size {
                let (key, ingress, decision) = cached(i);
                c.insert(key, ingress, decision);
            }
            c
        };
        let mut cache = filled();
        out.insert(
            "core.cache.lookup_hit_ns",
            per_call(|i| {
                let (key, ingress, _) = cached(i % size);
                cache.lookup(&key, ingress).is_some()
            }),
        );
        // `cached()` itself (a clone of the decision) is in both; it is
        // what the controller does around the call, too.
        out.insert(
            "core.cache.insert_ns",
            per_item(
                ROUNDS,
                FRESH,
                || {
                    let fresh: Vec<_> = (size..size + FRESH).map(cached).collect();
                    (filled(), fresh)
                },
                |(mut c, fresh)| {
                    for (key, ingress, decision) in fresh {
                        c.insert(key, ingress, decision);
                    }
                    black_box(c.len());
                },
            ),
        );
    }

    // --- core::monitor, on the run's real history.
    let monitor = built.campus.controller().monitor();
    let tail: Vec<_> = monitor
        .events()
        .iter()
        .rev()
        .take(FRESH)
        .map(|e| e.kind.clone())
        .collect();
    out.insert(
        "core.monitor.record_ns",
        per_item(
            ROUNDS,
            tail.len().max(1),
            || (monitor.clone(), tail.clone()),
            |(mut m, tail)| {
                for kind in tail {
                    m.record(now, kind);
                }
                black_box(m.len());
            },
        ),
    );
    out.insert(
        "core.monitor.to_json_ns",
        per_item(WHOLE, 1, || (), |()| drop(black_box(monitor.to_json()))),
    );
    let mid = SimTime::from_nanos(now_ns / 2);
    out.insert(
        "core.monitor.replay_ns",
        per_item(
            WHOLE,
            1,
            || (),
            |()| {
                black_box(monitor.replay(mid, mid + SimDuration::from_secs(1)).count());
            },
        ),
    );

    // --- conntrack and the inspection engines, on the sampled frames.
    let mut conns = ConnTable::new();
    out.insert(
        "conntrack.observe_ns",
        per_call(|i| conns.observe_packet(frame(i), now).is_some()),
    );
    out.insert("conntrack.expire_ns", per_call(|_| conns.expire(now).len()));
    let patterns: Vec<Vec<u8>> = IdsEngine::default_rules()
        .into_iter()
        .map(|r| r.pattern)
        .collect();
    let ac = AhoCorasick::new(&patterns);
    let contents: Vec<&[u8]> = frames
        .iter()
        .filter_map(|(_, p)| p.ipv4()?.transport.payload())
        .map(|p| p.content())
        .filter(|c| !c.is_empty())
        .collect();
    if !contents.is_empty() {
        let bytes: usize = contents.iter().map(|c| c.len()).sum();
        let sweep = per_call(|_| contents.iter().map(|c| ac.find_all(c).len()).sum::<usize>());
        out.insert(
            "services.aho.scan_ns_per_kib",
            sweep * 1024.0 / bytes as f64,
        );
    }
    let inspected: Vec<(FlowKey, &Packet)> = frames
        .iter()
        .filter_map(|(_, p)| Some((FlowKey::of(p)?, p)))
        .collect();
    if !inspected.is_empty() {
        let mut ids = IdsEngine::engine();
        out.insert(
            "services.ids.inspect_ns",
            per_call(|i| {
                let (key, pkt) = &inspected[i % inspected.len()];
                ids.inspect_packet(key, pkt, now).is_some()
            }),
        );
        let mut protoid = ProtoIdEngine::new();
        out.insert(
            "services.protoid.inspect_ns",
            per_call(|i| {
                let (key, pkt) = &inspected[i % inspected.len()];
                protoid.inspect_packet(key, pkt, now).is_some()
            }),
        );
    }

    // --- whole-state passes: one call is long enough to time.
    out.insert(
        "verify.audit_ns",
        per_item(
            WHOLE,
            1,
            || (),
            |()| {
                black_box(livesec_verify::audit_campus(&built.campus).len());
            },
        ),
    );
    out.insert(
        "policy.compile_ns",
        per_item(
            WHOLE,
            1,
            || (),
            |()| {
                black_box(livesec_policy::compile(&built.policy_src).is_ok());
            },
        ),
    );
    out
}
