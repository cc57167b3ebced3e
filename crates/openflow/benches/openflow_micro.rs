//! Micro-benchmarks: flow-table lookup (the per-packet dataplane hot
//! path), the flow-mod write path (install, replace, strict delete —
//! each must be flat in the table size), and the control-channel codec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use livesec_net::{FlowKey, MacAddr};
use livesec_openflow::{codec, Action, FlowEntry, FlowTable, Match, OfMessage, OutPort};

fn key(i: u32) -> FlowKey {
    FlowKey {
        vlan: None,
        dl_src: MacAddr::from_u64(u64::from(i)),
        dl_dst: MacAddr::from_u64(0xffff),
        dl_type: 0x0800,
        nw_src: std::net::Ipv4Addr::from(0x0a00_0000 | i),
        nw_dst: "10.255.255.254".parse().unwrap(),
        nw_proto: 6,
        tp_src: (i % 60_000) as u16,
        tp_dst: 80,
    }
}

fn steering_entry(i: u32) -> FlowEntry {
    FlowEntry::new(
        Match::exact(2, &key(i)),
        vec![Action::Output(OutPort::Physical(1))],
        100,
    )
}

/// `n` exact steering entries plus a wildcard policy entry, as LiveSec
/// tables have.
fn table_of(n: usize) -> FlowTable {
    let mut table = FlowTable::new();
    for i in 0..n as u32 {
        table.insert(steering_entry(i));
    }
    table.insert(FlowEntry::new(Match::any().with_tp_dst(23), vec![], 200));
    table
}

fn bench_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_table_lookup");
    for n in [16usize, 256, 4096] {
        let table = table_of(n);
        let probe = key((n / 2) as u32);
        g.bench_with_input(BenchmarkId::from_parameter(n), &probe, |b, probe| {
            b.iter(|| table.peek(2, probe).expect("hit"))
        });
    }
    g.finish();
}

/// The write path at a resident table of `n`. Every routine leaves the
/// table at `n` entries, so each sample times the same table.
fn bench_flow_mods(c: &mut Criterion) {
    let sizes = [16usize, 256, 4096];
    // A flow's life: install a fresh exact key, then strict-delete it.
    let mut g = c.benchmark_group("flow_table_insert");
    for n in sizes {
        let mut table = table_of(n);
        let fresh = Match::exact(2, &key(n as u32));
        g.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                table.insert(steering_entry(n as u32));
                table.remove(&fresh, true, Some(100))
            })
        });
    }
    g.finish();
    // An Add for a resident (match, priority): replaced in place.
    let mut g = c.benchmark_group("flow_table_replace");
    for n in sizes {
        let mut table = table_of(n);
        g.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| table.insert(steering_entry(n as u32 / 2)))
        });
    }
    g.finish();
    // The search alone: a strict delete of a resident match at another
    // priority finds its candidates and removes nothing.
    let mut g = c.benchmark_group("flow_table_delete_strict");
    for n in sizes {
        let mut table = table_of(n);
        let resident = Match::exact(2, &key(n as u32 / 2));
        g.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| table.remove(&resident, true, Some(7)))
        });
    }
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let msg = OfMessage::FlowMod {
        command: livesec_openflow::FlowModCommand::Add,
        matcher: Match::exact(3, &key(7)),
        priority: 100,
        actions: vec![
            Action::SetDlDst(MacAddr::from_u64(0xfe)),
            Action::Output(OutPort::Physical(1)),
        ],
        idle_timeout: Some(2_000_000_000),
        hard_timeout: None,
        cookie: 1,
        notify_removed: true,
    };
    c.bench_function("codec_encode_flow_mod", |b| {
        b.iter(|| codec::encode(&msg, 1))
    });
    let bytes = codec::encode(&msg, 1);
    c.bench_function("codec_decode_flow_mod", |b| {
        b.iter(|| codec::decode(&bytes).expect("valid"))
    });
}

criterion_group!(benches, bench_lookup, bench_flow_mods, bench_codec);
criterion_main!(benches);
