//! Micro-benchmarks: payload scanning — the Aho–Corasick kernel and the
//! signature engines on top of it — over the payload *shapes* that
//! decide its cost, not over one string (EXPERIMENTS.md E18).
//!
//! Every shape is scanned at 64, 1 400 and 16 Ki bytes, by the IDS and
//! by the DLP rule set, as `find_all` (the kernel plus its collecting
//! `Vec`) and as `SignatureEngine::inspect` on a session that has
//! already reported every rule (nothing stops the scan early: the
//! engine's steady state and its dearest). The rule for a kernel change
//! is that no row gets slower.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use livesec_net::{FlowKey, MacAddr};
use livesec_services::{
    AhoCorasick, ContentInspectionEngine, IdsEngine, IdsRule, Inspector, ProtoIdEngine,
    SignatureEngine,
};

const SIZES: [usize; 3] = [64, 1_400, 16 * 1024];

fn flow() -> FlowKey {
    FlowKey {
        vlan: None,
        dl_src: MacAddr::from_u64(1),
        dl_dst: MacAddr::from_u64(2),
        dl_type: 0x0800,
        nw_src: "10.0.0.1".parse().unwrap(),
        nw_dst: "10.0.0.2".parse().unwrap(),
        nw_proto: 6,
        tp_src: 40_000,
        tp_dst: 80,
    }
}

/// The end-to-end benchmark's generator (`e2e/src/apps.rs`), so that
/// "random printable" here is byte for byte what `ids_payload` streams.
struct SplitMix64(u64);

impl SplitMix64 {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

const HTTP: &[u8] = b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\
User-Agent: Mozilla/5.0 (X11; Linux x86_64)\r\nAccept: text/html,application/xhtml+xml\r\n\
Cookie: session=0123456789abcdef\r\n\r\n";

/// The payload shapes, by name, for one rule set. The `adv_` shapes
/// are built from the set's own patterns to defeat its start-pair
/// filter: a depth-2 prefix on a loop (`/e/e/e…`: the DFA never falls
/// back to the root), a depth-2 prefix and a miss (every third byte
/// re-enters the filter), a run one byte short of a run pattern, a
/// whole pattern with its last byte wrong, a soup of the start bytes,
/// and candidates at unpredictable positions (every probe a branch
/// miss — the shape the per-scan probe budget exists for).
fn shapes(patterns: &[Vec<u8>], len: usize) -> Vec<(&'static str, Vec<u8>)> {
    let cycle = |unit: &[u8]| -> Vec<u8> { unit.iter().copied().cycle().take(len).collect() };
    let mut rng = SplitMix64(len as u64);
    let first = &patterns[0];
    let near_miss: Vec<u8> = first[..first.len() - 1]
        .iter()
        .copied()
        .chain([first[first.len() - 1] ^ 1])
        .collect();
    let starts: Vec<u8> = patterns.iter().map(|p| p[0]).collect();
    let hits: Vec<u8> = patterns
        .iter()
        .flat_map(|p| p.iter().copied().chain([b' ']))
        .collect();
    let mut random_candidates = Vec::with_capacity(len + 2);
    while random_candidates.len() < len {
        let unit = if rng.below(2) == 0 {
            &first[..2]
        } else {
            b"zz"
        };
        random_candidates.extend_from_slice(unit);
    }
    random_candidates.truncate(len);
    vec![
        (
            "random_printable",
            (0..len).map(|_| 0x20 + rng.below(95) as u8).collect(),
        ),
        ("quick_brown_fox", cycle(b"the quick brown fox ")),
        ("http_request", cycle(HTTP)),
        ("adv_depth2_loop", cycle(&first[..2])),
        ("adv_depth2_miss", cycle(&[first[0], first[1], b'x'])),
        (
            "adv_run_short",
            cycle(&[[b'A'; 31].as_slice(), b"!"].concat()),
        ),
        ("adv_near_miss", cycle(&near_miss)),
        (
            "adv_start_soup",
            (0..len)
                .map(|_| starts[rng.below(starts.len() as u64) as usize])
                .collect(),
        ),
        ("adv_random_candidates", random_candidates),
        ("hit_dense", cycle(&hits)),
        // One hit per byte: the densest a payload can be.
        ("hit_run", cycle(&[0x90])),
    ]
}

fn bench_set(c: &mut Criterion, set: &str, rules: Vec<IdsRule>, engine: SignatureEngine) {
    let patterns: Vec<Vec<u8>> = rules.into_iter().map(|r| r.pattern).collect();
    let ac = AhoCorasick::new(&patterns);
    for size in SIZES {
        let mut g = c.benchmark_group(format!("{set}/{size}"));
        g.throughput(Throughput::Bytes(size as u64));
        for (shape, hay) in shapes(&patterns, size) {
            g.bench_with_input(BenchmarkId::new("find_all", shape), &hay, |b, hay| {
                b.iter(|| ac.find_all(hay).len())
            });
            let mut engine = engine.clone();
            let flow = flow();
            // Report whatever the payload holds, so the timed calls
            // run to the end of it.
            while engine.inspect(&flow, &hay).is_some() {}
            g.bench_with_input(BenchmarkId::new("inspect", shape), &hay, |b, hay| {
                b.iter(|| engine.inspect(&flow, hay).is_some())
            });
        }
        g.finish();
    }
}

fn bench_scan(c: &mut Criterion) {
    bench_set(c, "ids", IdsEngine::default_rules(), IdsEngine::engine());
    bench_set(
        c,
        "dlp",
        ContentInspectionEngine::default_rules(),
        ContentInspectionEngine::engine(),
    );
    c.bench_function("protoid_classify", |b| {
        b.iter(|| ProtoIdEngine::classify(b"GET / HTTP/1.1\r\n", 5000, 80))
    });
}

criterion_group!(benches, bench_scan);
criterion_main!(benches);
