//! Differential model test: `AhoCorasick` against the implementation
//! it replaced.
//!
//! The reference below is the previous automaton, kept as it was: a
//! `Vec<[u32; 256]>` goto table, a `Vec<Vec<u32>>` of outputs loaded on
//! every byte, no prefilter. The real one is a flat premultiplied DFA
//! with match states numbered last, flattened outputs and a root-state
//! start-pair filter that a scan may drop half way. Generated pattern
//! sets and haystacks drive both; `find_all` must agree **as an ordered
//! `Vec<Hit>`** (end position, then own patterns before the failure
//! chain's), and `find_first`, `is_match` and `state_count` with it.

use livesec_services::aho::Hit;
use livesec_services::AhoCorasick;
use proptest::prelude::*;

/// Cases per proptest case: 64 default cases x 32 = 2048 cases.
const CASES_PER_RUN: usize = 32;

/// The previous implementation, verbatim but for its name (the
/// analyzer's call graph resolves methods by type name, and would file
/// this copy's allocating `find_all` under the real kernel's hot root).
mod reference {
    use livesec_services::aho::Hit;

    #[derive(Debug, Clone)]
    pub struct GotoOutputAutomaton {
        /// goto function: per state, 256 transitions (dense — rule sets are
        /// small and scanning speed matters).
        goto_fn: Vec<[u32; 256]>,
        /// Pattern indices that end at each state.
        output: Vec<Vec<u32>>,
        pattern_lens: Vec<usize>,
    }

    const NONE: u32 = u32::MAX;

    impl GotoOutputAutomaton {
        pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
            let mut goto_fn: Vec<[u32; 256]> = vec![[NONE; 256]];
            let mut output: Vec<Vec<u32>> = vec![Vec::new()];
            let mut pattern_lens = Vec::with_capacity(patterns.len());

            // Build the trie.
            for (pi, pat) in patterns.iter().enumerate() {
                let pat = pat.as_ref();
                pattern_lens.push(pat.len());
                if pat.is_empty() {
                    continue;
                }
                let mut state = 0usize;
                for &b in pat {
                    let next = goto_fn[state][b as usize];
                    state = if next == NONE {
                        goto_fn.push([NONE; 256]);
                        output.push(Vec::new());
                        let new = (goto_fn.len() - 1) as u32;
                        goto_fn[state][b as usize] = new;
                        new as usize
                    } else {
                        next as usize
                    };
                }
                output[state].push(pi as u32);
            }

            // BFS to build failure links and complete the goto function.
            let mut fail = vec![0u32; goto_fn.len()];
            let mut queue = std::collections::VecDeque::new();
            for entry in goto_fn[0].iter_mut() {
                let s = *entry;
                if s == NONE {
                    *entry = 0;
                } else {
                    fail[s as usize] = 0;
                    queue.push_back(s as usize);
                }
            }
            while let Some(state) = queue.pop_front() {
                #[allow(clippy::needless_range_loop)]
                for b in 0..256usize {
                    let next = goto_fn[state][b];
                    if next == NONE {
                        goto_fn[state][b] = goto_fn[fail[state] as usize][b];
                    } else {
                        let f = goto_fn[fail[state] as usize][b];
                        fail[next as usize] = f;
                        let extra: Vec<u32> = output[f as usize].clone();
                        output[next as usize].extend(extra);
                        queue.push_back(next as usize);
                    }
                }
            }

            GotoOutputAutomaton {
                goto_fn,
                output,
                pattern_lens,
            }
        }

        pub fn state_count(&self) -> usize {
            self.goto_fn.len()
        }

        pub fn find_all(&self, haystack: &[u8]) -> Vec<Hit> {
            let mut hits = Vec::new();
            let mut state = 0usize;
            for (i, &b) in haystack.iter().enumerate() {
                state = self.goto_fn[state][b as usize] as usize;
                for &pi in &self.output[state] {
                    let len = self.pattern_lens[pi as usize];
                    hits.push(Hit {
                        pattern: pi as usize,
                        start: i + 1 - len,
                    });
                }
            }
            hits
        }
    }
}

/// SplitMix64: one seed from proptest becomes a whole case, so the
/// shapes below (which depend on each other: a suffix *of an earlier
/// pattern*, a hit planted *over the previous one*) need no strategy
/// combinators.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// 1–40, short lengths most of the time: short patterns share
    /// prefixes, overlap and fill the start-pair filter's buckets.
    fn pattern_len(&mut self) -> usize {
        match self.below(8) {
            0 => 1,
            1..=4 => 2 + self.below(5),
            5 | 6 => 7 + self.below(10),
            _ => 17 + self.below(24),
        }
    }
}

struct Case {
    patterns: Vec<Vec<u8>>,
    haystack: Vec<u8>,
}

fn gen_case(seed: u64) -> Case {
    let mut rng = Rng(seed);
    // Alphabets: {a,b,c} (everything overlaps), printable ASCII (what
    // the shipped rules and the benchmark's payloads are), all bytes.
    let alphabet: Vec<u8> = match rng.below(3) {
        0 => b"abc".to_vec(),
        1 => (0x20..0x7f).collect(),
        _ => (0..=255).collect(),
    };
    let byte = |rng: &mut Rng| alphabet[rng.below(alphabet.len())];

    let mut patterns: Vec<Vec<u8>> = Vec::new();
    // One case in four gives every pattern its own start byte: more
    // than 8 of them alias in the filter's buckets, more than 64 fill
    // every bucket many times over.
    let distinct_starts = match rng.below(8) {
        0 => 9 + rng.below(16),
        1 => 65 + rng.below(31),
        _ => 0,
    }
    .min(alphabet.len());
    for &start in alphabet.iter().take(distinct_starts) {
        let mut pat = vec![start];
        for _ in 1..rng.pattern_len() {
            pat.push(byte(&mut rng));
        }
        patterns.push(pat);
    }
    let extra = 1 + rng.below(40);
    for _ in 0..extra {
        let earlier = (!patterns.is_empty()).then(|| patterns[rng.below(patterns.len())].clone());
        let pat = match (rng.below(10), earlier) {
            // A shared prefix with a fresh tail.
            (0 | 1, Some(p)) => {
                let mut pat = p[..rng.below(p.len() + 1)].to_vec();
                for _ in 0..rng.below(6) {
                    pat.push(byte(&mut rng));
                }
                pat
            }
            // A suffix of another pattern (its failure chain reports it).
            (2 | 3, Some(p)) => p[rng.below(p.len() + 1)..].to_vec(),
            // A duplicate: two pattern indices on one state.
            (4, Some(p)) => p,
            (5, _) => vec![byte(&mut rng)],
            (6, _) if rng.below(4) == 0 => Vec::new(),
            _ => (0..rng.pattern_len()).map(|_| byte(&mut rng)).collect(),
        };
        patterns.push(pat);
    }

    // 0–4096 bytes, every small length often: the empty haystack, one
    // byte, and a last byte with no window behind it.
    let len = match rng.below(4) {
        0 => rng.below(4),
        1 => rng.below(64),
        2 => rng.below(512),
        _ => rng.below(4097),
    };
    let mut haystack: Vec<u8> = (0..len).map(|_| byte(&mut rng)).collect();
    // Plant hits: at offset 0, flush with the end, anywhere, over the
    // tail of the previous plant, and right behind it. One plant in
    // four is cut short: a near miss the filter passes and the DFA
    // drops, and a run of those ahead of a hit is what spends a scan's
    // probe budget right where a match starts.
    let mut prev_end = 0usize;
    for _ in 0..rng.below(12) {
        let mut pat = patterns[rng.below(patterns.len())].clone();
        if pat.len() > 2 && rng.below(4) == 0 {
            pat.truncate(2 + rng.below(pat.len() - 2));
        }
        if pat.is_empty() || pat.len() > haystack.len() {
            continue;
        }
        let last = haystack.len() - pat.len();
        let at = match rng.below(5) {
            0 => 0,
            1 => last,
            2 => prev_end.saturating_sub(1 + rng.below(pat.len())).min(last),
            3 => prev_end.min(last),
            _ => rng.below(last + 1),
        };
        haystack[at..at + pat.len()].copy_from_slice(&pat);
        prev_end = at + pat.len();
    }
    Case { patterns, haystack }
}

fn run_case(seed: u64) -> Result<(), TestCaseError> {
    let Case { patterns, haystack } = gen_case(seed);
    let real = AhoCorasick::new(&patterns);
    let model = reference::GotoOutputAutomaton::new(&patterns);
    let want: Vec<Hit> = model.find_all(&haystack);
    prop_assert_eq!(real.state_count(), model.state_count(), "seed {seed:#x}");
    prop_assert_eq!(
        real.find_all(&haystack),
        want.clone(),
        "seed {seed:#x}: patterns {patterns:?} over {haystack:?}"
    );
    prop_assert_eq!(
        real.find_first(&haystack),
        want.first().copied(),
        "seed {seed:#x}"
    );
    prop_assert_eq!(real.is_match(&haystack), !want.is_empty(), "seed {seed:#x}");
    Ok(())
}

proptest! {
    #[test]
    fn automaton_agrees_with_the_goto_output_reference(
        seeds in proptest::collection::vec(any::<u64>(), CASES_PER_RUN),
    ) {
        for seed in seeds {
            run_case(seed)?;
        }
    }
}

/// The generator reaches the shapes the test exists for (a generator
/// that silently stopped planting hits would leave the comparison
/// above green and empty).
#[test]
fn generator_covers_the_shapes_it_claims() {
    let (mut hits, mut at_zero, mut at_end, mut shared_end, mut one_byte) = (0, 0, 0, 0, 0);
    let (mut empty_hay, mut empty_pat, mut many_starts, mut very_many_starts) = (0, 0, 0, 0);
    for seed in 0..512u64 {
        let Case { patterns, haystack } = gen_case(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let found = reference::GotoOutputAutomaton::new(&patterns).find_all(&haystack);
        let end = |h: &Hit| h.start + patterns[h.pattern].len();
        hits += found.len();
        at_zero += found.iter().filter(|h| h.start == 0).count();
        at_end += found.iter().filter(|h| end(h) == haystack.len()).count();
        shared_end += found
            .windows(2)
            .filter(|w| end(&w[0]) == end(&w[1]))
            .count();
        one_byte += found
            .iter()
            .filter(|h| patterns[h.pattern].len() == 1)
            .count();
        empty_hay += usize::from(haystack.is_empty());
        empty_pat += patterns.iter().filter(|p| p.is_empty()).count();
        let mut starts: Vec<u8> = patterns.iter().filter_map(|p| p.first().copied()).collect();
        starts.sort_unstable();
        starts.dedup();
        many_starts += usize::from(starts.len() > 8);
        very_many_starts += usize::from(starts.len() > 64);
    }
    for (what, n) in [
        ("hits", hits),
        ("hits at offset 0", at_zero),
        ("hits flush with the end", at_end),
        ("hits sharing an end position", shared_end),
        ("one-byte hits", one_byte),
        ("empty haystacks", empty_hay),
        ("empty patterns", empty_pat),
        ("sets with > 8 start bytes", many_starts),
        ("sets with > 64 start bytes", very_many_starts),
    ] {
        assert!(n >= 16, "only {n} {what} in 512 cases");
    }
}
