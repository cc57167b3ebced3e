//! A from-scratch Aho–Corasick multi-pattern matcher.
//!
//! This is the scanning core shared by the IDS, virus-scanning and
//! content-inspection engines: all of them need "which of these N byte
//! patterns occur in this payload?" in a single pass.
//!
//! The automaton is one flat DFA behind a root-state prefilter
//! (DESIGN.md §4d has the argument; this is the summary):
//!
//! * **Table.** `table[state + byte]`, state ids premultiplied by 256.
//!   States with an output are numbered last and the root just below
//!   them, so "match" and "match, or back in the root" are one compare
//!   each, not a load. Outputs are one `Vec`, a range per match state,
//!   a state's own patterns before its failure chain's.
//! * **Prefilter.** In the root state, a position whose two-byte window
//!   cannot reach depth 2 of the trie and whose first byte is no whole
//!   pattern is skipped without a table load: exact, because the next
//!   byte then goes where the root would send it. Two 256-byte masks
//!   (`first[b0] & second[b1]`, start bytes in eight buckets; sharing a
//!   bucket only adds candidates) decide; a candidate is walked by the
//!   DFA until it is back in the root; the last byte has no window and
//!   always is one. The filter serves a haystack's clean prefix: from
//!   the first match on, the plain DFA walks the rest.
//! * **Worst case.** A probe that ends a skip is a branch miss, so the
//!   filter must advance a scan `MIN_STRIDE` bytes per probe: a pattern
//!   set whose filter uniformly random bytes would hold below that gets
//!   none, and a scan whose probes outrun it leaves the rest to the
//!   plain DFA — one DFA step a byte plus `2 + len / MIN_STRIDE` probes
//!   at most, whatever the bytes.

/// Transitions per state; state ids are premultiplied by it.
const ROW: usize = 256;

/// Bytes the prefilter must advance a scan per probe, on average, to be
/// worth its branch misses (break-even measured near 8).
const MIN_STRIDE: usize = 16;

/// A compiled Aho–Corasick automaton over byte patterns.
///
/// ```rust
/// use livesec_services::AhoCorasick;
/// let ac = AhoCorasick::new(&[b"he".as_ref(), b"she", b"his", b"hers"]);
/// let hits = ac.find_all(b"ushers");
/// // "she" at 1, "he" at 2, "hers" at 2.
/// assert_eq!(hits.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// The DFA: `table[state + byte]` is the next (premultiplied) state.
    table: Vec<u32>,
    /// First match state; the state just below it is the root.
    match_from: usize,
    /// `outputs[out_ranges[k]]`: the `(pattern index, pattern length)`
    /// pairs that end at the `k`-th match state.
    out_ranges: Vec<std::ops::Range<usize>>,
    outputs: Vec<(u32, u32)>,
    /// `[first, second]` bucket masks of the prefilter, if it has one.
    start_pairs: Option<Box<[[u8; ROW]; 2]>>,
}

/// A single match: which pattern, and where it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Index of the pattern in the constructor slice.
    pub pattern: usize,
    /// Byte offset of the match start.
    pub start: usize,
}

const NONE: u32 = u32::MAX;

impl AhoCorasick {
    /// Compiles an automaton from `patterns`.
    ///
    /// Empty patterns are permitted but never match.
    ///
    /// # Panics
    ///
    /// Panics if the pattern set needs more states than a premultiplied
    /// 32-bit state id can name (2^24; the table alone would be 16 GiB).
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        let mut goto_fn: Vec<[u32; ROW]> = vec![[NONE; ROW]];
        // Per state, the `(pattern index, pattern length)` pairs ending
        // there; a length fits the id width the trie build checks.
        let mut output: Vec<Vec<(u32, u32)>> = vec![Vec::new()];

        // Build the trie.
        for (pi, pat) in patterns.iter().enumerate() {
            let pat = pat.as_ref();
            if pat.is_empty() {
                continue;
            }
            let mut state = 0usize;
            for &b in pat {
                let next = goto_fn[state][b as usize];
                state = if next == NONE {
                    let new = goto_fn.len();
                    assert!(
                        new <= u32::MAX as usize / ROW,
                        "pattern set needs more than {new} states: too many for a 32-bit state id"
                    );
                    goto_fn.push([NONE; ROW]);
                    output.push(Vec::new());
                    goto_fn[state][b as usize] = new as u32;
                    new
                } else {
                    next as usize
                };
            }
            output[state].push((pi as u32, pat.len() as u32));
        }

        // The prefilter, from the first two levels of the trie. A start
        // byte that is a whole pattern is a candidate whatever follows.
        let mut masks = Box::new([[0u8; ROW]; 2]);
        let starts = (0..ROW).filter(|&b0| goto_fn[0][b0] != NONE);
        for (k, b0) in starts.enumerate() {
            let bucket = 1u8 << (k % 8);
            let s1 = goto_fn[0][b0] as usize;
            masks[0][b0] |= bucket;
            for b1 in 0..ROW {
                if !output[s1].is_empty() || goto_fn[s1][b1] != NONE {
                    masks[1][b1] |= bucket;
                }
            }
        }
        let firsts = masks[0].iter().filter(|&&f| f != 0);
        let passing: usize = firsts
            .map(|&f| masks[1].iter().filter(|&&s| f & s != 0).count())
            .sum();

        // BFS to build failure links and complete the goto function.
        let mut fail = vec![0u32; goto_fn.len()];
        let mut queue = std::collections::VecDeque::new();
        for entry in goto_fn[0].iter_mut() {
            let s = *entry;
            if s == NONE {
                *entry = 0;
            } else {
                queue.push_back(s as usize);
            }
        }
        while let Some(state) = queue.pop_front() {
            // Indexing two different rows of goto_fn per iteration; an
            // iterator form would fight the borrow checker for nothing.
            #[allow(clippy::needless_range_loop)]
            for b in 0..ROW {
                let next = goto_fn[state][b];
                if next == NONE {
                    goto_fn[state][b] = goto_fn[fail[state] as usize][b];
                } else {
                    let f = goto_fn[fail[state] as usize][b];
                    fail[next as usize] = f;
                    let extra = output[f as usize].clone();
                    output[next as usize].extend(extra);
                    queue.push_back(next as usize);
                }
            }
        }

        // Renumber: plain states, the root last among them, then the
        // match states; ids premultiplied by the row width.
        let (plain, matching): (Vec<usize>, Vec<usize>) =
            (0..goto_fn.len()).partition(|&s| output[s].is_empty());
        let order = plain[1..].iter().chain(&plain[..1]).chain(&matching);
        let mut id = vec![0u32; goto_fn.len()];
        for (rank, &s) in order.enumerate() {
            id[s] = (rank * ROW) as u32;
        }
        let mut table = vec![0u32; goto_fn.len() * ROW];
        for (s, row) in goto_fn.iter().enumerate() {
            for (b, &next) in row.iter().enumerate() {
                table[id[s] as usize + b] = id[next as usize];
            }
        }
        let mut out_ranges = Vec::with_capacity(matching.len());
        let mut outputs = Vec::new();
        for &s in &matching {
            out_ranges.push(outputs.len()..outputs.len() + output[s].len());
            outputs.extend_from_slice(&output[s]);
        }

        AhoCorasick {
            table,
            match_from: plain.len() * ROW,
            out_ranges,
            outputs,
            start_pairs: (passing * MIN_STRIDE <= ROW * ROW).then_some(masks),
        }
    }

    /// Number of automaton states (diagnostics).
    pub fn state_count(&self) -> usize {
        self.table.len() / ROW
    }

    /// Scans the clean prefix of `haystack`: the filter skips, the DFA
    /// walks each candidate back to the root, nothing matches. Returns
    /// the `(state, position)` at which the plain DFA takes over — a
    /// match state just entered, or the root once the probes outran
    /// their budget — or `None` if the haystack ended first. Out of
    /// line and not generic: the loops all clean traffic runs in then
    /// compile the same whoever calls the kernel.
    #[inline(never)]
    fn clean_prefix(&self, masks: &[[u8; ROW]; 2], haystack: &[u8]) -> Option<(usize, usize)> {
        let table = &self.table[..];
        let root = self.match_from - ROW;
        let mut at = 0usize;
        let mut probes = 0usize;
        while at < haystack.len() {
            // Skip to the next candidate window, or to the last byte,
            // which has no window to be judged by.
            let rest = &haystack[at..];
            at += rest
                .windows(2)
                .position(|w| masks[0][w[0] as usize] & masks[1][w[1] as usize] != 0)
                .unwrap_or(rest.len() - 1);
            // Two probes are free; after that the filter has to earn
            // each one, or the rest of the haystack is the DFA's.
            probes += 1;
            if probes > 2 + at / MIN_STRIDE {
                return Some((root, at));
            }
            let mut state = root;
            for &b in &haystack[at..] {
                state = table[state + b as usize] as usize;
                at += 1;
                if state >= root {
                    break;
                }
            }
            if state >= self.match_from {
                return Some((state, at));
            }
        }
        None
    }

    /// The one scan kernel: hands every match in `haystack` to `on_hit`
    /// in end-position order (at one end, a state's own patterns before
    /// its failure chain's) until `on_hit` returns `true`; returns
    /// whether it was stopped. Allocates nothing.
    pub(crate) fn scan(&self, haystack: &[u8], mut on_hit: impl FnMut(Hit) -> bool) -> bool {
        let handover = match &self.start_pairs {
            Some(masks) => self.clean_prefix(masks, haystack),
            None => Some((self.match_from - ROW, 0)),
        };
        let Some((mut state, from)) = handover else {
            return false;
        };
        let mut bytes = haystack[from..].iter();
        loop {
            if state >= self.match_from {
                let end = haystack.len() - bytes.as_slice().len();
                // A match state has at least one output; indexing them
                // one by one compiles to less than slicing the range.
                let range = &self.out_ranges[(state - self.match_from) / ROW];
                let mut next = range.start;
                loop {
                    let (pattern, len) = self.outputs[next];
                    let (pattern, start) = (pattern as usize, end - len as usize);
                    if on_hit(Hit { pattern, start }) {
                        return true;
                    }
                    next += 1;
                    if next >= range.end {
                        break;
                    }
                }
            }
            let Some(&b) = bytes.next() else { return false };
            state = self.table[state + b as usize] as usize;
        }
    }

    /// Returns every match in `haystack`, in end-position order.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Hit> {
        let mut hits = Vec::new();
        self.scan(haystack, |hit| {
            hits.push(hit);
            false
        });
        hits
    }

    /// Returns the first matching pattern index, scanning left to right
    /// (cheapest check for "is anything in here?").
    pub fn find_first(&self, haystack: &[u8]) -> Option<Hit> {
        let mut first = None;
        self.scan(haystack, |hit| {
            first = Some(hit);
            true
        });
        first
    }

    /// Returns `true` if any pattern occurs in `haystack`.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        self.scan(haystack, |_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_ushers() {
        let ac = AhoCorasick::new(&[b"he".as_ref(), b"she", b"his", b"hers"]);
        let hits = ac.find_all(b"ushers");
        let got: Vec<(usize, usize)> = hits.iter().map(|h| (h.pattern, h.start)).collect();
        assert!(got.contains(&(1, 1)), "she at 1: {got:?}");
        assert!(got.contains(&(0, 2)), "he at 2: {got:?}");
        assert!(got.contains(&(3, 2)), "hers at 2: {got:?}");
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn no_match() {
        let ac = AhoCorasick::new(&[b"attack".as_ref(), b"virus"]);
        assert!(!ac.is_match(b"perfectly ordinary traffic"));
        assert_eq!(ac.find_first(b"nothing here"), None);
    }

    #[test]
    fn overlapping_patterns() {
        let ac = AhoCorasick::new(&[b"aa".as_ref(), b"aaa"]);
        let hits = ac.find_all(b"aaaa");
        // "aa" at 0,1,2 and "aaa" at 0,1.
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn match_at_boundaries() {
        let ac = AhoCorasick::new(&[b"start".as_ref(), b"end"]);
        let hits = ac.find_all(b"start middle end");
        assert_eq!(
            hits[0],
            Hit {
                pattern: 0,
                start: 0
            }
        );
        assert_eq!(
            hits[1],
            Hit {
                pattern: 1,
                start: 13
            }
        );
    }

    #[test]
    fn binary_patterns() {
        let ac = AhoCorasick::new(&[&[0x13u8, 0x42, 0x00][..], &[0xff, 0xff][..]]);
        assert!(ac.is_match(&[0x00, 0x13, 0x42, 0x00, 0x07]));
        assert!(ac.is_match(&[0xff, 0xff]));
        assert!(!ac.is_match(&[0x13, 0x42, 0x01]));
    }

    #[test]
    fn empty_pattern_never_matches() {
        let ac = AhoCorasick::new(&[b"".as_ref(), b"x"]);
        let hits = ac.find_all(b"xyz");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].pattern, 1);
    }

    #[test]
    fn empty_haystack() {
        let ac = AhoCorasick::new(&[b"x".as_ref()]);
        assert!(ac.find_all(b"").is_empty());
    }

    #[test]
    fn single_pattern_repeated_hits() {
        let ac = AhoCorasick::new(&[b"ab".as_ref()]);
        let hits = ac.find_all(b"ababab");
        assert_eq!(hits.len(), 3);
        assert_eq!(
            hits.iter().map(|h| h.start).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
    }

    #[test]
    fn find_first_is_leftmost_by_end() {
        let ac = AhoCorasick::new(&[b"late".as_ref(), b"a"]);
        let first = ac.find_first(b"late").unwrap();
        assert_eq!(first.pattern, 1, "'a' ends first");
    }

    #[test]
    fn prefix_of_another_pattern() {
        let ac = AhoCorasick::new(&[b"abc".as_ref(), b"abcdef"]);
        let hits = ac.find_all(b"abcdef");
        assert_eq!(hits.len(), 2);
    }
}
