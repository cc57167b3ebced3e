//! The flow table: priority lookup, timeouts, counters.

use crate::action::ActionList;
use crate::flow_match::Match;
use crate::message::FlowRemovedReason;
use livesec_net::{FlowKey, HashMap};
use std::collections::hash_map::Entry;

/// Absolute simulated time in nanoseconds.
///
/// The table doesn't depend on the simulator crate, so time crosses
/// this boundary as a plain integer.
pub type Nanos = u64;

/// One flow-table entry.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowEntry {
    /// The match.
    pub matcher: Match,
    /// Action list (empty = drop).
    pub actions: ActionList,
    /// Priority; higher wins. Ties break to the earlier-installed entry.
    pub priority: u16,
    /// Evict if unused for this long.
    pub idle_timeout: Option<Nanos>,
    /// Evict this long after installation regardless of use.
    pub hard_timeout: Option<Nanos>,
    /// Opaque controller cookie.
    pub cookie: u64,
    /// Send a flow-removed message on eviction (OFPFF_SEND_FLOW_REM).
    pub notify_removed: bool,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// Installation time.
    pub created_at: Nanos,
    /// Last match time.
    pub last_used: Nanos,
    seq: u64,
}

impl FlowEntry {
    /// Creates a permanent entry with zeroed counters.
    pub fn new(matcher: Match, actions: impl Into<ActionList>, priority: u16) -> Self {
        FlowEntry {
            matcher,
            actions: actions.into(),
            priority,
            idle_timeout: None,
            hard_timeout: None,
            cookie: 0,
            notify_removed: false,
            packet_count: 0,
            byte_count: 0,
            created_at: 0,
            last_used: 0,
            seq: 0,
        }
    }

    /// Sets the cookie.
    pub fn with_cookie(mut self, cookie: u64) -> Self {
        self.cookie = cookie;
        self
    }
}

/// The winning-entry rule: whether an entry ranked `(priority, install
/// order)` beats a matching one ranked `other`. Higher priority wins; on
/// a tie, the earlier install.
pub fn outranks(rank: (u16, u64), other: (u16, u64)) -> bool {
    rank.0 > other.0 || (rank.0 == other.0 && rank.1 < other.1)
}

/// The entry a lookup of `key` on `in_port` hits among `entries` in
/// install order: what [`FlowTable::peek`] returns on a table of them.
pub fn winner<'a>(
    entries: impl IntoIterator<Item = &'a FlowEntry>,
    in_port: u32,
    key: &FlowKey,
) -> Option<&'a FlowEntry> {
    let ranked = (0..).zip(entries).map(|(order, e)| (e, order, e));
    top(ranked, in_port, key)
}

/// The id of the matching candidate `(id, install order, entry)` that
/// [`outranks`] every other.
fn top<'a, T>(
    candidates: impl IntoIterator<Item = (T, u64, &'a FlowEntry)>,
    in_port: u32,
    key: &FlowKey,
) -> Option<T> {
    let mut best: Option<(T, (u16, u64))> = None;
    for (id, order, e) in candidates {
        let rank = (e.priority, order);
        if e.matcher.matches(in_port, key) && best.as_ref().is_none_or(|b| outranks(rank, b.1)) {
            best = Some((id, rank));
        }
    }
    best.map(|(id, _)| id)
}

/// An evicted entry plus the reason.
#[derive(Clone, Debug, PartialEq)]
pub struct RemovedEntry {
    /// The entry as it was at eviction (final counters).
    pub entry: FlowEntry,
    /// Why it was evicted.
    pub reason: FlowRemovedReason,
}

/// Result of [`FlowTable::insert`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsertOutcome {
    /// A new entry was added.
    Added,
    /// An entry with identical match and priority was replaced
    /// (counters reset), per OpenFlow `OFPFC_ADD` semantics.
    Replaced,
}

/// An OpenFlow 1.0 flow table.
///
/// Entries live in a slot vector. Those whose nine header fields are
/// all exact are indexed by [`FlowKey`]: `exact` maps a key to the first
/// slot of its chain, and each slot links to the next slot with the
/// same key, in install order, so no key owns a heap bucket. Wildcard
/// entries sit in one list, `wild`, also in install order. With
/// LiveSec's workload — thousands of exact steering entries plus a
/// handful of wildcard policy entries — both the data path and the
/// flow-mod write path stay O(1) in the table size `n`:
///
/// * `lookup` / `lookup_counting` / `peek`: one hash probe, a walk of
///   the key's chain and a scan of `wild` — O(chain + |wild|).
/// * `insert_at` (fresh or replace) and `remove` /
///   `modify_actions` whose matcher has exact headers (strict or not):
///   one hash probe and a chain walk — O(chain), a chain being the
///   entries that share one `FlowKey` (they differ in `in_port` or
///   priority only). On a table that has held as many entries before,
///   inserting and replacing allocate nothing, and removing allocates
///   only the list it returns.
/// * The same operations with a wildcard matcher, strict: O(|wild|).
/// * Non-strict `remove` / `modify_actions` with a wildcard matcher,
///   and `expire`: O(n). Wildcard deletes are rare (a block lifted, a
///   table wipe), and the expiry walk is at most 1.3 % of the busiest
///   workload's wall time (EXPERIMENTS.md E16, where a deadline heap
///   moved nothing end to end), so neither has an index of its own.
#[derive(Debug, Default)]
pub struct FlowTable {
    slots: Vec<Slot>,
    free: Vec<usize>,
    exact: HashMap<FlowKey, usize>,
    wild: Vec<usize>,
    next_seq: u64,
    len: usize,
}

/// A table slot: its entry, if live, and the next slot of the same
/// exact key's chain.
#[derive(Debug, Default)]
struct Slot {
    entry: Option<FlowEntry>,
    next: Option<usize>,
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `entry` at time `now` (sets `created_at`/`last_used`).
    ///
    /// If an entry with the same match and priority exists it is
    /// replaced and counters reset, as OpenFlow `ADD` does.
    pub fn insert_at(&mut self, mut entry: FlowEntry, now: Nanos) -> InsertOutcome {
        entry.created_at = now;
        entry.last_used = now;
        entry.seq = self.next_seq;
        self.next_seq += 1;

        // Replace same (match, priority) if present.
        if let Some(idx) = self.find_strict(&entry.matcher, entry.priority) {
            self.detach(idx);
            // detach() put the slot on the free list; reclaim it
            // before re-attaching or the next insert would double-book
            // the slot and corrupt the index.
            let reclaimed = self.free.pop();
            debug_assert_eq!(reclaimed, Some(idx));
            self.attach(idx, entry);
            return InsertOutcome::Replaced;
        }
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                // A slot is 184 bytes, so grow by half, not double: at
                // most a third of a table's slots sit idle, not half.
                if self.slots.len() == self.slots.capacity() {
                    self.slots.reserve_exact((self.slots.len() / 2).max(4));
                }
                self.slots.push(Slot::default());
                self.slots.len() - 1
            }
        };
        self.attach(idx, entry);
        InsertOutcome::Added
    }

    /// Inserts at time zero — convenient in tests and for permanent
    /// pre-configured entries.
    pub fn insert(&mut self, entry: FlowEntry) -> InsertOutcome {
        self.insert_at(entry, 0)
    }

    /// Files `entry`, the newest install, in slot `idx`: at the end of
    /// its key's chain, or of `wild`.
    fn attach(&mut self, idx: usize, entry: FlowEntry) {
        match entry.matcher.exact_key() {
            Some(key) => match self.exact.entry(key) {
                Entry::Vacant(head) => {
                    head.insert(idx);
                }
                Entry::Occupied(head) => {
                    let mut last = *head.get();
                    while let Some(next) = self.slots[last].next {
                        last = next;
                    }
                    self.slots[last].next = Some(idx);
                }
            },
            None => self.wild.push(idx),
        }
        self.slots[idx] = Slot {
            entry: Some(entry),
            next: None,
        };
        self.len += 1;
    }

    fn detach(&mut self, idx: usize) -> FlowEntry {
        let Slot { entry, next } = std::mem::take(&mut self.slots[idx]);
        let entry = entry.expect("detach of empty slot");
        match entry.matcher.exact_key() {
            Some(key) => {
                let head = self.exact.get_mut(&key).expect("indexed");
                if *head == idx {
                    match next {
                        Some(next) => *head = next,
                        None => {
                            self.exact.remove(&key);
                        }
                    }
                } else {
                    let mut prev = *head;
                    while self.slots[prev].next != Some(idx) {
                        prev = self.slots[prev].next.expect("chained");
                    }
                    self.slots[prev].next = next;
                }
            }
            None => self.wild.retain(|&i| i != idx),
        }
        self.free.push(idx);
        self.len -= 1;
        entry
    }

    fn entry(&self, idx: usize) -> &FlowEntry {
        self.slots[idx].entry.as_ref().expect("live index")
    }

    /// The slots of `key`'s chain, oldest first.
    fn chain(&self, key: Option<&FlowKey>) -> impl Iterator<Item = usize> + '_ {
        let head = key.and_then(|k| self.exact.get(k).copied());
        std::iter::successors(head, |&i| self.slots[i].next)
    }

    /// The entry whose match equals `matcher` at `priority`. It can
    /// only sit in one index list: `attach` files by `exact_key()`.
    fn find_strict(&self, matcher: &Match, priority: u16) -> Option<usize> {
        let key = matcher.exact_key();
        let wild = if key.is_some() {
            &[][..]
        } else {
            &self.wild[..]
        };
        self.chain(key.as_ref())
            .chain(wild.iter().copied())
            .find(|&i| {
                let e = self.entry(i);
                e.priority == priority && e.matcher == *matcher
            })
    }

    /// Calls `f` on each entry a delete or modify flow-mod selects,
    /// oldest first. Strict: match equal to `matcher` and, if given,
    /// this priority. Non-strict: match subsumed by `matcher`.
    fn for_selected(
        &mut self,
        matcher: &Match,
        strict: bool,
        priority: Option<u16>,
        mut f: impl FnMut(&mut Self, usize),
    ) {
        let pick = |e: &FlowEntry| {
            if strict {
                e.matcher == *matcher && priority.is_none_or(|p| p == e.priority)
            } else {
                matcher.subsumes(&e.matcher)
            }
        };
        if let Some(key) = matcher.exact_key() {
            // An all-exact matcher only equals or subsumes matches with
            // its own `FlowKey`, so its chain holds every candidate. The
            // chain is in install order; read the next link before `f`
            // can detach the slot.
            let mut cur = self.chain(Some(&key)).next();
            while let Some(i) = cur {
                cur = self.slots[i].next;
                if pick(self.entry(i)) {
                    f(self, i);
                }
            }
            return;
        }
        let mut hits: Vec<(u64, usize)> = if strict {
            self.wild
                .iter()
                .map(|&i| (self.entry(i), i))
                .filter(|(e, _)| pick(e))
                .map(|(e, i)| (e.seq, i))
                .collect()
        } else {
            self.live()
                .filter(|&(_, e)| pick(e))
                .map(|(i, e)| (e.seq, i))
                .collect()
        };
        // Oldest-first, like expire(): removal notifications must not
        // depend on where the slots happen to sit.
        hits.sort_unstable_by_key(|&(seq, _)| seq);
        for (_, i) in hits {
            f(self, i);
        }
    }

    /// Every live slot and its entry, in slot order. Both consumers —
    /// expire, and a wildcard non-strict remove/modify_actions — sort
    /// by insertion `seq` before the order becomes observable.
    fn live(&self) -> impl Iterator<Item = (usize, &FlowEntry)> {
        (0..)
            .zip(&self.slots)
            .filter_map(|(i, s)| Some((i, s.entry.as_ref()?)))
    }

    fn best_candidate(&self, in_port: u32, key: &FlowKey) -> Option<usize> {
        let candidates = self
            .chain(Some(key))
            .chain(self.wild.iter().copied())
            .map(|i| {
                let e = self.entry(i);
                (i, e.seq, e)
            });
        top(candidates, in_port, key)
    }

    /// Looks up the entry that wins for a packet arriving on `in_port`
    /// with headers `key` (see [`outranks`]), updating its packet
    /// counter and idle clock.
    pub fn lookup(&mut self, in_port: u32, key: &FlowKey, now: Nanos) -> Option<&FlowEntry> {
        self.lookup_counting(in_port, key, now, 0)
    }

    /// [`FlowTable::lookup`] that also accumulates `bytes` into the
    /// entry's byte counter.
    pub fn lookup_counting(
        &mut self,
        in_port: u32,
        key: &FlowKey,
        now: Nanos,
        bytes: u64,
    ) -> Option<&FlowEntry> {
        let idx = self.best_candidate(in_port, key)?;
        let e = self.slots[idx].entry.as_mut().expect("live index");
        e.packet_count += 1;
        e.byte_count += bytes;
        e.last_used = now;
        Some(e)
    }

    /// Non-mutating lookup: no counter updates.
    pub fn peek(&self, in_port: u32, key: &FlowKey) -> Option<&FlowEntry> {
        let idx = self.best_candidate(in_port, key)?;
        Some(self.entry(idx))
    }

    /// Evicts entries whose idle or hard timeout has expired at `now`.
    ///
    /// Entries are evicted oldest-first (by insertion sequence), so
    /// the order of the resulting flow-removed notifications does not
    /// depend on where the slots happen to sit.
    pub fn expire(&mut self, now: Nanos) -> Vec<RemovedEntry> {
        let mut expired: Vec<(u64, usize, FlowRemovedReason)> = self
            .live()
            .filter_map(|(i, e)| {
                if let Some(hard) = e.hard_timeout {
                    if now >= e.created_at.saturating_add(hard) {
                        return Some((e.seq, i, FlowRemovedReason::HardTimeout));
                    }
                }
                if let Some(idle) = e.idle_timeout {
                    if now >= e.last_used.saturating_add(idle) {
                        return Some((e.seq, i, FlowRemovedReason::IdleTimeout));
                    }
                }
                None
            })
            .collect();
        expired.sort_unstable_by_key(|&(seq, ..)| seq);
        expired
            .into_iter()
            .map(|(_, i, reason)| RemovedEntry {
                entry: self.detach(i),
                reason,
            })
            .collect()
    }

    /// Deletes entries, per OpenFlow flow-mod delete semantics.
    ///
    /// * `strict`: remove only the entry with exactly this match and
    ///   (if given) priority.
    /// * non-strict: remove every entry whose match is subsumed by
    ///   `matcher` (priority ignored).
    pub fn remove(
        &mut self,
        matcher: &Match,
        strict: bool,
        priority: Option<u16>,
    ) -> Vec<RemovedEntry> {
        let mut removed = Vec::new();
        self.for_selected(matcher, strict, priority, |t, i| {
            // Mostly one entry: room for exactly one, then doubling.
            if removed.is_empty() {
                removed.reserve_exact(1);
            }
            removed.push(RemovedEntry {
                entry: t.detach(i),
                reason: FlowRemovedReason::Delete,
            });
        });
        removed
    }

    /// Replaces the action list of matching entries (OpenFlow modify:
    /// counters and timers are preserved). Returns how many entries
    /// changed.
    pub fn modify_actions(
        &mut self,
        matcher: &Match,
        strict: bool,
        actions: &[crate::action::Action],
    ) -> usize {
        let mut changed = 0;
        self.for_selected(matcher, strict, None, |t, i| {
            t.slots[i].entry.as_mut().expect("live index").actions = ActionList::from(actions);
            changed += 1;
        });
        changed
    }

    /// Iterates over all live entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> + Clone {
        self.slots.iter().filter_map(|s| s.entry.as_ref())
    }

    /// All live entries in install order (oldest first) — the order
    /// that decides equal-priority ties in [`FlowTable::lookup`], and
    /// the order [`winner`] takes them in.
    pub fn entries_in_install_order(&self) -> Vec<&FlowEntry> {
        let mut v: Vec<&FlowEntry> = self.iter().collect();
        v.sort_by_key(|e| e.seq);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, OutPort};
    use livesec_net::MacAddr;

    fn key(tp_dst: u16) -> FlowKey {
        FlowKey {
            vlan: None,
            dl_src: MacAddr::from_u64(1),
            dl_dst: MacAddr::from_u64(2),
            dl_type: 0x0800,
            nw_src: "10.0.0.1".parse().unwrap(),
            nw_dst: "10.0.0.2".parse().unwrap(),
            nw_proto: 6,
            tp_src: 555,
            tp_dst,
        }
    }

    fn out(p: u32) -> Vec<Action> {
        vec![Action::Output(OutPort::Physical(p))]
    }

    #[test]
    fn exact_lookup_hits() {
        let mut t = FlowTable::new();
        t.insert(FlowEntry::new(Match::exact(1, &key(80)), out(2), 10));
        assert_eq!(t.len(), 1);
        assert!(t.lookup(1, &key(80), 0).is_some());
        assert!(t.lookup(2, &key(80), 0).is_none(), "wrong port");
        assert!(t.lookup(1, &key(81), 0).is_none(), "wrong key");
    }

    #[test]
    fn priority_wins_over_wildcard() {
        let mut t = FlowTable::new();
        t.insert(FlowEntry::new(Match::any(), out(1), 1));
        t.insert(FlowEntry::new(Match::exact(1, &key(80)), out(2), 100));
        let e = t.peek(1, &key(80)).unwrap();
        assert_eq!(e.actions, out(2));
        // Unmatched traffic falls to the wildcard.
        let e2 = t.peek(9, &key(81)).unwrap();
        assert_eq!(e2.actions, out(1));
    }

    #[test]
    fn higher_priority_wildcard_beats_exact() {
        let mut t = FlowTable::new();
        t.insert(FlowEntry::new(Match::exact(1, &key(80)), out(2), 10));
        t.insert(FlowEntry::new(
            Match::any().with_tp_dst(80),
            vec![], // drop rule
            200,
        ));
        let e = t.peek(1, &key(80)).unwrap();
        assert!(e.actions.is_empty(), "drop rule must win");
    }

    #[test]
    fn tie_breaks_to_earlier_entry() {
        let mut t = FlowTable::new();
        t.insert(FlowEntry::new(Match::any().with_tp_dst(80), out(1), 5));
        t.insert(FlowEntry::new(Match::any().with_nw_proto(6), out(2), 5));
        let e = t.peek(1, &key(80)).unwrap();
        assert_eq!(e.actions, out(1), "first-installed wins ties");
    }

    #[test]
    fn add_replaces_same_match_and_priority() {
        let mut t = FlowTable::new();
        assert_eq!(
            t.insert(FlowEntry::new(Match::exact(1, &key(80)), out(2), 10)),
            InsertOutcome::Added
        );
        t.lookup_counting(1, &key(80), 0, 100);
        assert_eq!(
            t.insert(FlowEntry::new(Match::exact(1, &key(80)), out(3), 10)),
            InsertOutcome::Replaced
        );
        assert_eq!(t.len(), 1);
        let e = t.peek(1, &key(80)).unwrap();
        assert_eq!(e.actions, out(3));
        assert_eq!(e.packet_count, 0, "replace resets counters");
    }

    #[test]
    fn same_match_different_priority_coexist() {
        let mut t = FlowTable::new();
        t.insert(FlowEntry::new(Match::exact(1, &key(80)), out(2), 10));
        t.insert(FlowEntry::new(Match::exact(1, &key(80)), out(3), 20));
        assert_eq!(t.len(), 2);
        assert_eq!(t.peek(1, &key(80)).unwrap().actions, out(3));
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new();
        t.insert(FlowEntry::new(Match::exact(1, &key(80)), out(2), 10));
        t.lookup_counting(1, &key(80), 10, 1500);
        t.lookup_counting(1, &key(80), 20, 1500);
        let e = t.peek(1, &key(80)).unwrap();
        assert_eq!(e.packet_count, 2);
        assert_eq!(e.byte_count, 3000);
        assert_eq!(e.last_used, 20);
    }

    #[test]
    fn idle_timeout_expires_only_when_unused() {
        let mut t = FlowTable::new();
        let mut e = FlowEntry::new(Match::exact(1, &key(80)), out(2), 10);
        e.idle_timeout = Some(100);
        t.insert_at(e, 0);
        // Used at t=50: stays alive at t=120.
        t.lookup(1, &key(80), 50);
        assert!(t.expire(120).is_empty());
        // Unused since 50: evicted at 150.
        let removed = t.expire(150);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, FlowRemovedReason::IdleTimeout);
        assert!(t.is_empty());
    }

    #[test]
    fn hard_timeout_expires_despite_use() {
        let mut t = FlowTable::new();
        let mut e = FlowEntry::new(Match::exact(1, &key(80)), out(2), 10);
        e.hard_timeout = Some(100);
        t.insert_at(e, 0);
        t.lookup(1, &key(80), 90);
        let removed = t.expire(100);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, FlowRemovedReason::HardTimeout);
    }

    #[test]
    fn max_timeout_never_expires_and_never_panics() {
        // Regression: `created_at + u64::MAX` overflowed (a panic under
        // `overflow-checks`), and the codec decodes any u64 off the wire.
        let mut t = FlowTable::new();
        let mut e = FlowEntry::new(Match::exact(1, &key(80)), out(2), 10);
        e.idle_timeout = Some(u64::MAX);
        e.hard_timeout = Some(u64::MAX);
        t.insert_at(e, 5);
        assert!(t.expire(10).is_empty(), "a saturated deadline is never due");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn strict_remove() {
        let mut t = FlowTable::new();
        t.insert(FlowEntry::new(Match::exact(1, &key(80)), out(2), 10));
        t.insert(FlowEntry::new(Match::exact(1, &key(81)), out(2), 10));
        let removed = t.remove(&Match::exact(1, &key(80)), true, Some(10));
        assert_eq!(removed.len(), 1);
        assert_eq!(t.len(), 1);
        // Wrong priority removes nothing.
        assert!(t
            .remove(&Match::exact(1, &key(81)), true, Some(99))
            .is_empty());
    }

    #[test]
    fn nonstrict_remove_subsumes() {
        let mut t = FlowTable::new();
        t.insert(FlowEntry::new(Match::exact(1, &key(80)), out(2), 10));
        t.insert(FlowEntry::new(Match::exact(2, &key(81)), out(2), 20));
        t.insert(FlowEntry::new(Match::any().with_dl_type(0x0806), out(3), 5));
        // Delete everything IPv4.
        let removed = t.remove(&Match::any().with_dl_type(0x0800), false, None);
        assert_eq!(removed.len(), 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn modify_preserves_counters() {
        let mut t = FlowTable::new();
        t.insert(FlowEntry::new(Match::exact(1, &key(80)), out(2), 10));
        t.lookup_counting(1, &key(80), 5, 100);
        let n = t.modify_actions(&Match::exact(1, &key(80)), true, &out(7));
        assert_eq!(n, 1);
        let e = t.peek(1, &key(80)).unwrap();
        assert_eq!(e.actions, out(7));
        assert_eq!(e.packet_count, 1, "modify keeps counters");
    }

    #[test]
    fn replace_then_insert_does_not_corrupt_slots() {
        // Regression: replacement must reclaim the slot it reuses from
        // the free list, or a later insert double-books it.
        let mut t = FlowTable::new();
        t.insert(FlowEntry::new(Match::exact(1, &key(80)), out(2), 10));
        t.insert(FlowEntry::new(Match::exact(1, &key(80)), out(3), 10)); // replace
        t.insert(FlowEntry::new(Match::exact(1, &key(81)), out(4), 10)); // new
        assert_eq!(t.len(), 2);
        assert_eq!(t.peek(1, &key(80)).unwrap().actions, out(3));
        assert_eq!(t.peek(1, &key(81)).unwrap().actions, out(4));
        // Deleting everything must not panic on stale duplicate
        // indices.
        let removed = t.remove(&Match::any(), false, None);
        assert_eq!(removed.len(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn slots_grow_by_half() {
        let mut t = FlowTable::new();
        let mut caps = Vec::new();
        for i in 0..20u16 {
            t.insert(FlowEntry::new(Match::exact(1, &key(i)), out(2), 1));
            if caps.last() != Some(&t.slots.capacity()) {
                caps.push(t.slots.capacity());
            }
        }
        assert_eq!(caps, [4, 8, 12, 18, 27]);
    }

    #[test]
    fn slot_reuse_after_removal() {
        let mut t = FlowTable::new();
        for i in 0..10u16 {
            t.insert(FlowEntry::new(Match::exact(1, &key(i)), out(2), 1));
        }
        t.remove(&Match::any(), false, None);
        assert!(t.is_empty());
        for i in 0..10u16 {
            t.insert(FlowEntry::new(Match::exact(1, &key(100 + i)), out(2), 1));
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.iter().count(), 10);
        assert!(t.peek(1, &key(5)).is_none(), "old entries gone");
        assert!(t.peek(1, &key(105)).is_some(), "new entries present");
    }
}
