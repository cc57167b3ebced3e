//! The flow table: priority lookup, timeouts, counters.

use crate::flow_match::Match;
use livesec_net::{FixedState, FlowKey};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Absolute simulated time in nanoseconds.
///
/// The table doesn't depend on the simulator crate, so time crosses
/// this boundary as a plain integer.
pub type Nanos = u64;

/// One flow-table entry.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlowEntry {
    /// The match.
    pub matcher: Match,
    /// Action list (empty = drop).
    pub actions: Vec<crate::action::Action>,
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
    #[serde(skip)]
    seq: u64,
}

impl FlowEntry {
    /// Creates a permanent entry with zeroed counters.
    pub fn new(matcher: Match, actions: Vec<crate::action::Action>, priority: u16) -> Self {
        FlowEntry {
            matcher,
            actions,
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

    /// Sets the idle timeout.
    pub fn with_idle_timeout(mut self, nanos: Nanos) -> Self {
        self.idle_timeout = Some(nanos);
        self
    }

    /// Sets the hard timeout.
    pub fn with_hard_timeout(mut self, nanos: Nanos) -> Self {
        self.hard_timeout = Some(nanos);
        self
    }

    /// Sets the cookie.
    pub fn with_cookie(mut self, cookie: u64) -> Self {
        self.cookie = cookie;
        self
    }

    /// Requests a flow-removed notification on eviction.
    pub fn with_removed_notification(mut self) -> Self {
        self.notify_removed = true;
        self
    }
}

/// Why an entry left the table.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RemovalReason {
    /// Idle timeout expired.
    IdleTimeout,
    /// Hard timeout expired.
    HardTimeout,
    /// Deleted by a flow-mod.
    Delete,
}

/// An evicted entry plus the reason.
#[derive(Clone, Debug, PartialEq)]
pub struct RemovedEntry {
    /// The entry as it was at eviction (final counters).
    pub entry: FlowEntry,
    /// Why it was evicted.
    pub reason: RemovalReason,
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
/// Entries whose nine header fields are all exact sit in a hash index
/// keyed by [`FlowKey`]; wildcard entries sit in one list, `wild`. With
/// LiveSec's workload — thousands of exact steering entries plus a
/// handful of wildcard policy entries — both the data path and the
/// flow-mod write path stay O(1) in the table size `n`:
///
/// * `lookup` / `lookup_counting` / `peek`: one hash probe plus a scan
///   of `wild` — O(bucket + |wild|).
/// * `insert_at` (fresh or replace), `contains_strict`, and `remove` /
///   `modify_actions` whose matcher has exact headers (strict or not):
///   one hash probe — O(bucket), a bucket being the entries that share
///   one `FlowKey` (they differ in `in_port` or priority only).
/// * The same operations with a wildcard matcher, strict: O(|wild|).
/// * Non-strict `remove` / `modify_actions` with a wildcard matcher,
///   and `expire`: O(n). Wildcard deletes are rare (a block lifted, a
///   table wipe), and the expiry walk is at most 1.3 % of the busiest
///   workload's wall time (EXPERIMENTS.md E16, where a deadline heap
///   moved nothing end to end), so neither has an index of its own.
#[derive(Debug, Default)]
pub struct FlowTable {
    slots: Vec<Option<FlowEntry>>,
    free: Vec<usize>,
    exact: HashMap<FlowKey, Vec<usize>, FixedState>,
    wild: Vec<usize>,
    next_seq: u64,
    len: usize,
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
                self.slots.push(None);
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

    fn attach(&mut self, idx: usize, entry: FlowEntry) {
        match entry.matcher.exact_key() {
            Some(key) => self.exact.entry(key).or_default().push(idx),
            None => self.wild.push(idx),
        }
        self.slots[idx] = Some(entry);
        self.len += 1;
    }

    fn detach(&mut self, idx: usize) -> FlowEntry {
        let entry = self.slots[idx].take().expect("detach of empty slot");
        match entry.matcher.exact_key() {
            Some(key) => {
                let bucket = self.exact.get_mut(&key).expect("indexed");
                bucket.retain(|&i| i != idx);
                if bucket.is_empty() {
                    self.exact.remove(&key);
                }
            }
            None => self.wild.retain(|&i| i != idx),
        }
        self.free.push(idx);
        self.len -= 1;
        entry
    }

    /// The one index list that holds every entry whose match equals
    /// `matcher` — and, when `matcher` has exact headers, every entry
    /// it subsumes too: `attach` files by the same `exact_key()`, and
    /// an all-exact matcher only subsumes matches with its `FlowKey`.
    fn bucket(&self, matcher: &Match) -> &[usize] {
        match matcher.exact_key() {
            Some(key) => self.exact.get(&key).map_or(&[], Vec::as_slice),
            None => &self.wild,
        }
    }

    fn find_strict(&self, matcher: &Match, priority: u16) -> Option<usize> {
        self.bucket(matcher).iter().copied().find(|&i| {
            let e = self.slots[i].as_ref().expect("live index");
            e.priority == priority && e.matcher == *matcher
        })
    }

    /// `(seq, index)` of the entries a delete or modify flow-mod
    /// selects, oldest first. Strict: match equal to `matcher` and, if
    /// given, this priority. Non-strict: match subsumed by `matcher`.
    fn select(&self, matcher: &Match, strict: bool, priority: Option<u16>) -> Vec<(u64, usize)> {
        let pick = |i: usize| {
            let e = self.slots[i].as_ref().expect("live index");
            let hit = if strict {
                e.matcher == *matcher && priority.map(|p| p == e.priority).unwrap_or(true)
            } else {
                matcher.subsumes(&e.matcher)
            };
            hit.then_some((e.seq, i))
        };
        let mut hits: Vec<(u64, usize)> = if strict || matcher.is_exact_headers() {
            self.bucket(matcher)
                .iter()
                .copied()
                .filter_map(pick)
                .collect()
        } else {
            self.indices().filter_map(pick).collect()
        };
        // Oldest-first, like expire(): removal notifications must not
        // inherit the hash index's iteration order.
        hits.sort_unstable_by_key(|&(seq, _)| seq);
        hits
    }

    fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        // Contract: both consumers — expire, and select for a wildcard
        // non-strict remove/modify_actions — sort by insertion `seq`
        // before the order becomes observable. Keeping the exact index
        // a HashMap keeps lookups and strict flow-mods O(1).
        // livesec-lint: allow(unordered-iter, reason = "expire and wildcard non-strict remove/modify_actions sort by seq before the order is observable")
        self.exact
            .values()
            .flatten()
            .copied()
            .chain(self.wild.iter().copied())
    }

    fn best_candidate(&self, in_port: u32, key: &FlowKey) -> Option<usize> {
        let mut best: Option<(u16, u64, usize)> = None; // (priority, Reverse-ish seq, idx)
        let consider = |best: &mut Option<(u16, u64, usize)>, i: usize, e: &FlowEntry| {
            let cand = (e.priority, u64::MAX - e.seq, i);
            if best
                .map(|(p, s, _)| (cand.0, cand.1) > (p, s))
                .unwrap_or(true)
            {
                *best = Some(cand);
            }
        };
        if let Some(bucket) = self.exact.get(key) {
            for &i in bucket {
                let e = self.slots[i].as_ref().expect("live index");
                if e.matcher.matches(in_port, key) {
                    consider(&mut best, i, e);
                }
            }
        }
        for &i in &self.wild {
            let e = self.slots[i].as_ref().expect("live index");
            if e.matcher.matches(in_port, key) {
                consider(&mut best, i, e);
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// Looks up the highest-priority entry matching a packet of
    /// `bytes` bytes arriving on `in_port` with headers `key`,
    /// updating the entry's counters and idle clock.
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
        let e = self.slots[idx].as_mut().expect("live index");
        e.packet_count += 1;
        e.byte_count += bytes;
        e.last_used = now;
        Some(self.slots[idx].as_ref().expect("live index"))
    }

    /// Whether an entry with exactly this match and priority exists
    /// (the entry an `ADD` would replace).
    pub fn contains_strict(&self, matcher: &Match, priority: u16) -> bool {
        self.find_strict(matcher, priority).is_some()
    }

    /// Non-mutating lookup: no counter updates.
    pub fn peek(&self, in_port: u32, key: &FlowKey) -> Option<&FlowEntry> {
        let idx = self.best_candidate(in_port, key)?;
        Some(self.slots[idx].as_ref().expect("live index"))
    }

    /// Evicts entries whose idle or hard timeout has expired at `now`.
    ///
    /// Entries are evicted oldest-first (by insertion sequence), so
    /// the order of the resulting flow-removed notifications does not
    /// depend on the hash index's iteration order.
    pub fn expire(&mut self, now: Nanos) -> Vec<RemovedEntry> {
        let mut expired: Vec<(u64, usize, RemovalReason)> = self
            .indices()
            .filter_map(|i| {
                let e = self.slots[i].as_ref().expect("live index");
                if let Some(hard) = e.hard_timeout {
                    if now >= e.created_at.saturating_add(hard) {
                        return Some((e.seq, i, RemovalReason::HardTimeout));
                    }
                }
                if let Some(idle) = e.idle_timeout {
                    if now >= e.last_used.saturating_add(idle) {
                        return Some((e.seq, i, RemovalReason::IdleTimeout));
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
        self.select(matcher, strict, priority)
            .into_iter()
            .map(|(_, i)| RemovedEntry {
                entry: self.detach(i),
                reason: RemovalReason::Delete,
            })
            .collect()
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
        let targets = self.select(matcher, strict, None);
        for &(_, i) in &targets {
            self.slots[i].as_mut().expect("live index").actions = actions.to_vec();
        }
        targets.len()
    }

    /// Iterates over all live entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// All live entries in install order (oldest first) — the order
    /// that decides equal-priority ties in [`FlowTable::lookup`], and
    /// therefore the order a dataplane verifier must reason in.
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
        t.insert_at(
            FlowEntry::new(Match::exact(1, &key(80)), out(2), 10).with_idle_timeout(100),
            0,
        );
        // Used at t=50: stays alive at t=120.
        t.lookup(1, &key(80), 50);
        assert!(t.expire(120).is_empty());
        // Unused since 50: evicted at 150.
        let removed = t.expire(150);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, RemovalReason::IdleTimeout);
        assert!(t.is_empty());
    }

    #[test]
    fn hard_timeout_expires_despite_use() {
        let mut t = FlowTable::new();
        t.insert_at(
            FlowEntry::new(Match::exact(1, &key(80)), out(2), 10).with_hard_timeout(100),
            0,
        );
        t.lookup(1, &key(80), 90);
        let removed = t.expire(100);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, RemovalReason::HardTimeout);
    }

    #[test]
    fn max_timeout_never_expires_and_never_panics() {
        // Regression: `created_at + u64::MAX` overflowed (a panic under
        // `overflow-checks`), and the codec decodes any u64 off the wire.
        let mut t = FlowTable::new();
        t.insert_at(
            FlowEntry::new(Match::exact(1, &key(80)), out(2), 10)
                .with_idle_timeout(u64::MAX)
                .with_hard_timeout(u64::MAX),
            5,
        );
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
