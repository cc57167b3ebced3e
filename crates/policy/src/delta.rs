//! The delta compiler: `(old_table, new_table)` → the minimal,
//! deterministically ordered [`PolicyDelta`] edit script.
//!
//! Rule identity is the (unique) rule name. The diff keeps the
//! longest common subsequence of names as the stable backbone:
//! same-name rules inside it that changed content become `Replace`
//! (position preserved), everything else is removed then reinserted.
//! Emission order is fixed — removes by descending old index, inserts
//! by ascending final index, then `SetDefault` and `SetAppAction` —
//! so applying the script in order with plain index arithmetic
//! reproduces the new table exactly.

use livesec::policy::{PolicyDelta, PolicyTable};
use std::collections::{BTreeMap, BTreeSet};

/// Diffs two tables into an edit script. Applying every delta, in
/// order, to `old` yields a table equal to `new`; equal tables
/// produce an empty script.
pub fn diff(old: &PolicyTable, new: &PolicyTable) -> Vec<PolicyDelta> {
    let old_names: Vec<&str> = old.iter().map(|r| r.name.as_str()).collect();
    let new_names: Vec<&str> = new.iter().map(|r| r.name.as_str()).collect();
    let backbone = lcs(&old_names, &new_names);

    let mut deltas = Vec::new();

    // Removes: every old rule off the backbone, deepest index first
    // so earlier removals don't shift later ones.
    for name in old_names.iter().rev() {
        if !backbone.contains(name) {
            deltas.push(PolicyDelta::Remove {
                name: (*name).to_owned(),
            });
        }
    }

    // Replaces: backbone rules whose content changed.
    for rule in new.iter() {
        if backbone.contains(rule.name.as_str()) {
            if let Some(old_rule) = old.get(&rule.name) {
                if old_rule != rule {
                    deltas.push(PolicyDelta::Replace { rule: rule.clone() });
                }
            }
        }
    }

    // Inserts: everything off the backbone, at its final index in
    // ascending order — each lands exactly where `new` has it.
    for (i, rule) in new.iter().enumerate() {
        if !backbone.contains(rule.name.as_str()) {
            deltas.push(PolicyDelta::Insert {
                index: i,
                rule: rule.clone(),
            });
        }
    }

    if old.default_decision() != new.default_decision() {
        deltas.push(PolicyDelta::SetDefault {
            decision: new.default_decision().clone(),
        });
    }

    // App actions: removals then sets, each sorted by app name.
    let old_apps: BTreeMap<&str, _> = old
        .app_actions()
        .iter()
        .map(|(a, x)| (a.as_str(), *x))
        .collect();
    let new_apps: BTreeMap<&str, _> = new
        .app_actions()
        .iter()
        .map(|(a, x)| (a.as_str(), *x))
        .collect();
    for app in old_apps.keys() {
        if !new_apps.contains_key(app) {
            deltas.push(PolicyDelta::SetAppAction {
                app: (*app).to_owned(),
                action: None,
            });
        }
    }
    for (app, action) in &new_apps {
        if old_apps.get(app) != Some(action) {
            deltas.push(PolicyDelta::SetAppAction {
                app: (*app).to_owned(),
                action: Some(*action),
            });
        }
    }

    deltas
}

/// The set of names on a longest common subsequence of the two name
/// sequences (classic O(n·m) DP; names are unique per table, so the
/// set form loses nothing).
#[allow(
    clippy::indexing_slicing,
    reason = "i < n and j < m bound every index, and dp has (n + 1) * (m + 1) cells"
)]
fn lcs<'a>(old: &[&'a str], new: &[&'a str]) -> BTreeSet<&'a str> {
    let (n, m) = (old.len(), new.len());
    // dp[i][j] = LCS length of old[i..] vs new[j..], flattened.
    let mut dp = vec![0u32; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[idx(i, j)] = if old[i] == new[j] {
                dp[idx(i + 1, j + 1)] + 1
            } else {
                dp[idx(i + 1, j)].max(dp[idx(i, j + 1)])
            };
        }
    }
    let mut keep = BTreeSet::new();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if old[i] == new[j] {
            keep.insert(old[i]);
            i += 1;
            j += 1;
        } else if dp[idx(i + 1, j)] >= dp[idx(i, j + 1)] {
            i += 1;
        } else {
            j += 1;
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use livesec::policy::{AppAction, PolicyDecision, PolicyRule};

    fn table(names: &[&str]) -> PolicyTable {
        let mut t = PolicyTable::allow_all();
        for n in names {
            t.push(PolicyRule::named(n).proto(6).deny());
        }
        t
    }

    fn apply_all(mut t: PolicyTable, deltas: &[PolicyDelta]) -> PolicyTable {
        for d in deltas {
            t.apply_delta(d);
        }
        t
    }

    #[test]
    fn equal_tables_diff_empty() {
        let t = table(&["a", "b", "c"]);
        assert!(diff(&t, &t.clone()).is_empty());
    }

    #[test]
    fn single_insert_is_one_delta() {
        let old = table(&["a", "c"]);
        let new = table(&["a", "b", "c"]);
        let deltas = diff(&old, &new);
        assert_eq!(deltas.len(), 1);
        assert!(matches!(&deltas[0], PolicyDelta::Insert { index: 1, rule } if rule.name == "b"));
        assert_eq!(apply_all(old, &deltas), new);
    }

    #[test]
    fn content_change_is_replace_not_churn() {
        let old = table(&["a", "b", "c"]);
        let mut new = table(&["a", "b", "c"]);
        new.replace_named(PolicyRule::named("b").proto(17).deny());
        let deltas = diff(&old, &new);
        assert_eq!(deltas.len(), 1);
        assert!(
            matches!(&deltas[0], PolicyDelta::Replace { rule } if rule.matcher.nw_proto == Some(17))
        );
        assert_eq!(apply_all(old, &deltas), new);
    }

    #[test]
    fn reorder_removes_then_reinserts() {
        let old = table(&["a", "b", "c", "d"]);
        let new = table(&["d", "a", "b", "c"]);
        let deltas = diff(&old, &new);
        // LCS keeps a,b,c; d moves: one remove + one insert.
        assert_eq!(deltas.len(), 2);
        assert!(matches!(&deltas[0], PolicyDelta::Remove { name } if name == "d"));
        assert!(matches!(&deltas[1], PolicyDelta::Insert { index: 0, rule } if rule.name == "d"));
        assert_eq!(apply_all(old, &deltas), new);
    }

    #[test]
    fn defaults_and_app_actions_diff() {
        let mut old = table(&["a"]);
        old.on_app("bt", AppAction::Block);
        old.on_app("voip", AppAction::Allow);
        let mut new = table(&["a"]);
        new.set_default(PolicyDecision::Deny);
        new.on_app("bt", AppAction::Allow);
        let deltas = diff(&old, &new);
        assert_eq!(deltas.len(), 3, "{deltas:?}");
        assert!(matches!(
            &deltas[0],
            PolicyDelta::SetDefault {
                decision: PolicyDecision::Deny
            }
        ));
        assert!(matches!(
            &deltas[1],
            PolicyDelta::SetAppAction { app, action: None } if app == "voip"
        ));
        assert!(matches!(
            &deltas[2],
            PolicyDelta::SetAppAction {
                app,
                action: Some(AppAction::Allow)
            } if app == "bt"
        ));
        assert_eq!(apply_all(old, &deltas), new);
    }

    #[test]
    fn scrambled_edit_still_converges() {
        let old = table(&["a", "b", "c", "d", "e", "f"]);
        let mut new = table(&["f", "b", "x", "d", "a"]);
        new.replace_named(PolicyRule::named("d").proto(17).deny());
        let deltas = diff(&old, &new);
        assert_eq!(apply_all(old, &deltas), new);
    }
}
