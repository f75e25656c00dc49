//! A persistent ordered map: a B+ tree whose nodes sit behind `Arc`s.
//!
//! Cloning a map is one reference-count bump, and so is dropping a clone
//! that shares its root. [`PMap::insert`] and [`PMap::remove`] copy only
//! the nodes on the path from the root to the key that the map shares with
//! another clone (`Arc::make_mut`), update the nodes it owns alone in
//! place, and share every other subtree — so a snapshot taken before an
//! update never sees it, and a burst of updates after one snapshot copies
//! each path node once. Nodes hold up to [`MAX`] entries, so the tree is
//! shallow: three levels cover tens of thousands of keys. This is the
//! storage under [`crate::goal::HypContext`], where every compiled
//! statement snapshots the goal and then changes a handful of entries.
//!
//! A removal never merges nodes; a node left empty is unlinked from its
//! parent. The map's users replace removed keys at about the rate they
//! remove them, so underfull nodes cost little and the depth stays
//! logarithmic in the largest size the map has had.

use std::sync::Arc;

/// Maximum entries per node; a node that grows past it splits in half.
const MAX: usize = 32;

#[derive(Clone)]
enum Node<K, V> {
    /// Entries in key order.
    Leaf(Vec<(K, V)>),
    /// Children in key order, each with a lower bound of its keys (the
    /// first child's bound is never consulted).
    Branch(Vec<Child<K, V>>),
}

/// A branch's child with its lower bound (also: a split-off sibling).
type Child<K, V> = (K, Arc<Node<K, V>>);

/// Which child of a branch holds `key`: the last whose lower bound is
/// `≤ key`, or the first.
fn child_for<K: Ord, V>(children: &[Child<K, V>], key: &K) -> usize {
    children
        .partition_point(|(lo, _)| lo <= key)
        .saturating_sub(1)
}

impl<K: Ord + Clone, V: Clone> Node<K, V> {
    fn first_key(&self) -> Option<&K> {
        match self {
            Node::Leaf(items) => items.first().map(|(k, _)| k),
            Node::Branch(children) => children.first().map(|(k, _)| k),
        }
    }

    fn get(&self, key: &K) -> Option<&V> {
        match self {
            Node::Leaf(items) => items
                .binary_search_by(|(k, _)| k.cmp(key))
                .ok()
                .map(|i| &items[i].1),
            Node::Branch(children) => children[child_for(children, key)].1.get(key),
        }
    }

    /// Splits off the upper half of an overfull node, returning it with
    /// its lower bound.
    fn split(&mut self) -> Option<Child<K, V>> {
        let upper = match self {
            Node::Leaf(items) if items.len() > MAX => Node::Leaf(items.split_off(items.len() / 2)),
            Node::Branch(children) if children.len() > MAX => {
                Node::Branch(children.split_off(children.len() / 2))
            }
            _ => return None,
        };
        let bound = upper.first_key()?.clone();
        Some((bound, Arc::new(upper)))
    }
}

/// Inserts or replaces below `node`: returns the split-off sibling if
/// `node` overflowed.
fn insert<K: Ord + Clone, V: Clone>(
    node: &mut Arc<Node<K, V>>,
    key: K,
    val: V,
) -> Option<Child<K, V>> {
    let node = Arc::make_mut(node);
    match node {
        Node::Leaf(items) => match items.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => items[i].1 = val,
            Err(i) => items.insert(i, (key, val)),
        },
        Node::Branch(children) => {
            let i = child_for(children, &key);
            if let Some(sibling) = insert(&mut children[i].1, key, val) {
                children.insert(i + 1, sibling);
            }
        }
    }
    node.split()
}

/// Removes `key` (known to be present) below `node`; returns whether
/// `node` is now empty.
fn remove<K: Ord + Clone, V: Clone>(node: &mut Arc<Node<K, V>>, key: &K) -> bool {
    match Arc::make_mut(node) {
        Node::Leaf(items) => {
            if let Ok(i) = items.binary_search_by(|(k, _)| k.cmp(key)) {
                items.remove(i);
            }
            items.is_empty()
        }
        Node::Branch(children) => {
            let i = child_for(children, key);
            if remove(&mut children[i].1, key) {
                children.remove(i);
            }
            children.is_empty()
        }
    }
}

/// A persistent ordered map (see the module doc).
#[derive(Clone)]
pub(crate) struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None }
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// The value under `key`.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.root.as_ref()?.get(key)
    }

    /// Inserts `key ↦ val`, replacing any previous value.
    pub(crate) fn insert(&mut self, key: K, val: V) {
        let Some(root) = &mut self.root else {
            self.root = Some(Arc::new(Node::Leaf(vec![(key, val)])));
            return;
        };
        if let Some(upper) = insert(root, key, val) {
            let lower = Arc::clone(root);
            let bound = lower
                .first_key()
                .cloned()
                .unwrap_or_else(|| upper.0.clone());
            self.root = Some(Arc::new(Node::Branch(vec![(bound, lower), upper])));
        }
    }

    /// Removes `key` if present.
    pub(crate) fn remove(&mut self, key: &K) {
        if self.get(key).is_none() {
            return; // leave every shared node shared
        }
        if self.root.as_mut().is_some_and(|root| remove(root, key)) {
            self.root = None;
        }
    }

    /// The entries with keys `≥ lo`, in key order.
    pub(crate) fn range_from(&self, lo: &K) -> Iter<'_, K, V> {
        let mut it = Iter {
            branches: Vec::new(),
            leaf: &[],
        };
        let mut cur = self.root.as_deref();
        while let Some(node) = cur {
            match node {
                Node::Leaf(items) => {
                    it.leaf = &items[items.partition_point(|(k, _)| k < lo)..];
                    cur = None;
                }
                Node::Branch(children) => {
                    let i = child_for(children, lo);
                    it.branches.push(&children[i + 1..]);
                    cur = Some(&children[i].1);
                }
            }
        }
        it
    }

    /// Every entry, in key order.
    pub(crate) fn iter(&self) -> Iter<'_, K, V> {
        let mut it = Iter {
            branches: Vec::new(),
            leaf: &[],
        };
        if let Some(root) = &self.root {
            it.descend(root);
        }
        it
    }
}

/// In-order iterator over a [`PMap`]: the unvisited children of each
/// branch on the current path, and the rest of the current leaf.
pub(crate) struct Iter<'a, K, V> {
    branches: Vec<&'a [Child<K, V>]>,
    leaf: &'a [(K, V)],
}

impl<'a, K, V> Iter<'a, K, V> {
    /// Enters `node` at its first entry.
    fn descend(&mut self, mut node: &'a Node<K, V>) {
        loop {
            match node {
                Node::Leaf(items) => {
                    self.leaf = items;
                    return;
                }
                Node::Branch(children) => {
                    let Some(((_, first), rest)) = children.split_first() else {
                        return;
                    };
                    self.branches.push(rest);
                    node = first;
                }
            }
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(((k, v), rest)) = self.leaf.split_first() {
                self.leaf = rest;
                return Some((k, v));
            }
            // Leaf exhausted: climb to the nearest branch with an
            // unvisited child and enter it.
            let siblings = self.branches.last_mut()?;
            match siblings.split_first() {
                Some(((_, next), rest)) => {
                    *siblings = rest;
                    self.descend(next);
                }
                None => {
                    self.branches.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Every node's keys are sorted and inside its bounds; no node is
    /// empty or overfull.
    fn check_node<K: Ord, V>(node: &Node<K, V>, lo: Option<&K>, hi: Option<&K>) {
        let in_bounds = |k: &K| lo.is_none_or(|lo| lo <= k) && hi.is_none_or(|hi| k < hi);
        match node {
            Node::Leaf(items) => {
                assert!(!items.is_empty() && items.len() <= MAX);
                assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
                assert!(
                    items.iter().all(|(k, _)| in_bounds(k)),
                    "leaf out of bounds"
                );
            }
            Node::Branch(children) => {
                assert!(!children.is_empty() && children.len() <= MAX);
                for (i, (bound, child)) in children.iter().enumerate() {
                    let child_lo = if i == 0 { lo } else { Some(bound) };
                    let child_hi = children.get(i + 1).map(|(b, _)| b).or(hi);
                    check_node(child, child_lo, child_hi);
                }
            }
        }
    }

    fn entries(map: &PMap<u64, u64>) -> Vec<(u64, u64)> {
        map.iter().map(|(k, v)| (*k, *v)).collect()
    }

    #[test]
    fn matches_btreemap_and_keeps_snapshots() {
        let mut map: PMap<u64, u64> = PMap::default();
        let mut model = BTreeMap::new();
        let mut snapshots = Vec::new();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Grow to ~1,500 keys, shrink to near empty, then regrow.
            let key = x % 2048;
            let removing = if (4000..12_000).contains(&step) {
                !x.is_multiple_of(4)
            } else {
                x.is_multiple_of(3)
            };
            if removing {
                map.remove(&key);
                model.remove(&key);
            } else {
                map.insert(key, step);
                model.insert(key, step);
            }
            if step % 997 == 0 {
                snapshots.push((map.clone(), model.clone()));
            }
            assert_eq!(map.get(&key), model.get(&key));
            if step % 1000 == 0 {
                assert_eq!(map.iter().count(), model.len());
                if let Some(root) = &map.root {
                    check_node(root, None, None);
                }
                let lo = x % 2100;
                assert!(map
                    .range_from(&lo)
                    .map(|(k, v)| (*k, *v))
                    .eq(model.range(lo..).map(|(k, v)| (*k, *v))));
            }
        }
        assert_eq!(entries(&map), model.into_iter().collect::<Vec<_>>());
        for (snap, snap_model) in snapshots {
            assert_eq!(entries(&snap), snap_model.into_iter().collect::<Vec<_>>());
        }
    }
}
