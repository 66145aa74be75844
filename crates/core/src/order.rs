//! Strict partial orders over tuple ids, and linear-extension machinery.
//!
//! A currency order `≺_A` is a strict partial order over the tuples of a
//! temporal instance in which only same-entity tuples are comparable.  This
//! module stores orders as explicit pair sets and provides the closure,
//! cycle-detection and linear-extension operations that the completion
//! semantics (paper §2) and the PTIME fixpoint algorithm (paper Theorem
//! 6.1) are built from.

use crate::cow::{Paged, PagedMap};
use crate::value::TupleId;
use std::collections::{BTreeMap, BTreeSet};

/// A binary relation over tuple ids, interpreted as "lesser ≺ greater"
/// (the right component is *more current*).
///
/// The stored pair set is not automatically transitively closed; call
/// [`OrderRelation::transitive_closure`] to materialize the closure.  An
/// order is *valid* if its closure is irreflexive (equivalently: acyclic).
///
/// The pair set is a [`PagedMap`], so a cloned order shares its pages
/// with the original until one of them writes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OrderRelation {
    pairs: PagedMap<(TupleId, TupleId), ()>,
}

impl OrderRelation {
    /// Create an empty order.
    pub fn new() -> OrderRelation {
        OrderRelation::default()
    }

    /// Record `lesser ≺ greater`.  Returns `true` if the pair is new.
    pub fn add(&mut self, lesser: TupleId, greater: TupleId) -> bool {
        self.pairs.insert((lesser, greater), ()).is_none()
    }

    /// `true` iff the pair `lesser ≺ greater` is stored (no closure).
    pub fn contains(&self, lesser: TupleId, greater: TupleId) -> bool {
        self.pairs.contains_key(&(lesser, greater))
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` if no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterate over the stored `(lesser, greater)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, TupleId)> + '_ {
        self.pairs.keys().copied()
    }

    /// Iterate over the stored pairs whose *lesser* side is `lesser`.
    ///
    /// A range scan over the ordered pair set — the per-entity encoding
    /// passes use this to collect one tuple's outgoing edges without
    /// walking the whole relation's order.
    pub fn pairs_from(&self, lesser: TupleId) -> impl Iterator<Item = (TupleId, TupleId)> + '_ {
        self.pairs
            .range((lesser, TupleId(u32::MIN))..=(lesser, TupleId(u32::MAX)))
            .map(|(&pair, _)| pair)
    }

    /// Remove the pair `lesser ≺ greater`.  Returns `true` if it was stored.
    pub fn remove(&mut self, lesser: TupleId, greater: TupleId) -> bool {
        self.pairs.remove(&(lesser, greater)).is_some()
    }

    /// Remove every pair mentioning `t` (on either side).  Returns the
    /// number of pairs dropped.  Used when a tuple is removed from its
    /// instance: its order facts go with it.
    ///
    /// `peers` must list every tuple `t` can share a pair with (its
    /// entity group — orders only relate same-entity tuples), so the
    /// removal costs O(peers) lookups instead of a scan of the order.
    /// Only the owning instance knows the group is complete, so this
    /// stays crate-private.
    pub(crate) fn remove_involving(&mut self, t: TupleId, peers: &[TupleId]) -> usize {
        let dropped = peers
            .iter()
            .chain(std::iter::once(&t))
            .map(|&p| usize::from(self.remove(p, t)) + usize::from(p != t && self.remove(t, p)))
            .sum();
        debug_assert!(
            !self.iter().any(|(a, b)| a == t || b == t),
            "a pair with {t:?} survived: `peers` was incomplete"
        );
        dropped
    }

    /// `true` iff every pair of `self` appears in `other` (⊆ on raw pairs).
    pub fn subset_of(&self, other: &OrderRelation) -> bool {
        self.iter().all(|(a, b)| other.contains(a, b))
    }

    /// Rewrite every stored id through a translation table (old id →
    /// new id), as produced by the reference sweep
    /// (`TemporalInstance::compact`, behind the `oracle` feature).
    /// Every stored id must survive the remap — removal already sheds a
    /// tuple's pairs, so a compacting instance never holds dead ids here.
    #[cfg(any(test, feature = "oracle"))]
    pub fn remap(&mut self, remap: &[Option<TupleId>]) {
        self.pairs = self
            .iter()
            .map(|(a, b)| {
                let pair = (
                    remap[a.index()].expect("ordered ids are live"),
                    remap[b.index()].expect("ordered ids are live"),
                );
                (pair, ())
            })
            .collect();
    }

    /// The transitive closure, as a new relation.
    ///
    /// Worklist algorithm over successor/predecessor maps; output size is
    /// O(n²) in the number of tuples per entity, which is small by
    /// construction (it is the number of stale versions of one entity).
    pub fn transitive_closure(&self) -> OrderRelation {
        let mut succ: BTreeMap<TupleId, BTreeSet<TupleId>> = BTreeMap::new();
        for (a, b) in self.iter() {
            succ.entry(a).or_default().insert(b);
        }
        let mut closed: BTreeSet<(TupleId, TupleId)> = self.iter().collect();
        let mut work: Vec<(TupleId, TupleId)> = self.iter().collect();
        while let Some((a, b)) = work.pop() {
            // a ≺ b and b ≺ c gives a ≺ c.
            if let Some(cs) = succ.get(&b) {
                let new: Vec<TupleId> = cs
                    .iter()
                    .copied()
                    .filter(|&c| closed.insert((a, c)))
                    .collect();
                for c in new {
                    succ.entry(a).or_default().insert(c);
                    work.push((a, c));
                }
            }
        }
        closed.into_iter().collect()
    }

    /// A tuple on a cycle of the closure, if any (`None` means acyclic).
    ///
    /// A strict order's closure must be irreflexive; a pair `(t, t)` or a
    /// mutual pair `(u, v), (v, u)` witnesses inconsistency.
    pub fn find_cycle(&self) -> Option<TupleId> {
        let closed = self.transitive_closure();
        for (a, b) in closed.iter() {
            if a == b {
                return Some(a);
            }
            if closed.contains(b, a) {
                return Some(a);
            }
        }
        None
    }

    /// `true` iff the closure is a strict partial order (irreflexive).
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// Restrict to pairs whose both endpoints belong to `members`.
    pub fn restrict_to(&self, members: &[TupleId]) -> OrderRelation {
        let set: BTreeSet<TupleId> = members.iter().copied().collect();
        self.iter()
            .filter(|(a, b)| set.contains(a) && set.contains(b))
            .collect()
    }

    /// Merge another relation's pairs into this one.
    pub fn extend_from(&mut self, other: &OrderRelation) {
        for (a, b) in other.iter() {
            self.add(a, b);
        }
    }

    /// The *sinks* among `members`: tuples with no successor inside
    /// `members` under the stored pairs.
    ///
    /// In the PTIME algorithms of paper §6, the sinks of the certain order
    /// `PO∞` restricted to one entity are exactly the tuples that can be
    /// the most current one in some consistent completion.
    pub fn sinks(&self, members: &[TupleId]) -> Vec<TupleId> {
        let set: BTreeSet<TupleId> = members.iter().copied().collect();
        members
            .iter()
            .copied()
            .filter(|&m| !self.pairs_from(m).any(|(_, b)| b != m && set.contains(&b)))
            .collect()
    }
}

impl FromIterator<(TupleId, TupleId)> for OrderRelation {
    fn from_iter<I: IntoIterator<Item = (TupleId, TupleId)>>(iter: I) -> OrderRelation {
        OrderRelation {
            pairs: iter.into_iter().map(|pair| (pair, ())).collect(),
        }
    }
}

impl Paged for OrderRelation {
    fn for_each_page(&self, visit: &mut dyn FnMut(*const ())) {
        self.pairs.for_each_page(visit);
    }
}

/// All linear extensions of the partial order `pairs` over `elems`.
///
/// Each returned vector lists `elems` from least to most current.  The
/// enumeration is the standard backtracking over currently-minimal
/// elements; intended for the small per-entity groups of this model (the
/// count is factorial in `elems.len()` in the worst case).
pub fn linear_extensions(elems: &[TupleId], order: &OrderRelation) -> Vec<Vec<TupleId>> {
    let closed = order.restrict_to(elems).transitive_closure();
    if closed.find_cycle().is_some() {
        return Vec::new();
    }
    // predecessor counts within the group
    let mut preds: BTreeMap<TupleId, usize> = elems.iter().map(|&e| (e, 0)).collect();
    for (a, b) in closed.iter() {
        if a != b && preds.contains_key(&a) {
            if let Some(c) = preds.get_mut(&b) {
                *c += 1;
            }
            let _ = a;
        }
    }
    let mut result = Vec::new();
    let mut prefix: Vec<TupleId> = Vec::with_capacity(elems.len());
    let mut remaining: BTreeSet<TupleId> = elems.iter().copied().collect();
    backtrack(
        &closed,
        &mut preds,
        &mut remaining,
        &mut prefix,
        &mut result,
    );
    result
}

fn backtrack(
    closed: &OrderRelation,
    preds: &mut BTreeMap<TupleId, usize>,
    remaining: &mut BTreeSet<TupleId>,
    prefix: &mut Vec<TupleId>,
    out: &mut Vec<Vec<TupleId>>,
) {
    if remaining.is_empty() {
        out.push(prefix.clone());
        return;
    }
    let candidates: Vec<TupleId> = remaining
        .iter()
        .copied()
        .filter(|t| preds[t] == 0)
        .collect();
    for t in candidates {
        // Choose t as the next (least current remaining) element.
        remaining.remove(&t);
        prefix.push(t);
        let succs: Vec<TupleId> = remaining
            .iter()
            .copied()
            .filter(|&u| closed.contains(t, u))
            .collect();
        for &u in &succs {
            *preds.get_mut(&u).expect("successor tracked") -= 1;
        }
        backtrack(closed, preds, remaining, prefix, out);
        for &u in &succs {
            *preds.get_mut(&u).expect("successor tracked") += 1;
        }
        prefix.pop();
        remaining.insert(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TupleId {
        TupleId(i)
    }

    #[test]
    fn closure_adds_transitive_pairs() {
        let mut o = OrderRelation::new();
        o.add(t(0), t(1));
        o.add(t(1), t(2));
        let c = o.transitive_closure();
        assert!(c.contains(t(0), t(2)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn closure_of_chain_is_quadratic() {
        let mut o = OrderRelation::new();
        for i in 0..5 {
            o.add(t(i), t(i + 1));
        }
        let c = o.transitive_closure();
        assert_eq!(c.len(), 6 * 5 / 2);
        assert!(c.contains(t(0), t(5)));
    }

    #[test]
    fn cycle_detection() {
        let mut o = OrderRelation::new();
        o.add(t(0), t(1));
        o.add(t(1), t(2));
        assert!(o.is_acyclic());
        o.add(t(2), t(0));
        assert!(!o.is_acyclic());
        assert!(o.find_cycle().is_some());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut o = OrderRelation::new();
        o.add(t(3), t(3));
        assert_eq!(o.find_cycle(), Some(t(3)));
    }

    #[test]
    fn restrict_drops_outside_pairs() {
        let mut o = OrderRelation::new();
        o.add(t(0), t(1));
        o.add(t(1), t(2));
        let r = o.restrict_to(&[t(0), t(1)]);
        assert!(r.contains(t(0), t(1)));
        assert!(!r.contains(t(1), t(2)));
    }

    #[test]
    fn sinks_of_partial_order() {
        let mut o = OrderRelation::new();
        o.add(t(0), t(1));
        o.add(t(0), t(2));
        // 1 and 2 are incomparable maxima; 0 is below both.
        assert_eq!(o.sinks(&[t(0), t(1), t(2)]), vec![t(1), t(2)]);
        assert_eq!(o.sinks(&[t(0)]), vec![t(0)]);
    }

    #[test]
    fn empty_order_sinks_are_all_members() {
        let o = OrderRelation::new();
        assert_eq!(o.sinks(&[t(4), t(7)]), vec![t(4), t(7)]);
    }

    #[test]
    fn linear_extensions_of_empty_order_are_permutations() {
        let elems = [t(0), t(1), t(2)];
        let exts = linear_extensions(&elems, &OrderRelation::new());
        assert_eq!(exts.len(), 6);
    }

    #[test]
    fn linear_extensions_respect_constraints() {
        let elems = [t(0), t(1), t(2)];
        let mut o = OrderRelation::new();
        o.add(t(0), t(1));
        let exts = linear_extensions(&elems, &o);
        assert_eq!(exts.len(), 3);
        for e in &exts {
            let p0 = e.iter().position(|&x| x == t(0)).unwrap();
            let p1 = e.iter().position(|&x| x == t(1)).unwrap();
            assert!(p0 < p1);
        }
    }

    #[test]
    fn linear_extensions_of_total_order_is_unique() {
        let elems = [t(0), t(1), t(2)];
        let mut o = OrderRelation::new();
        o.add(t(0), t(1));
        o.add(t(1), t(2));
        let exts = linear_extensions(&elems, &o);
        assert_eq!(exts, vec![vec![t(0), t(1), t(2)]]);
    }

    #[test]
    fn linear_extensions_of_cyclic_order_is_empty() {
        let elems = [t(0), t(1)];
        let mut o = OrderRelation::new();
        o.add(t(0), t(1));
        o.add(t(1), t(0));
        assert!(linear_extensions(&elems, &o).is_empty());
    }

    #[test]
    fn subset_and_extend() {
        let mut a = OrderRelation::new();
        a.add(t(0), t(1));
        let mut b = OrderRelation::new();
        b.add(t(0), t(1));
        b.add(t(1), t(2));
        assert!(a.subset_of(&b));
        assert!(!b.subset_of(&a));
        a.extend_from(&b);
        assert!(b.subset_of(&a));
    }
}
