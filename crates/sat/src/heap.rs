//! A max-heap over variables ordered by activity, with lazy deletion.
//!
//! The solver bumps variable activities on every conflict and needs to pick
//! the unassigned variable with maximal activity when deciding.  A classic
//! indexed heap (as in MiniSat) supports `decrease_key`; we instead use the
//! simpler *lazy* scheme: every bump or unassignment pushes the variable
//! again, and stale entries (assigned variables, or entries whose recorded
//! activity is outdated) are discarded on pop.  For the problem sizes of this
//! workspace (thousands of variables) the duplication is negligible and the
//! code is considerably simpler to audit.

use crate::types::Var;

#[derive(Debug, Default)]
pub(crate) struct ActivityHeap {
    /// Binary max-heap of `(activity, var)` entries; may contain duplicates
    /// and stale activities.
    entries: Vec<(f64, Var)>,
}

/// Hand-rolled so that `clone_from` reuses the existing heap allocation
/// (the derive's default `clone_from` re-allocates); see
/// [`crate::Solver`]'s `Clone` impl for why that matters.
impl Clone for ActivityHeap {
    fn clone(&self) -> Self {
        ActivityHeap {
            entries: self.entries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

impl ActivityHeap {
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        ActivityHeap {
            entries: Vec::new(),
        }
    }

    /// Heap bytes held: entry capacity × entry size.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(f64, Var)>()
    }

    /// Reserve room for `additional` more entries.
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
    }

    /// Push a (possibly duplicate) entry for `v` at activity `act`.
    pub(crate) fn push(&mut self, v: Var, act: f64) {
        self.entries.push((act, v));
        self.sift_up(self.entries.len() - 1);
    }

    /// Pop entries until one passes `is_fresh`; returns `None` if exhausted.
    ///
    /// `is_fresh(v, act)` should return `true` when `v` is currently
    /// unassigned *and* `act` equals its current activity (so that stale
    /// lower-priority duplicates of a re-bumped variable are skipped).
    pub(crate) fn pop_fresh(&mut self, mut is_fresh: impl FnMut(Var, f64) -> bool) -> Option<Var> {
        while let Some(&(act, v)) = self.entries.first() {
            self.pop_root();
            if is_fresh(v, act) {
                return Some(v);
            }
        }
        None
    }

    /// Rebuild the heap after a global activity rescale.
    pub(crate) fn rescale(&mut self, factor: f64) {
        for e in &mut self.entries {
            e.0 *= factor;
        }
        // Multiplying every key by the same positive factor preserves the
        // heap order, so no re-heapify is needed; this loop documents intent.
    }

    fn pop_root(&mut self) {
        let last = self.entries.len() - 1;
        self.entries.swap(0, last);
        self.entries.pop();
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.entries[i].0 > self.entries[parent].0 {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < n && self.entries[l].0 > self.entries[largest].0 {
                largest = l;
            }
            if r < n && self.entries[r].0 > self.entries[largest].0 {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.entries.swap(i, largest);
            i = largest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let mut h = ActivityHeap::new();
        h.push(Var::from_index(0), 1.0);
        h.push(Var::from_index(1), 3.0);
        h.push(Var::from_index(2), 2.0);
        let order: Vec<usize> = std::iter::from_fn(|| h.pop_fresh(|_, _| true))
            .map(|v| v.index())
            .collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn skips_stale_entries() {
        let mut h = ActivityHeap::new();
        h.push(Var::from_index(0), 1.0);
        h.push(Var::from_index(0), 5.0); // re-bumped duplicate
        h.push(Var::from_index(1), 3.0);
        // Current activity of v0 is 5.0: the 1.0 entry is stale.
        let current = [5.0, 3.0];
        let first = h.pop_fresh(|v, a| a == current[v.index()]).unwrap();
        assert_eq!(first.index(), 0);
        let second = h.pop_fresh(|v, a| a == current[v.index()]).unwrap();
        assert_eq!(second.index(), 1);
        assert!(h.pop_fresh(|v, a| a == current[v.index()]).is_none());
    }

    #[test]
    fn empty_heap_pops_none() {
        let mut h = ActivityHeap::new();
        assert!(h.pop_fresh(|_, _| true).is_none());
    }
}
