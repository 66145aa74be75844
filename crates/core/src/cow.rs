//! Copy-on-write containers with page-granular structural sharing.
//!
//! [`PagedVec`] and [`PagedMap`] keep their elements in pages of at
//! most [`PAGE_SIZE`] elements, each behind its own `Arc`.  Cloning a
//! container bumps one reference count per page and copies no element.
//! A write goes through [`Arc::make_mut`] on the one page it touches, so
//! two clones keep sharing every page neither has written since they
//! diverged.
//!
//! This is what lets a published snapshot and the serving writer's
//! working copy share one specification and one partition: a delta
//! copies the pages it dirties, not the specification.  A container
//! that is never cloned (the live engine's) owns every page uniquely,
//! and `make_mut` never copies.
//!
//! Every page a write actually copies is counted on the writing thread
//! ([`pages_copied`]), so a writer can report what a delta cost in
//! copied pages.

use std::cell::Cell;
use std::fmt;
use std::ops::{Index, IndexMut, RangeInclusive};
use std::sync::Arc;

/// Page capacity of both containers: a [`PagedVec`] page holds exactly
/// this many elements (only the tail page holds fewer), and a
/// [`PagedMap`] page splits in two when an insert grows it past this
/// many entries.
pub const PAGE_SIZE: usize = 128;

thread_local! {
    static PAGES_COPIED: Cell<u64> = const { Cell::new(0) };
}

/// Pages the calling thread has copied on write so far (a running
/// count; take the difference across an operation to price it).  A
/// write into a page no other container shares copies nothing and does
/// not count.
pub fn pages_copied() -> u64 {
    PAGES_COPIED.with(Cell::get)
}

/// `Arc::make_mut`, counting the page copy when the page was shared.
fn page_mut<P: Clone>(page: &mut Arc<P>) -> &mut P {
    let shared = Arc::as_ptr(page);
    let unique = Arc::make_mut(page);
    if !std::ptr::eq(shared, unique) {
        // `make_mut` moved us onto a fresh copy: the page was shared.
        PAGES_COPIED.with(|c| c.set(c.get() + 1));
    }
    unique
}

/// A value whose storage is made of shared pages — implemented by the
/// containers here and by every type built from them, so tests can
/// check which pages two versions of a value share.
pub trait Paged {
    /// Call `visit` with the address of every page the value holds.
    /// Two versions share a page exactly when both visit its address.
    fn for_each_page(&self, visit: &mut dyn FnMut(*const ()));
}

/// A growable array stored in `Arc`-shared pages of [`PAGE_SIZE`]
/// elements; element `i` lives at offset `i % PAGE_SIZE` of page
/// `i / PAGE_SIZE`.
///
/// Full pages are `Arc<[T]>`, so their elements sit inline behind the
/// page pointer and a read is one hop, as fast as a `Vec` read in
/// practice.  Only the last, partial page grows, as an `Arc<Vec<T>>`;
/// it becomes a full page when it fills.
#[derive(Clone)]
pub struct PagedVec<T> {
    full: Vec<Arc<[T]>>,
    tail: Arc<Vec<T>>,
}

impl<T> Default for PagedVec<T> {
    fn default() -> PagedVec<T> {
        PagedVec {
            full: Vec::new(),
            tail: Arc::new(Vec::new()),
        }
    }
}

/// Mutable access to a full page, copying it first (and counting the
/// copy) if it is shared.
fn full_page_mut<T: Clone>(page: &mut Arc<[T]>) -> &mut [T] {
    if Arc::get_mut(page).is_none() {
        *page = page.iter().cloned().collect();
        PAGES_COPIED.with(|c| c.set(c.get() + 1));
    }
    Arc::get_mut(page).expect("the page was just made unique")
}

impl<T: Clone> PagedVec<T> {
    /// An empty array.
    pub fn new() -> PagedVec<T> {
        PagedVec::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.full.len() * PAGE_SIZE + self.tail.len()
    }

    /// `true` if the array holds no element.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append an element to the tail page; a tail that fills moves into
    /// the full pages.
    pub fn push(&mut self, value: T) {
        let tail = page_mut(&mut self.tail);
        tail.push(value);
        if tail.len() == PAGE_SIZE {
            let page = std::mem::replace(tail, Vec::with_capacity(PAGE_SIZE));
            self.full.push(page.into());
        }
    }

    /// Shorten the array to `len` elements (no-op if already shorter).
    /// Whole pages past the cut are released without being copied.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        let keep = len / PAGE_SIZE;
        if keep < self.full.len() {
            // The cut falls in a full page: its head becomes the tail.
            self.tail = Arc::new(self.full[keep][..len % PAGE_SIZE].to_vec());
            PAGES_COPIED.with(|c| c.set(c.get() + 1));
            self.full.truncate(keep);
        } else {
            page_mut(&mut self.tail).truncate(len % PAGE_SIZE);
        }
    }

    /// Swap two elements (writes at most their two pages).
    pub fn swap(&mut self, a: usize, b: usize) {
        assert!(a < self.len() && b < self.len(), "swap index out of range");
        let (lo, hi) = (a.min(b), a.max(b));
        let (lo_page, hi_page) = (lo / PAGE_SIZE, hi / PAGE_SIZE);
        let (lo_off, hi_off) = (lo % PAGE_SIZE, hi % PAGE_SIZE);
        if hi_page == self.full.len() {
            // `hi` is in the tail.
            let tail = page_mut(&mut self.tail);
            if lo_page == hi_page {
                tail.swap(lo_off, hi_off);
            } else {
                std::mem::swap(
                    &mut full_page_mut(&mut self.full[lo_page])[lo_off],
                    &mut tail[hi_off],
                );
            }
        } else if lo_page == hi_page {
            full_page_mut(&mut self.full[lo_page]).swap(lo_off, hi_off);
        } else {
            let (left, right) = self.full.split_at_mut(hi_page);
            std::mem::swap(
                &mut full_page_mut(&mut left[lo_page])[lo_off],
                &mut full_page_mut(&mut right[0])[hi_off],
            );
        }
    }

    /// Iterate over the elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.full
            .iter()
            .flat_map(|page| page.iter())
            .chain(self.tail.iter())
    }
}

impl<T: Clone> Index<usize> for PagedVec<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        match self.full.get(index / PAGE_SIZE) {
            Some(page) => &page[index % PAGE_SIZE],
            // Past the full pages: the tail's bounds check catches an
            // index past `len`.
            None => &self.tail[index - self.full.len() * PAGE_SIZE],
        }
    }
}

impl<T: Clone> IndexMut<usize> for PagedVec<T> {
    /// Mutable access copies the element's page first if it is shared.
    fn index_mut(&mut self, index: usize) -> &mut T {
        assert!(index < self.len(), "PagedVec index out of range");
        let full = self.full.len() * PAGE_SIZE;
        match self.full.get_mut(index / PAGE_SIZE) {
            Some(page) => &mut full_page_mut(page)[index % PAGE_SIZE],
            None => &mut page_mut(&mut self.tail)[index - full],
        }
    }
}

impl<T: Clone> FromIterator<T> for PagedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> PagedVec<T> {
        let mut out = PagedVec::new();
        for value in iter {
            out.push(value);
        }
        out
    }
}

impl<T: Clone + fmt::Debug> fmt::Debug for PagedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> Paged for PagedVec<T> {
    fn for_each_page(&self, visit: &mut dyn FnMut(*const ())) {
        for page in &self.full {
            visit(Arc::as_ptr(page).cast());
        }
        visit(Arc::as_ptr(&self.tail).cast());
    }
}

/// An ordered map stored as a sorted run of `Arc`-shared pages.
///
/// Each page is a non-empty, key-sorted vector of entries, and every key
/// of a page is below every key of the next.  A page splits in half when
/// an insert grows it past [`PAGE_SIZE`] entries (appends past the last
/// key start a fresh page instead, so ascending builds fill pages
/// completely), and a page emptied by removals is dropped.  Lookups
/// binary-search the page run by each page's last key, which is kept
/// next to the page pointer so the search reads no page, then search the
/// one page.
#[derive(Clone)]
pub struct PagedMap<K, V> {
    pages: Vec<MapPage<K, V>>,
    len: usize,
}

/// One page of a [`PagedMap`].
#[derive(Clone)]
struct MapPage<K, V> {
    /// The last key of `entries` (its fence).
    last: K,
    entries: Arc<Vec<(K, V)>>,
}

impl<K: Clone, V> MapPage<K, V> {
    fn new(entries: Vec<(K, V)>) -> MapPage<K, V> {
        MapPage {
            last: entries.last().expect("pages are never empty").0.clone(),
            entries: Arc::new(entries),
        }
    }
}

impl<K, V> Default for PagedMap<K, V> {
    fn default() -> PagedMap<K, V> {
        PagedMap {
            pages: Vec::new(),
            len: 0,
        }
    }
}

impl<K: Ord + Clone, V: Clone> PagedMap<K, V> {
    /// An empty map.
    pub fn new() -> PagedMap<K, V> {
        PagedMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The page that holds `key` if the map does: the first page whose
    /// last key is `>= key` (`pages.len()` when `key` is past them all).
    fn page_of(&self, key: &K) -> usize {
        self.pages.partition_point(|page| page.last < *key)
    }

    /// `(page, offset)` of `key`'s entry.
    fn find(&self, key: &K) -> Option<(usize, usize)> {
        let p = self.page_of(key);
        let page = &self.pages.get(p)?.entries;
        page.binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| (p, i))
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).map(|(p, i)| &self.pages[p].entries[i].1)
    }

    /// `true` if `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Mutable access to `key`'s value (copies its page if shared; a
    /// missing key copies nothing).
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (p, i) = self.find(key)?;
        Some(&mut page_mut(&mut self.pages[p].entries)[i].1)
    }

    /// Insert or overwrite `key`'s entry, returning the previous value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let p = self.page_of(&key);
        let Some(page) = self.pages.get_mut(p) else {
            // Past every key: append to the tail page, or start a fresh
            // page when the tail is full.
            match self.pages.last_mut() {
                Some(tail) if tail.entries.len() < PAGE_SIZE => {
                    tail.last = key.clone();
                    page_mut(&mut tail.entries).push((key, value));
                }
                _ => {
                    let mut entries = Vec::with_capacity(PAGE_SIZE);
                    entries.push((key, value));
                    self.pages.push(MapPage::new(entries));
                }
            }
            self.len += 1;
            return None;
        };
        match page.entries.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(std::mem::replace(
                &mut page_mut(&mut page.entries)[i].1,
                value,
            )),
            Err(i) => {
                // `key` sorts below the page's last key, so the fence
                // holds unless the page splits.
                let entries = page_mut(&mut page.entries);
                entries.insert(i, (key, value));
                if entries.len() > PAGE_SIZE {
                    let upper = MapPage::new(entries.split_off(entries.len() / 2));
                    page.last = entries.last().expect("a split keeps both halves").0.clone();
                    self.pages.insert(p + 1, upper);
                }
                self.len += 1;
                None
            }
        }
    }

    /// Mutable access to `key`'s value, inserting `default()` first if
    /// the key is absent.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let (p, i) = match self.find(&key) {
            Some(at) => at,
            None => {
                self.insert(key.clone(), default());
                self.find(&key).expect("entry was just inserted")
            }
        };
        &mut page_mut(&mut self.pages[p].entries)[i].1
    }

    /// Remove `key`'s entry, returning its value.  A missing key copies
    /// nothing; an emptied page is dropped.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (p, i) = self.find(key)?;
        let page = &mut self.pages[p];
        let entries = page_mut(&mut page.entries);
        let (_, value) = entries.remove(i);
        match entries.last() {
            None => {
                self.pages.remove(p);
            }
            Some((last, _)) => page.last = last.clone(),
        }
        self.len -= 1;
        Some(value)
    }

    /// Keep only the entries `keep` accepts.  `keep` sees every entry
    /// exactly once, in key order; only pages that lose an entry are
    /// written.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        let mut verdicts: Vec<bool> = Vec::new();
        for page in &mut self.pages {
            verdicts.clear();
            verdicts.extend(page.entries.iter().map(|(k, v)| keep(k, v)));
            if verdicts.iter().all(|&kept| kept) {
                continue;
            }
            let mut verdict = verdicts.iter();
            let entries = page_mut(&mut page.entries);
            entries.retain(|_| *verdict.next().expect("one verdict per entry"));
            if let Some((last, _)) = entries.last() {
                page.last = last.clone();
            }
        }
        self.pages.retain(|page| !page.entries.is_empty());
        self.len = self.pages.iter().map(|page| page.entries.len()).sum();
    }

    /// Iterate over the entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.pages
            .iter()
            .flat_map(|page| page.entries.iter().map(|(k, v)| (k, v)))
    }

    /// Iterate over the keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterate over the entries in key order with mutable values.
    /// Writes (and so copies, if shared) every page.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> + '_ {
        self.pages.iter_mut().flat_map(|page| {
            page_mut(&mut page.entries)
                .iter_mut()
                .map(|(k, v)| (&*k, v))
        })
    }

    /// Iterate in key order over the entries whose keys fall in `range`.
    pub fn range(&self, range: RangeInclusive<K>) -> impl Iterator<Item = (&K, &V)> + '_ {
        let (lo, hi) = range.into_inner();
        let first = self.page_of(&lo);
        let offset = self
            .pages
            .get(first)
            .map_or(0, |page| page.entries.partition_point(|(k, _)| *k < lo));
        self.pages[first..]
            .iter()
            .enumerate()
            .flat_map(move |(n, page)| page.entries[if n == 0 { offset } else { 0 }..].iter())
            .take_while(move |(k, _)| *k <= hi)
            .map(|(k, v)| (k, v))
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for PagedMap<K, V> {
    /// Later duplicates overwrite earlier ones, like `BTreeMap`.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> PagedMap<K, V> {
        let mut out = PagedMap::new();
        for (k, v) in iter {
            out.insert(k, v);
        }
        out
    }
}

impl<K: Ord + Clone + fmt::Debug, V: Clone + fmt::Debug> fmt::Debug for PagedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone, V: Clone + PartialEq> PartialEq for PagedMap<K, V> {
    fn eq(&self, other: &PagedMap<K, V>) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<K: Ord + Clone, V: Clone + Eq> Eq for PagedMap<K, V> {}

impl<K, V> Paged for PagedMap<K, V> {
    fn for_each_page(&self, visit: &mut dyn FnMut(*const ())) {
        for page in &self.pages {
            visit(Arc::as_ptr(&page.entries).cast());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashSet};

    /// splitmix64: a dependency-free deterministic op stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    fn pages_of(value: &dyn Paged) -> HashSet<*const ()> {
        let mut out = HashSet::new();
        value.for_each_page(&mut |p| {
            out.insert(p);
        });
        out
    }

    fn assert_map_eq(map: &PagedMap<u32, u64>, oracle: &BTreeMap<u32, u64>) {
        assert_eq!(map.len(), oracle.len());
        assert!(map
            .iter()
            .map(|(k, v)| (*k, *v))
            .eq(oracle.iter().map(|(k, v)| (*k, *v))));
    }

    #[test]
    fn paged_map_matches_btreemap_across_splits() {
        for seed in 0..40u64 {
            let mut rng = Rng(seed);
            let mut map: PagedMap<u32, u64> = PagedMap::new();
            let mut oracle: BTreeMap<u32, u64> = BTreeMap::new();
            // A key space a few pages wide, so pages split, drain and
            // get dropped repeatedly.
            let keys = 1 + rng.below(6 * PAGE_SIZE as u64);
            for step in 0..3_000u64 {
                let k = rng.below(keys) as u32;
                match rng.below(7) {
                    0..=2 => assert_eq!(map.insert(k, step), oracle.insert(k, step)),
                    3 | 4 => assert_eq!(map.remove(&k), oracle.remove(&k)),
                    5 => {
                        *map.get_or_insert_with(k, || 7) += 1;
                        *oracle.entry(k).or_insert(7) += 1;
                    }
                    _ => {
                        if let Some(v) = map.get_mut(&k) {
                            *v += 3;
                        }
                        if let Some(v) = oracle.get_mut(&k) {
                            *v += 3;
                        }
                    }
                }
                assert_eq!(map.get(&k), oracle.get(&k));
                assert_eq!(map.contains_key(&k), oracle.contains_key(&k));
            }
            assert_map_eq(&map, &oracle);
            assert!(map.pages.iter().all(|p| {
                let (len, last) = (p.entries.len(), p.entries.last().map(|e| e.0));
                len > 0 && len <= PAGE_SIZE && last == Some(p.last)
            }));
            // Range scans, across page boundaries and past the end.
            for _ in 0..50 {
                let a = rng.below(keys + 2) as u32;
                let b = a + rng.below(2 * PAGE_SIZE as u64) as u32;
                let got: Vec<_> = map.range(a..=b).map(|(k, v)| (*k, *v)).collect();
                let want: Vec<_> = oracle.range(a..=b).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, want, "{a}..={b}");
            }
            map.retain(|k, v| !(k + *v as u32).is_multiple_of(3));
            oracle.retain(|k, v| !(k + *v as u32).is_multiple_of(3));
            assert_map_eq(&map, &oracle);
        }
    }

    #[test]
    fn paged_vec_matches_vec() {
        for seed in 0..20u64 {
            let mut rng = Rng(seed);
            let mut paged: PagedVec<u64> = PagedVec::new();
            let mut oracle: Vec<u64> = Vec::new();
            for step in 0..4_000u64 {
                match rng.below(10) {
                    0..=5 => {
                        paged.push(step);
                        oracle.push(step);
                    }
                    6 | 7 if !oracle.is_empty() => {
                        let (a, b) = (
                            rng.below(oracle.len() as u64) as usize,
                            rng.below(oracle.len() as u64) as usize,
                        );
                        paged.swap(a, b);
                        oracle.swap(a, b);
                    }
                    8 if !oracle.is_empty() => {
                        let i = rng.below(oracle.len() as u64) as usize;
                        paged[i] += 1;
                        oracle[i] += 1;
                    }
                    9 => {
                        let len = oracle
                            .len()
                            .saturating_sub(rng.below(PAGE_SIZE as u64 * 2) as usize);
                        paged.truncate(len);
                        oracle.truncate(len);
                    }
                    _ => {}
                }
            }
            assert_eq!(paged.len(), oracle.len());
            assert!(paged.iter().eq(oracle.iter()));
        }
    }

    #[test]
    fn clones_are_isolated_and_copy_only_written_pages() {
        let mut rng = Rng(7);
        let mut map: PagedMap<u32, u64> = (0..20 * PAGE_SIZE as u32).map(|k| (k, 0)).collect();
        let mut vec: PagedVec<u64> = (0..20 * PAGE_SIZE as u64).collect();
        for round in 0..30u64 {
            let (map_before, vec_before) = (map.clone(), vec.clone());
            let (map_oracle, vec_oracle): (BTreeMap<u32, u64>, Vec<u64>) = (
                map.iter().map(|(k, v)| (*k, *v)).collect(),
                vec.iter().copied().collect(),
            );
            let copied = pages_copied();
            let k = rng.below(map.len() as u64 + 10) as u32;
            let i = rng.below(vec.len() as u64) as usize;
            match round % 3 {
                0 => {
                    map.insert(k, round);
                    vec[i] = round;
                }
                1 => {
                    map.remove(&k);
                    vec.swap(i, vec.len() - 1 - i);
                }
                _ => {
                    *map.get_or_insert_with(k, || 1) += round;
                    vec.push(round);
                }
            }
            let copied = pages_copied() - copied;
            // The old versions never see the writes.
            assert_map_eq(&map_before, &map_oracle);
            assert!(vec_before.iter().eq(vec_oracle.iter()));
            // Every page but the written ones is still shared, and each
            // unshared page was either copied or freshly allocated.
            let (old, new) = (pages_of(&map_before), pages_of(&map));
            let (old_v, new_v) = (pages_of(&vec_before), pages_of(&vec));
            let fresh = new.difference(&old).count() + new_v.difference(&old_v).count();
            assert!(fresh <= 4, "round {round}: {fresh} unshared pages");
            assert!(copied as usize <= fresh, "round {round}");
        }
        // An unshared container writes in place: nothing is copied.
        let copied = pages_copied();
        map.insert(3, 3);
        map.remove(&4);
        vec[5] = 5;
        vec.swap(0, vec.len() - 1);
        assert_eq!(pages_copied(), copied);
    }

    #[test]
    fn misses_and_untouched_retains_copy_nothing() {
        let map: PagedMap<u32, ()> = (0..4 * PAGE_SIZE as u32).map(|k| (2 * k, ())).collect();
        let mut writer = map.clone();
        let copied = pages_copied();
        assert_eq!(writer.remove(&1), None);
        assert!(writer.get_mut(&3).is_none());
        writer.retain(|_, _| true);
        assert_eq!(pages_copied(), copied, "no entry changed, no page copied");
        assert_eq!(pages_of(&writer), pages_of(&map));
        writer.retain(|k, _| *k != 0);
        assert_eq!(pages_copied(), copied + 1, "only the losing page");
    }
}
