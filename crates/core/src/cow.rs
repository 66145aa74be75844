//! Copy-on-write containers with page-granular structural sharing.
//!
//! [`PagedVec`] and [`PagedMap`] keep their elements in pages of at
//! most [`PAGE_SIZE`] elements, each behind its own `Arc`, and group the
//! page pointers into chunks of at most [`PAGE_SIZE`] pages, each chunk
//! behind its own `Arc` too.  Cloning a container bumps one reference
//! count per chunk and copies no page pointer and no element.  A write
//! goes through [`Arc::make_mut`] on the one chunk and the one page it
//! touches, so two clones keep sharing every chunk and page neither has
//! written since they diverged.
//!
//! This is what lets a published snapshot and the serving writer's
//! working copy share one specification and one partition: a delta
//! copies the chunks and pages it dirties, not the specification and not
//! its page tables.  A container that is never cloned (the live
//! engine's) owns every chunk and page uniquely, and `make_mut` never
//! copies.
//!
//! A chunk is a page of page pointers, and both levels count alike:
//! every chunk or page a write actually copies is counted on the writing
//! thread ([`pages_copied`]), so a writer can report what a delta cost in
//! copied pages, and [`Paged::for_each_page`] visits both.

use std::cell::Cell;
use std::fmt;
use std::ops::{Index, IndexMut, RangeInclusive};
use std::sync::Arc;

/// Page capacity of both containers, at both levels: a [`PagedVec`]
/// page holds exactly this many elements (only the tail page holds
/// fewer) and a chunk exactly this many full pages (only the last chunk
/// holds fewer); a [`PagedMap`] page splits in two when an insert grows
/// it past this many entries, and a chunk when a split grows it past
/// this many pages.
pub const PAGE_SIZE: usize = 128;

thread_local! {
    static PAGES_COPIED: Cell<u64> = const { Cell::new(0) };
}

/// Pages and chunks the calling thread has copied on write so far (a
/// running count; take the difference across an operation to price it).
/// A write into a page no other container shares copies nothing and does
/// not count.
pub fn pages_copied() -> u64 {
    PAGES_COPIED.with(Cell::get)
}

fn count_copy() {
    PAGES_COPIED.with(|c| c.set(c.get() + 1));
}

/// `Arc::make_mut`, counting the page copy when the page was shared.
fn page_mut<P: Clone>(page: &mut Arc<P>) -> &mut P {
    let shared = Arc::as_ptr(page);
    let unique = Arc::make_mut(page);
    if !std::ptr::eq(shared, unique) {
        // `make_mut` moved us onto a fresh copy: the page was shared.
        count_copy();
    }
    unique
}

/// A value whose storage is made of shared pages — implemented by the
/// containers here and by every type built from them, so tests can
/// check which pages two versions of a value share.
pub trait Paged {
    /// Call `visit` with the address of every page and chunk the value
    /// holds.  Two versions share one exactly when both visit its
    /// address.
    fn for_each_page(&self, visit: &mut dyn FnMut(*const ()));
}

/// A run of up to [`PAGE_SIZE`] full [`PagedVec`] pages, shared as one.
type Chunk<T> = Arc<Vec<Arc<[T]>>>;

/// A growable array stored in `Arc`-shared pages of [`PAGE_SIZE`]
/// elements, grouped [`PAGE_SIZE`] pages to an `Arc`-shared chunk;
/// element `i` lives in chunk `i / PAGE_SIZE²`, page
/// `(i / PAGE_SIZE) % PAGE_SIZE` of it, at offset `i % PAGE_SIZE`.
///
/// Full pages are `Arc<[T]>`, so their elements sit inline behind the
/// page pointer.  Only the last, partial page grows, as an
/// `Arc<Vec<T>>`; when it fills it joins the last chunk, or starts a new
/// chunk when that one is full.
#[derive(Clone)]
pub struct PagedVec<T> {
    /// Every chunk holds [`PAGE_SIZE`] pages but the last, which is
    /// never empty.
    chunks: Vec<Chunk<T>>,
    tail: Arc<Vec<T>>,
}

impl<T> Default for PagedVec<T> {
    fn default() -> PagedVec<T> {
        PagedVec {
            chunks: Vec::new(),
            tail: Arc::new(Vec::new()),
        }
    }
}

/// `(chunk, page within the chunk, offset within the page)` of element
/// `index` of a [`PagedVec`].
fn locate(index: usize) -> (usize, usize, usize) {
    let page = index / PAGE_SIZE;
    (page / PAGE_SIZE, page % PAGE_SIZE, index % PAGE_SIZE)
}

/// Mutable access to a full page, copying it first (and counting the
/// copy) if it is shared.
fn full_page_mut<T: Clone>(page: &mut Arc<[T]>) -> &mut [T] {
    if Arc::get_mut(page).is_none() {
        *page = page.iter().cloned().collect();
        count_copy();
    }
    Arc::get_mut(page).expect("the page was just made unique")
}

/// Mutable access to full page `page` of chunk `chunk`, copying the
/// chunk and then the page first if either is shared.
fn page_at<T: Clone>(chunks: &mut [Chunk<T>], chunk: usize, page: usize) -> &mut [T] {
    full_page_mut(&mut page_mut(&mut chunks[chunk])[page])
}

impl<T: Clone> PagedVec<T> {
    /// An empty array.
    pub fn new() -> PagedVec<T> {
        PagedVec::default()
    }

    /// Number of elements in full pages (everything before the tail).
    fn full_len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * PAGE_SIZE + last.len())
            * PAGE_SIZE
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.full_len() + self.tail.len()
    }

    /// `true` if the array holds no element.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append an element to the tail page; a tail that fills moves into
    /// the last chunk.
    pub fn push(&mut self, value: T) {
        let tail = page_mut(&mut self.tail);
        tail.push(value);
        if tail.len() == PAGE_SIZE {
            let page = std::mem::replace(tail, Vec::with_capacity(PAGE_SIZE)).into();
            match self.chunks.last_mut() {
                Some(chunk) if chunk.len() < PAGE_SIZE => page_mut(chunk).push(page),
                _ => {
                    let mut chunk = Vec::with_capacity(PAGE_SIZE);
                    chunk.push(page);
                    self.chunks.push(Arc::new(chunk));
                }
            }
        }
    }

    /// Shorten the array to `len` elements (no-op if already shorter).
    /// Whole pages and chunks past the cut are released without being
    /// copied.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        if len < self.full_len() {
            // The cut falls in a full page: its head becomes the tail,
            // and the pages before it stay.
            let (chunk, page, offset) = locate(len);
            self.tail = Arc::new(self.chunks[chunk][page][..offset].to_vec());
            count_copy();
            self.chunks.truncate(chunk + 1);
            if page == 0 {
                self.chunks.pop();
            } else {
                page_mut(&mut self.chunks[chunk]).truncate(page);
            }
        } else {
            page_mut(&mut self.tail).truncate(len % PAGE_SIZE);
        }
    }

    /// Swap two elements (writes at most their two pages and chunks).
    pub fn swap(&mut self, a: usize, b: usize) {
        assert!(a < self.len() && b < self.len(), "swap index out of range");
        let (lo, hi) = (a.min(b), a.max(b));
        let full = self.full_len();
        let (lo_chunk, lo_page, lo_off) = locate(lo);
        let (hi_chunk, hi_page, hi_off) = locate(hi);
        if hi >= full {
            // `hi` is in the tail.
            let tail = page_mut(&mut self.tail);
            if lo >= full {
                tail.swap(lo - full, hi - full);
            } else {
                std::mem::swap(
                    &mut page_at(&mut self.chunks, lo_chunk, lo_page)[lo_off],
                    &mut tail[hi - full],
                );
            }
        } else if (lo_chunk, lo_page) == (hi_chunk, hi_page) {
            page_at(&mut self.chunks, lo_chunk, lo_page).swap(lo_off, hi_off);
        } else if lo_chunk == hi_chunk {
            let chunk = page_mut(&mut self.chunks[lo_chunk]);
            let (left, right) = chunk.split_at_mut(hi_page);
            std::mem::swap(
                &mut full_page_mut(&mut left[lo_page])[lo_off],
                &mut full_page_mut(&mut right[0])[hi_off],
            );
        } else {
            let (left, right) = self.chunks.split_at_mut(hi_chunk);
            std::mem::swap(
                &mut page_at(left, lo_chunk, lo_page)[lo_off],
                &mut page_at(right, 0, hi_page)[hi_off],
            );
        }
    }

    /// Iterate over the elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .flat_map(|page| page.iter())
            .chain(self.tail.iter())
    }
}

impl<T: Clone> Index<usize> for PagedVec<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        let (chunk, page, offset) = locate(index);
        match self.chunks.get(chunk).and_then(|chunk| chunk.get(page)) {
            Some(page) => &page[offset],
            // Past the full pages: the tail's bounds check catches an
            // index past `len`.
            None => &self.tail[index - self.full_len()],
        }
    }
}

impl<T: Clone> IndexMut<usize> for PagedVec<T> {
    /// Mutable access copies the element's chunk and page first if
    /// either is shared.
    fn index_mut(&mut self, index: usize) -> &mut T {
        assert!(index < self.len(), "PagedVec index out of range");
        let full = self.full_len();
        if index < full {
            let (chunk, page, offset) = locate(index);
            &mut page_at(&mut self.chunks, chunk, page)[offset]
        } else {
            &mut page_mut(&mut self.tail)[index - full]
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
        for chunk in &self.chunks {
            visit(Arc::as_ptr(chunk).cast());
            for page in chunk.iter() {
                visit(Arc::as_ptr(page).cast());
            }
        }
        visit(Arc::as_ptr(&self.tail).cast());
    }
}

/// An ordered map stored as a sorted run of `Arc`-shared chunks, each a
/// sorted run of `Arc`-shared pages.
///
/// Each page is a non-empty, key-sorted vector of entries, each chunk a
/// non-empty vector of pages, and every key of a page (or chunk) is below
/// every key of the next.  A page splits in half when an insert grows it
/// past [`PAGE_SIZE`] entries, and a chunk splits in half when a page
/// split grows it past [`PAGE_SIZE`] pages; appends past the last key
/// start a fresh page (or chunk) instead, so ascending builds fill pages
/// and chunks completely.  An emptied page or chunk is dropped.  Lookups
/// binary-search the chunks, then the chunk's pages, by each one's last
/// key, which is kept next to its pointer so the search reads nothing
/// below it, then search the one page.
#[derive(Clone)]
pub struct PagedMap<K, V> {
    chunks: Vec<MapChunk<K, V>>,
    len: usize,
}

/// One shared run of a [`PagedMap`] level with its fence: the last key
/// the run holds.
#[derive(Clone)]
struct Fenced<K, E> {
    last: K,
    items: Arc<Vec<E>>,
}

type MapPage<K, V> = Fenced<K, (K, V)>;
type MapChunk<K, V> = Fenced<K, MapPage<K, V>>;

/// An item of a fenced run: an entry, or a fenced run one level down.
trait Keyed<K> {
    /// The item's key (an entry's) or last key (a run's).
    fn key(&self) -> &K;
}

impl<K, V> Keyed<K> for (K, V) {
    fn key(&self) -> &K {
        &self.0
    }
}

impl<K, E> Keyed<K> for Fenced<K, E> {
    fn key(&self) -> &K {
        &self.last
    }
}

/// Index of the first item whose key is `>= key` (`items.len()` when
/// `key` is past them all).
fn position<K: Ord, E: Keyed<K>>(items: &[E], key: &K) -> usize {
    items.partition_point(|item| item.key() < key)
}

impl<K: Clone, E: Keyed<K>> Fenced<K, E> {
    fn new(items: Vec<E>) -> Fenced<K, E> {
        Fenced {
            last: items.last().expect("runs are never empty").key().clone(),
            items: Arc::new(items),
        }
    }

    /// A fresh run of one item, with room for a full run.
    fn single(item: E) -> Fenced<K, E> {
        let mut items = Vec::with_capacity(PAGE_SIZE);
        items.push(item);
        Fenced::new(items)
    }

    /// Reset the fence after a write to a non-empty run.
    fn refence(&mut self) {
        self.last = self
            .items
            .last()
            .expect("runs are never empty")
            .key()
            .clone();
    }
}

/// If `items` grew past [`PAGE_SIZE`], move its upper half into a new
/// run (the caller re-fences the lower half).
fn split_full<K: Clone, E: Keyed<K>>(items: &mut Vec<E>) -> Option<Fenced<K, E>> {
    (items.len() > PAGE_SIZE).then(|| Fenced::new(items.split_off(items.len() / 2)))
}

impl<K, V> Default for PagedMap<K, V> {
    fn default() -> PagedMap<K, V> {
        PagedMap {
            chunks: Vec::new(),
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

    /// `(chunk, page, offset)` of `key`'s entry.
    fn find(&self, key: &K) -> Option<(usize, usize, usize)> {
        let c = position(&self.chunks, key);
        // A chunk's fence is `>= key`, so one of its pages holds `key`
        // if the map does, and so on down.
        let pages = &self.chunks.get(c)?.items;
        let p = position(pages, key);
        let entries = &pages[p].items;
        let i = position(entries, key);
        (entries[i].0 == *key).then_some((c, p, i))
    }

    /// Mutable access to the value at `(chunk, page, offset)`, copying
    /// its chunk and page first if either is shared.
    fn value_mut(&mut self, (c, p, i): (usize, usize, usize)) -> &mut V {
        &mut page_mut(&mut page_mut(&mut self.chunks[c].items)[p].items)[i].1
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key)
            .map(|(c, p, i)| &self.chunks[c].items[p].items[i].1)
    }

    /// `true` if `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Mutable access to `key`'s value (copies its chunk and page if
    /// shared; a missing key copies nothing).
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let at = self.find(key)?;
        Some(self.value_mut(at))
    }

    /// Insert or overwrite `key`'s entry, returning the previous value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let c = position(&self.chunks, &key);
        let Some(chunk) = self.chunks.get_mut(c) else {
            self.append(key, value);
            self.len += 1;
            return None;
        };
        let p = position(&chunk.items, &key);
        let i = position(&chunk.items[p].items, &key);
        if chunk.items[p].items[i].0 == key {
            return Some(std::mem::replace(self.value_mut((c, p, i)), value));
        }
        // `key` sorts below the chunk's and the page's fences, so both
        // hold unless a run splits.
        self.len += 1;
        let pages = page_mut(&mut chunk.items);
        let entries = page_mut(&mut pages[p].items);
        entries.insert(i, (key, value));
        if let Some(upper) = split_full(entries) {
            pages[p].refence();
            pages.insert(p + 1, upper);
            if let Some(upper) = split_full(pages) {
                self.chunks[c].refence();
                self.chunks.insert(c + 1, upper);
            }
        }
        None
    }

    /// Insert `key`, which sorts past every key of the map, into the last
    /// page, or a fresh page (or chunk) when the last one is full.
    fn append(&mut self, key: K, value: V) {
        let room = |chunk: &MapChunk<K, V>| {
            chunk.items.len() < PAGE_SIZE
                || chunk
                    .items
                    .last()
                    .is_some_and(|page| page.items.len() < PAGE_SIZE)
        };
        match self.chunks.last_mut() {
            Some(chunk) if room(chunk) => {
                let pages = page_mut(&mut chunk.items);
                match pages.last_mut() {
                    Some(page) if page.items.len() < PAGE_SIZE => {
                        page_mut(&mut page.items).push((key, value));
                        page.refence();
                    }
                    _ => pages.push(Fenced::single((key, value))),
                }
                chunk.refence();
            }
            _ => self
                .chunks
                .push(Fenced::single(Fenced::single((key, value)))),
        }
    }

    /// Mutable access to `key`'s value, inserting `default()` first if
    /// the key is absent.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let at = match self.find(&key) {
            Some(at) => at,
            None => {
                self.insert(key.clone(), default());
                self.find(&key).expect("entry was just inserted")
            }
        };
        self.value_mut(at)
    }

    /// Remove `key`'s entry, returning its value.  A missing key copies
    /// nothing; an emptied page or chunk is dropped.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (c, p, i) = self.find(key)?;
        let chunk = &mut self.chunks[c];
        let pages = page_mut(&mut chunk.items);
        let page = &mut pages[p];
        let (_, value) = page_mut(&mut page.items).remove(i);
        if page.items.is_empty() {
            pages.remove(p);
        } else {
            page.refence();
        }
        if pages.is_empty() {
            self.chunks.remove(c);
        } else {
            chunk.refence();
        }
        self.len -= 1;
        Some(value)
    }

    /// Keep only the entries `keep` accepts.  `keep` sees every entry
    /// exactly once, in key order; only pages that lose an entry, and
    /// their chunks, are written.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        let mut verdicts: Vec<bool> = Vec::new();
        for chunk in &mut self.chunks {
            verdicts.clear();
            verdicts.extend(
                chunk
                    .items
                    .iter()
                    .flat_map(|page| page.items.iter())
                    .map(|(k, v)| keep(k, v)),
            );
            if verdicts.iter().all(|&kept| kept) {
                continue;
            }
            let mut rest = &verdicts[..];
            let pages = page_mut(&mut chunk.items);
            for page in pages.iter_mut() {
                let (mine, after) = rest.split_at(page.items.len());
                rest = after;
                if mine.iter().all(|&kept| kept) {
                    continue;
                }
                let mut verdict = mine.iter();
                page_mut(&mut page.items)
                    .retain(|_| *verdict.next().expect("one verdict per entry"));
                if !page.items.is_empty() {
                    page.refence();
                }
            }
            pages.retain(|page| !page.items.is_empty());
            if !pages.is_empty() {
                chunk.refence();
            }
        }
        self.chunks.retain(|chunk| !chunk.items.is_empty());
        self.len = self.pages().map(|page| page.items.len()).sum();
    }

    /// Every page, in key order.
    fn pages(&self) -> impl Iterator<Item = &MapPage<K, V>> + '_ {
        self.chunks.iter().flat_map(|chunk| chunk.items.iter())
    }

    /// Iterate over the entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.pages()
            .flat_map(|page| page.items.iter().map(|(k, v)| (k, v)))
    }

    /// Iterate over the keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterate over the entries in key order with mutable values.
    /// Writes (and so copies, if shared) every chunk and page.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> + '_ {
        self.chunks
            .iter_mut()
            .flat_map(|chunk| page_mut(&mut chunk.items).iter_mut())
            .flat_map(|page| page_mut(&mut page.items).iter_mut().map(|(k, v)| (&*k, v)))
    }

    /// Iterate in key order over the entries whose keys fall in `range`.
    pub fn range(&self, range: RangeInclusive<K>) -> impl Iterator<Item = (&K, &V)> + '_ {
        let (lo, hi) = range.into_inner();
        let first_chunk = position(&self.chunks, &lo);
        let (first_page, offset) = self.chunks.get(first_chunk).map_or((0, 0), |chunk| {
            let page = position(&chunk.items, &lo);
            (page, position(&chunk.items[page].items, &lo))
        });
        self.chunks[first_chunk..]
            .iter()
            .enumerate()
            .flat_map(move |(n, chunk)| chunk.items[if n == 0 { first_page } else { 0 }..].iter())
            .enumerate()
            .flat_map(move |(n, page)| page.items[if n == 0 { offset } else { 0 }..].iter())
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
        for chunk in &self.chunks {
            visit(Arc::as_ptr(&chunk.items).cast());
            for page in chunk.items.iter() {
                visit(Arc::as_ptr(&page.items).cast());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashSet};

    /// Elements (or entries) one full chunk spans.
    const CHUNK: usize = PAGE_SIZE * PAGE_SIZE;

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

    /// Both levels of a map are non-empty, bounded and correctly fenced.
    fn assert_map_well_formed(map: &PagedMap<u32, u64>) {
        for chunk in &map.chunks {
            assert!(!chunk.items.is_empty() && chunk.items.len() <= PAGE_SIZE);
            assert_eq!(Some(&chunk.last), chunk.items.last().map(|p| &p.last));
            for page in chunk.items.iter() {
                assert!(!page.items.is_empty() && page.items.len() <= PAGE_SIZE);
                assert_eq!(Some(&page.last), page.items.last().map(|e| &e.0));
            }
        }
    }

    /// Every chunk but the last is full and none is empty; every page is
    /// full and the tail is not.
    fn assert_vec_well_formed(vec: &PagedVec<u64>) {
        let chunks = vec.chunks.len();
        for (n, chunk) in vec.chunks.iter().enumerate() {
            assert!(!chunk.is_empty() && chunk.len() <= PAGE_SIZE);
            assert!(n + 1 == chunks || chunk.len() == PAGE_SIZE);
            assert!(chunk.iter().all(|page| page.len() == PAGE_SIZE));
        }
        assert!(vec.tail.len() < PAGE_SIZE);
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
            assert_map_well_formed(&map);
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
        // Past two chunks of entries: chunk splits, emptied chunks, and
        // range scans across chunk fences.
        for seed in 0..3u64 {
            let mut rng = Rng(seed);
            // Even keys, built ascending: full pages in full chunks, so
            // the first insert between two of them splits a page and
            // with it a chunk.
            let n = (2 * CHUNK + rng.below(CHUNK as u64) as usize) as u32;
            let mut oracle: BTreeMap<u32, u64> = (0..n).map(|k| (2 * k, k as u64)).collect();
            let mut map: PagedMap<u32, u64> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
            let built_chunks = map.chunks.len();
            assert!(built_chunks >= 3 && map.chunks[0].items.len() == PAGE_SIZE);
            for step in 0..3_000u64 {
                let k = rng.below(2 * n as u64 + 10) as u32;
                match rng.below(5) {
                    0 | 1 => assert_eq!(map.insert(k | 1, step), oracle.insert(k | 1, step)),
                    2 => assert_eq!(map.remove(&k), oracle.remove(&k)),
                    3 => {
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
            }
            assert!(map.chunks.len() > built_chunks, "a chunk split");
            assert_map_eq(&map, &oracle);
            assert_map_well_formed(&map);
            // Range scans across chunk fences.
            for _ in 0..20 {
                let fence = map.chunks[rng.below(map.chunks.len() as u64) as usize].last;
                let a = fence.saturating_sub(rng.below(3 * PAGE_SIZE as u64) as u32);
                let b = fence + rng.below(CHUNK as u64) as u32;
                let got: Vec<_> = map.range(a..=b).map(|(k, v)| (*k, *v)).collect();
                let want: Vec<_> = oracle.range(a..=b).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, want, "{a}..={b}");
            }
            // Remove a run of keys wider than a chunk: the chunks it
            // covers empty and are dropped.
            let chunks = map.chunks.len();
            let lo = rng.below(n as u64 / 2) as u32;
            for k in lo..lo + 2 * CHUNK as u32 + PAGE_SIZE as u32 {
                assert_eq!(map.remove(&k), oracle.remove(&k));
            }
            assert!(map.chunks.len() < chunks, "an emptied chunk is dropped");
            assert_map_eq(&map, &oracle);
            assert_map_well_formed(&map);
            // And a retain that empties whole chunks and thins the rest.
            let (x, y) = (n / 2, n / 2 + 2 * CHUNK as u32);
            let keep = |k: &u32, v: &u64| (*k < x || *k > y) && !(k + *v as u32).is_multiple_of(5);
            map.retain(keep);
            oracle.retain(|k, v| keep(k, v));
            assert_map_eq(&map, &oracle);
            assert_map_well_formed(&map);
        }
    }

    #[test]
    fn paged_vec_matches_vec() {
        for seed in 0..20u64 {
            let mut rng = Rng(seed);
            let mut paged: PagedVec<u64> = PagedVec::new();
            let mut oracle: Vec<u64> = Vec::new();
            // Every fifth seed starts past two chunks and cuts across
            // chunks as well as pages.
            let (prefill, cut) = if seed % 5 == 0 {
                (
                    2 * CHUNK + rng.below(CHUNK as u64) as usize,
                    CHUNK + PAGE_SIZE,
                )
            } else {
                (0, 2 * PAGE_SIZE)
            };
            for value in 0..prefill as u64 {
                paged.push(value);
                oracle.push(value);
            }
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
                        // Mostly short cuts; one in fifty anywhere up to
                        // `cut` back, keeping long arrays long.
                        let back = if rng.below(50) == 0 {
                            cut
                        } else {
                            PAGE_SIZE / 2
                        };
                        let len = oracle.len().saturating_sub(rng.below(back as u64) as usize);
                        paged.truncate(len);
                        oracle.truncate(len);
                    }
                    _ => {}
                }
            }
            assert_eq!(paged.len(), oracle.len());
            assert!(paged.iter().eq(oracle.iter()));
            assert!((0..oracle.len()).all(|i| paged[i] == oracle[i]));
            assert_vec_well_formed(&paged);
            // Cuts exactly at and around chunk and page boundaries.
            for len in [2 * CHUNK + 1, 2 * CHUNK, CHUNK + PAGE_SIZE, CHUNK - 1, 5, 0] {
                paged.truncate(len);
                oracle.truncate(len);
                assert!(paged.iter().eq(oracle.iter()), "truncate to {len}");
                assert_vec_well_formed(&paged);
            }
        }
    }

    #[test]
    fn clones_are_isolated_and_copy_only_written_pages() {
        let mut rng = Rng(7);
        let size = 2 * CHUNK + 20 * PAGE_SIZE;
        let mut map: PagedMap<u32, u64> = (0..size as u32).map(|k| (k, 0)).collect();
        let mut vec: PagedVec<u64> = (0..size as u64).collect();
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
            // Every page and chunk but the written ones is still shared,
            // and each unshared one was either copied or freshly
            // allocated: a round writes at most one entry of the map and
            // two elements of the vector, each through one chunk and one
            // page.
            let (old, new) = (pages_of(&map_before), pages_of(&map));
            let (old_v, new_v) = (pages_of(&vec_before), pages_of(&vec));
            let fresh = new.difference(&old).count() + new_v.difference(&old_v).count();
            assert!(fresh <= 6, "round {round}: {fresh} unshared pages");
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
    fn one_write_copies_one_chunk_and_one_page_at_any_size() {
        for n in [40_000u32, 400_000] {
            let vec: PagedVec<u32> = (0..n).collect();
            let map: PagedMap<u32, u32> = (0..n).map(|k| (k, k)).collect();
            let (mut vec_w, mut map_w) = (vec.clone(), map.clone());
            let copied = pages_copied();
            vec_w[n as usize / 2] += 1;
            *map_w.get_mut(&(n / 2)).expect("present") += 1;
            let copied = pages_copied() - copied;
            assert_eq!(copied, 4, "{n}: a chunk and a page in each container");
            assert_eq!(
                (vec[n as usize / 2], map.get(&(n / 2))),
                (n / 2, Some(&(n / 2)))
            );
            // The copies are the only chunks and pages not shared.
            let (mut old, mut new) = (pages_of(&vec), pages_of(&vec_w));
            old.extend(pages_of(&map));
            new.extend(pages_of(&map_w));
            assert_eq!(new.difference(&old).count() as u64, copied, "{n}");
            assert_eq!(old.difference(&new).count() as u64, copied, "{n}");
        }
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
        assert_eq!(
            pages_copied(),
            copied + 2,
            "only the losing page and its chunk"
        );
    }
}
