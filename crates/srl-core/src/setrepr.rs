//! `SetRepr` — the backing store of [`Value::Set`]: inline for small sets, a
//! sorted vector with a slice window once it grows, and a **columnar tier**
//! below both when every element is a plain interned atom.
//!
//! The paper's cost model is driven by the set primitives (`choose`, `rest`,
//! `insert`, `set-reduce`), so the representation behind `Value::Set` is the
//! system's universal data structure. The original backing store was a
//! `BTreeSet<Value>`; profiling after the zero-copy refactor showed its node
//! churn dominating reduce-heavy workloads, and it was replaced by a sorted
//! `Vec<Value>`. This revision adds type-specialised tiers below the
//! vector, giving a four-point tier lattice:
//!
//! * **Inline small sets** (`inline`). Most accumulator sets in BASRL runs
//!   hold at most [`INLINE_CAP`] elements (bounded accumulators are the whole
//!   point of Theorem 4.13), so those live in a fixed inline array — no heap
//!   allocation for the element storage at all.
//! * **Sorted vector with a slice window** (`spilled`) for larger sets of
//!   arbitrary values: iteration walks contiguous memory; membership and
//!   `insert` are a binary search; `choose` is the first element of the live
//!   window, O(1); `rest` advances the window start, amortized O(1).
//! * **Columnar atom ids** (`atoms`): when every element is an *unnamed*
//!   atom with index ≤ `u32::MAX`, the set stores a sorted `Vec<u32>` of
//!   interned ids instead of `Vec<Value>` — 4 bytes per element instead of
//!   a full `Value`, id-space comparisons instead of `Ord` dispatch, and
//!   `memcpy`-speed bulk merges. The same drain window as `spilled` applies.
//! * **Dense bitset** (`bits`): an atoms set that is large
//!   (≥ [`BITS_MIN_LEN`]) and dense (max id < [`BITS_MAX_SPREAD`] × len)
//!   is stored as a bit vector — O(1)-word membership, word-parallel
//!   union. This is the membership-heavy-fold mode for dense
//!   atom universes (alphabet-indexed unions).
//!
//! Sets of tuples, sets of sets and mixed contents live in the two generic
//! tiers.
//!
//! Selection is **adaptive at construction**: `FromIterator`, the merge ops
//! and clone re-tier through `SetRepr::from_sorted_vec`, which promotes to
//! the columnar tier whenever every element qualifies; `insert` past the
//! inline cap promotes instead of spilling when it can. This is the only
//! tier decision: codegen and the VM never pick a representation, so a
//! fold accumulator that starts as the generic empty set promotes on the
//! insert that takes it past the inline cap. A thread-local toggle
//! ([`set_atom_tier_enabled`], scoped by [`with_atom_tier`]) disables the
//! columnar tier entirely so the differential suites can pit the tiers
//! against each other honestly.
//!
//! ## Widening is observationally free
//!
//! The columnar tiers are *lossless*: they only ever hold unnamed atoms
//! (named atoms — equal to unnamed ones but displayed differently — are
//! rejected by `plain_id` and force the generic tier), so reconstructing
//! `Value::atom(id)` round-trips display, equality, order and hash exactly.
//! Inserting a value that does not fit the columnar invariant **widens** the
//! store back to the generic representation; since the element sequence is
//! unchanged, every observable — iteration order, `choose`/`rest`,
//! first-wins deduplication, and with them every `EvalStats` counter — is
//! identical across tiers. `tests/tests/set_tier_differential.rs` pins this
//! byte-for-byte across backends and thread counts.
//!
//! The bulk union [`SetRepr::merge_union`] is a two-pointer merge over the
//! sorted representations, with a **galloping** (exponentially probing) fast
//! path when one operand is much smaller than the other, id-space merges
//! when both operands are columnar, and word-parallel bit ops when both are
//! dense. `merge_union` works **in place**: elements below the incoming
//! set's minimum stay put, so an incoming set that sorts after the
//! receiver is a plain append, and the rest of the receiver is moved, never
//! cloned. A fold that unions into a uniquely held accumulator therefore
//! pays for its delta, not for its accumulator.
//!
//! ## Invariants
//!
//! The live elements are strictly sorted ascending in the total [`Value`]
//! order and duplicate-free — inline: `slots[..len]`; spilled:
//! `items[start..]`; atoms: `ids[start..]`; bits: the set bits of `words`,
//! with `len` their popcount and `min` the lowest set bit. Dead slots hold
//! placeholders and are never observed: equality, ordering, hashing,
//! iteration and length all go through the live window. [`Clone`] compacts
//! and re-tiers — it copies only the live elements, back into the smallest
//! fitting tier.
//!
//! Every tier answers [`SetRepr::weight_sum`] — the sum of its elements'
//! [`Value::weight`]s — in O(1), so neither the evaluator's size budget nor
//! a fold's per-iteration accumulator weight walks a set. The columnar
//! tiers derive it (every element is an atom of weight 1), the inline tier
//! sums its ≤ [`INLINE_CAP`] elements, and the spilled tier keeps it as a
//! field that every mutation updates: `insert` adds the element's weight,
//! `pop_first` subtracts it, `merge_union` adds the novel elements', and
//! demotion, clone and the merge constructors carry or recompute it.

use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use crate::value::Value;

/// Sets of up to this many elements are stored inline, without a heap
/// allocation for the element storage.
pub const INLINE_CAP: usize = 4;

/// Minimum cardinality before the dense bitset mode is considered.
pub const BITS_MIN_LEN: usize = 64;

/// Maximum spread (max id / cardinality) the bitset mode tolerates: a set
/// with `len` elements is stored dense only while its largest id stays
/// below `BITS_MAX_SPREAD * len`, i.e. at least 1-in-16 occupancy.
pub const BITS_MAX_SPREAD: usize = 16;

/// Galloping threshold for the bulk merges: the exponential probe engages
/// when `min(n, m) * GALLOP_SKEW < max(n, m)` (and the larger side is big
/// enough for the probe to pay for itself).
const GALLOP_SKEW: usize = 8;

/// Larger-side floor below which galloping is never worth the bookkeeping.
const GALLOP_MIN_LONG: usize = 64;

/// Placeholder stored in dead slots; never observed.
const PAD: Value = Value::Bool(false);

thread_local! {
    /// Per-thread columnar-tier switch, default **on**. Thread-local (not
    /// process-global) so differential tests toggling it off cannot race
    /// concurrently running tests on other threads; the parallel fold pool
    /// propagates the calling thread's value into its workers.
    static ATOM_TIER_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// True if newly built all-atom sets may use the columnar tier on this
/// thread.
pub fn atom_tier_enabled() -> bool {
    ATOM_TIER_ENABLED.with(Cell::get)
}

/// Enables/disables the columnar tier for sets built on this thread from
/// now on (existing sets are untouched — they widen lazily on clone or
/// merge). Returns the previous value so callers can restore it.
pub fn set_atom_tier_enabled(on: bool) -> bool {
    ATOM_TIER_ENABLED.with(|c| c.replace(on))
}

/// Runs `f` with the columnar tier switched `on` for this thread, then
/// restores the previous setting — also when `f` unwinds, so a thread that
/// outlives a caught panic (a pooled session thread) keeps its own setting.
pub fn with_atom_tier<R>(on: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_atom_tier_enabled(self.0);
        }
    }
    let _restore = Restore(set_atom_tier_enabled(on));
    f()
}

/// A finite set of [`Value`]s: inline array when small, sorted vector with a
/// slice window once spilled, sorted `u32` ids or a dense bitset when every
/// element is a plain atom.
///
/// Iteration order *is* the value order — exactly the order `set-reduce`
/// scans. See the module docs for the representation invariants.
pub struct SetRepr {
    store: Store,
}

/// The columnar tiers, as a classification for diagnostics: which storage
/// family a columnar set belongs to (see [`SetRepr::columnar_kind`] and the
/// per-tier engagement counters in `crate::eval`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ColumnarKind {
    /// Sorted `u32` atom ids.
    Atoms,
    /// Dense bitset over atom ids.
    Bits,
}

enum Store {
    /// `slots[..len]` live, sorted, duplicate-free; the rest is [`PAD`].
    Small { len: u8, slots: [Value; INLINE_CAP] },
    /// `items[start..]` live (`rest` advances `start` instead of shifting);
    /// `weight` is the sum of the live elements' [`Value::weight`]s.
    Spilled {
        items: Vec<Value>,
        start: usize,
        weight: usize,
    },
    /// Columnar: `ids[start..]` live, sorted, duplicate-free — every element
    /// is the unnamed atom of that index. Same drain window as `Spilled`.
    Atoms { ids: Vec<u32>, start: usize },
    /// Dense columnar: the set bits of `words` are the atom ids; `len` is
    /// their popcount, `min` the lowest set bit (0 when empty).
    Bits { words: Vec<u64>, len: u32, min: u32 },
}

/// The atom id of `v` if it can live in a columnar store: an **unnamed**
/// atom with index ≤ `u32::MAX`. Named atoms are excluded — they compare
/// equal to unnamed ones but display differently, and the columnar store
/// could not reproduce the name.
fn plain_id(v: &Value) -> Option<u32> {
    match v {
        Value::Atom(a) if a.name.is_none() => u32::try_from(a.index).ok(),
        _ => None,
    }
}

/// The atom index of `v` regardless of name (for membership tests against
/// columnar stores, where equality ignores names).
fn atom_index_of(v: &Value) -> Option<u64> {
    v.as_atom().map(|a| a.index)
}

fn sorted_ids_of(items: &[Value]) -> Option<Vec<u32>> {
    let mut ids = Vec::with_capacity(items.len());
    for v in items {
        ids.push(plain_id(v)?);
    }
    Some(ids)
}

/// Sum of the elements' weights — the walk the spilled tier's cached
/// weight stands in for.
fn weight_of(items: &[Value]) -> usize {
    items.iter().map(Value::weight).sum()
}

/// Generic-tier store for an already-sorted, deduplicated vector. `weight`
/// is the elements' weight sum when the caller knows it; otherwise a
/// spilled store walks the elements once.
fn store_from_sorted_values(items: Vec<Value>, weight: Option<usize>) -> Store {
    if items.len() <= INLINE_CAP {
        let mut slots = [PAD; INLINE_CAP];
        let len = items.len() as u8;
        for (slot, v) in slots.iter_mut().zip(items) {
            *slot = v;
        }
        Store::Small { len, slots }
    } else {
        let weight = weight.unwrap_or_else(|| weight_of(&items));
        Store::Spilled {
            items,
            start: 0,
            weight,
        }
    }
}

fn bit_test(words: &[u64], id: u32) -> bool {
    let w = id as usize / 64;
    w < words.len() && (words[w] >> (id % 64)) & 1 == 1
}

/// Walks the set bits of a word slice in ascending order.
struct BitCursor<'a> {
    words: &'a [u64],
    wi: usize,
    cur: u64,
}

impl<'a> BitCursor<'a> {
    fn new(words: &'a [u64]) -> Self {
        BitCursor {
            words,
            wi: 0,
            cur: words.first().copied().unwrap_or(0),
        }
    }

    /// A cursor positioned past the first `skip` set bits (word-popcount
    /// skip, then per-bit within the landing word).
    fn skipped(words: &'a [u64], mut skip: usize) -> Self {
        let mut wi = 0;
        let mut cur = words.first().copied().unwrap_or(0);
        loop {
            let here = cur.count_ones() as usize;
            if here > skip {
                break;
            }
            skip -= here;
            wi += 1;
            if wi >= words.len() {
                cur = 0;
                wi = words.len().saturating_sub(1);
                break;
            }
            cur = words[wi];
        }
        for _ in 0..skip {
            cur &= cur - 1;
        }
        BitCursor { words, wi, cur }
    }

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.cur != 0 {
                let b = self.cur.trailing_zeros();
                self.cur &= self.cur - 1;
                return Some((self.wi as u32) * 64 + b);
            }
            self.wi += 1;
            if self.wi >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.wi];
        }
    }
}

/// The lowest set bit at or above `from`, if any.
fn next_set_bit(words: &[u64], from: u32) -> Option<u32> {
    let mut wi = from as usize / 64;
    if wi >= words.len() {
        return None;
    }
    let mut cur = words[wi] & (u64::MAX << (from % 64));
    loop {
        if cur != 0 {
            return Some((wi as u32) * 64 + cur.trailing_zeros());
        }
        wi += 1;
        if wi >= words.len() {
            return None;
        }
        cur = words[wi];
    }
}

/// A borrowed element of a set: a columnar atom id or a full value. The
/// comparison glue lets the cursor merges and lexicographic walks mix tiers
/// without materialising `Value`s.
enum ElemRef<'a> {
    Id(u32),
    Val(&'a Value),
}

impl ElemRef<'_> {
    fn to_value(&self) -> Value {
        match self {
            ElemRef::Id(i) => Value::atom(*i as u64),
            ElemRef::Val(v) => (*v).clone(),
        }
    }
}

/// How the unnamed atom `id` compares to `v` in the total value order
/// (booleans < atoms < everything else; atoms by index).
fn id_cmp_value(id: u32, v: &Value) -> Ordering {
    match v {
        Value::Bool(_) => Ordering::Greater,
        Value::Atom(a) => (id as u64).cmp(&a.index),
        _ => Ordering::Less,
    }
}

fn cmp_elem(a: &ElemRef<'_>, b: &ElemRef<'_>) -> Ordering {
    match (a, b) {
        (ElemRef::Id(x), ElemRef::Id(y)) => x.cmp(y),
        (ElemRef::Id(x), ElemRef::Val(v)) => id_cmp_value(*x, v),
        (ElemRef::Val(v), ElemRef::Id(y)) => id_cmp_value(*y, v).reverse(),
        (ElemRef::Val(x), ElemRef::Val(y)) => x.cmp(y),
    }
}

/// Internal by-reference iterator over the live elements of any tier.
enum ElemIter<'a> {
    Vals(std::slice::Iter<'a, Value>),
    Ids(std::slice::Iter<'a, u32>),
    Bits(BitCursor<'a>),
}

impl<'a> Iterator for ElemIter<'a> {
    type Item = ElemRef<'a>;

    fn next(&mut self) -> Option<ElemRef<'a>> {
        match self {
            ElemIter::Vals(it) => it.next().map(ElemRef::Val),
            ElemIter::Ids(it) => it.next().map(|&i| ElemRef::Id(i)),
            ElemIter::Bits(c) => c.next().map(ElemRef::Id),
        }
    }
}

/// Iterator over a set's elements in ascending value order, yielding
/// **owned** values. Columnar tiers materialise each atom on the fly (an
/// unnamed `Value::Atom` is two words, no allocation); value tiers clone —
/// an O(1) `Arc` bump for collection elements.
pub struct SetIter<'a> {
    inner: ElemIter<'a>,
    remaining: usize,
}

impl Iterator for SetIter<'_> {
    type Item = Value;

    fn next(&mut self) -> Option<Value> {
        if self.remaining == 0 {
            return None;
        }
        match self.inner.next() {
            Some(e) => {
                self.remaining -= 1;
                Some(e.to_value())
            }
            None => {
                self.remaining = 0;
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for SetIter<'_> {}

/// A columnar view of one merge operand: a borrowed id slice, a dense word
/// slice, or (for an all-plain-atom inline set) a small id buffer lifted on
/// the fly.
enum ColView<'a> {
    Ids(&'a [u32]),
    Buf([u32; INLINE_CAP], usize),
    Bits(&'a [u64]),
}

impl ColView<'_> {
    fn id_slice(&self) -> Option<&[u32]> {
        match self {
            ColView::Ids(s) => Some(s),
            ColView::Buf(buf, n) => Some(&buf[..*n]),
            ColView::Bits(_) => None,
        }
    }

    fn bits(&self) -> Option<&[u64]> {
        match self {
            ColView::Bits(w) => Some(w),
            _ => None,
        }
    }
}

fn skewed(n: usize, m: usize) -> bool {
    n.max(m) >= GALLOP_MIN_LONG && n.min(m) * GALLOP_SKEW < n.max(m)
}

/// Index of the first element of `s` that is `>= bound`, found by an
/// exponential probe followed by a binary search within the bracketed run.
/// Precondition: `s[0] < bound` (so the result is ≥ 1 when `s` is
/// non-empty). O(log run) instead of O(run).
fn gallop_lt<T: Ord>(s: &[T], bound: &T) -> usize {
    let mut hi = 1;
    while hi < s.len() && s[hi] < *bound {
        hi <<= 1;
    }
    let lo = hi >> 1;
    let hi = hi.min(s.len());
    lo + s[lo..hi].partition_point(|x| x < bound)
}

/// Merges the sorted-dedup `incoming` into the sorted-dedup live window
/// `items[start..]` in place; on equal elements `items`' copy wins. The
/// elements below `incoming`'s minimum stay where they are — so an
/// `incoming` that sorts after the window is a plain append — and the rest
/// is split off and merged back by moving, never cloning. With skewed
/// sizes, runs from the side that is behind are located by exponential
/// probe. Calls `novel` on each element of `incoming` that was absent.
fn merge_into<T: Ord + Clone>(
    items: &mut Vec<T>,
    start: usize,
    incoming: &[T],
    mut novel: impl FnMut(&T),
) {
    let Some(first) = incoming.first() else {
        return;
    };
    let at = start + items[start..].partition_point(|x| x < first);
    let tail = items.split_off(at);
    items.reserve(tail.len() + incoming.len());
    let gallop = skewed(tail.len(), incoming.len());
    let mut rest = tail.into_iter();
    let mut j = 0;
    while j < incoming.len() {
        let Some(head) = rest.as_slice().first() else {
            break;
        };
        match head.cmp(&incoming[j]) {
            Ordering::Less => {
                let run = if gallop {
                    gallop_lt(rest.as_slice(), &incoming[j])
                } else {
                    1
                };
                items.extend(rest.by_ref().take(run));
            }
            Ordering::Greater => {
                let run = if gallop {
                    gallop_lt(&incoming[j..], head)
                } else {
                    1
                };
                for v in &incoming[j..j + run] {
                    novel(v);
                    items.push(v.clone());
                }
                j += run;
            }
            Ordering::Equal => {
                items.extend(rest.next());
                j += 1;
            }
        }
    }
    items.extend(rest);
    for v in &incoming[j..] {
        novel(v);
        items.push(v.clone());
    }
}

/// Union of two columnar views in id space, into a fresh set.
fn union_cols(a: &ColView<'_>, b: &ColView<'_>) -> SetRepr {
    match (a.id_slice(), b.id_slice()) {
        (Some(x), Some(y)) => {
            let mut ids = x.to_vec();
            merge_into(&mut ids, 0, y, |_| {});
            SetRepr::from_sorted_ids(ids)
        }
        (None, None) => {
            let (wa, wb) = (a.bits().unwrap(), b.bits().unwrap());
            let (long, short) = if wa.len() >= wb.len() {
                (wa, wb)
            } else {
                (wb, wa)
            };
            let mut words = long.to_vec();
            for (w, s) in words.iter_mut().zip(short.iter()) {
                *w |= s;
            }
            SetRepr::from_bits(words)
        }
        (Some(x), None) => bits_with_ids(b.bits().unwrap(), x),
        (None, Some(y)) => bits_with_ids(a.bits().unwrap(), y),
    }
}

/// Dense words ∪ an id slice (union is symmetric, so this covers both
/// mixed orientations — ids carry no names to lose).
fn bits_with_ids(words: &[u64], ids: &[u32]) -> SetRepr {
    let mut out = words.to_vec();
    if let Some(&max) = ids.last() {
        let need = max as usize / 64 + 1;
        if out.len() < need {
            out.resize(need, 0);
        }
    }
    for &id in ids {
        out[id as usize / 64] |= 1u64 << (id % 64);
    }
    SetRepr::from_bits(out)
}

/// Cursor-merge union across mixed tiers, in the total value order; ties
/// keep `a`'s copy.
fn merge_union_elems(a: &SetRepr, b: &SetRepr) -> Vec<Value> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut x = a.elems().peekable();
    let mut y = b.elems().peekable();
    loop {
        let ord = match (x.peek(), y.peek()) {
            (Some(e), Some(f)) => cmp_elem(e, f),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => break,
        };
        match ord {
            Ordering::Less => out.push(x.next().unwrap().to_value()),
            Ordering::Greater => out.push(y.next().unwrap().to_value()),
            Ordering::Equal => {
                out.push(x.next().unwrap().to_value());
                y.next();
            }
        }
    }
    out
}

impl SetRepr {
    /// The empty set.
    pub fn new() -> Self {
        SetRepr {
            store: Store::Small {
                len: 0,
                slots: [PAD; INLINE_CAP],
            },
        }
    }

    /// Builds the set from an already-sorted, deduplicated vector (crate
    /// only: callers are the merge ops, `Clone`, `FromIterator` and the
    /// VM's product kernel, which establish the invariant themselves). This
    /// is the adaptive tier
    /// selection point: all-plain-atom contents go columnar, everything
    /// else stays generic. `weight` is the elements' weight sum when the
    /// caller already knows it.
    pub(crate) fn from_sorted_vec(items: Vec<Value>, weight: Option<usize>) -> Self {
        if items.len() > INLINE_CAP && atom_tier_enabled() {
            if let Some(ids) = sorted_ids_of(&items) {
                return SetRepr::from_sorted_ids(ids);
            }
        }
        SetRepr {
            store: store_from_sorted_values(items, weight),
        }
    }

    /// Builds the set from sorted, deduplicated atom ids, picking between
    /// inline (small), dense bitset (large and dense) and sorted-id
    /// (everything else) — or materialising values when the tier is off.
    fn from_sorted_ids(ids: Vec<u32>) -> Self {
        if ids.len() <= INLINE_CAP || !atom_tier_enabled() {
            let weight = ids.len();
            return SetRepr {
                store: store_from_sorted_values(
                    ids.into_iter().map(|i| Value::atom(i as u64)).collect(),
                    Some(weight),
                ),
            };
        }
        if ids.len() >= BITS_MIN_LEN {
            let max = *ids.last().unwrap() as usize;
            if max < BITS_MAX_SPREAD * ids.len() {
                let mut words = vec![0u64; max / 64 + 1];
                for &id in &ids {
                    words[id as usize / 64] |= 1u64 << (id % 64);
                }
                return SetRepr {
                    store: Store::Bits {
                        words,
                        len: ids.len() as u32,
                        min: ids[0],
                    },
                };
            }
        }
        SetRepr {
            store: Store::Atoms { ids, start: 0 },
        }
    }

    /// Builds the set from a bit vector of atom ids, keeping the dense form
    /// only while it is still large and dense enough (the criteria mirror
    /// [`SetRepr::from_sorted_ids`], so the two never ping-pong).
    fn from_bits(mut words: Vec<u64>) -> Self {
        while words.last() == Some(&0) {
            words.pop();
        }
        let len: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        if len == 0 {
            return SetRepr::new();
        }
        let max = {
            let w = words.last().unwrap();
            ((words.len() - 1) as u32) * 64 + (63 - w.leading_zeros())
        };
        if len > INLINE_CAP
            && atom_tier_enabled()
            && len >= BITS_MIN_LEN
            && (max as usize) < BITS_MAX_SPREAD * len
        {
            let min = BitCursor::new(&words).next().unwrap();
            return SetRepr {
                store: Store::Bits {
                    words,
                    len: len as u32,
                    min,
                },
            };
        }
        let mut ids = Vec::with_capacity(len);
        let mut c = BitCursor::new(&words);
        while let Some(id) = c.next() {
            ids.push(id);
        }
        SetRepr::from_sorted_ids(ids)
    }

    /// The live elements by reference, when this is a value-backed tier.
    /// Columnar tiers return `None` — callers inside the crate use this as
    /// the zero-copy fast path and fall back to [`SetRepr::iter`].
    #[inline]
    pub(crate) fn value_slice(&self) -> Option<&[Value]> {
        match &self.store {
            Store::Small { len, slots } => Some(&slots[..*len as usize]),
            Store::Spilled { items, start, .. } => Some(&items[*start..]),
            _ => None,
        }
    }

    /// The live id window, when this is the sorted-id tier.
    fn live_ids(&self) -> Option<&[u32]> {
        match &self.store {
            Store::Atoms { ids, start } => Some(&ids[*start..]),
            _ => None,
        }
    }

    /// Sum of the live elements' [`Value::weight`]s, without walking the
    /// set: atoms weigh 1 each, the spilled tier reads its cached sum and
    /// the inline tier adds up its ≤ [`INLINE_CAP`] elements.
    #[inline]
    pub fn weight_sum(&self) -> usize {
        match &self.store {
            Store::Small { len, slots } => weight_of(&slots[..*len as usize]),
            Store::Spilled {
                items,
                start,
                weight,
            } => {
                debug_assert_eq!(*weight, weight_of(&items[*start..]), "stale set weight");
                *weight
            }
            Store::Atoms { .. } | Store::Bits { .. } => self.len(),
        }
    }

    /// For columnar tiers: `Some(max_id)` (`Some(None)` when empty). `None`
    /// for value-backed tiers. Lets `new`-atom allocation scan sets without
    /// walking elements.
    pub(crate) fn columnar_max_id(&self) -> Option<Option<u64>> {
        match &self.store {
            Store::Atoms { ids, start } => Some(ids[*start..].last().map(|&i| i as u64)),
            Store::Bits { words, len, .. } => {
                if *len == 0 {
                    return Some(None);
                }
                let w = words.last().unwrap();
                Some(Some(
                    ((words.len() - 1) as u64) * 64 + (63 - w.leading_zeros()) as u64,
                ))
            }
            _ => None,
        }
    }

    /// The storage tier currently backing the set, for diagnostics.
    pub fn tier_label(&self) -> &'static str {
        match &self.store {
            Store::Small { .. } => "inline",
            Store::Spilled { .. } => "spilled",
            Store::Atoms { .. } => "atoms",
            Store::Bits { .. } => "bits",
        }
    }

    /// Which columnar tier backs the set, or `None` for the generic slice
    /// tiers — the classification behind the per-tier engagement counters.
    pub(crate) fn columnar_kind(&self) -> Option<ColumnarKind> {
        match &self.store {
            Store::Atoms { .. } => Some(ColumnarKind::Atoms),
            Store::Bits { .. } => Some(ColumnarKind::Bits),
            Store::Small { .. } | Store::Spilled { .. } => None,
        }
    }

    fn elems(&self) -> ElemIter<'_> {
        match &self.store {
            Store::Small { len, slots } => ElemIter::Vals(slots[..*len as usize].iter()),
            Store::Spilled { items, start, .. } => ElemIter::Vals(items[*start..].iter()),
            Store::Atoms { ids, start } => ElemIter::Ids(ids[*start..].iter()),
            Store::Bits { words, .. } => ElemIter::Bits(BitCursor::new(words)),
        }
    }

    fn col_view(&self) -> Option<ColView<'_>> {
        match &self.store {
            Store::Atoms { ids, start } => Some(ColView::Ids(&ids[*start..])),
            Store::Bits { words, .. } => Some(ColView::Bits(words)),
            Store::Small { len, slots } => {
                let n = *len as usize;
                let mut buf = [0u32; INLINE_CAP];
                for (slot, v) in buf.iter_mut().zip(&slots[..n]) {
                    *slot = plain_id(v)?;
                }
                Some(ColView::Buf(buf, n))
            }
            Store::Spilled { .. } => None,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Small { len, .. } => *len as usize,
            Store::Spilled { items, start, .. } => items.len() - start,
            Store::Atoms { ids, start } => ids.len() - start,
            Store::Bits { len, .. } => *len as usize,
        }
    }

    /// True if the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the elements in ascending value order, yielding owned
    /// values (columnar tiers materialise atoms on the fly).
    #[inline]
    pub fn iter(&self) -> SetIter<'_> {
        SetIter {
            remaining: self.len(),
            inner: self.elems(),
        }
    }

    /// Iterates the elements at positions `range` of the ascending order —
    /// the parallel pool's shard view. Value and id tiers slice the live
    /// window; the bitset tier skips by word popcount.
    pub fn iter_range(&self, range: Range<usize>) -> SetIter<'_> {
        debug_assert!(range.start <= range.end && range.end <= self.len());
        let remaining = range.end - range.start;
        let inner = match &self.store {
            Store::Small { len, slots } => ElemIter::Vals(slots[..*len as usize][range].iter()),
            Store::Spilled { items, start, .. } => ElemIter::Vals(items[*start..][range].iter()),
            Store::Atoms { ids, start } => ElemIter::Ids(ids[*start..][range].iter()),
            Store::Bits { words, .. } => ElemIter::Bits(BitCursor::skipped(words, range.start)),
        };
        SetIter { inner, remaining }
    }

    /// The minimal element — the paper's `choose(S)` — if non-empty.
    /// Returned owned: columnar tiers have no `Value` to borrow (an
    /// unnamed atom is constructed in two words, no allocation).
    #[inline]
    pub fn first(&self) -> Option<Value> {
        match &self.store {
            Store::Small { len, slots } => slots[..*len as usize].first().cloned(),
            Store::Spilled { items, start, .. } => items.get(*start).cloned(),
            Store::Atoms { ids, start } => ids.get(*start).map(|&i| Value::atom(i as u64)),
            Store::Bits { len, min, .. } => (*len > 0).then(|| Value::atom(*min as u64)),
        }
    }

    /// Membership test: binary search on the sorted tiers, one word probe
    /// on the bitset tier. Columnar tests compare by atom index (names do
    /// not participate in equality).
    pub fn contains(&self, value: &Value) -> bool {
        match &self.store {
            Store::Small { len, slots } => slots[..*len as usize].binary_search(value).is_ok(),
            Store::Spilled { items, start, .. } => items[*start..].binary_search(value).is_ok(),
            Store::Atoms { ids, start } => match atom_index_of(value) {
                Some(ix) => {
                    u32::try_from(ix).is_ok_and(|id| ids[*start..].binary_search(&id).is_ok())
                }
                None => false,
            },
            Store::Bits { words, .. } => match atom_index_of(value) {
                Some(ix) => u32::try_from(ix).is_ok_and(|id| bit_test(words, id)),
                None => false,
            },
        }
    }

    /// Inserts `value`, keeping the set sorted and duplicate-free. Returns
    /// `true` if the value was new. Like `BTreeSet::insert`, an equal
    /// element that is already present is **kept** (first-wins: equal
    /// values may still differ in display, e.g. named vs. unnamed atoms —
    /// which is also why columnar stores, which hold only unnamed atoms,
    /// answer named duplicates with `false` without widening). An inline
    /// set growing past the cap promotes to the columnar tier when every
    /// element qualifies, and spills to the vector otherwise; a columnar
    /// set receiving a value it cannot represent widens first.
    pub fn insert(&mut self, value: Value) -> bool {
        let weight = value.weight();
        self.insert_weighted(value, weight)
    }

    /// [`SetRepr::insert`] for a caller that already knows
    /// `value.weight()` (the evaluator charges it before inserting), so the
    /// spilled tier's weight sum grows without a second walk.
    pub(crate) fn insert_weighted(&mut self, value: Value, weight: usize) -> bool {
        match &mut self.store {
            Store::Small { len, slots } => {
                let n = *len as usize;
                let pos = match slots[..n].binary_search(&value) {
                    Ok(_) => return false,
                    Err(pos) => pos,
                };
                if n < INLINE_CAP {
                    // Shift the tail one slot right; the rotated-in value is
                    // the PAD from slot n, immediately overwritten.
                    slots[pos..=n].rotate_right(1);
                    slots[pos] = value;
                    *len += 1;
                    return true;
                }
                if atom_tier_enabled() {
                    if let (Some(mut ids), Some(id)) =
                        (sorted_ids_of(&slots[..n]), plain_id(&value))
                    {
                        // Promote instead of spilling: the inline ids plus
                        // the incoming one go columnar.
                        ids.insert(pos, id);
                        self.store = Store::Atoms { ids, start: 0 };
                        return true;
                    }
                }
                // Spill: move the inline elements into a vector.
                let mut items = Vec::with_capacity(2 * INLINE_CAP);
                items.extend(slots.iter_mut().map(|s| std::mem::replace(s, PAD)));
                items.insert(pos, value);
                self.store = store_from_sorted_values(items, None);
                return true;
            }
            Store::Spilled {
                items,
                start,
                weight: sum,
            } => {
                // Shifts only the tail after the insertion point; the common
                // ascending-rebuild case (pos == len) is a plain push.
                let pos = match items[*start..].binary_search(&value) {
                    Ok(_) => return false,
                    Err(pos) => pos,
                };
                items.insert(*start + pos, value);
                *sum += weight;
                return true;
            }
            Store::Atoms { ids, start } => {
                if let Some(id) = plain_id(&value) {
                    match ids[*start..].binary_search(&id) {
                        Ok(_) => return false,
                        Err(pos) => {
                            let at = *start + pos;
                            ids.insert(at, id);
                            return true;
                        }
                    }
                }
                if let Some(ix) = atom_index_of(&value) {
                    if let Ok(id) = u32::try_from(ix) {
                        if ids[*start..].binary_search(&id).is_ok() {
                            // A named duplicate of a stored unnamed id:
                            // first-wins keeps the stored copy.
                            return false;
                        }
                    }
                }
                // Novel value the id store cannot represent: widen below.
            }
            Store::Bits { words, len, min } => {
                if let Some(id) = plain_id(&value) {
                    let w = id as usize / 64;
                    if bit_test(words, id) {
                        return false;
                    }
                    if w < words.len() || (id as usize) < BITS_MAX_SPREAD * (*len as usize + 1) {
                        if w >= words.len() {
                            words.resize(w + 1, 0);
                        }
                        words[w] |= 1u64 << (id % 64);
                        *len += 1;
                        if *len == 1 || id < *min {
                            *min = id;
                        }
                        return true;
                    }
                    // Too sparse to stay dense: demote to sorted ids below.
                } else if let Some(ix) = atom_index_of(&value) {
                    if let Ok(id) = u32::try_from(ix) {
                        if bit_test(words, id) {
                            return false;
                        }
                    }
                    // Novel named atom: widen below.
                }
                // Non-atom value or sparse growth: re-tier below.
            }
        }
        // Re-tier path (rare): rebuild in a representation that can hold
        // `value`, then insert into it. `demote_for` keeps the id tier when
        // the incoming value is a plain atom (dense → sparse growth) and
        // widens to the generic tier otherwise, so recursion terminates
        // after one step.
        self.demote_for(&value);
        self.insert_weighted(value, weight)
    }

    /// Re-tiers so that `incoming` can be inserted: a plain atom keeps the
    /// columnar family (dense bitset relaxes to sorted ids), anything else
    /// widens to the generic value store. The element sequence is
    /// unchanged, so the switch is observationally free.
    fn demote_for(&mut self, incoming: &Value) {
        if plain_id(incoming).is_some() {
            if let Store::Bits { words, len, .. } = &self.store {
                let mut ids = Vec::with_capacity(*len as usize);
                let mut c = BitCursor::new(words);
                while let Some(id) = c.next() {
                    ids.push(id);
                }
                self.store = Store::Atoms { ids, start: 0 };
                return;
            }
        }
        let weight = self.weight_sum();
        let items: Vec<Value> = self.iter().collect();
        self.store = store_from_sorted_values(items, Some(weight));
    }

    /// Removes and returns the minimal element. Inline sets shift (at most
    /// [`INLINE_CAP`] moves); spilled and sorted-id sets are amortized
    /// O(1): the window start advances, and once the dead prefix outgrows
    /// the live window the backing vector is compacted, so a uniquely-owned
    /// set driven as a worklist stays O(live size). The bitset tier clears
    /// the minimum bit and scans forward for the next.
    pub fn pop_first(&mut self) -> Option<Value> {
        match &mut self.store {
            Store::Small { len, slots } => {
                let n = *len as usize;
                if n == 0 {
                    return None;
                }
                let value = std::mem::replace(&mut slots[0], PAD);
                // The PAD now at slot 0 rotates to the end of the live range.
                slots[..n].rotate_left(1);
                *len -= 1;
                Some(value)
            }
            Store::Spilled {
                items,
                start,
                weight,
            } => {
                if *start == items.len() {
                    return None;
                }
                let value = std::mem::replace(&mut items[*start], PAD);
                *weight -= value.weight();
                *start += 1;
                if *start * 2 > items.len() {
                    // At least as many pops since the last compaction as
                    // elements moved here, so the drain amortizes to O(1)
                    // per pop.
                    items.drain(..*start);
                    *start = 0;
                }
                Some(value)
            }
            Store::Atoms { ids, start } => {
                let &id = ids.get(*start)?;
                *start += 1;
                if *start * 2 > ids.len() {
                    ids.drain(..*start);
                    *start = 0;
                }
                Some(Value::atom(id as u64))
            }
            Store::Bits { words, len, min } => {
                if *len == 0 {
                    return None;
                }
                let id = *min;
                words[id as usize / 64] &= !(1u64 << (id % 64));
                *len -= 1;
                *min = if *len > 0 {
                    next_set_bit(words, id + 1).expect("popcount says a bit remains")
                } else {
                    0
                };
                Some(Value::atom(id as u64))
            }
        }
    }

    /// `self ∪= other`, in place: the bulk form of folding `other` into
    /// `self` with [`SetRepr::insert`] (the VM's fused `union` and the
    /// parallel shard merge use it), with the same first-wins rule: on
    /// equal elements **`self`'s copy is kept**. The merged set's weight is
    /// an O(1) [`SetRepr::weight_sum`] read afterwards.
    ///
    /// Same-tier operands merge without rebuilding `self`: the generic and
    /// sorted-id tiers keep their prefix below `other`'s minimum (so an
    /// `other` that sorts after `self` is an append) and move, never clone,
    /// the rest; skewed sizes gallop. Inline, bitset and mixed-tier
    /// operands take one pass into a fresh store (word-parallel for
    /// bitsets). Either way the result sits in the tier a fresh build of
    /// its contents picks. A caller holding a shared set copies it first
    /// (`Arc::make_mut`) and merges into the copy.
    pub fn merge_union(&mut self, other: &SetRepr) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        if self.merge_same_tier(other).is_some() {
            self.settle();
            return;
        }
        // Inline or mixed tiers (atoms ∪ generic): one linear cursor pass
        // demotes and merges at once — in id space when both sides are
        // plain atoms.
        *self = match (self.col_view(), other.col_view()) {
            (Some(a), Some(b)) => union_cols(&a, &b),
            _ => SetRepr::from_sorted_vec(merge_union_elems(self, other), None),
        };
    }

    /// The in-place arms of [`SetRepr::merge_union`]: `Some(())` when
    /// `other` merged straight into `self`'s tier, `None` when the operands
    /// need the cursor merge. The spilled tier adds the novel elements'
    /// weights to its cached sum.
    fn merge_same_tier(&mut self, other: &SetRepr) -> Option<()> {
        match &mut self.store {
            Store::Spilled {
                items,
                start,
                weight,
            } => merge_into(items, *start, other.value_slice()?, |v| {
                *weight += v.weight()
            }),
            Store::Atoms { ids, start } => {
                merge_into(ids, *start, other.col_view()?.id_slice()?, |_| {})
            }
            // A bitset holds one word per 64 ids: `union_cols` ORs them
            // into a fresh vector and re-tiers the result in one pass.
            Store::Small { .. } | Store::Bits { .. } => return None,
        }
        Some(())
    }

    /// Re-tiers a columnar store that an in-place merge carried across a
    /// tier boundary (inline cap, bitset density) or that outlived the tier
    /// switch, so the result matches what a fresh build of the same
    /// contents picks — `Clone` is that fresh build.
    fn settle(&mut self) {
        let n = self.len();
        let rebuild = match &self.store {
            Store::Small { .. } | Store::Spilled { .. } => false,
            _ if n <= INLINE_CAP || !atom_tier_enabled() => true,
            Store::Atoms { ids, .. } => {
                n >= BITS_MIN_LEN && (*ids.last().unwrap() as usize) < BITS_MAX_SPREAD * n
            }
            Store::Bits { .. } => false,
        };
        if rebuild {
            *self = self.clone();
        }
    }

    /// Number of backing slots currently held (live + dead). Exposed for
    /// tests that pin the amortized-compaction guarantee.
    #[doc(hidden)]
    pub fn backing_slots(&self) -> usize {
        match &self.store {
            Store::Small { .. } => INLINE_CAP,
            Store::Spilled { items, .. } => items.len(),
            Store::Atoms { ids, .. } => ids.len(),
            Store::Bits { words, .. } => words.len() * 64,
        }
    }

    /// True if the elements are stored inline (no heap allocation for the
    /// element storage). Exposed for tests pinning the spill boundary.
    #[doc(hidden)]
    pub fn is_inline(&self) -> bool {
        matches!(self.store, Store::Small { .. })
    }
}

impl Default for SetRepr {
    fn default() -> Self {
        SetRepr::new()
    }
}

/// Cloning compacts and re-tiers: only the live elements are copied, back
/// into the smallest fitting tier, so a shared, partially-drained set
/// re-bases on copy-on-write.
impl Clone for SetRepr {
    fn clone(&self) -> Self {
        match &self.store {
            Store::Small { len, slots } => SetRepr {
                store: Store::Small {
                    len: *len,
                    slots: slots.clone(),
                },
            },
            Store::Spilled {
                items,
                start,
                weight,
            } => SetRepr::from_sorted_vec(items[*start..].to_vec(), Some(*weight)),
            Store::Atoms { ids, start } => SetRepr::from_sorted_ids(ids[*start..].to_vec()),
            Store::Bits { words, .. } => SetRepr::from_bits(words.clone()),
        }
    }
}

/// Builds the set from arbitrary (unsorted, possibly duplicated) values.
/// Deduplication is first-wins, matching a sequence of `BTreeSet::insert`s:
/// the stable sort keeps equal values in arrival order and `dedup` keeps the
/// first of each run.
impl FromIterator<Value> for SetRepr {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut items: Vec<Value> = iter.into_iter().collect();
        items.sort();
        items.dedup();
        SetRepr::from_sorted_vec(items, None)
    }
}

impl Extend<Value> for SetRepr {
    fn extend<I: IntoIterator<Item = Value>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a> IntoIterator for &'a SetRepr {
    type Item = Value;
    type IntoIter = SetIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for SetRepr {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;

    fn into_iter(self) -> Self::IntoIter {
        // Unify the stores into one owned vector of the live elements
        // (dead slots are placeholders, not elements).
        match self.store {
            Store::Small { len, slots } => {
                let mut out: Vec<Value> = slots.into_iter().collect();
                out.truncate(len as usize);
                out.into_iter()
            }
            Store::Spilled {
                mut items, start, ..
            } => {
                items.drain(..start);
                items.into_iter()
            }
            Store::Atoms { ids, start } => ids[start..]
                .iter()
                .map(|&i| Value::atom(i as u64))
                .collect::<Vec<_>>()
                .into_iter(),
            Store::Bits { words, len, .. } => {
                let mut out = Vec::with_capacity(len as usize);
                let mut c = BitCursor::new(&words);
                while let Some(id) = c.next() {
                    out.push(Value::atom(id as u64));
                }
                out.into_iter()
            }
        }
    }
}

impl PartialEq for SetRepr {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.cmp(other) == Ordering::Equal
    }
}
impl Eq for SetRepr {}

impl PartialOrd for SetRepr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic on the ascending element sequence — the same order
/// `BTreeSet<Value>` exposed, so the total [`Value`] order (and with it every
/// `choose`/`rest`/`set-reduce` traversal) is unchanged. Tier-blind: the
/// fast paths (value slices, id slices) agree with the mixed-tier cursor
/// walk by construction.
impl Ord for SetRepr {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Some(a), Some(b)) = (self.value_slice(), other.value_slice()) {
            return a.cmp(b);
        }
        if let (Some(a), Some(b)) = (self.live_ids(), other.live_ids()) {
            return a.cmp(b);
        }
        let mut x = self.elems();
        let mut y = other.elems();
        loop {
            match (x.next(), y.next()) {
                (Some(e), Some(f)) => match cmp_elem(&e, &f) {
                    Ordering::Equal => continue,
                    ord => return ord,
                },
                (Some(_), None) => return Ordering::Greater,
                (None, Some(_)) => return Ordering::Less,
                (None, None) => return Ordering::Equal,
            }
        }
    }
}

impl Hash for SetRepr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Like the std collections: length, then elements in order. The
        // columnar path hashes reconstructed unnamed atoms — bit-identical
        // to hashing the stored `Value::Atom`s of the generic tier, since
        // atoms hash by index only.
        self.len().hash(state);
        match self.value_slice() {
            Some(items) => {
                for v in items {
                    v.hash(state);
                }
            }
            None => {
                for v in self.iter() {
                    v.hash(state);
                }
            }
        }
    }
}

/// Renders like `BTreeSet` did: `{elem, elem, …}`.
impl fmt::Debug for SetRepr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atoms(ixs: impl IntoIterator<Item = u64>) -> SetRepr {
        ixs.into_iter().map(Value::atom).collect()
    }

    /// `a ∪ b` into a fresh set — the shared-base path of `merge_union`.
    fn union(a: &SetRepr, b: &SetRepr) -> SetRepr {
        let mut u = a.clone();
        u.merge_union(b);
        u
    }

    #[test]
    fn from_iter_sorts_and_dedups_first_wins() {
        let s: SetRepr = [
            Value::atom(3),
            Value::named_atom(1, "first"),
            Value::atom(1),
            Value::atom(2),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.len(), 3);
        // Equal atoms collapse to the *first* occurrence (the named one).
        assert_eq!(format!("{:?}", s.first().unwrap()), "first#1");
    }

    #[test]
    fn insert_keeps_sorted_and_reports_novelty() {
        let mut s = SetRepr::new();
        assert!(s.insert(Value::atom(5)));
        assert!(s.insert(Value::atom(1)));
        assert!(s.insert(Value::atom(3)));
        assert!(!s.insert(Value::atom(3)));
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![Value::atom(1), Value::atom(3), Value::atom(5)]);
        assert!(s.contains(&Value::atom(3)));
        assert!(!s.contains(&Value::atom(4)));
    }

    #[test]
    fn insert_keeps_existing_on_duplicate() {
        let mut s = SetRepr::new();
        s.insert(Value::named_atom(2, "kept"));
        assert!(!s.insert(Value::atom(2)));
        assert_eq!(format!("{:?}", s.first().unwrap()), "kept#2");
    }

    #[test]
    fn small_sets_stay_inline_and_spill_on_growth() {
        let mut s = SetRepr::new();
        for i in 0..INLINE_CAP as u64 {
            assert!(s.is_inline(), "inline up to the cap");
            s.insert(Value::atom(i * 2));
        }
        assert!(s.is_inline(), "exactly at the cap is still inline");
        // The overflowing insert lands in the middle and keeps the order.
        s.insert(Value::atom(3));
        assert!(!s.is_inline(), "past the cap leaves the inline store");
        let got: Vec<_> = s.iter().collect();
        assert_eq!(
            got,
            [0u64, 2, 3, 4, 6].map(Value::atom).to_vec(),
            "order preserved across the spill"
        );
        // Once grown, stays grown in place — but a clone re-smallifies
        // when the live window fits inline again.
        s.pop_first();
        s.pop_first();
        assert!(!s.is_inline());
        assert_eq!(s.len(), 3);
        let compacted = s.clone();
        assert!(compacted.is_inline(), "clone compacts back inline");
        assert_eq!(compacted, s);
    }

    #[test]
    fn pop_first_drains_ascending_in_place() {
        for seed in [vec![4, 2, 9], vec![4, 2, 9, 11, 7, 5]] {
            // Covers both the inline and the grown store.
            let mut s = atoms(seed.iter().copied());
            let mut expect: Vec<u64> = seed.clone();
            expect.sort_unstable();
            for e in expect {
                assert_eq!(s.first(), Some(Value::atom(e)));
                assert_eq!(s.pop_first(), Some(Value::atom(e)));
            }
            assert_eq!(s.pop_first(), None);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn window_is_invisible_to_eq_ord_hash_and_clone() {
        use std::collections::hash_map::DefaultHasher;
        // Large enough to leave the inline store, so a drained window exists.
        let mut drained = atoms([1, 2, 3, 4, 5, 6]);
        drained.pop_first();
        let fresh = atoms([2, 3, 4, 5, 6]);
        assert_eq!(drained, fresh);
        assert_eq!(drained.cmp(&fresh), Ordering::Equal);
        let hash = |s: &SetRepr| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&drained), hash(&fresh));
        let compacted = drained.clone();
        assert_eq!(compacted, fresh);
        assert_eq!(compacted.backing_slots(), 5, "clone copies only the window");
    }

    #[test]
    fn insert_into_drained_window_lands_in_window() {
        let mut s = atoms([1, 5, 9, 13, 17]);
        s.pop_first();
        assert!(s.insert(Value::atom(3)));
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, [3u64, 5, 9, 13, 17].map(Value::atom).to_vec());
        // Re-inserting the popped minimum is a fresh element again.
        assert!(s.insert(Value::atom(1)));
        assert_eq!(s.first(), Some(Value::atom(1)));
    }

    #[test]
    fn interleaved_pop_and_insert_keeps_backing_storage_bounded() {
        // The worklist pattern `S = insert(x, rest(S))`, iterated: without
        // amortized compaction the dead prefix would grow by one slot per
        // round on a uniquely-owned set.
        let mut s = atoms(0u64..8);
        for round in 0..10_000u64 {
            let popped = s.pop_first().expect("non-empty");
            assert_eq!(popped, Value::atom(round), "FIFO over ranks");
            s.insert(Value::atom(round + 8));
            assert_eq!(s.len(), 8, "round {round}");
        }
        assert!(
            s.backing_slots() <= 2 * s.len(),
            "backing storage grew unboundedly: {} slots for {} live elements",
            s.backing_slots(),
            s.len()
        );
    }

    #[test]
    fn ordering_is_lexicographic_on_elements() {
        assert!(atoms([1]) < atoms([2]));
        assert!(atoms([1, 2]) < atoms([1, 3]));
        assert!(atoms([1]) < atoms([1, 2]), "a strict prefix sorts first");
        assert!(atoms([0, 1]) < atoms([1]), "smaller minimum sorts first");
        assert_eq!(atoms([]).cmp(&atoms([])), Ordering::Equal);
        // Grown and inline stores compare by elements alone.
        let grown = atoms([1, 2, 3, 4, 5, 6]);
        let mut drained = grown.clone();
        for _ in 0..3 {
            drained.pop_first();
        }
        assert_eq!(drained.cmp(&atoms([4, 5, 6])), Ordering::Equal);
    }

    #[test]
    fn owned_iteration_skips_dead_slots() {
        let mut s = atoms([7, 3, 5]);
        s.pop_first();
        let got: Vec<_> = s.into_iter().collect();
        assert_eq!(got, vec![Value::atom(5), Value::atom(7)]);
        let mut s = atoms([7, 3, 5, 11, 9, 1]);
        s.pop_first();
        let got: Vec<_> = s.into_iter().collect();
        assert_eq!(got, [3u64, 5, 7, 9, 11].map(Value::atom).to_vec());
    }

    #[test]
    fn merge_union_is_first_wins_and_sorted() {
        let a = atoms([1, 3, 5, 7, 9, 11]);
        let b = atoms([2, 3, 4, 11, 12]);
        let u = union(&a, &b);
        let got: Vec<_> = u.iter().collect();
        assert_eq!(
            got,
            [1u64, 2, 3, 4, 5, 7, 9, 11, 12].map(Value::atom).to_vec()
        );
        // Ties keep self's copy — the same rule as insert-into-self.
        let named: SetRepr = [Value::named_atom(2, "mine")].into_iter().collect();
        let other: SetRepr = [Value::atom(2)].into_iter().collect();
        let u = union(&named, &other);
        assert_eq!(format!("{:?}", u.first().unwrap()), "mine#2");
        // Matches the element-by-element fold exactly.
        let mut folded = a.clone();
        for v in b.iter() {
            folded.insert(v);
        }
        assert_eq!(union(&a, &b), folded);
        // Identities.
        assert_eq!(union(&a, &SetRepr::new()), a);
        assert_eq!(union(&SetRepr::new(), &b), b);
    }

    #[test]
    fn merge_results_fit_inline_when_small() {
        let a = atoms([1, 2]);
        let b = atoms([2, 3]);
        assert!(union(&a, &b).is_inline());
        let big = atoms(0..10);
        assert!(!union(&big, &a).is_inline());
    }

    #[test]
    fn debug_renders_as_a_set() {
        assert_eq!(format!("{:?}", atoms([2, 1])), "{d1, d2}");
    }

    // ---- columnar tier ----

    #[test]
    fn all_atom_growth_promotes_to_the_columnar_tier() {
        let s = atoms(0..10);
        assert_eq!(s.tier_label(), "atoms");
        assert!(s.columnar_kind().is_some());
        assert_eq!(s.weight_sum(), 10);
        // Small all-atom sets stay inline; the tier engages past the cap.
        assert_eq!(atoms(0..3).tier_label(), "inline");
        // Spill-by-insert promotes too.
        let mut s = atoms(0..INLINE_CAP as u64);
        assert!(s.is_inline());
        s.insert(Value::atom(99));
        assert_eq!(s.tier_label(), "atoms");
    }

    #[test]
    fn non_atom_and_named_contents_stay_generic() {
        let named: SetRepr = (0..8).map(|i| Value::named_atom(i, "n")).collect();
        assert_eq!(named.tier_label(), "spilled");
        // A huge index cannot be a u32 id.
        let wide: SetRepr = (0..8).map(|i| Value::atom(i + (1 << 40))).collect();
        assert_eq!(wide.tier_label(), "spilled");
        // Sets of tuples live in the generic tier, plain-atom tuples too.
        let pairs: SetRepr = (0..8)
            .map(|i| Value::tuple([Value::atom(i / 7), Value::atom(i)]))
            .collect();
        assert_eq!(pairs.tier_label(), "spilled");
        assert_eq!(pairs.weight_sum(), 8 * 3, "a pair weighs 3");
        let mut s: SetRepr = (0..INLINE_CAP as u64)
            .map(|i| Value::tuple([Value::atom(i)]))
            .collect();
        assert!(s.is_inline());
        s.insert(Value::tuple([Value::atom(50)]));
        assert_eq!(s.tier_label(), "spilled", "spill-by-insert stays generic");
        // One non-atom element keeps the whole set generic.
        let units: SetRepr = [Value::tuple([]), Value::atom(0)]
            .into_iter()
            .chain((1..7).map(Value::atom))
            .collect();
        assert_eq!(units.tier_label(), "spilled");
    }

    #[test]
    fn widening_on_foreign_insert_preserves_elements() {
        let mut s = atoms(0..10);
        assert_eq!(s.tier_label(), "atoms");
        assert!(s.insert(Value::tuple([Value::atom(0)])));
        assert_eq!(s.tier_label(), "spilled");
        assert_eq!(s.len(), 11);
        let mut expect: Vec<Value> = (0..10).map(Value::atom).collect();
        expect.push(Value::tuple([Value::atom(0)]));
        assert_eq!(s.iter().collect::<Vec<_>>(), expect);
        // A *novel* named atom also widens (the id store cannot keep the
        // name)…
        let mut s = atoms(0..10);
        assert!(s.insert(Value::named_atom(77, "new")));
        assert_eq!(s.tier_label(), "spilled");
        assert_eq!(format!("{}", s.iter().last().unwrap()), "new#77");
        // …but a named *duplicate* is first-wins: the stored unnamed copy
        // stays and the tier is kept.
        let mut s = atoms(0..10);
        assert!(!s.insert(Value::named_atom(3, "dup")));
        assert_eq!(s.tier_label(), "atoms");
        assert!(s.contains(&Value::named_atom(3, "dup")));
    }

    #[test]
    fn dense_universes_use_the_bitset_tier() {
        let s = atoms(0..100);
        assert_eq!(s.tier_label(), "bits");
        assert_eq!(s.len(), 100);
        assert!(s.contains(&Value::atom(42)));
        assert!(!s.contains(&Value::atom(100)));
        assert_eq!(s.first(), Some(Value::atom(0)));
        // Drains ascending like every other tier.
        let mut d = s.clone();
        for i in 0..100 {
            assert_eq!(d.pop_first(), Some(Value::atom(i)));
        }
        assert_eq!(d.pop_first(), None);
        // A sparse insert demotes to sorted ids without losing elements.
        let mut s = atoms(0..100);
        assert!(s.insert(Value::atom(1_000_000)));
        assert_eq!(s.tier_label(), "atoms");
        assert_eq!(s.len(), 101);
        assert!(s.contains(&Value::atom(99)));
        assert!(s.contains(&Value::atom(1_000_000)));
        // In-range inserts keep the dense form.
        let mut s = atoms((0..100).map(|i| i * 2));
        assert_eq!(s.tier_label(), "bits");
        assert!(s.insert(Value::atom(3)));
        assert_eq!(s.tier_label(), "bits");
        assert!(!s.insert(Value::atom(4)));
    }

    #[test]
    fn toggle_off_keeps_every_set_generic() {
        with_atom_tier(false, || {
            assert_eq!(atoms(0..10).tier_label(), "spilled");
            assert_eq!(atoms(0..100).tier_label(), "spilled");
            let mut s = atoms(0..INLINE_CAP as u64);
            s.insert(Value::atom(99));
            assert_eq!(s.tier_label(), "spilled");
            // A columnar set built while the tier was on widens on clone.
            let columnar = with_atom_tier(true, || atoms(0..10));
            assert_eq!(columnar.tier_label(), "atoms");
            assert_eq!(columnar.clone().tier_label(), "spilled");
        });
    }

    #[test]
    fn with_atom_tier_restores_the_setting_when_the_closure_panics() {
        for prior in [true, false] {
            with_atom_tier(prior, || {
                let caught = std::panic::catch_unwind(|| {
                    with_atom_tier(!prior, || {
                        assert_eq!(atom_tier_enabled(), !prior);
                        panic!("unwinds through with_atom_tier");
                    })
                });
                assert!(caught.is_err());
                assert_eq!(atom_tier_enabled(), prior);
            });
        }
        assert!(atom_tier_enabled(), "the thread's default is back");
    }

    #[test]
    fn id_merges_match_generic_merges() {
        let mk = |ids: &[u64]| -> Vec<Value> { ids.iter().map(|&i| Value::atom(i)).collect() };
        let cases: Vec<(Vec<u64>, Vec<u64>)> = vec![
            ((0..20).collect(), (10..30).collect()),
            ((0..200).collect(), (150..160).collect()),
            ((0..200).step_by(3).collect(), (0..200).step_by(7).collect()),
            ((0..100).collect(), vec![5]),
            (vec![1, 2, 3], (0..500).collect()),
        ];
        for (xa, xb) in cases {
            let (ca, cb) = (atoms(xa.iter().copied()), atoms(xb.iter().copied()));
            let (ga, gb): (SetRepr, SetRepr) = with_atom_tier(false, || {
                (mk(&xa).into_iter().collect(), mk(&xb).into_iter().collect())
            });
            let (u_c, u_g) = (union(&ca, &cb), with_atom_tier(false, || union(&ga, &gb)));
            assert_eq!(u_c, u_g, "union {xa:?} ∪ {xb:?}");
            assert_eq!(
                u_c.iter().collect::<Vec<_>>(),
                u_g.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn mixed_tier_merges_agree_with_element_folds() {
        // Columnar ∪ generic (tuples) exercises the cursor merge.
        let col = atoms(0..10);
        let gen: SetRepr = (0..6).map(|i| Value::tuple([Value::atom(i)])).collect();
        let u = union(&col, &gen);
        assert_eq!(u.len(), 16);
        assert_eq!(u.tier_label(), "spilled", "tuples force the generic tier");
        let mut folded = col.clone();
        for v in gen.iter() {
            folded.insert(v);
        }
        assert_eq!(u, folded);
        // Named atoms in the generic operand: first-wins keeps columnar
        // self's unnamed copies.
        let named: SetRepr = (5..15).map(|i| Value::named_atom(i, "n")).collect();
        let u = union(&col, &named);
        assert_eq!(u.len(), 15);
        assert_eq!(format!("{}", u.first().unwrap()), "d0");
        let five = u.iter().nth(5).unwrap();
        assert_eq!(format!("{five}"), "d5", "self's copy won the tie");
        let ten = u.iter().nth(10).unwrap();
        assert_eq!(format!("{ten}"), "n#10", "other's tail is kept verbatim");
    }

    #[test]
    fn galloping_merge_matches_linear_on_values() {
        // Skewed sizes over generic elements drive the galloping path;
        // compare against the per-element fold.
        let big: SetRepr = (0..300)
            .map(|i| Value::tuple([Value::named_atom(i, "v"), Value::atom(i)]))
            .collect();
        let small: SetRepr = [140u64, 141, 260]
            .into_iter()
            .map(|i| Value::tuple([Value::named_atom(i, "v"), Value::atom(i)]))
            .collect();
        let u = union(&big, &small);
        assert_eq!(u.len(), 300);
        let mut folded = big.clone();
        for v in small.iter() {
            folded.insert(v);
        }
        assert_eq!(u, folded);
        // And the reverse skew.
        let u2 = union(&small, &big);
        assert_eq!(u2, u);
    }

    #[test]
    fn merge_union_novel_weight_matches_reference_across_tiers() {
        let novel_weight = |acc: &SetRepr, inc: &SetRepr| -> usize {
            inc.iter()
                .filter(|v| !acc.contains(v))
                .map(|v| v.weight())
                .sum()
        };
        let combos: Vec<(SetRepr, SetRepr)> = vec![
            (atoms(0..100), atoms(50..150)),          // bits × bits
            (atoms(0..100), atoms([5, 500, 700])),    // bits × atoms-range
            (atoms([1, 5, 9, 11, 30]), atoms(0..80)), // atoms × bits
            (atoms(0..10), atoms(5..15)),             // atoms × atoms
            (
                atoms(0..100),
                (0..6).map(|i| Value::tuple([Value::atom(i)])).collect(),
            ), // bits × generic tuples
            (
                (0..8).map(|i| Value::tuple([Value::atom(i)])).collect(),
                (4..12).map(|i| Value::tuple([Value::atom(i)])).collect(),
            ), // generic tuples × generic tuples
            (
                (0..8).map(|i| Value::named_atom(i, "n")).collect(),
                (4..12).map(|i| Value::named_atom(i, "n")).collect(),
            ), // generic × generic
            (
                (0..8)
                    .map(|i| Value::tuple([Value::atom(i), Value::atom(i)]))
                    .collect(),
                (0..6).map(|i| Value::tuple([Value::atom(i)])).collect(),
            ), // generic tuples × generic tuples, arity mismatch
            (
                (0..8)
                    .map(|i| Value::tuple([Value::atom(i), Value::atom(i)]))
                    .collect(),
                (4..12)
                    .map(|i| Value::tuple([Value::named_atom(i, "n"), Value::atom(i)]))
                    .collect(),
            ), // generic tuples × named-component tuples
            (SetRepr::new(), atoms(0..5)),
            (atoms(0..5), SetRepr::new()),
        ];
        for (acc, inc) in combos {
            let mut merged = acc.clone();
            merged.merge_union(&inc);
            let context = format!(
                "acc tier {} inc tier {}",
                acc.tier_label(),
                inc.tier_label()
            );
            assert_eq!(
                merged.weight_sum(),
                acc.weight_sum() + novel_weight(&acc, &inc),
                "{context}"
            );
            let mut folded = acc.clone();
            for v in inc.iter() {
                folded.insert(v);
            }
            assert_eq!(merged, folded, "{context}");
        }
    }

    #[test]
    fn iter_range_partitions_every_tier() {
        let sets = [
            atoms([3, 1, 4]),                                    // inline
            atoms(0..10),                                        // atoms
            atoms(0..100),                                       // bits
            (0..8).map(|i| Value::named_atom(i, "n")).collect(), // spilled
        ];
        for s in &sets {
            let n = s.len();
            let all: Vec<_> = s.iter().collect();
            for split in [0, 1, n / 2, n] {
                let lo: Vec<_> = s.iter_range(0..split).collect();
                let hi: Vec<_> = s.iter_range(split..n).collect();
                assert_eq!(lo.len(), split, "tier {}", s.tier_label());
                let glued: Vec<_> = lo.into_iter().chain(hi).collect();
                assert_eq!(glued, all, "tier {} split {split}", s.tier_label());
            }
            // Three-way split too.
            if n >= 3 {
                let thirds: Vec<_> = s
                    .iter_range(0..n / 3)
                    .chain(s.iter_range(n / 3..2 * n / 3))
                    .chain(s.iter_range(2 * n / 3..n))
                    .collect();
                assert_eq!(thirds, all, "tier {}", s.tier_label());
            }
        }
    }

    #[test]
    fn cross_tier_eq_ord_hash_agree() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |s: &SetRepr| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        // The same element sequence in columnar and generic clothing.
        let col = atoms(0..100);
        assert_eq!(col.tier_label(), "bits");
        let gen: SetRepr = with_atom_tier(false, || (0..100).map(Value::atom).collect());
        assert_eq!(gen.tier_label(), "spilled");
        assert_eq!(col, gen);
        assert_eq!(col.cmp(&gen), Ordering::Equal);
        assert_eq!(hash(&col), hash(&gen));
        // Sorted-id tier against both.
        let mid = atoms(0..10);
        let gen10: SetRepr = with_atom_tier(false, || (0..10).map(Value::atom).collect());
        assert_eq!(mid, gen10);
        assert_eq!(hash(&mid), hash(&gen10));
        // Order across tiers follows the element order.
        assert!(atoms(0..10) < atoms(0..100), "prefix sorts first");
        assert!(gen10 < col);
        // Named atoms compare equal to unnamed ones across tiers.
        let named: SetRepr = (0..10).map(|i| Value::named_atom(i, "x")).collect();
        assert_eq!(named.tier_label(), "spilled");
        assert_eq!(named, mid);
        assert_eq!(hash(&named), hash(&mid));
    }

    /// An empty `Atoms` store: eight atoms popped until none is left.
    fn drained_atoms() -> SetRepr {
        let mut s = atoms(0..8);
        assert_eq!(s.tier_label(), "atoms");
        while s.pop_first().is_some() {}
        s
    }

    #[test]
    fn a_drained_columnar_store_is_a_working_empty_set() {
        let mut s = drained_atoms();
        assert_eq!(s.tier_label(), "atoms");
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
        assert_eq!(s.pop_first(), None);
        assert!(s.insert(Value::atom(2)));
        assert!(s.insert(Value::atom(1)));
        assert!(!s.insert(Value::atom(2)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.first(), Some(Value::atom(1)));
        assert_eq!(s, atoms([1, 2]));
        // Widening works from the empty columnar store too.
        let mut s = drained_atoms();
        assert!(s.insert(Value::nat(7)));
        assert_eq!(s.tier_label(), "inline");
    }

    #[test]
    fn gallop_lt_finds_the_boundary() {
        let s: Vec<u32> = (0..100).map(|i| i * 2).collect();
        for bound in [1u32, 2, 3, 50, 51, 197, 198, 199, 500] {
            let expect = s.partition_point(|x| *x < bound);
            if expect > 0 {
                assert_eq!(gallop_lt(&s, &bound), expect, "bound {bound}");
            }
        }
    }
}
