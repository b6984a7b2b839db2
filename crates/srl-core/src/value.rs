//! Runtime values of the set-reduce language.
//!
//! Every value carries a total order (`Ord`). This order is the
//! "implementation-supplied" order the paper's Section 2 semantics demand:
//! `choose(S)` returns the minimal element of `S` in this order and `rest(S)`
//! removes it, so `set-reduce` always traverses a set in ascending order.
//! Users of the language may observe the order but, per the paper, should not
//! encode information in it; the `srl-analysis` crate provides the machinery
//! to check whether a program's result in fact depends on it.
//!
//! ## Representation: `Arc`-shared payloads, copy-on-write
//!
//! Collection values (`Set`, `Tuple`, `List`) hold their payload behind an
//! [`Arc`], so `Value::clone()` is **O(1)**: it bumps a reference count
//! instead of deep-copying a set/`Vec`. This matters because the
//! evaluator's semantics equations are clone-heavy by construction —
//! `set-reduce` hands a clone of each element and of the `extra` value to
//! every iteration, and `rest(S)` produces "`S` without its minimum", which
//! naively copies the whole set |S| times over a full traversal.
//!
//! Mutation goes through [`Arc::make_mut`]: a uniquely-owned payload is
//! updated in place, a shared one is copied first (copy-on-write). The
//! observable semantics — the value order, what `choose`/`rest` return, every
//! `EvalStats` counter — are completely unchanged by the sharing; only the
//! number of machine-level copies differs. Equality, ordering and hashing
//! all go through the payload (never the pointer), so two structurally equal
//! values compare equal whether or not they share storage.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::bignat::BigNat;
use crate::setrepr::SetRepr;

/// An element of the (finite, ordered) base domain `D = {0, …, n-1}`.
///
/// Atoms are identified by their rank in the domain ordering; an optional
/// human-readable name is carried only for display and never participates in
/// equality or ordering.
#[derive(Clone)]
pub struct Atom {
    /// Rank of the atom in the domain ordering `≤`.
    pub index: u64,
    /// Optional display name (e.g. a vertex label or an employee name).
    /// Shared so that cloning a named atom never allocates.
    pub name: Option<Arc<str>>,
}

impl Atom {
    /// An unnamed atom with the given rank.
    pub fn new(index: u64) -> Self {
        Atom { index, name: None }
    }

    /// A named atom with the given rank.
    pub fn named(index: u64, name: impl Into<String>) -> Self {
        Atom {
            index,
            name: Some(name.into().into()),
        }
    }
}

impl PartialEq for Atom {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}
impl Eq for Atom {}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Atom {
    fn cmp(&self, other: &Self) -> Ordering {
        self.index.cmp(&other.index)
    }
}

impl std::hash::Hash for Atom {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.index.hash(state);
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(n) => write!(f, "{n}#{}", self.index),
            None => write!(f, "d{}", self.index),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(n) => write!(f, "{n}"),
            None => write!(f, "d{}", self.index),
        }
    }
}

/// A finite, ordered set of values.
///
/// The representation is a sorted vector ([`SetRepr`]); iteration order *is*
/// the value order — exactly the order `set-reduce` scans.
pub type ValueSet = SetRepr;

/// A runtime value of the set-reduce language.
///
/// The ordering between values of *different* shapes is an arbitrary but
/// fixed lexicographic convention (booleans < atoms < naturals < tuples <
/// sets < lists); within a well-typed program only values of the same type
/// are ever compared, so that convention is unobservable.
// The manual `PartialEq` below is the derived structural equality plus an
// `Arc::ptr_eq` fast path (pointer equality implies value equality for a
// total structural order), and every component's `Hash` matches its `Eq`
// (atoms hash by rank only, sets by their live window) — so `k1 == k2`
// still implies `hash(k1) == hash(k2)` and the derive is sound.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Eq, Hash)]
pub enum Value {
    /// A boolean constant.
    Bool(bool),
    /// An element of the finite base domain.
    Atom(Atom),
    /// A natural number (arithmetic extension of Section 3 / Section 5).
    Nat(BigNat),
    /// A fixed-arity tuple. The payload is `Arc`-shared: cloning is O(1).
    /// Tuples are never mutated in place, so the payload is a slice — one
    /// heap block, one pointer hop on the `sel`/compare hot paths.
    Tuple(Arc<[Value]>),
    /// A finite set, kept sorted in the value order. `Arc`-shared payload.
    Set(Arc<ValueSet>),
    /// A finite list (the LRL extension of Sections 3 and 5). `Arc`-shared
    /// payload.
    List(Arc<Vec<Value>>),
}

impl Value {
    /// Convenience constructor: boolean.
    pub fn bool(b: bool) -> Self {
        Value::Bool(b)
    }

    /// Convenience constructor: unnamed atom with rank `i`.
    pub fn atom(i: u64) -> Self {
        Value::Atom(Atom::new(i))
    }

    /// Convenience constructor: named atom.
    pub fn named_atom(i: u64, name: impl Into<String>) -> Self {
        Value::Atom(Atom::named(i, name))
    }

    /// Convenience constructor: natural number from a machine word.
    pub fn nat(n: u64) -> Self {
        Value::Nat(BigNat::from_u64(n))
    }

    /// Convenience constructor: tuple.
    pub fn tuple(items: impl IntoIterator<Item = Value>) -> Self {
        Value::Tuple(items.into_iter().collect())
    }

    /// Convenience constructor: set (duplicates collapse).
    pub fn set(items: impl IntoIterator<Item = Value>) -> Self {
        Value::Set(Arc::new(items.into_iter().collect()))
    }

    /// Convenience constructor: list.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Self {
        Value::List(Arc::new(items.into_iter().collect()))
    }

    /// The empty set.
    pub fn empty_set() -> Self {
        Value::Set(Arc::new(ValueSet::new()))
    }

    /// The empty list.
    pub fn empty_list() -> Self {
        Value::List(Arc::new(Vec::new()))
    }

    /// Returns the boolean payload if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the atom payload if this is an atom.
    pub fn as_atom(&self) -> Option<&Atom> {
        match self {
            Value::Atom(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the tuple components if this is a tuple.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the set payload if this is a set.
    pub fn as_set(&self) -> Option<&ValueSet> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the list payload if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// The paper's `choose(S)`: the minimal element of a non-empty set.
    /// Returned owned — the columnar set tiers materialise the atom on the
    /// fly (two words, no allocation) instead of borrowing a stored value.
    pub fn choose(&self) -> Option<Value> {
        self.as_set().and_then(ValueSet::first)
    }

    /// Cardinality for sets / length for lists and tuples; `None` otherwise.
    pub fn len(&self) -> Option<usize> {
        match self {
            Value::Tuple(t) => Some(t.len()),
            Value::Set(s) => Some(s.len()),
            Value::List(l) => Some(l.len()),
            _ => None,
        }
    }

    /// True if this is a set, list or tuple with no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }

    /// Total number of scalar leaves in the value; used by the evaluator's
    /// size budget so that exponential fragments (set-height 2, LRL) fail
    /// gracefully instead of exhausting memory. A set answers its element
    /// weights in O(1) (see [`SetRepr::weight_sum`]), so only tuples and
    /// lists are walked.
    pub fn weight(&self) -> usize {
        match self {
            Value::Bool(_) | Value::Atom(_) => 1,
            Value::Nat(n) => nat_weight(n),
            Value::Tuple(items) => 1 + items.iter().map(Value::weight).sum::<usize>(),
            Value::List(items) => 1 + items.iter().map(Value::weight).sum::<usize>(),
            Value::Set(items) => 1 + items.weight_sum(),
        }
    }

    /// The set-height of this *value* (Definition 2.2 lifted to values):
    /// 0 for scalars, max over components for tuples/lists, 1 + max element
    /// height for sets (empty set has height 1).
    pub fn set_height(&self) -> usize {
        match self {
            Value::Bool(_) | Value::Atom(_) | Value::Nat(_) => 0,
            Value::Tuple(items) => items.iter().map(Value::set_height).max().unwrap_or(0),
            Value::List(items) => items.iter().map(Value::set_height).max().unwrap_or(0),
            Value::Set(items) => {
                1 + match items.value_slice() {
                    Some(vs) => vs.iter().map(Value::set_height).max().unwrap_or(0),
                    // Columnar tiers hold only atoms and atom tuples, each
                    // of height 0.
                    None => 0,
                }
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Atom(a), Value::Atom(b)) => a == b,
            (Value::Nat(a), Value::Nat(b)) => a == b,
            // Shared payloads compare equal without being walked: `Eq` is
            // total and structural, so pointer equality implies value
            // equality.
            (Value::Tuple(a), Value::Tuple(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::Set(a), Value::Set(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::List(a), Value::List(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        // Same order as the former derived implementation: discriminant
        // order (booleans < atoms < naturals < tuples < sets < lists), then
        // lexicographic payload comparison — with a pointer-equality fast
        // path for shared payloads.
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Bool(_) => 0,
                Value::Atom(_) => 1,
                Value::Nat(_) => 2,
                Value::Tuple(_) => 3,
                Value::Set(_) => 4,
                Value::List(_) => 5,
            }
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Atom(a), Value::Atom(b)) => a.cmp(b),
            (Value::Nat(a), Value::Nat(b)) => a.cmp(b),
            (Value::Tuple(a), Value::Tuple(b)) => {
                if Arc::ptr_eq(a, b) {
                    Ordering::Equal
                } else {
                    a.cmp(b)
                }
            }
            (Value::Set(a), Value::Set(b)) => {
                if Arc::ptr_eq(a, b) {
                    Ordering::Equal
                } else {
                    a.cmp(b)
                }
            }
            (Value::List(a), Value::List(b)) => {
                if Arc::ptr_eq(a, b) {
                    Ordering::Equal
                } else {
                    a.cmp(b)
                }
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Atom(a) => write!(f, "{a:?}"),
            Value::Nat(n) => write!(f, "{n}"),
            Value::Tuple(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Set(items) => {
                write!(f, "{{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::List(items) => {
                write!(f, "<")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ">")
            }
        }
    }
}

/// The weight of a natural: one leaf, plus one for every 64 bits of its
/// binary length.
pub(crate) fn nat_weight(n: &BigNat) -> usize {
    1 + n.bit_len() / 64
}

/// Builds the domain `D = {d_0, …, d_{n-1}}` as a set of atoms, the standard
/// input universe of Section 3.
pub fn domain_set(n: u64) -> Value {
    Value::set((0..n).map(Value::atom))
}

/// Builds the set of pairs `{[a, b] | a ≤ b}` over a domain of size `n` —
/// the explicit representation of the ordering the paper mentions in
/// Section 4 ("we can assume it is available to us as a set of pairs").
pub fn leq_relation(n: u64) -> Value {
    let mut pairs = ValueSet::new();
    for a in 0..n {
        for b in a..n {
            pairs.insert(Value::tuple([Value::atom(a), Value::atom(b)]));
        }
    }
    Value::Set(Arc::new(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_equality_ignores_name() {
        assert_eq!(Value::atom(3), Value::named_atom(3, "carol"));
        assert_ne!(Value::atom(3), Value::atom(4));
    }

    #[test]
    fn atom_ordering_by_index() {
        assert!(Atom::new(1) < Atom::new(2));
        assert!(Atom::named(1, "z") < Atom::named(2, "a"));
    }

    #[test]
    fn set_collapses_duplicates_and_sorts() {
        let s = Value::set([
            Value::atom(3),
            Value::atom(1),
            Value::atom(3),
            Value::atom(2),
        ]);
        let set = s.as_set().unwrap();
        let items: Vec<_> = set.iter().collect();
        assert_eq!(items, vec![Value::atom(1), Value::atom(2), Value::atom(3)]);
    }

    #[test]
    fn choose_returns_minimum() {
        let s = Value::set([Value::atom(5), Value::atom(2), Value::atom(9)]);
        assert_eq!(s.choose(), Some(Value::atom(2)));
        assert_eq!(Value::empty_set().choose(), None);
        assert_eq!(Value::bool(true).choose(), None);
    }

    #[test]
    fn value_ordering_is_total_on_same_shape() {
        assert!(Value::atom(1) < Value::atom(2));
        assert!(Value::nat(3) < Value::nat(10));
        assert!(
            Value::tuple([Value::atom(1), Value::atom(5)])
                < Value::tuple([Value::atom(2), Value::atom(0)])
        );
        assert!(Value::set([Value::atom(1)]) < Value::set([Value::atom(2)]));
    }

    #[test]
    fn set_height_of_values() {
        assert_eq!(Value::bool(true).set_height(), 0);
        assert_eq!(Value::atom(0).set_height(), 0);
        assert_eq!(Value::nat(7).set_height(), 0);
        assert_eq!(
            Value::tuple([Value::atom(0), Value::atom(1)]).set_height(),
            0
        );
        assert_eq!(Value::empty_set().set_height(), 1);
        assert_eq!(Value::set([Value::atom(0)]).set_height(), 1);
        let set_of_sets = Value::set([Value::set([Value::atom(0)]), Value::empty_set()]);
        assert_eq!(set_of_sets.set_height(), 2);
        let tuple_with_set = Value::tuple([Value::atom(0), Value::set([Value::atom(1)])]);
        assert_eq!(tuple_with_set.set_height(), 1);
    }

    #[test]
    fn weight_counts_leaves() {
        assert_eq!(Value::atom(0).weight(), 1);
        assert_eq!(Value::tuple([Value::atom(0), Value::atom(1)]).weight(), 3);
        assert_eq!(Value::set([Value::atom(0), Value::atom(1)]).weight(), 3);
        assert_eq!(Value::empty_set().weight(), 1);
        // A natural weighs one more per 64 bits of binary length.
        assert_eq!(Value::nat(u64::MAX >> 1).weight(), 1);
        assert_eq!(Value::Nat(BigNat::pow2(64)).weight(), 2);
        assert_eq!(Value::Nat(BigNat::pow2(130)).weight(), 3);
    }

    #[test]
    fn value_and_set_layouts_stay_put() {
        // Every set and every register pays these sizes; the spilled
        // tier's cached weight sum must fit beside the inline slots, not
        // grow them.
        assert_eq!(std::mem::size_of::<Value>(), 32);
        assert_eq!(std::mem::size_of::<SetRepr>(), 136);
    }

    #[test]
    fn domain_set_has_n_elements() {
        let d = domain_set(5);
        assert_eq!(d.len(), Some(5));
        assert_eq!(d.choose(), Some(Value::atom(0)));
    }

    #[test]
    fn leq_relation_size() {
        // |{(a,b) | a <= b}| over n elements = n(n+1)/2
        let r = leq_relation(5);
        assert_eq!(r.len(), Some(15));
        assert!(r
            .as_set()
            .unwrap()
            .contains(&Value::tuple([Value::atom(2), Value::atom(4)])));
        assert!(!r
            .as_set()
            .unwrap()
            .contains(&Value::tuple([Value::atom(4), Value::atom(2)])));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Value::bool(true)), "true");
        assert_eq!(format!("{}", Value::atom(3)), "d3");
        assert_eq!(format!("{}", Value::named_atom(3, "carol")), "carol#3");
        assert_eq!(
            format!("{}", Value::tuple([Value::atom(1), Value::atom(2)])),
            "[d1, d2]"
        );
        assert_eq!(
            format!("{}", Value::set([Value::atom(2), Value::atom(1)])),
            "{d1, d2}"
        );
        assert_eq!(
            format!("{}", Value::list([Value::atom(1), Value::atom(1)])),
            "<d1, d1>"
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::bool(true).as_bool(), Some(true));
        assert_eq!(Value::atom(1).as_bool(), None);
        assert!(Value::tuple([Value::atom(1)]).as_tuple().is_some());
        assert!(Value::empty_set().as_set().is_some());
        assert!(Value::empty_list().as_list().is_some());
        assert!(Value::empty_set().is_empty());
        assert!(!Value::set([Value::atom(1)]).is_empty());
        assert!(!Value::atom(1).is_empty());
    }
}
