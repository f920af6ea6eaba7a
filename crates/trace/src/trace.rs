//! The [`Trace`] container, and [`VariableIndex`], the dense id →
//! position table per-variable passes over a trace index by.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::{MemAccess, VariableId};

/// An ordered sequence of memory accesses.
///
/// A `Trace` is what a workload emits and what every downstream stage
/// (profiling, cache simulation, mapping selection) consumes. Order is
/// program order of external accesses; interleaving across threads is
/// already resolved by the generator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    accesses: Vec<MemAccess>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates a trace with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        Trace {
            accesses: Vec::with_capacity(n),
        }
    }

    /// Reserves room for at least `additional` more accesses, so a
    /// generator that knows its output size can avoid doubling-growth
    /// reallocations when emitting into an existing trace.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.accesses.reserve(additional);
    }

    /// Appends an access.
    #[inline]
    pub fn push(&mut self, a: MemAccess) {
        self.accesses.push(a);
    }

    /// Number of accesses.
    #[inline]
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True if the trace holds no accesses.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The accesses in order.
    #[inline]
    pub fn accesses(&self) -> &[MemAccess] {
        &self.accesses
    }

    /// Iterates over the accesses.
    pub fn iter(&self) -> std::slice::Iter<'_, MemAccess> {
        self.accesses.iter()
    }

    /// Iterates over the raw addresses, in order.
    pub fn addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.accesses.iter().map(|a| a.addr)
    }

    /// Addresses of one variable, in trace order — the per-variable
    /// sub-trace the paper feeds to BFRV computation.
    pub fn addrs_of(&self, v: VariableId) -> impl Iterator<Item = u64> + '_ {
        self.accesses
            .iter()
            .filter(move |a| a.variable == v)
            .map(|a| a.addr)
    }

    /// Reference counts per variable.
    pub fn refs_per_variable(&self) -> BTreeMap<VariableId, u64> {
        let (vars, refs) = VariableIndex::fold(self, 0u64, |n, _| *n += 1);
        vars.ids.into_iter().zip(refs).collect()
    }

    /// Distinct variables referenced, in id order.
    pub fn variables(&self) -> Vec<VariableId> {
        self.refs_per_variable().into_keys().collect()
    }

    /// The footprint (distinct 64 B lines touched) per variable, in
    /// bytes. This is the "variable size" statistic of the paper's
    /// Table 1, measured rather than declared.
    pub fn footprint_per_variable(&self) -> BTreeMap<VariableId, u64> {
        let mut lines: Vec<(VariableId, u64)> = self
            .accesses
            .iter()
            .map(|a| (a.variable, a.line_addr()))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run.len() as u64 * 64))
            .collect()
    }

    /// Splits the trace into per-variable sub-traces, preserving order.
    pub fn split_by_variable(&self) -> BTreeMap<VariableId, Trace> {
        let mut out: BTreeMap<VariableId, Trace> = BTreeMap::new();
        for &a in &self.accesses {
            out.entry(a.variable).or_default().push(a);
        }
        out
    }

    /// Concatenates another trace onto this one.
    pub fn extend_from(&mut self, other: &Trace) {
        self.accesses.extend_from_slice(&other.accesses);
    }

    /// Shortens the trace to at most `len` accesses, dropping the tail.
    pub fn truncate(&mut self, len: usize) {
        self.accesses.truncate(len);
    }

    /// Splices a sequence of traces into one, back to back, preserving
    /// each segment's internal order — the building block for
    /// phase-change workloads (pattern A, then pattern B).
    pub fn concat<I>(segments: I) -> Trace
    where
        I: IntoIterator<Item = Trace>,
    {
        let mut out = Trace::new();
        for seg in segments {
            out.reserve(seg.len());
            out.accesses.extend(seg.accesses);
        }
        out
    }

    /// The sub-trace of one thread, in order — one lane's view of a
    /// multi-threaded trace (lane interleaving otherwise masks
    /// per-thread strides).
    pub fn thread_slice(&self, t: crate::ThreadId) -> Trace {
        self.accesses
            .iter()
            .filter(|a| a.thread == t)
            .copied()
            .collect()
    }

    /// Every `step`-th access — cheap downsampling for expensive
    /// analyses (e.g. exact reuse distance).
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    pub fn sample(&self, step: usize) -> Trace {
        assert!(step > 0, "sample step must be non-zero");
        self.accesses.iter().step_by(step).copied().collect()
    }
}

impl FromIterator<MemAccess> for Trace {
    fn from_iter<I: IntoIterator<Item = MemAccess>>(iter: I) -> Self {
        Trace {
            accesses: iter.into_iter().collect(),
        }
    }
}

impl Extend<MemAccess> for Trace {
    fn extend<I: IntoIterator<Item = MemAccess>>(&mut self, iter: I) {
        self.accesses.extend(iter);
    }
}

impl IntoIterator for Trace {
    type Item = MemAccess;
    type IntoIter = std::vec::IntoIter<MemAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a MemAccess;
    type IntoIter = std::slice::Iter<'a, MemAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

/// Multiply-xorshift hashing of a `u32` variable id. The std default
/// (SipHash) costs several times the per-access work of the passes that
/// look ids up. Folding the product's high half into its low half makes
/// the bucket bits depend on every id bit, so ids that differ only in
/// high bits (co-run renumbering) do not share buckets. Ids are not
/// randomized against crafted collisions: a trace that collides on
/// purpose only slows its own profiling run.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, v: u32) {
        let h = u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type IdMap<V> = HashMap<u32, V, BuildHasherDefault<IdHasher>>;

/// Dense positions for a set of variables: the distinct ids in
/// ascending order, and an O(1) id → position lookup.
///
/// Per-variable passes over a trace keep their state in `Vec`s indexed
/// by position. Raw ids can be sparse (co-run renumbering adds 100 000
/// per workload), so they never index a `Vec` directly.
///
/// ```
/// use sdam_trace::{trace::VariableIndex, VariableId};
///
/// let idx = VariableIndex::new([VariableId(100_007), VariableId(3), VariableId(3)]);
/// assert_eq!(idx.ids(), &[VariableId(3), VariableId(100_007)]);
/// assert_eq!(idx[VariableId(100_007)], 1);
/// assert_eq!(idx.get(VariableId(4)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VariableIndex {
    ids: Vec<VariableId>,
    pos: IdMap<usize>,
}

impl VariableIndex {
    /// Indexes `ids` (duplicates collapse) in ascending id order.
    pub fn new(ids: impl IntoIterator<Item = VariableId>) -> Self {
        let mut ids: Vec<VariableId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let pos = ids.iter().enumerate().map(|(i, v)| (v.0, i)).collect();
        VariableIndex { ids, pos }
    }

    /// Indexes every variable `trace` references and folds each one's
    /// accesses, in trace order, into an accumulator that starts as
    /// `init`: one pass, one hash probe per access. Accumulator `i`
    /// belongs to the variable at position `i`.
    pub fn fold<A: Clone>(
        trace: &Trace,
        init: A,
        mut f: impl FnMut(&mut A, &MemAccess),
    ) -> (Self, Vec<A>) {
        // Positions in first-seen order while scanning, then renumbered
        // to ascending id order.
        let mut pos: IdMap<usize> = IdMap::default();
        let mut seen: Vec<(VariableId, A)> = Vec::new();
        for a in trace.iter() {
            let i = *pos.entry(a.variable.0).or_insert_with(|| {
                seen.push((a.variable, init.clone()));
                seen.len() - 1
            });
            f(&mut seen[i].1, a);
        }
        seen.sort_unstable_by_key(|&(v, _)| v);
        let (ids, accs): (Vec<VariableId>, Vec<A>) = seen.into_iter().unzip();
        for (i, v) in ids.iter().enumerate() {
            pos.insert(v.0, i);
        }
        (VariableIndex { ids, pos }, accs)
    }

    /// The indexed ids, ascending: position `i` holds `ids()[i]`.
    #[inline]
    pub fn ids(&self) -> &[VariableId] {
        &self.ids
    }

    /// Number of indexed variables.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no variable is indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Position of `v`, or `None` if it is not indexed.
    #[inline]
    pub fn get(&self, v: VariableId) -> Option<usize> {
        self.pos.get(&v.0).copied()
    }
}

impl std::ops::Index<VariableId> for VariableIndex {
    type Output = usize;

    /// Position of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not indexed.
    #[inline]
    fn index(&self, v: VariableId) -> &usize {
        &self.pos[&v.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        for i in 0..10u64 {
            t.push(MemAccess::read(i * 64, VariableId((i % 2) as u32)));
        }
        t
    }

    #[test]
    fn counts_and_split() {
        let t = sample();
        assert_eq!(t.len(), 10);
        let refs = t.refs_per_variable();
        assert_eq!(refs[&VariableId(0)], 5);
        assert_eq!(refs[&VariableId(1)], 5);
        let split = t.split_by_variable();
        assert_eq!(split.len(), 2);
        assert_eq!(split[&VariableId(0)].len(), 5);
        let v0: Vec<u64> = t.addrs_of(VariableId(0)).collect();
        assert_eq!(v0, vec![0, 128, 256, 384, 512]);
    }

    #[test]
    fn fold_renumbers_sparse_ids_in_ascending_order() {
        // First seen: 200_001, then 7, then 100_000.
        let t: Trace = [(200_001, 0), (7, 64), (200_001, 128), (100_000, 0), (7, 0)]
            .into_iter()
            .map(|(v, addr)| MemAccess::read(addr, VariableId(v)))
            .collect();
        let (idx, sums) = VariableIndex::fold(&t, 0u64, |s, a| *s += a.addr + 1);
        let ids = [VariableId(7), VariableId(100_000), VariableId(200_001)];
        assert_eq!(idx.ids(), &ids);
        assert_eq!(sums, vec![66, 1, 130]);
        for (i, &v) in ids.iter().enumerate() {
            assert_eq!((idx[v], idx.get(v)), (i, Some(i)));
        }
        assert_eq!(idx.get(VariableId(8)), None);
    }

    #[test]
    fn footprint_counts_distinct_lines() {
        let mut t = Trace::new();
        // Three accesses to two lines.
        t.push(MemAccess::read(0, VariableId(0)));
        t.push(MemAccess::read(32, VariableId(0)));
        t.push(MemAccess::read(64, VariableId(0)));
        assert_eq!(t.footprint_per_variable()[&VariableId(0)], 128);
    }

    #[test]
    fn from_iterator_and_extend() {
        let t: Trace = (0..5u64)
            .map(|i| MemAccess::read(i, VariableId(0)))
            .collect();
        assert_eq!(t.len(), 5);
        let mut u = Trace::new();
        u.extend_from(&t);
        u.extend((0..3u64).map(|i| MemAccess::read(i, VariableId(1))));
        assert_eq!(u.len(), 8);
        assert_eq!(u.variables(), vec![VariableId(0), VariableId(1)]);
    }

    #[test]
    fn thread_slice_and_sample() {
        let mut t = Trace::new();
        for i in 0..10u64 {
            t.push(MemAccess {
                thread: crate::ThreadId((i % 2) as u16),
                ..MemAccess::read(i * 64, VariableId(0))
            });
        }
        let lane0 = t.thread_slice(crate::ThreadId(0));
        assert_eq!(lane0.len(), 5);
        assert!(lane0.iter().all(|a| a.thread.0 == 0));
        let sampled = t.sample(3);
        assert_eq!(sampled.len(), 4); // indices 0,3,6,9
        assert_eq!(sampled.accesses()[1].addr, 3 * 64);
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert!(t.refs_per_variable().is_empty());
        assert!(t.variables().is_empty());
    }
}
