//! The crate's one hash table: an open-addressing map keyed by `u64`
//! addresses (or page numbers), shared by the heap's live-allocation
//! index and the page table.
//!
//! Linear probing with tombstones; capacity doubles at 3/4 occupancy, so
//! lookups stay O(1) and the table reuses its storage for the owner's
//! whole lifetime. Nothing iterates it: the heap frees by start address
//! and `munmap` walks pages by VPN range, so no ordered iteration is
//! lost against the `BTreeMap`s it replaced.

/// Open-addressing map from `u64` keys to small `Copy` values.
#[derive(Debug, Clone)]
pub(crate) struct AddrMap<V> {
    /// 0 = empty, 1 = full, 2 = tombstone.
    state: Vec<u8>,
    /// Key and value side by side: a hit reads one cache line.
    slots: Vec<(u64, V)>,
    len: usize,
    /// Full + tombstone slots (drives the resize threshold).
    used: usize,
}

impl<V: Copy + Default> Default for AddrMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> AddrMap<V> {
    pub(crate) fn new() -> Self {
        Self::with_slots(16)
    }

    fn with_slots(cap: usize) -> Self {
        AddrMap {
            state: vec![0; cap],
            slots: vec![(0, V::default()); cap],
            len: 0,
            used: 0,
        }
    }

    /// Number of live entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & (self.slots.len() - 1)
    }

    pub(crate) fn insert(&mut self, key: u64, val: V) {
        if (self.used + 1) * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            match self.state[i] {
                1 if self.slots[i].0 == key => {
                    self.slots[i].1 = val;
                    return;
                }
                1 => {}
                _ => {
                    if self.state[i] == 0 {
                        self.used += 1;
                    }
                    self.state[i] = 1;
                    self.slots[i] = (key, val);
                    self.len += 1;
                    return;
                }
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<V> {
        let mask = self.slots.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            match self.state[i] {
                0 => return None,
                1 if self.slots[i].0 == key => return Some(self.slots[i].1),
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }

    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        let mask = self.slots.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            match self.state[i] {
                0 => return None,
                1 if self.slots[i].0 == key => {
                    self.state[i] = 2;
                    self.len -= 1;
                    return Some(self.slots[i].1);
                }
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }

    /// Rehashes without tombstones: at double the size, or at the same
    /// size when live entries fill at most half the table (insert/remove
    /// churn then never grows it past twice its peak occupancy).
    fn grow(&mut self) {
        let cap = self.slots.len();
        let mut next = Self::with_slots(if self.len * 2 <= cap { cap } else { cap * 2 });
        for (&state, &(key, val)) in self.state.iter().zip(&self.slots) {
            if state == 1 {
                next.insert(key, val);
            }
        }
        *self = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_across_growth() {
        let mut m: AddrMap<u64> = AddrMap::new();
        for k in 0..1000u64 {
            m.insert(k << 12, k);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(7 << 12), Some(7));
        assert_eq!(m.get(1), None);
        for k in (0..1000u64).step_by(2) {
            assert_eq!(m.remove(k << 12), Some(k));
        }
        assert_eq!(m.len(), 500);
        assert_eq!(m.get(4 << 12), None);
        assert_eq!(m.get(5 << 12), Some(5));
        // Overwrite keeps the count; reinsertion over a tombstone adds.
        m.insert(5 << 12, 50);
        m.insert(4 << 12, 40);
        assert_eq!(
            (m.len(), m.get(5 << 12), m.get(4 << 12)),
            (501, Some(50), Some(40))
        );
    }

    #[test]
    fn churn_reuses_tombstones_instead_of_growing() {
        // A long-lived page table maps and unmaps ever-new pages: the
        // table must stay sized by what is live, not by what ever was.
        let mut m: AddrMap<u64> = AddrMap::new();
        for k in 0..100_000u64 {
            m.insert(k, k);
            if k >= 4 {
                assert_eq!(m.remove(k - 4), Some(k - 4));
            }
        }
        assert_eq!(m.len(), 4);
        assert_eq!(m.slots.len(), 16);
        assert_eq!(m.get(99_999), Some(99_999));
    }
}
