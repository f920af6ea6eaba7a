//! A set-associative cache simulator with LRU replacement.

use crate::error::ConfigError;

/// Cache shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (64 everywhere in this project).
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// The paper's per-core L1: 64 KB, 8-way, 64 B lines. The 1-cycle
    /// hit cost is a *throughput* charge (an OoO core retires about one
    /// L1 access per cycle), not the load-to-use latency, which the
    /// window hides.
    pub fn boom_l1() -> Self {
        CacheConfig {
            capacity_bytes: 64 << 10,
            ways: 8,
            line_bytes: 64,
            hit_latency: 1,
        }
    }

    /// A small accelerator buffer: 8 KB, 4-way. The paper notes
    /// accelerators "have smaller caches, leading to higher cache miss
    /// rate".
    pub fn accelerator_buffer() -> Self {
        CacheConfig {
            capacity_bytes: 8 << 10,
            ways: 4,
            line_bytes: 64,
            hit_latency: 1,
        }
    }

    /// Number of sets implied by the shape: zero when one set
    /// (`line_bytes * ways`) outgrows the capacity, or `u64` itself.
    pub fn num_sets(&self) -> usize {
        self.line_bytes
            .checked_mul(self.ways as u64)
            .and_then(|set_bytes| self.capacity_bytes.checked_div(set_bytes))
            .map_or(0, |sets| sets as usize)
    }

    /// Validates the shape.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, the line size is not a power of
    /// two, or the capacity does not divide evenly into sets.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Fallible twin of [`CacheConfig::validate`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::Cache`] naming the violated constraint.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        let bad = |what| Err(ConfigError::Cache { what });
        if self.capacity_bytes == 0 {
            return bad("capacity must be non-zero");
        }
        if self.ways == 0 {
            return bad("associativity must be non-zero");
        }
        if !self.line_bytes.is_power_of_two() {
            return bad("line size must be a power of two");
        }
        if self.hit_latency == 0 {
            return bad("hit latency must be non-zero");
        }
        let set_bytes = match self.line_bytes.checked_mul(self.ways as u64) {
            Some(b) if b <= self.capacity_bytes => b,
            _ => return bad("capacity too small for the associativity"),
        };
        if !self.capacity_bytes.is_multiple_of(set_bytes) {
            return bad("capacity must divide evenly into sets");
        }
        if !(self.capacity_bytes / set_bytes).is_power_of_two() {
            return bad("set count must be a power of two for bit indexing");
        }
        Ok(())
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (write-allocate).
    Miss,
}

/// A set-associative LRU cache.
///
/// # Example
///
/// ```
/// use sdam_sys::cache::{Cache, CacheConfig, CacheOutcome};
///
/// let mut c = Cache::new(CacheConfig::boom_l1());
/// assert_eq!(c.access(0x1000), CacheOutcome::Miss);
/// assert_eq!(c.access(0x1000), CacheOutcome::Hit);
/// assert_eq!(c.access(0x1020), CacheOutcome::Hit); // same 64 B line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × ways` tags, one `ways`-long slice per set; the first
    /// `fill[set]` entries of a slice are valid, in LRU order (front =
    /// most recent).
    tags: Vec<u64>,
    /// Valid tags per set.
    fill: Vec<usize>,
    /// `log2(line_bytes)`: address → line number.
    line_shift: u32,
    /// `log2(sets)`: line number → tag.
    set_shift: u32,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let sets = config.num_sets();
        Cache {
            tags: vec![0; sets * config.ways],
            fill: vec![0; sets],
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            config,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Performs an access, updating LRU state and filling on miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        let line = addr >> self.line_shift;
        let set_idx = (line as usize) & (self.fill.len() - 1);
        let tag = line >> self.set_shift;
        let ways = self.config.ways;
        let set = &mut self.tags[set_idx * ways..(set_idx + 1) * ways];
        let fill = &mut self.fill[set_idx];
        if let Some(pos) = set[..*fill].iter().position(|&t| t == tag) {
            set[..=pos].rotate_right(1);
            self.hits += 1;
            CacheOutcome::Hit
        } else {
            // The LRU tag (or an unused slot) rotates to the front and
            // is overwritten.
            *fill = (*fill + 1).min(ways);
            set[..*fill].rotate_right(1);
            set[0] = tag;
            self.misses += 1;
            CacheOutcome::Miss
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate, or `None` before any access.
    pub fn miss_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.misses as f64 / total as f64)
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        self.fill.fill(0);
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(CacheConfig {
            capacity_bytes: 512,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0), CacheOutcome::Miss);
        assert_eq!(c.access(63), CacheOutcome::Hit);
        assert_eq!(c.access(64), CacheOutcome::Miss);
        assert_eq!(c.miss_rate(), Some(2.0 / 3.0));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = sets * line = 256 B).
        c.access(0);
        c.access(256);
        c.access(0); // 0 is now MRU; 256 is LRU
        c.access(512); // evicts 256
        assert_eq!(c.access(0), CacheOutcome::Hit);
        assert_eq!(c.access(256), CacheOutcome::Miss);
    }

    #[test]
    fn working_set_within_capacity_all_hits_second_pass() {
        let mut c = Cache::new(CacheConfig::boom_l1());
        let lines = 64 * 1024 / 64;
        for i in 0..lines {
            c.access(i * 64);
        }
        let misses_after_fill = c.misses();
        for i in 0..lines {
            assert_eq!(c.access(i * 64), CacheOutcome::Hit, "line {i}");
        }
        assert_eq!(c.misses(), misses_after_fill);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = tiny();
        // 16 lines in a 8-line cache, streamed twice: all misses.
        for _ in 0..2 {
            for i in 0..16u64 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn reset_clears() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert_eq!(c.miss_rate(), None);
        assert_eq!(c.access(0), CacheOutcome::Miss);
    }

    /// The textbook LRU cache: one `Vec` of tags per set, most recent
    /// first, located by division.
    struct ListLru {
        line_bytes: u64,
        ways: usize,
        sets: Vec<Vec<u64>>,
    }

    impl ListLru {
        fn new(config: CacheConfig) -> Self {
            ListLru {
                line_bytes: config.line_bytes,
                ways: config.ways,
                sets: vec![Vec::new(); config.num_sets()],
            }
        }

        fn access(&mut self, addr: u64) -> CacheOutcome {
            let line = addr / self.line_bytes;
            let n = self.sets.len() as u64;
            let set = &mut self.sets[(line % n) as usize];
            let tag = line / n;
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                set.remove(pos);
                set.insert(0, tag);
                CacheOutcome::Hit
            } else {
                if set.len() == self.ways {
                    set.pop();
                }
                set.insert(0, tag);
                CacheOutcome::Miss
            }
        }
    }

    #[test]
    fn matches_a_list_lru_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(14);
        for ways in [1usize, 2, 4, 8, 16] {
            for sets in [1u64, 2, 128] {
                let config = CacheConfig {
                    capacity_bytes: sets * ways as u64 * 64,
                    ways,
                    line_bytes: 64,
                    hit_latency: 1,
                };
                let mut cache = Cache::new(config);
                let mut model = ListLru::new(config);
                // Twice, with a reset in between: the second pass must
                // start from an empty cache again.
                for _ in 0..2 {
                    let span = 64 * sets * ways as u64 * 3;
                    let random = (0..4_000)
                        .map(|_| rng.gen_range(0..span))
                        .collect::<Vec<_>>();
                    let strided = [1u64, 3, 64, 64 * sets, 64 * sets * 2 + 8]
                        .into_iter()
                        .flat_map(|stride| (0..600u64).map(move |i| (i * stride) % span));
                    let (mut hits, mut misses) = (0, 0);
                    for addr in random.into_iter().chain(strided) {
                        let want = model.access(addr);
                        assert_eq!(
                            cache.access(addr),
                            want,
                            "{ways} ways, {sets} sets, {addr:#x}"
                        );
                        match want {
                            CacheOutcome::Hit => hits += 1,
                            CacheOutcome::Miss => misses += 1,
                        }
                    }
                    assert_eq!((cache.hits(), cache.misses()), (hits, misses));
                    assert!(hits > 0 && misses > 0, "{ways} ways, {sets} sets");
                    cache.reset();
                    model = ListLru::new(config);
                }
            }
        }
    }

    #[test]
    fn uneven_or_overflowing_shapes_rejected() {
        let shape = |capacity_bytes, ways| CacheConfig {
            capacity_bytes,
            ways,
            line_bytes: 64,
            hit_latency: 1,
        };
        // 600 B would make 4 sets of 2 x 64 B and leave 88 B unused.
        assert!(matches!(
            shape(600, 2).try_validate(),
            Err(ConfigError::Cache { what }) if what.contains("evenly")
        ));
        assert!(shape(512, 2).try_validate().is_ok());
        let huge = shape(64 << 10, usize::MAX / 2);
        assert_eq!(huge.num_sets(), 0);
        assert!(matches!(
            huge.try_validate(),
            Err(ConfigError::Cache { what }) if what.contains("too small")
        ));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        Cache::new(CacheConfig {
            capacity_bytes: 3 * 64 * 2,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
        });
    }
}
