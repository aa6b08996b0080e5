//! A small two-level set-associative cache model.
//!
//! The cost monitor feeds every DRAM-space access through this model;
//! hits in L1/L2 are cheap, misses pay a memory latency. This is what
//! makes tiling, staging and data-layout schedules pay off in the
//! simulated figures, mirroring why they pay off on real hardware.

/// Configuration of a single cache level.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Associativity (ways per set). More ways than the capacity has
    /// lines means fully associative: one set of `capacity / line` lines.
    pub ways: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// A 32 KiB, 8-way L1 with 64-byte lines.
    pub fn l1() -> Self {
        CacheConfig {
            capacity: 32 * 1024,
            line: 64,
            ways: 8,
            hit_latency: 4,
        }
    }

    /// A 1 MiB, 16-way L2 with 64-byte lines.
    pub fn l2() -> Self {
        CacheConfig {
            capacity: 1024 * 1024,
            line: 64,
            ways: 16,
            hit_latency: 14,
        }
    }
}

/// Aggregate statistics for one cache level.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Number of accesses.
    pub accesses: u64,
    /// Number of misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One set-associative cache level with LRU replacement.
///
/// Each way holds a line and the access count at its last use, its
/// *stamp*: a hit stores the stamp, a miss fills the way with the least
/// one. Lines never move between ways, so a way found once can be
/// touched again without a search.
#[derive(Clone, Debug, PartialEq)]
pub struct Cache {
    hit_latency: u64,
    line: u64,
    ways: usize,
    sets: u64,
    /// `log2` of the line size and `sets - 1` where those are powers of
    /// two (every shipped configuration), so that finding a line's set
    /// takes no division.
    line_shift: Option<u32>,
    set_mask: Option<u64>,
    /// Every set's ways in one array, `ways` per set.
    slots: Vec<Way>,
    stats: CacheStats,
}

/// One way of a set: the line it holds and the stamp of its last use,
/// zero while it has held none.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Way {
    line: u64,
    stamp: u64,
}

impl Cache {
    /// Creates an empty cache with the given configuration. A zero line
    /// size or associativity is read as one, and a set holds no more lines
    /// than the capacity has (see [`CacheConfig::ways`]).
    pub fn new(config: CacheConfig) -> Self {
        let line = config.line.max(1);
        let total_lines = (config.capacity / line).max(1);
        let ways = (config.ways.max(1) as u64).min(total_lines);
        let sets = total_lines / ways;
        Cache {
            hit_latency: config.hit_latency,
            line,
            ways: ways as usize,
            sets,
            line_shift: line.is_power_of_two().then(|| line.trailing_zeros()),
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            slots: vec![Way::default(); (sets * ways) as usize],
            stats: CacheStats::default(),
        }
    }

    /// Accesses `addr`; returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.lookup(addr).0
    }

    /// Accesses `addr`; returns whether it hit and the slot that now
    /// holds its line, for [`Cache::touch`].
    pub(crate) fn lookup(&mut self, addr: u64) -> (bool, usize) {
        self.stats.accesses += 1;
        let stamp = self.stats.accesses;
        let line = match self.line_shift {
            Some(shift) => addr >> shift,
            None => addr / self.line,
        };
        let set = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets,
        };
        let first = set as usize * self.ways;
        let set = &mut self.slots[first..][..self.ways];
        let (hit, way) = match set.iter().position(|w| w.line == line && w.stamp != 0) {
            Some(way) => (true, way),
            None => {
                self.stats.misses += 1;
                // The least recently used way takes the line: the first
                // empty one while the set has room.
                let mut victim = 0;
                for (i, w) in set.iter().enumerate().skip(1) {
                    if w.stamp < set[victim].stamp {
                        victim = i;
                    }
                }
                set[victim].line = line;
                (false, victim)
            }
        };
        set[way].stamp = stamp;
        (hit, first + way)
    }

    /// Accesses the line held in `slot`, which the caller knows to be
    /// the line it wants and still resident: a hit, charged without a
    /// search.
    #[inline]
    pub(crate) fn touch(&mut self, slot: usize) {
        self.stats.accesses += 1;
        self.slots[slot].stamp = self.stats.accesses;
    }

    /// Line size in bytes.
    pub(crate) fn line(&self) -> u64 {
        self.line
    }

    /// The first address of the line holding `addr`.
    #[inline]
    pub(crate) fn line_start(&self, addr: u64) -> u64 {
        match self.line_shift {
            Some(_) => addr & !(self.line - 1),
            None => addr - addr % self.line,
        }
    }

    /// Ways per set.
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// Hit latency of this level.
    pub fn hit_latency(&self) -> u64 {
        self.hit_latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::rng::Rng;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// A per-set `VecDeque` LRU in most-recently-used order, kept here
    /// as the specification the stamped [`Cache`] is checked against.
    struct NaiveLru {
        line: u64,
        ways: usize,
        sets: Vec<VecDeque<u64>>,
        stats: CacheStats,
    }

    impl NaiveLru {
        fn new(config: &CacheConfig) -> Self {
            let n_sets = (config.capacity / config.line / config.ways as u64).max(1) as usize;
            NaiveLru {
                line: config.line,
                ways: config.ways,
                sets: vec![VecDeque::new(); n_sets],
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.stats.accesses += 1;
            let line = addr / self.line;
            let n_sets = self.sets.len() as u64;
            let set = &mut self.sets[(line % n_sets) as usize];
            if let Some(pos) = set.iter().position(|&l| l == line) {
                set.remove(pos);
                set.push_front(line);
                return true;
            }
            self.stats.misses += 1;
            set.push_front(line);
            set.truncate(self.ways);
            false
        }
    }

    /// Replays `len` addresses drawn from `seed` (a short working set with
    /// the occasional far address, so hits, reorderings and evictions all
    /// occur) through both models.
    fn agree_on_trace(
        flat: &mut Cache,
        naive: &mut NaiveLru,
        seed: u64,
        len: usize,
        span: u64,
    ) -> Result<(), String> {
        let mut rng = Rng::new(seed);
        for step in 0..len {
            let draw = rng.next_u64() >> 33;
            let addr = if draw.is_multiple_of(16) {
                draw.wrapping_mul(0x9E37_79B9)
            } else {
                draw % span
            };
            if flat.access(addr) != naive.access(addr) {
                return Err(format!("step {step}: addr {addr:#x}"));
            }
        }
        if *flat.stats() != naive.stats {
            return Err(format!("{:?} vs {:?}", flat.stats(), naive.stats));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn flat_lru_agrees_with_the_naive_lru_on_small_configs(
            seed in 1u64..u64::MAX,
            n_sets in 1u64..5,
            ways in 1usize..5,
            line_pick in 0usize..4,
        ) {
            let line = [1u64, 4, 48, 64][line_pick];
            let config = CacheConfig {
                capacity: n_sets * ways as u64 * line,
                line,
                ways,
                hit_latency: 1,
            };
            let (mut flat, mut naive) = (Cache::new(config.clone()), NaiveLru::new(&config));
            let span = 3 * config.capacity;
            if let Err(why) = agree_on_trace(&mut flat, &mut naive, seed, 600, span) {
                prop_assert!(false, "{} under {:?}", why, config);
            }
        }

        /// More ways than lines: the flat cache is the naive LRU of the
        /// fully-associative cache of that capacity, not a one-set cache
        /// holding `ways` lines (which `ways: usize::MAX` would make
        /// unbounded).
        #[test]
        fn over_associative_configs_are_fully_associative(
            seed in 1u64..u64::MAX,
            total_lines in 1u64..5,
            extra_ways in 1usize..5,
        ) {
            let config = CacheConfig {
                capacity: total_lines * 64,
                line: 64,
                ways: total_lines as usize + extra_ways,
                hit_latency: 1,
            };
            let mut flat = Cache::new(config.clone());
            let mut naive = NaiveLru::new(&CacheConfig {
                ways: total_lines as usize,
                ..config.clone()
            });
            let span = 3 * config.capacity;
            if let Err(why) = agree_on_trace(&mut flat, &mut naive, seed, 600, span) {
                prop_assert!(false, "{} under {:?}", why, config);
            }
        }

        #[test]
        fn flat_lru_agrees_with_the_naive_lru_on_l1_and_l2(seed in 1u64..u64::MAX) {
            for config in [CacheConfig::l1(), CacheConfig::l2()] {
                let (mut flat, mut naive) = (Cache::new(config.clone()), NaiveLru::new(&config));
                let span = 2 * config.capacity;
                if let Err(why) = agree_on_trace(&mut flat, &mut naive, seed, 4000, span) {
                    prop_assert!(false, "{} under {:?}", why, config);
                }
            }
        }
    }

    #[test]
    fn degenerate_configs_are_clamped_not_divided_by() {
        for (line, ways) in [(0, 2), (64, 0), (0, 0), (64, usize::MAX)] {
            let mut c = Cache::new(CacheConfig {
                capacity: 256,
                line,
                ways,
                hit_latency: 1,
            });
            assert!(!c.access(0x40));
            assert!(c.access(0x40));
            assert_eq!(c.stats().misses, 1);
        }
    }

    #[test]
    fn repeated_accesses_hit() {
        let mut c = Cache::new(CacheConfig::l1());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004)); // same line
        assert!(!c.access(0x2000));
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_evictions_occur() {
        // A tiny 2-way, 2-set cache: 4 lines total.
        let mut c = Cache::new(CacheConfig {
            capacity: 256,
            line: 64,
            ways: 2,
            hit_latency: 1,
        });
        // Access 3 distinct lines mapping to the same set (stride = 2 lines).
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(!c.access(256));
        // Line 0 was evicted (LRU).
        assert!(!c.access(0));
        // Line 256 is still resident.
        assert!(c.access(256));
    }

    #[test]
    fn streaming_misses_once_per_line() {
        let mut c = Cache::new(CacheConfig::l1());
        for i in 0..1024u64 {
            c.access(0x4000 + i * 4);
        }
        // 1024 * 4 bytes / 64-byte lines = 64 misses.
        assert_eq!(c.stats().misses, 64);
    }
}
