//! The core set-associative lookup structure with exact LRU.

use crate::geometry::{CacheGeometry, TlbGeometry};

/// Sentinel for an empty way. Real line numbers are `addr >> line_shift`
/// with `line_shift ≥ 2` (word-sized lines at minimum), so they can never
/// collide with it.
const INVALID_LINE: u64 = u64::MAX;

/// A set-associative cache (or, with one set, a fully-associative TLB).
///
/// All sets live in one flat `sets × ways` slot array (no per-set heap
/// allocations), with a parallel packed recency array: each slot carries
/// the cache-wide clock value of its last touch, so the victim in a set
/// is simply the slot with the smallest stamp. Empty ways keep stamp 0,
/// below every live stamp, so sets fill before they evict. This encodes
/// *exact* LRU — identical hit/miss decisions to a recency-ordered list
/// (a property test checks this against the naive list oracle) — while a
/// lookup touches two small contiguous slices instead of chasing a
/// per-set `Vec`.
///
/// # Example
///
/// ```
/// use agave_cache::{CacheGeometry, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheGeometry { sets: 2, ways: 2, line_bytes: 16 });
/// assert!(!c.access(0x00)); // compulsory miss
/// assert!(c.access(0x04));  // same 16-byte line
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// Resident line numbers, `sets × ways`, set-major.
    lines: Vec<u64>,
    /// Recency stamps parallel to `lines`; larger = more recently used.
    stamps: Vec<u64>,
    /// Per-set most-recently-used line, checked before the way scan (the
    /// recency-ordered list got this for free by keeping the MRU line at
    /// scan position 0). The MRU slot already holds its set's largest
    /// stamp and stamps are only compared within a set, so a hint hit is
    /// a pure read — no stamp, clock, or hint update needed.
    mru_line: Vec<u64>,
    /// Monotonic access clock feeding the stamps.
    clock: u64,
    line_shift: u32,
    set_mask: u64,
}

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if any geometry parameter is not a power of two.
    pub fn new(geometry: CacheGeometry) -> Self {
        geometry.validate();
        let slots = geometry.sets as usize * geometry.ways as usize;
        SetAssocCache {
            geometry,
            lines: vec![INVALID_LINE; slots],
            stamps: vec![0; slots],
            mru_line: vec![INVALID_LINE; geometry.sets as usize],
            clock: 0,
            line_shift: geometry.line_bytes.trailing_zeros(),
            set_mask: u64::from(geometry.sets) - 1,
        }
    }

    /// Builds a fully-associative cache modeling a TLB: one set,
    /// `entries` ways, page-sized "lines".
    pub fn tlb(geometry: TlbGeometry) -> Self {
        Self::new(CacheGeometry {
            sets: 1,
            ways: geometry.entries,
            line_bytes: geometry.page_bytes,
        })
    }

    /// The configured geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Log2 of the line size (the shift from address to line number).
    pub fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// The line number containing `addr` (the unit of residency).
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// The set index serving `addr`.
    pub fn set_of(&self, addr: u64) -> u64 {
        self.line_of(addr) & self.set_mask
    }

    /// The tag stored for `addr` (line number above the set bits).
    pub fn tag_of(&self, addr: u64) -> u64 {
        self.line_of(addr) >> self.set_mask.count_ones()
    }

    /// Looks up the line containing `addr`, updating recency and
    /// contents. Returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(addr >> self.line_shift)
    }

    /// [`Self::access`] with the line number already extracted — the
    /// hierarchy walk iterates lines directly, skipping the per-call
    /// address shift.
    #[inline]
    pub fn access_line(&mut self, line: u64) -> bool {
        debug_assert_ne!(line, INVALID_LINE, "address aliases the empty-way sentinel");
        let set = (line & self.set_mask) as usize;
        // MRU hint first: repeated touches of a set's hot line cost one
        // load and compare, with nothing written (see `mru_line`).
        if self.mru_line[set] == line {
            return true;
        }
        let ways = self.geometry.ways as usize;
        let base = set * ways;
        self.clock += 1;
        let clock = self.clock;
        // Dispatch to a fixed-width sweep for the associativities the
        // shipped geometries actually use, so the scan fully unrolls.
        match ways {
            2 => self.sweep::<2>(line, set, base, clock),
            4 => self.sweep::<4>(line, set, base, clock),
            8 => self.sweep::<8>(line, set, base, clock),
            32 => self.sweep::<32>(line, set, base, clock),
            _ => self.sweep_dyn(line, set, base, ways, clock),
        }
    }

    /// One fused pass over a fixed-width set: look for the line and track
    /// the smallest stamp — an empty way (stamp 0) if any, else the exact
    /// LRU line — so a miss costs a single sweep. The `W`-sized array
    /// views let the compiler unroll and drop all bounds checks.
    #[inline]
    fn sweep<const W: usize>(&mut self, line: u64, set: usize, base: usize, clock: u64) -> bool {
        let lines: &mut [u64; W] = (&mut self.lines[base..base + W]).try_into().unwrap();
        let stamps: &mut [u64; W] = (&mut self.stamps[base..base + W]).try_into().unwrap();
        // Branchless tag match: selecting the hit index with no early
        // exit lets the compare vectorize, so hit and full-scan miss both
        // cost one wide sweep instead of W predicted branches.
        let mut hit = usize::MAX;
        for (i, &l) in lines.iter().enumerate() {
            if l == line {
                hit = i;
            }
        }
        if hit != usize::MAX {
            // `% W` is free (W is a power of two) and proves the index.
            stamps[hit % W] = clock;
            self.mru_line[set] = line;
            return true;
        }
        // Miss: the victim is the smallest stamp — an empty way (stamp 0)
        // if any, else the exact LRU line. Packing `(stamp << log2 W) | way`
        // turns the indexed scan into a plain min-reduction (stamps are
        // unique within a set, so the packed order equals stamp order).
        let way_bits = W.trailing_zeros();
        let mut packed_min = u64::MAX;
        for (i, &stamp) in stamps.iter().enumerate() {
            let packed = (stamp << way_bits) | i as u64;
            if packed < packed_min {
                packed_min = packed;
            }
        }
        let victim = (packed_min as usize) % W;
        lines[victim] = line;
        stamps[victim] = clock;
        self.mru_line[set] = line;
        false
    }

    /// [`Self::sweep`] for associativities without a fixed-width variant.
    fn sweep_dyn(&mut self, line: u64, set: usize, base: usize, ways: usize, clock: u64) -> bool {
        let lines = &mut self.lines[base..base + ways];
        let stamps = &mut self.stamps[base..base + ways];
        let mut victim = 0;
        let mut victim_stamp = u64::MAX;
        for i in 0..ways {
            if lines[i] == line {
                stamps[i] = clock;
                self.mru_line[set] = line;
                return true;
            }
            if stamps[i] < victim_stamp {
                victim_stamp = stamps[i];
                victim = i;
            }
        }
        lines[victim] = line;
        stamps[victim] = clock;
        self.mru_line[set] = line;
        false
    }

    /// Returns `true` if the line containing `addr` is resident, without
    /// touching recency (for tests and introspection).
    pub fn contains(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let ways = self.geometry.ways as usize;
        let base = ((line & self.set_mask) as usize) * ways;
        self.lines[base..base + ways].contains(&line)
    }

    /// Number of resident lines across all sets.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|&&l| l != INVALID_LINE).count()
    }

    /// Invalidates everything.
    pub fn flush(&mut self) {
        self.lines.fill(INVALID_LINE);
        self.stamps.fill(0);
        self.mru_line.fill(INVALID_LINE);
        self.clock = 0;
    }
}

/// The pre-flattening implementation — a recency-ordered `Vec` per set —
/// kept as the oracle for the packed-LRU property test.
#[cfg(test)]
pub(crate) struct NaiveLruCache {
    ways: usize,
    sets: Vec<Vec<u64>>,
    line_shift: u32,
    set_mask: u64,
}

#[cfg(test)]
impl NaiveLruCache {
    /// Any `ways` works here (the list needs no power of two), so the
    /// stack-distance tests can check every associativity.
    pub(crate) fn new(geometry: CacheGeometry) -> Self {
        assert!(geometry.sets.is_power_of_two() && geometry.line_bytes.is_power_of_two());
        assert!(geometry.ways > 0);
        NaiveLruCache {
            ways: geometry.ways as usize,
            sets: vec![Vec::with_capacity(geometry.ways as usize); geometry.sets as usize],
            line_shift: geometry.line_bytes.trailing_zeros(),
            set_mask: u64::from(geometry.sets) - 1,
        }
    }

    pub(crate) fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = &mut self.sets[(line & self.set_mask) as usize];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            if pos != 0 {
                let hit = set.remove(pos);
                set.insert(0, hit);
            }
            return true;
        }
        if set.len() == self.ways {
            set.pop();
        }
        set.insert(0, line);
        false
    }

    pub(crate) fn contains(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        self.sets[(line & self.set_mask) as usize].contains(&line)
    }

    pub(crate) fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agave_trace::XorShift64;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 16 B lines = 128 B.
        SetAssocCache::new(CacheGeometry {
            sets: 4,
            ways: 2,
            line_bytes: 16,
        })
    }

    #[test]
    fn set_index_and_tag_split_at_line_boundaries() {
        let c = small();
        // Addresses inside one 16-byte line share line, set and tag.
        assert_eq!(c.line_of(0x20), c.line_of(0x2f));
        assert_eq!(c.set_of(0x20), c.set_of(0x2f));
        assert_eq!(c.tag_of(0x20), c.tag_of(0x2f));
        // The next byte starts a new line and the next set.
        assert_eq!(c.line_of(0x30), c.line_of(0x20) + 1);
        assert_eq!(c.set_of(0x30), (c.set_of(0x20) + 1) % 4);
        // Lines 4 sets apart map to the same set with different tags.
        let a = 0x20;
        let b = a + 4 * 16;
        assert_eq!(c.set_of(a), c.set_of(b));
        assert_ne!(c.tag_of(a), c.tag_of(b));
    }

    #[test]
    fn same_line_hits_after_compulsory_miss() {
        let mut c = small();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x10f)); // last byte of the same line
        assert!(!c.access(0x110)); // next line
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        let mut c = small();
        // Three lines mapping to the same set (stride = sets * line).
        let (a, b, d) = (0x000, 0x040, 0x080);
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // refresh a; LRU is now b
        assert!(!c.access(d)); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(!c.access(b)); // b was evicted -> miss, evicts a (LRU)
        assert!(!c.contains(a));
        assert!(c.contains(d));
    }

    #[test]
    fn tlb_reach_is_entries_times_page() {
        let mut t = SetAssocCache::tlb(TlbGeometry {
            entries: 4,
            page_bytes: 4096,
        });
        // Touch 4 distinct pages: all compulsory misses, then all hits.
        for p in 0..4u64 {
            assert!(!t.access(p * 4096));
        }
        for p in 0..4u64 {
            assert!(t.access(p * 4096));
        }
        assert_eq!(t.resident_lines(), 4);
        // A fifth page exceeds the reach and evicts the LRU (page 0).
        assert!(!t.access(4 * 4096));
        assert!(!t.contains(0));
        assert!(t.contains(4096));
    }

    #[test]
    fn flush_empties_the_cache() {
        let mut c = small();
        c.access(0);
        c.access(64);
        assert_eq!(c.resident_lines(), 2);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0));
    }

    #[test]
    fn direct_mapped_conflicts_without_lru() {
        let mut c = SetAssocCache::new(CacheGeometry {
            sets: 2,
            ways: 1,
            line_bytes: 16,
        });
        assert!(!c.access(0x00));
        assert!(!c.access(0x20)); // same set, conflict
        assert!(!c.access(0x00)); // ping-pong
    }

    /// The packed-LRU flat layout must be observationally identical to
    /// the naive recency-list oracle on random address streams: same
    /// hit/miss decision on every access, same residency throughout.
    #[test]
    fn packed_lru_matches_naive_oracle_on_random_streams() {
        let geometries = [
            // Direct-mapped, the degenerate no-LRU case.
            CacheGeometry {
                sets: 8,
                ways: 1,
                line_bytes: 16,
            },
            // The tiny test preset's L1 shape.
            CacheGeometry {
                sets: 32,
                ways: 2,
                line_bytes: 16,
            },
            // Cortex-A9 L1 shape.
            CacheGeometry {
                sets: 256,
                ways: 4,
                line_bytes: 32,
            },
            // Fully-associative, TLB-like: 1 set, 32 ways, 4 KiB lines.
            CacheGeometry {
                sets: 1,
                ways: 32,
                line_bytes: 4096,
            },
        ];
        for (gi, geometry) in geometries.into_iter().enumerate() {
            let mut packed = SetAssocCache::new(geometry);
            let mut naive = NaiveLruCache::new(geometry);
            let mut rng = XorShift64::new(0xA9A9_0000 + gi as u64);
            // A footprint a few times the capacity keeps hits and
            // evictions both frequent.
            let window = geometry.capacity_bytes() * 3;
            for step in 0..30_000u64 {
                // Occasionally jump to a far address to exercise tags.
                let addr = if rng.below(64) == 0 {
                    rng.next_u64() >> 8
                } else {
                    rng.below(window)
                };
                assert_eq!(
                    packed.access(addr),
                    naive.access(addr),
                    "geometry {gi}, step {step}, addr {addr:#x}: hit/miss diverged"
                );
                if step % 1024 == 0 {
                    assert_eq!(packed.resident_lines(), naive.resident_lines());
                    let probe = rng.below(window);
                    assert_eq!(packed.contains(probe), naive.contains(probe));
                }
            }
            assert_eq!(packed.resident_lines(), naive.resident_lines());
        }
    }
}
