//! The full memory hierarchy: a [`ReferenceSink`] that replays the
//! classified reference stream through split L1s, a unified L2 and
//! split TLBs, accounting hits and misses per (process, region, level).

use crate::geometry::HierarchyGeometry;
use crate::model::SetAssocCache;
use crate::report::{CacheReport, LevelStats};
use agave_trace::{NameDirectory, NameId, Pid, Reference, ReferenceSink};
use std::collections::HashMap;

/// Sentinel for "no page touched yet" — unreachable as a real page
/// number since pages are addresses shifted right by the page bits.
pub(crate) const NO_PAGE: u64 = u64::MAX;

/// Sentinel for "no block walked yet": no real block ends on line
/// `u64::MAX` (line numbers are addresses shifted right by ≥ 2 bits).
const NO_BLOCK: (u64, u64) = (u64::MAX, u64::MAX);

/// A level of the modeled hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// L1 instruction cache.
    L1i,
    /// L1 data cache.
    L1d,
    /// Unified second-level cache.
    L2,
    /// Instruction TLB.
    Itlb,
    /// Data TLB.
    Dtlb,
}

impl Level {
    /// All levels, in report order.
    pub const ALL: [Level; 5] = [Level::L1i, Level::L1d, Level::L2, Level::Itlb, Level::Dtlb];

    /// Compact dense index (0..5).
    pub fn index(self) -> usize {
        match self {
            Level::L1i => 0,
            Level::L1d => 1,
            Level::L2 => 2,
            Level::Itlb => 3,
            Level::Dtlb => 4,
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Level::L1i => "L1I",
            Level::L1d => "L1D",
            Level::L2 => "L2",
            Level::Itlb => "ITLB",
            Level::Dtlb => "DTLB",
        }
    }
}

/// The hierarchy simulator.
///
/// Accounting model, applied line by line within each reference block:
/// every word access goes to the appropriate L1; a missing line costs one
/// L1 miss (the remaining words of that line then hit) and one L2
/// access, which hits or misses in turn. Each line touched also costs
/// one TLB lookup on the matching side. This charges long sequential
/// runs realistically — one miss per line, not per word — while staying
/// exact for the LRU state.
///
/// A per-side *suffix memo* skips the model entirely for a block whose
/// line range `[first, last]` is a suffix of its side's last walked
/// block `[f, l]` (`last == l`, `first >= f`): exact repeats, tail
/// re-reads and same-line re-touches. The walk touched those lines (and
/// their pages) last, in order, so under exact LRU each set holds them
/// as its most recent lines in touch order, and re-touching them in the
/// same order restores that order. The block is all hits — L1 hits =
/// `words`, one TLB hit per line, no L2 traffic — and no recency state
/// moves. Two guards keep this exact: the suffix spans at most
/// `sets × ways` lines of its side's L1 (so no set got more lines than
/// it has ways) and at most that side's TLB-entry count of pages.
/// Addresses must be word-aligned (trace decode rejects anything else),
/// which is what makes `words` the exact hit count.
///
/// Register it on a tracer (via `Rc<RefCell<…>>`, see
/// [`agave_trace::SharedSink`]) and pull a [`CacheReport`] afterwards.
#[derive(Debug)]
pub struct MemoryHierarchy {
    geometry: HierarchyGeometry,
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    itlb: SetAssocCache,
    dtlb: SetAssocCache,
    /// Per-side ([instr, data]) line range `(first, last)` of the last
    /// walked block, for the suffix memo (`NO_BLOCK` when cold).
    last_block: [(u64, u64); 2],
    /// Per-side memo guards: L1 capacity in lines (`sets × ways`) and
    /// TLB entries.
    memo_max_lines: [u64; 2],
    memo_max_pages: [u64; 2],
    /// L1 lines the suffix memo skipped (the `cache.memo_lines` counter).
    memo_lines: u64,
    /// Per-side page last touched (`NO_PAGE` when cold): the MRU entry of
    /// that side's TLB, letting the walk skip the TLB model for runs of
    /// lines inside one page.
    last_page: [u64; 2],
    /// Row index into `stat_rows` per (process, region).
    stats: HashMap<(Pid, NameId), usize>,
    /// Flat hit/miss counters, one `[LevelStats; 5]` row per pair.
    stat_rows: Vec<[LevelStats; 5]>,
    /// One-entry cache over `stats` for runs of same-pair blocks.
    last_stat: Option<(Pid, NameId, usize)>,
    totals: [LevelStats; 5],
}

impl MemoryHierarchy {
    /// Creates a cold hierarchy with the given geometry.
    pub fn new(geometry: HierarchyGeometry) -> Self {
        geometry.validate();
        MemoryHierarchy {
            geometry,
            l1i: SetAssocCache::new(geometry.l1i),
            l1d: SetAssocCache::new(geometry.l1d),
            l2: SetAssocCache::new(geometry.l2),
            itlb: SetAssocCache::tlb(geometry.itlb),
            dtlb: SetAssocCache::tlb(geometry.dtlb),
            last_block: [NO_BLOCK; 2],
            memo_max_lines: [geometry.l1i, geometry.l1d]
                .map(|g| u64::from(g.sets) * u64::from(g.ways)),
            memo_max_pages: [geometry.itlb, geometry.dtlb].map(|t| u64::from(t.entries)),
            memo_lines: 0,
            last_page: [NO_PAGE; 2],
            stats: HashMap::new(),
            stat_rows: Vec::new(),
            last_stat: None,
            totals: [LevelStats::default(); 5],
        }
    }

    /// Resolves (allocating if new) the stats row for `(pid, region)`.
    fn stat_slot(&mut self, pid: Pid, region: NameId) -> usize {
        let next = self.stat_rows.len();
        let idx = *self.stats.entry((pid, region)).or_insert(next);
        if idx == next {
            self.stat_rows.push([LevelStats::default(); 5]);
        }
        self.last_stat = Some((pid, region, idx));
        idx
    }

    /// Suite-wide hit/miss totals for one level.
    pub fn totals(&self, level: Level) -> LevelStats {
        self.totals[level.index()]
    }

    /// Builds the post-run report, resolving ids through `dir` (see
    /// [`CacheReport`] for row aggregation and order).
    pub fn report(&self, benchmark: &str, dir: &NameDirectory) -> CacheReport {
        let rows = self
            .stats
            .iter()
            .map(|(&pair, &row)| (pair, self.stat_rows[row]));
        CacheReport::from_rows(benchmark, self.geometry.name, dir, rows, self.totals)
    }
}

impl ReferenceSink for MemoryHierarchy {
    fn on_reference(&mut self, r: &Reference) {
        if r.words == 0 {
            return;
        }
        let side = usize::from(!r.kind.is_instr());
        let (l1, tlb, tlb_level, l1_level) = if r.kind.is_instr() {
            (&mut self.l1i, &mut self.itlb, Level::Itlb, Level::L1i)
        } else {
            (&mut self.l1d, &mut self.dtlb, Level::Dtlb, Level::L1d)
        };
        // Scalar per-block deltas: a block touches at most three levels
        // (its side's TLB and L1, plus L2 on L1 misses), so six counters
        // beat zeroing and re-absorbing a full `[LevelStats; 5]`.
        let mut tlb_hits = 0u64;
        let mut tlb_misses = 0u64;
        let l1_hits;
        let mut l1_misses = 0u64;
        let mut l2_hits = 0u64;
        let mut l2_misses = 0u64;
        debug_assert!(
            r.addr.is_multiple_of(4),
            "block address {:#x} is not word-aligned",
            r.addr
        );
        let shift = l1.line_shift();
        let first_line = r.addr >> shift;
        let last_line = (r.addr + r.bytes() - 1) >> shift;
        // Lines per page, as a shift: the TLB "line" is the page.
        let page_shift = tlb.line_shift() - shift;
        let (memo_first, memo_last) = self.last_block[side];
        if last_line == memo_last
            && first_line >= memo_first
            && last_line - first_line < self.memo_max_lines[side]
            && (last_line >> page_shift) - (first_line >> page_shift) < self.memo_max_pages[side]
        {
            // Suffix memo (see the type docs): every line and page is
            // resident and re-touched in its current recency order, so
            // the block is all hits and no model state changes.
            tlb_hits = last_line - first_line + 1;
            l1_hits = r.words;
            self.memo_lines += tlb_hits;
        } else {
            let mut last_page = self.last_page[side];
            let mut addr = r.addr;
            let mut line = first_line;
            while line <= last_line {
                // One TLB resolution covers the whole run of lines inside
                // this page: after the first touch the page is the MRU TLB
                // entry (`last_page` memo), so every later line in the run
                // is a guaranteed hit that changes no LRU ordering — count
                // them in bulk instead of probing the model per line.
                let page = line >> page_shift;
                let run_last = last_line.min(((page + 1) << page_shift) - 1);
                if page == last_page {
                    tlb_hits += run_last - line + 1;
                } else {
                    if tlb.access_line(page) {
                        tlb_hits += 1;
                    } else {
                        tlb_misses += 1;
                    }
                    tlb_hits += run_last - line;
                    last_page = page;
                }
                while line <= run_last {
                    if !l1.access_line(line) {
                        l1_misses += 1;
                        if self.l2.access(addr) {
                            l2_hits += 1;
                        } else {
                            l2_misses += 1;
                        }
                    }
                    line += 1;
                    addr = line << shift;
                }
            }
            // A missing line costs its first word; every other word of
            // the word-aligned block hits.
            l1_hits = r.words - l1_misses;
            self.last_block[side] = (first_line, last_line);
            self.last_page[side] = last_page;
        }
        let row = match self.last_stat {
            Some((pid, region, idx)) if pid == r.pid && region == r.region => idx,
            _ => self.stat_slot(r.pid, r.region),
        };
        let entry = &mut self.stat_rows[row];
        let ti = tlb_level.index();
        let li = l1_level.index();
        entry[ti].hits += tlb_hits;
        entry[ti].misses += tlb_misses;
        entry[li].hits += l1_hits;
        entry[li].misses += l1_misses;
        self.totals[ti].hits += tlb_hits;
        self.totals[ti].misses += tlb_misses;
        self.totals[li].hits += l1_hits;
        self.totals[li].misses += l1_misses;
        if l1_misses > 0 {
            let l2 = Level::L2.index();
            entry[l2].hits += l2_hits;
            entry[l2].misses += l2_misses;
            self.totals[l2].hits += l2_hits;
            self.totals[l2].misses += l2_misses;
        }
    }

    fn on_batch(&mut self, batch: &[Reference]) {
        // One telemetry check per 1024-block batch; the per-reference
        // walk above stays untouched either way.
        if !agave_telemetry::enabled() {
            for r in batch {
                self.on_reference(r);
            }
            return;
        }
        use agave_telemetry::metrics::{Counter, Histogram};
        use std::sync::OnceLock;
        static WALK_NS: OnceLock<&'static Counter> = OnceLock::new();
        static WALK_BLOCKS: OnceLock<&'static Counter> = OnceLock::new();
        static BATCH_WALK_NS: OnceLock<&'static Histogram> = OnceLock::new();
        static BATCH_L1_MISSES: OnceLock<&'static Histogram> = OnceLock::new();
        static MEMO_LINES: OnceLock<&'static Counter> = OnceLock::new();
        let memo_before = self.memo_lines;
        let miss_before =
            self.totals[Level::L1i.index()].misses + self.totals[Level::L1d.index()].misses;
        let start = std::time::Instant::now();
        for r in batch {
            self.on_reference(r);
        }
        let ns = start.elapsed().as_nanos() as u64;
        let miss_after =
            self.totals[Level::L1i.index()].misses + self.totals[Level::L1d.index()].misses;
        WALK_NS
            .get_or_init(|| agave_telemetry::metrics::counter("cache.walk_ns"))
            .add(ns);
        WALK_BLOCKS
            .get_or_init(|| agave_telemetry::metrics::counter("cache.walk_blocks"))
            .add(batch.len() as u64);
        MEMO_LINES
            .get_or_init(|| agave_telemetry::metrics::counter("cache.memo_lines"))
            .add(self.memo_lines - memo_before);
        BATCH_WALK_NS
            .get_or_init(|| agave_telemetry::metrics::histogram("cache.batch_walk_ns"))
            .record(ns);
        BATCH_L1_MISSES
            .get_or_init(|| agave_telemetry::metrics::histogram("cache.batch_l1_misses"))
            .record(miss_after - miss_before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NaiveLruCache;
    use agave_trace::{RefKind, SharedSink, Tid, Tracer, XorShift64};
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    fn reference(tracer: &mut Tracer) -> (Pid, Tid, NameId) {
        let pid = tracer.register_process("p");
        let tid = tracer.register_thread(pid, "t");
        let region = tracer.intern_region("r");
        (pid, tid, region)
    }

    #[test]
    fn sequential_data_walk_misses_once_per_line() {
        let mut t = Tracer::new();
        let (pid, tid, region) = reference(&mut t);
        let sink = Rc::new(RefCell::new(
            MemoryHierarchy::new(HierarchyGeometry::tiny()),
        ));
        t.add_sink(sink.clone() as SharedSink);
        // 64 words = 256 bytes = 16 tiny (16 B) lines, cold cache.
        t.charge_at(pid, tid, region, RefKind::DataRead, 0x1000, 64);
        t.flush_sinks();
        let h = sink.borrow();
        let l1d = h.totals(Level::L1d);
        assert_eq!(l1d.misses, 16);
        assert_eq!(l1d.hits, 64 - 16);
        assert_eq!(h.totals(Level::L2).accesses(), 16);
        assert_eq!(h.totals(Level::L1i).accesses(), 0);
        // 256 bytes within one 4 KiB page: 16 TLB lookups, 1 miss.
        let dtlb = h.totals(Level::Dtlb);
        assert_eq!(dtlb.accesses(), 16);
        assert_eq!(dtlb.misses, 1);
    }

    #[test]
    fn repeated_walk_hits_after_warmup() {
        let mut t = Tracer::new();
        let (pid, tid, region) = reference(&mut t);
        let sink = Rc::new(RefCell::new(
            MemoryHierarchy::new(HierarchyGeometry::tiny()),
        ));
        t.add_sink(sink.clone() as SharedSink);
        // 256 bytes fits the 1 KiB tiny L1D; the second pass is all hits.
        for _ in 0..2 {
            t.charge_at(pid, tid, region, RefKind::DataRead, 0x1000, 64);
        }
        t.flush_sinks();
        let h = sink.borrow();
        assert_eq!(h.totals(Level::L1d).misses, 16); // first pass only
        assert_eq!(h.totals(Level::L1d).hits, 128 - 16);
    }

    #[test]
    fn instruction_and_data_sides_are_split() {
        let mut t = Tracer::new();
        let (pid, tid, region) = reference(&mut t);
        let sink = Rc::new(RefCell::new(
            MemoryHierarchy::new(HierarchyGeometry::tiny()),
        ));
        t.add_sink(sink.clone() as SharedSink);
        t.charge_at(pid, tid, region, RefKind::InstrFetch, 0x2000, 4);
        t.charge_at(pid, tid, region, RefKind::DataWrite, 0x2000, 4);
        t.flush_sinks();
        let h = sink.borrow();
        // Same address, but each side took its own compulsory miss.
        assert_eq!(h.totals(Level::L1i).misses, 1);
        assert_eq!(h.totals(Level::L1d).misses, 1);
        assert_eq!(h.totals(Level::Itlb).misses, 1);
        assert_eq!(h.totals(Level::Dtlb).misses, 1);
        // The unified L2 served the instruction miss, then hit for data.
        assert_eq!(h.totals(Level::L2).misses, 1);
        assert_eq!(h.totals(Level::L2).hits, 1);
    }

    #[test]
    fn determinism_same_stream_same_counts() {
        fn run() -> Vec<(Level, u64, u64)> {
            let mut t = Tracer::new();
            let pid = t.register_process("p");
            let tid = t.register_thread(pid, "t");
            let a = t.intern_region("a");
            let b = t.intern_region("b");
            let sink = Rc::new(RefCell::new(
                MemoryHierarchy::new(HierarchyGeometry::tiny()),
            ));
            t.add_sink(sink.clone() as SharedSink);
            for i in 0..50u64 {
                t.charge(pid, tid, a, RefKind::InstrFetch, 100 + i);
                t.charge(pid, tid, b, RefKind::DataRead, 37);
                t.charge_at(pid, tid, b, RefKind::DataWrite, 0x8000 + i * 24, 6);
            }
            t.flush_sinks();
            let h = sink.borrow();
            Level::ALL
                .iter()
                .map(|&l| (l, h.totals(l).hits, h.totals(l).misses))
                .collect()
        }
        assert_eq!(run(), run());
    }

    /// Memo-free reference walk for the oracle test: every line of every
    /// block probes its side's TLB and L1, and the L2 on an L1 miss, in
    /// recency-list models ([`NaiveLruCache`]), with words counted per
    /// line from byte offsets.
    struct OracleWalk {
        geometry: HierarchyGeometry,
        l1: [NaiveLruCache; 2],
        tlb: [NaiveLruCache; 2],
        l2: NaiveLruCache,
        rows: BTreeMap<(Pid, NameId), [LevelStats; 5]>,
        totals: [LevelStats; 5],
    }

    impl OracleWalk {
        fn new(geometry: HierarchyGeometry) -> Self {
            let tlb = |t: crate::TlbGeometry| {
                NaiveLruCache::new(crate::CacheGeometry {
                    sets: 1,
                    ways: t.entries,
                    line_bytes: t.page_bytes,
                })
            };
            OracleWalk {
                geometry,
                l1: [geometry.l1i, geometry.l1d].map(NaiveLruCache::new),
                tlb: [tlb(geometry.itlb), tlb(geometry.dtlb)],
                l2: NaiveLruCache::new(geometry.l2),
                rows: BTreeMap::new(),
                totals: [LevelStats::default(); 5],
            }
        }

        fn walk(&mut self, r: &Reference) {
            if r.words == 0 {
                return;
            }
            let side = usize::from(!r.kind.is_instr());
            let (l1_level, tlb_level) =
                [(Level::L1i, Level::Itlb), (Level::L1d, Level::Dtlb)][side];
            let line_bytes = u64::from([self.geometry.l1i, self.geometry.l1d][side].line_bytes);
            let mut delta = [LevelStats::default(); 5];
            let last_byte = r.addr + r.bytes() - 1;
            let mut addr = r.addr;
            loop {
                let segment_last = last_byte.min(addr | (line_bytes - 1));
                let words = (segment_last - addr) / 4 + 1;
                delta[tlb_level.index()].record(self.tlb[side].access(addr));
                let l1 = &mut delta[l1_level.index()];
                if self.l1[side].access(addr) {
                    l1.hits += words;
                } else {
                    l1.misses += 1;
                    l1.hits += words - 1;
                    delta[Level::L2.index()].record(self.l2.access(addr));
                }
                if segment_last == last_byte {
                    break;
                }
                addr = segment_last + 1;
            }
            let row = self.rows.entry((r.pid, r.region)).or_default();
            for level in Level::ALL {
                row[level.index()].absorb(delta[level.index()]);
                self.totals[level.index()].absorb(delta[level.index()]);
            }
        }
    }

    /// A block stream built to hit every memo case: exact repeats,
    /// proper suffixes and single-line re-touches of each side's last
    /// block (with the other side's blocks between them), repeats longer
    /// than the L1 or spanning more pages than the TLB holds, zero-word
    /// blocks, and blocks ending at the top of the address space.
    fn memo_stream(
        rng: &mut XorShift64,
        g: HierarchyGeometry,
        tid: Tid,
        ids: &[(Pid, NameId)],
    ) -> Vec<Reference> {
        let line = u64::from(g.l1d.line_bytes);
        let l1_lines = u64::from(g.l1d.sets) * u64::from(g.l1d.ways);
        let page = u64::from(g.dtlb.page_bytes);
        let pages = u64::from(g.dtlb.entries);
        let window = 4 * l1_lines * line;
        let mut last: [Option<Reference>; 2] = [None, None];
        let mut out = Vec::new();
        for _ in 0..3_000 {
            let side = rng.index(2);
            let (pid, region) = ids[rng.index(ids.len())];
            let kind = [RefKind::InstrFetch, RefKind::DataRead, RefKind::DataWrite]
                [side + rng.index(1 + side)];
            let fresh = |addr: u64, words: u64| Reference {
                pid,
                tid,
                region,
                kind,
                addr,
                words,
            };
            let roll = rng.below(100);
            let r = match last[side] {
                Some(prev) if roll < 20 => Reference {
                    pid,
                    region,
                    kind,
                    ..prev
                },
                Some(prev) if roll < 35 && prev.words > 0 => {
                    let skip = rng.below(prev.words);
                    fresh(prev.addr + 4 * skip, prev.words - skip)
                }
                Some(prev) if roll < 45 && prev.words > 0 => fresh(prev.addr + prev.bytes() - 4, 1),
                _ if roll < 50 => fresh(rng.below(window) & !3, 0),
                // Aligned, so the block spans exactly the chosen count:
                // the guard's limit, one past it, or more.
                _ if roll < 57 => {
                    let lines = l1_lines + [0, 1, rng.below(l1_lines)][rng.index(3)];
                    fresh(rng.below(window) & !(line - 1), lines * line / 4)
                }
                _ if roll < 61 => {
                    let span = (pages + [0, 1, rng.below(pages)][rng.index(3)]) * page;
                    fresh(rng.below(window) & !(page - 1), span / 4)
                }
                _ if roll < 62 => {
                    let words = 1 + rng.below(3 * line / 4);
                    fresh(u64::MAX - 3 - 4 * words, words)
                }
                _ => fresh(rng.below(window) & !3, 1 + rng.below(3 * line / 4)),
            };
            last[side] = Some(r);
            out.push(r);
        }
        out
    }

    /// The whole walk, memos included, must match the memo-free oracle
    /// level for level after every batch, and in the final report.
    #[test]
    fn walk_matches_memo_free_oracle_on_memo_heavy_streams() {
        // The last L1 outreaches its 32-entry, 4 KiB-page TLB, so only
        // the page guard stops the memo on long repeats.
        let names = [
            "tiny",
            "cortex-a9",
            "size=1k,assoc=1,line=16",
            "size=256k,assoc=4,line=32",
        ];
        for (gi, name) in names.into_iter().enumerate() {
            let g = HierarchyGeometry::by_name(name).unwrap();
            let mut t = Tracer::new();
            let pids = [t.register_process("p0"), t.register_process("p1")];
            let tid = t.register_thread(pids[0], "t");
            let regions = [
                t.intern_region("a"),
                t.intern_region("b"),
                t.intern_region("c"),
            ];
            let ids: Vec<(Pid, NameId)> = pids
                .iter()
                .flat_map(|&p| regions.iter().map(move |&r| (p, r)))
                .collect();
            let mut rng = XorShift64::new(0x5EED_0E1A + gi as u64);
            let stream = memo_stream(&mut rng, g, tid, &ids);
            let mut walk = MemoryHierarchy::new(g);
            let mut oracle = OracleWalk::new(g);
            let mut rest = &stream[..];
            while !rest.is_empty() {
                let (batch, tail) = rest.split_at(rest.len().min(1 + rng.index(64)));
                walk.on_batch(batch);
                batch.iter().for_each(|r| oracle.walk(r));
                for level in Level::ALL {
                    assert_eq!(
                        walk.totals(level),
                        oracle.totals[level.index()],
                        "{name}: {level:?} diverged after block {}",
                        stream.len() - tail.len()
                    );
                }
                rest = tail;
            }
            assert!(
                walk.memo_lines > 0,
                "{name}: the stream never took the memo"
            );
            let dir = t.name_directory();
            let rows = oracle.rows.iter().map(|(&pair, &row)| (pair, row));
            let expected = CacheReport::from_rows("oracle", g.name, &dir, rows, oracle.totals);
            assert_eq!(
                walk.report("oracle", &dir).to_json(),
                expected.to_json(),
                "{name}"
            );
        }
    }

    #[test]
    fn report_resolves_names_and_aggregates() {
        let mut t = Tracer::new();
        let pid = t.register_process("system_server");
        let tid = t.register_thread(pid, "main");
        let region = t.intern_region("libdvm.so");
        let sink = Rc::new(RefCell::new(
            MemoryHierarchy::new(HierarchyGeometry::tiny()),
        ));
        t.add_sink(sink.clone() as SharedSink);
        t.charge(pid, tid, region, RefKind::InstrFetch, 1000);
        t.flush_sinks();
        let dir = t.name_directory();
        let report = sink.borrow().report("demo", &dir);
        assert_eq!(report.benchmark, "demo");
        assert_eq!(report.preset, "tiny");
        assert_eq!(report.regions.len(), 1);
        assert_eq!(report.regions[0].name, "libdvm.so");
        assert_eq!(report.processes[0].name, "system_server");
        let l1i = report.regions[0].levels[Level::L1i.index()];
        assert_eq!(l1i.accesses(), 1000);
        assert!(l1i.misses > 0);
    }
}
