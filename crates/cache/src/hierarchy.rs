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
/// A per-side last-line memo short-circuits the common case of a block
/// that stays inside the previously touched cache line (the synthetic
/// 8/16 KiB window streams do this constantly): that line is by
/// construction the MRU line of its L1 set and its page the MRU TLB
/// entry, so the block is counted as pure hits without touching any set —
/// and since re-touching the MRU entry cannot change any LRU ordering,
/// the recency state stays *exactly* what the full walk would produce.
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
    /// Per-side ([instr, data]) L1 line last touched, for the memo path.
    last_line: [Option<u64>; 2],
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
            last_line: [None; 2],
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
        let mut l1_hits = 0u64;
        let mut l1_misses = 0u64;
        let mut l2_hits = 0u64;
        let mut l2_misses = 0u64;
        let shift = l1.line_shift();
        let first_line = r.addr >> shift;
        let last_line = (r.addr + r.bytes() - 1) >> shift;
        if first_line == last_line && self.last_line[side] == Some(first_line) {
            // Memo fast path: the block stays inside the line this side
            // touched last, which is resident and MRU (and its page MRU
            // in the TLB) — all hits, no set or recency state to update.
            tlb_hits = 1;
            l1_hits = r.words;
        } else {
            // Lines per page, as a shift: the TLB "line" is the page.
            let page_shift = tlb.line_shift() - shift;
            let mut last_page = self.last_page[side];
            let mut addr = r.addr;
            let end = r.addr + r.bytes();
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
                    let line_end = (line + 1) << shift;
                    let words_here = (end.min(line_end) - addr) >> 2;
                    if l1.access_line(line) {
                        l1_hits += words_here;
                    } else {
                        l1_misses += 1;
                        l1_hits += words_here - 1;
                        if self.l2.access(addr) {
                            l2_hits += 1;
                        } else {
                            l2_misses += 1;
                        }
                    }
                    addr = line_end;
                    line += 1;
                }
            }
            self.last_line[side] = Some(last_line);
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
    use agave_trace::{RefKind, SharedSink, Tracer};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn reference(tracer: &mut Tracer) -> (Pid, agave_trace::Tid, NameId) {
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
