//! Mattson stack-distance sweeps (DESIGN.md §15). Under exact LRU a
//! `w`-way set holds the `w` lines of the set touched most recently, so
//! one recency-ordered stack per set answers every associativity at
//! once: a probe hits a `w`-way cache iff its stack distance (the
//! line's 1-based depth before the touch) is at most `w`. A sweep walks
//! each batch once per line-size group ([`SweepFront`]) and scans it
//! once per L1 shape ([`SweepShape`]); a cell keeps only its L2 and its
//! own miss counts.

use crate::geometry::HierarchyGeometry;
use crate::hierarchy::{Level, NO_PAGE};
use crate::model::SetAssocCache;
use crate::report::{CacheReport, LevelStats};
use agave_trace::{NameDirectory, NameId, Pid, Reference};
use std::collections::HashMap;

/// Stack distance of a line not in its stack: a miss for every cell.
/// Real distances are at most the depth, itself at most the largest
/// `u32` power of two, so they never reach this value.
const BEYOND: u32 = u32::MAX;

/// Probes a shape scans before replaying them through its cells, so its
/// buffer stays bounded however many lines a batch spans.
const CHUNK: usize = 4096;

/// Per-set LRU stacks of one L1 side, most recent line first; empty
/// slots hold `u64::MAX`, which no line number reaches.
#[derive(Debug)]
struct LruStacks {
    lines: Vec<u64>,
    depth: usize,
    set_mask: u64,
}

impl LruStacks {
    fn new(sets: u32, depth: u32) -> Self {
        let (sets, depth) = (sets as usize, depth as usize);
        let set_mask = sets as u64 - 1;
        LruStacks {
            lines: vec![u64::MAX; sets * depth],
            depth,
            set_mask,
        }
    }

    /// Touches `line` and returns its stack distance before the touch.
    #[inline]
    fn touch(&mut self, line: u64) -> u32 {
        let base = (line & self.set_mask) as usize * self.depth;
        let stack = &mut self.lines[base..base + self.depth];
        if stack[0] == line {
            return 1;
        }
        // Push `line` on top, shifting lines down a slot until the one
        // that held `line` (or the bottom) absorbs the shift.
        let mut carry = line;
        for (distance, slot) in (1..).zip(stack.iter_mut()) {
            carry = std::mem::replace(slot, carry);
            if carry == line {
                return distance;
            }
        }
        BEYOND
    }
}

/// One L1 probe: line, L2 line of its first byte (what the direct walk
/// probes in L2 on an L1 miss), stat row, side (0 = instr, 1 = data).
type Probe = (u64, u64, u32, u8);

/// The walk a line-size group shares: line splitting, TLBs, the
/// same-line memo and stat rows, with the counters every cell of the
/// group shares — TLB counts, and every L1 word as a hit.
#[derive(Debug)]
pub struct SweepFront {
    geometry: HierarchyGeometry,
    tlbs: [SetAssocCache; 2],
    l1_shift: [u32; 2],
    l2_shift: u32,
    last_line: [Option<u64>; 2],
    last_page: [u64; 2],
    stats: HashMap<(Pid, NameId), usize>,
    last_stat: Option<(Pid, NameId, usize)>,
    rows: Vec<[LevelStats; 5]>,
    totals: [LevelStats; 5],
    /// The last walked batch's probes, in stream order.
    probes: Vec<Probe>,
}

impl SweepFront {
    /// A cold front for the geometries [`serves`](Self::serves) accepts.
    pub fn new(geometry: HierarchyGeometry) -> Self {
        geometry.validate();
        let shift = |c: crate::CacheGeometry| c.line_bytes.trailing_zeros();
        SweepFront {
            geometry,
            tlbs: [geometry.itlb, geometry.dtlb].map(SetAssocCache::tlb),
            l1_shift: [geometry.l1i, geometry.l1d].map(shift),
            l2_shift: shift(geometry.l2),
            last_line: [None; 2],
            last_page: [NO_PAGE; 2],
            stats: HashMap::new(),
            last_stat: None,
            rows: Vec::new(),
            totals: [LevelStats::default(); 5],
            probes: Vec::new(),
        }
    }

    /// Whether `geometry` walks the stream exactly like this front
    /// outside its L1 and L2: same line sizes and TLBs.
    pub fn serves(&self, geometry: &HierarchyGeometry) -> bool {
        let key = |g: &HierarchyGeometry| {
            let lines = [g.l1i, g.l1d, g.l2].map(|c| c.line_bytes);
            (lines, g.itlb, g.dtlb)
        };
        key(&self.geometry) == key(geometry)
    }

    /// L1 probes in the last walked batch.
    pub fn probes(&self) -> usize {
        self.probes.len()
    }

    /// Walks one batch: the decisions of `MemoryHierarchy::on_batch`,
    /// with each L1 probe recorded instead of performed. Must see every
    /// batch of the stream, in order, before its shapes do.
    pub fn walk(&mut self, batch: &[Reference]) {
        self.probes.clear();
        for r in batch.iter().filter(|r| r.words > 0) {
            let side = usize::from(!r.kind.is_instr());
            let row = match self.last_stat {
                Some((pid, region, row)) if (pid, region) == (r.pid, r.region) => row,
                _ => {
                    let next = self.stats.len();
                    let row = *self.stats.entry((r.pid, r.region)).or_insert(next);
                    if row == next {
                        self.rows.push([LevelStats::default(); 5]);
                    }
                    self.last_stat = Some((r.pid, r.region, row));
                    row
                }
            };
            let shift = self.l1_shift[side];
            let (first_line, last_line) = (r.addr >> shift, (r.addr + r.bytes() - 1) >> shift);
            let (mut tlb, mut words) = (LevelStats::default(), 0);
            if first_line == last_line && self.last_line[side] == Some(first_line) {
                // Memo path: the line tops its set's stack in every shape,
                // and touching a stack's top changes nothing — all hits.
                (tlb.hits, words) = (1, r.words);
            } else {
                let page_shift = self.tlbs[side].line_shift() - shift;
                let (mut addr, end) = (r.addr, r.addr + r.bytes());
                let mut line = first_line;
                while line <= last_line {
                    // One TLB lookup per page run, as in the direct walk.
                    let page = line >> page_shift;
                    let run_last = last_line.min(((page + 1) << page_shift) - 1);
                    if page == self.last_page[side] {
                        tlb.hits += run_last - line + 1;
                    } else {
                        tlb.record(self.tlbs[side].access_line(page));
                        tlb.hits += run_last - line;
                        self.last_page[side] = page;
                    }
                    for l in line..=run_last {
                        let line_end = (l + 1) << shift;
                        words += (end.min(line_end) - addr) >> 2;
                        self.probes
                            .push((l, addr >> self.l2_shift, row as u32, side as u8));
                        addr = line_end;
                    }
                    line = run_last + 1;
                }
                self.last_line[side] = Some(last_line);
            }
            for counts in [&mut self.rows[row], &mut self.totals] {
                counts[side].hits += words;
                counts[Level::Itlb.index() + side].absorb(tlb);
            }
        }
    }
}

/// One sweep cell's private state: its L2, and per stat row its own L1
/// misses and L2 counts.
#[derive(Debug)]
struct StackCell {
    geometry: HierarchyGeometry,
    /// L1 ways per side: a probe misses iff its distance exceeds them.
    ways: [u32; 2],
    l2: SetAssocCache,
    rows: Vec<[LevelStats; 5]>,
    totals: [LevelStats; 5],
}

/// A cell's counters: the front's shared ones with each own L1 miss
/// taking back one hit, plus its own L2.
fn merge(shared: &[LevelStats; 5], own: &[LevelStats; 5]) -> [LevelStats; 5] {
    let mut out = *shared;
    for side in [Level::L1i.index(), Level::L1d.index()] {
        out[side].hits -= own[side].misses;
        out[side].misses += own[side].misses;
    }
    out[Level::L2.index()] = own[Level::L2.index()];
    out
}

/// One L1 shape — a line-size group's cells with equal L1I and L1D set
/// counts: per-set LRU stacks as deep as its largest associativity, and
/// those cells.
#[derive(Debug)]
pub struct SweepShape {
    stacks: [LruStacks; 2],
    cells: Vec<StackCell>,
    /// Stack distances of the probe chunk in flight.
    distances: Vec<u32>,
}

impl SweepShape {
    /// A cold shape over `cells`, which must share one [`SweepFront`]
    /// and their L1 set counts.
    pub fn new(cells: &[HierarchyGeometry]) -> Self {
        let l1 = |g: &HierarchyGeometry| [g.l1i, g.l1d];
        let sets = l1(&cells[0]).map(|c| c.sets);
        debug_assert!(cells.iter().all(|g| l1(g).map(|c| c.sets) == sets));
        let depth = |side: usize| cells.iter().map(|g| l1(g)[side].ways).max();
        let cell = |&g: &HierarchyGeometry| StackCell {
            geometry: g,
            ways: l1(&g).map(|c| c.ways),
            l2: SetAssocCache::new(g.l2),
            rows: Vec::new(),
            totals: [LevelStats::default(); 5],
        };
        SweepShape {
            stacks: [0, 1].map(|side| LruStacks::new(sets[side], depth(side).unwrap_or(1))),
            cells: cells.iter().map(cell).collect(),
            distances: Vec::with_capacity(CHUNK),
        }
    }

    /// Scans `front`'s last walked batch, a bounded chunk at a time:
    /// each probe touches this shape's stacks once, then each cell
    /// charges the probes it misses and sends them to its L2 — in
    /// stream order, the one thing that must stay in order.
    pub fn apply(&mut self, front: &SweepFront) {
        let l2 = Level::L2.index();
        for cell in &mut self.cells {
            cell.rows
                .resize(front.rows.len(), [LevelStats::default(); 5]);
        }
        for chunk in front.probes.chunks(CHUNK) {
            let stacks = &mut self.stacks;
            let touch = |&(line, _, _, side): &Probe| stacks[usize::from(side)].touch(line);
            self.distances.clear();
            self.distances.extend(chunk.iter().map(touch));
            for cell in &mut self.cells {
                for (&(_, l2_line, row, side), &distance) in chunk.iter().zip(&self.distances) {
                    let side = usize::from(side);
                    if distance > cell.ways[side] {
                        let hit = cell.l2.access_line(l2_line);
                        for counts in [&mut cell.rows[row as usize], &mut cell.totals] {
                            counts[side].misses += 1;
                            counts[l2].record(hit);
                        }
                    }
                }
            }
        }
    }

    /// L2 probes so far, summed over the shape's cells.
    pub fn l2_probes(&self) -> u64 {
        let l2 = Level::L2.index();
        self.cells.iter().map(|c| c.totals[l2].accesses()).sum()
    }

    /// Cell `cell`'s report — equal to a `MemoryHierarchy` of its
    /// geometry fed the same stream. `front` must be this shape's.
    pub fn report(
        &self,
        cell: usize,
        front: &SweepFront,
        label: &str,
        dir: &NameDirectory,
    ) -> CacheReport {
        let cell = &self.cells[cell];
        let rows = front
            .stats
            .iter()
            .map(|(&pair, &row)| (pair, merge(&front.rows[row], &cell.rows[row])));
        let totals = merge(&front.totals, &cell.totals);
        CacheReport::from_rows(label, cell.geometry.name, dir, rows, totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CacheGeometry;
    use crate::model::NaiveLruCache;
    use agave_trace::XorShift64;

    /// On random address streams, stack distances give the hit or miss
    /// of an independent LRU cache of every ways up to the stack depth,
    /// access by access: fully associative, mid and many-set shapes.
    #[test]
    fn stack_distances_match_naive_lru_for_every_ways() {
        for (sets, line_bytes, depth) in [(1, 16, 16), (8, 32, 16), (64, 4, 4)] {
            let mut stacks = LruStacks::new(sets, depth);
            let mut oracles: Vec<NaiveLruCache> = (1..=depth)
                .map(|ways| {
                    NaiveLruCache::new(CacheGeometry {
                        sets,
                        ways,
                        line_bytes,
                    })
                })
                .collect();
            let window = u64::from(sets * depth * line_bytes) * 3;
            let mut rng = XorShift64::new(0x57AC + u64::from(sets));
            for step in 0..20_000 {
                let far = rng.below(64) == 0;
                let addr = if far {
                    rng.next_u64() >> 8
                } else {
                    rng.below(window)
                };
                let distance = stacks.touch(addr >> line_bytes.trailing_zeros());
                for (ways, oracle) in (1..).zip(&mut oracles) {
                    let hit = oracle.access(addr);
                    assert_eq!(
                        distance <= ways,
                        hit,
                        "{sets} sets, {ways} ways, step {step}"
                    );
                }
            }
        }
    }
}
