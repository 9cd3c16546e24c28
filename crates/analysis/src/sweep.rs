//! Design-space sweeps: one trace decode fanned out to N cache
//! hierarchies — the Figure-5 sensitivity surface (miss rate vs. size ×
//! associativity × line size) without re-decoding, let alone
//! re-simulating, per cell.
//!
//! Every grid cell consumes the *same* decoded stream, and the model
//! is exact LRU, so [`FanoutSink`] decodes once and scans the L1s once
//! per L1 *shape* (line size × set count): one set of LRU stacks gives
//! every associativity's hit or miss (see `agave_cache`'s stack module
//! and DESIGN.md §15). Each cell keeps only its L2 and its counters.
//!
//! # Determinism
//!
//! Output is independent of `--jobs`: parallelism is *across shapes*,
//! never within one, and each shape sees the batches in stream order.
//! Results are merged in grid order (size-major, then associativity,
//! then line). Every cell's report is byte-identical to a standalone
//! `agave replay --cache <cell-name>` run: the cell's name round-trips
//! through [`HierarchyGeometry::by_name`], and the stack scan makes the
//! direct walk's hit and miss decisions. `tests/sweep_determinism.rs`
//! asserts all of this.

use agave_cache::{
    format_size, CacheReport, GeometryError, HierarchyGeometry, Level, SweepFront, SweepShape,
    MODEL_BUDGET_BYTES,
};
use agave_replay::TraceBuffer;
use agave_trace::json;
use agave_trace::par::{effective_jobs, parallel_for_each_mut};
use agave_trace::{NameDirectory, Reference, ReferenceSink};
use std::path::Path;

/// The axes of a sweep: every combination of L1 capacity ×
/// associativity × line size becomes one grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    /// L1 capacities in bytes (the `size=` axis).
    pub sizes: Vec<u64>,
    /// Associativities (the `assoc=` axis).
    pub assocs: Vec<u32>,
    /// Line sizes in bytes (the `line=` axis).
    pub lines: Vec<u32>,
}

impl GridSpec {
    /// Parses `size=16k,32k,64k:assoc=2,4,8:line=32,64` — three
    /// `:`-separated axes, each a comma list, each key exactly once.
    pub fn parse(grid: &str) -> Result<Self, String> {
        let mut sizes: Option<Vec<u64>> = None;
        let mut assocs: Option<Vec<u64>> = None;
        let mut lines: Option<Vec<u64>> = None;
        for axis in grid.split(':') {
            let (key, values) = axis
                .split_once('=')
                .ok_or_else(|| format!("expected key=v1,v2,..., got {axis:?}"))?;
            let slot = match key {
                "size" => &mut sizes,
                "assoc" => &mut assocs,
                "line" => &mut lines,
                other => {
                    return Err(format!(
                        "unknown grid axis {other:?} (want size, assoc, line)"
                    ))
                }
            };
            if slot.is_some() {
                return Err(format!("duplicate grid axis {key:?}"));
            }
            let parsed: Vec<u64> = values
                .split(',')
                .map(|v| agave_cache::parse_size(v).ok_or_else(|| format!("bad {key} value {v:?}")))
                .collect::<Result<_, _>>()?;
            if parsed.is_empty() {
                return Err(format!("empty {key} axis"));
            }
            *slot = Some(parsed);
        }
        let (Some(sizes), Some(assocs), Some(lines)) = (sizes, assocs, lines) else {
            return Err("grid needs all of size=, assoc=, line= axes".to_owned());
        };
        let narrow = |vs: Vec<u64>, what: &str| -> Result<Vec<u32>, String> {
            vs.into_iter()
                .map(|v| u32::try_from(v).map_err(|_| format!("{what} too large ({v})")))
                .collect()
        };
        Ok(GridSpec {
            sizes,
            assocs: narrow(assocs, "assoc")?,
            lines: narrow(lines, "line")?,
        })
    }

    /// Number of cells (`|size| × |assoc| × |line|`).
    pub fn len(&self) -> usize {
        self.sizes.len() * self.assocs.len() * self.lines.len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical spelling of the grid (sizes rendered `16k`-style).
    pub fn canonical(&self) -> String {
        let join_u64 = |vs: &[u64]| {
            vs.iter()
                .map(|&v| format_size(v))
                .collect::<Vec<_>>()
                .join(",")
        };
        let join_u32 = |vs: &[u32]| vs.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
        format!(
            "size={}:assoc={}:line={}",
            join_u64(&self.sizes),
            join_u32(&self.assocs),
            join_u32(&self.lines)
        )
    }

    /// Every cell's geometry in grid order (size-major, then
    /// associativity, then line). Fails on the first invalid
    /// combination, naming it, and once the cells together would model
    /// more than [`MODEL_BUDGET_BYTES`] — which also caps the cell count.
    pub fn cells(&self) -> Result<Vec<HierarchyGeometry>, String> {
        let mut out = Vec::new();
        let mut bytes = 0u64;
        for &size in &self.sizes {
            for &assoc in &self.assocs {
                for &line in &self.lines {
                    let cell = HierarchyGeometry::with_l1(size, assoc, line).map_err(|e| {
                        format!(
                            "cell size={},assoc={assoc},line={line}: {e}",
                            format_size(size)
                        )
                    })?;
                    bytes = bytes.saturating_add(cell.model_bytes());
                    if bytes > MODEL_BUDGET_BYTES {
                        let what = format!("grid {self} ({} cells)", self.len());
                        return Err(GeometryError::OverBudget { what, bytes }.to_string());
                    }
                    out.push(cell);
                }
            }
        }
        Ok(out)
    }
}

impl std::fmt::Display for GridSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// A [`ReferenceSink`] that feeds every decoded batch to N grid cells:
/// one walk per [`SweepFront`] (cells with equal line sizes and TLBs),
/// then one stack scan per [`SweepShape`] (a front's cells with equal
/// L1 set counts), the shapes sharded across up to `jobs` workers.
pub struct FanoutSink {
    fronts: Vec<SweepFront>,
    /// Every shape with the index of the front that feeds it.
    shapes: Vec<(usize, SweepShape)>,
    /// Grid cell `i` is cell `cell_at[i].1` of shape `cell_at[i].0`.
    cell_at: Vec<(usize, usize)>,
    jobs: usize,
    /// L2 probes already counted in `sweep.l2_probes`.
    l2_probes_seen: u64,
}

impl FanoutSink {
    /// A fan-out over fresh hierarchies of the given geometries.
    pub fn new(geometries: &[HierarchyGeometry], jobs: usize) -> Self {
        let mut fronts: Vec<SweepFront> = Vec::new();
        let mut groups: Vec<(usize, Vec<HierarchyGeometry>)> = Vec::new();
        let cell_at = geometries
            .iter()
            .map(|g| {
                let front = fronts.iter().position(|f| f.serves(g)).unwrap_or_else(|| {
                    fronts.push(SweepFront::new(*g));
                    fronts.len() - 1
                });
                let sets = |g: &HierarchyGeometry| (g.l1i.sets, g.l1d.sets);
                let same = |(f, cells): &(usize, Vec<_>)| *f == front && sets(&cells[0]) == sets(g);
                let shape = groups.iter().position(same).unwrap_or_else(|| {
                    groups.push((front, Vec::new()));
                    groups.len() - 1
                });
                groups[shape].1.push(*g);
                (shape, groups[shape].1.len() - 1)
            })
            .collect();
        FanoutSink {
            fronts,
            shapes: groups
                .iter()
                .map(|(f, cells)| (*f, SweepShape::new(cells)))
                .collect(),
            cell_at,
            jobs,
            l2_probes_seen: 0,
        }
    }

    /// Per-cell reports, in construction (grid) order.
    pub fn reports(&self, label: &str, directory: &NameDirectory) -> Vec<CacheReport> {
        self.cell_at
            .iter()
            .map(|&(shape, cell)| {
                let (front, shape) = &self.shapes[shape];
                shape.report(cell, &self.fronts[*front], label, directory)
            })
            .collect()
    }
}

impl ReferenceSink for FanoutSink {
    fn on_reference(&mut self, r: &Reference) {
        self.on_batch(std::slice::from_ref(r));
    }

    fn on_batch(&mut self, batch: &[Reference]) {
        parallel_for_each_mut(&mut self.fronts, self.jobs, |front| front.walk(batch));
        let fronts = &self.fronts;
        parallel_for_each_mut(&mut self.shapes, self.jobs, |(front, shape)| {
            shape.apply(&fronts[*front]);
        });
        if agave_telemetry::enabled() {
            use agave_telemetry::metrics::{counter, gauge};
            let stack_probes = self.shapes.iter().map(|(f, _)| fronts[*f].probes());
            let l2_probes: u64 = self.shapes.iter().map(|(_, s)| s.l2_probes()).sum();
            let seen = std::mem::replace(&mut self.l2_probes_seen, l2_probes);
            counter("sweep.batches").incr();
            gauge("sweep.shapes").set(self.shapes.len() as u64);
            counter("sweep.stack_probes").add(stack_probes.sum::<usize>() as u64);
            counter("sweep.l2_probes").add(l2_probes - seen);
        }
    }
}

/// One cell of a finished sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// L1 capacity in bytes.
    pub size: u64,
    /// L1 associativity.
    pub assoc: u32,
    /// L1 line size in bytes.
    pub line: u32,
    /// The cell's full report — byte-identical to a standalone
    /// `agave replay --cache <name>` of the same trace.
    pub report: CacheReport,
}

impl SweepCell {
    /// The cell's canonical geometry name
    /// (`size=16k,assoc=2,line=32`) — resolvable via
    /// [`HierarchyGeometry::by_name`].
    pub fn name(&self) -> &str {
        &self.report.preset
    }

    fn to_json(&self) -> String {
        let mut o = json::Object::new();
        o.field_str("name", self.name())
            .field_str("size", &format_size(self.size))
            .field_u64("assoc", u64::from(self.assoc))
            .field_u64("line", u64::from(self.line))
            .field_raw("report", &self.report.to_json());
        o.finish()
    }
}

/// A finished design-space sweep: one report per grid cell, plus the
/// per-region / per-process sensitivity the cells imply.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The recorded workload's label.
    pub label: String,
    /// Canonical grid spec.
    pub grid: String,
    /// Reference blocks replayed (once — shared by every cell).
    pub records: u64,
    /// Words those blocks span.
    pub words: u64,
    /// Cells in grid order.
    pub cells: Vec<SweepCell>,
}

/// How one row's L1 miss rate moves across the grid: its best and
/// worst cells.
struct Sensitivity<'a> {
    name: &'a str,
    min_rate: f64,
    min_cell: &'a str,
    max_rate: f64,
    max_cell: &'a str,
}

impl SweepReport {
    /// Combined L1 (I+D) miss rate of a report row named `name`, if the
    /// cell saw traffic for it.
    fn row_l1_rate(report: &CacheReport, processes: bool, name: &str) -> Option<f64> {
        let rows = if processes {
            &report.processes
        } else {
            &report.regions
        };
        let row = rows.iter().find(|r| r.name == name)?;
        let (i, d) = (row.level(Level::L1i), row.level(Level::L1d));
        let accesses = i.accesses() + d.accesses();
        if accesses == 0 {
            return None;
        }
        Some((i.misses + d.misses) as f64 / accesses as f64)
    }

    /// Min/max L1 miss rate across cells for the top `top` rows of the
    /// first cell (regions or processes).
    fn sensitivities(&self, processes: bool, top: usize) -> Vec<Sensitivity<'_>> {
        let Some(first) = self.cells.first() else {
            return Vec::new();
        };
        let rows = if processes {
            &first.report.processes
        } else {
            &first.report.regions
        };
        rows.iter()
            .take(top)
            .filter_map(|row| {
                let mut min: Option<(f64, &str)> = None;
                let mut max: Option<(f64, &str)> = None;
                for cell in &self.cells {
                    let rate = Self::row_l1_rate(&cell.report, processes, &row.name)?;
                    if min.is_none_or(|(m, _)| rate < m) {
                        min = Some((rate, cell.name()));
                    }
                    if max.is_none_or(|(m, _)| rate > m) {
                        max = Some((rate, cell.name()));
                    }
                }
                let (min, max) = (min?, max?);
                Some(Sensitivity {
                    name: &row.name,
                    min_rate: min.0,
                    min_cell: min.1,
                    max_rate: max.0,
                    max_cell: max.1,
                })
            })
            .collect()
    }

    /// The Fig-5-style text rendering: one row per cell, then the
    /// per-region and per-process L1 sensitivity tables.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Design-space sweep of {} — {} cells over {} ({} records, {} words decoded once)\n",
            self.label,
            self.cells.len(),
            self.grid,
            self.records,
            self.words
        );
        out.push_str(&format!(
            "{:>8} {:>6} {:>5} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            "size", "assoc", "line", "L1I%", "L1D%", "L2%", "ITLB%", "DTLB%"
        ));
        for cell in &self.cells {
            let pct = |level: Level| cell.report.total(level).miss_rate() * 100.0;
            out.push_str(&format!(
                "{:>8} {:>6} {:>5} {:>7.3}% {:>7.3}% {:>7.3}% {:>7.3}% {:>7.3}%\n",
                format_size(cell.size),
                cell.assoc,
                cell.line,
                pct(Level::L1i),
                pct(Level::L1d),
                pct(Level::L2),
                pct(Level::Itlb),
                pct(Level::Dtlb),
            ));
        }
        for (processes, title) in [(false, "region"), (true, "process")] {
            let rows = self.sensitivities(processes, 8);
            if rows.is_empty() {
                continue;
            }
            out.push_str(&format!("-- L1 miss-rate sensitivity by {title}:\n"));
            for s in rows {
                out.push_str(&format!(
                    "  {:<28} {:>7.3}% @ {:<28} {:>7.3}% @ {}\n",
                    s.name,
                    s.min_rate * 100.0,
                    s.min_cell,
                    s.max_rate * 100.0,
                    s.max_cell,
                ));
            }
        }
        out
    }

    /// Deterministic JSON: grid metadata plus every cell's full report
    /// (each `report` value byte-identical to that cell's standalone
    /// `agave replay --cache <name> --json` output).
    pub fn to_json(&self) -> String {
        let mut o = json::Object::new();
        o.field_str("label", &self.label)
            .field_str("grid", &self.grid)
            .field_u64("records", self.records)
            .field_u64("words", self.words)
            .field_raw(
                "cells",
                &json::array(self.cells.iter().map(SweepCell::to_json)),
            );
        o.finish()
    }
}

/// Runs the sweep: decodes the trace at `path` once and replays it
/// through one hierarchy per grid cell. `jobs` bounds both halves of
/// the pipeline — the chunk decode workers and the per-batch shape
/// fan-out (0 = one per CPU; output is identical for any `jobs`).
pub fn sweep_path(path: &Path, grid: &GridSpec, jobs: usize) -> Result<SweepReport, String> {
    let geometries = grid.cells()?;
    if geometries.is_empty() {
        return Err("empty grid".to_owned());
    }
    let mut span = agave_telemetry::Span::enter_labeled("trace sweep", &path.display().to_string());
    if agave_telemetry::enabled() {
        agave_telemetry::metrics::gauge("sweep.cells").set(geometries.len() as u64);
        agave_telemetry::metrics::gauge("sweep.jobs").set(effective_jobs(jobs) as u64);
    }
    let buf = TraceBuffer::open(path).map_err(|e| e.to_string())?;
    let fanout = std::rc::Rc::new(std::cell::RefCell::new(FanoutSink::new(&geometries, jobs)));
    let outcome = buf
        .replay(&[fanout.clone() as agave_trace::SharedSink], jobs)
        .map_err(|e| e.to_string())?;
    span.set_refs(outcome.words);
    let reports = fanout.borrow().reports(&outcome.label, &outcome.directory);
    let cells = geometries
        .iter()
        .zip(reports)
        .map(|(g, report)| SweepCell {
            size: g.l1i.capacity_bytes(),
            assoc: g.l1i.ways,
            line: g.l1i.line_bytes,
            report,
        })
        .collect();
    Ok(SweepReport {
        label: outcome.label,
        grid: grid.canonical(),
        records: outcome.records,
        words: outcome.words,
        cells,
    })
}

/// One cell of the grid replayed standalone — what `agave replay
/// --cache <cell>` computes; the sweep's per-cell byte-identity anchor.
pub fn sweep_cell_standalone(path: &Path, name: &str) -> Result<CacheReport, String> {
    let geometry = HierarchyGeometry::by_name(name).map_err(|e| e.to_string())?;
    crate::replay_cache(path, geometry, 1).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;

    #[test]
    fn grid_parses_and_canonicalizes() {
        let grid = GridSpec::parse("size=16k,32k:assoc=2,4:line=32,64").unwrap();
        assert_eq!(grid.sizes, vec![16 * 1024, 32 * 1024]);
        assert_eq!(grid.assocs, vec![2, 4]);
        assert_eq!(grid.lines, vec![32, 64]);
        assert_eq!(grid.len(), 8);
        assert_eq!(grid.canonical(), "size=16k,32k:assoc=2,4:line=32,64");
        // Non-canonical spellings canonicalize.
        let same = GridSpec::parse("line=32,64:size=16384,32768:assoc=2,4").unwrap();
        assert_eq!(same.canonical(), grid.canonical());
    }

    #[test]
    fn grid_rejects_malformed_specs() {
        for bad in [
            "size=16k:assoc=2",                  // missing axis
            "size=16k:assoc=2:line=32:size=32k", // duplicate axis
            "size=16k:assoc=2:line=32:zap=1",    // unknown axis
            "size=16q:assoc=2:line=32",          // bad number
            "size=:assoc=2:line=32",             // empty axis
            "sizes",                             // no key=value
        ] {
            assert!(GridSpec::parse(bad).is_err(), "{bad} should be rejected");
        }
        // Parse succeeds but the cell is geometrically invalid.
        let grid = GridSpec::parse("size=24k:assoc=2:line=32").unwrap();
        let err = grid.cells().unwrap_err();
        assert!(err.contains("size=24k,assoc=2,line=32"), "{err}");
        // Valid cells, but over the model budget: one huge cell, and many
        // small ones (each carries a cortex-a9 L2, so the cell count is
        // capped too). The benchmark and bench grids fit easily.
        let many = format!("size={}:assoc=1:line=32", ["8k"; 300].join(","));
        for over in ["size=4096m:assoc=1:line=4", many.as_str()] {
            let err = GridSpec::parse(over).unwrap().cells().unwrap_err();
            assert!(err.contains("MODEL_BUDGET_BYTES"), "{err}");
        }
        for ok in [
            "size=8k,64k:assoc=1,8:line=32,64",
            "size=32k:assoc=16:line=16,128",
        ] {
            assert!(GridSpec::parse(ok).unwrap().cells().is_ok(), "{ok}");
        }
    }

    #[test]
    fn cells_are_grid_ordered_and_named_canonically() {
        let grid = GridSpec::parse("size=16k,32k:assoc=2:line=32,64").unwrap();
        let names: Vec<&str> = grid.cells().unwrap().iter().map(|g| g.name).collect();
        assert_eq!(
            names,
            [
                "size=16k,assoc=2,line=32",
                "size=16k,assoc=2,line=64",
                "size=32k,assoc=2,line=32",
                "size=32k,assoc=2,line=64",
            ]
        );
    }

    /// The sweep against direct walks on a random batched stream: cells
    /// sharing a line size with different sets and ways (direct-mapped,
    /// fully associative, a private L2) report every counter and row
    /// exactly as a `MemoryHierarchy` does.
    #[test]
    fn stack_sweep_matches_direct_walk_for_shared_line_size() {
        use agave_cache::MemoryHierarchy;
        use agave_trace::{RefKind, Tracer, XorShift64};
        let cell = |sets, ways, l2_sets| {
            let mut g = HierarchyGeometry::tiny();
            (g.l1i.sets, g.l1i.ways, g.l2.sets) = (sets, ways, l2_sets);
            g.l1d = g.l1i;
            g
        };
        // Tiny, a direct-mapped and a private-L2 cell share one shape;
        // one cell is fully associative.
        let shapes = [
            (32, 2, 128),
            (32, 1, 128),
            (32, 8, 64),
            (1, 64, 128),
            (8, 4, 128),
        ];
        let cells = shapes.map(|(sets, ways, l2_sets)| cell(sets, ways, l2_sets));
        let mut t = Tracer::new();
        let pids = [t.register_process("p"), t.register_process("q")];
        let tid = t.register_thread(pids[0], "t");
        let regions = ["a", "b", "c"].map(|name| t.intern_region(name));
        let kinds = [RefKind::InstrFetch, RefKind::DataRead, RefKind::DataWrite];
        let mut rng = XorShift64::new(0xF00D);
        let stream: Vec<Reference> = (0..6000u64)
            .map(|i| {
                let kind = kinds[rng.below(3) as usize];
                let words = rng.below(40);
                // Same-line runs (memo path), multi-line blocks,
                // page-crossing jumps and blocks ending in the top line
                // of the address space; word-aligned like the simulator.
                let addr = match rng.below(64) {
                    0 => u64::MAX - 3 - 4 * words,
                    1..=8 => rng.next_u64() >> 20,
                    9..=32 => 0x1000 + rng.below(64),
                    _ => 0x4_0000 + rng.below(16 * 1024),
                } & !3;
                Reference {
                    pid: pids[(i / 7 % 2) as usize],
                    tid,
                    region: regions[(i / 3 % 3) as usize],
                    kind,
                    addr,
                    words,
                }
            })
            .collect();
        let mut sweep = FanoutSink::new(&cells, 3);
        let mut direct: Vec<_> = cells.iter().map(|&g| MemoryHierarchy::new(g)).collect();
        for batch in stream.chunks(256) {
            sweep.on_batch(batch);
            direct.iter_mut().for_each(|h| h.on_batch(batch));
        }
        let dir = t.name_directory();
        for (swept, h) in sweep.reports("x", &dir).iter().zip(&direct) {
            assert_eq!(*swept, h.report("x", &dir));
        }
    }

    /// Shapes shared by cells of different ways, direct-mapped cells,
    /// 16 ways, two line sizes and a fully-associative cell
    /// (`size=1k,assoc=16,line=64`).
    #[test]
    fn sweep_cells_match_standalone_replays_for_any_jobs() {
        let path = fixture::record("sweep-unit");
        let grid = GridSpec::parse("size=1k,4k:assoc=1,4,16:line=16,64").unwrap();
        let serial = sweep_path(&path, &grid, 1).unwrap();
        let parallel = sweep_path(&path, &grid, 3).unwrap();
        assert_eq!(serial, parallel, "sweep output must be jobs-independent");
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.cells.len(), 12);
        for cell in &serial.cells {
            let standalone = sweep_cell_standalone(&path, cell.name()).unwrap();
            assert_eq!(cell.report, standalone);
            assert_eq!(cell.report.to_json(), standalone.to_json());
            assert!(
                serial.to_json().contains(&standalone.to_json()),
                "sweep JSON must embed the standalone cell report verbatim"
            );
        }
        let text = serial.render();
        assert!(text.contains("Design-space sweep"), "{text}");
        assert!(text.contains("sensitivity by region"), "{text}");
        std::fs::remove_file(&path).ok();
    }
}
