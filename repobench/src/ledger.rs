//! The traced run: a per-layer ledger of every workload's blocking path.
//!
//! Spans live in this file only. They wrap each call the benchmark
//! makes into a layer of the stack, are kept in memory, and are written
//! out when the run ends. Each workload's blocking path runs at one job
//! twice per repetition, once with spans off (its untraced wall time)
//! and once with spans on (the ledger's wall time); the difference is
//! `<workload>.trace_overhead_pct`. A layer whose work happens inside
//! one library call (simulate, deliver and encode inside `record`, or
//! read, decode and accumulate inside `analyze_path`) is timed by a
//! calibration call that does only that layer's work, outside the path.
//! `<workload>.unattributed_s` is the path's wall time minus its layer
//! times, so layers plus residue equal the wall time by construction;
//! the residue goes negative when a layer's standalone cost exceeds
//! what the path pays for it (the sweep shares work across cells).
//!
//! Every traced run prints every per-layer metric, so the ledger
//! always covers all four workloads; `--workload` only names the run.

use crate::plan::{Plan, Request, REPLAY_SPECS, SERVE_BLOCKS, WORKLOADS};
use crate::serve;
use crate::setup::{sweep_grid, Corpus, Goldens, Tally};
use crate::stats::{median, quantile, supported_quantile};
use crate::workloads::{replay_op, timed};
use agave_analysis::SketchSink;
use agave_cache::{HierarchyGeometry, Level, MemoryHierarchy};
use agave_core::engine::{self, EngineConfig};
use agave_core::record::{record_suite, record_workload};
use agave_core::GridSpec;
use agave_replay::{TraceBuffer, TraceWriter};
use agave_serve::{Client, RecentFilter, StatsFormat, StatsSample};
use agave_trace::{Reference, ReferenceSink, SharedSink};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// The end-to-end metrics every untraced run prints: (name, unit,
/// better).
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("refs_per_s", "refs/s", "higher"),
    ("ops_per_s", "1/s", "higher"),
];

/// One per-layer metric, with the end-to-end metric it should move and
/// the workload on which it should move it.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The end-to-end metric this layer metric feeds.
    pub moves: &'static str,
    /// The workload whose end-to-end metric it feeds.
    pub workload: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    workload: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        workload,
    }
}

/// Every per-layer metric a traced run prints.
#[rustfmt::skip]
pub const LAYER_METRICS: &[LayerMetric] = &[
    // engine
    m("engine.run_s", "s", "lower", "refs_per_s", "suite_record"),
    m("engine.max_workload_s", "s", "lower", "refs_per_s", "suite_record"),
    m("engine.suite_speedup", "x", "higher", "refs_per_s", "suite_record"),
    m("engine.refs", "count", "higher", "refs_per_s", "suite_record"),
    // trace
    m("trace.deliver_s", "s", "lower", "refs_per_s", "suite_record"),
    // replay
    m("replay.encode_s", "s", "lower", "refs_per_s", "suite_record"),
    m("replay.bytes_per_record", "B", "lower", "refs_per_s", "corpus_replay"),
    m("replay.read_s", "s", "lower", "refs_per_s", "corpus_replay"),
    m("replay.decode_s", "s", "lower", "refs_per_s", "corpus_replay"),
    m("replay.accumulate_s", "s", "lower", "refs_per_s", "corpus_replay"),
    m("replay.validate_s", "s", "lower", "ops_per_s", "serve_mixed"),
    m("replay.decode_speedup", "x", "higher", "refs_per_s", "corpus_replay"),
    // cache
    m("cache.walk_s", "s", "lower", "refs_per_s", "corpus_replay"),
    m("cache.l1i_misses", "count", "lower", "refs_per_s", "corpus_replay"),
    m("cache.l1d_misses", "count", "lower", "refs_per_s", "corpus_replay"),
    m("cache.l2_misses", "count", "lower", "refs_per_s", "corpus_replay"),
    // analysis
    m("analysis.sketch_s", "s", "lower", "refs_per_s", "corpus_replay"),
    m("analysis.sweep_s", "s", "lower", "refs_per_s", "cache_sweep"),
    m("analysis.sweep_decode_s", "s", "lower", "refs_per_s", "cache_sweep"),
    m("analysis.sweep_cell_walk_s", "s", "lower", "refs_per_s", "cache_sweep"),
    m("analysis.sweep_vs_sequential", "x", "higher", "refs_per_s", "cache_sweep"),
    m("analysis.sweep_cells_per_l1_shape", "count", "higher", "refs_per_s", "cache_sweep"),
    m("analysis.sweep_l2_probes", "count", "lower", "refs_per_s", "cache_sweep"),
    // serve
    m("serve.queue_wait_mean_ms", "ms", "lower", "ops_per_s", "serve_mixed"),
    m("serve.handle_analyze_mean_ms", "ms", "lower", "ops_per_s", "serve_mixed"),
    m("serve.handle_upload_mean_ms", "ms", "lower", "ops_per_s", "serve_mixed"),
    m("serve.wire_analyze_mean_ms", "ms", "lower", "ops_per_s", "serve_mixed"),
    m("serve.wire_upload_mean_ms", "ms", "lower", "ops_per_s", "serve_mixed"),
    m("serve.analyze_direct_s", "s", "lower", "ops_per_s", "serve_mixed"),
    // Attempts per request is 1 + retries per request: retries alone are
    // usually 0, and a metric that reads 0 has no relative spread.
    m("serve.attempts_per_request", "ratio", "lower", "ops_per_s", "serve_mixed"),
    m("serve.useful_ratio", "ratio", "higher", "ops_per_s", "serve_mixed"),
    m("serve.spool_bytes", "B", "lower", "ops_per_s", "serve_mixed"),
    // per-phase rates and latencies of each workload's entry points
    m("suite_record.simulate_refs_per_s", "refs/s", "higher", "refs_per_s", "suite_record"),
    m("suite_record.record_refs_per_s", "refs/s", "higher", "refs_per_s", "suite_record"),
    m("corpus_replay.replay_summary_refs_per_s", "refs/s", "higher", "refs_per_s", "corpus_replay"),
    m("corpus_replay.replay_cache_refs_per_s", "refs/s", "higher", "refs_per_s", "corpus_replay"),
    m("corpus_replay.replay_sketch_refs_per_s", "refs/s", "higher", "refs_per_s", "corpus_replay"),
    m("cache_sweep.sweep_cell_refs_per_s", "refs/s", "higher", "refs_per_s", "cache_sweep"),
    m("serve_mixed.serve_req_per_s", "1/s", "higher", "ops_per_s", "serve_mixed"),
    m("serve_mixed.analyze_p50_ms", "ms", "lower", "ops_per_s", "serve_mixed"),
    m("serve_mixed.analyze_p99_ms", "ms", "lower", "ops_per_s", "serve_mixed"),
    m("serve_mixed.upload_p50_ms", "ms", "lower", "ops_per_s", "serve_mixed"),
    m("serve_mixed.analyze_samples", "count", "higher", "ops_per_s", "serve_mixed"),
    m("serve_mixed.upload_samples", "count", "higher", "ops_per_s", "serve_mixed"),
    // per-workload ledger closure
    m("suite_record.wall_s", "s", "lower", "refs_per_s", "suite_record"),
    m("suite_record.unattributed_s", "s", "lower", "refs_per_s", "suite_record"),
    m("suite_record.trace_overhead_pct", "%", "lower", "refs_per_s", "suite_record"),
    m("corpus_replay.wall_s", "s", "lower", "refs_per_s", "corpus_replay"),
    m("corpus_replay.unattributed_s", "s", "lower", "refs_per_s", "corpus_replay"),
    m("corpus_replay.trace_overhead_pct", "%", "lower", "refs_per_s", "corpus_replay"),
    m("cache_sweep.wall_s", "s", "lower", "refs_per_s", "cache_sweep"),
    m("cache_sweep.unattributed_s", "s", "lower", "refs_per_s", "cache_sweep"),
    m("cache_sweep.trace_overhead_pct", "%", "lower", "refs_per_s", "cache_sweep"),
    m("serve_mixed.wall_s", "s", "lower", "ops_per_s", "serve_mixed"),
    m("serve_mixed.unattributed_s", "s", "lower", "ops_per_s", "serve_mixed"),
    m("serve_mixed.trace_overhead_pct", "%", "lower", "ops_per_s", "serve_mixed"),
];

/// Metrics that count work: they must repeat exactly across runs, so a
/// speed-only change that moves one has changed the model.
pub const EXACT_COUNTS: [&str; 5] = [
    "engine.refs",
    "cache.l1i_misses",
    "cache.l1d_misses",
    "cache.l2_misses",
    "analysis.sweep_l2_probes",
];

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer call (or `cal.*` calibration call, or a workload root).
    pub name: &'static str,
    /// What it ran on.
    pub label: String,
    /// Start, seconds since the ledger began.
    pub start: f64,
    /// End, seconds since the ledger began.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// An in-memory span recorder; inert when off.
pub struct Spans {
    on: bool,
    origin: Instant,
    records: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `on == false` records nothing and reads no clock.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            records: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.records.len();
        self.records.push(SpanRecord {
            name,
            label: label.to_owned(),
            start: self.origin.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.records[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.records
            .iter()
            .filter(move |r| r.name == name)
            .map(|r| r.end - r.start)
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).sum()
    }

    /// Longest span named `name`.
    pub fn longest(&self, name: &str) -> f64 {
        self.durations(name).fold(0.0, f64::max)
    }

    /// Each span's duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.records.len()];
        for r in &self.records {
            if let Some(p) = r.parent {
                child[p] += r.end - r.start;
            }
        }
        self.records
            .iter()
            .zip(child)
            .map(|(r, c)| r.end - r.start - c)
            .collect()
    }

    /// Appends this recorder's spans to `log`, one JSON object a line.
    pub fn write_to(&self, rep: usize, log: &mut String) {
        for (r, self_s) in self.records.iter().zip(self.self_times()) {
            let parent = r.parent.map_or("null".to_owned(), |p| p.to_string());
            log.push_str(&format!(
                "{{\"rep\":{rep},\"name\":\"{}\",\"label\":\"{}\",\"start_s\":{},\"end_s\":{},\"self_s\":{},\"parent\":{parent}}}\n",
                r.name, r.label, r.start, r.end, self_s
            ));
        }
    }
}

/// A sink that drops everything: what delivery and decode cost alone.
struct Noop;

impl ReferenceSink for Noop {
    fn on_reference(&mut self, _: &Reference) {}
    fn on_batch(&mut self, _: &[Reference]) {}
}

/// A sink that keeps every batch as delivered.
#[derive(Default)]
struct Collect(Vec<Vec<Reference>>);

impl ReferenceSink for Collect {
    fn on_reference(&mut self, r: &Reference) {
        self.0.push(vec![*r]);
    }
    fn on_batch(&mut self, batch: &[Reference]) {
        self.0.push(batch.to_vec());
    }
}

fn noop() -> SharedSink {
    Rc::new(RefCell::new(Noop))
}

/// Decoded batches of the trace at `path`, as replay delivers them.
fn decoded(path: &Path) -> Result<Vec<Vec<Reference>>, String> {
    let buf = TraceBuffer::open(path).map_err(|e| e.to_string())?;
    let sink = Rc::new(RefCell::new(Collect::default()));
    buf.replay(&[sink.clone() as SharedSink], 1)
        .map_err(|e| e.to_string())?;
    let batches = std::mem::take(&mut sink.borrow_mut().0);
    Ok(batches)
}

/// Feeds `batches` to a fresh hierarchy of `geometry`.
fn walk(geometry: HierarchyGeometry, batches: &[Vec<Reference>]) -> MemoryHierarchy {
    let mut hierarchy = MemoryHierarchy::new(geometry);
    for b in batches {
        hierarchy.on_batch(b);
    }
    hierarchy
}

/// Distinct (line size, set count) L1 shapes among the grid's cells.
pub fn l1_shapes(grid: &GridSpec) -> usize {
    let cells = grid.cells().expect("the benchmark grid has valid cells");
    let shapes: BTreeSet<(u32, u32, u32, u32)> = cells
        .iter()
        .map(|g| (g.l1i.line_bytes, g.l1i.sets, g.l1d.line_bytes, g.l1d.sets))
        .collect();
    shapes.len()
}

/// Everything the ledger runs on.
struct Inputs<'a> {
    corpus: &'a Corpus,
    goldens: &'a Goldens,
    plans: BTreeMap<&'static str, Plan>,
    jobs: usize,
    work: &'a Path,
}

type Metrics = BTreeMap<&'static str, f64>;

/// `suite_record`'s blocking path: every workload simulated, then
/// recorded, one at a time.
fn suite_record_path(sp: &mut Spans, x: &Inputs, tally: &mut Tally) -> u64 {
    let config = EngineConfig::reference();
    let order = &x.plans["suite_record"].order;
    let out_dir = x.work.join("ledger-record");
    std::fs::create_dir_all(&out_dir).ok();
    let mut refs = 0;
    sp.span("suite_record", "", |sp| {
        for &i in order {
            let w = x.corpus.workloads[i];
            let outcome = sp.span("engine.run", w.label(), |_| engine::run(w, &config));
            refs += outcome.summary.total_refs();
            tally.check(outcome.summary.to_json() == x.goldens.live_summary[i]);
        }
        for &i in order {
            let w = x.corpus.workloads[i];
            let path = agave_core::trace_path(&out_dir, w);
            let stats = sp.span("record", w.label(), |_| record_workload(w, &config, &path));
            tally.check(
                stats.is_ok()
                    && std::fs::read(&path).ok().as_ref() == Some(&x.goldens.trace_bytes[i]),
            );
        }
    });
    refs
}

fn suite_record(x: &Inputs, tally: &mut Tally, log: &mut Spans) -> Result<Metrics, String> {
    let config = EngineConfig::reference();
    let (_, untraced) = timed(|| suite_record_path(&mut Spans::new(false), x, tally));
    let sp = log;
    let start = sp.records.len();
    let refs = suite_record_path(sp, x, tally);
    let wall = sp.records[start].end - sp.records[start].start;
    let run_s = sp.total("engine.run");
    let max_workload_s = sp.longest("engine.run");
    for &i in &x.plans["suite_record"].order {
        let w = x.corpus.workloads[i];
        sp.span("cal.deliver", w.label(), |_| {
            engine::run_observed(w, &config, vec![noop()])
        });
        let collect = Rc::new(RefCell::new(Collect::default()));
        let (outcome, baseline) =
            engine::run_traced(w, &config, vec![collect.clone() as SharedSink]);
        let batches = std::mem::take(&mut collect.borrow_mut().0);
        let bytes = sp.span("cal.encode", w.label(), |_| {
            let mut writer = TraceWriter::new(Vec::new(), w.label()).map_err(|e| e.to_string())?;
            for r in batches.iter().flatten() {
                writer.append(r);
            }
            writer
                .finish(&outcome.directory, &baseline)
                .map_err(|e| e.to_string())?;
            Ok::<_, String>(writer.into_output())
        })?;
        tally.check(bytes == x.goldens.trace_bytes[i]);
    }
    let deliver_s = sp.total("cal.deliver") - run_s;
    let encode_s = sp.total("cal.encode");
    let all = &x.corpus.workloads;
    let serial = sp.span("cal.suite_jobs1", "", |_| {
        timed(|| engine::run_suite_parallel(all, &config, 1)).1
    });
    let parallel = sp.span("cal.suite_jobsN", "", |_| {
        timed(|| engine::run_suite_parallel(all, &config, x.jobs)).1
    });
    let record_dir = x.work.join("ledger-record-all");
    let (rows, record_s) = sp.span("cal.record_jobsN", "", |_| {
        timed(|| {
            record_suite(
                all,
                &config,
                &record_dir,
                x.jobs,
                agave_replay::format::CHUNK_RECORDS,
            )
        })
    });
    tally.check(rows.is_ok_and(|rows| rows.iter().all(|(_, r)| r.is_ok())));
    let words = x.corpus.total_words() as f64;
    let records: u64 = x.corpus.stats.iter().map(|s| s.records).sum();
    let bytes: u64 = x.corpus.stats.iter().map(|s| s.file_bytes).sum();
    Ok(BTreeMap::from([
        ("engine.run_s", run_s),
        ("engine.max_workload_s", max_workload_s),
        ("engine.suite_speedup", serial / parallel),
        ("engine.refs", refs as f64),
        ("trace.deliver_s", deliver_s),
        ("replay.encode_s", encode_s),
        ("replay.bytes_per_record", bytes as f64 / records as f64),
        ("suite_record.simulate_refs_per_s", words / parallel),
        ("suite_record.record_refs_per_s", words / record_s),
        ("suite_record.wall_s", wall),
        // The record half simulates again, so the engine is paid twice.
        (
            "suite_record.unattributed_s",
            wall - (2.0 * run_s + deliver_s + encode_s),
        ),
        (
            "suite_record.trace_overhead_pct",
            (wall - untraced) / untraced * 100.0,
        ),
    ]))
}

const ANALYZE_SPANS: [&str; 3] = ["analyze.summary", "analyze.cache", "analyze.sketch"];

/// `corpus_replay`'s blocking path: every trace through every analysis.
fn corpus_replay_path(sp: &mut Spans, x: &Inputs, tally: &mut Tally) {
    sp.span("corpus_replay", "", |sp| {
        for &i in &x.plans["corpus_replay"].order {
            let path = &x.corpus.paths[i];
            for (s, spec) in REPLAY_SPECS.iter().enumerate() {
                let golden = &x.goldens.analysis[i][s];
                sp.span(ANALYZE_SPANS[s], x.corpus.workloads[i].label(), |_| {
                    replay_op(path, spec, golden, tally)
                });
            }
        }
    });
}

fn corpus_replay(x: &Inputs, tally: &mut Tally, log: &mut Spans) -> Result<Metrics, String> {
    let (_, untraced) = timed(|| corpus_replay_path(&mut Spans::new(false), x, tally));
    let sp = log;
    let start = sp.records.len();
    corpus_replay_path(sp, x, tally);
    let wall = sp.records[start].end - sp.records[start].start;
    let mut misses = [0u64; 3];
    let mut largest = (0, 0);
    for &i in &x.plans["corpus_replay"].order {
        let path = &x.corpus.paths[i];
        let label = x.corpus.workloads[i].label();
        let buf = sp
            .span("cal.read", label, |_| TraceBuffer::open(path))
            .map_err(|e| e.to_string())?;
        sp.span("cal.decode", label, |_| buf.replay(&[noop()], 1))
            .map_err(|e| e.to_string())?;
        tally.check(sp.span("cal.validate", label, |_| buf.validate(1)).is_ok());
        let batches = decoded(path)?;
        let hierarchy = sp.span("cal.walk", label, |_| {
            walk(HierarchyGeometry::cortex_a9(), &batches)
        });
        for (k, level) in [Level::L1i, Level::L1d, Level::L2].into_iter().enumerate() {
            misses[k] += hierarchy.totals(level).misses;
        }
        sp.span("cal.sketch", label, |_| {
            let mut sketch = SketchSink::new(SketchSink::DEFAULT_CAPACITY);
            for b in &batches {
                sketch.on_batch(b);
            }
            sketch
        });
        if x.corpus.stats[i].file_bytes > largest.1 {
            largest = (i, x.corpus.stats[i].file_bytes);
        }
    }
    let read_s = sp.total("cal.read");
    let decode_s = sp.total("cal.decode");
    let buf = TraceBuffer::open(&x.corpus.paths[largest.0]).map_err(|e| e.to_string())?;
    let serial = sp.span("cal.decode_jobs1", "", |_| {
        timed(|| buf.replay(&[noop()], 1)).1
    });
    let parallel = sp.span("cal.decode_jobsN", "", |_| {
        timed(|| buf.replay(&[noop()], x.jobs)).1
    });
    let summary_s = sp.total("analyze.summary");
    let accumulate_s = summary_s - read_s - decode_s;
    let walk_s = sp.total("cal.walk");
    let sketch_s = sp.total("cal.sketch");
    let words = x.corpus.total_words() as f64;
    let n = REPLAY_SPECS.len() as f64;
    Ok(BTreeMap::from([
        ("replay.read_s", read_s),
        ("replay.decode_s", decode_s),
        ("replay.accumulate_s", accumulate_s),
        ("replay.validate_s", sp.total("cal.validate")),
        ("replay.decode_speedup", serial / parallel),
        ("cache.walk_s", walk_s),
        ("cache.l1i_misses", misses[0] as f64),
        ("cache.l1d_misses", misses[1] as f64),
        ("cache.l2_misses", misses[2] as f64),
        ("analysis.sketch_s", sketch_s),
        ("corpus_replay.replay_summary_refs_per_s", words / summary_s),
        (
            "corpus_replay.replay_cache_refs_per_s",
            words / sp.total("analyze.cache"),
        ),
        (
            "corpus_replay.replay_sketch_refs_per_s",
            words / sp.total("analyze.sketch"),
        ),
        ("corpus_replay.wall_s", wall),
        // Each of the three analyses opens and decodes the trace again.
        (
            "corpus_replay.unattributed_s",
            wall - (n * read_s + n * decode_s + accumulate_s + walk_s + sketch_s),
        ),
        (
            "corpus_replay.trace_overhead_pct",
            (wall - untraced) / untraced * 100.0,
        ),
    ]))
}

/// `cache_sweep`'s blocking path: every subset trace swept at one job.
fn cache_sweep_path(sp: &mut Spans, x: &Inputs, tally: &mut Tally) {
    let (grid, cells) = sweep_grid();
    sp.span("cache_sweep", "", |sp| {
        for &i in &x.plans["cache_sweep"].order {
            let path = &x.corpus.paths[i];
            let report = sp.span("sweep", x.corpus.workloads[i].label(), |_| {
                agave_core::sweep_path(path, &grid, 1)
            });
            let golden = &x.goldens.sweep_cells[i];
            tally.check(report.is_ok_and(|r| {
                r.cells.len() == cells.len()
                    && r.cells
                        .iter()
                        .zip(golden)
                        .all(|(c, g)| c.report.to_json() == *g)
            }));
        }
    });
}

fn cache_sweep(x: &Inputs, tally: &mut Tally, log: &mut Spans) -> Result<Metrics, String> {
    let (grid, _) = sweep_grid();
    let geometries = grid.cells()?;
    let (_, untraced) = timed(|| cache_sweep_path(&mut Spans::new(false), x, tally));
    let sp = log;
    let start = sp.records.len();
    cache_sweep_path(sp, x, tally);
    let wall = sp.records[start].end - sp.records[start].start;
    let sweep_s = sp.total("sweep");
    let mut probes = 0u64;
    let mut cell_records = 0u64;
    for &i in &x.plans["cache_sweep"].order {
        let path = &x.corpus.paths[i];
        let label = x.corpus.workloads[i].label();
        sp.span("cal.sweep_decode", label, |_| {
            TraceBuffer::open(path).and_then(|buf| buf.replay(&[noop()], 1))
        })
        .map_err(|e| e.to_string())?;
        let batches = decoded(path)?;
        for &g in &geometries {
            let hierarchy = sp.span("cal.cell_walk", g.name, |_| walk(g, &batches));
            probes += hierarchy.totals(Level::L1i).misses + hierarchy.totals(Level::L1d).misses;
        }
        cell_records += x.corpus.stats[i].records * geometries.len() as u64;
    }
    let sweep_decode_s = sp.total("cal.sweep_decode");
    let cell_walk_s = sp.total("cal.cell_walk");
    Ok(BTreeMap::from([
        ("analysis.sweep_s", sweep_s),
        ("analysis.sweep_decode_s", sweep_decode_s),
        ("analysis.sweep_cell_walk_s", cell_walk_s),
        (
            "analysis.sweep_vs_sequential",
            x.goldens.sweep_standalone_s / sweep_s,
        ),
        (
            "analysis.sweep_cells_per_l1_shape",
            geometries.len() as f64 / l1_shapes(&grid) as f64,
        ),
        ("analysis.sweep_l2_probes", probes as f64),
        (
            "cache_sweep.sweep_cell_refs_per_s",
            cell_records as f64 / sweep_s,
        ),
        ("cache_sweep.wall_s", wall),
        (
            "cache_sweep.unattributed_s",
            wall - (sweep_decode_s + cell_walk_s),
        ),
        (
            "cache_sweep.trace_overhead_pct",
            (wall - untraced) / untraced * 100.0,
        ),
    ]))
}

/// `(count, sum)` of a daemon histogram (values in microseconds).
fn histogram(sample: &StatsSample, name: &str) -> (f64, f64) {
    sample
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map_or((0.0, 0.0), |h| (h.count as f64, h.sum as f64))
}

fn scrape(addr: &str) -> Result<StatsSample, String> {
    let text = Client::with_origin(addr, "repobench/stats")
        .stats(StatsFormat::Json, 0, RecentFilter::All)
        .map_err(|e| e.to_string())?;
    StatsSample::parse(&text)
}

/// Requests in one serve block: the blocking path sends one block.
fn serve_block<'a>(x: &'a Inputs) -> &'a [Request] {
    let requests = &x.plans["serve_mixed"].requests;
    &requests[..requests.len() / SERVE_BLOCKS]
}

/// `serve_mixed`'s blocking path: one client sends one block of the
/// mix, each request after the previous answer. Returns the client
/// latencies of analyses and of uploads.
fn serve_path(sp: &mut Spans, x: &Inputs, addr: &str, tally: &mut Tally) -> (Vec<f64>, Vec<f64>) {
    let client = Client::with_origin(addr, "repobench/ledger");
    let mut latencies = (Vec::new(), Vec::new());
    sp.span("serve_mixed", "", |sp| {
        for &request in serve_block(x) {
            let (name, upload) = match request {
                Request::Analyze { .. } => ("request.analyze", false),
                Request::Upload { .. } => ("request.upload", true),
            };
            let ((ok, _), secs) = sp.span(name, "", |_| {
                timed(|| serve::send(&client, x.corpus, x.goldens, request))
            });
            tally.check(ok);
            if upload {
                latencies.1.push(secs);
            } else {
                latencies.0.push(secs);
            }
        }
    });
    latencies
}

fn serve_mixed(x: &Inputs, tally: &mut Tally, log: &mut Spans) -> Result<Metrics, String> {
    let spool = x.work.join("ledger-spool");
    let (inner, spool_bytes) = serve::with_daemon(&spool, |addr| -> Result<_, String> {
        serve::preload(addr, x.corpus)?;
        // The client-visible figures come from the same closed loop as
        // the end-to-end run, long enough for p99 to have ten samples
        // beyond it: two blocks hold over 1000 analyses.
        let block = serve_block(x).len();
        let closed = serve::closed_loop(
            addr,
            x.corpus,
            x.goldens,
            &x.plans["serve_mixed"].requests,
            x.jobs,
            60.0,
            2 * block,
        );
        tally.merge(closed.tally);
        let (_, untraced) = timed(|| serve_path(&mut Spans::new(false), x, addr, tally));
        let before = scrape(addr)?;
        let sp = &mut *log;
        let start = sp.records.len();
        let (analyze, upload) = serve_path(sp, x, addr, tally);
        let after = scrape(addr)?;
        let wall = sp.records[start].end - sp.records[start].start;
        let delta = |name: &str| {
            let (c0, s0) = histogram(&before, name);
            let (c1, s1) = histogram(&after, name);
            (c1 - c0, (s1 - s0) / 1e3)
        };
        let (queued, queue_ms) = delta("serve.queue_wait");
        let (analyses, handle_analyze_ms) = delta("serve.latency.analyze");
        let (uploads, handle_upload_ms) = delta("serve.latency.upload");
        let queue_mean = queue_ms / queued.max(1.0);
        let mean_ms = |v: &[f64]| v.iter().sum::<f64>() * 1e3 / v.len().max(1) as f64;
        let analyze_mean = handle_analyze_ms / analyses.max(1.0);
        let upload_mean = handle_upload_ms / uploads.max(1.0);
        let client_s: f64 = analyze.iter().chain(&upload).sum();
        let direct = sp.span("cal.analyze_direct", "", |_| {
            timed(|| {
                for &r in serve_block(x) {
                    if let Request::Analyze { trace, spec } = r {
                        let out = agave_serve::analyze_trace(
                            &x.corpus.paths[trace],
                            &serve::analysis(spec),
                        );
                        tally.check(out.is_ok_and(|o| o == x.goldens.analysis[trace][spec]));
                    }
                }
            })
            .1
        });
        let analyze_ms = closed.latencies_ms(false);
        let upload_ms = closed.latencies_ms(true);
        let p99 = supported_quantile(&analyze_ms, 0.99, 10)
            .ok_or_else(|| format!("only {} analyze samples: p99 unsupported", analyze_ms.len()))?;
        Ok(BTreeMap::from([
            ("serve.queue_wait_mean_ms", queue_mean),
            ("serve.handle_analyze_mean_ms", analyze_mean),
            ("serve.handle_upload_mean_ms", upload_mean),
            (
                "serve.wire_analyze_mean_ms",
                mean_ms(&analyze) - queue_mean - analyze_mean,
            ),
            (
                "serve.wire_upload_mean_ms",
                mean_ms(&upload) - queue_mean - upload_mean,
            ),
            ("serve.analyze_direct_s", direct),
            (
                "serve.attempts_per_request",
                1.0 + closed.retries as f64 / closed.samples.len().max(1) as f64,
            ),
            ("serve.useful_ratio", closed.useful_ratio()),
            ("serve_mixed.serve_req_per_s", closed.req_per_s()),
            ("serve_mixed.analyze_p50_ms", median(&analyze_ms)),
            ("serve_mixed.analyze_p99_ms", p99),
            (
                "serve_mixed.upload_p50_ms",
                quantile(&upload_ms, 0.5).unwrap_or(0.0),
            ),
            ("serve_mixed.analyze_samples", analyze_ms.len() as f64),
            ("serve_mixed.upload_samples", upload_ms.len() as f64),
            ("serve_mixed.wall_s", wall),
            ("serve_mixed.unattributed_s", wall - client_s),
            (
                "serve_mixed.trace_overhead_pct",
                (wall - untraced) / untraced * 100.0,
            ),
        ]))
    })?;
    let mut metrics = inner?;
    metrics.insert("serve.spool_bytes", spool_bytes as f64);
    Ok(metrics)
}

/// Runs the ledger until `seconds` pass (at least once) and returns
/// each metric's median over repetitions, the accounting, and the span
/// log.
pub fn run(
    corpus: &Corpus,
    goldens: &Goldens,
    seed: u64,
    jobs: usize,
    work: &Path,
    seconds: f64,
) -> Result<(Metrics, Tally, String), String> {
    let plans = WORKLOADS
        .iter()
        .map(|&w| (w, Plan::generate(w, seed, &corpus.sizes())))
        .collect();
    let x = Inputs {
        corpus,
        goldens,
        plans,
        jobs,
        work,
    };
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut reps: Vec<Metrics> = Vec::new();
    let mut log = String::new();
    while reps.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut spans = Spans::new(true);
        let mut metrics = Metrics::new();
        metrics.extend(suite_record(&x, &mut tally, &mut spans)?);
        metrics.extend(corpus_replay(&x, &mut tally, &mut spans)?);
        metrics.extend(cache_sweep(&x, &mut tally, &mut spans)?);
        metrics.extend(serve_mixed(&x, &mut tally, &mut spans)?);
        spans.write_to(reps.len(), &mut log);
        reps.push(metrics);
    }
    for name in EXACT_COUNTS {
        if reps.iter().any(|r| r[name] != reps[0][name]) {
            return Err(format!("{name} differs between repetitions"));
        }
    }
    let mut medians = Metrics::new();
    for metric in LAYER_METRICS {
        let values: Vec<f64> = reps
            .iter()
            .map(|r| r.get(metric.name).copied())
            .collect::<Option<_>>()
            .ok_or_else(|| format!("the ledger did not measure {}", metric.name))?;
        medians.insert(metric.name, median(&values));
    }
    Ok((medians, tally, log))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|(n, _, _)| *n)
            .chain(LAYER_METRICS.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn every_layer_metric_names_an_end_to_end_metric_and_workload() {
        for metric in LAYER_METRICS {
            assert!(
                END_TO_END.iter().any(|(n, _, _)| *n == metric.moves),
                "{}",
                metric.name
            );
            assert!(WORKLOADS.contains(&metric.workload), "{}", metric.name);
            assert!(
                ["higher", "lower"].contains(&metric.better),
                "{}",
                metric.name
            );
        }
        for workload in WORKLOADS {
            for suffix in ["wall_s", "unattributed_s", "trace_overhead_pct"] {
                let name = format!("{workload}.{suffix}");
                assert!(LAYER_METRICS.iter().any(|m| m.name == name), "{name}");
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = agave_telemetry::parse::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_owned())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<String> = LAYER_METRICS.iter().map(|m| m.name.to_owned()).collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(names("workloads"), workloads);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(true);
        sp.span("outer", "", |sp| {
            sp.span("inner", "", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let self_times = sp.self_times();
        let outer = sp.records[0].end - sp.records[0].start;
        assert!((self_times[0] + self_times[1] - outer).abs() < 1e-9);
        assert!(self_times[1] >= 0.005);
        let mut off = Spans::new(false);
        assert_eq!(off.span("x", "", |_| 7), 7);
        assert!(off.records.is_empty());
    }
}
