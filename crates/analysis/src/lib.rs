//! The analysis registry: every trace analysis behind one abstraction.
//!
//! Before this crate, the suite computed analyses in three hand-rolled
//! copies of the same shape — the live engine path in `agave-core`, the
//! local replay verbs in `core/record.rs`, and the serve daemon's
//! `ANALYZE` handler — each wiring a sink to a stream and rendering a
//! report by hand. This crate is the single home for that shape:
//!
//! * [`AnalysisPass`] — one analysis in flight: a sink factory (what to
//!   attach to the reference stream) plus a JSON finish (what to render
//!   when the stream ends). A pass works identically whether the stream
//!   comes from a live simulation or a [`TraceReader`] replay, which is
//!   what keeps live and replayed output byte-identical.
//! * The registry ([`kinds`], [`resolve`]) — maps analysis *specs*
//!   (`summary`, `cache:<geometry>`, `sketch[:capacity]`) to passes.
//!   `core` replay verbs, `agave cache`, and the serve `ANALYZE` verb
//!   all resolve through it; unknown specs list what is valid.
//! * [`analyze_path`] — spec + `.agtrace` path → canonical JSON, the
//!   one entry point the CLI and the server both call.
//! * [`sweep`] — the fan-out engine built on the unified layer: one
//!   trace decode feeding N independent cache hierarchies.
//!
//! Concrete passes stay public ([`SummaryPass`], [`CachePass`],
//! [`SketchPass`]) so callers that want the *typed* result — a
//! [`RunSummary`], a [`CacheReport`] — can drive the same factory/finish
//! pair without going through JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sketch;
pub mod sweep;

pub use sketch::{HeavyEntry, HeavyRegion, Log2Quantiles, SketchReport, SketchSink, SpaceSaving};
pub use sweep::{sweep_path, FanoutSink, GridSpec, SweepCell, SweepReport};

use agave_cache::{CacheReport, HierarchyGeometry, MemoryHierarchy};
use agave_replay::{ReplayOutcome, SummaryAccumulator, TraceBuffer, TraceError};
use agave_trace::{NameDirectory, RunSummary, SharedSink};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

/// One analysis in flight: where its sink is, and how it renders.
///
/// The contract mirrors the replay loop: attach [`AnalysisPass::sink`]
/// to a reference stream (live tracer or trace reader — both deliver
/// through the same batched `SINK_BATCH` path), let the stream drain,
/// then call [`AnalysisPass::finish_json`] with the replay outcome.
pub trait AnalysisPass {
    /// The sink to attach to the reference stream. Every call returns a
    /// handle to the *same* underlying sink, so a pass accumulates one
    /// result no matter how many times this is called.
    fn sink(&self) -> SharedSink;

    /// Telemetry phase-span name covering this pass's decode + walk.
    fn span_name(&self) -> &'static str;

    /// Renders the finished analysis as its canonical JSON — the exact
    /// bytes `agave replay` prints and the serve daemon ships.
    fn finish_json(&self, outcome: &ReplayOutcome) -> String;
}

/// Rebuilds the recorded run's [`RunSummary`] (the `summary` spec).
pub struct SummaryPass {
    acc: Rc<RefCell<SummaryAccumulator>>,
}

impl SummaryPass {
    /// A fresh pass.
    pub fn new() -> Self {
        SummaryPass {
            acc: Rc::new(RefCell::new(SummaryAccumulator::new())),
        }
    }

    /// The typed result: the summary the live run would have produced.
    pub fn finish(&self, outcome: &ReplayOutcome) -> RunSummary {
        self.acc.borrow().build(outcome)
    }
}

impl Default for SummaryPass {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalysisPass for SummaryPass {
    fn sink(&self) -> SharedSink {
        self.acc.clone()
    }

    fn span_name(&self) -> &'static str {
        "replay summary"
    }

    fn finish_json(&self, outcome: &ReplayOutcome) -> String {
        self.finish(outcome).to_json()
    }
}

/// Replays the stream through one [`MemoryHierarchy`] (the
/// `cache:<geometry>` spec).
pub struct CachePass {
    hierarchy: Rc<RefCell<MemoryHierarchy>>,
}

impl CachePass {
    /// A pass over a fresh hierarchy of `geometry`.
    pub fn new(geometry: HierarchyGeometry) -> Self {
        CachePass {
            hierarchy: Rc::new(RefCell::new(MemoryHierarchy::new(geometry))),
        }
    }

    /// The typed result for a replayed stream.
    pub fn finish(&self, outcome: &ReplayOutcome) -> CacheReport {
        self.report(&outcome.label, &outcome.directory)
    }

    /// The typed result with an explicit label/directory — the live
    /// engine path, where the label is the workload's rather than a
    /// trace header's.
    pub fn report(&self, label: &str, directory: &NameDirectory) -> CacheReport {
        self.hierarchy.borrow().report(label, directory)
    }
}

impl AnalysisPass for CachePass {
    fn sink(&self) -> SharedSink {
        self.hierarchy.clone()
    }

    fn span_name(&self) -> &'static str {
        "hierarchy walk"
    }

    fn finish_json(&self, outcome: &ReplayOutcome) -> String {
        self.finish(outcome).to_json()
    }
}

/// Bounded-memory streaming sketches (the `sketch[:capacity]` spec).
pub struct SketchPass {
    sink: Rc<RefCell<SketchSink>>,
}

impl SketchPass {
    /// A pass tracking at most `capacity` heavy-hitter regions.
    pub fn new(capacity: usize) -> Self {
        SketchPass {
            sink: Rc::new(RefCell::new(SketchSink::new(capacity))),
        }
    }

    /// The typed result for a replayed stream.
    pub fn finish(&self, outcome: &ReplayOutcome) -> SketchReport {
        self.sink
            .borrow()
            .report(&outcome.label, &outcome.directory)
    }
}

impl AnalysisPass for SketchPass {
    fn sink(&self) -> SharedSink {
        self.sink.clone()
    }

    fn span_name(&self) -> &'static str {
        "sketch pass"
    }

    fn finish_json(&self, outcome: &ReplayOutcome) -> String {
        self.finish(outcome).to_json()
    }
}

/// Pass factory: builds a kind's pass from its optional `:`-argument.
type BuildFn = fn(Option<&str>) -> Result<Box<dyn AnalysisPass>, String>;

/// One registered analysis kind: its spec grammar and pass factory.
pub struct AnalysisKind {
    /// Spec name before the `:` (`"summary"`, `"cache"`, `"sketch"`).
    pub name: &'static str,
    /// Full spec grammar for diagnostics (`"cache:<geometry>"`).
    pub usage: &'static str,
    /// One-line description for help output.
    pub help: &'static str,
    build: BuildFn,
}

impl AnalysisKind {
    /// Builds a pass from this kind's optional `:`-argument.
    pub fn build(&self, arg: Option<&str>) -> Result<Box<dyn AnalysisPass>, String> {
        (self.build)(arg)
    }
}

/// Every analysis the suite knows, in help order.
pub fn kinds() -> &'static [AnalysisKind] {
    const KINDS: [AnalysisKind; 3] = [
        AnalysisKind {
            name: "summary",
            usage: "summary",
            help: "rebuild the recorded run's RunSummary",
            build: |arg| match arg {
                None => Ok(Box::new(SummaryPass::new())),
                Some(extra) => Err(format!("summary takes no argument, got {extra:?}")),
            },
        },
        AnalysisKind {
            name: "cache",
            usage: "cache:<geometry>",
            help: "replay through a memory hierarchy (preset or size=..,assoc=..,line=.. cell)",
            build: |arg| {
                let geometry = HierarchyGeometry::by_name(arg.unwrap_or("cortex-a9"))
                    .map_err(|e| e.to_string())?;
                Ok(Box::new(CachePass::new(geometry)))
            },
        },
        AnalysisKind {
            name: "sketch",
            usage: "sketch[:capacity]",
            help: "bounded-memory heavy-hitter regions + address-delta quantiles",
            build: |arg| {
                let capacity = match arg {
                    None => SketchSink::DEFAULT_CAPACITY,
                    Some(n) => n
                        .parse::<usize>()
                        .ok()
                        .filter(|&c| c >= 1)
                        .ok_or_else(|| format!("bad sketch capacity {n:?}"))?,
                };
                Ok(Box::new(SketchPass::new(capacity)))
            },
        },
    ];
    &KINDS
}

/// Resolves an analysis spec (`name[:arg]`) to a ready pass. Unknown
/// names list every registered spec.
pub fn resolve(spec: &str) -> Result<Box<dyn AnalysisPass>, String> {
    let (name, arg) = match spec.split_once(':') {
        Some((name, arg)) => (name, Some(arg)),
        None => (spec, None),
    };
    kinds()
        .iter()
        .find(|k| k.name == name)
        .ok_or_else(|| {
            let valid: Vec<&str> = kinds().iter().map(|k| k.usage).collect();
            format!("unknown analysis {spec:?}; valid: {}", valid.join(", "))
        })?
        .build(arg)
}

/// Replays `path` through `pass` and renders its canonical JSON — one
/// buffered read, chunks decoded on up to `jobs` workers (0 = one per
/// CPU, 1 = serial), batches delivered exactly as the live `SINK_BATCH`
/// path delivers them. Output is byte-identical for every `jobs`.
pub fn run_pass(path: &Path, pass: &dyn AnalysisPass, jobs: usize) -> Result<String, TraceError> {
    let mut span =
        agave_telemetry::Span::enter_labeled(pass.span_name(), &path.display().to_string());
    let buf = TraceBuffer::open(path)?;
    let outcome = buf.replay(&[pass.sink()], jobs)?;
    span.set_refs(outcome.words);
    Ok(pass.finish_json(&outcome))
}

/// Spec + trace path → canonical analysis JSON. The single entry point
/// the `agave replay` CLI and the serve `ANALYZE` verb both call.
/// `jobs` is the decode worker count; the JSON is identical for all
/// values.
pub fn analyze_path(path: &Path, spec: &str, jobs: usize) -> Result<String, String> {
    let pass = resolve(spec)?;
    run_pass(path, pass.as_ref(), jobs).map_err(|e| e.to_string())
}

/// Replays `path` through a fresh hierarchy of `geometry` and returns
/// the typed [`CacheReport`] — byte-identical (as JSON) to the live
/// run's report and to [`analyze_path`] with `cache:<geometry.name>`.
pub fn replay_cache(
    path: &Path,
    geometry: HierarchyGeometry,
    jobs: usize,
) -> Result<CacheReport, TraceError> {
    let mut span =
        agave_telemetry::Span::enter_labeled("hierarchy walk", &path.display().to_string());
    let pass = CachePass::new(geometry);
    let buf = TraceBuffer::open(path)?;
    let outcome = buf.replay(&[pass.sink()], jobs)?;
    span.set_refs(outcome.words);
    Ok(pass.finish(&outcome))
}

#[cfg(test)]
pub(crate) mod fixture {
    use agave_replay::TraceWriter;
    use agave_trace::{RefKind, SharedSink, Tracer};
    use std::cell::RefCell;
    use std::path::{Path, PathBuf};
    use std::rc::Rc;

    /// Records a small deterministic two-region stream to
    /// `<tmp>/agave-analysis-test-<pid>-<stem>.agtrace`.
    pub fn record(stem: &str) -> PathBuf {
        let path = temp_path(stem);
        record_at(&path, stem);
        path
    }

    fn temp_path(stem: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "agave-analysis-test-{}-{stem}.agtrace",
            std::process::id()
        ))
    }

    /// Records one data read at byte address 30, straddling a 32-byte
    /// line — a block no cache walk can account for.
    pub fn record_unaligned(stem: &str) -> PathBuf {
        let path = temp_path(stem);
        let mut t = Tracer::new();
        let pid = t.register_process("app_process");
        let tid = t.register_thread(pid, "main");
        let heap = t.intern_region("[heap]");
        let baseline = t.counter_snapshot();
        let writer = Rc::new(RefCell::new(TraceWriter::create(&path, stem).unwrap()));
        t.add_sink(writer.clone() as SharedSink);
        t.charge_at(pid, tid, heap, RefKind::DataRead, 30, 1);
        t.flush_sinks();
        writer
            .borrow_mut()
            .finish(&t.name_directory(), &baseline)
            .unwrap();
        path
    }

    pub fn record_at(path: &Path, label: &str) {
        let mut t = Tracer::new();
        let pid = t.register_process("app_process");
        let tid = t.register_thread(pid, "main");
        let code = t.intern_region("[app].text");
        let heap = t.intern_region("[heap]");
        let baseline = t.counter_snapshot();
        let writer = Rc::new(RefCell::new(TraceWriter::create(path, label).unwrap()));
        t.add_sink(writer.clone() as SharedSink);
        for i in 0..6000u64 {
            t.charge_at(
                pid,
                tid,
                code,
                RefKind::InstrFetch,
                0x1000 + 4 * (i % 512),
                1,
            );
            if i.is_multiple_of(3) {
                t.charge_at(pid, tid, heap, RefKind::DataRead, 0x8000_0000 + 64 * i, 2);
            }
        }
        t.flush_sinks();
        writer
            .borrow_mut()
            .finish(&t.name_directory(), &baseline)
            .unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_specs_resolve_and_unknowns_list_valid() {
        for spec in [
            "summary",
            "cache",
            "cache:tiny",
            "cache:size=16k,assoc=2,line=32",
            "sketch",
            "sketch:8",
        ] {
            assert!(resolve(spec).is_ok(), "{spec} should resolve");
        }
        let err = resolve("entropy").map(|_| ()).unwrap_err();
        assert!(
            err.contains("summary") && err.contains("cache:<geometry>"),
            "{err}"
        );
        let err = resolve("cache:nope").map(|_| ()).unwrap_err();
        assert!(err.contains("cortex-a9") && err.contains("tiny"), "{err}");
        assert!(resolve("summary:x").is_err());
        assert!(resolve("sketch:0").is_err());
    }

    #[test]
    fn analyze_path_matches_the_typed_helpers() {
        let path = fixture::record("registry");
        let summary = analyze_path(&path, "summary", 1).unwrap();
        assert_eq!(
            summary,
            agave_replay::replay_summary(&path, 1).unwrap().to_json()
        );
        let cache = analyze_path(&path, "cache:tiny", 1).unwrap();
        let typed = replay_cache(&path, HierarchyGeometry::tiny(), 1).unwrap();
        assert_eq!(cache, typed.to_json());
        assert!(cache.contains(r#""preset":"tiny""#));
        let sketch = analyze_path(&path, "sketch", 1).unwrap();
        assert!(sketch.contains("\"heavy_regions\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_path_is_jobs_independent() {
        let path = fixture::record("jobs-indep");
        for spec in ["summary", "cache:tiny", "sketch"] {
            let serial = analyze_path(&path, spec, 1).unwrap();
            for jobs in [2, 8, 0] {
                assert_eq!(
                    analyze_path(&path, spec, jobs).unwrap(),
                    serial,
                    "{spec} with jobs={jobs} must match serial output"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cache_cells_resolve_to_standalone_reports() {
        let path = fixture::record("cell");
        let via_spec = analyze_path(&path, "cache:size=1k,assoc=2,line=16", 1).unwrap();
        assert!(via_spec.contains(r#""preset":"size=1k,assoc=2,line=16""#));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unaligned_records_are_errors_not_wrapped_counts() {
        let path = fixture::record_unaligned("unaligned");
        for spec in ["cache:cortex-a9", "summary"] {
            let err = analyze_path(&path, spec, 1).unwrap_err();
            assert!(err.contains("not word-aligned"), "{spec}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_trace_is_a_clean_error() {
        let err = analyze_path(Path::new("/nonexistent/never.agtrace"), "summary", 1).unwrap_err();
        assert!(!err.is_empty());
    }
}
