//! Integration tests for the `agave-telemetry` self-profiler: histogram
//! bucket-boundary properties, span-tree determinism under the parallel
//! suite runner, and the byte-identity contract (telemetry never changes
//! analysis output).
//!
//! Tests that toggle the process-global telemetry enable flag serialize
//! on [`LOCK`]; metric registrations use test-unique names so they never
//! collide with instrumentation or each other.

use agave_core::engine::{self, EngineConfig};
use agave_core::{AppId, SpecProgram, SuiteResults, Workload};
use agave_telemetry::metrics::Histogram;
use agave_trace::XorShift64;
use std::sync::Mutex;

/// Serializes the tests that flip the global telemetry enable flag.
static LOCK: Mutex<()> = Mutex::new(());

fn subset() -> [Workload; 3] {
    [
        Workload::Agave(AppId::CountdownMain),
        Workload::Agave(AppId::JetboyMain),
        Workload::Spec(SpecProgram::Specrand),
    ]
}

#[test]
fn histogram_buckets_cover_powers_of_two_and_neighbors() {
    // Exhaustive at the boundaries, then randomized inside buckets.
    assert_eq!(Histogram::bucket_of(0), 0);
    assert_eq!(Histogram::bucket_of(1), 1);
    assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    for e in 0..64u32 {
        let p = 1u64 << e;
        let b = Histogram::bucket_of(p);
        assert_eq!(b, e as usize + 1, "2^{e} lands in bucket e+1");
        assert_eq!(Histogram::bucket_lo(b), p, "2^{e} opens its bucket");
        if e > 0 {
            assert_eq!(
                Histogram::bucket_of(p - 1),
                e as usize,
                "2^{e}-1 stays in the previous bucket"
            );
            assert_eq!(Histogram::bucket_hi(e as usize), p - 1);
        }
        if p < u64::MAX {
            let b_up = Histogram::bucket_of(p + 1);
            assert_eq!(b_up, if e == 0 { 2 } else { b }, "2^{e}+1");
        }
    }

    // Randomized containment: every value sits inside its bucket's
    // [lo, hi] range, and the aggregated counts/sums reconcile.
    let mut rng = XorShift64::new(0x7E1E_A9E7);
    let h = agave_telemetry::metrics::histogram("test.integration.bucket_props");
    let mut expected_count = 0u64;
    let mut expected_sum = 0u64;
    for _ in 0..4_000 {
        let e = rng.below(64) as u32;
        let v = (1u64 << e).saturating_add(rng.below(3)).saturating_sub(1);
        let b = Histogram::bucket_of(v);
        assert!(
            Histogram::bucket_lo(b) <= v && v <= Histogram::bucket_hi(b),
            "{v} outside bucket {b} [{}, {}]",
            Histogram::bucket_lo(b),
            Histogram::bucket_hi(b)
        );
        h.record(v);
        expected_count += 1;
        expected_sum = expected_sum.wrapping_add(v);
    }
    let data = h.data("test.integration.bucket_props");
    assert_eq!(data.count, expected_count);
    assert_eq!(data.sum, expected_sum);
    assert_eq!(
        data.buckets.iter().map(|(_, c)| c).sum::<u64>(),
        expected_count,
        "bucket counts must sum to the sample count"
    );
}

/// Runs the subset suite under telemetry and returns the ordered
/// (label, order) sequence of per-workload "run" spans plus the suite
/// span's wall and the sum of the run spans' walls.
fn span_tree_profile(jobs: usize) -> (Vec<(String, u64)>, u64, u64) {
    agave_telemetry::take_spans();
    agave_telemetry::set_enabled(true);
    let _ = engine::run_suite_parallel(&subset(), &EngineConfig::quick(), jobs);
    agave_telemetry::set_enabled(false);
    let spans = agave_telemetry::take_spans();
    let suite = spans
        .iter()
        .find(|s| s.name == "suite")
        .expect("suite span present");
    let mut runs: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "run" && s.parent == suite.id)
        .collect();
    runs.sort_by_key(|s| (s.order, s.start_ns, s.id));
    for run in &runs {
        assert!(run.refs > 0, "{}: run span must carry refs", run.label);
        assert!(
            spans.iter().any(|s| s.name == "boot" && s.parent == run.id),
            "{}: boot span must nest under the run span",
            run.label
        );
    }
    let walls = runs.iter().map(|s| s.wall_ns()).sum();
    let seq = runs.iter().map(|s| (s.label.clone(), s.order)).collect();
    (seq, suite.wall_ns(), walls)
}

#[test]
fn span_tree_is_deterministic_under_parallel_map() {
    let _guard = LOCK.lock().unwrap();
    let (serial, serial_suite_wall, serial_run_walls) = span_tree_profile(1);
    let (parallel, _, _) = span_tree_profile(3);
    let expected: Vec<(String, u64)> = subset()
        .iter()
        .enumerate()
        .map(|(i, w)| (w.label().to_string(), i as u64 + 1))
        .collect();
    assert_eq!(serial, expected, "serial span order follows input order");
    assert_eq!(parallel, expected, "jobs=3 span order matches serial");

    // On the serial path the suite span is exactly the workloads plus
    // scheduling slack: per-run walls must sum to (almost all of) it.
    assert!(
        serial_run_walls <= serial_suite_wall,
        "children cannot outlast their parent: {serial_run_walls} > {serial_suite_wall}"
    );
    assert!(
        serial_suite_wall < serial_run_walls * 2 + 20_000_000,
        "suite span wall {serial_suite_wall} is not explained by its runs {serial_run_walls}"
    );
}

#[test]
fn disabled_telemetry_keeps_suite_json_byte_identical() {
    let _guard = LOCK.lock().unwrap();
    let config = EngineConfig::quick();
    let run_json =
        || SuiteResults::from_outcomes(engine::run_suite_parallel(&subset(), &config, 2)).to_json();
    assert!(!agave_telemetry::enabled());
    let off = run_json();
    agave_telemetry::set_enabled(true);
    let on = run_json();
    agave_telemetry::set_enabled(false);
    agave_telemetry::take_spans();
    assert_eq!(off, on, "telemetry must never leak into analysis output");

    // The enabled run must also have metered itself: sink-less suite
    // runs still feed the engine.* metrics (the prom/stats exports would
    // otherwise be empty for the most common CLI paths).
    let metrics = agave_telemetry::metrics::scrape();
    let counter = |name: &str| {
        metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert!(counter("engine.runs") >= 3, "engine.runs counts workloads");
    assert!(counter("engine.refs") > 0, "engine.refs sums references");
    assert!(
        metrics
            .histograms
            .iter()
            .any(|h| h.name == "engine.run_wall_ns" && h.count >= 3),
        "engine.run_wall_ns histogram sampled per run"
    );
}

#[test]
fn cache_walk_counts_memo_skipped_lines_in_stats() {
    use agave_cache::{HierarchyGeometry, MemoryHierarchy};
    use agave_trace::{RefKind, Reference, ReferenceSink, Tracer};
    let _guard = LOCK.lock().unwrap();
    let mut t = Tracer::new();
    let pid = t.register_process("p");
    let tid = t.register_thread(pid, "t");
    let region = t.intern_region("r");
    // Four 32-byte lines, walked once and then re-read twice whole and
    // once from its last line: the memo skips 4 + 4 + 1 lines.
    let block = Reference {
        pid,
        tid,
        region,
        kind: RefKind::DataRead,
        addr: 0x1000,
        words: 32,
    };
    let tail = Reference {
        addr: 0x1060,
        words: 8,
        ..block
    };
    let memo_lines = || {
        agave_telemetry::metrics::scrape()
            .counters
            .into_iter()
            .find(|(n, _)| n == "cache.memo_lines")
            .map_or(0, |(_, v)| v)
    };
    let before = memo_lines();
    let mut h = MemoryHierarchy::new(HierarchyGeometry::cortex_a9());
    agave_telemetry::set_enabled(true);
    h.on_batch(&[block, block, block, tail]);
    agave_telemetry::set_enabled(false);
    assert_eq!(memo_lines() - before, 9);
    let text = agave_telemetry::stats::render_str(&agave_telemetry::capture().to_json()).unwrap();
    assert!(text.contains("cache.memo_lines"), "{text}");
}
