//! Integration: live daemon introspection over a real socket — the
//! `STATS` wire verb, request-scoped tracing, and the flight recorder.
//!
//! The contracts under test:
//!
//! * `STATS` is **invisible to itself**: two scrapes with no traffic
//!   between them return byte-identical JSON, so monitoring never
//!   perturbs what it measures.
//! * Client-stamped request ids and origin tags round-trip through the
//!   wire meta into `STATS --recent` flight records.
//! * Per-verb latency histograms, the queue-wait histogram, and the
//!   Prometheus exposition all populate from real request traffic.
//!
//! The metrics registry is process-global, so every test serializes on
//! one mutex and resets the registry before touching a daemon.

use agave_replay::TraceWriter;
use agave_serve::{
    Analysis, Client, ClientError, RecentFilter, ServeConfig, Server, StatsFormat, StatsSample,
};
use agave_trace::{RefKind, SharedSink, Tracer};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Mutex;

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// Serializes a test against the process-global metrics registry and
/// starts it from a clean slate.
fn serialized<T>(test: impl FnOnce() -> T) -> T {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    agave_telemetry::metrics::reset_metrics();
    test()
}

/// Records a tiny deterministic workload to a trace file under `dir`.
fn record_fixture(dir: &std::path::Path, stem: &str) -> PathBuf {
    let path = dir.join(format!("{stem}.agtrace"));
    let mut t = Tracer::new();
    let pid = t.register_process("app_process");
    let tid = t.register_thread(pid, "main");
    let code = t.intern_region("[app].text");
    let heap = t.intern_region("[heap]");
    let baseline = t.counter_snapshot();
    let writer = Rc::new(RefCell::new(TraceWriter::create(&path, stem).unwrap()));
    t.add_sink(writer.clone() as SharedSink);
    for i in 0..5000u64 {
        t.charge_at(pid, tid, code, RefKind::InstrFetch, 0x1000 + 4 * i, 1);
        if i % 3 == 0 {
            t.charge_at(pid, tid, heap, RefKind::DataRead, 0x8000_0000 + 8 * i, 2);
        }
    }
    t.flush_sinks();
    writer
        .borrow_mut()
        .finish(&t.name_directory(), &baseline)
        .unwrap();
    path
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agave-stats-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `test` against a live daemon that has one uploaded session
/// (`sess`) and one completed summary analysis, then shuts it down.
///
/// The daemon is shut down even when the test body panics: the scoped
/// daemon thread is joined on unwind, so a panicking test that skipped
/// SHUTDOWN would otherwise deadlock the whole test binary waiting on
/// a server that never stops.
fn with_warm_daemon<T>(tag: &str, test: impl FnOnce(&Client) -> T) -> T {
    let dir = temp_dir(tag);
    let trace = record_fixture(&dir, "fixture");
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let out = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run());
        let client = Client::with_origin(addr.clone(), "it-test");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            client.upload("sess", &trace).unwrap();
            client.analyze("sess", &Analysis::Summary).unwrap();
            test(&client)
        }));
        client.shutdown().unwrap();
        daemon.join().unwrap();
        match result {
            Ok(out) => out,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn idle_stats_json_is_byte_stable_across_scrapes() {
    serialized(|| {
        with_warm_daemon("stable", |client| {
            let first = client
                .stats(StatsFormat::Json, 8, RecentFilter::All)
                .unwrap();
            let second = client
                .stats(StatsFormat::Json, 8, RecentFilter::All)
                .unwrap();
            assert_eq!(
                first, second,
                "a STATS scrape must not perturb the next scrape"
            );
            let sample = StatsSample::parse(&first).unwrap();
            assert!(sample.counters["serve.uploads"] >= 1, "{first}");
            assert!(sample.counters["serve.analyses"] >= 1, "{first}");
            assert!(sample.counters["serve.requests"] >= 2, "{first}");
        });
    });
}

#[test]
fn request_ids_and_origins_round_trip_into_flight_records() {
    serialized(|| {
        with_warm_daemon("roundtrip", |client| {
            let body = client
                .stats(StatsFormat::Json, 16, RecentFilter::All)
                .unwrap();
            let sample = StatsSample::parse(&body).unwrap();
            assert!(!sample.recent.is_empty(), "{body}");
            let verbs: Vec<&str> = sample.recent.iter().map(|r| r.verb.as_str()).collect();
            assert!(verbs.contains(&"upload"), "{verbs:?}");
            assert!(verbs.contains(&"analyze"), "{verbs:?}");
            let mut ids = Vec::new();
            for r in &sample.recent {
                assert_eq!(r.origin, "it-test", "{body}");
                assert_eq!(r.outcome, "ok", "{body}");
                assert_ne!(r.id, 0, "request ids are nonzero");
                ids.push(r.id);
            }
            let mut dedup = ids.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), ids.len(), "request ids are unique: {ids:?}");
            // Newest first: recorder sequence numbers strictly descend.
            for pair in sample.recent.windows(2) {
                assert!(pair[0].seq > pair[1].seq, "{body}");
            }
        });
    });
}

#[test]
fn error_requests_are_filterable_from_the_flight_window() {
    serialized(|| {
        with_warm_daemon("errors", |client| {
            let err = client.analyze("no-such-session", &Analysis::Summary);
            assert!(matches!(err, Err(ClientError::Server(_))), "{err:?}");
            let body = client
                .stats(StatsFormat::Json, 16, RecentFilter::Errors)
                .unwrap();
            let sample = StatsSample::parse(&body).unwrap();
            assert!(!sample.recent.is_empty(), "{body}");
            for r in &sample.recent {
                assert_eq!(r.outcome, "error", "{body}");
            }
        });
    });
}

#[test]
fn over_budget_geometries_get_err_and_the_daemon_keeps_serving() {
    serialized(|| {
        with_warm_daemon("budget", |client| {
            let many = format!("size={}:assoc=1:line=32", vec!["8k"; 300].join(","));
            for grid in ["size=4096m:assoc=1:line=4", many.as_str()] {
                let err = client.sweep("sess", grid).unwrap_err();
                assert!(
                    matches!(&err, ClientError::Server(m) if m.contains("MODEL_BUDGET_BYTES")),
                    "{err:?}"
                );
            }
            let huge = Analysis::Cache("size=4096m,assoc=1,line=4".to_owned());
            let err = client.analyze("sess", &huge).unwrap_err();
            assert!(
                matches!(&err, ClientError::Server(m) if m.contains("MODEL_BUDGET_BYTES")),
                "{err:?}"
            );
            client.ping().unwrap();
            client.analyze("sess", &Analysis::Summary).unwrap();
        });
    });
}

#[test]
fn latency_and_queue_wait_histograms_populate_from_traffic() {
    serialized(|| {
        with_warm_daemon("hist", |client| {
            let body = client
                .stats(StatsFormat::Json, 0, RecentFilter::All)
                .unwrap();
            let sample = StatsSample::parse(&body).unwrap();
            for name in [
                "serve.latency.upload",
                "serve.latency.analyze",
                "serve.queue_wait",
            ] {
                let h = sample
                    .histograms
                    .iter()
                    .find(|h| h.name == name)
                    .unwrap_or_else(|| panic!("{name} missing from {body}"));
                assert!(h.count >= 1, "{name} never recorded: {body}");
            }
        });
    });
}

#[test]
fn prometheus_format_exposes_the_serve_metrics() {
    serialized(|| {
        with_warm_daemon("prom", |client| {
            let prom = client
                .stats(StatsFormat::Prom, 0, RecentFilter::All)
                .unwrap();
            for needle in [
                "# TYPE agave_serve_uploads counter",
                "agave_serve_uploads 1",
                "agave_serve_analyses",
                "agave_serve_requests",
                "agave_serve_latency_analyze_count",
            ] {
                assert!(prom.contains(needle), "{needle:?} missing from:\n{prom}");
            }
        });
    });
}
