//! Design-space sweep throughput, with a machine-readable
//! `BENCH_sweep.json` report (path overridable via `AGAVE_BENCH_JSON`)
//! for CI artifact upload.
//!
//! The sweep engine amortizes everything that is not per-cell cache
//! state. The `.agtrace` decode runs once (vs 64 times). Line
//! splitting, TLB simulation and stat-row bookkeeping run once per line
//! size (`SweepFront`). The L1s run once per L1 shape — line size × set
//! count — as an LRU stack-distance scan that decides hit or miss for
//! every associativity of the shape at once (`SweepShape`); this grid's
//! 64 cells fall into 28 shapes. Each cell privately replays only its
//! own L1 misses through its L2. The fan-out shards the shapes across
//! workers, so the ≥3x gate over 64 sequential `replay --cache` runs is
//! enforced when the host can shard (≥4 CPUs, e.g. CI runners); on
//! narrower hosts the measured ratios are still reported in
//! `BENCH_sweep.json`, and the sweep must always win.

use agave_bench::{fingerprint, Group, HotpathReport};
use agave_core::{record, sweep_path, AppId, GridSpec, HierarchyGeometry, SuiteConfig, Workload};

const GRID: &str = "size=4k,8k,16k,32k:assoc=2,4,8,16:line=16,32,64,128";

fn main() {
    let config = SuiteConfig::quick();
    let workload = Workload::Agave(AppId::CountdownMain);
    let path =
        std::env::temp_dir().join(format!("agave-sweep-bench-{}.agtrace", std::process::id()));
    let stats = record::record_workload(workload, &config, &path).expect("record");
    let grid = GridSpec::parse(GRID).expect("grid");
    let cells = grid.cells().expect("cells");
    assert_eq!(cells.len(), 64);
    let jobs = fingerprint().cpus;
    println!(
        "trace: {} · {} records · grid {} ({} cells) · {} CPUs",
        workload.label(),
        stats.records,
        grid,
        cells.len(),
        jobs
    );

    let mut group = Group::new("sweep_throughput");
    let mut report = HotpathReport::named("sweep");

    let sequential = group.bench("64 sequential replay --cache runs", 3, || {
        cells
            .iter()
            .map(|&g| record::replay_trace_cache(&path, g, 1).expect("replay"))
            .collect::<Vec<_>>()
    });
    let serial_fanout = group.bench("sweep: decode once, jobs=1", 3, || {
        sweep_path(&path, &grid, 1).expect("sweep")
    });
    let fanout = group.bench("sweep: decode once, jobs=0 (all CPUs)", 3, || {
        sweep_path(&path, &grid, 0).expect("sweep")
    });

    let cell_refs = stats.records * cells.len() as u64;
    let speedup = sequential.best().as_secs_f64() / fanout.best().as_secs_f64();
    let serial_amortization = sequential.best().as_secs_f64() / serial_fanout.best().as_secs_f64();
    println!(
        "rates: sweep {:.1} Mcell-recs/s · {speedup:.2}x vs sequential ({serial_amortization:.2}x at jobs=1)",
        fanout.rate(cell_refs) / 1e6,
    );

    report.record("sequential_64", cell_refs, &sequential);
    report.record("sweep_64_jobs1", cell_refs, &serial_fanout);
    report.record("sweep_64_jobs0", cell_refs, &fanout);
    let mut extra = agave_trace::json::Object::new();
    extra
        .field_str("path", "sweep")
        .field_str("grid", GRID)
        .field_usize("cells", cells.len())
        .field_u64("records", stats.records)
        .field_usize("effective_jobs", jobs)
        .field_f64("sweep_vs_sequential_speedup", speedup)
        .field_f64("serial_amortization", serial_amortization);
    report.push_raw(extra.finish());

    // Sanity: cell names resolve back to geometries, and the fan-out
    // answer equals a standalone replay (the full byte-identity
    // contract lives in tests/sweep_determinism.rs).
    let sweep = sweep_path(&path, &grid, 0).expect("sweep");
    let standalone = record::replay_trace_cache(
        &path,
        HierarchyGeometry::by_name(sweep.cells[0].name()).expect("cell names resolve"),
        1,
    )
    .expect("replay");
    assert_eq!(sweep.cells[0].report, standalone);

    report.write_or_warn();
    std::fs::remove_file(&path).ok();

    assert!(
        speedup >= 1.05,
        "sweep must beat 64 sequential replays on any host, got {speedup:.2}x"
    );
    if jobs >= 4 {
        assert!(
            speedup >= 3.0,
            "with {jobs} CPUs the sharded sweep must be >=3x faster than \
             64 sequential replays, got {speedup:.2}x"
        );
    } else {
        println!("note: {jobs} CPU(s) — shape sharding unavailable, 3x gate not applicable");
    }
}
