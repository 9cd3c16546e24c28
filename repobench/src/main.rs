//! The agave-rs repository benchmark.
//!
//! ```text
//! agave-repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets up the named workload several times (the
//! median is `setup_s`), drives it for `--seconds`, and prints the
//! end-to-end metrics. With `--trace 1` it runs the per-layer ledger
//! (see `ledger.rs`) and prints the per-layer metrics. Either way every
//! output is checked against a golden, a human-readable report goes to
//! standard error, and the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Peak RSS is
//! measured by the `run.py` wrapper, which waits for this process.
//!
//! All files go under `.bench_work/` in the current directory, which is
//! removed at exit; the traced run keeps its span log in `.bench_out/`.

#![forbid(unsafe_code)]

mod ledger;
mod plan;
mod serve;
mod setup;
mod stats;
mod workloads;

use plan::{Plan, WORKLOADS};
use setup::{Corpus, Goldens, Tally};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {}", WORKLOADS.join(", ")))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// What one run prints.
struct Outcome {
    tally: Tally,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn describe_plan(corpus: &Corpus, plan: &Plan) {
    let labels: Vec<&str> = plan
        .order
        .iter()
        .map(|&i| corpus.workloads[i].label())
        .collect();
    eprintln!(
        "plan {} seed {}: {}",
        plan.workload,
        plan.seed,
        labels.join(" ")
    );
    if plan.workload == "cache_sweep" {
        let (grid, cells) = setup::sweep_grid();
        eprintln!(
            "  grid {}: {} cells in {} L1 shapes",
            plan::SWEEP_GRID,
            cells.len(),
            ledger::l1_shapes(&grid)
        );
    }
    if !plan.requests.is_empty() {
        for (verb, share) in plan.serve_shares() {
            eprintln!("  {verb}: {:.1}% of requests", share * 100.0);
        }
    }
}

/// Set-up: record the corpus, draw the plan, compute the goldens.
fn set_up(dir: &Path, args: &Args, jobs: usize) -> Result<(Corpus, Plan, Goldens), String> {
    let corpus = Corpus::record(&dir.join("corpus"), jobs)?;
    let plan = Plan::generate(args.workload, args.seed, &corpus.sizes());
    let goldens = Goldens::build(&corpus, &plan, jobs, args.trace)?;
    Ok((corpus, plan, goldens))
}

fn untraced(args: &Args, jobs: usize, work: &Path) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut measured = None;
    for rep in 0..SETUP_REPS {
        let dir = work.join(format!("setup-{rep}"));
        let started = Instant::now();
        let (corpus, plan, goldens) = set_up(&dir, args, jobs)?;
        let last = rep + 1 == SETUP_REPS;
        if args.workload == "serve_mixed" {
            let (result, spool_bytes) = serve::with_daemon(&dir.join("spool"), |addr| {
                serve::preload(addr, &corpus)?;
                setup_s.push(started.elapsed().as_secs_f64());
                Ok::<_, String>(last.then(|| {
                    describe_plan(&corpus, &plan);
                    serve::closed_loop(
                        addr,
                        &corpus,
                        &goldens,
                        &plan.requests,
                        jobs,
                        args.seconds,
                        usize::MAX,
                    )
                }))
            })?;
            if let Some(result) = result? {
                measured = Some(serve_outcome(&result, spool_bytes));
            }
        } else {
            setup_s.push(started.elapsed().as_secs_f64());
            if last {
                describe_plan(&corpus, &plan);
                let m = match args.workload {
                    "suite_record" => workloads::suite_record(
                        &corpus,
                        &goldens,
                        &plan,
                        jobs,
                        &dir.join("recorded"),
                        args.seconds,
                    ),
                    "corpus_replay" => {
                        workloads::corpus_replay(&corpus, &goldens, &plan, jobs, args.seconds)
                    }
                    _ => workloads::cache_sweep(&corpus, &goldens, &plan, jobs, args.seconds),
                }?;
                let rates: Vec<f64> = m.cycles.iter().map(|c| c.ops / c.secs).collect();
                eprintln!(
                    "  {} cycles at {:.1} / {:.1} / {:.1} ops/s (min / median / max)",
                    rates.len(),
                    rates.iter().copied().fold(f64::INFINITY, f64::min),
                    stats::median(&rates),
                    rates.iter().copied().fold(0.0, f64::max)
                );
                measured = Some((m.tally, m.refs_per_s(), m.ops_per_s()));
            }
        }
        if !last {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    let (tally, refs_per_s, ops_per_s) = measured.expect("the last set-up measures");
    eprintln!("  set-ups: {setup_s:?} s");
    Ok(Outcome {
        tally,
        metrics: ledger::END_TO_END
            .iter()
            .filter_map(|&(name, unit, _)| {
                let value = match name {
                    "setup_s" => stats::median(&setup_s),
                    "refs_per_s" => refs_per_s,
                    "ops_per_s" => ops_per_s,
                    // Peak RSS is measured from outside, by run.py.
                    _ => return None,
                };
                Some((name, unit, value))
            })
            .collect(),
    })
}

/// The serve loop's headline figures, with its latency report on
/// standard error.
fn serve_outcome(result: &serve::LoopResult, spool_bytes: u64) -> (Tally, f64, f64) {
    let analyze = result.latencies_ms(false);
    let upload = result.latencies_ms(true);
    let p99 = stats::supported_quantile(&analyze, 0.99, 10)
        .map_or("unsupported".to_owned(), |v| format!("{v:.3} ms"));
    eprintln!(
        "  analyze: p50 {:.3} ms, p99 {p99} over {} samples; upload: p50 {:.3} ms over {} samples",
        stats::median(&analyze),
        analyze.len(),
        stats::median(&upload),
        upload.len()
    );
    eprintln!(
        "  {} requests, {} retries, useful ratio {:.4}, most in flight {}, spool {} bytes",
        result.samples.len(),
        result.retries,
        result.useful_ratio(),
        result.max_in_flight,
        spool_bytes
    );
    (result.tally, result.refs_per_s(), result.req_per_s())
}

fn traced(args: &Args, jobs: usize, work: &Path) -> Result<Outcome, String> {
    let (corpus, _, goldens) = set_up(&work.join("setup"), args, jobs)?;
    let (metrics, tally, log) =
        ledger::run(&corpus, &goldens, args.seed, jobs, work, args.seconds)?;
    let out = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let log_path = out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&log_path, log).map_err(|e| format!("{}: {e}", log_path.display()))?;
    for metric in ledger::LAYER_METRICS {
        eprintln!(
            "  {:<42} {:>16.6} {:<6} ({} is better; feeds {} on {})",
            metric.name,
            metrics[metric.name],
            metric.unit,
            metric.better,
            metric.moves,
            metric.workload
        );
    }
    eprintln!("  span log: {}", log_path.display());
    Ok(Outcome {
        tally,
        metrics: ledger::LAYER_METRICS
            .iter()
            .map(|m| (m.name, m.unit, metrics[m.name]))
            .collect(),
    })
}

fn json_line(outcome: &Outcome) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit, value) in &outcome.metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0 && outcome.tally.attempted > 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        fields.join(", ")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("agave-repobench: {e}");
            std::process::exit(2);
        }
    };
    let jobs = agave_trace::par::effective_jobs(0);
    eprintln!("agave-repobench: {} threads available", jobs);
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    let result = if args.trace {
        traced(&args, jobs, &work)
    } else {
        untraced(&args, jobs, &work)
    };
    std::fs::remove_dir_all(&work).ok();
    match result.and_then(|o| json_line(&o).map(|line| (o.tally, line))) {
        Ok((tally, line)) => {
            eprintln!("  {} operations, {} failed", tally.attempted, tally.failed);
            println!("{line}");
        }
        Err(e) => {
            eprintln!("agave-repobench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod fixture {
    //! Small synthetic traces for the benchmark's own tests.

    use crate::setup::{Corpus, Goldens};
    use agave_replay::{TraceStats, TraceWriter};
    use agave_trace::{RefKind, SharedSink, Tracer};
    use std::cell::RefCell;
    use std::path::{Path, PathBuf};
    use std::rc::Rc;

    /// A fresh directory under the (ignored) `.bench_work/`.
    pub fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(path: &Path, label: &str, n: u64) -> TraceStats {
        let mut t = Tracer::new();
        let pid = t.register_process("app_process");
        let tid = t.register_thread(pid, "main");
        let code = t.intern_region("[app].text");
        let heap = t.intern_region("[heap]");
        let baseline = t.counter_snapshot();
        let writer = Rc::new(RefCell::new(TraceWriter::create(path, label).unwrap()));
        t.add_sink(writer.clone() as SharedSink);
        for i in 0..n {
            t.charge_at(pid, tid, code, RefKind::InstrFetch, 0x1000 + 4 * i, 1);
            if i % 3 == 0 {
                t.charge_at(pid, tid, heap, RefKind::DataRead, 0x8000_0000 + 8 * i, 2);
            }
        }
        t.flush_sinks();
        let directory = t.name_directory();
        let stats = writer.borrow_mut().finish(&directory, &baseline).unwrap();
        stats
    }

    /// One synthetic trace labelled `stem`.
    pub fn trace(dir: &Path, stem: &str) -> PathBuf {
        let path = dir.join(format!("{stem}.agtrace"));
        record(&path, stem, 3000);
        path
    }

    /// A corpus of `n` synthetic traces carrying real workload labels.
    pub fn corpus(dir: &Path, n: usize) -> Corpus {
        let workloads: Vec<_> = agave_core::all_workloads().into_iter().take(n).collect();
        let mut paths = Vec::new();
        let mut stats = Vec::new();
        for (k, w) in workloads.iter().enumerate() {
            let path = agave_core::trace_path(dir, *w);
            stats.push(record(&path, w.label(), 1000 + 500 * k as u64));
            paths.push(path);
        }
        Corpus {
            workloads,
            paths,
            stats,
        }
    }

    /// Local analysis goldens for a synthetic corpus.
    pub fn goldens(corpus: &Corpus) -> Goldens {
        Goldens {
            analysis: corpus
                .paths
                .iter()
                .map(|p| {
                    crate::plan::REPLAY_SPECS
                        .iter()
                        .map(|spec| agave_core::analyze_path(p, spec, 1).unwrap())
                        .collect()
                })
                .collect(),
            ..Goldens::default()
        }
    }
}
