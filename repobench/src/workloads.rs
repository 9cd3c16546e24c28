//! The untraced batch workloads: each drives a public entry point of
//! the stack over its seeded inputs in cycles, times only the calls
//! into the stack, and checks every output against its golden outside
//! the timed region.
//!
//! Every workload keeps all `jobs` CPUs busy, and rates are whole-run
//! totals over whole-run time. On a shared host, one CPU can run far
//! slower than another for tens of seconds at a time; a single thread
//! (or a median over cycles) then reports whichever state it landed
//! in, while work spread over every CPU and the whole run averages
//! the states.

use crate::plan::{Plan, REPLAY_SPECS};
use crate::setup::{agrees, claims_pass, sweep_grid, Corpus, Goldens, Tally};
use agave_core::engine::{self, EngineConfig};
use agave_core::record::record_suite;
use agave_trace::par::parallel_map;
use std::path::Path;
use std::time::{Duration, Instant};

/// One pass over a workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    /// Host seconds spent inside the stack.
    pub secs: f64,
    /// References processed (for `cache_sweep`: records × cells).
    pub refs: f64,
    /// Operations completed.
    pub ops: f64,
}

/// The timed cycles of one run plus its failure accounting.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every cycle run, in order.
    pub cycles: Vec<Cycle>,
    /// Operations attempted and failed.
    pub tally: Tally,
}

impl Measured {
    fn secs(&self) -> f64 {
        self.cycles.iter().map(|c| c.secs).sum()
    }

    /// References per host second over the whole run.
    pub fn refs_per_s(&self) -> f64 {
        self.cycles.iter().map(|c| c.refs).sum::<f64>() / self.secs()
    }

    /// Operations per host second over the whole run.
    pub fn ops_per_s(&self) -> f64 {
        self.cycles.iter().map(|c| c.ops).sum::<f64>() / self.secs()
    }
}

/// Runs `cycle` until `seconds` have passed and at least `min_cycles`
/// cycles are done.
fn repeat(
    seconds: f64,
    min_cycles: usize,
    mut cycle: impl FnMut(&mut Tally) -> Result<Cycle, String>,
) -> Result<Measured, String> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut measured = Measured::default();
    while measured.cycles.len() < min_cycles || started.elapsed() < budget {
        let c = cycle(&mut measured.tally)?;
        measured.cycles.push(c);
    }
    Ok(measured)
}

/// Times `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// `suite_record`: each cycle runs the suite on `jobs` threads in the
/// seeded order, checks every summary and the paper claims, then
/// records the suite into `out_dir` and checks every trace's bytes.
pub fn suite_record(
    corpus: &Corpus,
    goldens: &Goldens,
    plan: &Plan,
    jobs: usize,
    out_dir: &Path,
    seconds: f64,
) -> Result<Measured, String> {
    let config = EngineConfig::reference();
    let order: Vec<_> = plan.order.iter().map(|&i| corpus.workloads[i]).collect();
    let refs = corpus.total_words() as f64;
    repeat(seconds, 3, |tally| {
        let (outcomes, suite_s) = timed(|| engine::run_suite_parallel(&order, &config, jobs));
        for o in &outcomes {
            let i = corpus.index_of(o.workload);
            tally.check(o.summary.to_json() == goldens.live_summary[i]);
        }
        tally.check(claims_pass(corpus, &outcomes));
        let (rows, record_s) = timed(|| {
            record_suite(
                &order,
                &config,
                out_dir,
                jobs,
                agave_replay::format::CHUNK_RECORDS,
            )
        });
        match rows {
            Ok(rows) => {
                for (workload, result) in rows {
                    let i = corpus.index_of(workload);
                    let path = agave_core::trace_path(out_dir, workload);
                    tally.check(
                        result.is_ok()
                            && std::fs::read(path).ok().as_ref() == Some(&goldens.trace_bytes[i]),
                    );
                }
            }
            Err(_) => {
                for _ in &order {
                    tally.check(false);
                }
            }
        }
        Ok(Cycle {
            secs: suite_s + record_s,
            refs: 2.0 * refs,
            ops: 2.0 * order.len() as f64,
        })
    })
}

/// One `corpus_replay` operation: analyzes `path` with `spec` at the
/// CLI's default of one decode job and checks the JSON. Returns the
/// host seconds of the call.
pub fn replay_op(path: &Path, spec: &str, golden: &str, tally: &mut Tally) -> f64 {
    let (out, secs) = timed(|| agave_core::analyze_path(path, spec, 1));
    tally.check(agrees(golden, out));
    secs
}

/// `corpus_replay`: each cycle replays every trace, in the seeded
/// order, through the summary, cache and sketch analyses, on `jobs`
/// workers that each run one analysis at a time at one decode job.
pub fn corpus_replay(
    corpus: &Corpus,
    goldens: &Goldens,
    plan: &Plan,
    jobs: usize,
    seconds: f64,
) -> Result<Measured, String> {
    let ops: Vec<(usize, usize)> = plan
        .order
        .iter()
        .flat_map(|&i| (0..REPLAY_SPECS.len()).map(move |s| (i, s)))
        .collect();
    repeat(seconds, 3, |tally| {
        let (outs, secs) = timed(|| {
            parallel_map(ops.len(), jobs, |k| {
                let (i, s) = ops[k];
                agave_core::analyze_path(&corpus.paths[i], REPLAY_SPECS[s], 1)
            })
        });
        for (&(i, s), out) in ops.iter().zip(outs) {
            tally.check(agrees(&goldens.analysis[i][s], out));
        }
        Ok(Cycle {
            secs,
            refs: REPLAY_SPECS.len() as f64 * corpus.total_words() as f64,
            ops: ops.len() as f64,
        })
    })
}

/// `cache_sweep`: each cycle sweeps every trace of the seeded subset
/// over the benchmark grid, one sweep per worker at one job, and checks
/// every cell's report. Sweeps are handed out largest first, so how
/// evenly the workers are loaded depends on the subset, not the order.
pub fn cache_sweep(
    corpus: &Corpus,
    goldens: &Goldens,
    plan: &Plan,
    jobs: usize,
    seconds: f64,
) -> Result<Measured, String> {
    let (grid, cells) = sweep_grid();
    let mut order = plan.order.clone();
    order.sort_by_key(|&i| std::cmp::Reverse(corpus.stats[i].records));
    let refs: u64 = order
        .iter()
        .map(|&i| corpus.stats[i].records * cells.len() as u64)
        .sum();
    repeat(seconds, 3, |tally| {
        let (reports, secs) = timed(|| {
            parallel_map(order.len(), jobs, |k| {
                agave_core::sweep_path(&corpus.paths[order[k]], &grid, 1)
            })
        });
        for (&i, report) in order.iter().zip(reports) {
            match report {
                Ok(report) => {
                    tally.check(report.cells.len() == cells.len());
                    for (cell, golden) in report.cells.iter().zip(&goldens.sweep_cells[i]) {
                        tally.check(cell.report.to_json() == *golden);
                    }
                }
                Err(_) => {
                    tally.check(false);
                }
            }
        }
        Ok(Cycle {
            secs,
            refs: refs as f64,
            ops: order.len() as f64,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;

    #[test]
    fn a_planted_wrong_golden_is_a_failed_operation() {
        let dir = fixture::scratch("planted");
        let path = fixture::trace(&dir, "planted");
        let golden = agave_core::analyze_path(&path, "summary", 1).unwrap();
        let mut tally = Tally::default();
        replay_op(&path, "summary", &golden, &mut tally);
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 0
            }
        );
        let planted = golden.replacen('1', "2", 1);
        assert_ne!(planted, golden);
        replay_op(&path, "summary", &planted, &mut tally);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        replay_op(&dir.join("missing.agtrace"), "summary", &golden, &mut tally);
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
