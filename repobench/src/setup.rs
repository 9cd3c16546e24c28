//! Set-up: the recorded corpus and the golden oracle.
//!
//! The simulator is deterministic, so every output a timed operation
//! produces has exactly one right value. Set-up computes those values
//! once, by paths other than the one being timed where the stack has
//! one: live `RunSummary` JSON from the engine for replayed summaries,
//! a standalone `replay_trace_cache` per sweep cell for the sweep, and
//! local `analyze_path` JSON for what the daemon serves.

use crate::plan::{Plan, REPLAY_SPECS, SWEEP_GRID};
use agave_core::engine::{self, EngineConfig};
use agave_core::record::record_suite;
use agave_core::{all_workloads, Experiments, GridSpec, SuiteResults, Workload};
use agave_replay::TraceStats;
use std::path::{Path, PathBuf};

/// Operations attempted and failed. A failure is an error, an output
/// that differs from its golden, or an exhausted retry budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that erred or did not match their golden.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok` is false on error or mismatch.
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Compares an operation's output with its golden, byte for byte.
pub fn agrees<E>(golden: &str, got: Result<String, E>) -> bool {
    matches!(got, Ok(out) if out == golden)
}

/// The 25-workload corpus recorded at reference sizing.
pub struct Corpus {
    /// The workloads, in canonical suite order.
    pub workloads: Vec<Workload>,
    /// One trace path per workload.
    pub paths: Vec<PathBuf>,
    /// One recording's statistics per workload.
    pub stats: Vec<TraceStats>,
}

impl Corpus {
    /// Records every workload into `dir` on `jobs` threads.
    pub fn record(dir: &Path, jobs: usize) -> Result<Corpus, String> {
        let workloads = all_workloads();
        let rows = record_suite(
            &workloads,
            &EngineConfig::reference(),
            dir,
            jobs,
            agave_replay::format::CHUNK_RECORDS,
        )
        .map_err(|e| format!("record corpus: {e}"))?;
        let mut paths = Vec::new();
        let mut stats = Vec::new();
        for (workload, result) in rows {
            stats.push(result.map_err(|e| format!("record {workload}: {e}"))?);
            paths.push(agave_core::trace_path(dir, workload));
        }
        Ok(Corpus {
            workloads,
            paths,
            stats,
        })
    }

    /// Trace file sizes, the input to seeded subset selection.
    pub fn sizes(&self) -> Vec<u64> {
        self.stats.iter().map(|s| s.file_bytes).collect()
    }

    /// Simulated references over the whole corpus.
    pub fn total_words(&self) -> u64 {
        self.stats.iter().map(|s| s.words).sum()
    }

    /// Corpus index of `workload`.
    pub fn index_of(&self, workload: Workload) -> usize {
        self.workloads
            .iter()
            .position(|&w| w == workload)
            .expect("workload is in the corpus")
    }
}

/// Whether `outcomes` (any order) pass every paper claim.
pub fn claims_pass(corpus: &Corpus, outcomes: &[engine::WorkloadOutcome]) -> bool {
    let mut canonical = outcomes.to_vec();
    canonical.sort_by_key(|o| corpus.index_of(o.workload));
    let claims = Experiments::new(SuiteResults::from_outcomes(canonical)).check_claims();
    !claims.is_empty() && claims.iter().all(|c| c.pass)
}

/// Expected outputs, indexed like the corpus. Only the parts the
/// running workload needs are filled.
#[derive(Default)]
pub struct Goldens {
    /// Live `RunSummary` JSON per workload.
    pub live_summary: Vec<String>,
    /// Recorded trace bytes per workload.
    pub trace_bytes: Vec<Vec<u8>>,
    /// Local `analyze_path` JSON per trace, one per `REPLAY_SPECS`
    /// entry; the summary entry is the live summary.
    pub analysis: Vec<Vec<String>>,
    /// Standalone per-cell cache report JSON per trace (empty for
    /// traces outside the sweep subset), in grid order.
    pub sweep_cells: Vec<Vec<String>>,
    /// Host seconds the standalone per-cell replays took: the cost of
    /// the sweep done one cell at a time.
    pub sweep_standalone_s: f64,
}

/// The sweep grid and its cells' canonical geometry names.
pub fn sweep_grid() -> (GridSpec, Vec<String>) {
    let grid = GridSpec::parse(SWEEP_GRID).expect("the benchmark grid parses");
    let names = grid
        .cells()
        .expect("the benchmark grid has valid cells")
        .iter()
        .map(|g| g.name.to_owned())
        .collect();
    (grid, names)
}

impl Goldens {
    /// Live summaries from one engine pass; fails unless the pass also
    /// meets every paper claim.
    pub fn live(corpus: &Corpus, jobs: usize) -> Result<Vec<String>, String> {
        let outcomes =
            engine::run_suite_parallel(&corpus.workloads, &EngineConfig::reference(), jobs);
        if !claims_pass(corpus, &outcomes) {
            return Err("the golden suite pass misses a paper claim".to_owned());
        }
        Ok(outcomes.iter().map(|o| o.summary.to_json()).collect())
    }

    /// Builds the goldens `plan`'s workload checks against (every
    /// workload's when `all`).
    pub fn build(corpus: &Corpus, plan: &Plan, jobs: usize, all: bool) -> Result<Goldens, String> {
        let wants = |w: &str| all || plan.workload == w;
        let mut g = Goldens {
            live_summary: Goldens::live(corpus, jobs)?,
            ..Goldens::default()
        };
        if wants("suite_record") {
            g.trace_bytes = corpus
                .paths
                .iter()
                .map(|p| std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display())))
                .collect::<Result<_, _>>()?;
        }
        if wants("corpus_replay") || wants("serve_mixed") {
            for (i, path) in corpus.paths.iter().enumerate() {
                let mut row = vec![g.live_summary[i].clone()];
                for spec in &REPLAY_SPECS[1..] {
                    row.push(agave_core::analyze_path(path, spec, 1)?);
                }
                g.analysis.push(row);
            }
        }
        if wants("cache_sweep") {
            let (_, cells) = sweep_grid();
            let subset = if all {
                Plan::generate("cache_sweep", plan.seed, &corpus.sizes()).order
            } else {
                plan.order.clone()
            };
            // One standalone replay per (trace, cell), spread over `jobs`
            // workers; `sweep_standalone_s` sums their own durations, the
            // cost of doing the sweep one cell at a time.
            let pairs: Vec<(usize, &str)> = subset
                .iter()
                .flat_map(|&i| cells.iter().map(move |c| (i, c.as_str())))
                .collect();
            let reports = agave_trace::par::parallel_map(pairs.len(), jobs, |k| {
                let (i, cell) = pairs[k];
                let started = std::time::Instant::now();
                let report = agave_core::HierarchyGeometry::by_name(cell)
                    .map_err(|e| e.to_string())
                    .and_then(|g| {
                        agave_core::replay_trace_cache(&corpus.paths[i], g, 1)
                            .map_err(|e| e.to_string())
                    });
                (report.map(|r| r.to_json()), started.elapsed().as_secs_f64())
            });
            g.sweep_cells = vec![Vec::new(); corpus.paths.len()];
            for (&(i, _), (report, secs)) in pairs.iter().zip(reports) {
                g.sweep_cells[i].push(report?);
                g.sweep_standalone_s += secs;
            }
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        assert!(t.check(agrees::<()>("a", Ok("a".to_owned()))));
        assert!(!t.check(agrees::<()>("a", Ok("b".to_owned()))));
        assert!(!t.check(agrees("a", Err(()))));
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
    }

    #[test]
    fn sweep_grid_has_32_cells_in_14_l1_shapes() {
        let (grid, names) = sweep_grid();
        assert_eq!(names.len(), 32);
        assert_eq!(crate::ledger::l1_shapes(&grid), 14);
    }
}
