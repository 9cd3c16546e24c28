//! Seeded input generation.
//!
//! The seed is the only thing that differs between two runs of one
//! workload, and it changes the order and selection of inputs, never
//! the amount of work: every seed of `suite_record`, `corpus_replay`
//! and `serve_mixed` does exactly the same operations in another
//! order, and `cache_sweep` leaves one trace of each size stratum of
//! the corpus out. That is what lets the ten-seed spread stand for
//! run-to-run noise.

use agave_trace::XorShift64;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "suite_record",
    "corpus_replay",
    "cache_sweep",
    "serve_mixed",
];

/// The sweep grid: 4 sizes × 4 associativities × 2 line sizes.
pub const SWEEP_GRID: &str = "size=8k,16k,32k,64k:assoc=1,2,4,8:line=32,64";

/// How many size strata the corpus is cut into for `cache_sweep`; the
/// seed leaves one trace of each out. Sweep cost per record differs by
/// up to 2x between traces, so the subset must be most of the corpus
/// for its cost not to depend on the seed.
pub const SWEEP_STRATA: usize = 5;

/// The analyses `corpus_replay` runs on every trace, as registry specs.
pub const REPLAY_SPECS: [&str; 3] = ["summary", "cache:cortex-a9", "sketch"];

/// Distinct session names uploads cycle over, so re-uploads replace
/// old spool files and the spool stays bounded.
pub const UPLOAD_SLOTS: usize = 8;

/// One request of the serve mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `ANALYZE` of corpus trace `trace` with `REPLAY_SPECS[spec]`.
    Analyze { trace: usize, spec: usize },
    /// `UPLOAD` of corpus trace `trace` under upload slot `slot`.
    Upload { trace: usize, slot: usize },
}

/// Requests per corpus trace in one serve block: (spec index or `None`
/// for an upload, copies). Weighted toward `summary`, the cheapest
/// analysis, so wire, queue and frame costs are not hidden behind the
/// cache walk, which costs about ten summaries.
pub const SERVE_MIX: [(Option<usize>, usize); 4] =
    [(Some(0), 15), (Some(2), 5), (Some(1), 1), (None, 6)];

/// Seeded permutations of the serve block in one request sequence;
/// clients wrap around at its end.
pub const SERVE_BLOCKS: usize = 16;

/// A workload's generated inputs: indices into the corpus, which is in
/// canonical suite order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The workload name.
    pub workload: &'static str,
    /// The seed the plan was drawn from.
    pub seed: u64,
    /// Corpus indices in the order the workload visits them.
    pub order: Vec<usize>,
    /// The serve request sequence (empty for other workloads).
    pub requests: Vec<Request>,
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut XorShift64) {
    for i in (1..items.len()).rev() {
        let j = rng.index(i + 1);
        items.swap(i, j);
    }
}

/// Every trace but one per size stratum: `sizes[i]` is corpus trace
/// `i`'s file size. Strata are consecutive runs of the size-sorted
/// corpus.
fn stratified_subset(sizes: &[u64], strata: usize, rng: &mut XorShift64) -> Vec<usize> {
    let mut by_size: Vec<usize> = (0..sizes.len()).collect();
    by_size.sort_by_key(|&i| (sizes[i], i));
    let left_out: Vec<usize> = (0..strata)
        .map(|s| {
            let lo = s * by_size.len() / strata;
            let hi = (s + 1) * by_size.len() / strata;
            by_size[lo + rng.index(hi - lo)]
        })
        .collect();
    (0..sizes.len()).filter(|i| !left_out.contains(i)).collect()
}

/// `blocks` seeded permutations of the fixed serve block, concatenated.
fn serve_requests(traces: usize, blocks: usize, rng: &mut XorShift64) -> Vec<Request> {
    let mut block = Vec::new();
    let mut slot = 0;
    for trace in 0..traces {
        for &(spec, copies) in &SERVE_MIX {
            for _ in 0..copies {
                block.push(match spec {
                    Some(spec) => Request::Analyze { trace, spec },
                    None => {
                        slot = (slot + 1) % UPLOAD_SLOTS;
                        Request::Upload { trace, slot }
                    }
                });
            }
        }
    }
    let mut requests = Vec::with_capacity(block.len() * blocks);
    for _ in 0..blocks {
        shuffle(&mut block, rng);
        requests.extend_from_slice(&block);
    }
    requests
}

impl Plan {
    /// Draws `workload`'s inputs from `seed` over a corpus whose traces
    /// have the given file sizes (canonical order).
    pub fn generate(workload: &'static str, seed: u64, sizes: &[u64]) -> Plan {
        let mut rng = XorShift64::new(seed ^ 0x5eed_a6a7_e000_0000);
        let mut order = match workload {
            "cache_sweep" => stratified_subset(sizes, SWEEP_STRATA.min(sizes.len()), &mut rng),
            _ => (0..sizes.len()).collect(),
        };
        shuffle(&mut order, &mut rng);
        let requests = if workload == "serve_mixed" {
            serve_requests(sizes.len(), SERVE_BLOCKS, &mut rng)
        } else {
            Vec::new()
        };
        Plan {
            workload,
            seed,
            order,
            requests,
        }
    }

    /// Each verb's share of the serve mix, as `(name, share)`.
    pub fn serve_shares(&self) -> Vec<(String, f64)> {
        let total = self.requests.len().max(1) as f64;
        let mut shares: Vec<(String, f64)> = REPLAY_SPECS
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let n = self
                    .requests
                    .iter()
                    .filter(|r| matches!(r, Request::Analyze { spec, .. } if *spec == i))
                    .count();
                (format!("analyze {spec}"), n as f64 / total)
            })
            .collect();
        let uploads = self
            .requests
            .iter()
            .filter(|r| matches!(r, Request::Upload { .. }))
            .count();
        shares.push(("upload".to_owned(), uploads as f64 / total));
        shares
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes() -> Vec<u64> {
        (0..25u64).map(|i| (i * 7919) % 500 + 10).collect()
    }

    #[test]
    fn same_seed_same_inputs_and_seeds_only_reorder() {
        for workload in WORKLOADS {
            let a = Plan::generate(workload, 7, &sizes());
            assert_eq!(a, Plan::generate(workload, 7, &sizes()));
            let b = Plan::generate(workload, 8, &sizes());
            if workload != "cache_sweep" {
                let (mut x, mut y) = (a.order.clone(), b.order.clone());
                x.sort_unstable();
                y.sort_unstable();
                assert_eq!(x, y, "{workload}: a seed may only reorder");
            }
        }
    }

    #[test]
    fn sweep_subset_leaves_one_trace_per_stratum_out() {
        let sizes = sizes();
        for seed in 0..20 {
            let plan = Plan::generate("cache_sweep", seed, &sizes);
            assert_eq!(plan.order.len(), 25 - SWEEP_STRATA);
            let mut ranks: Vec<usize> = (0..25)
                .filter(|i| !plan.order.contains(i))
                .map(|i| sizes.iter().filter(|&&s| s < sizes[i]).count() * SWEEP_STRATA / 25)
                .collect();
            ranks.sort_unstable();
            assert_eq!(ranks, (0..SWEEP_STRATA).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serve_mix_is_a_fixed_multiset_in_seeded_order() {
        let a = Plan::generate("serve_mixed", 1, &sizes());
        let b = Plan::generate("serve_mixed", 2, &sizes());
        assert_ne!(a.requests, b.requests);
        assert_eq!(a.serve_shares(), b.serve_shares());
        let summary = a.serve_shares()[0].1;
        assert!(summary >= 0.5, "summary must dominate the mix: {summary}");
    }
}
