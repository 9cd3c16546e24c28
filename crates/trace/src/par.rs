//! The workspace's fan-out primitive: a hand-rolled work-stealing
//! `parallel_map` over scoped threads.
//!
//! Born in `agave_core::engine` to parallelize the 25-workload suite,
//! the primitive is pure `std` and knows nothing about workloads, so it
//! lives here in the base crate where every layer — the suite runner,
//! the trace recorder, and the `agave-serve` worker pool — can share it.
//! `agave_core::engine::parallel_map` re-exports it, so existing callers
//! are untouched.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a `--jobs`-style request: 0 means one per available CPU.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        jobs
    }
}

/// Computes `f(0..count)` on up to `jobs` scoped threads and returns the
/// results in index order.
///
/// Work distribution is a shared atomic cursor (work stealing by index):
/// idle workers claim the next index, so a slow item never stalls the
/// rest of the queue behind a static partition. A panic in any worker
/// propagates to the caller once all threads have been joined.
///
/// `jobs == 0` means "one per available CPU"; `jobs == 1` runs inline on
/// the calling thread (the serial path, with zero threading overhead).
pub fn parallel_map<T, F>(count: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = effective_jobs(jobs).min(count.max(1));
    if jobs <= 1 {
        return (0..count).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped a claimed index")
        })
        .collect()
}

/// Runs `f` on every item of `items` on up to `jobs` scoped threads,
/// for callers whose per-item work mutates the item in place.
///
/// Workers claim items one at a time from a shared iterator, so each
/// item is mutated by exactly one worker and slow items balance like
/// [`parallel_map`]'s. `jobs` resolves as there; one job runs inline.
pub fn parallel_for_each_mut<T, F>(items: &mut [T], jobs: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len());
    if jobs <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let cursor = Mutex::new(items.iter_mut());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let next = cursor.lock().expect("work cursor poisoned").next();
                let Some(item) = next else { break };
                f(item);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_mut_touches_every_item_once_for_any_job_count() {
        for jobs in [0, 1, 2, 3, 64] {
            let mut items: Vec<usize> = (0..17).collect();
            parallel_for_each_mut(&mut items, jobs, |i| *i *= 2);
            assert_eq!(items, (0..17).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn preserves_index_order_for_any_job_count() {
        for jobs in [0, 1, 2, 3, 8, 64] {
            let out = parallel_map(17, jobs, |i| i * i);
            assert_eq!(
                out,
                (0..17).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn jobs_zero_resolves_to_available_cpus() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(7), 7);
    }

    #[test]
    fn long_lived_workers_run_concurrently() {
        // The serve worker pool relies on `parallel_map(n, n, loop)`
        // giving each index its own live thread: all n closures must be
        // in flight at once, not serialized behind one worker.
        use std::sync::atomic::AtomicUsize;
        use std::sync::{Condvar, Mutex};
        let arrived = AtomicUsize::new(0);
        let gate = (Mutex::new(false), Condvar::new());
        let n = 4;
        let out = parallel_map(n, n, |i| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let (lock, cv) = &gate;
            let mut open = lock.lock().unwrap();
            if arrived.load(Ordering::SeqCst) == n {
                *open = true;
                cv.notify_all();
            }
            while !*open {
                open = cv.wait(open).unwrap();
            }
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }
}
