//! A dependency-free worker pool shared by the serving engine
//! (`lte-serve`) and the bench harness (`lte-bench`).
//!
//! [`parallel_map`] fans a job list across scoped threads through a
//! mutex-guarded work queue and returns outputs in input order, so results
//! are **independent of the worker count and of scheduling**: running the
//! same jobs at 1 worker or at [`default_threads`] workers produces
//! byte-identical output vectors as long as each job is itself
//! deterministic. The serving engine's multi-session determinism guarantee
//! rests on this property.

/// Run jobs across worker threads (index-preserving). Uses a mutex-guarded
/// iterator as the work queue; `threads` is clamped to the job count.
///
/// ```
/// use lte_core::parallel::parallel_map;
///
/// let squares = parallel_map((0..8).collect::<Vec<_>>(), 4, |x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]); // input order kept
/// ```
pub fn parallel_map<I, O, F>(inputs: Vec<I>, threads: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = inputs.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return inputs.into_iter().map(f).collect();
    }
    let queue = std::sync::Mutex::new(inputs.into_iter().enumerate());
    let outputs = std::sync::Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Take the lock only to pop; run the job outside it.
                let next = queue.lock().expect("queue poisoned").next();
                match next {
                    Some((i, input)) => {
                        let out = f(input);
                        outputs.lock().expect("outputs poisoned").push((i, out));
                    }
                    None => break,
                }
            });
        }
    });
    let mut results = outputs.into_inner().expect("outputs poisoned");
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, o)| o).collect()
}

/// Default worker count: leave nothing idle but respect tiny machines.
///
/// ```
/// use lte_core::parallel::default_threads;
///
/// assert!(default_threads() >= 1); // never zero, even when undetectable
/// ```
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Fan many independent row groups over **one** worker pool: every group is
/// cut into contiguous blocks of `block` items, all blocks from all groups
/// are dispatched together through [`parallel_map`], and the per-block
/// outputs are reassembled per group in input order.
///
/// This is the fused-dispatch shape of cross-session pool scoring: each
/// group is one session's retrieval pool (scored by that session's adapted
/// classifier via the group index handed to `f`), and fusing the blocks
/// means the parallel threshold and the load balancing see the *combined*
/// batch, not each small per-session pool. Because blocks are contiguous
/// and [`parallel_map`] preserves order, `result[g]` is identical to
/// `f(g, groups[g])` whenever `f` maps each row independently of the rest
/// of its block — regardless of `threads`, `block`, or how groups
/// interleave.
///
/// With `threads <= 1` each group is processed in one `f(g, group)` call.
/// [`Scorer::score`](crate::scorer::Scorer::score) is this over one group.
///
/// ```
/// use lte_core::parallel::parallel_flat_map_groups;
///
/// let a = vec![1, 2, 3];
/// let b = vec![10, 20];
/// let out = parallel_flat_map_groups(&[&a, &b], 2, 4, |g, chunk| {
///     chunk.iter().map(|x| x + g as i32).collect::<Vec<_>>()
/// });
/// assert_eq!(out, vec![vec![1, 2, 3], vec![11, 21]]);
/// ```
///
/// # Panics
/// Panics when `block` is zero and any group is non-empty.
pub fn parallel_flat_map_groups<I, O, F>(
    groups: &[&[I]],
    block: usize,
    threads: usize,
    f: F,
) -> Vec<Vec<O>>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &[I]) -> Vec<O> + Sync,
{
    if threads <= 1 || groups.iter().map(|g| g.len()).sum::<usize>() <= block {
        return groups.iter().enumerate().map(|(g, it)| f(g, it)).collect();
    }
    let mut jobs: Vec<(usize, &[I])> = Vec::new();
    for (g, items) in groups.iter().enumerate() {
        if items.is_empty() {
            continue;
        }
        assert!(block > 0, "block size must be positive");
        for chunk in items.chunks(block) {
            jobs.push((g, chunk));
        }
    }
    let parts = parallel_map(jobs, threads, |(g, chunk)| (g, f(g, chunk)));
    let mut result: Vec<Vec<O>> = groups.iter().map(|g| Vec::with_capacity(g.len())).collect();
    for (g, mut part) in parts {
        result[g].append(&mut part);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..50).collect::<Vec<_>>(), 4, |x| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
        let out = parallel_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        let empty: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |x| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let inputs: Vec<u64> = (0..200).collect();
        let reference = parallel_map(inputs.clone(), 1, |x| x.wrapping_mul(0x9E37_79B9));
        for threads in [2, 3, default_threads()] {
            let out = parallel_map(inputs.clone(), threads, |x| x.wrapping_mul(0x9E37_79B9));
            assert_eq!(out, reference, "{threads} workers diverged");
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn flat_map_groups_matches_per_group_serial() {
        let groups_owned: Vec<Vec<i64>> = vec![
            (0..5).collect(),
            Vec::new(),
            (100..137).collect(),
            vec![7],
            (1000..1003).collect(),
        ];
        let groups: Vec<&[i64]> = groups_owned.iter().map(|g| g.as_slice()).collect();
        let f =
            |g: usize, chunk: &[i64]| chunk.iter().map(|x| x * 3 + g as i64).collect::<Vec<i64>>();
        let serial: Vec<Vec<i64>> = groups.iter().enumerate().map(|(g, it)| f(g, it)).collect();
        for (block, threads) in [(1, 1), (1, 4), (4, 2), (16, 4), (64, 3)] {
            let out = parallel_flat_map_groups(&groups, block, threads, f);
            assert_eq!(out, serial, "block {block}, {threads} threads");
        }
        let none: Vec<Vec<i64>> = parallel_flat_map_groups(&[], 0, 4, |_, _: &[i64]| Vec::new());
        assert!(none.is_empty());
    }
}
