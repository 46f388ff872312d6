//! Parallel parameter sweeps on scoped threads.
//!
//! The experiment grids here are small-to-medium (tens to thousands of
//! points) with per-point work ranging from microseconds (cost formulas)
//! to seconds (routing soaks), so a simple chunk-per-thread split over
//! `std::thread::scope` is the right tool — no work stealing needed, no
//! unsafe, results returned in input order.

/// Parallel, order-preserving map over `items` using up to
/// `available_parallelism` scoped threads.
///
/// ```
/// let squares = wdm_analysis::parallel_map(0u64..100, |x| x * x);
/// assert_eq!(squares[7], 49);
/// ```
pub fn parallel_map<I, T, O, F>(items: I, f: F) -> Vec<O>
where
    I: IntoIterator<Item = T>,
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    map_with_threads(items, threads, f)
}

/// [`parallel_map`] with an explicit worker count; lets tests exercise
/// the threaded path on single-CPU hosts.
fn map_with_threads<I, T, O, F>(items: I, threads: usize, f: F) -> Vec<O>
where
    I: IntoIterator<Item = T>,
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    let items: Vec<T> = items.into_iter().collect();
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let f = &f;
    std::thread::scope(|scope| {
        // Pair each chunk of inputs with its chunk of output slots; the
        // disjoint `chunks_mut` windows make this data-race-free without
        // locks.
        let mut item_iter = items.into_iter();
        let workers: Vec<_> = slots
            .chunks_mut(chunk)
            .map(|slot_chunk| {
                let inputs: Vec<T> = item_iter.by_ref().take(slot_chunk.len()).collect();
                scope.spawn(move || {
                    for (slot, item) in slot_chunk.iter_mut().zip(inputs) {
                        *slot = Some(f(item));
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("sweep worker panicked");
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("all slots filled"))
        .collect()
}

/// Sweep a 2-D parameter grid, returning `(a, b, f(a, b))` triples in
/// row-major order.
pub fn parallel_sweep<A, B, O, F>(axis_a: &[A], axis_b: &[B], f: F) -> Vec<(A, B, O)>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    O: Send,
    F: Fn(A, B) -> O + Sync,
{
    let grid: Vec<(A, B)> = axis_a
        .iter()
        .flat_map(|&a| axis_b.iter().map(move |&b| (a, b)))
        .collect();
    parallel_map(grid, |(a, b)| (a, b, f(a, b)))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let out = parallel_map(0..1000u64, |x| x * 2);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = parallel_map(std::iter::empty::<u64>(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map([41], |x| x + 1), vec![42]);
    }

    #[test]
    fn all_items_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = parallel_map(0..500, |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 500);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn sweep_is_row_major() {
        let grid = parallel_sweep(&[1u32, 2], &[10u32, 20, 30], |a, b| a * b);
        assert_eq!(
            grid,
            vec![
                (1, 10, 10),
                (1, 20, 20),
                (1, 30, 30),
                (2, 10, 20),
                (2, 20, 40),
                (2, 30, 60)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn worker_panic_propagates() {
        // Pin the worker count: on a single-CPU host `parallel_map`
        // would take the sequential path and the raw panic would
        // propagate without the scope's wrapper message.
        map_with_threads(0..100, 2, |x| {
            if x == 50 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn explicit_thread_counts_agree() {
        for threads in [1, 2, 7] {
            let out = map_with_threads(0..100u64, threads, |x| x * 3);
            assert_eq!(out, (0..100u64).map(|x| x * 3).collect::<Vec<_>>());
        }
    }
}
