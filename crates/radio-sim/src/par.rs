//! Deterministic fork-join parallelism for the simulator's worker
//! regions — `std::thread::scope` only, no dependencies, no unsafe.
//!
//! The parallel engine follows one rule: **workers evaluate, the
//! coordinator commits**. Events are still dispatched one at a time in
//! the global `(time, seq)` order — that is what keeps every thread
//! count byte-identical — but the *pure* computations between events
//! (mobility stepping, link-row construction) fan out across threads.
//! Purity makes thread count invisible: each item's result is a function
//! of the item alone, and results are merged back **in item order**,
//! never in thread completion order.
//!
//! Chunking is deterministic too: `items` is split into `threads`
//! contiguous chunks of near-equal length, chunk 0 runs on the calling
//! thread (no spawn when `threads == 1` — the sequential path allocates
//! nothing and touches no thread machinery), and each spawned worker
//! owns exactly one chunk. Scheduling jitter can change *when* a chunk
//! finishes but never *what* it computes or where its results land
//! (`tests/par_model.rs` scripts uneven chunk durations to prove it).

/// Runs `f` over contiguous chunks of `items`, in parallel on up to
/// `threads` threads. `f` receives the chunk's starting index in
/// `items` and the chunk itself; chunk boundaries and contents are a
/// pure function of `(items.len(), threads)`.
pub fn run_chunks<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    if threads <= 1 || n == 1 {
        f(0, items);
        return;
    }
    let threads = threads.min(n);
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = items;
        let mut start = 0usize;
        let mut first: Option<(usize, &mut [T])> = None;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            if first.is_none() {
                // Chunk 0 runs on the calling thread after the others
                // are spawned, saving one spawn per region.
                first = Some((start, head));
            } else {
                let fr = &f;
                scope.spawn(move || fr(start, head));
            }
            start += take;
            rest = tail;
        }
        if let Some((s, head)) = first {
            f(s, head);
        }
    });
}

/// Maps `f` over `items` in parallel on up to `threads` threads,
/// returning the results **in item order** regardless of which thread
/// finished first. `f` receives `(index, &item)`.
pub fn map_chunks<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let threads = threads.min(n);
    let chunk = n.div_ceil(threads);
    let mut parts: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut chunks = items.chunks(chunk).enumerate();
        let first = chunks.next();
        for (ci, slice) in chunks {
            let fr = &f;
            handles.push(scope.spawn(move || {
                let base = ci * chunk;
                slice
                    .iter()
                    .enumerate()
                    .map(|(k, t)| fr(base + k, t))
                    .collect::<Vec<R>>()
            }));
        }
        let head: Vec<R> = first
            .map(|(_, slice)| {
                slice
                    .iter()
                    .enumerate()
                    .map(|(k, t)| f(k, t))
                    .collect::<Vec<R>>()
            })
            .into_iter()
            .flatten()
            .collect();
        parts.push(head);
        for h in handles {
            // A worker panic is a test/bug condition, not a recoverable
            // simulation state: propagate it.
            match h.join() {
                Ok(v) => parts.push(v),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    });
    // Spawn order == chunk order, so concatenation restores item order.
    parts.into_iter().flatten().collect()
}

/// Runs `f` over two equal-length slices in lockstep chunks: item `i` of
/// `a` is always paired with item `i` of `b`. Same chunking rule as
/// [`run_chunks`] (contiguous, `div_ceil`, chunk 0 on the caller).
///
/// Mismatched lengths truncate to the shorter slice (the debug build
/// asserts — a length drift is always a caller bug).
pub fn run_chunks_zip<A, B, F>(threads: usize, a: &mut [A], b: &mut [B], f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    debug_assert_eq!(a.len(), b.len(), "zip chunks need equal lengths");
    let n = a.len().min(b.len());
    let (a, b) = match (a.get_mut(..n), b.get_mut(..n)) {
        (Some(a), Some(b)) => (a, b),
        _ => return,
    };
    if n == 0 {
        return;
    }
    if threads <= 1 || n == 1 {
        f(0, a, b);
        return;
    }
    let threads = threads.min(n);
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest_a = a;
        let mut rest_b = b;
        let mut start = 0usize;
        let mut first: Option<(usize, &mut [A], &mut [B])> = None;
        while !rest_a.is_empty() {
            let take = chunk.min(rest_a.len());
            let (head_a, tail_a) = rest_a.split_at_mut(take);
            let (head_b, tail_b) = rest_b.split_at_mut(take);
            if first.is_none() {
                first = Some((start, head_a, head_b));
            } else {
                let fr = &f;
                scope.spawn(move || fr(start, head_a, head_b));
            }
            start += take;
            rest_a = tail_a;
            rest_b = tail_b;
        }
        if let Some((s, head_a, head_b)) = first {
            f(s, head_a, head_b);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order_for_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 8, 97, 200] {
            assert_eq!(
                map_chunks(threads, &items, |_, &x| x * 3 + 1),
                expected,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn run_chunks_covers_every_item_exactly_once() {
        for threads in [1, 2, 3, 5, 16] {
            let mut items = vec![0u32; 61];
            run_chunks(threads, &mut items, |start, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v += (start + k) as u32 + 1;
                }
            });
            let expected: Vec<u32> = (1..=61).collect();
            assert_eq!(items, expected, "threads = {threads}");
        }
    }

    #[test]
    fn chunk_starts_are_deterministic() {
        let items: Vec<usize> = (0..50).collect();
        let starts = map_chunks(4, &items, |i, &x| {
            assert_eq!(i, x, "index must match item position");
            i
        });
        assert_eq!(starts, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zip_chunks_pair_items_for_every_thread_count() {
        for threads in [1, 2, 3, 5, 16] {
            let mut a: Vec<u32> = (0..53).collect();
            let mut b: Vec<u32> = (0..53).map(|x| x * 10).collect();
            run_chunks_zip(threads, &mut a, &mut b, |start, ca, cb| {
                for (k, (x, y)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                    assert_eq!(*y, *x * 10, "pairing broke at {}", start + k);
                    *x += *y;
                    *y = (start + k) as u32;
                }
            });
            let expected_a: Vec<u32> = (0..53).map(|x| x + x * 10).collect();
            let expected_b: Vec<u32> = (0..53).collect();
            assert_eq!(a, expected_a, "threads = {threads}");
            assert_eq!(b, expected_b, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs_do_not_spawn_trouble() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_chunks(8, &empty, |_, &x| x).is_empty());
        let one = [7u8];
        assert_eq!(map_chunks(8, &one, |_, &x| x + 1), vec![8]);
        let mut none: [u8; 0] = [];
        run_chunks(8, &mut none, |_, _| panic!("no chunk to run"));
    }
}
