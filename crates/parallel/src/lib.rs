//! Scoped-thread parallel execution layer with a determinism contract.
//!
//! Every hot path in the workspace (map-construction pipeline, traceroute
//! overlay, risk matrix, path enumeration) fans out through the helpers in
//! this crate. The contract, tested by `tests/determinism.rs` at the
//! workspace root, is:
//!
//! > **Parallel output is byte-identical to serial output, at any thread
//! > count, for every stage.**
//!
//! The helpers guarantee this by construction: inputs are split into
//! contiguous chunks, one per thread, each chunk is processed in input
//! order, and chunk results are concatenated (or merged by the caller) in
//! chunk order. Nothing downstream can observe how many threads ran. At
//! one thread (or one item) nothing is spawned: "parallel at 1 thread" and
//! "serial" are the same code path.
//!
//! Thread-count resolution, highest priority first:
//!
//! 1. a [`with_threads`] pin on the calling thread (the CLI's
//!    `--threads N`, tests and benches); the helpers pin the same count on
//!    every worker they spawn, so nested fan-outs see it too;
//! 2. the `INTERTUBES_THREADS` environment variable;
//! 3. the machine's available parallelism.
//!
//! Sources 2 and 3 are read once per process. There is no process-global
//! mutable thread state: a pin lives in a thread-local and ends with its
//! [`with_threads`] call, on unwind too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// The count pinned by [`with_threads`] on this thread (0 = none).
    static PINNED: Cell<usize> = const { Cell::new(0) };
}

/// The number of worker threads parallel stages will fan out to. Always ≥ 1.
pub fn thread_count() -> usize {
    let pinned = PINNED.with(Cell::get);
    if pinned > 0 {
        return pinned;
    }
    static UNPINNED: OnceLock<usize> = OnceLock::new();
    *UNPINNED.get_or_init(|| {
        std::env::var("INTERTUBES_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Restores the previous pin when dropped, including during unwinding.
struct RestorePin(usize);

impl Drop for RestorePin {
    fn drop(&mut self) {
        PINNED.with(|p| p.set(self.0));
    }
}

/// Runs `f` with the calling thread's thread count pinned to `n` (≥ 1),
/// restoring the previous pin afterwards. Other threads are unaffected;
/// workers spawned by this crate's helpers inherit the pin.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _restore = RestorePin(PINNED.with(|p| p.replace(n.max(1))));
    f()
}

/// The chunk length that splits `len` items into [`thread_count`] chunks.
pub fn chunk_len(len: usize) -> usize {
    len.div_ceil(thread_count()).max(1)
}

/// The ordered driver behind every helper: splits `items` into
/// [`thread_count`] contiguous chunks, maps each on its own scoped thread
/// (pinned to the same count), and concatenates the results in chunk order.
fn drive_ordered<I, R>(mut items: I, f: impl Fn(I::Item) -> R + Sync) -> Vec<R>
where
    I: ExactSizeIterator,
    I::Item: Send,
    R: Send,
{
    let threads = thread_count();
    if threads <= 1 || items.len() <= 1 {
        return items.map(f).collect();
    }
    let chunk = chunk_len(items.len());
    let chunks: Vec<Vec<I::Item>> = std::iter::from_fn(|| {
        let c: Vec<I::Item> = items.by_ref().take(chunk).collect();
        (!c.is_empty()).then_some(c)
    })
    .collect();
    let f = &f;
    let results: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| scope.spawn(move || with_threads(threads, || c.into_iter().map(f).collect())))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    results.into_iter().flatten().collect()
}

/// Maps `f` over `items`, in parallel, preserving input order exactly.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync + Send,
{
    // Counted on entry (caller thread), before the serial/parallel branch:
    // the counter is identical at every thread count by construction.
    intertubes_obs::counter("parallel.par_map_calls", 1);
    intertubes_obs::counter("parallel.par_map_items", items.len() as u64);
    drive_ordered(items.iter(), f)
}

/// Maps `f` over owned `items`, in parallel, preserving input order.
pub fn par_map_owned<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    intertubes_obs::counter("parallel.par_map_calls", 1);
    intertubes_obs::counter("parallel.par_map_items", items.len() as u64);
    drive_ordered(items.into_iter(), f)
}

/// Splits `items` into contiguous chunks of `chunk_size` and maps `f` over
/// `(chunk_start_offset, chunk)` in parallel, returning per-chunk results
/// in chunk order.
///
/// The caller merges the results; when its merge operation is associative
/// over adjacent chunks (the property suites assert this for overlay
/// shards and degradation reports), the merged value is independent of
/// both `chunk_size` and the thread count.
pub fn par_chunks_map<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync + Send,
{
    let chunk_size = chunk_size.max(1);
    // Items, not chunks: callers derive chunk_size from the thread count,
    // so a chunk total would (correctly but uselessly) vary across runs.
    intertubes_obs::counter("parallel.par_chunks_map_calls", 1);
    intertubes_obs::counter("parallel.par_chunks_map_items", items.len() as u64);
    drive_ordered(items.chunks(chunk_size).enumerate(), |(i, c)| {
        f(i * chunk_size, c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let before = thread_count();
        let inside = with_threads(3, thread_count);
        assert_eq!(inside, 3);
        assert_eq!(thread_count(), before);
    }

    #[test]
    fn with_threads_restores_after_a_panic() {
        let before = thread_count();
        let caught = std::panic::catch_unwind(|| with_threads(3, || panic!("inside the pin")));
        assert!(caught.is_err());
        assert_eq!(thread_count(), before);
    }

    #[test]
    fn with_threads_does_not_leak_to_other_threads() {
        let unpinned = thread_count();
        let pin = unpinned + 1;
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                with_threads(pin, || {
                    let _ = entered_tx.send(());
                    // Hold the pin until the other thread has looked.
                    let seen: usize = seen_rx.recv().unwrap_or(0);
                    assert_eq!(seen, unpinned);
                    assert_eq!(thread_count(), pin);
                });
            });
            scope.spawn(move || {
                let _ = entered_rx.recv();
                let _ = seen_tx.send(thread_count());
            });
        });
    }

    #[test]
    fn nested_par_map_sees_the_pinned_count_on_workers() {
        let outer: Vec<u32> = (0..6).collect();
        let seen = with_threads(3, || {
            par_map(&outer, |_| {
                let inner: Vec<u32> = (0..4).collect();
                par_map(&inner, |_| thread_count())
            })
        });
        assert!(seen.iter().flatten().all(|&n| n == 3), "{seen:?}");
    }

    #[test]
    fn par_map_matches_serial_at_every_thread_count() {
        let items: Vec<u64> = (0..997).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for n in [1, 2, 3, 8, 16] {
            let par = with_threads(n, || par_map(&items, |&x| x * 3 + 1));
            assert_eq!(par, serial, "thread count {n}");
        }
    }

    #[test]
    fn par_map_owned_preserves_order() {
        let items: Vec<String> = (0..100).map(|i| format!("i{i}")).collect();
        let expect = items.clone();
        let got = with_threads(4, || par_map_owned(items, |s| s));
        assert_eq!(got, expect);
    }

    #[test]
    fn par_chunks_map_offsets_cover_input() {
        let items: Vec<u32> = (0..1000).collect();
        for chunk in [1, 7, 100, 1000, 5000] {
            let sums = with_threads(5, || {
                par_chunks_map(&items, chunk, |off, c| {
                    assert_eq!(c[0] as usize, off);
                    c.iter().map(|&x| x as u64).sum::<u64>()
                })
            });
            assert_eq!(sums.iter().sum::<u64>(), 499_500, "chunk {chunk}");
        }
    }

    #[test]
    fn chunk_len_never_zero() {
        assert!(chunk_len(0) >= 1);
        assert!(chunk_len(1) >= 1);
        with_threads(8, || assert!(chunk_len(3) >= 1));
    }
}
