//! Scoped-thread data parallelism for the `decarb` workspace.
//!
//! The workspace builds without a route to a crates registry, so
//! `rayon` is not available; this crate provides the slice of its API
//! the experiment pipeline needs — an indexed parallel map with
//! work-stealing over a shared atomic cursor — on top of
//! `std::thread::scope`. Swapping a call site to rayon later is a
//! one-line change (`par_map(&items, f)` ↔ `items.par_iter().map(f)`).
//!
//! One scheduling loop backs every entry point. Workers claim indices
//! from the cursor, and a small reorder buffer hands each result to a
//! sink on the calling thread in input order, as soon as it and every
//! result before it are done:
//!
//! - [`par_map_ordered_with`] streams: a sink that returns `false`
//!   stops the map, and workers run at most a fixed window of items
//!   past the last result handed over, so memory stays bounded however
//!   long the input is.
//! - [`par_map`] / [`par_map_with`] collect every result, so they are
//!   a drop-in replacement for a serial `iter().map().collect()`.
//!
//! # Examples
//!
//! ```
//! let squares = decarb_par::par_map(&[1, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let mut firsts = Vec::new();
//! decarb_par::par_map_ordered_with(2, &[1, 2, 3, 4], |&x| x * x, |sq| {
//!     firsts.push(sq);
//!     firsts.len() < 2
//! });
//! assert_eq!(firsts, vec![1, 4]);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// How far past the last result handed to the sink a streaming map may
/// run, per worker: index `i` starts only while
/// `i < emitted + LOOKAHEAD_PER_WORKER * workers`.
const LOOKAHEAD_PER_WORKER: usize = 4;

/// Returns the worker count used by [`par_map`]: the machine's
/// available parallelism, overridable via the `DECARB_THREADS`
/// environment variable (values are clamped to at least 1).
pub fn thread_count() -> usize {
    if let Ok(raw) = std::env::var("DECARB_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to [`thread_count`] scoped threads and
/// collects the results in input order.
///
/// Workers claim indices from a shared atomic cursor, so uneven item
/// costs (e.g. a 123-region sweep where some regions are cheaper) still
/// balance. A panic in `f` propagates: the scope joins all workers and
/// panics on the calling thread.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(thread_count(), items, f)
}

/// [`par_map`] with an explicit worker count (`workers == 1` runs
/// serially on the calling thread).
pub fn par_map_with<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut results = Vec::with_capacity(items.len());
    // The results are all kept anyway, so the window need not bound
    // them: no worker ever waits on a slow item ahead of it.
    run_ordered(workers, usize::MAX, items, f, |result| {
        results.push(result);
        true
    });
    results
}

/// Maps `f` over `items` on `workers` scoped threads and hands each
/// result to `sink` on the calling thread, in input order, as soon as
/// it and every result before it are done.
///
/// A `false` from `sink` stops the map: no item starts afterwards, and
/// the call returns once the items in flight finish. Workers never run
/// more than `4 × workers` items past the last result handed to `sink`,
/// so a slow item holds back at most that many finished results.
/// `workers == 1` runs serially on the calling thread. A panic in `f`
/// or in `sink` propagates to the caller.
pub fn par_map_ordered_with<T, R, F, S>(workers: usize, items: &[T], f: F, sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(R) -> bool,
{
    let lookahead = LOOKAHEAD_PER_WORKER * workers.max(1);
    run_ordered(workers, lookahead, items, f, sink);
}

/// The one scheduling loop: `workers` scoped threads claim indices from
/// a shared cursor, each index starting only inside the window
/// `emitted..emitted + lookahead`, while the calling thread hands the
/// results to `sink` in input order.
fn run_ordered<T, R, F, S>(workers: usize, lookahead: usize, items: &[T], f: F, mut sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(R) -> bool,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        for item in items {
            if !sink(f(item)) {
                return;
            }
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let window = Window {
        state: Mutex::new(WindowState {
            emitted: 0,
            ready: VecDeque::new(),
            stopped: false,
        }),
        filled: Condvar::new(),
        advanced: Condvar::new(),
        lookahead,
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _stop = StopOnPanic(&window);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() || !window.admit(i) {
                        break;
                    }
                    window.fill(i, f(&items[i]));
                }
            });
        }
        // A panicking sink must release workers waiting on the window,
        // or the scope would never join them.
        let _stop = StopOnPanic(&window);
        for _ in items {
            let Some(result) = window.next() else {
                break;
            };
            if !sink(result) {
                window.stop();
                break;
            }
        }
    });
}

/// The reorder buffer between the workers and the sink.
struct Window<R> {
    state: Mutex<WindowState<R>>,
    /// Signalled when the result at the head of the buffer arrives, or
    /// on stop.
    filled: Condvar,
    /// Signalled when the window advances, or on stop.
    advanced: Condvar,
    lookahead: usize,
}

struct WindowState<R> {
    /// Results handed to the sink so far.
    emitted: usize,
    /// Slot `k` holds the result of index `emitted + k` once done.
    ready: VecDeque<Option<R>>,
    /// Set when the sink declines or a thread panics.
    stopped: bool,
}

impl<R> Window<R> {
    fn lock(&self) -> MutexGuard<'_, WindowState<R>> {
        // Nothing panics while holding the lock, so a poisoned state is
        // still consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until index `i` lies inside the window; `false` once the
    /// map has stopped.
    fn admit(&self, i: usize) -> bool {
        let mut state = self.lock();
        while !state.stopped && i >= state.emitted.saturating_add(self.lookahead) {
            state = self
                .advanced
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        !state.stopped
    }

    /// Stores the result of index `i`.
    fn fill(&self, i: usize, result: R) {
        let mut state = self.lock();
        let slot = i - state.emitted;
        if state.ready.len() <= slot {
            state.ready.resize_with(slot + 1, || None);
        }
        state.ready[slot] = Some(result);
        if slot == 0 {
            self.filled.notify_one();
        }
    }

    /// The next result in input order, waiting for it if need be;
    /// `None` once the map has stopped.
    fn next(&self) -> Option<R> {
        let mut state = self.lock();
        loop {
            if state.stopped {
                return None;
            }
            if state.ready.front().is_some_and(Option::is_some) {
                state.emitted += 1;
                self.advanced.notify_all();
                return state.ready.pop_front().flatten();
            }
            state = self
                .filled
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops the map: no index is admitted afterwards, and the sink
    /// loop ends.
    fn stop(&self) {
        self.lock().stopped = true;
        self.advanced.notify_all();
        self.filled.notify_all();
    }
}

/// Stops the map when the thread holding it unwinds, so a panic on one
/// side never leaves the other waiting.
struct StopOnPanic<'a, R>(&'a Window<R>);

impl<R> Drop for StopOnPanic<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::{Duration, Instant};

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for workers in [1, 2, 4, 16] {
            let out = par_map_with(workers, &items, |&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
        par_map_ordered_with(4, &empty, |&x| x, |_| panic!("no results"));
    }

    #[test]
    fn visits_every_item_exactly_once() {
        let hits = AtomicU32::new(0);
        let items: Vec<u32> = (0..257).collect();
        let out = par_map_with(4, &items, |&x| {
            hits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(hits.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        par_map_with(4, &items, |&x| {
            if x == 13 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    /// Sleeps an uneven, deterministic number of microseconds per item.
    fn uneven(x: &u64) -> u64 {
        std::thread::sleep(Duration::from_micros((x * 7919 % 13) * 40));
        x * 3
    }

    #[test]
    fn ordered_map_streams_in_input_order_under_uneven_costs() {
        let items: Vec<u64> = (0..96).collect();
        for workers in [1, 2, 4, 16] {
            let mut seen = Vec::new();
            par_map_ordered_with(workers, &items, uneven, |r| {
                seen.push(r);
                true
            });
            let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
            assert_eq!(seen, expected, "{workers} workers");
        }
    }

    #[test]
    fn a_slow_head_item_does_not_hold_back_its_window() {
        // Item 0 finishes only after the next `lookahead - 1` items
        // have: a barrier over any block of fewer items would starve it,
        // and the deadline turns that into a failure instead of a hang.
        let workers = 2;
        let others = LOOKAHEAD_PER_WORKER * workers - 1;
        let done = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let mut seen = Vec::new();
        par_map_ordered_with(
            workers,
            &items,
            |&x| {
                if x == 0 {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while done.load(Ordering::SeqCst) < others {
                        assert!(Instant::now() < deadline, "head item starved");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                } else {
                    done.fetch_add(1, Ordering::SeqCst);
                }
                x
            },
            |r| {
                seen.push(r);
                true
            },
        );
        assert_eq!(seen, items);
    }

    #[test]
    fn a_declining_sink_bounds_the_work_done() {
        let items: Vec<u64> = (0..400).collect();
        for workers in [1, 2, 4, 16] {
            for k in [1, 5, 40] {
                let ran = AtomicUsize::new(0);
                let mut delivered = 0;
                par_map_ordered_with(
                    workers,
                    &items,
                    |&x| {
                        ran.fetch_add(1, Ordering::SeqCst);
                        // The last result the sink takes is slow, so an
                        // unbounded map would race far past it.
                        if x + 1 == k as u64 {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        uneven(&x)
                    },
                    |_| {
                        delivered += 1;
                        delivered < k
                    },
                );
                assert_eq!(delivered, k);
                let ran = ran.load(Ordering::SeqCst);
                assert!(
                    ran <= k + LOOKAHEAD_PER_WORKER * workers,
                    "{workers} workers, declined after {k}: ran {ran}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn ordered_map_worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        par_map_ordered_with(
            2,
            &items,
            |&x| {
                if x == 13 {
                    panic!("boom");
                }
                x
            },
            |_| true,
        );
    }

    #[test]
    #[should_panic(expected = "sink gave up")]
    fn ordered_map_sink_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        par_map_ordered_with(
            2,
            &items,
            |&x| x,
            |x| {
                assert!(x < 3, "sink gave up");
                true
            },
        );
    }
}
