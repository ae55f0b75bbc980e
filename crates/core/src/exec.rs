//! Deterministic parallel map over an index space.
//!
//! See the [crate-level docs](crate) for the determinism contract. The
//! scheduler is a self-balancing atomic work queue: workers claim *chunks*
//! of contiguous indices with a `fetch_add` and write `(index, value)`
//! pairs into worker-local buffers that are merged by index after the
//! join, so load imbalance between items (orderings from different seeds
//! can differ in cost by orders of magnitude) never idles a thread, and
//! scheduling never leaks into the results.
//!
//! There is one scheduler and two entry points:
//! [`parallel_map_with_cancellable`] takes an optional [`CancelToken`],
//! and [`parallel_map_with`] is the same map without one.
//!
//! # Scheduling granularity
//!
//! Every map claims the index space in contiguous chunks of
//! `max(1, len / 128)` items — ~128 claims per map. Small maps (the
//! finder's per-seed searches, tile stripes, spreader subtrees) keep
//! per-item claims and maximum load-balancing slack, while maps with
//! thousands of cheap items amortize the atomic claim, the per-chunk
//! cancellation poll and per-worker cache churn. The `GTL_EXEC_CHUNK`
//! environment variable forces a fixed chunk size instead, so CI can
//! re-run the identity suites at a non-default grain. Two invariants
//! make chunk size invisible in the output:
//!
//! * chunk boundaries are a pure function of `(len, chunk_size)` — chunk
//!   `k` always covers `[k·c, min(len, (k+1)·c))` — never of the worker
//!   count or the machine;
//! * per-item work is unchanged: item `i` computes `f(scratch, i)` with
//!   its RNG still derived as `derive_stream(master_seed, i)`.
//!
//! Together with the merge-by-index join, the output is byte-identical
//! for **any** `(threads, chunk_size)` pair — property-tested in this
//! module across worker counts × chunk sizes × token presence.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::cancel::{CancelToken, Cancelled};

/// Environment variable forcing the chunk size of every map, for CI
/// determinism runs that re-execute the identity suites at a non-default
/// grain. Chunk size cannot affect results (see the [module docs](self)),
/// so this is a scheduling knob, not a correctness one.
const CHUNK_ENV: &str = "GTL_EXEC_CHUNK";

/// The auto-chunk heuristic: the chunk size of an `len`-item map.
///
/// A pure function of `len` alone — **never** of the worker count or the
/// machine — so the decomposition it induces is part of the deterministic
/// schedule shape, not of the hardware. It aims at ~128 claims per map.
fn auto_chunk(len: usize) -> usize {
    (len / 128).max(1)
}

/// Cached [`CHUNK_ENV`] override (`None` when unset or unparseable).
fn chunk_override() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var(CHUNK_ENV).ok().and_then(|s| s.parse::<usize>().ok()).filter(|&c| c >= 1)
    })
}

/// Resolves a requested worker count against the machine and item count.
///
/// `0` means "all available cores"; any request is capped at the
/// machine's available parallelism (a thread-count knob is an upper
/// bound on concurrency, never a demand to oversubscribe — two workers
/// timesharing one core only add switching and cache-thrash overhead)
/// and the result is clamped to `[1, len]` (never more workers than
/// claims, never zero). Worker count cannot affect results, so the cap
/// is invisible in the output.
fn effective_threads(requested: usize, len: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let req = if requested == 0 { hw } else { requested.min(hw) };
    req.min(len).max(1)
}

/// SplitMix64 stream derivation: maps `(master_seed, index)` to an
/// independent, well-mixed 64-bit seed.
///
/// All randomized item functions running under [`parallel_map_with`] must
/// derive their per-item RNG through this function so that the stream an
/// index sees is a pure function of the master seed and the index — the
/// third leg of the determinism contract.
///
/// # Example
///
/// ```
/// use gtl_core::exec::derive_stream;
///
/// // Stable per (seed, index)…
/// assert_eq!(derive_stream(42, 7), derive_stream(42, 7));
/// // …and decorrelated across indices and seeds.
/// assert_ne!(derive_stream(42, 7), derive_stream(42, 8));
/// assert_ne!(derive_stream(42, 7), derive_stream(43, 7));
/// ```
pub fn derive_stream(master_seed: u64, index: u64) -> u64 {
    let mut z = master_seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic parallel map with per-worker reusable scratch state.
///
/// Computes `f(&mut scratch, index)` for every `index in 0..len` across
/// `threads` workers (`0` = all cores, capped at the machine) and returns
/// the results in index order. `init(worker)` builds each worker's
/// scratch exactly once; the worker id is provided for diagnostics only
/// and must not influence results. A map without scratch passes
/// `|_| ()` and `|(), i| …`.
///
/// # Determinism
///
/// The output is identical for every thread count and chunk size
/// provided `f` is a pure function of `(index, scratch-after-reset)` —
/// see the [crate-level contract](crate).
///
/// # Panics
///
/// Propagates panics from `f` (the first panicking worker aborts the map).
///
/// # Example
///
/// ```
/// use gtl_core::exec::parallel_map_with;
///
/// // Each worker reuses one scratch buffer across the items it claims;
/// // the item function re-initializes it, so reuse never leaks out.
/// let out = parallel_map_with(
///     4,
///     6,
///     |_worker| Vec::new(),
///     |scratch: &mut Vec<usize>, i| {
///         scratch.clear();
///         scratch.extend(0..=i);
///         scratch.iter().sum::<usize>()
///     },
/// );
/// assert_eq!(out, vec![0, 1, 3, 6, 10, 15]);
/// ```
pub fn parallel_map_with<S, T, I, F>(threads: usize, len: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    match parallel_map_with_cancellable(threads, len, None, init, f) {
        Ok(out) => out,
        Err(_) => unreachable!("a map without a token cannot be cancelled"),
    }
}

/// [`parallel_map_with`] with cooperative cancellation.
///
/// A present `token` is polled **between claims**: workers finish the
/// chunk they are on, then stop claiming; the call returns within one
/// claim's compute of the token firing. `None`, or a token that never
/// fires, yields the output of [`parallel_map_with`] byte for byte (it
/// is the same scheduler; property-tested in this module).
///
/// # Errors
///
/// [`Cancelled`] (with the firing [`CancelReason`](crate::cancel::CancelReason))
/// once the token fires — even when it fires after the last item
/// completed, so the outcome never depends on a race between completion
/// and cancellation observed elsewhere.
///
/// # Panics
///
/// Propagates panics from `f`, like [`parallel_map_with`].
///
/// # Example
///
/// ```
/// use gtl_core::cancel::CancelToken;
/// use gtl_core::exec::{parallel_map_with, parallel_map_with_cancellable};
///
/// let square = |(): &mut (), i: usize| i * i;
/// let live = CancelToken::new();
/// let out = parallel_map_with_cancellable(4, 5, Some(&live), |_| (), square).unwrap();
/// assert_eq!(out, parallel_map_with(4, 5, |_| (), square));
///
/// let tripped = CancelToken::new();
/// tripped.cancel();
/// assert!(parallel_map_with_cancellable(4, 5, Some(&tripped), |_| (), square).is_err());
/// ```
pub fn parallel_map_with_cancellable<S, T, I, F>(
    threads: usize,
    len: usize,
    token: Option<&CancelToken>,
    init: I,
    f: F,
) -> Result<Vec<T>, Cancelled>
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if len == 0 {
        crate::cancel::checkpoint(token)?;
        return Ok(Vec::new());
    }
    let chunk = chunk_override().unwrap_or_else(|| auto_chunk(len));
    let workers = effective_threads(threads, len.div_ceil(chunk));
    map_impl(workers, len, chunk, token, init, f)
}

/// The scheduler core. `workers` is the already-resolved worker count
/// (≥ 1), `chunk` the already-resolved chunk size (≥ 1), and `len > 0`.
/// Kept separate from [`parallel_map_with_cancellable`] so the in-module
/// tests can force worker counts beyond the machine's cores and chunk
/// sizes other than the auto heuristic.
fn map_impl<S, T, I, F>(
    workers: usize,
    len: usize,
    chunk: usize,
    token: Option<&CancelToken>,
    init: I,
    f: F,
) -> Result<Vec<T>, Cancelled>
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let checkpoint = crate::cancel::checkpoint;
    let num_chunks = len.div_ceil(chunk);
    if workers == 1 {
        let mut scratch = init(0);
        let mut out = Vec::with_capacity(len);
        for c in 0..num_chunks {
            // Same polling cadence as a parallel worker: once per claim.
            checkpoint(token)?;
            for i in c * chunk..((c + 1) * chunk).min(len) {
                out.push(f(&mut scratch, i));
            }
        }
        checkpoint(token)?;
        return Ok(out);
    }

    let next = AtomicUsize::new(0);
    let mut parts: Vec<Vec<(usize, T)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let next = &next;
                let init = &init;
                let f = &f;
                scope.spawn(move || {
                    let mut scratch = init(worker);
                    let mut out = Vec::new();
                    loop {
                        // Poll between claims: a fired token stops this
                        // worker from claiming, never from finishing
                        // the chunk it is on.
                        if token.is_some_and(CancelToken::is_cancelled) {
                            break;
                        }
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= num_chunks {
                            break;
                        }
                        for i in c * chunk..((c + 1) * chunk).min(len) {
                            out.push((i, f(&mut scratch, i)));
                        }
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            // Re-raise the worker's own panic payload so the message a
            // caller observes does not depend on the resolved worker
            // count (the serial path propagates `f`'s panic directly).
            parts.push(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
    });

    // A worker only ever leaves a chunk unclaimed after its token fired,
    // and the flag is monotonic — so this probe failing is exactly the
    // condition under which the slots below might be incomplete.
    checkpoint(token)?;

    // Merge worker-local buffers back into input order.
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for part in parts {
        for (index, value) in part {
            debug_assert!(slots[index].is_none(), "index {index} computed twice");
            slots[index] = Some(value);
        }
    }
    Ok(slots.into_iter().map(|slot| slot.expect("every index is claimed exactly once")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A map without scratch through the public entry point.
    fn map<T: Send>(threads: usize, len: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        parallel_map_with(threads, len, |_| (), |(), i| f(i))
    }

    /// [`map`] under a token.
    fn map_cancellable<T: Send>(
        threads: usize,
        len: usize,
        token: &CancelToken,
        f: impl Fn(usize) -> T + Sync,
    ) -> Result<Vec<T>, Cancelled> {
        parallel_map_with_cancellable(threads, len, Some(token), |_| (), |(), i| f(i))
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = map(4, 0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let out = map(threads, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    /// Uneven per-item cost to force different schedules.
    fn uneven(seed: u64) -> impl Fn(usize) -> u64 + Sync + Copy {
        move |i: usize| {
            let mut acc = derive_stream(seed, i as u64);
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        }
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let work = uneven(42);
        let baseline = map(1, 200, work);
        for threads in [2, 4, 8] {
            assert_eq!(map(threads, 200, work), baseline, "threads={threads}");
        }
        // The public entry points cap workers at the machine; force the
        // multi-worker claim/merge path directly so this holds even on a
        // single-core box.
        for workers in [2, 3, 5] {
            let forced =
                map_impl(workers, 200, 1, None, |_| (), |(), i| work(i)).expect("no token");
            assert_eq!(forced, baseline, "workers={workers}");
        }
    }

    #[test]
    fn chunk_size_does_not_change_output() {
        let work = uneven(7);
        let baseline = map(1, 150, work);
        for chunk in [1, 2, 3, 7, 64, 150, 1000] {
            for workers in [1, 2, 4] {
                let out =
                    map_impl(workers, 150, chunk, None, |_| (), |(), i| work(i)).expect("no token");
                assert_eq!(out, baseline, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn auto_chunk_is_a_pure_function_of_len() {
        // Pinned heuristic: ~128 claims, at least one item per chunk.
        for (len, expected) in [
            (0, 1),
            (1, 1),
            (64, 1),
            (127, 1),
            (128, 1),
            (129, 1),
            (256, 2),
            (1_280, 10),
            (1_000_000, 7_812),
        ] {
            assert_eq!(auto_chunk(len), expected, "len={len}");
            // Same len, same answer — no hidden machine/worker input.
            assert_eq!(auto_chunk(len), auto_chunk(len));
        }
        // The induced decomposition covers the index space exactly.
        for len in [1usize, 5, 127, 128, 129, 1_000] {
            let c = auto_chunk(len);
            let covered: usize = (0..len.div_ceil(c)).map(|k| ((k + 1) * c).min(len) - k * c).sum();
            assert_eq!(covered, len, "len={len} chunk={c}");
        }
    }

    #[test]
    fn scratch_is_built_once_per_worker() {
        let builds = AtomicUsize::new(0);
        let out = parallel_map_with(
            3,
            50,
            |_worker| {
                builds.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |scratch, i| {
                *scratch += 1; // scratch persists across items…
                i as u64 // …but must not influence results.
            },
        );
        assert_eq!(out, (0..50).map(|i| i as u64).collect::<Vec<_>>());
        assert!(builds.load(Ordering::Relaxed) <= 3);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = map(64, 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn effective_threads_clamps() {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        // Requests are capped at the machine: never oversubscribe.
        assert_eq!(effective_threads(4, 2), 4.min(hw).min(2));
        assert_eq!(effective_threads(4, 100), 4.min(hw));
        assert_eq!(effective_threads(usize::MAX, 100), hw.min(100));
        assert_eq!(effective_threads(1, 0), 1);
        assert!(effective_threads(0, 1_000_000) >= 1);
        assert!(effective_threads(0, 1_000_000) <= hw);
    }

    #[test]
    fn derive_stream_separates_indices_and_seeds() {
        assert_ne!(derive_stream(1, 0), derive_stream(1, 1));
        assert_ne!(derive_stream(1, 0), derive_stream(2, 0));
        assert_eq!(derive_stream(7, 9), derive_stream(7, 9));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        // The original payload must survive the join on the multi-worker
        // path (forced, so the test is meaningful on single-core boxes).
        let _ = map_impl(
            2,
            10,
            1,
            None,
            |_| (),
            |(), i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            },
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn serial_panic_propagates() {
        let _ = map(1, 10, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn pre_cancelled_token_errors_without_computing() {
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicUsize::new(0);
        for threads in [1, 4] {
            let result = map_cancellable(threads, 100, &token, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(
                result.unwrap_err().reason,
                crate::cancel::CancelReason::Cancelled,
                "threads={threads}"
            );
        }
        // Serial and parallel workers both poll before every claim — a
        // pre-tripped token admits no work at all.
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn cancelling_mid_map_stops_claiming() {
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let result = map_impl(
            2,
            1_000,
            1,
            Some(&token),
            |_| (),
            |(), i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    token.cancel();
                }
                i
            },
        );
        assert!(result.is_err());
        // Workers finish their in-flight claim but take nothing new:
        // far fewer than all items run (each worker can overshoot by at
        // most the one chunk it was on when the flag tripped).
        assert!(ran.load(Ordering::Relaxed) < 1_000, "cancellation did not stop the map");
    }

    #[test]
    fn cancelling_mid_chunk_finishes_the_claimed_chunk() {
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let result = map_impl(
            2,
            1_000,
            10,
            Some(&token),
            |_| (),
            |(), i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    token.cancel();
                }
                i
            },
        );
        assert!(result.is_err());
        let ran = ran.load(Ordering::Relaxed);
        // The worker that tripped the token still finishes its 10-item
        // chunk; nothing claims a fresh chunk afterwards, so the overshoot
        // is bounded by one chunk per worker.
        assert!((10..=40).contains(&ran), "ran {ran} items");
    }

    #[test]
    fn cancelled_empty_map_still_reports_cancellation() {
        let token = CancelToken::new();
        token.cancel();
        let err: Result<Vec<u32>, _> = map_cancellable(4, 0, &token, |_| unreachable!());
        assert!(err.is_err());
    }

    #[test]
    fn deadline_token_trips_the_map() {
        let token =
            CancelToken::with_deadline(crate::cancel::Deadline::at(std::time::Instant::now()));
        let err = map_cancellable(3, 50, &token, |i| i).unwrap_err();
        assert_eq!(err.reason, crate::cancel::CancelReason::DeadlineExceeded);
    }
}

#[cfg(test)]
mod cancellable_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The determinism property of the one scheduler: forced worker
        /// counts × chunk sizes × token absent or live (never firing)
        /// leave the output — scratch reuse included — byte-identical to
        /// the 1-worker map. Drives `map_impl` directly so the
        /// multi-worker path runs even on single-core machines (the
        /// public entry points cap workers at the hardware), and the
        /// public entry point at any requested thread count.
        #[test]
        fn chunking_is_invisible_for_any_worker_count(
            threads in 0usize..9,
            workers in 1usize..5,
            chunk in 1usize..70,
            len in 0usize..80,
            with_token in 0u8..2,
            seed in 0u64..=u64::MAX,
        ) {
            let init = |_worker: usize| Vec::<u64>::new();
            let work = move |scratch: &mut Vec<u64>, i: usize| {
                // Uneven per-item cost so schedules actually differ;
                // the scratch is reset before it is read.
                scratch.clear();
                let mut acc = derive_stream(seed, i as u64);
                for _ in 0..(acc % 512) {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    scratch.push(acc);
                }
                scratch.iter().fold(acc, |h, &x| h.rotate_left(5) ^ x)
            };
            let baseline = parallel_map_with(1, len, init, work);
            let token = CancelToken::new();
            let tok = (with_token == 1).then_some(&token);
            let public = parallel_map_with_cancellable(threads, len, tok, init, work).unwrap();
            prop_assert_eq!(&public, &baseline);
            if len > 0 {
                let forced = map_impl(workers, len, chunk, tok, init, work).unwrap();
                prop_assert_eq!(&forced, &baseline);
            }
        }
    }
}
