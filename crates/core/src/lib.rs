//! Shared deterministic parallel execution layer for the GTL workspace.
//!
//! Every fan-out in the workspace — the three-phase finder's per-seed
//! searches, the sharded quadratic placer, the stripe-batched congestion
//! estimator, the figure/table bench binaries — goes through [`exec`]
//! instead of hand-rolling `std::thread` chunking at each call site.
//! [`shard`] supplies the matching deterministic *decompositions* (region
//! shards and tile stripes) for the spatial clients, [`sync`] the
//! blocking admission primitives (bounded FIFO queue, counting semaphore)
//! the `gtl-runtime` service layer schedules work with, and [`cancel`]
//! the cooperative cancellation tokens (atomic flag + optional monotonic
//! deadline) [`exec::parallel_map_with_cancellable`] and the service
//! runtime poll between work items. [`obs`] supplies the deterministic
//! latency histogram + injected-clock span primitives the serve path
//! records timings with — compute code may carry and subtract instants
//! but never acquires one (see the module's byte-invisibility contract).
//! [`testdir`] hands every test its own scratch directory.
//!
//! # Determinism contract
//!
//! The execution layer guarantees, for [`exec::parallel_map_with`] and
//! [`exec::parallel_map_with_cancellable`]:
//!
//! 1. **Ordered results.** The output `Vec` has one slot per input index,
//!    in input order, regardless of which worker computed which index and
//!    in what interleaving.
//! 2. **Thread-count independence.** If the item function is a pure
//!    function of `(index, scratch-after-reset)`, the output is byte-for-
//!    byte identical for any worker count (1, 2, 8, …). Workers race only
//!    for *which* index they claim, never for what a given index produces.
//! 3. **Seed-stable RNG streams.** Randomized item functions must derive
//!    their RNG from [`exec::derive_stream`]`(master_seed, index)` — never
//!    from a worker-local or shared stream — so the stream attached to an
//!    index does not depend on scheduling.
//! 4. **Chunk-size independence.** Workers claim contiguous *chunks* of
//!    the index space; chunk boundaries are a pure function of
//!    `(len, chunk_size)` — never of the worker count — and per-item work
//!    is unchanged, so the scheduling grain (see [`exec`]) is a pure
//!    performance knob that cannot change output bytes.
//!
//! # Scratch-buffer reuse
//!
//! [`exec::parallel_map_with`] gives each worker one scratch value for its
//! whole lifetime (e.g. an `OrderingGrower` holding `O(|V| + |E|)`
//! buffers), so per-item allocation cost is paid once per worker instead
//! of once per item. The contract above requires item functions to fully
//! re-initialize whatever scratch state they read — reuse must be
//! invisible in the output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod exec;
pub mod obs;
pub mod shard;
pub mod sync;
pub mod testdir;

pub use cancel::{CancelReason, CancelToken, Cancelled, Deadline};
pub use exec::{derive_stream, parallel_map_with, parallel_map_with_cancellable};
pub use obs::{LatencyHistogram, Span};
pub use shard::{auto_grid, stripes, ShardGrid, DEFAULT_STRIPE_ROWS};
pub use sync::{BoundedQueue, Semaphore};
