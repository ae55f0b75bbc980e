//! Deterministic observability primitives: a log-linear latency
//! histogram (HDR-style buckets) and an injected-clock [`Span`].
//!
//! # Byte-invisibility contract
//!
//! This module lives in the compute zone, yet it measures time. The
//! reconciliation is strict one-way data flow: **nothing here ever reads
//! a clock**. A [`Span`] is constructed from a [`Instant`] the I/O zone
//! captured ([`Span::starting_at`]) and closed against another injected
//! instant ([`Span::end_at`]); the histogram records plain integers.
//! Compute never branches on a recorded duration, so recording is
//! byte-invisible in every output — the same invariant the never-firing
//! [`CancelToken`](crate::cancel::CancelToken) upholds, and `gtl-lint`'s
//! `obs-clock-only-via-injection` rule machine-checks (no `.elapsed()`
//! in compute crates; `Instant::now`/`SystemTime` were already banned by
//! `no-wallclock-in-compute`).
//!
//! # Bucket layout
//!
//! Values are microseconds. The first [`LINEAR_BUCKETS`] buckets hold one
//! value each (`0..=15 µs`); beyond that, each power-of-two range
//! `[2^g, 2^(g+1))` is split into [`SUB_BUCKETS`] equal sub-buckets, so
//! the relative quantization error is bounded by `1/16` everywhere. The
//! top bucket saturates: values past [`MAX_TRACKED_US`] are clamped into
//! it, never dropped — `count` and `sum_us` stay exact.

use std::time::Instant;

/// One-value-wide buckets for `0..=LINEAR_BUCKETS-1` µs.
pub const LINEAR_BUCKETS: u64 = 16;

/// Sub-buckets per power-of-two group (relative error `<= 1/16`).
pub const SUB_BUCKETS: u64 = 16;

/// Power-of-two groups tracked past the linear range: group `g` covers
/// `[2^g, 2^(g+1))` for `g` in `4..4+GROUPS`. The last group tops out at
/// `2^36 - 1` µs (~19 hours), far beyond any request latency.
pub const GROUPS: u64 = 32;

/// Total bucket count of a [`LatencyHistogram`].
pub const NUM_BUCKETS: usize = (LINEAR_BUCKETS + GROUPS * SUB_BUCKETS) as usize;

/// The largest microsecond value tracked with bucket resolution; larger
/// values saturate into the top bucket.
pub const MAX_TRACKED_US: u64 = (1 << (4 + GROUPS)) - 1;

/// The fixed `le` boundary set the Prometheus rendering publishes, as
/// `(µs bound, seconds label)` pairs in ascending order. Bounds are
/// quantized to histogram buckets on export (see
/// [`LatencyHistogram::cumulative`]), so the label set being fixed keeps
/// the text exposition byte-deterministic.
pub const SCRAPE_BOUNDS_US: &[(u64, &str)] = &[
    (100, "0.0001"),
    (250, "0.00025"),
    (500, "0.0005"),
    (1_000, "0.001"),
    (2_500, "0.0025"),
    (5_000, "0.005"),
    (10_000, "0.01"),
    (25_000, "0.025"),
    (50_000, "0.05"),
    (100_000, "0.1"),
    (250_000, "0.25"),
    (500_000, "0.5"),
    (1_000_000, "1"),
    (2_500_000, "2.5"),
    (5_000_000, "5"),
    (10_000_000, "10"),
];

/// The bucket index a microsecond value lands in (pure math, total).
pub fn bucket_index(us: u64) -> usize {
    if us < LINEAR_BUCKETS {
        return us as usize;
    }
    let us = us.min(MAX_TRACKED_US);
    // `us >= 16`, so the leading-zero count is at most 59 and `g >= 4`.
    let g = 63 - u64::from(us.leading_zeros());
    let sub = (us >> (g - 4)) & (SUB_BUCKETS - 1);
    ((g - 3) * SUB_BUCKETS + sub) as usize
}

/// The inclusive upper bound (µs) of a bucket — what percentiles report,
/// so a reported percentile never understates the true value by more
/// than the bucket's width.
pub fn bucket_upper_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < LINEAR_BUCKETS {
        return index;
    }
    let g = index / SUB_BUCKETS + 3;
    let sub = index % SUB_BUCKETS;
    let width = 1u64 << (g - 4);
    (1u64 << g) + sub * width + (width - 1)
}

/// A deterministic log-linear latency histogram over microsecond values.
///
/// Pure bucket arithmetic — no clock, no floats in the hot path — so
/// every operation is unit-testable and byte-identical across machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { counts: vec![0; NUM_BUCKETS], count: 0, sum_us: 0, max_us: 0 }
    }

    /// Records one microsecond value. Values past [`MAX_TRACKED_US`]
    /// saturate into the top bucket; `count`/`sum_us`/`max_us` stay
    /// exact.
    pub fn record_us(&mut self, us: u64) {
        self.counts[bucket_index(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (µs, saturating).
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Largest recorded value (µs), exact (not bucket-quantized).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self` (element-wise; order-independent).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// The `q`-quantile (`0 < q <= 1`) as the inclusive upper bound of
    /// the bucket holding the `ceil(q·count)`-th smallest value; `0`
    /// when empty. Deterministic: a pure function of the bucket counts.
    pub fn percentile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Never report past the true maximum (the top buckets
                // are wide; max_us is tracked exactly).
                return bucket_upper_bound(index).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Cumulative counts at each `(µs bound, label)` boundary of
    /// `bounds` (ascending): entry `i` counts the values recorded in
    /// buckets that lie entirely below `bounds[i].0`. Bounds are thereby
    /// quantized to bucket resolution (relative error `<= 1/16`), which
    /// keeps the export a pure function of the bucket counts.
    pub fn cumulative(&self, bounds: &[(u64, &str)]) -> Vec<u64> {
        let mut out = Vec::with_capacity(bounds.len());
        let mut seen = 0u64;
        let mut index = 0usize;
        for &(bound, _) in bounds {
            while index < NUM_BUCKETS && bucket_upper_bound(index) < bound {
                seen += self.counts[index];
                index += 1;
            }
            out.push(seen);
        }
        out
    }
}

/// An open interval of wall time, measured without ever reading a clock:
/// both endpoints are [`Instant`]s injected by the I/O zone.
///
/// The type is deliberately two trivial methods — its value is the
/// discipline it enforces: compute code can *carry* and *subtract*
/// instants but cannot *acquire* one, so a span can never make output
/// depend on timing.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    start: Instant,
}

impl Span {
    /// Opens a span at an injected instant.
    pub fn starting_at(start: Instant) -> Self {
        Self { start }
    }

    /// The instant this span opened at.
    pub fn start(&self) -> Instant {
        self.start
    }

    /// Closes the span against another injected instant, returning the
    /// elapsed microseconds (saturating at zero if `end < start`, which
    /// a monotonic clock never produces but a caller-supplied pair may).
    pub fn end_at(self, end: Instant) -> u64 {
        end.checked_duration_since(self.start)
            .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_buckets_are_exact() {
        for us in 0..LINEAR_BUCKETS {
            assert_eq!(bucket_index(us), us as usize);
            assert_eq!(bucket_upper_bound(us as usize), us);
        }
    }

    #[test]
    fn bucket_bounds_are_monotonic_and_contain_their_values() {
        let mut prev_upper = None;
        for index in 0..NUM_BUCKETS {
            let upper = bucket_upper_bound(index);
            if let Some(p) = prev_upper {
                assert!(upper > p, "bucket {index} upper {upper} <= previous {p}");
            }
            prev_upper = Some(upper);
            // The upper bound itself must land back in the bucket.
            assert_eq!(bucket_index(upper), index, "upper bound of bucket {index}");
        }
        assert_eq!(bucket_upper_bound(NUM_BUCKETS - 1), MAX_TRACKED_US);
    }

    #[test]
    fn boundary_values_land_in_adjacent_buckets() {
        // Every power-of-two boundary: 2^g - 1 and 2^g are in different
        // buckets, and the quantization error is bounded by width/value
        // <= 1/16.
        for g in 4..(4 + GROUPS) {
            let below = (1u64 << g) - 1;
            let at = 1u64 << g;
            assert_eq!(bucket_index(below) + 1, bucket_index(at), "g={g}");
            let upper = bucket_upper_bound(bucket_index(at));
            assert!(upper - at < at / SUB_BUCKETS + 1, "g={g}: upper {upper}");
        }
    }

    #[test]
    fn saturation_clamps_into_the_top_bucket() {
        let mut h = LatencyHistogram::new();
        h.record_us(u64::MAX);
        h.record_us(MAX_TRACKED_US + 1);
        h.record_us(MAX_TRACKED_US);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max_us(), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        // All three landed in the top bucket; nothing was dropped.
        assert_eq!(h.cumulative(&[(MAX_TRACKED_US, "x")]), vec![0]);
        assert_eq!(h.percentile_us(0.5), bucket_upper_bound(NUM_BUCKETS - 1));
    }

    #[test]
    fn percentiles_walk_the_distribution() {
        let mut h = LatencyHistogram::new();
        for us in 1..=100u64 {
            h.record_us(us);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum_us(), 5050);
        assert_eq!(h.max_us(), 100);
        // Values 1..=15 are exact; larger ones quantize up by < 1/16.
        assert_eq!(h.percentile_us(0.01), 1);
        assert_eq!(h.percentile_us(0.10), 10);
        let p50 = h.percentile_us(0.50);
        assert!((50..=53).contains(&p50), "p50={p50}");
        let p99 = h.percentile_us(0.99);
        assert!((99..=100).contains(&p99), "p99={p99}");
        assert_eq!(h.percentile_us(1.0), 100);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile_us(0.5), 0);
        assert_eq!(h.percentile_us(1.0), 0);
        assert!(h.cumulative(SCRAPE_BOUNDS_US).iter().all(|&n| n == 0));
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let values_a = [3u64, 17, 250, 9_999, 1_000_000];
        let values_b = [0u64, 15, 16, 250, 77_777_777];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut union = LatencyHistogram::new();
        for v in values_a {
            a.record_us(v);
            union.record_us(v);
        }
        for v in values_b {
            b.record_us(v);
            union.record_us(v);
        }
        a.merge(&b);
        assert_eq!(a, union);
        // Merge with an empty histogram is the identity.
        let before = a.clone();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn cumulative_is_monotonic_and_bounded_by_count() {
        let mut h = LatencyHistogram::new();
        for us in [1u64, 50, 200, 800, 30_000, 2_000_000, 40_000_000] {
            h.record_us(us);
        }
        let cum = h.cumulative(SCRAPE_BOUNDS_US);
        for pair in cum.windows(2) {
            assert!(pair[0] <= pair[1], "{cum:?}");
        }
        assert!(*cum.last().unwrap() <= h.count());
        // The 40 s value lies past every bound.
        assert_eq!(*cum.last().unwrap(), 6);
    }

    #[test]
    fn scrape_bounds_are_ascending() {
        for pair in SCRAPE_BOUNDS_US.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
    }

    #[test]
    fn span_subtracts_injected_instants() {
        use std::time::Duration;
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(1500);
        let span = Span::starting_at(t0);
        assert_eq!(span.start(), t0);
        assert_eq!(span.end_at(t1), 1500);
        // A reversed pair saturates to zero instead of panicking.
        assert_eq!(Span::starting_at(t1).end_at(t0), 0);
    }
}

#[cfg(test)]
mod span_props {
    use super::*;
    use crate::exec::{derive_stream, parallel_map_with};
    use proptest::prelude::*;
    use std::time::Duration;

    proptest! {
        /// The byte-invisibility contract as a property: opening,
        /// closing and recording a [`Span`] around every item of a
        /// parallel map leaves the output byte-identical to the
        /// unobserved map, for any worker count, input size and seed.
        /// Spans subtract injected instants and histograms add integers;
        /// neither can steer compute — the observability sibling of
        /// `exec`'s never-firing-token property.
        #[test]
        fn recording_spans_never_changes_compute_bytes(
            threads in 0usize..9,
            len in 0usize..80,
            seed in 0u64..=u64::MAX,
        ) {
            let work = move |i: usize| {
                // Uneven per-item cost so schedules actually differ.
                let mut acc = derive_stream(seed, i as u64);
                for _ in 0..(acc % 512) {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                acc
            };
            let plain = parallel_map_with(threads, len, |_| (), |(), i| work(i));
            // Both span endpoints are injected at the call boundary —
            // the compute closure never touches a clock, it only
            // subtracts the instants it was handed and records the
            // difference into per-worker histograms.
            let epoch = Instant::now();
            let observed = parallel_map_with(
                threads,
                len,
                |_worker| LatencyHistogram::new(),
                move |histogram, i| {
                    let span = Span::starting_at(epoch);
                    let out = work(i);
                    let end = epoch + Duration::from_micros((out % 4096) + 1);
                    histogram.record_us(span.end_at(end));
                    out
                },
            );
            prop_assert_eq!(plain, observed);
        }
    }
}

#[cfg(test)]
mod span_unit {
    use super::*;

    #[test]
    fn span_durations_record_into_the_right_buckets() {
        use std::time::Duration;
        let t0 = Instant::now();
        let mut h = LatencyHistogram::new();
        for us in [7u64, 150, 30_000] {
            let span = Span::starting_at(t0);
            h.record_us(span.end_at(t0 + Duration::from_micros(us)));
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_us(), 7 + 150 + 30_000);
        assert_eq!(h.max_us(), 30_000);
        // 7 µs is in the exact linear range; the rest quantize <= 1/16.
        assert_eq!(h.percentile_us(0.01), 7);
        let p100 = h.percentile_us(1.0);
        assert!((30_000..=30_000 + 30_000 / 16).contains(&p100), "p100={p100}");
    }
}
