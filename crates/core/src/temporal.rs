//! Temporal workload shifting: deferral and interruptibility (§3.2.1, §5.2).
//!
//! All costs are carbon emissions in g·CO2eq for a 1 kW job: running
//! `slots` hours starting at hour `s` costs the sum of the region's hourly
//! carbon-intensity over `[s, s + slots)`.
//!
//! * **Deferral** maps to the minimum-sum contiguous k-window problem: a
//!   job of length `k` with slack `S` picks the cheapest contiguous window
//!   starting within `[arrival, arrival + S]`.
//! * **Interruptibility** maps to the k smallest elements of the window
//!   `[arrival, arrival + k + S)`: the job runs in the `k` cheapest hours,
//!   pausing elsewhere (suspend/resume overheads are ignored to obtain an
//!   upper bound, as in the paper).
//!
//! Single-job queries run in O(window). The all-start-times sweeps the
//! paper averages over (8760 arrivals per year) use a monotonic deque
//! (deferral) and a Fenwick tree of counts over the sweep's ranked
//! samples (interruptibility) for O(n) / O(n log n) totals instead of
//! O(n · window).

use std::sync::Arc;

use decarb_traces::{ChunkedPrefix, Hour, RegionId, Resolution, TimeSeries, TraceSet};

use crate::ksmallest::{k_cheapest, sliding_k_sums};

/// The result of placing a single job.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Chosen start hour (for interruptible placements, the first hour
    /// actually executed).
    pub start: Hour,
    /// Carbon cost in g·CO2eq.
    pub cost_g: f64,
}

/// Finds the cheapest contiguous `slots`-window of `prefix` whose start
/// index lies in `[first, last]` (§3.2.1's minimum k-element sub-array),
/// in O(last − first) time. Ties resolve to the earliest start; the
/// returned start is absolute. Both [`TemporalPlanner::best_deferred`]
/// and planners over a forecast (which refill one scratch prefix per
/// decision) scan through here. The costs come from one
/// [`ChunkedPrefix::window_sums`] pass, so each is bit for bit the
/// [`ChunkedPrefix::sum`] of its window.
///
/// # Panics
///
/// Panics if a window `[last, last + slots)` runs past the prefix.
// decarb-analyze: hot-path
pub fn cheapest_window(
    prefix: &ChunkedPrefix,
    first: usize,
    last: usize,
    slots: usize,
) -> Placement {
    let mut best_start = first;
    let mut best_cost = f64::INFINITY;
    let mut s = first;
    prefix.window_sums(
        prefix.start().plus(first),
        slots,
        (last + 1).saturating_sub(first),
        |cost| {
            if cost < best_cost {
                best_cost = cost;
                best_start = s;
            }
            s += 1;
        },
    );
    Placement {
        start: prefix.start().plus(best_start),
        cost_g: best_cost,
    }
}

/// A temporal scheduling planner over one region's carbon trace.
///
/// The planner is resolution-agnostic: `Hour` values are *slot*
/// indices on whatever axis the series uses, and `slots`/`slack`
/// arguments are slot counts. Callers with wall-clock inputs convert
/// once at the edge (see `Job::length_slots_at` and friends) before
/// querying. Window sums go through a shared [`ChunkedPrefix`] on every
/// axis, and the planner reads its trace through that prefix, which
/// shares the samples rather than copying them, so
/// [`TemporalPlanner::for_region`] reads the dataset's own sample buffer
/// and cached prefix and allocates neither.
#[derive(Debug, Clone)]
pub struct TemporalPlanner {
    prefix: Arc<ChunkedPrefix>,
    resolution: Resolution,
}

impl TemporalPlanner {
    /// Builds a planner over an hourly `series`.
    pub fn new(series: &TimeSeries) -> Self {
        Self::with_resolution(series, Resolution::HOURLY)
    }

    /// Builds a planner over `series` sampled at `resolution`, with a
    /// prefix of its own.
    pub fn with_resolution(series: &TimeSeries, resolution: Resolution) -> Self {
        Self {
            prefix: Arc::new(series.chunked_prefix()),
            resolution,
        }
    }

    /// Builds the planner for region `id` of `traces`, sharing the
    /// dataset's cached prefix (panics on a foreign id).
    pub fn for_region(traces: &TraceSet, id: RegionId) -> Self {
        Self {
            prefix: Arc::clone(traces.chunked_prefix_by_id(id)),
            resolution: traces.resolution(),
        }
    }

    /// Returns the trace the planner reads.
    pub fn series(&self) -> &TimeSeries {
        self.prefix.series()
    }

    /// Returns the sample resolution of the planner's trace axis.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Returns the first hour covered by the trace.
    pub fn trace_start(&self) -> Hour {
        self.prefix.start()
    }

    /// Returns the hour just past the end of the trace.
    pub fn trace_end(&self) -> Hour {
        self.series().end()
    }

    fn idx(&self, hour: Hour) -> usize {
        assert!(
            hour >= self.trace_start(),
            "hour {hour} before trace start {}",
            self.trace_start()
        );
        (hour.0 - self.trace_start().0) as usize
    }

    /// Returns the carbon cost of running `slots` hours at `arrival`
    /// (the carbon-agnostic baseline).
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the trace horizon.
    pub fn baseline_cost(&self, arrival: Hour, slots: usize) -> f64 {
        let i = self.idx(arrival);
        assert!(
            i + slots <= self.prefix.len(),
            "job at {arrival} (+{slots}h) runs past trace end"
        );
        self.prefix.sum(arrival, slots)
    }

    /// Returns the latest start the trace can accommodate for `slots`,
    /// or `None` when `slots` is longer than the whole trace.
    fn last_start(&self, slots: usize) -> Option<usize> {
        self.prefix.len().checked_sub(slots)
    }

    /// Finds the cheapest contiguous `slots`-window starting within
    /// `[arrival, arrival + slack]` (§3.2.1's minimum k-element sub-array).
    ///
    /// The slack is clamped at the trace horizon; ties resolve to the
    /// earliest start.
    // decarb-analyze: hot-path
    pub fn best_deferred(&self, arrival: Hour, slots: usize, slack: usize) -> Placement {
        let (first, last) = self.deferred_starts(arrival, slots, slack);
        cheapest_window(&self.prefix, first, last, slots)
    }

    /// The start indices `first..=last` a deferred `slots`-slot job
    /// arriving at `arrival` may take: `slack` past arrival, clamped at
    /// the trace horizon.
    fn deferred_starts(&self, arrival: Hour, slots: usize, slack: usize) -> (usize, usize) {
        let first = self.idx(arrival);
        let last_start = self.last_start(slots).filter(|&last| first <= last);
        assert!(
            last_start.is_some(),
            "job at {arrival} (+{slots}h) cannot fit before trace end"
        );
        (
            first,
            last_start.map_or(first, |last| (first + slack).min(last)),
        )
    }

    /// Returns a value no greater than
    /// `best_deferred(arrival, slots, slack).cost_g`, from the chunk
    /// minima of the planner's prefix alone (see
    /// [`ChunkedPrefix::window_floor`]), at a cost that grows with the
    /// chunks the window span touches rather than its starts.
    ///
    /// # Panics
    ///
    /// Panics when [`TemporalPlanner::best_deferred`] would.
    // decarb-analyze: hot-path
    pub fn deferred_floor(&self, arrival: Hour, slots: usize, slack: usize) -> f64 {
        let (first, last) = self.deferred_starts(arrival, slots, slack);
        self.prefix.window_floor(arrival, slots, last + 1 - first)
    }

    /// Finds the `slots` cheapest hours within
    /// `[arrival, arrival + slots + slack)` — the deferrable *and*
    /// interruptible upper bound. Returns the executed hours (ascending)
    /// and their total cost.
    pub fn best_interruptible(
        &self,
        arrival: Hour,
        slots: usize,
        slack: usize,
    ) -> (Vec<Hour>, f64) {
        let values = self.series().values();
        let first = self.idx(arrival);
        let end = (first + slots + slack).min(values.len());
        assert!(
            first + slots <= values.len(),
            "job at {arrival} (+{slots}h) cannot fit before trace end"
        );
        let window = &values[first..end];
        let chosen = k_cheapest(window, slots);
        let cost = chosen.iter().map(|&i| window[i]).sum();
        let start = self.trace_start().plus(first);
        (chosen.into_iter().map(|i| start.plus(i)).collect(), cost)
    }

    /// Sweeps every arrival in `[sweep_start, sweep_start + count)` and
    /// returns the deferred cost per arrival, in O(n) total: one
    /// [`ChunkedPrefix::window_sums`] pass over every candidate start,
    /// then a monotonic deque over those window costs. An empty sweep
    /// returns an empty `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if any arrival cannot fit `slots` hours before trace end.
    // decarb-analyze: hot-path
    pub fn deferral_sweep(
        &self,
        sweep_start: Hour,
        count: usize,
        slots: usize,
        slack: usize,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(count);
        if count == 0 {
            return out;
        }
        let first = self.idx(sweep_start);
        let last_start = self
            .last_start(slots)
            .filter(|&last| first + count - 1 <= last);
        assert!(last_start.is_some(), "sweep runs past trace end");
        let last_start = last_start.unwrap_or(first);
        // `cost[s - first]` is the window cost of start `s`.
        let starts = (first + count - 1 + slack).min(last_start) + 1 - first;
        let mut cost = Vec::with_capacity(starts);
        self.prefix
            .window_sums(sweep_start, slots, starts, |c| cost.push(c));
        // Deque of start indices with increasing window cost.
        let mut deque: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut next_push = first;
        for a in first..first + count {
            let right = (a + slack).min(last_start);
            while next_push <= right {
                let c = cost[next_push - first];
                while let Some(&back) = deque.back() {
                    if cost[back - first] >= c {
                        deque.pop_back();
                    } else {
                        break;
                    }
                }
                deque.push_back(next_push);
                next_push += 1;
            }
            while let Some(&front) = deque.front() {
                if front < a {
                    deque.pop_front();
                } else {
                    break;
                }
            }
            // `next_push <= right` always admits start `a` itself, so
            // the deque cannot be empty here; bail out cleanly anyway.
            let Some(&best) = deque.front() else { break };
            out.push(cost[best - first]);
        }
        out
    }

    /// Sweeps every arrival in `[sweep_start, sweep_start + count)` and
    /// returns the deferrable+interruptible cost per arrival: the sum of
    /// the `slots` cheapest hours of `[a, a + slots + slack)`, clamped at
    /// trace end. The samples the sweep reads are ranked once, in
    /// O(n log n); each arrival then costs O(log n) on a Fenwick tree of
    /// the counts of the ranks in its window. An empty sweep returns an
    /// empty `Vec`, and `slots = 0` returns zeros.
    ///
    /// # Panics
    ///
    /// Panics if any arrival cannot fit `slots` hours before trace end.
    pub fn interruptible_sweep(
        &self,
        sweep_start: Hour,
        count: usize,
        slots: usize,
        slack: usize,
    ) -> Vec<f64> {
        if count == 0 {
            return Vec::new();
        }
        let values = self.series().values();
        let first = self.idx(sweep_start);
        let last = first + count - 1;
        assert!(last + slots <= values.len(), "sweep runs past trace end");
        let span = &values[first..(last + slots + slack).min(values.len())];
        sliding_k_sums(span, count, slots, slots + slack)
    }

    /// Convenience: per-arrival baseline costs for a sweep.
    // decarb-analyze: hot-path
    pub fn baseline_sweep(&self, sweep_start: Hour, count: usize, slots: usize) -> Vec<f64> {
        (0..count)
            .map(|i| self.baseline_cost(sweep_start.plus(i), slots))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decarb_traces::TraceError;

    fn planner(values: &[f64]) -> TemporalPlanner {
        TemporalPlanner::new(&TimeSeries::new(Hour(0), values.to_vec()))
    }

    /// The sawtooth trace used across the tests: cheap valleys at indices
    /// 3–4 and 10–11.
    fn sawtooth() -> TemporalPlanner {
        planner(&[
            9.0, 8.0, 7.0, 1.0, 2.0, 7.0, 9.0, 9.0, 8.0, 6.0, 1.5, 2.5, 8.0, 9.0,
        ])
    }

    #[test]
    fn baseline_is_window_sum() {
        let p = sawtooth();
        assert!((p.baseline_cost(Hour(0), 3) - 24.0).abs() < 1e-12);
        assert!((p.baseline_cost(Hour(3), 2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn deferred_finds_cheapest_window() {
        let p = sawtooth();
        // Arrival 0, 2-slot job, slack 6: the best window is [3, 4].
        let placement = p.best_deferred(Hour(0), 2, 6);
        assert_eq!(placement.start, Hour(3));
        assert!((placement.cost_g - 3.0).abs() < 1e-12);
        // No slack: must start at arrival.
        let fixed = p.best_deferred(Hour(0), 2, 0);
        assert_eq!(fixed.start, Hour(0));
        assert!((fixed.cost_g - 17.0).abs() < 1e-12);
    }

    #[test]
    fn deferred_ties_resolve_earliest() {
        let p = planner(&[5.0, 2.0, 3.0, 2.0, 3.0, 9.0]);
        // Windows [1,2] and [3,4] both cost 5; earliest wins.
        let placement = p.best_deferred(Hour(0), 2, 4);
        assert_eq!(placement.start, Hour(1));
    }

    #[test]
    fn deferred_clamps_at_horizon() {
        let p = sawtooth();
        // Arrival 12 with huge slack: starts limited to index 12 (len 2).
        let placement = p.best_deferred(Hour(12), 2, 10_000);
        assert_eq!(placement.start, Hour(12));
        assert!((placement.cost_g - 17.0).abs() < 1e-12);
    }

    #[test]
    fn interruptible_picks_k_cheapest() {
        let p = sawtooth();
        let (hours, cost) = p.best_interruptible(Hour(0), 4, 8);
        // Cheapest 4 hours in [0, 12): indices 3 (1.0), 4 (2.0), 10 (1.5),
        // 11 (2.5).
        assert_eq!(hours, vec![Hour(3), Hour(4), Hour(10), Hour(11)]);
        assert!((cost - 7.0).abs() < 1e-12);
    }

    #[test]
    fn interruptible_never_worse_than_deferred() {
        let p = sawtooth();
        for arrival in 0..8u32 {
            for slots in 1..4usize {
                for slack in 0..6usize {
                    let d = p.best_deferred(Hour(arrival), slots, slack).cost_g;
                    let i = p.best_interruptible(Hour(arrival), slots, slack).1;
                    let b = p.baseline_cost(Hour(arrival), slots);
                    assert!(i <= d + 1e-12, "interrupt {i} > deferred {d}");
                    assert!(d <= b + 1e-12, "deferred {d} > baseline {b}");
                }
            }
        }
    }

    /// A job longer than the whole trace: each query stops at its own
    /// fit check instead of reading past the prefix.
    #[test]
    #[should_panic(expected = "cannot fit before trace end")]
    fn deferred_rejects_a_job_longer_than_the_trace() {
        sawtooth().best_deferred(Hour(0), 20, 4);
    }

    #[test]
    #[should_panic(expected = "sweep runs past trace end")]
    fn deferral_sweep_rejects_a_job_longer_than_the_trace() {
        sawtooth().deferral_sweep(Hour(0), 1, 20, 4);
    }

    #[test]
    #[should_panic(expected = "sweep runs past trace end")]
    fn interruptible_sweep_rejects_a_job_longer_than_the_trace() {
        sawtooth().interruptible_sweep(Hour(0), 1, 20, 4);
    }

    #[test]
    fn empty_sweeps_return_nothing() {
        // Sweeps of no arrivals, from the trace start and from past its
        // end, return empty vectors.
        let p = sawtooth();
        for start in [Hour(0), Hour(40)] {
            assert!(p.baseline_sweep(start, 0, 3).is_empty());
            assert!(p.deferral_sweep(start, 0, 3, 2).is_empty());
            assert!(p.interruptible_sweep(start, 0, 3, 2).is_empty());
        }
        // A job of no slots costs nothing at any arrival.
        assert_eq!(p.interruptible_sweep(Hour(2), 5, 0, 4), vec![0.0; 5]);
        assert_eq!(p.interruptible_sweep(Hour(10), 4, 0, 0), vec![0.0; 4]);
    }

    #[test]
    fn sweeps_match_single_queries() {
        let p = sawtooth();
        let slots = 2;
        let slack = 4;
        let count = 8;
        let deferred = p.deferral_sweep(Hour(0), count, slots, slack);
        let interrupt = p.interruptible_sweep(Hour(0), count, slots, slack);
        let baseline = p.baseline_sweep(Hour(0), count, slots);
        for a in 0..count {
            let d = p.best_deferred(Hour(a as u32), slots, slack).cost_g;
            let i = p.best_interruptible(Hour(a as u32), slots, slack).1;
            let b = p.baseline_cost(Hour(a as u32), slots);
            assert!((deferred[a] - d).abs() < 1e-9, "deferred at {a}");
            assert!((interrupt[a] - i).abs() < 1e-9, "interrupt at {a}");
            assert!((baseline[a] - b).abs() < 1e-9, "baseline at {a}");
        }
    }

    #[test]
    fn sweep_on_longer_pseudorandom_trace_matches_naive() {
        let mut x = 7u64;
        let values: Vec<f64> = (0..400)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % 900) as f64 / 3.0 + 10.0
            })
            .collect();
        let p = planner(&values);
        let slots = 5;
        let slack = 30;
        let count = 300;
        let deferred = p.deferral_sweep(Hour(0), count, slots, slack);
        let interrupt = p.interruptible_sweep(Hour(0), count, slots, slack);
        for a in (0..count).step_by(17) {
            let d = p.best_deferred(Hour(a as u32), slots, slack).cost_g;
            let i = p.best_interruptible(Hour(a as u32), slots, slack).1;
            assert!((deferred[a] - d).abs() < 1e-9);
            assert!((interrupt[a] - i).abs() < 1e-9);
        }
    }

    #[test]
    fn interruptible_sweep_from_mid_trace_clamps_at_trace_end() {
        // A trace starting at hour 100, swept from hour 103 through the
        // last arrival that fits: windows past the end keep what is left.
        let values: Vec<f64> = (0..60).map(|i| ((i * 37) % 23) as f64 + 0.5).collect();
        let p = TemporalPlanner::new(&TimeSeries::new(Hour(100), values.clone()));
        let (slots, slack) = (4, 9);
        let count = values.len() - slots + 1 - 3;
        let sweep = p.interruptible_sweep(Hour(103), count, slots, slack);
        assert_eq!(sweep.len(), count);
        for (k, got) in sweep.iter().enumerate() {
            let want = p.best_interruptible(Hour(103 + k as u32), slots, slack).1;
            assert!((got - want).abs() < 1e-9, "arrival {}", 103 + k);
        }
    }

    #[test]
    fn trace_bounds_accessors() {
        let p = sawtooth();
        assert_eq!(p.trace_start(), Hour(0));
        assert_eq!(p.trace_end(), Hour(14));
    }

    #[test]
    #[should_panic(expected = "runs past trace end")]
    fn baseline_past_end_panics() {
        sawtooth().baseline_cost(Hour(13), 2);
    }

    #[test]
    fn sub_hourly_planner_matches_hourly_backend() {
        // The resolution only labels the axis: on a trace long enough to
        // cross a ChunkedPrefix block boundary, hourly and 5-minute
        // planners over the same samples answer every query alike.
        let mut x = 3u64;
        let values: Vec<f64> = (0..9000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % 900) as f64
            })
            .collect();
        let series = TimeSeries::new(Hour(0), values);
        let five = Resolution::from_minutes(5).unwrap();
        let fine = TemporalPlanner::with_resolution(&series, five);
        assert_eq!(fine.resolution(), five);
        let flat = TemporalPlanner::new(&series);
        assert_eq!(flat.resolution(), Resolution::HOURLY);
        for arrival in [0u32, 100, 4095, 4096, 8000] {
            let d = flat.best_deferred(Hour(arrival), 24, 288);
            let f = fine.best_deferred(Hour(arrival), 24, 288);
            assert_eq!(d.start, f.start, "arrival {arrival}");
            assert_eq!(d.cost_g, f.cost_g, "arrival {arrival}");
            assert_eq!(
                flat.baseline_cost(Hour(arrival), 24),
                fine.baseline_cost(Hour(arrival), 24)
            );
            assert_eq!(
                flat.best_interruptible(Hour(arrival), 24, 288),
                fine.best_interruptible(Hour(arrival), 24, 288)
            );
        }
        let a = flat.deferral_sweep(Hour(0), 512, 24, 288);
        let b = fine.deferral_sweep(Hour(0), 512, 24, 288);
        assert_eq!(a, b);
    }

    #[test]
    fn region_planner_shares_the_dataset_prefix() {
        let se = decarb_traces::catalog::region("SE").unwrap().clone();
        let values: Vec<f64> = (0..200).map(|i| 40.0 + (i % 24) as f64 * 1.5).collect();
        let data = TraceSet::from_series(vec![(se, TimeSeries::new(Hour(0), values))]);
        let id = data.id_of("SE").unwrap();
        let shared = TemporalPlanner::for_region(&data, id);
        assert!(Arc::ptr_eq(&shared.prefix, data.chunked_prefix_by_id(id)));
        assert!(std::ptr::eq(
            shared.series().values().as_ptr(),
            data.series_by_id(id).values().as_ptr()
        ));
        let own = TemporalPlanner::new(data.series_by_id(id));
        assert_eq!(
            shared.best_deferred(Hour(3), 6, 48),
            own.best_deferred(Hour(3), 6, 48)
        );
    }

    /// A dense prefix: one relative prefix per sample, accumulated in
    /// the order `ChunkedPrefix`'s build uses. The oracle every strided
    /// sum and scan must match bit for bit.
    struct DensePrefix {
        start: Hour,
        len: usize,
        block: Vec<f64>,
        rel: Vec<f64>,
    }

    impl DensePrefix {
        fn build(start: Hour, values: &[f64]) -> Self {
            let n = values.len();
            let (mut block, mut rel) = (Vec::new(), Vec::with_capacity(n + 1));
            let (mut total, mut acc) = (0.0f64, 0.0f64);
            for (i, &v) in values.iter().enumerate() {
                if i % ChunkedPrefix::BLOCK == 0 {
                    total += acc;
                    block.push(total);
                    acc = 0.0;
                }
                rel.push(acc);
                acc += v;
            }
            if n.is_multiple_of(ChunkedPrefix::BLOCK) {
                total += acc;
                block.push(total);
                acc = 0.0;
            }
            rel.push(acc);
            Self {
                start,
                len: n,
                block,
                rel,
            }
        }

        fn try_sum(&self, from: Hour, len: usize) -> Result<f64, TraceError> {
            let i = from
                .0
                .checked_sub(self.start.0)
                .ok_or(TraceError::OutOfRange { hour: from })? as usize;
            if i + len > self.len {
                return Err(TraceError::OutOfRange {
                    hour: from.plus(len.saturating_sub(1)),
                });
            }
            let j = i + len;
            let b = ChunkedPrefix::BLOCK;
            Ok((self.block[j / b] - self.block[i / b]) + (self.rel[j] - self.rel[i]))
        }

        fn sum(&self, from: Hour, len: usize) -> f64 {
            self.try_sum(from, len).unwrap()
        }

        /// The scan `cheapest_window` ran over dense sums: strictly
        /// cheaper wins, so ties go to the earliest start.
        fn cheapest(&self, first: usize, last: usize, slots: usize) -> (Hour, f64) {
            let mut best = (first, f64::INFINITY);
            for s in first..=last {
                let cost = self.sum(self.start.plus(s), slots);
                if cost < best.1 {
                    best = (s, cost);
                }
            }
            (self.start.plus(best.0), best.1)
        }
    }

    #[test]
    fn strided_prefix_matches_the_dense_oracle_bit_for_bit() {
        use decarb_traces::rng::Xoshiro256;

        let (s, b) = (ChunkedPrefix::STRIDE, ChunkedPrefix::BLOCK);
        let mut rng = Xoshiro256::seeded(0x5742_1de5);
        // Lengths ≡ 0, 1 and STRIDE − 1 modulo STRIDE and modulo BLOCK,
        // long → short → long so the reused prefix shrinks and regrows.
        let mut lengths = vec![
            3 * b,
            0,
            1,
            s - 1,
            s,
            s + 1,
            2 * b + s - 1,
            4 * s - 1,
            b - 1,
            b,
            2 * b + 1,
            5 * s,
            b + s - 1,
            3 * b - 1,
            1,
        ];
        lengths.extend((0..6).map(|_| rng.below(3 * b)));
        let mut reused = ChunkedPrefix::default();
        for (case, &n) in lengths.iter().enumerate() {
            // Non-integers with negatives, zeros and negative zeros.
            let values: Vec<f64> = (0..n)
                .map(|_| match rng.below(10) {
                    0 => -0.0,
                    1 => 0.0,
                    2 => -rng.uniform_in(0.0, 80.0),
                    _ => rng.uniform_in(0.0, 900.0),
                })
                .collect();
            let start = Hour(1 + rng.below(5000) as u32);
            let dense = DensePrefix::build(start, &values);
            let built = ChunkedPrefix::build(&TimeSeries::new(start, values.clone()));
            reused.refill(start, |buf| buf.extend_from_slice(&values));
            assert_eq!((reused.start(), reused.len()), (start, n), "case {case}");

            // Windows ending exactly at `n`, crossing every block
            // boundary, at every offset of the first stride, and at
            // random; plus windows past either end.
            let mut windows: Vec<(usize, usize)> = (0..=n.min(2 * s)).map(|k| (n - k, k)).collect();
            windows.extend((0..=n.min(3 * s)).map(|k| (k, n - k)));
            for edge in (b..n).step_by(b) {
                for back in [1, s - 1, s, s + 1, 37] {
                    let from = edge.saturating_sub(back);
                    for len in [back, back + 1, back + s, b + 1] {
                        windows.push((from, len.min(n - from)));
                    }
                }
            }
            for _ in 0..200.min(4 * n) {
                let from = rng.below(n + 1);
                windows.push((from, rng.below(n - from + 1)));
            }
            for (from, len) in windows {
                let h = start.plus(from);
                let want = dense.sum(h, len).to_bits();
                assert_eq!(
                    built.sum(h, len).to_bits(),
                    want,
                    "case {case} {from}+{len}"
                );
                assert_eq!(
                    reused.sum(h, len).to_bits(),
                    want,
                    "case {case} {from}+{len}"
                );
                assert_eq!(
                    built.try_sum(h, len).map(f64::to_bits),
                    Ok(want),
                    "case {case} {from}+{len}"
                );
            }
            for (from, len) in [(Hour(start.0 - 1), 1), (start, n + 1), (start.plus(n), 1)] {
                assert_eq!(
                    reused.try_sum(from, len),
                    dense.try_sum(from, len),
                    "case {case} {from}+{len} out of range"
                );
            }

            // Scans: the cheapest window over random start ranges, and
            // the deferral sweep against a per-arrival dense scan.
            if n == 0 {
                continue;
            }
            let mut scans: Vec<(usize, usize, usize)> = (0..12)
                .map(|_| {
                    let slots = 1 + rng.below(n.min(3 * s + 2));
                    let first = rng.below(n - slots + 1);
                    (
                        first,
                        first + rng.below((n - slots - first).min(600) + 1),
                        slots,
                    )
                })
                .collect();
            // The last window ends exactly at `n`; others straddle
            // every block boundary with either edge.
            let slots = 1 + rng.below(n.min(2 * s));
            scans.push((
                n - slots - rng.below(n - slots + 1).min(3 * s),
                n - slots,
                slots,
            ));
            for edge in (b..n.saturating_sub(3 * s)).step_by(b) {
                let slots = 1 + rng.below(2 * s);
                scans.push((edge - slots - s, edge + s, slots));
            }
            // An empty start range finds nothing, as the dense scan did.
            scans.push((2, 0, 1));
            for (first, last, slots) in scans {
                let want = dense.cheapest(first, last, slots);
                for prefix in [&built, &reused] {
                    let got = cheapest_window(prefix, first, last, slots);
                    assert_eq!(
                        (got.start, got.cost_g.to_bits()),
                        (want.0, want.1.to_bits()),
                        "case {case} cheapest {first}..={last} x{slots}"
                    );
                }
            }
            let planner = TemporalPlanner::new(&TimeSeries::new(start, values.clone()));
            for round in 0..4 {
                let slots = 1 + rng.below(n.min(2 * s + 3));
                let slack = rng.below(3 * s);
                let mut first = rng.below(n - slots + 1);
                if round == 0 && n > b + 3 * s {
                    // Arrivals whose windows cross the first block end.
                    first = b - slots - slack - s;
                }
                let count = 1 + rng.below((n - slots - first).min(400) + 1);
                let sweep = planner.deferral_sweep(start.plus(first), count, slots, slack);
                assert_eq!(sweep.len(), count);
                for (k, got) in sweep.iter().enumerate() {
                    let a = first + k;
                    let want = dense.cheapest(a, (a + slack).min(n - slots), slots).1;
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "case {case} sweep arrival {a} x{slots} slack {slack}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "before trace start")]
    fn arrival_before_start_panics() {
        let p = TemporalPlanner::new(&TimeSeries::new(Hour(5), vec![1.0, 2.0]));
        p.baseline_cost(Hour(4), 1);
    }
}
