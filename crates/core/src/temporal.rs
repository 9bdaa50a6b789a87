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
//! (deferral) and a two-multiset sliding structure (interruptibility) for
//! O(n) / O(n log n) totals instead of O(n · window).

use std::sync::Arc;

use decarb_traces::{ChunkedPrefix, Hour, RegionId, Resolution, TimeSeries, TraceSet};

use crate::ksmallest::SlidingKSmallest;

/// The temporal flexibility a job is granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemporalPolicy {
    /// Run at arrival (the carbon-agnostic baseline).
    Immediate,
    /// Defer the start within the slack, then run contiguously.
    Deferred,
    /// Defer and interrupt: run in the cheapest hours of the window.
    DeferredInterruptible,
}

/// The result of placing a single job.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Chosen start hour (for interruptible placements, the first hour
    /// actually executed).
    pub start: Hour,
    /// Carbon cost in g·CO2eq.
    pub cost_g: f64,
}

/// A temporal scheduling planner over one region's carbon trace.
///
/// The planner is resolution-agnostic: `Hour` values are *slot*
/// indices on whatever axis the series uses, and `slots`/`slack`
/// arguments are slot counts. Callers with wall-clock inputs convert
/// once at the edge (see `Job::length_slots_at` and friends) before
/// querying. Window sums go through a shared [`ChunkedPrefix`] on every
/// axis. The planner holds a [`TimeSeries`] clone, which shares the
/// samples rather than copying them, so [`TemporalPlanner::for_region`]
/// reads the dataset's own sample buffer and cached prefix and
/// allocates neither.
#[derive(Debug, Clone)]
pub struct TemporalPlanner {
    series: TimeSeries,
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
        Self::with_prefix(series, resolution, Arc::new(series.chunked_prefix()))
    }

    /// Builds the planner for region `id` of `traces`, sharing the
    /// dataset's cached prefix (panics on a foreign id).
    pub fn for_region(traces: &TraceSet, id: RegionId) -> Self {
        Self::with_prefix(
            traces.series_by_id(id),
            traces.resolution(),
            Arc::clone(traces.chunked_prefix_by_id(id)),
        )
    }

    fn with_prefix(
        series: &TimeSeries,
        resolution: Resolution,
        prefix: Arc<ChunkedPrefix>,
    ) -> Self {
        Self {
            series: series.clone(),
            prefix,
            resolution,
        }
    }

    /// Returns the trace the planner reads.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Returns the sample resolution of the planner's trace axis.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Returns the first hour covered by the trace.
    pub fn trace_start(&self) -> Hour {
        self.series.start()
    }

    /// Returns the hour just past the end of the trace.
    pub fn trace_end(&self) -> Hour {
        self.series.end()
    }

    fn idx(&self, hour: Hour) -> usize {
        assert!(
            hour >= self.series.start(),
            "hour {hour} before trace start {}",
            self.series.start()
        );
        (hour.0 - self.series.start().0) as usize
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
            i + slots <= self.series.len(),
            "job at {arrival} (+{slots}h) runs past trace end"
        );
        self.prefix.sum(arrival, slots)
    }

    /// Returns the latest start the trace can accommodate for `slots`.
    fn last_start(&self, slots: usize) -> usize {
        self.series.len().saturating_sub(slots)
    }

    /// Finds the cheapest contiguous `slots`-window starting within
    /// `[arrival, arrival + slack]` (§3.2.1's minimum k-element sub-array).
    ///
    /// The slack is clamped at the trace horizon; ties resolve to the
    /// earliest start.
    // decarb-analyze: hot-path
    pub fn best_deferred(&self, arrival: Hour, slots: usize, slack: usize) -> Placement {
        let first = self.idx(arrival);
        let last = (first + slack).min(self.last_start(slots));
        assert!(
            first <= last,
            "job at {arrival} (+{slots}h) cannot fit before trace end"
        );
        let mut best_start = first;
        let mut best_cost = f64::INFINITY;
        for s in first..=last {
            let cost = self.prefix.sum(self.series.start().plus(s), slots);
            if cost < best_cost {
                best_cost = cost;
                best_start = s;
            }
        }
        Placement {
            start: self.series.start().plus(best_start),
            cost_g: best_cost,
        }
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
        let values = self.series.values();
        let first = self.idx(arrival);
        let end = (first + slots + slack).min(values.len());
        assert!(
            first + slots <= values.len(),
            "job at {arrival} (+{slots}h) cannot fit before trace end"
        );
        let mut indexed: Vec<(f64, usize)> = values[first..end]
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, first + i))
            .collect();
        indexed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut chosen: Vec<usize> = indexed.iter().take(slots).map(|&(_, i)| i).collect();
        chosen.sort_unstable();
        let cost = chosen.iter().map(|&i| values[i]).sum();
        (
            chosen
                .into_iter()
                .map(|i| self.series.start().plus(i))
                .collect(),
            cost,
        )
    }

    /// Returns the cost of running under `policy` for a single job.
    pub fn policy_cost(
        &self,
        policy: TemporalPolicy,
        arrival: Hour,
        slots: usize,
        slack: usize,
    ) -> f64 {
        match policy {
            TemporalPolicy::Immediate => self.baseline_cost(arrival, slots),
            TemporalPolicy::Deferred => self.best_deferred(arrival, slots, slack).cost_g,
            TemporalPolicy::DeferredInterruptible => {
                self.best_interruptible(arrival, slots, slack).1
            }
        }
    }

    /// Sweeps every arrival in `[sweep_start, sweep_start + count)` and
    /// returns the deferred cost per arrival, in O(n) total via a
    /// monotonic deque over window costs.
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
        let first = self.idx(sweep_start);
        let last_start = self.last_start(slots);
        assert!(first + count - 1 <= last_start, "sweep runs past trace end");
        // Deque of start indices with increasing window cost.
        let mut deque: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut next_push = first;
        let mut out = Vec::with_capacity(count);
        let window_cost = |s: usize| -> f64 { self.prefix.sum(self.series.start().plus(s), slots) };
        for a in first..first + count {
            let right = (a + slack).min(last_start);
            while next_push <= right {
                let cost = window_cost(next_push);
                while let Some(&back) = deque.back() {
                    if window_cost(back) >= cost {
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
            out.push(window_cost(best));
        }
        out
    }

    /// Sweeps every arrival in `[sweep_start, sweep_start + count)` and
    /// returns the deferrable+interruptible cost per arrival, in
    /// O(n log n) total via [`SlidingKSmallest`].
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
        let values = self.series.values();
        let first = self.idx(sweep_start);
        assert!(
            first + count - 1 + slots <= values.len(),
            "sweep runs past trace end"
        );
        let mut set = SlidingKSmallest::new(slots);
        let mut right = first;
        let mut out = Vec::with_capacity(count);
        for a in first..first + count {
            let target_right = (a + slots + slack).min(values.len());
            while right < target_right {
                set.insert(values[right]);
                right += 1;
            }
            if a > first {
                set.remove(values[a - 1]);
            }
            out.push(set.k_sum());
        }
        out
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

    #[test]
    fn policy_cost_dispatch() {
        let p = sawtooth();
        let b = p.policy_cost(TemporalPolicy::Immediate, Hour(0), 2, 6);
        let d = p.policy_cost(TemporalPolicy::Deferred, Hour(0), 2, 6);
        let i = p.policy_cost(TemporalPolicy::DeferredInterruptible, Hour(0), 2, 6);
        assert!(i <= d && d <= b);
        assert!((b - 17.0).abs() < 1e-12);
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

    #[test]
    #[should_panic(expected = "before trace start")]
    fn arrival_before_start_panics() {
        let p = TemporalPlanner::new(&TimeSeries::new(Hour(5), vec![1.0, 2.0]));
        p.baseline_cost(Hour(4), 1);
    }
}
