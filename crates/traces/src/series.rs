//! Time series and the prefix-sum structure behind every window-sum query.

use std::sync::Arc;

use crate::error::TraceError;
use crate::time::Hour;

/// An hourly time series anchored at an absolute [`Hour`].
///
/// The series holds a dense buffer of samples; index `i` holds the value
/// for hour `start + i`. All scheduling kernels in `decarb-core` consume
/// slices of this type. The buffer sits behind an `Arc`, so a clone
/// shares the samples instead of copying them: a dataset and every
/// planner over one of its regions read the same memory.
/// [`TimeSeries::map_in_place`] copies on write when the buffer is
/// shared.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    start: Hour,
    values: Arc<Vec<f64>>,
}

impl TimeSeries {
    /// Creates a series from a start hour and raw samples (the vector
    /// is moved in, not copied).
    pub fn new(start: Hour, values: Vec<f64>) -> Self {
        Self {
            start,
            values: Arc::new(values),
        }
    }

    /// Returns the absolute hour of the first sample.
    #[inline]
    pub fn start(&self) -> Hour {
        self.start
    }

    /// Returns the absolute hour just past the last sample.
    #[inline]
    pub fn end(&self) -> Hour {
        self.start.plus(self.len())
    }

    /// Returns the number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the series holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Returns the raw sample slice.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Returns the sample at absolute hour `hour`, if in range.
    #[inline]
    pub fn at(&self, hour: Hour) -> Option<f64> {
        let i = hour.0.checked_sub(self.start.0)? as usize;
        self.values.get(i).copied()
    }

    /// Returns the sample at absolute hour `hour`.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is out of range; use [`TimeSeries::at`] for a
    /// fallible lookup.
    #[inline]
    pub fn get(&self, hour: Hour) -> f64 {
        self.at(hour).unwrap_or_else(|| {
            // decarb-analyze: allow(no-panic) -- documented panicking accessor; `at` is the fallible sibling
            panic!(
                "hour {hour} outside series [{}, {})",
                self.start,
                self.end()
            )
        })
    }

    /// Returns the contiguous window of `len` samples starting at `from`.
    pub fn window(&self, from: Hour, len: usize) -> Result<&[f64], TraceError> {
        let i = from
            .0
            .checked_sub(self.start.0)
            .ok_or(TraceError::OutOfRange { hour: from })? as usize;
        if i + len > self.values.len() {
            return Err(TraceError::OutOfRange {
                hour: from.plus(len.saturating_sub(1)),
            });
        }
        Ok(&self.values[i..i + len])
    }

    /// Returns a new series holding the samples for hours `[from, from+len)`.
    pub fn slice(&self, from: Hour, len: usize) -> Result<TimeSeries, TraceError> {
        Ok(TimeSeries::new(from, self.window(from, len)?.to_vec()))
    }

    /// Returns the arithmetic mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Returns the minimum sample (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Returns the maximum sample (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Iterates over `(hour, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Hour, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (self.start.plus(i), v))
    }

    /// Applies `f` to every sample in place, first copying the samples
    /// if another clone still shares them.
    pub fn map_in_place(&mut self, mut f: impl FnMut(Hour, f64) -> f64) {
        for (i, v) in Arc::make_mut(&mut self.values).iter_mut().enumerate() {
            *v = f(self.start.plus(i), *v);
        }
    }

    /// Builds the [`ChunkedPrefix`] window-sum accelerator over this
    /// series.
    pub fn chunked_prefix(&self) -> ChunkedPrefix {
        ChunkedPrefix::build(self)
    }
}

/// Prefix sums over a [`TimeSeries`], enabling O(1) window-cost queries.
///
/// `sum(from, len)` returns the total carbon cost (assuming a unit 1 kW
/// draw) of running for `len` contiguous slots starting at `from`, the
/// primitive every temporal-shifting kernel and the simulator's span
/// accrual are built on. It serves every axis, hourly and sub-hourly.
///
/// The series is split into fixed blocks: a small block-level prefix
/// (sum of everything before each block) plus within-block relative
/// prefixes whose magnitudes stay near one block's sum. Short windows
/// resolve inside one or two blocks, and because the block and relative
/// differences are taken separately, a window sum carries the rounding
/// of at most one block total rather than that of a monotonically
/// growing global accumulator.
#[derive(Debug, Clone)]
pub struct ChunkedPrefix {
    start: Hour,
    len: usize,
    /// `block[k]` is the exact sum of all samples before block `k`.
    block: Vec<f64>,
    /// `rel[i]` is the sum of samples within `i`'s block up to and
    /// including sample `i-1` of that block (0.0 at block starts);
    /// laid out densely parallel to the samples, plus one tail entry
    /// per block boundary folded into indexing below.
    rel: Vec<f64>,
}

impl ChunkedPrefix {
    /// Samples per block: 4096 f64s = 32 kB of relative prefixes per
    /// block, sized to L1/L2-friendly strides for sliding windows.
    pub const BLOCK: usize = 4096;

    /// Builds the two-level prefix over `series`.
    pub fn build(series: &TimeSeries) -> Self {
        let n = series.len();
        // `rel` holds, for position i, the sum of `i`'s block's samples
        // strictly before `i` — an (n+1)-entry array so a window ending
        // exactly at `n` indexes cleanly.
        let mut block = Vec::with_capacity(n / Self::BLOCK + 2);
        let mut rel = Vec::with_capacity(n + 1);
        let mut total = 0.0f64;
        let mut acc = 0.0f64;
        for (i, &v) in series.values().iter().enumerate() {
            if i % Self::BLOCK == 0 {
                total += acc;
                block.push(total);
                acc = 0.0;
            }
            rel.push(acc);
            acc += v;
        }
        // Position `n` either opens a fresh block (exact multiple) or
        // tails off the current one.
        if n.is_multiple_of(Self::BLOCK) {
            total += acc;
            block.push(total);
            acc = 0.0;
        }
        rel.push(acc);
        Self {
            start: series.start(),
            len: n,
            block,
            rel,
        }
    }

    /// Returns the number of underlying samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if there are no underlying samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the start hour (slot) of the underlying series.
    #[inline]
    pub fn start(&self) -> Hour {
        self.start
    }

    /// Sum of samples `[i, j)`. The block and relative differences are
    /// taken apart, so neither side of the subtraction ever holds a
    /// large absolute prefix.
    #[inline]
    fn span(&self, i: usize, j: usize) -> f64 {
        (self.block[j / Self::BLOCK] - self.block[i / Self::BLOCK]) + (self.rel[j] - self.rel[i])
    }

    /// Returns the sum of `len` samples starting at absolute slot
    /// `from`.
    ///
    /// # Panics
    ///
    /// Panics if the window is out of range.
    #[inline]
    pub fn sum(&self, from: Hour, len: usize) -> f64 {
        let i = (from.0 - self.start.0) as usize;
        self.span(i, i + len)
    }

    /// Fallible version of [`ChunkedPrefix::sum`].
    pub fn try_sum(&self, from: Hour, len: usize) -> Result<f64, TraceError> {
        let i = from
            .0
            .checked_sub(self.start.0)
            .ok_or(TraceError::OutOfRange { hour: from })? as usize;
        if i + len > self.len {
            return Err(TraceError::OutOfRange {
                hour: from.plus(len.saturating_sub(1)),
            });
        }
        Ok(self.span(i, i + len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(values: &[f64]) -> TimeSeries {
        TimeSeries::new(Hour(10), values.to_vec())
    }

    #[test]
    fn basic_accessors() {
        let s = ts(&[1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.start(), Hour(10));
        assert_eq!(s.end(), Hour(13));
        assert_eq!(s.at(Hour(11)), Some(2.0));
        assert_eq!(s.at(Hour(13)), None);
        assert_eq!(s.at(Hour(9)), None);
        assert_eq!(s.get(Hour(12)), 3.0);
    }

    #[test]
    fn window_and_slice() {
        let s = ts(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.window(Hour(11), 2).unwrap(), &[2.0, 3.0]);
        assert!(s.window(Hour(11), 4).is_err());
        assert!(s.window(Hour(9), 1).is_err());
        let sub = s.slice(Hour(12), 2).unwrap();
        assert_eq!(sub.start(), Hour(12));
        assert_eq!(sub.values(), &[3.0, 4.0]);
    }

    #[test]
    fn stats() {
        let s = ts(&[2.0, 4.0, 6.0]);
        assert!((s.mean() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 6.0);
        let empty = TimeSeries::new(Hour(0), vec![]);
        assert_eq!(empty.mean(), 0.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn iter_yields_absolute_hours() {
        let s = ts(&[1.0, 2.0]);
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(pairs, vec![(Hour(10), 1.0), (Hour(11), 2.0)]);
    }

    #[test]
    fn map_in_place_applies() {
        let mut s = ts(&[1.0, 2.0]);
        s.map_in_place(|h, v| v + h.index() as f64);
        assert_eq!(s.values(), &[11.0, 13.0]);
    }

    #[test]
    fn clones_share_samples_until_one_is_mapped() {
        let original = ts(&[1.0, 2.0]);
        let mut copy = original.clone();
        assert!(std::ptr::eq(
            original.values().as_ptr(),
            copy.values().as_ptr()
        ));
        copy.map_in_place(|_, v| v * 2.0);
        assert_eq!(original.values(), &[1.0, 2.0]);
        assert_eq!(copy.values(), &[2.0, 4.0]);
        assert!(!std::ptr::eq(
            original.values().as_ptr(),
            copy.values().as_ptr()
        ));
    }

    #[test]
    fn prefix_sums_match_direct() {
        // Non-integer values, read back through the checked path: every
        // in-range window's try_sum equals the sum of its window slice.
        let s = ts(&[0.1, 2.7, 3.3, 4.05, 5.5, 0.35]);
        let p = ChunkedPrefix::build(&s);
        for from in 0..6usize {
            for len in 0..=(6 - from) {
                let h = Hour(10 + from as u32);
                let direct: f64 = s.window(h, len).unwrap().iter().sum();
                let fast = p.try_sum(h, len).unwrap();
                assert!((direct - fast).abs() < 1e-12, "from={from} len={len}");
            }
        }
    }

    #[test]
    fn chunked_prefix_matches_direct_sums() {
        let s = ts(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let c = s.chunked_prefix();
        assert_eq!(c.len(), 5);
        assert_eq!(c.start(), Hour(10));
        for from in 0..5usize {
            for len in 0..=(5 - from) {
                let direct: f64 = s.values()[from..from + len].iter().sum();
                let fast = c.sum(Hour(10 + from as u32), len);
                assert!((direct - fast).abs() < 1e-12, "from={from} len={len}");
            }
        }
    }

    #[test]
    fn prefix_try_sum_bounds() {
        let s = ts(&[1.0, 2.0]);
        let p = s.chunked_prefix();
        assert!(p.try_sum(Hour(10), 2).is_ok());
        assert!(p.try_sum(Hour(10), 3).is_err());
        assert!(p.try_sum(Hour(9), 1).is_err());
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn one_slot_windows_stay_within_1e9_of_their_sample() {
        // A four-year hourly trace of non-integer values: a window that
        // straddles a block boundary subtracts block totals near 1.6e7,
        // so the block and relative differences must be taken apart to
        // keep every one-slot sum within 1e-9 of its sample.
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let values: Vec<f64> = (0..35_064)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                20.0 + 880.0 * ((x >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect();
        let series = TimeSeries::new(Hour(0), values.clone());
        let p = series.chunked_prefix();
        for (i, &v) in values.iter().enumerate() {
            let got = p.sum(Hour(i as u32), 1);
            assert!((got - v).abs() <= 1e-9, "slot {i}: {got} vs {v}");
        }
    }

    #[test]
    fn chunked_prefix_crosses_block_boundaries() {
        // Integer-valued series spanning several blocks: sums crossing
        // block boundaries must be exact (integers stay exact in f64).
        let n = ChunkedPrefix::BLOCK * 2 + 500;
        let values: Vec<f64> = (0..n).map(|i| (i % 97) as f64).collect();
        let series = TimeSeries::new(Hour(0), values.clone());
        let c = series.chunked_prefix();
        for (from, len) in [
            (0, n),
            (ChunkedPrefix::BLOCK - 3, 7),
            (ChunkedPrefix::BLOCK - 1, ChunkedPrefix::BLOCK + 2),
            (ChunkedPrefix::BLOCK * 2 - 1, 501),
            (17, 4096),
            (n - 1, 1),
            (n, 0),
        ] {
            let direct: f64 = values[from..from + len].iter().sum();
            assert_eq!(c.sum(Hour(from as u32), len), direct, "{from}+{len}");
        }
    }

    #[test]
    fn chunked_prefix_exact_block_multiple_and_bounds() {
        let n = ChunkedPrefix::BLOCK;
        let values: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();
        let series = TimeSeries::new(Hour(5), values.clone());
        let c = series.chunked_prefix();
        let total: f64 = values.iter().sum();
        assert_eq!(c.sum(Hour(5), n), total);
        assert!(c.try_sum(Hour(5), n).is_ok());
        assert!(c.try_sum(Hour(5), n + 1).is_err());
        assert!(c.try_sum(Hour(4), 1).is_err());
        let empty = TimeSeries::new(Hour(0), vec![]).chunked_prefix();
        assert!(empty.is_empty());
        assert_eq!(empty.sum(Hour(0), 0), 0.0);
    }
}
