//! Time series and the prefix-sum structure behind every window-sum query.

use std::sync::Arc;

use crate::error::TraceError;
use crate::time::Hour;

/// An hourly time series anchored at an absolute [`Hour`].
///
/// The series is a window onto a dense buffer of samples; index `i` of
/// the window holds the value for hour `start + i`. All scheduling
/// kernels in `decarb-core` consume slices of this type. The buffer
/// sits behind an `Arc`, so a clone shares the samples instead of
/// copying them: a dataset and every planner over one of its regions
/// read the same memory. [`TimeSeries::slice`] is an O(1) view onto the
/// same buffer, so a view keeps its parent's whole buffer alive; copy a
/// small window that outlives a large temporary parent with
/// `TimeSeries::new(from, window.to_vec())`.
/// [`TimeSeries::map_in_place`] copies the window on write when the
/// buffer is shared or the series is a view.
#[derive(Clone)]
pub struct TimeSeries {
    start: Hour,
    buffer: Arc<Vec<f64>>,
    /// Index of the window's first sample in `buffer`.
    offset: usize,
    /// Number of samples in the window.
    len: usize,
}

impl TimeSeries {
    /// Creates a series from a start hour and raw samples (the vector
    /// is moved in, not copied).
    pub fn new(start: Hour, values: Vec<f64>) -> Self {
        Self {
            start,
            len: values.len(),
            offset: 0,
            buffer: Arc::new(values),
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
        self.start.plus(self.len)
    }

    /// Returns the number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the series holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the raw sample slice.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.buffer[self.offset..self.offset + self.len]
    }

    /// Returns the sample at absolute hour `hour`, if in range.
    #[inline]
    pub fn at(&self, hour: Hour) -> Option<f64> {
        let i = hour.0.checked_sub(self.start.0)? as usize;
        self.values().get(i).copied()
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

    /// Returns the index into `values()` of the window of `len` samples
    /// starting at `from`.
    fn locate(&self, from: Hour, len: usize) -> Result<usize, TraceError> {
        let i = from
            .0
            .checked_sub(self.start.0)
            .ok_or(TraceError::OutOfRange { hour: from })? as usize;
        if i.checked_add(len).is_none_or(|end| end > self.len) {
            // The window's last hour, saturated at the largest `Hour`.
            let last = u32::try_from(len.saturating_sub(1)).unwrap_or(u32::MAX);
            return Err(TraceError::OutOfRange {
                hour: Hour(from.0.saturating_add(last)),
            });
        }
        Ok(i)
    }

    /// Returns the contiguous window of `len` samples starting at `from`.
    pub fn window(&self, from: Hour, len: usize) -> Result<&[f64], TraceError> {
        let i = self.locate(from, len)?;
        Ok(&self.values()[i..i + len])
    }

    /// Returns the series of hours `[from, from+len)` as an O(1) view
    /// sharing this series' buffer.
    pub fn slice(&self, from: Hour, len: usize) -> Result<TimeSeries, TraceError> {
        let i = self.locate(from, len)?;
        Ok(TimeSeries {
            start: from,
            buffer: Arc::clone(&self.buffer),
            offset: self.offset + i,
            len,
        })
    }

    /// Returns the arithmetic mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.values().iter().sum::<f64>() / self.len as f64
    }

    /// Returns the minimum sample (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.values().iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Returns the maximum sample (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.values()
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Iterates over `(hour, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Hour, f64)> + '_ {
        self.values()
            .iter()
            .enumerate()
            .map(move |(i, &v)| (self.start.plus(i), v))
    }

    /// Applies `f` to every sample in place. A view, or a series whose
    /// buffer another clone still shares, first copies its window into
    /// a buffer of its own.
    pub fn map_in_place(&mut self, mut f: impl FnMut(Hour, f64) -> f64) {
        if self.offset != 0 || self.len != self.buffer.len() {
            self.buffer = Arc::new(self.values().to_vec());
            self.offset = 0;
        }
        for (i, v) in Arc::make_mut(&mut self.buffer).iter_mut().enumerate() {
            *v = f(self.start.plus(i), *v);
        }
    }

    /// Replaces the samples with those `fill` appends to an empty
    /// buffer, now starting at `start`. The buffer is reused when no
    /// other clone shares it, so its capacity carries over.
    fn refill<R>(&mut self, start: Hour, fill: impl FnOnce(&mut Vec<f64>) -> R) -> R {
        if Arc::get_mut(&mut self.buffer).is_none() {
            self.buffer = Arc::new(Vec::new());
        }
        // Unique after the line above, so this clones nothing.
        let buffer = Arc::make_mut(&mut self.buffer);
        buffer.clear();
        let out = fill(buffer);
        self.start = start;
        self.offset = 0;
        self.len = buffer.len();
        out
    }

    /// Builds the [`ChunkedPrefix`] window-sum accelerator over this
    /// series.
    pub fn chunked_prefix(&self) -> ChunkedPrefix {
        ChunkedPrefix::build(self)
    }
}

/// Two series are equal when they start at the same hour and their
/// windows hold the same samples, wherever those samples live.
impl PartialEq for TimeSeries {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start && self.values() == other.values()
    }
}

/// Prints the start and the window only, so a one-day view of a long
/// trace does not print the whole trace.
impl std::fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeSeries")
            .field("start", &self.start)
            .field("values", &self.values())
            .finish()
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
///
/// The relative prefix is stored only at every [`STRIDE`]-th position
/// (an *anchor*), and the prefix reads the samples themselves through
/// a [`TimeSeries`] clone that shares their buffer, so it adds one
/// `f64` per `STRIDE` samples to the trace instead of one per sample.
/// The relative prefix at any other position is its anchor plus at
/// most `STRIDE − 1` samples, added in the order the build accumulated
/// them, so every sum is the one a dense per-sample prefix would give,
/// bit for bit. [`ChunkedPrefix::window_sums`] answers a run of
/// consecutive starts, restarting from the stored anchor at each
/// stride boundary.
///
/// The same pass keeps the smallest sample of every [`CHUNK`]-sample
/// chunk, so [`ChunkedPrefix::window_floor`] bounds the cheapest of a
/// run of windows from below without reading the samples. All told
/// the prefix holds one `f64` per `STRIDE` samples (an anchor), one
/// per `CHUNK` samples (a chunk minimum) and one per [`BLOCK`] samples
/// (a block total) besides the samples it shares: about 1.03 bytes
/// per sample, an eighth of the samples' own 8.
///
/// [`STRIDE`]: ChunkedPrefix::STRIDE
/// [`CHUNK`]: ChunkedPrefix::CHUNK
/// [`BLOCK`]: ChunkedPrefix::BLOCK
#[derive(Debug, Clone)]
pub struct ChunkedPrefix {
    /// The samples, anchored at the first slot.
    series: TimeSeries,
    /// `block[k]` is the exact sum of all samples before block `k`.
    block: Vec<f64>,
    /// `anchor[m]` is the sum of the samples of position `m·STRIDE`'s
    /// block strictly before that position (0.0 at block starts), one
    /// entry for every position `0..=len` that is a multiple of
    /// `STRIDE`.
    anchor: Vec<f64>,
    /// `low[c]` is the smallest sample of chunk `c`, positions
    /// `c·CHUNK .. (c+1)·CHUNK` (NaN samples skipped; +∞ for a chunk
    /// of NaNs only).
    low: Vec<f64>,
    /// The sum of all samples, as the build accumulated it.
    total: f64,
    /// `Σ max(−low[c], 0)`: with `total`, bounds `Σ|v|` (see
    /// [`ChunkedPrefix::window_floor`]).
    negative: f64,
}

/// The prefix of an empty series at slot 0, ready to be
/// [refilled](ChunkedPrefix::refill).
impl Default for ChunkedPrefix {
    fn default() -> Self {
        Self::build(&TimeSeries::new(Hour(0), Vec::new()))
    }
}

impl ChunkedPrefix {
    /// Samples per block: each block's relative prefixes restart at
    /// 0.0, so no relative prefix grows past one block's sum.
    pub const BLOCK: usize = 4096;

    /// Samples per stored anchor; divides [`ChunkedPrefix::BLOCK`], so
    /// every block start is an anchor.
    pub const STRIDE: usize = 8;

    /// Samples per stored chunk minimum; a multiple of
    /// [`ChunkedPrefix::STRIDE`] that divides [`ChunkedPrefix::BLOCK`].
    pub const CHUNK: usize = 256;

    /// Builds the prefix over `series`, sharing its samples.
    pub fn build(series: &TimeSeries) -> Self {
        let mut prefix = Self {
            series: series.clone(),
            block: Vec::new(),
            anchor: Vec::new(),
            low: Vec::new(),
            total: 0.0,
            negative: 0.0,
        };
        prefix.index();
        prefix
    }

    /// Rebuilds the prefix in place over the samples `fill` appends to
    /// an empty buffer, those of slots `start..`, and returns what
    /// `fill` returns. The buffer and the prefix's own arrays keep
    /// their capacity from one refill to the next (unless another clone
    /// still shares the samples), so a caller that plans window after
    /// window allocates only when a window outgrows every earlier one.
    pub fn refill<R>(&mut self, start: Hour, fill: impl FnOnce(&mut Vec<f64>) -> R) -> R {
        let out = self.series.refill(start, fill);
        self.index();
        out
    }

    /// Recomputes the block totals, anchors and chunk minima over the
    /// samples in one pass, chunk by chunk and stride by stride, in the
    /// order the samples lie.
    fn index(&mut self) {
        let values = self.series.values();
        let n = values.len();
        let (block, anchor, low) = (&mut self.block, &mut self.anchor, &mut self.low);
        block.clear();
        anchor.clear();
        low.clear();
        block.reserve(n / Self::BLOCK + 1);
        anchor.reserve(n / Self::STRIDE + 1);
        low.reserve(n.div_ceil(Self::CHUNK));
        let mut total = 0.0f64;
        let mut acc = 0.0f64;
        let mut negative = 0.0f64;
        for (c, chunk) in values.chunks(Self::CHUNK).enumerate() {
            if (c * Self::CHUNK).is_multiple_of(Self::BLOCK) {
                total += acc;
                block.push(total);
                acc = 0.0;
            }
            // Four running minima, two samples of a stride each, beside
            // the running sum rather than after it; `b < a` skips NaN
            // samples. Short windows (a forecast refill is one chunk)
            // pay no more than the sum's own chain for them.
            const { assert!(Self::STRIDE == 8) };
            let lesser = |a: f64, b: f64| if b < a { b } else { a };
            let [mut l0, mut l1, mut l2, mut l3] = [f64::INFINITY; 4];
            let mut strides = chunk.chunks_exact(Self::STRIDE);
            for s in &mut strides {
                anchor.push(acc);
                for &v in s {
                    acc += v;
                }
                l0 = lesser(lesser(l0, s[0]), s[4]);
                l1 = lesser(lesser(l1, s[1]), s[5]);
                l2 = lesser(lesser(l2, s[2]), s[6]);
                l3 = lesser(lesser(l3, s[3]), s[7]);
            }
            let rest = strides.remainder();
            if !rest.is_empty() {
                anchor.push(acc);
                for &v in rest {
                    acc += v;
                    l0 = lesser(l0, v);
                }
            }
            let least = lesser(lesser(l0, l1), lesser(l2, l3));
            if least < 0.0 {
                negative -= least;
            }
            low.push(least);
        }
        // Position `n` either opens a fresh block (exact multiple) or
        // tails off the current one.
        if n.is_multiple_of(Self::BLOCK) {
            total += acc;
            block.push(total);
            acc = 0.0;
        }
        if n.is_multiple_of(Self::STRIDE) {
            anchor.push(acc);
        }
        self.total = total + acc;
        self.negative = negative;
    }

    /// How far below the exact sum of its samples a window sum of this
    /// prefix can lie (see [`ChunkedPrefix::window_floor`]); NaN or +∞
    /// when the samples are not all finite. `Σ|v| = Σv + 2·Σmax(−v, 0)`,
    /// and a chunk's negative part is at most `CHUNK` times its
    /// minimum's, so the chunk minima bound `Σ|v|` without a second
    /// pass over the samples.
    fn slop(&self) -> f64 {
        let magnitude = self.total.abs() + 2.0 * Self::CHUNK as f64 * self.negative;
        (Self::BLOCK + self.block.len() + 4) as f64 * f64::EPSILON * magnitude
    }

    /// Returns the number of underlying samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Returns `true` if there are no underlying samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Returns the start hour (slot) of the underlying series.
    #[inline]
    pub fn start(&self) -> Hour {
        self.series.start()
    }

    /// Returns the samples the prefix sums.
    #[inline]
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// The sum of position `i`'s block's samples strictly before `i`:
    /// its anchor plus the samples between, in build order.
    #[inline]
    fn rel(&self, i: usize) -> f64 {
        let base = i - i % Self::STRIDE;
        let mut acc = self.anchor[i / Self::STRIDE];
        for &v in &self.series.values()[base..i] {
            acc += v;
        }
        acc
    }

    /// Sum of samples `[i, j)`. The block and relative differences are
    /// taken apart, so neither side of the subtraction ever holds a
    /// large absolute prefix.
    #[inline]
    fn span(&self, i: usize, j: usize) -> f64 {
        (self.block[j / Self::BLOCK] - self.block[i / Self::BLOCK]) + (self.rel(j) - self.rel(i))
    }

    /// Returns the sum of `len` samples starting at absolute slot
    /// `from`.
    ///
    /// # Panics
    ///
    /// Panics if the window is out of range.
    #[inline]
    pub fn sum(&self, from: Hour, len: usize) -> f64 {
        let i = (from.0 - self.start().0) as usize;
        self.span(i, i + len)
    }

    /// Fallible version of [`ChunkedPrefix::sum`].
    pub fn try_sum(&self, from: Hour, len: usize) -> Result<f64, TraceError> {
        let i = from
            .0
            .checked_sub(self.start().0)
            .ok_or(TraceError::OutOfRange { hour: from })? as usize;
        if i + len > self.len() {
            return Err(TraceError::OutOfRange {
                hour: from.plus(len.saturating_sub(1)),
            });
        }
        Ok(self.span(i, i + len))
    }

    /// Returns a value no greater than any sample of slots
    /// `[from, from + len)`: the least stored minimum of the chunks the
    /// range touches, read without touching the samples (+∞ for an
    /// empty range; NaN samples are skipped).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline]
    pub fn floor(&self, from: Hour, len: usize) -> f64 {
        let i = (from.0 - self.start().0) as usize;
        assert!(
            i + len <= self.len(),
            "range {from} (+{len}) runs past the prefix"
        );
        if len == 0 {
            return f64::INFINITY;
        }
        self.low[i / Self::CHUNK..=(i + len - 1) / Self::CHUNK]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Returns a value no greater than any of the sums
    /// [`ChunkedPrefix::window_sums`] hands out for the same
    /// arguments (+∞ when `count` is zero), or −∞ when the samples are
    /// not all finite.
    ///
    /// Each window holds `len` samples no smaller than
    /// `m = floor(from, count − 1 + len)`, so its exact sum is at least
    /// `len · m`. What the prefix returns can lie below the exact sum
    /// by rounding only, and the `slop` subtracted here bounds that
    /// rounding for every window. With `u = ε/2` the unit roundoff,
    /// `S = Σ|v|` over the whole series and `B` the number of stored
    /// block totals, a window sum is
    /// `(block[j] − block[i]) + (rel(j) − rel(i))`, and
    /// - the block difference is the within-block recursive sums of
    ///   the blocks it spans (each off by at most `(BLOCK − 1)·u` times
    ///   its block's `Σ|v|`) plus one rounded addition per block
    ///   crossed (each at most `u·S`), then one rounded subtraction;
    /// - each relative prefix is a within-block recursive sum, off by
    ///   at most `(BLOCK − 1)·u` times its block's `Σ|v|`, then one
    ///   rounded subtraction;
    /// - one rounded addition joins the two.
    ///
    /// The window's first block is counted at most twice, so the error
    /// is below `(2·BLOCK + B + 1)·u·S` to first order, and the
    /// prefix's `(BLOCK + B + 4)·ε·S` is at least twice that, leaving
    /// room for the higher-order terms, for the rounding of `len · m`
    /// (covered by a further `ε·|len · m|`) and for the bound on `S`
    /// read off the chunk minima. The floor is thus a proven lower
    /// bound, not an estimate: a caller may discard a run of windows
    /// whose floor exceeds a sum it already holds and lose nothing.
    ///
    /// The samples can hold NaN or ±∞: a CSV value parses through
    /// `f64::from_str`, which reads `NaN` and `inf`, and a container
    /// stores raw bits. A NaN anywhere makes the slop NaN, an infinity
    /// makes it +∞, and either way the floor is −∞, which discards
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if the last window `[from + count − 1, +len)` is out of
    /// range.
    #[inline]
    pub fn window_floor(&self, from: Hour, len: usize, count: usize) -> f64 {
        if count == 0 {
            return f64::INFINITY;
        }
        let least = len as f64 * self.floor(from, count - 1 + len);
        let floor = least - (self.slop() + least.abs() * f64::EPSILON);
        if floor.is_nan() {
            f64::NEG_INFINITY
        } else {
            floor
        }
    }

    /// Hands `each`, in order, the sums of the `len` samples starting
    /// at slots `from`, `from + 1`, …, `from + count − 1`, each bit for
    /// bit what [`ChunkedPrefix::sum`] returns for that window, at a
    /// fraction of the cost of one `sum` per start: the relative
    /// prefixes at the window starts and ends each run on by one sample
    /// per step, restarting from the stored anchor at every stride
    /// boundary. There the anchor equals the running value bit for bit,
    /// except at a block start, where it is the 0.0 the block restarts
    /// from.
    ///
    /// # Panics
    ///
    /// Panics if the last window `[from + count − 1, +len)` is out of
    /// range.
    // decarb-analyze: hot-path
    #[inline]
    pub fn window_sums(&self, from: Hour, len: usize, count: usize, mut each: impl FnMut(f64)) {
        let first = (from.0 - self.start().0) as usize;
        if count == 0 {
            return;
        }
        assert!(
            first + count - 1 + len <= self.len(),
            "windows from {from} (+{len}) run past the prefix"
        );
        let values = self.series.values();
        let (mut i, mut j) = (first, first + len);
        let (mut lo, mut hi) = (self.rel(i), self.rel(j));
        let (mut block_lo, mut block_hi) =
            (self.block[i / Self::BLOCK], self.block[j / Self::BLOCK]);
        each((block_hi - block_lo) + (hi - lo));
        let steps = count - 1;
        for (&leaving, &entering) in values[i..i + steps].iter().zip(&values[j..j + steps]) {
            lo += leaving;
            hi += entering;
            i += 1;
            j += 1;
            // Block starts are stride boundaries, so only a reload can
            // move a window edge into the next block.
            if i % Self::STRIDE == 0 {
                lo = self.anchor[i / Self::STRIDE];
                if i % Self::BLOCK == 0 {
                    block_lo = self.block[i / Self::BLOCK];
                }
            }
            if j % Self::STRIDE == 0 {
                hi = self.anchor[j / Self::STRIDE];
                if j % Self::BLOCK == 0 {
                    block_hi = self.block[j / Self::BLOCK];
                }
            }
            each((block_hi - block_lo) + (hi - lo));
        }
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
    fn slice_of_a_slice_has_the_right_start_and_values() {
        let s = ts(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let outer = s.slice(Hour(11), 4).unwrap();
        let inner = outer.slice(Hour(13), 2).unwrap();
        assert_eq!(inner.start(), Hour(13));
        assert_eq!(inner.end(), Hour(15));
        assert_eq!(inner.len(), 2);
        assert_eq!(inner.values(), &[4.0, 5.0]);
        assert_eq!(inner.at(Hour(12)), None);
        assert_eq!(inner.at(Hour(14)), Some(5.0));
        assert_eq!(inner.at(Hour(15)), None);
        assert_eq!(inner.window(Hour(14), 1).unwrap(), &[5.0]);
        assert_eq!(inner.mean(), 4.5);
        assert_eq!(inner.min(), 4.0);
        assert_eq!(inner.max(), 5.0);
        let pairs: Vec<_> = inner.iter().collect();
        assert_eq!(pairs, vec![(Hour(13), 4.0), (Hour(14), 5.0)]);
        // Both views read the parent's buffer.
        assert!(std::ptr::eq(inner.values().as_ptr(), &s.values()[3]));
    }

    #[test]
    fn a_view_equals_an_owned_copy_of_its_window() {
        let s = ts(&[1.0, 2.0, 3.0, 4.0]);
        let view = s.slice(Hour(11), 2).unwrap();
        let owned = TimeSeries::new(Hour(11), view.values().to_vec());
        assert_eq!(view, owned);
        assert_eq!(view.chunked_prefix().sum(Hour(11), 2), 5.0);
        // Same samples at another start, or another window, differ.
        assert_ne!(view, TimeSeries::new(Hour(12), vec![2.0, 3.0]));
        assert_ne!(view, s.slice(Hour(12), 2).unwrap());
        assert_eq!(s.slice(Hour(10), 4).unwrap(), s);
    }

    #[test]
    fn map_in_place_on_a_view_leaves_parent_and_siblings_untouched() {
        let parent = ts(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut view = parent.slice(Hour(11), 3).unwrap();
        let sibling = parent.slice(Hour(12), 3).unwrap();
        view.map_in_place(|h, v| v * 10.0 + h.index() as f64);
        assert_eq!(view.start(), Hour(11));
        assert_eq!(view.len(), 3);
        assert_eq!(view.values(), &[31.0, 42.0, 53.0]);
        assert_eq!(parent.values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(sibling.values(), &[3.0, 4.0, 5.0]);
        // A view of the whole buffer copies too while it is shared.
        let mut whole = parent.slice(Hour(10), 5).unwrap();
        whole.map_in_place(|_, v| -v);
        assert_eq!(whole.values(), &[-1.0, -2.0, -3.0, -4.0, -5.0]);
        assert_eq!(parent.values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn debug_of_a_view_prints_only_its_window() {
        let long = TimeSeries::new(Hour(0), (0..10_000).map(f64::from).collect());
        let view = long.slice(Hour(4321), 1).unwrap();
        assert_eq!(
            format!("{view:?}"),
            "TimeSeries { start: Hour(4321), values: [4321.0] }"
        );
    }

    #[test]
    fn out_of_range_slices_are_typed_errors() {
        let s = ts(&[1.0, 2.0, 3.0]);
        let view = s.slice(Hour(11), 2).unwrap();
        assert_eq!(
            s.slice(Hour(9), 1).unwrap_err(),
            TraceError::OutOfRange { hour: Hour(9) }
        );
        assert_eq!(
            s.slice(Hour(12), 2).unwrap_err(),
            TraceError::OutOfRange { hour: Hour(13) }
        );
        // A view's bounds are its window's, not its buffer's.
        assert_eq!(
            view.slice(Hour(10), 1).unwrap_err(),
            TraceError::OutOfRange { hour: Hour(10) }
        );
        assert!(matches!(
            view.slice(Hour(12), 2),
            Err(TraceError::OutOfRange { .. })
        ));
        assert!(matches!(
            view.slice(Hour(11), usize::MAX),
            Err(TraceError::OutOfRange { .. })
        ));
        assert!(view.window(Hour(13), 1).is_err());
        assert!(view.slice(Hour(13), 0).unwrap().is_empty());
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

    #[test]
    fn refill_matches_a_fresh_build_at_every_length() {
        // One prefix refilled long → short → long over non-integer
        // samples must answer exactly like a freshly built one at each
        // length: same buffers bit for bit, same sums, and `try_sum`
        // bounded by the new length, not a stale earlier one.
        let b = ChunkedPrefix::BLOCK;
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let values: Vec<f64> = (0..3 * b + 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                20.0 + 880.0 * ((x >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut reused = ChunkedPrefix::default();
        let lengths = [3 * b, b + 1, 0, 1, b, b - 1, 1, 3 * b, 0, b + 1];
        for (k, &n) in lengths.iter().enumerate() {
            let start = Hour(100 + 7 * k as u32);
            let window = &values[k..k + n];
            reused.refill(start, |buf| buf.extend_from_slice(window));
            let fresh = ChunkedPrefix::build(&TimeSeries::new(start, window.to_vec()));
            assert_eq!((reused.start(), reused.len()), (start, n), "n={n}");
            assert_eq!(reused.is_empty(), n == 0);
            assert_eq!(reused.series(), fresh.series(), "samples n={n}");
            assert_eq!(bits(&reused.block), bits(&fresh.block), "block n={n}");
            assert_eq!(bits(&reused.anchor), bits(&fresh.anchor), "anchor n={n}");
            assert_eq!(bits(&reused.low), bits(&fresh.low), "low n={n}");
            assert_eq!(reused.total.to_bits(), fresh.total.to_bits(), "total n={n}");
            assert_eq!(reused.negative.to_bits(), fresh.negative.to_bits(), "n={n}");
            assert_eq!(reused.low.len(), n.div_ceil(ChunkedPrefix::CHUNK), "n={n}");
            let mut windows = vec![(0, n), (n, 0)];
            for from in (0..n).step_by(509) {
                for len in [0, 1, 7, b - 1, b, b + 1] {
                    windows.push((from, len.min(n - from)));
                }
            }
            for (from, len) in windows {
                let h = start.plus(from);
                assert_eq!(
                    reused.sum(h, len).to_bits(),
                    fresh.sum(h, len).to_bits(),
                    "n={n} {from}+{len}"
                );
                assert_eq!(
                    reused.try_sum(h, len).map(f64::to_bits),
                    fresh.try_sum(h, len).map(f64::to_bits),
                    "n={n} {from}+{len}"
                );
            }
            for (from, len) in [(Hour(start.0 - 1), 1), (start, n + 1), (start.plus(n), 1)] {
                let err = reused.try_sum(from, len);
                assert!(err.is_err(), "n={n} {from}+{len} past the new length");
                assert_eq!(err, fresh.try_sum(from, len), "n={n} {from}+{len}");
            }
        }
    }

    /// Seeded samples in `[lo, lo + span)`.
    fn noise(n: usize, seed: u64, lo: f64, span: f64) -> Vec<f64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                lo + span * ((x >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect()
    }

    #[test]
    fn floor_is_at_most_every_sample_of_its_range() {
        // Ranges that start and end on chunk edges, one past and one
        // short of them, inside one chunk, across a block, and into a
        // partial last chunk: the floor never exceeds the range's least
        // sample, and equals it when the range is whole chunks.
        let c = ChunkedPrefix::CHUNK;
        for n in [
            1,
            c - 1,
            c,
            c + 1,
            3 * c + 17,
            ChunkedPrefix::BLOCK + 5 * c + 3,
        ] {
            let values = noise(n, 0x5eed ^ n as u64, -50.0, 900.0);
            let p = TimeSeries::new(Hour(3), values.clone()).chunked_prefix();
            let mut ranges = vec![(0, n), (n - 1, 1), (0, 1), (n, 0)];
            for edge in (0..=n).step_by(c) {
                for from in [edge.saturating_sub(1), edge, edge + 1] {
                    for len in [1, 2, c - 1, c, c + 1, 2 * c] {
                        if from + len <= n {
                            ranges.push((from, len));
                        }
                    }
                }
            }
            for (from, len) in ranges {
                let floor = p.floor(Hour(3 + from as u32), len);
                let least = values[from..from + len]
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                assert!(floor <= least, "n={n} {from}+{len}: {floor} > {least}");
                if from % c == 0 && (len % c == 0 || from + len == n) {
                    assert_eq!(floor, least, "n={n} {from}+{len}: whole chunks");
                }
            }
        }
    }

    #[test]
    fn floors_of_an_empty_series_and_empty_ranges() {
        let empty = ChunkedPrefix::default();
        assert!(empty.low.is_empty());
        assert_eq!(empty.slop(), 0.0);
        assert_eq!(empty.floor(Hour(0), 0), f64::INFINITY);
        assert_eq!(empty.window_floor(Hour(0), 0, 0), f64::INFINITY);
        let p = TimeSeries::new(Hour(0), vec![5.0; 10]).chunked_prefix();
        assert_eq!(p.floor(Hour(4), 0), f64::INFINITY);
        assert_eq!(p.window_floor(Hour(4), 3, 0), f64::INFINITY);
        assert!(p.window_floor(Hour(4), 0, 2) <= 0.0);
    }

    #[test]
    fn window_floor_is_at_most_every_window_sum() {
        // Ordinary carbon intensities, negative samples, and samples
        // near 1e15 whose window sums the prefix rounds by hundreds.
        for (seed, lo, span) in [(1, 20.0, 880.0), (2, -400.0, 500.0), (3, 1e15, 1e13)] {
            let n = 2 * ChunkedPrefix::BLOCK + 300;
            let values = noise(n, seed, lo, span);
            let p = TimeSeries::new(Hour(0), values).chunked_prefix();
            for (from, len, count) in [
                (0, 1, n),
                (ChunkedPrefix::BLOCK - 7, 1, 40),
                (100, 24, 169),
                (ChunkedPrefix::BLOCK - 300, 48, 600),
                (n - 500, 300, 201),
                (ChunkedPrefix::CHUNK, ChunkedPrefix::CHUNK, 1),
            ] {
                let floor = p.window_floor(Hour(from as u32), len, count);
                p.window_sums(Hour(from as u32), len, count, |sum| {
                    assert!(
                        floor <= sum,
                        "seed {seed} {from}+{len}x{count}: {floor} > {sum}"
                    );
                });
            }
        }
    }

    #[test]
    fn window_floor_covers_prefix_rounding_below_the_exact_sum() {
        // A constant 1e15 + 200 deep into a block: the relative
        // prefixes reach 4e18, whose spacing is 512, so some one-slot
        // sum reads below its sample. `len · min` alone would exceed
        // that sum; the slop brings the floor under it.
        let c = 1e15 + 200.0;
        let p = TimeSeries::new(Hour(0), vec![c; 4000]).chunked_prefix();
        let low = (3000..3999u32)
            .map(|i| p.sum(Hour(i), 1))
            .find(|&sum| sum < c)
            .expect("some one-slot sum rounds below its sample");
        assert!(p.window_floor(Hour(3000), 1, 999) <= low);
    }

    #[test]
    fn non_finite_samples_give_a_floor_of_minus_infinity() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut values = vec![100.0; 600];
            values[300] = bad;
            let p = TimeSeries::new(Hour(0), values).chunked_prefix();
            // Far from the bad sample too: one bad sample poisons the
            // slop of the whole prefix.
            assert_eq!(p.window_floor(Hour(0), 4, 10), f64::NEG_INFINITY, "{bad}");
            assert_eq!(p.window_floor(Hour(290), 4, 20), f64::NEG_INFINITY, "{bad}");
        }
        // A chunk of NaNs only has no least sample.
        let p = TimeSeries::new(Hour(0), vec![f64::NAN; 300]).chunked_prefix();
        assert_eq!(p.floor(Hour(0), 10), f64::INFINITY);
        assert_eq!(p.window_floor(Hour(0), 10, 5), f64::NEG_INFINITY);
    }
}
