//! The sum of the k smallest elements of every window in a sweep.
//!
//! This is the kernel behind the interruptibility analysis (§3.2.1): an
//! interruptible job of length `k` scheduled within a window runs in the
//! `k` cheapest hours of that window, so sweeping all 8760 arrival times
//! requires the k-smallest sum of a sliding window. `sliding_k_sums`
//! ranks the sweep's samples once by (value, index), in O(n log n), and
//! keeps a Fenwick tree of the counts of the ranks inside the window.
//! Each arrival then costs O(log n): a point update per sample in or
//! out, and one tree descent to find the k-th (or (k+1)-th) present rank.
//!
//! A single window needs no sliding structure: [`k_cheapest`] picks its
//! `k` cheapest positions directly, for the clairvoyant interruptible
//! bound and for forecast-planned suspend/resume alike.

/// Returns the positions of the `k` smallest `values` in ascending
/// position order (all positions when `k >= values.len()`). Ties go to
/// the earlier position, so the choice never depends on sort stability.
pub fn k_cheapest(values: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    if k < order.len() {
        order.select_nth_unstable_by(k, |&a, &b| values[a].total_cmp(&values[b]).then(a.cmp(&b)));
        order.truncate(k);
    }
    order.sort_unstable();
    order
}

/// Returns, for every `a` in `0..count`, the sum of the `k` smallest of
/// `span[a..(a + width).min(span.len())]` (by `f64::total_cmp`); zeros
/// when `k` is 0.
///
/// The windows slide left to right: each arrival first takes in the
/// samples that enter its window, then drops the one that left. The
/// running sum changes only when the set of the k smallest does: a new
/// sample below the k-th present one evicts it (subtract, then add), and
/// a departing sample among the k smallest is subtracted and replaced by
/// the next present one. Ranks order equal values by position, so the
/// newest sample ranks above every present equal and the oldest below
/// them: the same choices strict value comparisons make, and so the same
/// sequence of `f64` operations.
// decarb-analyze: hot-path
pub(crate) fn sliding_k_sums(span: &[f64], count: usize, k: usize, width: usize) -> Vec<f64> {
    if k == 0 {
        return vec![0.0; count];
    }
    let n = span.len();
    // `f64::total_cmp`'s order as an integer key, paired with the index.
    let mut keyed: Vec<(i64, u32)> = Vec::with_capacity(n);
    keyed.extend(span.iter().enumerate().map(|(i, v)| {
        let bits = v.to_bits() as i64;
        (bits ^ (((bits >> 63) as u64) >> 1) as i64, i as u32)
    }));
    keyed.sort_unstable();
    let mut rank = vec![0usize; n];
    let mut by_rank = Vec::with_capacity(n);
    for (r, &(_, i)) in keyed.iter().enumerate() {
        rank[i as usize] = r;
        by_rank.push(span[i as usize]);
    }

    let mut tree = CountTree::new(n);
    let (mut present, mut sum, mut right) = (0usize, 0.0f64, 0usize);
    let mut out = Vec::with_capacity(count);
    for a in 0..count {
        while right < (a + width).min(n) {
            let r = rank[right];
            if present < k {
                sum += span[right];
            } else {
                let kth = tree.select(k);
                if r < kth {
                    sum -= by_rank[kth];
                    sum += span[right];
                }
            }
            tree.add(r, true);
            present += 1;
            right += 1;
        }
        if a > 0 {
            let r = rank[a - 1];
            let among_k = tree.count_to(r) <= k;
            tree.add(r, false);
            present -= 1;
            if among_k {
                sum -= span[a - 1];
                if present >= k {
                    sum += by_rank[tree.select(k)];
                }
            }
        }
        out.push(sum);
    }
    out
}

/// A Fenwick tree of how many samples of each rank are present.
struct CountTree {
    /// 1-based: `counts[i]` covers ranks `i - (i & -i)..i`.
    counts: Vec<u32>,
    /// The largest power of two not above the rank count.
    top: usize,
}

impl CountTree {
    fn new(ranks: usize) -> Self {
        Self {
            counts: vec![0; ranks + 1],
            top: if ranks == 0 { 0 } else { 1 << ranks.ilog2() },
        }
    }

    /// Marks one sample of rank `r` present (`true`) or gone.
    fn add(&mut self, r: usize, present: bool) {
        let mut i = r + 1;
        while i < self.counts.len() {
            if present {
                self.counts[i] += 1;
            } else {
                self.counts[i] -= 1;
            }
            i += i & i.wrapping_neg();
        }
    }

    /// Returns how many present samples rank at or below `r`.
    fn count_to(&self, r: usize) -> usize {
        let (mut i, mut c) = (r + 1, 0);
        while i > 0 {
            c += self.counts[i] as usize;
            i &= i - 1;
        }
        c
    }

    /// Returns the rank of the `j`-th smallest present sample (`j >= 1`,
    /// at most the number present).
    fn select(&self, j: usize) -> usize {
        let (mut pos, mut left, mut step) = (0, j as u32, self.top);
        while step > 0 {
            let next = pos + step;
            if next < self.counts.len() && self.counts[next] < left {
                pos = next;
                left -= self.counts[next];
            }
            step >>= 1;
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: sort and sum the first k.
    fn naive_k_sum(values: &[f64], k: usize) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted.iter().take(k).sum()
    }

    /// Oracle for [`sliding_k_sums`]: the window as a sorted `Vec`, with
    /// the running sum updated at the same steps, in the same order.
    fn oracle(span: &[f64], count: usize, k: usize, width: usize) -> Vec<f64> {
        let (mut sorted, mut sum, mut right): (Vec<f64>, f64, usize) = (Vec::new(), 0.0, 0);
        let mut out = Vec::new();
        for a in 0..count {
            while right < (a + width).min(span.len()) {
                let v = span[right];
                if sorted.len() < k {
                    sum += v;
                } else if v.total_cmp(&sorted[k - 1]).is_lt() {
                    sum -= sorted[k - 1];
                    sum += v;
                }
                let at = sorted.partition_point(|x| x.total_cmp(&v).is_le());
                sorted.insert(at, v);
                right += 1;
            }
            if a > 0 {
                let v = span[a - 1];
                let at = sorted.partition_point(|x| x.total_cmp(&v).is_lt());
                if at < k {
                    sum -= v;
                    if sorted.len() > k {
                        sum += sorted[k];
                    }
                }
                sorted.remove(at);
            }
            // The incremental sum stays near the sorted one.
            let exact = naive_k_sum(&sorted, k);
            assert!((sum - exact).abs() <= 1e-9 * exact.abs().max(1.0));
            out.push(sum);
        }
        out
    }

    /// Sweeps every arrival of `span` whose window holds `k` samples,
    /// and compares each sum with the oracle's bit for bit.
    fn assert_matches_oracle(span: &[f64], k: usize, width: usize) {
        let count = span.len() + 1 - k;
        let got = sliding_k_sums(span, count, k, width);
        let want = oracle(span, count, k, width);
        assert_eq!(got.len(), count);
        for (a, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "k {k} width {width} arrival {a}: {g} vs {w}"
            );
        }
    }

    /// A seeded walk over `choices`.
    fn draw(seed: u64, len: usize, choices: &[f64]) -> Vec<f64> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                choices[(x >> 33) as usize % choices.len()]
            })
            .collect()
    }

    #[test]
    fn k_cheapest_prefers_earlier_positions_on_ties() {
        let values = [5.0, 1.0, 3.0, 1.0, 3.0, 9.0];
        assert_eq!(k_cheapest(&values, 3), vec![1, 2, 3]);
        assert_eq!(k_cheapest(&values, 0), Vec::<usize>::new());
        assert_eq!(k_cheapest(&values, 10), vec![0, 1, 2, 3, 4, 5]);
        let sum: f64 = k_cheapest(&values, 4).iter().map(|&i| values[i]).sum();
        assert_eq!(sum, naive_k_sum(&values, 4));
    }

    #[test]
    fn tracks_k_smallest_sum() {
        // Windows of 4 over [5, 1, 4, 2, 8, 3]; the last two run past
        // the end and shrink to 3 and 2 samples.
        let span = [5.0, 1.0, 4.0, 2.0, 8.0, 3.0];
        let sums = sliding_k_sums(&span, 5, 2, 4);
        assert_eq!(sums, vec![3.0, 3.0, 5.0, 5.0, 11.0]);
        assert_eq!(sliding_k_sums(&span, 3, 0, 4), vec![0.0; 3]);
        assert_eq!(sliding_k_sums(&span, 0, 2, 4), Vec::<f64>::new());
    }

    #[test]
    fn removal_refills_from_high() {
        // Each departing sample is among the 2 smallest, so the next
        // present one takes its place.
        let span = [1.0, 2.0, 3.0, 4.0, 5.0, 9.0];
        assert_eq!(sliding_k_sums(&span, 3, 2, 4), vec![3.0, 5.0, 7.0]);
        assert_matches_oracle(&span, 2, 4);
    }

    #[test]
    fn duplicates_handled() {
        // Ties, signed zeros and non-integers: a tie that evicted or a
        // departure judged by value would change the sum's bits.
        let choices = [0.1, 0.7, 0.7, 2.3, -0.0, 0.0, 1e-3, 0.1];
        for (seed, len) in [(1, 60), (2, 200), (3, 17), (4, 400)] {
            let span = draw(seed, len, &choices);
            for (k, width) in [(1, 1), (1, 5), (2, 2), (3, 7), (4, 40), (9, 12), (6, 400)] {
                assert_matches_oracle(&span, k, width);
            }
        }
        assert_matches_oracle(&[2.0; 12], 3, 5);
        assert_matches_oracle(&[0.0, -0.0, 0.0, -0.0, -0.0, 0.0], 2, 3);
    }

    /// A seeded walk over 1000 distinct non-integer levels.
    fn walk(seed: u64, len: usize) -> Vec<f64> {
        let levels: Vec<f64> = (0..1000).map(|i| i as f64 / 10.0 + 0.05).collect();
        draw(seed, len, &levels)
    }

    #[test]
    fn sliding_window_matches_naive() {
        let span = walk(42, 500);
        for (k, width) in [(6, 48), (3, 30), (24, 192)] {
            assert_matches_oracle(&span, k, width);
            let sums = sliding_k_sums(&span, 400, k, width);
            for (a, s) in sums.iter().enumerate() {
                let expected = naive_k_sum(&span[a..(a + width).min(span.len())], k);
                assert!(
                    (s - expected).abs() < 1e-9,
                    "window at {a}: {s} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn window_of_k_sums_every_sample() {
        // No slack: each window holds exactly k samples, all summed.
        let span = walk(7, 300);
        for k in [2, 16, 24] {
            assert_matches_oracle(&span, k, k);
            let sums = sliding_k_sums(&span, span.len() + 1 - k, k, k);
            for (a, s) in sums.iter().enumerate() {
                let expected: f64 = span[a..a + k].iter().sum();
                assert!((s - expected).abs() < 1e-9, "window at {a}");
            }
        }
    }

    #[test]
    fn windows_past_the_end_shrink() {
        // Windows wider than what is left of the span keep the samples
        // up to its end, down to the last k.
        let span = walk(11, 300);
        for (k, width) in [(5, 500), (8, 120), (1, 299)] {
            assert_matches_oracle(&span, k, width);
            let sums = sliding_k_sums(&span, span.len() + 1 - k, k, width);
            let last = naive_k_sum(&span[span.len() - k..], k);
            assert!((sums[sums.len() - 1] - last).abs() < 1e-9, "k {k}");
        }
    }

    #[test]
    fn one_slot_tracks_the_window_minimum() {
        let span = walk(5, 300);
        for width in [1, 2, 30, 300] {
            assert_matches_oracle(&span, 1, width);
            let sums = sliding_k_sums(&span, span.len(), 1, width);
            for (a, s) in sums.iter().enumerate() {
                let window = &span[a..(a + width).min(span.len())];
                let min = window.iter().copied().fold(f64::INFINITY, f64::min);
                assert_eq!(*s, min, "width {width} window at {a}");
            }
        }
    }
}
