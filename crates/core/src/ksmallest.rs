//! A sliding multiset that tracks the sum of the k smallest elements.
//!
//! This is the kernel behind the interruptibility analysis (§3.2.1): an
//! interruptible job of length `k` scheduled within a window runs in the
//! `k` cheapest hours of that window, so sweeping all 8760 arrival times
//! requires the k-smallest sum of a sliding window. Maintaining two
//! ordered multisets (the k smallest in `low`, the rest in `high`) gives
//! O(log n) insert/remove instead of re-sorting every window.
//!
//! A single window needs no sliding structure: [`k_cheapest`] picks its
//! `k` cheapest positions directly, for the clairvoyant interruptible
//! bound and for forecast-planned suspend/resume alike.

use std::collections::BTreeMap;

/// Total-order wrapper for `f64` keys (uses IEEE total ordering).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A multiset of `f64` values supporting O(log n) insertion/removal and
/// O(1) queries of the sum of its `k` smallest elements.
#[derive(Debug, Clone)]
pub struct SlidingKSmallest {
    k: usize,
    /// The (up to) k smallest elements.
    low: BTreeMap<OrdF64, usize>,
    low_len: usize,
    low_sum: f64,
    /// Everything else.
    high: BTreeMap<OrdF64, usize>,
    high_len: usize,
}

impl SlidingKSmallest {
    /// Creates an empty structure tracking the `k` smallest elements.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            low: BTreeMap::new(),
            low_len: 0,
            low_sum: 0.0,
            high: BTreeMap::new(),
            high_len: 0,
        }
    }

    /// Returns the number of stored elements.
    pub fn len(&self) -> usize {
        self.low_len + self.high_len
    }

    /// Returns `true` if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the tracked `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Returns the sum of the `min(k, len)` smallest elements.
    ///
    /// The sum is maintained incrementally; for very long sweeps the
    /// accumulated floating-point error stays negligible because elements
    /// are added and subtracted at the same magnitude.
    pub fn k_sum(&self) -> f64 {
        self.low_sum
    }

    /// Inserts `value` into the multiset.
    pub fn insert(&mut self, value: f64) {
        let key = OrdF64(value);
        if self.low_len < self.k {
            *self.low.entry(key).or_insert(0) += 1;
            self.low_len += 1;
            self.low_sum += value;
        } else {
            // Compare against the current k-th smallest (max of `low`).
            // decarb-analyze: allow(no-panic) -- two-heap invariant: low_len == k > 0 on this branch
            let max_low = *self.low.keys().next_back().expect("low is non-empty");
            if key < max_low {
                // Evict the largest of `low` into `high`.
                remove_one(&mut self.low, max_low);
                self.low_len -= 1;
                self.low_sum -= max_low.0;
                *self.high.entry(max_low).or_insert(0) += 1;
                self.high_len += 1;
                *self.low.entry(key).or_insert(0) += 1;
                self.low_len += 1;
                self.low_sum += value;
            } else {
                *self.high.entry(key).or_insert(0) += 1;
                self.high_len += 1;
            }
        }
    }

    /// Removes one occurrence of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not present (callers control the window and
    /// only remove elements they previously inserted).
    pub fn remove(&mut self, value: f64) {
        let key = OrdF64(value);
        if self.low.contains_key(&key) {
            remove_one(&mut self.low, key);
            self.low_len -= 1;
            self.low_sum -= value;
            // Refill `low` from the smallest of `high`.
            if self.low_len < self.k && self.high_len > 0 {
                // decarb-analyze: allow(no-panic) -- two-heap invariant: high_len > 0 checked in the enclosing condition
                let min_high = *self.high.keys().next().expect("high is non-empty");
                remove_one(&mut self.high, min_high);
                self.high_len -= 1;
                *self.low.entry(min_high).or_insert(0) += 1;
                self.low_len += 1;
                self.low_sum += min_high.0;
            }
        } else if self.high.contains_key(&key) {
            remove_one(&mut self.high, key);
            self.high_len -= 1;
        } else {
            // decarb-analyze: allow(no-panic) -- documented contract: removing a value that was never inserted is a caller bug
            panic!("remove of absent value {value}");
        }
    }
}

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

fn remove_one(map: &mut BTreeMap<OrdF64, usize>, key: OrdF64) {
    match map.get_mut(&key) {
        Some(count) if *count > 1 => *count -= 1,
        Some(_) => {
            map.remove(&key);
        }
        None => unreachable!("caller checked presence"),
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
        let mut s = SlidingKSmallest::new(3);
        for v in [5.0, 1.0, 4.0, 2.0, 8.0] {
            s.insert(v);
        }
        assert_eq!(s.len(), 5);
        assert!((s.k_sum() - 7.0).abs() < 1e-12); // 1 + 2 + 4
    }

    #[test]
    fn fewer_than_k_sums_all() {
        let mut s = SlidingKSmallest::new(10);
        s.insert(3.0);
        s.insert(4.0);
        assert!((s.k_sum() - 7.0).abs() < 1e-12);
        assert!(!s.is_empty());
        assert_eq!(s.k(), 10);
    }

    #[test]
    fn removal_refills_from_high() {
        let mut s = SlidingKSmallest::new(2);
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.insert(v);
        }
        assert!((s.k_sum() - 3.0).abs() < 1e-12); // 1 + 2
        s.remove(1.0);
        assert!((s.k_sum() - 5.0).abs() < 1e-12); // 2 + 3
        s.remove(3.0);
        assert!((s.k_sum() - 6.0).abs() < 1e-12); // 2 + 4
        s.remove(2.0);
        assert!((s.k_sum() - 4.0).abs() < 1e-12); // 4
        s.remove(4.0);
        assert_eq!(s.k_sum(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn duplicates_handled() {
        let mut s = SlidingKSmallest::new(2);
        for v in [2.0, 2.0, 2.0] {
            s.insert(v);
        }
        assert!((s.k_sum() - 4.0).abs() < 1e-12);
        s.remove(2.0);
        assert!((s.k_sum() - 4.0).abs() < 1e-12);
        s.remove(2.0);
        assert!((s.k_sum() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sliding_window_matches_naive() {
        // Deterministic pseudo-random walk.
        let mut x = 42u64;
        let values: Vec<f64> = (0..500)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % 1000) as f64 / 10.0
            })
            .collect();
        let k = 6;
        let window = 48;
        let mut s = SlidingKSmallest::new(k);
        for i in 0..values.len() {
            s.insert(values[i]);
            if i >= window {
                s.remove(values[i - window]);
            }
            if i + 1 >= window {
                let lo = i + 1 - window;
                let expected = naive_k_sum(&values[lo..=i], k);
                assert!(
                    (s.k_sum() - expected).abs() < 1e-9,
                    "window at {i}: {} vs {expected}",
                    s.k_sum()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "absent value")]
    fn removing_absent_panics() {
        let mut s = SlidingKSmallest::new(2);
        s.insert(1.0);
        s.remove(2.0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        SlidingKSmallest::new(0);
    }
}
