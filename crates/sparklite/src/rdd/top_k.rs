//! Bounded selection: the `n` smallest elements of a stream by key, in
//! one pass and `O(n)` memory (the per-partition half of Spark's
//! `takeOrdered`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Keeps the `n` smallest `(key, item)` pairs pushed into it. Ties keep
/// arrival order: of two equal keys, the one pushed first ranks first and
/// survives. That is the tie order of the stable range sort
/// ([`super::Rdd::sort_by`]) when runs are pushed in partition order, so
/// per-partition selections merged with [`TopK::merge`] equal
/// `sort_by(key).take(n)`.
///
/// Nothing is preallocated from `n`: memory grows with the elements kept,
/// so `n = usize::MAX` simply keeps everything.
pub struct TopK<K, T> {
    n: usize,
    /// Max-heap on `(key, arrival)`: the root is the current worst keeper.
    heap: BinaryHeap<Slot<K, T>>,
    arrivals: u64,
}

struct Slot<K, T> {
    key: K,
    arrival: u64,
    item: T,
}

impl<K: Ord, T> PartialEq for Slot<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K: Ord, T> Eq for Slot<K, T> {}

impl<K: Ord, T> PartialOrd for Slot<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, T> Ord for Slot<K, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key).then(self.arrival.cmp(&other.arrival))
    }
}

impl<K: Ord, T> TopK<K, T> {
    pub fn new(n: usize) -> TopK<K, T> {
        TopK { n, heap: BinaryHeap::new(), arrivals: 0 }
    }

    /// Offers one element. A later arrival never beats an equal key, so
    /// only a strictly smaller key displaces the current worst keeper.
    pub fn push(&mut self, key: K, item: T) {
        let arrival = self.arrivals;
        self.arrivals += 1;
        if self.heap.len() < self.n {
            self.heap.push(Slot { key, arrival, item });
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if key < worst.key {
                *worst = Slot { key, arrival, item };
            }
        }
    }

    /// How many elements were offered, kept or not.
    pub fn offered(&self) -> u64 {
        self.arrivals
    }

    /// The kept elements, smallest first (ties in arrival order).
    pub fn into_sorted(self) -> Vec<(K, T)> {
        self.heap.into_sorted_vec().into_iter().map(|s| (s.key, s.item)).collect()
    }

    /// The `n` smallest of several sorted runs, ties broken by run order
    /// and then by position within a run.
    pub fn merge(runs: impl IntoIterator<Item = Vec<(K, T)>>, n: usize) -> Vec<(K, T)> {
        let mut top = TopK::new(n);
        for (key, item) in runs.into_iter().flatten() {
            top.push(key, item);
        }
        top.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_smallest_with_ties_in_arrival_order() {
        let mut top = TopK::new(3);
        for (i, k) in [5, 1, 3, 1, 0, 3, 1].into_iter().enumerate() {
            top.push(k, i);
        }
        assert_eq!(top.offered(), 7);
        assert_eq!(top.into_sorted(), vec![(0, 4), (1, 1), (1, 3)]);
    }

    #[test]
    fn zero_and_unbounded_limits() {
        let mut none = TopK::new(0);
        none.push(1, 'a');
        assert!(none.into_sorted().is_empty());
        // `usize::MAX` must not be used to size anything up front.
        let runs = vec![vec![(2, 'a'), (3, 'b')], vec![(1, 'c'), (2, 'd')]];
        let all = TopK::merge(runs, usize::MAX);
        assert_eq!(all, vec![(1, 'c'), (2, 'a'), (2, 'd'), (3, 'b')]);
    }
}
