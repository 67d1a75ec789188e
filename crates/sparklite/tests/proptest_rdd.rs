//! Property-based tests: sparklite's distributed primitives must agree
//! with their obvious sequential models for arbitrary data and partition
//! counts.

use proptest::prelude::*;
use sparklite::rdd::TopK;
use sparklite::{SparkliteConf, SparkliteContext};
use std::collections::HashMap;

fn ctx() -> SparkliteContext {
    SparkliteContext::new(SparkliteConf::default().with_executors(3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn collect_preserves_order(data in prop::collection::vec(any::<i32>(), 0..200), parts in 1usize..9) {
        let sc = ctx();
        prop_assert_eq!(sc.parallelize(data.clone(), parts).collect().unwrap(), data);
    }

    #[test]
    fn map_filter_agree_with_iterators(data in prop::collection::vec(any::<i16>(), 0..200), parts in 1usize..9) {
        let sc = ctx();
        let got = sc
            .parallelize(data.clone(), parts)
            .map(|x| x as i64 * 3)
            .filter(|x| x % 2 == 0)
            .collect()
            .unwrap();
        let expect: Vec<i64> =
            data.iter().map(|x| *x as i64 * 3).filter(|x| x % 2 == 0).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn reduce_by_key_is_a_hash_fold(
        data in prop::collection::vec((0u8..20, any::<i32>()), 0..200),
        parts in 1usize..7,
        reducers in 1usize..7,
    ) {
        let sc = ctx();
        let pairs: Vec<(u8, i64)> = data.iter().map(|(k, v)| (*k, *v as i64)).collect();
        let mut got = sc
            .parallelize(pairs.clone(), parts)
            .reduce_by_key(|a, b| a + b, reducers)
            .collect()
            .unwrap();
        got.sort();
        let mut expect_map: HashMap<u8, i64> = HashMap::new();
        for (k, v) in pairs {
            *expect_map.entry(k).or_insert(0) += v;
        }
        let mut expect: Vec<(u8, i64)> = expect_map.into_iter().collect();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn sort_by_matches_std_sort(
        data in prop::collection::vec(any::<i32>(), 0..300),
        parts in 1usize..7,
        out_parts in 1usize..7,
        ascending in any::<bool>(),
    ) {
        let sc = ctx();
        let got = sc.parallelize(data.clone(), parts).sort_by(|x| *x, ascending, out_parts).collect().unwrap();
        let mut expect = data;
        expect.sort();
        if !ascending {
            expect.reverse();
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn zip_with_index_is_sequential(data in prop::collection::vec(any::<u8>(), 0..200), parts in 1usize..9) {
        let sc = ctx();
        let got = sc.parallelize(data.clone(), parts).zip_with_index().collect().unwrap();
        for (i, (v, idx)) in got.iter().enumerate() {
            prop_assert_eq!(*idx, i as u64);
            prop_assert_eq!(*v, data[i]);
        }
    }

    #[test]
    fn group_by_key_loses_nothing(
        data in prop::collection::vec((0u8..10, any::<i16>()), 0..150),
        parts in 1usize..6,
    ) {
        let sc = ctx();
        let grouped = sc.parallelize(data.clone(), parts).group_by_key(3).collect().unwrap();
        let total: usize = grouped.iter().map(|(_, vs)| vs.len()).sum();
        prop_assert_eq!(total, data.len());
        for (k, vs) in &grouped {
            let mut mine: Vec<i16> = data.iter().filter(|(dk, _)| dk == k).map(|(_, v)| *v).collect();
            let mut got = vs.clone();
            mine.sort();
            got.sort();
            prop_assert_eq!(got, mine);
        }
    }

    #[test]
    fn take_is_a_prefix(data in prop::collection::vec(any::<i32>(), 0..200), parts in 1usize..9, n in 0usize..50) {
        let sc = ctx();
        let got = sc.parallelize(data.clone(), parts).take(n).unwrap();
        prop_assert_eq!(got.as_slice(), &data[..n.min(data.len())]);
    }

    #[test]
    fn top_k_matches_sort_then_take(
        keys in prop::collection::vec(0u8..8, 0..300),
        parts in 1usize..7,
        out_parts in 1usize..7,
        n in 0usize..60,
    ) {
        // Few distinct keys, so ties span partitions; the index tags each
        // element, so the comparison sees the tie order too.
        let sc = ctx();
        let data: Vec<(u8, usize)> = keys.into_iter().enumerate().map(|(i, k)| (k, i)).collect();
        let rdd = sc.parallelize(data, parts);
        let runs = rdd
            .map_partitions(move |_, items| {
                let mut top = TopK::new(n);
                for x in items {
                    top.push(x.0, x);
                }
                Box::new(std::iter::once(top.into_sorted()))
            })
            .collect()
            .unwrap();
        let got: Vec<(u8, usize)> = TopK::merge(runs, n).into_iter().map(|(_, x)| x).collect();
        let expect = rdd.sort_by(|x| x.0, true, out_parts).take(n).unwrap();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn distinct_is_a_set(data in prop::collection::vec(0u8..30, 0..200), parts in 1usize..6) {
        let sc = ctx();
        let mut got = sc.parallelize(data.clone(), parts).distinct(4).collect().unwrap();
        got.sort();
        let mut expect: Vec<u8> = data.clone();
        expect.sort();
        expect.dedup();
        prop_assert_eq!(got, expect);
    }
}
