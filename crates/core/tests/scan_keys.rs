//! Differential tests for the scan-key path. A `group by` or `order by`
//! directly on a fused scan (`for $i in <rdd source> where …*`) whose keys
//! are static paths on `$i` builds its §4.7/§4.8 key columns straight from
//! the scan items. Every query here runs three ways, and the serialized
//! results must be byte-identical (or all three must fail with the same
//! error code):
//!
//! * as written: the scan-key path;
//! * with `let $j := $i` inserted before the clause: a meaning-preserving
//!   rewrite that breaks the scan shape, so the generic `Bin`-column path
//!   runs;
//! * with the source bound by an initial `let`: the local `tuples()` path.
//!
//! Every ordered query also runs a fourth way, through `take(n)`: an
//! order-by on a fused scan answers it with a one-pass top-`n` selection,
//! which must return exactly the prefix of `collect()` for every `n`, and
//! raise the same error when any row (chosen or not) has a bad key.
//!
//! The whole battery also runs under 20% seeded chaos and over two
//! distributed executor threads.

use rumble_core::{Rumble, RumbleError};
use sparklite::{FaultPlan, SparkliteConf, SparkliteContext};

const MESSY: &str = r#"json-file("hdfs:///messy.json")"#;
const ATOMS: &str = r#"parallelize((1, 2, 2.0, 1e0, -0.0, 0, "a", "a", null, true, false))"#;

/// Hand-written rows on top of the generated ones: Integer, Decimal and
/// Double spellings of equal numbers, `-0.0`, and a `null` nested key.
const EXTRA_ROWS: &str = r#"{"id": -1, "value": 1e0, "nested": {"k": 1.5e0, "flag": true}}
{"id": -2, "value": -0.0, "nested": {"k": 2.25, "flag": false}}
{"id": -3, "value": 5.0, "nested": {"k": 3.0, "flag": true}}
{"id": -4, "value": 5, "nested": {"k": null, "flag": true}}
{"id": -5, "value": 0, "nested": {"k": 3, "flag": false}}
"#;

/// One query: `source` replaces `{src}`; `{gap}` marks where the generic
/// arm's `let $j := $i` goes (right before the group-by / order-by).
struct Case {
    source: &'static str,
    body: &'static str,
    /// Whether the result order is defined (an order-by, or a group-by
    /// followed by one); otherwise results compare as multisets against
    /// the local path, whose group order is first appearance.
    ordered: bool,
}

const CASES: &[Case] = &[
    // group by: mixed Integer/Decimal/Double/string/null keys.
    Case {
        source: MESSY,
        body: r#"for $i in {src} {gap} group by $v := $i.value
                 return {"v": $v, "n": count($i)}"#,
        ordered: false,
    },
    // Nested paths, multi-key, missing fields (empty keys), with a `where`
    // that compiles to an item predicate.
    Case {
        source: MESSY,
        body: r#"for $i in {src} where $i.nested.k ge 40 {gap}
                 group by $k := $i.nested.k, $f := $i.nested.flag
                 return [$k, $f, count($i)]"#,
        ordered: false,
    },
    // A `where` that binds a context, and a materialized `$i`.
    Case {
        source: MESSY,
        body: r#"for $i in {src} where exists($i.tags) {gap}
                 group by $f := $i.nested.flag
                 return [$f, count($i), sum($i.nested.k), max($i.nested.k)]"#,
        ordered: false,
    },
    // Group by then order by: the order-by sits on a group, not a scan.
    Case {
        source: MESSY,
        body: r#"for $i in {src} {gap} group by $k := $i.nested.k
                 order by $k descending empty greatest
                 return [$k, count($i)]"#,
        ordered: true,
    },
    // A bare `group by $i` over atomics: the empty key path.
    Case { source: ATOMS, body: r#"for $i in {src} {gap} group by $i return $i"#, ordered: false },
    // order by: nested paths, descending, multi-key (the messy-dist sort).
    Case {
        source: MESSY,
        body: r#"for $i in {src} {gap}
                 order by $i.nested.k descending, $i.nested.flag ascending
                 return [$i.nested.k, $i.nested.flag]"#,
        ordered: true,
    },
    // `empty greatest` on both keys, with an item-predicate `where`.
    Case {
        source: MESSY,
        body: r#"for $i in {src} where $i.nested.k le 60 {gap}
                 order by $i.nested.k empty greatest, $i.nested.flag descending empty greatest
                 return [$i.nested.k, $i.nested.flag]"#,
        ordered: true,
    },
    // The whole `$i` travels through the sort.
    Case {
        source: MESSY,
        body: r#"for $i in {src} where $i.nested.flag and $i.id instance of integer {gap}
                 order by $i.nested.k descending, $i.id
                 return $i"#,
        ordered: true,
    },
    // Mixed Integer/Decimal/Double sort keys after the where.
    Case {
        source: MESSY,
        body: r#"for $i in {src} where $i.id instance of integer and $i.id lt 0 {gap}
                 order by $i.value descending
                 return $i.id"#,
        ordered: true,
    },
    // Equal keys in every partition: ties must keep scan order.
    Case {
        source: MESSY,
        body: r#"for $i in {src} {gap} order by $i.nested.flag descending return $i.id"#,
        ordered: true,
    },
    // 0 or 2 items per tuple. The 15 smallest ids return nothing, so
    // `take(n)` for a small `n` falls back to the full sort, while larger
    // `n` truncate a winner's two items.
    Case {
        source: MESSY,
        body: r#"for $i in {src} where $i.id instance of integer {gap} order by $i.id
                 return if ($i.id lt 10) then () else ($i.id, $i.id)"#,
        ordered: true,
    },
    // A bare `order by $i` over atomics (mixed strings and numbers: error).
    Case {
        source: ATOMS,
        body: r#"for $i in {src} where $i instance of decimal {gap}
                 order by $i descending return $i"#,
        ordered: true,
    },
];

/// Queries every path must reject with the same error code.
const ERROR_CASES: &[(&str, &str)] = &[
    // An array key (`name` is sometimes wrapped in an array).
    (MESSY, r#"for $i in {src} {gap} group by $n := $i.name return [$n, count($i)]"#),
    (MESSY, r#"for $i in {src} {gap} order by $i.name return $i.id"#),
    // An object key, via a path and via the bare variable.
    (MESSY, r#"for $i in {src} {gap} group by $n := $i.nested return count($i)"#),
    (MESSY, r#"for $i in {src} {gap} group by $i return 1"#),
    (MESSY, r#"for $i in {src} {gap} order by $i.nested return $i.id"#),
    // Mixed strings and numbers as sort keys.
    (MESSY, r#"for $i in {src} {gap} order by $i.value return $i.id"#),
    (ATOMS, r#"for $i in {src} {gap} order by $i return $i"#),
    // Mostly integer ids, a few strings (and nulls): the top rows are
    // clean, the offending ones are never among them.
    (MESSY, r#"for $i in {src} {gap} order by $i.id return $i.id"#),
];

/// The three arms of one query: scan-key, generic, local.
fn arms(source: &str, body: &str) -> [String; 3] {
    let at = |src: &str, gap: &str| body.replace("{src}", src).replace("{gap}", gap);
    [
        at(source, ""),
        at(source, "let $j := $i"),
        format!("let $all := {source} return {}", at("$all", "")),
    ]
}

fn engine(conf: SparkliteConf) -> Rumble {
    let r = Rumble::new(SparkliteContext::new(conf.with_block_size(16 * 1024)));
    let mut lines = rumble_datagen::heterogeneous::generate(2_000, 0x5CA7);
    lines.push_str(EXTRA_ROWS);
    r.hdfs_put("/messy.json", &lines).unwrap();
    r
}

/// Runs one query, checking that it takes the distributed (or local)
/// path when `distributed` says which to expect.
fn run(r: &Rumble, q: &str, distributed: Option<bool>) -> Result<Vec<String>, RumbleError> {
    let prepared = r.compile(q).unwrap_or_else(|e| panic!("{q}\n{e}"));
    if let Some(distributed) = distributed {
        assert_eq!(prepared.is_distributed().unwrap(), distributed, "{q}");
    }
    Ok(serialized(prepared.collect()?))
}

fn serialized(items: Vec<rumble_core::Item>) -> Vec<String> {
    items.iter().map(|i| i.serialize()).collect()
}

/// The take arm: `take(n)` of the scan-key query must be the first `n`
/// items of its `collect()` and of the local arm, for `n` around both ends.
fn check_take(r: &Rumble, q: &str, full: &[String], local: &[String]) {
    let prepared = r.compile(q).unwrap();
    let len = full.len();
    for n in [0, 1, 7, len - 1, len, len + 5] {
        let got = serialized(prepared.take(n).unwrap_or_else(|e| panic!("take({n}): {q}\n{e}")));
        assert_eq!(got, full[..n.min(len)], "take({n}) vs collect() prefix:\n{q}");
        assert_eq!(got, local[..n.min(len)], "take({n}) vs local prefix:\n{q}");
    }
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

/// Runs the whole battery on one engine; returns every result, in order.
fn battery(r: &Rumble) -> Vec<Vec<String>> {
    let mut results = Vec::new();
    for case in CASES {
        let [scan_q, generic_q, local_q] = arms(case.source, case.body);
        let scan = run(r, &scan_q, Some(true)).unwrap_or_else(|e| panic!("{scan_q}\n{e}"));
        let generic = run(r, &generic_q, Some(true)).unwrap_or_else(|e| panic!("{generic_q}\n{e}"));
        let local = run(r, &local_q, Some(false)).unwrap_or_else(|e| panic!("{local_q}\n{e}"));
        assert!(!scan.is_empty(), "vacuous case: {scan_q}");
        assert_eq!(scan, generic, "scan-key vs generic path:\n{scan_q}");
        if case.ordered {
            assert_eq!(scan, local, "scan-key vs local path:\n{scan_q}");
            check_take(r, &scan_q, &scan, &local);
        } else {
            assert_eq!(sorted(scan.clone()), sorted(local), "scan-key vs local path:\n{scan_q}");
        }
        results.push(scan);
    }
    for (source, body) in ERROR_CASES {
        let [scan_q, generic_q, local_q] = arms(source, body);
        // An order-by key error already fails the frame's cache job, which
        // the distribution probe reports as "not distributed"; the query then
        // raises the same error on the local path. So no path is asserted.
        let scan = run(r, &scan_q, None).expect_err(&scan_q);
        let generic = run(r, &generic_q, None).expect_err(&generic_q);
        let local = run(r, &local_q, None).expect_err(&local_q);
        assert_eq!(scan.code, "XPTY0004", "{scan_q}\n{scan}");
        assert_eq!(
            (scan.code, &scan.message),
            (generic.code, &generic.message),
            "scan-key vs generic error:\n{scan_q}"
        );
        assert_eq!(scan.code, local.code, "scan-key vs local error:\n{scan_q}\n{scan}\n{local}");
        if !body.contains("order by") {
            continue;
        }
        let prepared = r.compile(&scan_q).unwrap();
        for n in [0, 1, 7] {
            let took = prepared.take(n).expect_err(&scan_q);
            assert_eq!(
                (took.code, &took.message),
                (scan.code, &scan.message),
                "take({n}) vs collect() error:\n{scan_q}"
            );
        }
    }
    results
}

#[test]
fn scan_keys_match_the_generic_and_local_paths() {
    battery(&engine(SparkliteConf::default().with_executors(2)));
}

#[test]
fn scan_keys_match_under_chaos_and_over_dist_executors() {
    let clean = battery(&engine(SparkliteConf::default().with_executors(2)));
    for seed in [0xC4A0_u64, 0x5EED] {
        let chaotic = engine(
            SparkliteConf::default().with_executors(3).with_faults(FaultPlan::chaos(seed, 0.2)),
        );
        assert_eq!(battery(&chaotic), clean, "20% chaos (seed {seed:#x}) changed an answer");
    }
    let dist = engine(SparkliteConf::default().with_executors(2).with_dist_threads(2));
    assert_eq!(battery(&dist), clean, "two dist executor threads changed an answer");
}

#[test]
fn mixed_sort_keys_raise_incompatible_sort_keys() {
    let r = engine(SparkliteConf::default().with_executors(2));
    let [scan_q, ..] = arms(MESSY, r#"for $i in {src} {gap} order by $i.value return $i.id"#);
    let err = run(&r, &scan_q, None).unwrap_err();
    assert_eq!(err.code, rumble_core::error::codes::INCOMPATIBLE_SORT_KEYS);
    assert!(err.message.contains("incompatible"), "{err}");
}

#[test]
fn top_k_take_runs_one_job_without_shuffle_or_cache() {
    let r = engine(SparkliteConf::default().with_executors(2));
    let q = r
        .compile(&format!(
            "for $i in {MESSY} order by $i.nested.k descending, $i.nested.flag return $i.id"
        ))
        .unwrap();
    let first = q.take(10).unwrap(); // the cold run also persists the source
    let before = r.sparklite().metrics();
    let again = q.take(10).unwrap();
    let after = r.sparklite().metrics();
    assert_eq!(again, first);
    assert_eq!(after.jobs - before.jobs, 1, "one selection job, nothing else");
    assert_eq!(after.shuffle_records - before.shuffle_records, 0, "no range shuffle");
    assert_eq!(after.cache_misses - before.cache_misses, 0, "no keyed-frame cache");
    assert_eq!(after.cached_bytes, before.cached_bytes, "nothing cached");
    assert_eq!(again, q.collect().unwrap()[..10]);
}
