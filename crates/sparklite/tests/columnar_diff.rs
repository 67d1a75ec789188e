//! The physical-path differential battery: every random pipeline the PR 6
//! generator can produce must collect to byte-identical rows (under
//! [`RowCodec`]) on the shipping columnar path — fused batch kernels, the
//! hash-aggregation kernel and the normalized-key sort — and on the
//! row-at-a-time oracle (`ExecConf::row_major`). Batch sizes are fuzzed too,
//! so batch seams land
//! inside, on, and around partition boundaries; dedicated cases pin the
//! empty / one-row / N−1 / N / N+1 input sizes, null-heavy mixed-type
//! columns, and group/sort-heavy shapes (high-cardinality, skewed,
//! all-NULL, and mixed-type keys).

mod common;

use common::{build_on, seed_n, step_strategy, Step};
use proptest::prelude::*;
use sparklite::dataframe::{
    Agg, CmpOp, DataFrame, DataType, Expr, Field, NamedExpr, Row, RowCodec, Schema, SortDir, Value,
};
use sparklite::{CacheCodec, SparkliteConf, SparkliteContext};

/// The physical execution paths under differential test.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// The row-at-a-time reference oracle.
    RowMajor,
    /// The shipping default: fused batch kernels, hash aggregation and the
    /// normalized-key sort.
    Vectorized,
}

const MODES: [Mode; 2] = [Mode::RowMajor, Mode::Vectorized];

fn conf_mode(mode: Mode) -> SparkliteConf {
    let conf = SparkliteConf::default().with_executors(3).with_optimizer(false);
    match mode {
        Mode::RowMajor => conf.with_row_major(true),
        Mode::Vectorized => conf,
    }
}

fn ctx_mode(mode: Mode, batch: usize) -> SparkliteContext {
    SparkliteContext::new(conf_mode(mode).with_batch_size(batch))
}

/// Runs the same pipeline over the same seed on every physical path and
/// returns each path's result, RowCodec-encoded.
fn diff_all(steps: &[Step], rows: i64, batch: usize) -> Vec<(Mode, Vec<u8>)> {
    MODES
        .iter()
        .map(|&mode| {
            let ctx = ctx_mode(mode, batch);
            let out = build_on(seed_n(&ctx, rows), steps).collect_rows().unwrap();
            (mode, RowCodec.encode(&out))
        })
        .collect()
}

fn assert_all_agree(results: &[(Mode, Vec<u8>)], what: &str) {
    let (_, baseline) = &results[0];
    for (mode, bytes) in &results[1..] {
        assert_eq!(bytes, baseline, "{mode:?} diverged from RowMajor on {what}");
    }
}

/// [`step_strategy`] re-weighted toward shuffle boundaries: three in four
/// steps are a GROUP BY or an ORDER BY, so pipelines hammer the hash
/// aggregation kernel and the normalized-key sort (often stacked).
fn group_sort_heavy_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        step_strategy(),
        Just(Step::GroupBy),
        (0usize..4).prop_map(Step::OrderAsc),
        (0usize..4).prop_map(Step::OrderDesc),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The core battery: random up-to-16-step pipelines over the messy seed
    /// (NULLs in two columns, lists, floats), random batch sizes straddling
    /// the 24-row / 3-partition seed, byte-identical output on all paths.
    #[test]
    fn all_physical_paths_agree_on_random_pipelines(
        steps in prop::collection::vec(step_strategy(), 0..16),
        batch in prop_oneof![
            Just(1usize), Just(2), Just(3), Just(5), Just(7),
            Just(8), Just(9), Just(23), Just(24), Just(25), Just(1024),
        ],
    ) {
        let results = diff_all(&steps, 24, batch);
        let (_, baseline) = &results[0];
        for (mode, bytes) in &results[1..] {
            prop_assert_eq!(
                bytes, baseline,
                "{:?} diverged: steps {:?}, batch {}", mode, &steps, batch
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Group/sort-heavy pipelines: stacked aggregations and orderings over
    /// the messy seed, where the hash kernel's group identity and the
    /// memcmp sort keys must reproduce the row comparators exactly.
    #[test]
    fn group_and_sort_heavy_pipelines_agree(
        steps in prop::collection::vec(group_sort_heavy_step(), 1..10),
        batch in prop_oneof![Just(1usize), Just(3), Just(8), Just(24), Just(1024)],
    ) {
        let results = diff_all(&steps, 24, batch);
        let (_, baseline) = &results[0];
        for (mode, bytes) in &results[1..] {
            prop_assert_eq!(
                bytes, baseline,
                "{:?} diverged: steps {:?}, batch {}", mode, &steps, batch
            );
        }
    }
}

/// Input sizes pinned to the batch boundary: empty, one row, one batch minus
/// one, exactly one batch, one over, and multiples — through a pipeline that
/// exercises every fused operator kind plus both shuffle boundaries.
#[test]
fn size_edges_agree_at_batch_boundaries() {
    let batch = 8usize;
    let pipeline = [
        Step::WithColumn(3),
        Step::FilterGt(-4),
        Step::Explode,
        Step::GroupBy,
        Step::OrderAsc(0),
        Step::Limit(9),
    ];
    for rows in [0i64, 1, 7, 8, 9, 16, 17, 24] {
        assert_all_agree(&diff_all(&pipeline, rows, batch), &format!("rows={rows}"));
    }
}

/// Key distributions that stress the aggregation kernel from four angles:
/// every key distinct (table growth), one dominant key (slot contention),
/// all keys NULL (single group via the NULL tag), and keys mixing types
/// whose values compare numerically equal (`I64(1)` vs `F64(1.0)` vs
/// `Str("1")` vs `Bool(true)` must stay distinct groups). Every aggregate
/// kind runs over payloads with NULLs, i64 extremes (SUM overflow), NaN and
/// negative zero; the result is then sorted through the normalized-key
/// encoder on a float column.
#[test]
fn grouping_stress_shapes_agree_on_all_paths() {
    let frame = |ctx: &SparkliteContext, shape: &str| {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Any),
            Field::new("v", DataType::I64),
            Field::new("f", DataType::F64),
        ]);
        let rows: Vec<Row> = (0..240i64)
            .map(|i| {
                let k = match shape {
                    "high" => Value::I64(i),
                    "skewed" => Value::I64(if i % 10 == 0 { i } else { 0 }),
                    "null" => Value::Null,
                    _ => match i % 6 {
                        0 => Value::I64(1),
                        1 => Value::F64(1.0),
                        2 => Value::str("1"),
                        3 => Value::Bool(true),
                        4 => Value::Null,
                        _ => Value::I64(i % 3),
                    },
                };
                let v = match i % 7 {
                    0 => Value::Null,
                    1 => Value::I64(i64::MAX - 2),
                    _ => Value::I64(i * 11 - 80),
                };
                let f = match i % 5 {
                    0 => Value::F64(f64::NAN),
                    1 => Value::F64(-0.0),
                    2 => Value::Null,
                    _ => Value::F64(i as f64 * 0.25 - 7.0),
                };
                vec![k, v, f]
            })
            .collect();
        DataFrame::from_rows(ctx, schema, rows, 3).unwrap()
    };
    let run = |mode: Mode, batch: usize, shape: &str| {
        let ctx = ctx_mode(mode, batch);
        let out = frame(&ctx, shape)
            .group_by(
                &["k"],
                vec![
                    (Agg::Count, "n".into()),
                    (Agg::CountCol("v".into()), "nv".into()),
                    (Agg::Sum("v".into()), "sv".into()),
                    (Agg::Avg("f".into()), "af".into()),
                    (Agg::Min("v".into()), "mn".into()),
                    (Agg::Max("f".into()), "mx".into()),
                    (Agg::First("f".into()), "ff".into()),
                    (Agg::CollectList("v".into()), "lv".into()),
                ],
            )
            .unwrap()
            .order_by(vec![
                ("af".into(), SortDir::desc().with_nulls_last(false)),
                ("k".into(), SortDir::asc().with_nulls_last(true)),
            ])
            .unwrap()
            .collect_rows()
            .unwrap();
        RowCodec.encode(&out)
    };
    for shape in ["high", "skewed", "null", "mixed"] {
        for batch in [1usize, 7, 64, 1024] {
            assert_eq!(
                run(Mode::Vectorized, batch, shape),
                run(Mode::RowMajor, batch, shape),
                "Vectorized diverged on shape={shape} batch={batch}"
            );
        }
    }
}

/// A column whose cells mix I64 / F64 / Str / Bool / List / NULL (DataType::
/// Any falls back to boxed storage in the columnar layout) must survive
/// filters, projection, grouping, and ordering identically on all paths.
#[test]
fn null_heavy_and_mixed_type_columns_agree() {
    let messy = |ctx: &SparkliteContext| {
        let schema = Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::new("m", DataType::Any),
            Field::new("s", DataType::Str),
        ]);
        let rows: Vec<Row> = (0..20i64)
            .map(|i| {
                let m = match i % 6 {
                    0 => Value::Null,
                    1 => Value::I64(i),
                    2 => Value::F64(i as f64 / 3.0),
                    3 => Value::str(format!("m{i}")),
                    4 => Value::Bool(i % 4 == 0),
                    _ => Value::list(vec![Value::I64(i), Value::Null]),
                };
                let s = if i % 5 == 0 { Value::Null } else { Value::str(format!("s{}", i % 2)) };
                vec![Value::I64(i % 3), m, s]
            })
            .collect();
        DataFrame::from_rows(ctx, schema, rows, 3).unwrap()
    };
    let run = |mode: Mode, batch: usize| {
        let ctx = ctx_mode(mode, batch);
        let out = messy(&ctx)
            .filter(Expr::not(Expr::is_null(Expr::col("s"))))
            .unwrap()
            .with_column(
                "t",
                Expr::cmp(Expr::col("m"), CmpOp::Eq, Expr::lit(Value::str("m7"))),
                DataType::Any,
            )
            .unwrap()
            .group_by(
                &["k"],
                vec![
                    (Agg::Count, "n".to_string()),
                    (Agg::CollectList("m".to_string()), "ms".to_string()),
                ],
            )
            .unwrap()
            .order_by(vec![("k".into(), SortDir::asc())])
            .unwrap()
            .collect_rows()
            .unwrap();
        RowCodec.encode(&out)
    };
    let baseline = run(Mode::RowMajor, 1024);
    for batch in [1usize, 4, 19, 20, 21, 1024] {
        assert_eq!(run(Mode::Vectorized, batch), baseline, "Vectorized diverged at batch={batch}");
    }
}

/// NaN and negative zero must survive the round trip bit-exactly: the
/// columnar F64 buffers hold raw doubles, and RowCodec comparison is on
/// bytes, so any canonicalization on either path shows up here.
#[test]
fn float_payloads_survive_bit_exactly() {
    let frame = |ctx: &SparkliteContext| {
        let schema =
            Schema::new(vec![Field::new("k", DataType::I64), Field::new("f", DataType::F64)]);
        let rows: Vec<Row> = vec![
            vec![Value::I64(0), Value::F64(f64::NAN)],
            vec![Value::I64(1), Value::F64(-0.0)],
            vec![Value::I64(2), Value::F64(0.0)],
            vec![Value::I64(3), Value::F64(f64::INFINITY)],
            vec![Value::I64(4), Value::F64(f64::NEG_INFINITY)],
            vec![Value::I64(5), Value::Null],
            vec![Value::I64(6), Value::F64(1.5e-300)],
        ];
        DataFrame::from_rows(ctx, schema, rows, 2).unwrap()
    };
    let run = |mode: Mode| {
        let ctx = ctx_mode(mode, 3);
        let out = frame(&ctx)
            .filter(Expr::not(Expr::is_null(Expr::col("k"))))
            .unwrap()
            .select(vec![
                NamedExpr::passthrough("k", DataType::I64),
                NamedExpr::passthrough("f", DataType::F64),
            ])
            .unwrap()
            .collect_rows()
            .unwrap();
        RowCodec.encode(&out)
    };
    assert_eq!(run(Mode::Vectorized), run(Mode::RowMajor), "Vectorized diverged");
}

/// A filter and a group-by over tiny partitions, RowCodec-encoded.
fn tiny_queries(ctx: &SparkliteContext, rows: i64) -> (Vec<u8>, Vec<u8>) {
    let filtered = seed_n(ctx, rows)
        .filter(Expr::cmp(Expr::col("k"), CmpOp::Gt, Expr::lit(Value::I64(-1))))
        .unwrap()
        .collect_rows()
        .unwrap();
    let grouped = seed_n(ctx, rows)
        .group_by(&["k"], vec![(Agg::Count, "n".into()), (Agg::Sum("v".into()), "sv".into())])
        .unwrap()
        .collect_rows()
        .unwrap();
    (RowCodec.encode(&filtered), RowCodec.encode(&grouped))
}

/// The physical plan depends on the query alone, never on what ran earlier
/// in the session: long after more than 16 tiny (under 8-row) batches have
/// flowed through the context, every run still executes the columnar
/// kernels — `columnar_batches` and `agg_rows_in` keep growing — and returns
/// the oracle's rows.
#[test]
fn physical_plan_does_not_depend_on_session_history() {
    let oracle = tiny_queries(&SparkliteContext::new(conf_mode(Mode::RowMajor)), 6);
    let ctx = SparkliteContext::new(conf_mode(Mode::Vectorized));
    for _ in 0..12 {
        assert_eq!(tiny_queries(&ctx, 6), oracle);
    }
    let m = ctx.metrics();
    assert!(m.columnar_batches > 16, "too few batches to cross 16: {}", m.columnar_batches);
    assert!(m.columnar_rows < 8 * m.columnar_batches, "batches were not tiny");
    let mut last = (m.columnar_batches, m.agg_rows_in);
    for run in 0..6 {
        assert_eq!(tiny_queries(&ctx, 6), oracle, "rows changed on run {run}");
        let m = ctx.metrics();
        assert!(m.columnar_batches > last.0, "run {run} skipped the batch kernels");
        assert!(m.agg_rows_in > last.1, "run {run} skipped the hash-aggregation kernel");
        last = (m.columnar_batches, m.agg_rows_in);
    }
}

/// `ExecConf::batch_size` is a public field, so it can be 0 without going
/// through the clamping builder. The batch loops must still read every row.
#[test]
fn zero_batch_size_set_directly_still_reads_every_row() {
    let mut conf = conf_mode(Mode::Vectorized);
    conf.exec.batch_size = 0;
    let (filtered, grouped) = tiny_queries(&SparkliteContext::new(conf), 50);
    let oracle = tiny_queries(&SparkliteContext::new(conf_mode(Mode::RowMajor)), 50);
    assert_eq!(filtered, oracle.0, "filter diverged at batch_size 0");
    assert_eq!(grouped, oracle.1, "group-by diverged at batch_size 0");
}
