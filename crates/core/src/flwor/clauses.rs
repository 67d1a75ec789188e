//! The FLWOR clauses, each with a local tuple path and the DataFrame
//! mapping of §4.4–§4.9.
//!
//! In DataFrame mode every in-scope variable is one `Bin` column holding
//! its serialized sequence. UDFs rebuild a dynamic context from the columns
//! an expression actually reads (its declared `uses` footprint — which also
//! feeds the optimizer's pruning, §4.7's "does not create the column at
//! all").

use super::{
    bin_of, ctx_from_row, ClauseIterator, ClauseRef, FusedScan, TopTuples, Tuple, TupleCursor,
    TupleFrame,
};
use crate::error::{codes, Result, RumbleError};
use crate::item::{decode_items, group_key, seq, Item};
use crate::runtime::{eval_ebv, follow_key_path, DynamicContext, ExprRef};
use sparklite::dataframe::batch::encode_row_sort_key;
use sparklite::dataframe::{Agg, NamedExpr, Row};
use sparklite::dataframe::{DataFrame, DataType, Expr as DfExpr, Field, Schema, SortDir, Value};
use sparklite::rdd::{task_bail, TopK};
use std::collections::HashMap;
use std::sync::Arc;

/// Computes the post-clause variable list: parent variables (minus a
/// redeclared one) plus the new variable.
fn vars_plus(parent: Option<&ClauseRef>, new: &[Arc<str>]) -> Vec<Arc<str>> {
    let mut out: Vec<Arc<str>> = match parent {
        None => Vec::new(),
        Some(p) => p.out_vars().iter().filter(|v| !new.iter().any(|n| n == *v)).cloned().collect(),
    };
    out.extend(new.iter().cloned());
    out
}

/// Lazily chains per-parent-tuple cursors of output tuples.
struct TupleFlatMap {
    parent: TupleCursor,
    f: Box<dyn FnMut(Tuple) -> Result<TupleCursor> + Send>,
    inner: Option<TupleCursor>,
    failed: bool,
}

impl TupleFlatMap {
    #[allow(clippy::new_ret_no_self)] // constructor returns the boxed cursor form
    fn new(
        parent: TupleCursor,
        f: impl FnMut(Tuple) -> Result<TupleCursor> + Send + 'static,
    ) -> TupleCursor {
        Box::new(TupleFlatMap { parent, f: Box::new(f), inner: None, failed: false })
    }
}

impl Iterator for TupleFlatMap {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Result<Tuple>> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(inner) = &mut self.inner {
                match inner.next() {
                    Some(r) => {
                        if r.is_err() {
                            self.failed = true;
                        }
                        return Some(r);
                    }
                    None => self.inner = None,
                }
            }
            match self.parent.next() {
                None => return None,
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(e));
                }
                Some(Ok(t)) => match (self.f)(t) {
                    Ok(c) => self.inner = Some(c),
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                },
            }
        }
    }
}

/// Builds a DataFrame UDF that evaluates a compiled expression against the
/// variables of a row and post-processes its result sequence.
fn row_udf(
    name: &str,
    expr: ExprRef,
    uses: Vec<Arc<str>>,
    ctx: &DynamicContext,
    finish: impl Fn(Vec<Item>) -> Value + Send + Sync + 'static,
) -> DfExpr {
    let base = ctx.enter_executor();
    let uses_strings: Vec<String> = uses.iter().map(|u| u.to_string()).collect();
    DfExpr::udf(name, Some(uses_strings), move |schema: &Schema, row: &[Value]| {
        let child = ctx_from_row(&base, schema, row, &uses);
        match expr.materialize(&child) {
            Ok(items) => finish(items),
            Err(e) => task_bail(e),
        }
    })
}

// ---------------------------------------------------------------------------
// §4.7/§4.8 key columns
// ---------------------------------------------------------------------------

/// Suffix and type of the §4.7 columns `__k{i}{suffix}` of group key `i`.
const GROUP_CELLS: [(&str, DataType); 3] =
    [("t", DataType::I64), ("s", DataType::Str), ("d", DataType::F64)];

/// Suffix and type of the §4.8 columns `__o{i}{suffix}` of sort key `i`.
const ORDER_CELLS: [(&str, DataType); 4] =
    [("t", DataType::I64), ("s", DataType::Str), ("d", DataType::F64), ("c", DataType::I64)];

/// The native key columns of `n` keys, in cell order.
fn key_fields(prefix: &str, n: usize, cells: &[(&str, DataType)]) -> Vec<Field> {
    (0..n)
        .flat_map(|i| {
            cells.iter().map(move |(s, dtype)| Field::new(format!("{prefix}{i}{s}"), *dtype))
        })
        .collect()
}

/// Appends the §4.7 cells `(type tag, string, double)` of one grouping key.
fn push_group_cells(value: &[Item], row: &mut Row) -> Result<()> {
    let (t, s, d) = group_key(value)?.encode();
    row.extend([Value::I64(t), Value::Str(s), Value::F64(d)]);
    Ok(())
}

/// Appends the §4.8 cells `(rank, string, double, class)` of one sort key.
fn push_order_cells(value: &[Item], empty_greatest: bool, row: &mut Row) -> Result<()> {
    let key = OrderKey::of(value)?;
    let (s, d) = match &key {
        OrderKey::Str(s) => (Arc::clone(s), 0.0),
        OrderKey::Num(n) => (Arc::from(""), *n),
        _ => (Arc::from(""), 0.0),
    };
    row.extend([
        Value::I64(key.rank(empty_greatest) as i64),
        Value::Str(s),
        Value::F64(d),
        Value::I64(key.class().map_or(0, i64::from)),
    ]);
    Ok(())
}

/// Generic key path: adds the `List` column `list` of encoded key cells,
/// computed by ONE UDF (so the row's variables are decoded once), then
/// splits it into one native column per field and drops it.
fn with_key_cells(
    df: DataFrame,
    list: &'static str,
    udf: DfExpr,
    fields: Vec<Field>,
) -> Result<DataFrame> {
    let mut df = df.with_column(list, udf, DataType::List)?;
    for (cell, field) in fields.into_iter().enumerate() {
        let extract = DfExpr::udf(
            field.name.clone(),
            Some(vec![list.to_string()]),
            move |schema: &Schema, row: &[Value]| {
                let idx = schema.index_of(list).expect("encoded column exists");
                match &row[idx] {
                    Value::List(l) => l[cell].clone(),
                    _ => task_bail("encoded key must be a list"),
                }
            },
        );
        df = df.with_column(field.name, extract, field.dtype)?;
    }
    Ok(df.drop_columns(&[list])?)
}

/// The union of the variables a set of key expressions reads.
fn union_uses<'a>(uses: impl IntoIterator<Item = &'a [Arc<str>]>) -> Vec<Arc<str>> {
    let mut out: Vec<Arc<str>> = Vec::new();
    for u in uses.into_iter().flatten() {
        if !out.contains(u) {
            out.push(Arc::clone(u));
        }
    }
    out
}

/// The sequence a static key path selects on one item.
fn path_value<'a>(item: &'a Item, path: &[Arc<str>]) -> &'a [Item] {
    follow_key_path(item, path).map_or(&[], std::slice::from_ref)
}

/// The fused scan directly under a group-by or order-by, with every key's
/// static path on the scan variable (`path_of` answers per key), if the
/// scan runs distributed in `ctx` and every key has that shape.
fn scan_key_paths<K>(
    parent: &ClauseRef,
    ctx: &DynamicContext,
    keys: &[K],
    path_of: impl Fn(&K, &Arc<str>) -> Option<Vec<Arc<str>>>,
) -> Option<(FusedScan, Vec<Vec<Arc<str>>>)> {
    let scan = parent.fused_scan()?;
    let paths = keys.iter().map(|k| path_of(k, &scan.var)).collect::<Option<Vec<_>>>()?;
    scan.is_rdd(ctx).then_some((scan, paths))
}

/// Scan-key path: when a group-by or order-by sits directly on a fused
/// scan and every key is a static path on the scan variable, the keyed
/// frame comes from ONE map over the filtered items. `cells` writes the
/// native key cells straight from each item; the variable's `Bin` column
/// is only built when `keep_var` says a later clause reads it whole. No
/// row is serialized just for a key UDF to decode it again.
fn scan_frame(
    scan: FusedScan,
    ctx: &DynamicContext,
    keep_var: bool,
    key_fields: Vec<Field>,
    cells: impl Fn(&Item, &mut Row) -> Result<()> + Send + Sync + 'static,
) -> Result<DataFrame> {
    let mut fields = Vec::with_capacity(key_fields.len() + 1);
    if keep_var {
        fields.push(Field::new(scan.var.as_ref(), DataType::Bin));
    }
    fields.extend(key_fields);
    let width = fields.len();
    let rows = scan.filtered_rdd(ctx)?.map(move |item| {
        let mut row = Vec::with_capacity(width);
        if keep_var {
            row.push(bin_of(std::slice::from_ref(&item)));
        }
        if let Err(e) = cells(&item, &mut row) {
            task_bail(e)
        }
        row
    });
    Ok(DataFrame::from_rdd(Schema::new(fields), &rows))
}

// ---------------------------------------------------------------------------
// for
// ---------------------------------------------------------------------------

/// `for $var [at $pos] [allowing empty] in expr` (§4.4).
pub struct ForClauseIter {
    pub parent: Option<ClauseRef>,
    pub var: Arc<str>,
    pub positional: Option<Arc<str>>,
    pub allowing_empty: bool,
    pub expr: ExprRef,
    /// FLWOR variables the binding expression reads.
    pub uses: Vec<Arc<str>>,
    out: Vec<Arc<str>>,
}

impl ForClauseIter {
    pub fn new(
        parent: Option<ClauseRef>,
        var: Arc<str>,
        positional: Option<Arc<str>>,
        allowing_empty: bool,
        expr: ExprRef,
        uses: Vec<Arc<str>>,
    ) -> Self {
        let mut new_vars = vec![Arc::clone(&var)];
        if let Some(p) = &positional {
            new_vars.push(Arc::clone(p));
        }
        let out = vars_plus(parent.as_ref(), &new_vars);
        ForClauseIter { parent, var, positional, allowing_empty, expr, uses, out }
    }

    /// Expands one tuple into the tuples produced by this binding.
    fn expand(&self, base: Tuple, ctx: &DynamicContext) -> Result<TupleCursor> {
        let child_ctx = base.bind_into(ctx);
        let items = self.expr.materialize(&child_ctx)?;
        if items.is_empty() && self.allowing_empty {
            let mut t = base.extended(Arc::clone(&self.var), seq(vec![]));
            if let Some(p) = &self.positional {
                t = t.extended(Arc::clone(p), seq(vec![Item::Integer(0)]));
            }
            return Ok(Box::new(std::iter::once(Ok(t))));
        }
        let var = Arc::clone(&self.var);
        let positional = self.positional.clone();
        Ok(Box::new(items.into_iter().enumerate().map(move |(i, item)| {
            let mut t = base.extended(Arc::clone(&var), seq(vec![item]));
            if let Some(p) = &positional {
                t = t.extended(Arc::clone(p), seq(vec![Item::Integer(i as i64 + 1)]));
            }
            Ok(t)
        })))
    }
}

impl ClauseIterator for ForClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        &self.out
    }

    fn is_unit_var(&self, var: &str) -> bool {
        if var == self.var.as_ref() {
            return !self.allowing_empty; // `allowing empty` may bind ()
        }
        if self.positional.as_deref() == Some(var) {
            return true;
        }
        self.parent.as_ref().is_some_and(|p| p.is_unit_var(var))
    }

    fn fused_scan(&self) -> Option<FusedScan> {
        if self.parent.is_some() || self.positional.is_some() || self.allowing_empty {
            return None;
        }
        Some(FusedScan {
            var: Arc::clone(&self.var),
            source: Arc::clone(&self.expr),
            predicates: Vec::new(),
        })
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        match &self.parent {
            None => self.expand(Tuple::new(), ctx),
            Some(parent) => {
                let parent_cursor = parent.tuples(ctx)?;
                // Work around borrowing self in the closure: clone the bits.
                let this = ForClauseIter {
                    parent: None,
                    var: Arc::clone(&self.var),
                    positional: self.positional.clone(),
                    allowing_empty: self.allowing_empty,
                    expr: Arc::clone(&self.expr),
                    uses: self.uses.clone(),
                    out: Vec::new(),
                };
                let ctx = ctx.clone();
                Ok(TupleFlatMap::new(parent_cursor, move |t| this.expand(t, &ctx)))
            }
        }
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        match &self.parent {
            None => {
                // Initial for: the input sequence itself must be an RDD,
                // which is then mapped straight into a one-column DataFrame
                // (§4.4, last paragraph).
                if ctx.in_executor() || !self.expr.is_rdd(ctx) || self.allowing_empty {
                    return Ok(None);
                }
                let rdd = self.expr.rdd(ctx)?;
                let (schema, vars, rows) = match &self.positional {
                    None => {
                        let schema =
                            Schema::new(vec![Field::new(self.var.as_ref(), DataType::Bin)]);
                        let rows = rdd.map(|item| vec![bin_of(std::slice::from_ref(&item))]);
                        (schema, vec![Arc::clone(&self.var)], rows)
                    }
                    Some(pos) => {
                        let schema = Schema::new(vec![
                            Field::new(self.var.as_ref(), DataType::Bin),
                            Field::new(pos.as_ref(), DataType::Bin),
                        ]);
                        let rows = rdd.zip_with_index().map(|(item, idx)| {
                            vec![
                                bin_of(std::slice::from_ref(&item)),
                                bin_of(&[Item::Integer(idx as i64 + 1)]),
                            ]
                        });
                        (schema, vec![Arc::clone(&self.var), Arc::clone(pos)], rows)
                    }
                };
                Ok(Some(TupleFrame { df: DataFrame::from_rdd(schema, &rows), vars }))
            }
            Some(parent) => {
                // Non-initial for: extended projection computing the item
                // list, then EXPLODE (§4.4).
                if self.positional.is_some() || self.allowing_empty {
                    return Ok(None); // local fallback for these variants
                }
                let Some(f) = parent.frame(ctx)? else { return Ok(None) };
                let mut df = f.df;
                if f.vars.iter().any(|v| v == &self.var) {
                    // Redeclaration hides the previous binding.
                    df = df.drop_columns(&[self.var.as_ref()])?;
                }
                let items_udf = row_udf(
                    &format!("for ${}", self.var),
                    Arc::clone(&self.expr),
                    self.uses.clone(),
                    ctx,
                    |items| {
                        Value::List(Arc::new(
                            items.iter().map(|i| bin_of(std::slice::from_ref(i))).collect(),
                        ))
                    },
                );
                let tmp = format!("__rumble_for_{}", self.var);
                let df = df.with_column(&tmp, items_udf, DataType::List)?.explode(
                    &tmp,
                    self.var.as_ref(),
                    DataType::Bin,
                )?;
                Ok(Some(TupleFrame { df, vars: self.out.clone() }))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// let
// ---------------------------------------------------------------------------

/// `let $var := expr` (§4.5): extended projection without the explode.
pub struct LetClauseIter {
    pub parent: Option<ClauseRef>,
    pub var: Arc<str>,
    pub expr: ExprRef,
    pub uses: Vec<Arc<str>>,
    out: Vec<Arc<str>>,
}

impl LetClauseIter {
    pub fn new(
        parent: Option<ClauseRef>,
        var: Arc<str>,
        expr: ExprRef,
        uses: Vec<Arc<str>>,
    ) -> Self {
        let out = vars_plus(parent.as_ref(), std::slice::from_ref(&var));
        LetClauseIter { parent, var, expr, uses, out }
    }
}

impl ClauseIterator for LetClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        &self.out
    }

    fn is_unit_var(&self, var: &str) -> bool {
        if var == self.var.as_ref() {
            return false; // a let binds an arbitrary sequence
        }
        self.parent.as_ref().is_some_and(|p| p.is_unit_var(var))
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        let var = Arc::clone(&self.var);
        let expr = Arc::clone(&self.expr);
        let ctx = ctx.clone();
        let parent: TupleCursor = match &self.parent {
            None => Box::new(std::iter::once(Ok(Tuple::new()))),
            Some(p) => p.tuples(&ctx)?,
        };
        Ok(TupleFlatMap::new(parent, move |t| {
            let child = t.bind_into(&ctx);
            let items = expr.materialize(&child)?;
            let out = t.extended(Arc::clone(&var), seq(items));
            Ok(Box::new(std::iter::once(Ok(out))) as TupleCursor)
        }))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        // An initial let is always local (§4.5: "If the let clause is the
        // first clause … execution is local").
        let Some(parent) = &self.parent else { return Ok(None) };
        let Some(f) = parent.frame(ctx)? else { return Ok(None) };
        let udf = row_udf(
            &format!("let ${}", self.var),
            Arc::clone(&self.expr),
            self.uses.clone(),
            ctx,
            |items| bin_of(&items),
        );
        let df = f.df.with_column(self.var.as_ref(), udf, DataType::Bin)?;
        Ok(Some(TupleFrame { df, vars: self.out.clone() }))
    }
}

// ---------------------------------------------------------------------------
// where
// ---------------------------------------------------------------------------

/// `where expr` (§4.6): a selection by effective boolean value.
pub struct WhereClauseIter {
    pub parent: ClauseRef,
    pub predicate: ExprRef,
    pub uses: Vec<Arc<str>>,
}

impl ClauseIterator for WhereClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        self.parent.out_vars()
    }

    fn is_unit_var(&self, var: &str) -> bool {
        self.parent.is_unit_var(var)
    }

    fn fused_scan(&self) -> Option<FusedScan> {
        // A `where` over a fused scan stays fused: with only the initial
        // `for` in scope, the predicate sees exactly `$var` plus the
        // driver context the filter closure captures.
        let mut scan = self.parent.fused_scan()?;
        scan.predicates.push(Arc::clone(&self.predicate));
        Some(scan)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        let pred = Arc::clone(&self.predicate);
        let ctx2 = ctx.clone();
        let parent = self.parent.tuples(ctx)?;
        Ok(Box::new(parent.filter_map(move |r| match r {
            Err(e) => Some(Err(e)),
            Ok(t) => {
                let child = t.bind_into(&ctx2);
                match eval_ebv(&pred, &child) {
                    Ok(true) => Some(Ok(t)),
                    Ok(false) => None,
                    Err(e) => Some(Err(e)),
                }
            }
        })))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        let Some(f) = self.parent.frame(ctx)? else { return Ok(None) };
        let base = ctx.enter_executor();
        let pred = Arc::clone(&self.predicate);
        let uses = self.uses.clone();
        let uses_strings: Vec<String> = uses.iter().map(|u| u.to_string()).collect();
        let udf =
            DfExpr::udf("where", Some(uses_strings), move |schema: &Schema, row: &[Value]| {
                let child = ctx_from_row(&base, schema, row, &uses);
                match eval_ebv(&pred, &child) {
                    Ok(b) => Value::Bool(b),
                    Err(e) => task_bail(e),
                }
            });
        let df = f.df.filter(udf)?;
        Ok(Some(TupleFrame { df, vars: f.vars }))
    }
}

// ---------------------------------------------------------------------------
// count
// ---------------------------------------------------------------------------

/// `count $var` (§4.9): global row numbering via the parallel
/// zip-with-index trick.
pub struct CountClauseIter {
    pub parent: ClauseRef,
    pub var: Arc<str>,
    out: Vec<Arc<str>>,
}

impl CountClauseIter {
    pub fn new(parent: ClauseRef, var: Arc<str>) -> Self {
        let out = vars_plus(Some(&parent), std::slice::from_ref(&var));
        CountClauseIter { parent, var, out }
    }
}

impl ClauseIterator for CountClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        &self.out
    }

    fn is_unit_var(&self, var: &str) -> bool {
        var == self.var.as_ref() || self.parent.is_unit_var(var)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        let var = Arc::clone(&self.var);
        let parent = self.parent.tuples(ctx)?;
        let mut n: i64 = 0;
        Ok(Box::new(parent.map(move |r| {
            r.map(|t| {
                n += 1;
                t.extended(Arc::clone(&var), seq(vec![Item::Integer(n)]))
            })
        })))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        let Some(f) = self.parent.frame(ctx)? else { return Ok(None) };
        let mut df = f.df;
        if f.vars.iter().any(|v| v == &self.var) {
            df = df.drop_columns(&[self.var.as_ref()])?;
        }
        let tmp = "__rumble_count";
        let df = df.zip_with_index(tmp, 1)?;
        let encode = DfExpr::udf(
            "count-encode",
            Some(vec![tmp.to_string()]),
            move |schema: &Schema, row: &[Value]| {
                let idx = schema.index_of(tmp).expect("tmp column exists");
                let Value::I64(n) = row[idx] else { task_bail("count column must be I64") };
                bin_of(&[Item::Integer(n)])
            },
        );
        let df = df.with_column(self.var.as_ref(), encode, DataType::Bin)?.drop_columns(&[tmp])?;
        Ok(Some(TupleFrame { df, vars: self.out.clone() }))
    }
}

// ---------------------------------------------------------------------------
// group by
// ---------------------------------------------------------------------------

/// How a non-grouping variable is consumed downstream, detected by the
/// compiler (§4.7 last paragraph): fully materialized, only ever counted,
/// or never used (column not even created).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonGroupingUsage {
    Materialize,
    CountOnly,
    Unused,
}

/// One grouping key: `$var := expr`, or a bare `$var`.
pub struct GroupKeySpec {
    pub var: Arc<str>,
    pub expr: Option<ExprRef>,
    pub uses: Vec<Arc<str>>,
}

/// `group by $k := expr, …` (§4.7).
pub struct GroupByClauseIter {
    pub parent: ClauseRef,
    pub keys: Vec<GroupKeySpec>,
    pub nongrouping: Vec<(Arc<str>, NonGroupingUsage)>,
    out: Vec<Arc<str>>,
}

impl GroupByClauseIter {
    pub fn new(
        parent: ClauseRef,
        keys: Vec<GroupKeySpec>,
        nongrouping: Vec<(Arc<str>, NonGroupingUsage)>,
    ) -> Self {
        let mut out: Vec<Arc<str>> = keys.iter().map(|k| Arc::clone(&k.var)).collect();
        for (v, usage) in &nongrouping {
            if *usage != NonGroupingUsage::Unused && !out.iter().any(|o| o == v) {
                out.push(Arc::clone(v));
            }
        }
        GroupByClauseIter { parent, keys, nongrouping, out }
    }

    /// Step 1 (§4.7): the tuple stream plus, for each key, three native
    /// columns — type tag, string value, double value — that Spark SQL can
    /// group on.
    fn keyed_frame(&self, ctx: &DynamicContext) -> Result<Option<DataFrame>> {
        let fields = key_fields("__k", self.keys.len(), &GROUP_CELLS);
        let paths = scan_key_paths(&self.parent, ctx, &self.keys, |k, var| match &k.expr {
            Some(e) => e.key_path(var),
            None => (k.var == *var).then(Vec::new),
        });
        if let Some((scan, paths)) = paths {
            // Only a materialized `$v` needs its column; a count-only one
            // is a plain row COUNT (the scan variable is a unit variable).
            let keep_var = self
                .nongrouping
                .iter()
                .any(|(v, usage)| *v == scan.var && *usage == NonGroupingUsage::Materialize);
            let df = scan_frame(scan, ctx, keep_var, fields, move |item, row| {
                paths.iter().try_for_each(|p| push_group_cells(path_value(item, p), row))
            })?;
            return Ok(Some(df));
        }
        let Some(f) = self.parent.frame(ctx)? else { return Ok(None) };
        let base = ctx.enter_executor();
        let specs: Vec<(Option<ExprRef>, Arc<str>)> =
            self.keys.iter().map(|s| (s.expr.clone(), Arc::clone(&s.var))).collect();
        let uses = union_uses(self.keys.iter().map(|s| s.uses.as_slice()));
        let uses_strings: Vec<String> = uses.iter().map(|u| u.to_string()).collect();
        let udf =
            DfExpr::udf("groupkeys", Some(uses_strings), move |schema: &Schema, row: &[Value]| {
                let child = ctx_from_row(&base, schema, row, &uses);
                let mut cells = Vec::with_capacity(specs.len() * GROUP_CELLS.len());
                for (expr, var) in &specs {
                    let value = match expr {
                        Some(e) => match e.materialize(&child) {
                            Ok(v) => v,
                            Err(e) => task_bail(e),
                        },
                        None => child.lookup(var).map(|s| s.to_vec()).unwrap_or_default(),
                    };
                    if let Err(e) = push_group_cells(&value, &mut cells) {
                        task_bail(e)
                    }
                }
                Value::List(Arc::new(cells))
            });
        Ok(Some(with_key_cells(f.df, "__keys", udf, fields)?))
    }
}

/// Accumulated per-group state on the local path.
enum LocalAgg {
    Items(Vec<Item>),
    Count(i64),
}

impl ClauseIterator for GroupByClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        &self.out
    }

    fn is_unit_var(&self, var: &str) -> bool {
        // Keys may be empty sequences; count-only outputs are single
        // integers; materialized outputs are arbitrary sequences.
        self.nongrouping
            .iter()
            .any(|(v, usage)| v.as_ref() == var && *usage == NonGroupingUsage::CountOnly)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        // Grouping is a pipeline breaker: materialize the parent stream.
        let mut groups: HashMap<Vec<crate::item::GroupKey>, Vec<LocalAgg>> = HashMap::new();
        let mut order: Vec<Vec<crate::item::GroupKey>> = Vec::new();
        let parent = self.parent.tuples(ctx)?;
        for r in parent {
            let t = r?;
            let child = t.bind_into(ctx);
            let mut key = Vec::with_capacity(self.keys.len());
            for spec in &self.keys {
                let value: Vec<Item> = match &spec.expr {
                    Some(e) => e.materialize(&child)?,
                    None => t.get(&spec.var).map(|s| s.to_vec()).unwrap_or_default(),
                };
                key.push(group_key(&value)?);
            }
            let entry = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                self.nongrouping
                    .iter()
                    .map(|(_, usage)| match usage {
                        NonGroupingUsage::CountOnly => LocalAgg::Count(0),
                        _ => LocalAgg::Items(Vec::new()),
                    })
                    .collect()
            });
            for ((var, usage), acc) in self.nongrouping.iter().zip(entry.iter_mut()) {
                let bound = t.get(var).cloned().unwrap_or_else(crate::item::empty_seq);
                match (usage, acc) {
                    (NonGroupingUsage::Unused, _) => {}
                    (NonGroupingUsage::CountOnly, LocalAgg::Count(n)) => *n += bound.len() as i64,
                    (_, LocalAgg::Items(items)) => items.extend(bound.iter().cloned()),
                    _ => unreachable!("accumulator kinds are fixed per variable"),
                }
            }
        }
        let keys: Vec<Arc<str>> = self.keys.iter().map(|k| Arc::clone(&k.var)).collect();
        let nongrouping = self.nongrouping.clone();
        let mut out = Vec::with_capacity(order.len());
        for key in order {
            let aggs = groups.remove(&key).expect("key recorded on insert");
            let mut t = Tuple::new();
            for (k, var) in key.iter().zip(&keys) {
                let value = match k.to_item() {
                    Some(i) => seq(vec![i]),
                    None => crate::item::empty_seq(),
                };
                t = t.extended(Arc::clone(var), value);
            }
            for ((var, usage), acc) in nongrouping.iter().zip(aggs) {
                match (usage, acc) {
                    (NonGroupingUsage::Unused, _) => {}
                    (NonGroupingUsage::CountOnly, LocalAgg::Count(n)) => {
                        t = t.extended(Arc::clone(var), seq(vec![Item::Integer(n)]));
                    }
                    (_, LocalAgg::Items(items)) => {
                        t = t.extended(Arc::clone(var), seq(items));
                    }
                    _ => unreachable!(),
                }
            }
            out.push(Ok(t));
        }
        Ok(Box::new(out.into_iter()))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        let Some(mut df) = self.keyed_frame(ctx)? else { return Ok(None) };

        // Step 2: pre-compute sequence lengths for count-only variables —
        // except unit variables (bound by `for`/`count`, always exactly one
        // item), whose count is simply the row count.
        for (var, usage) in &self.nongrouping {
            if *usage == NonGroupingUsage::CountOnly && !self.parent.is_unit_var(var) {
                let var2 = Arc::clone(var);
                let len_udf = DfExpr::udf(
                    format!("len ${var}"),
                    Some(vec![var.to_string()]),
                    move |schema: &Schema, row: &[Value]| {
                        let idx = schema.index_of(&var2).expect("variable column exists");
                        let Value::Bin(b) = &row[idx] else {
                            task_bail("variable column must be Bin")
                        };
                        match decode_items(b) {
                            Ok(items) => Value::I64(items.len() as i64),
                            Err(e) => task_bail(e),
                        }
                    },
                );
                df = df.with_column(format!("__len_{var}"), len_udf, DataType::I64)?;
            }
        }

        // Step 3: the native GROUP BY, with SEQUENCE(x) ≈ COLLECT_LIST and
        // the COUNT optimization of §4.7.
        let key_cols = key_fields("__k", self.keys.len(), &GROUP_CELLS);
        let key_col_refs: Vec<&str> = key_cols.iter().map(|f| f.name.as_str()).collect();
        let mut aggs: Vec<(Agg, String)> = Vec::new();
        for (var, usage) in &self.nongrouping {
            match usage {
                NonGroupingUsage::Unused => {}
                NonGroupingUsage::Materialize => {
                    aggs.push((Agg::CollectList(var.to_string()), format!("__agg_{var}")));
                }
                NonGroupingUsage::CountOnly => {
                    if self.parent.is_unit_var(var) {
                        aggs.push((Agg::Count, format!("__agg_{var}")));
                    } else {
                        aggs.push((Agg::Sum(format!("__len_{var}")), format!("__agg_{var}")));
                    }
                }
            }
        }
        let grouped = df.group_by(&key_col_refs, aggs)?;

        // Step 4: project back to variable columns — rebuild the key item
        // from its encoded triple, merge collected lists into one sequence.
        let mut exprs: Vec<NamedExpr> = Vec::new();
        for (i, spec) in self.keys.iter().enumerate() {
            let (tc, sc, dc) = (format!("__k{i}t"), format!("__k{i}s"), format!("__k{i}d"));
            let rebuild = DfExpr::udf(
                format!("rebuild ${}", spec.var),
                Some(vec![tc.clone(), sc.clone(), dc.clone()]),
                move |schema: &Schema, row: &[Value]| {
                    let t = row[schema.index_of(&tc).expect("tag col")].as_i64().unwrap_or(0);
                    let s = row[schema.index_of(&sc).expect("str col")].clone();
                    let d = row[schema.index_of(&dc).expect("dbl col")].as_f64().unwrap_or(0.0);
                    let key = match t {
                        1 | 7 => crate::item::GroupKey::Empty,
                        2 => crate::item::GroupKey::Null,
                        3 => crate::item::GroupKey::Bool(true),
                        4 => crate::item::GroupKey::Bool(false),
                        5 => crate::item::GroupKey::Str(match s {
                            Value::Str(s) => s,
                            _ => Arc::from(""),
                        }),
                        6 => crate::item::GroupKey::Num(d),
                        _ => task_bail(format!("bad key tag {t}")),
                    };
                    match key.to_item() {
                        Some(i) => bin_of(&[i]),
                        None => bin_of(&[]),
                    }
                },
            );
            exprs.push(NamedExpr {
                name: spec.var.to_string(),
                expr: rebuild,
                dtype: DataType::Bin,
            });
        }
        for (var, usage) in &self.nongrouping {
            let agg_col = format!("__agg_{var}");
            match usage {
                NonGroupingUsage::Unused => {}
                NonGroupingUsage::Materialize => {
                    let merge = DfExpr::udf(
                        format!("merge ${var}"),
                        Some(vec![agg_col.clone()]),
                        move |schema: &Schema, row: &[Value]| {
                            let idx = schema.index_of(&agg_col).expect("agg col");
                            let Value::List(parts) = &row[idx] else {
                                task_bail("collect_list output must be a list")
                            };
                            let mut items = Vec::new();
                            for p in parts.iter() {
                                let Value::Bin(b) = p else { task_bail("expected Bin parts") };
                                match decode_items(b) {
                                    Ok(v) => items.extend(v),
                                    Err(e) => task_bail(e),
                                }
                            }
                            bin_of(&items)
                        },
                    );
                    exprs.push(NamedExpr {
                        name: var.to_string(),
                        expr: merge,
                        dtype: DataType::Bin,
                    });
                }
                NonGroupingUsage::CountOnly => {
                    let count = DfExpr::udf(
                        format!("count ${var}"),
                        Some(vec![agg_col.clone()]),
                        move |schema: &Schema, row: &[Value]| {
                            let idx = schema.index_of(&agg_col).expect("agg col");
                            let n = row[idx].as_i64().unwrap_or(0);
                            bin_of(&[Item::Integer(n)])
                        },
                    );
                    exprs.push(NamedExpr {
                        name: var.to_string(),
                        expr: count,
                        dtype: DataType::Bin,
                    });
                }
            }
        }
        let df = grouped.select(exprs)?;
        Ok(Some(TupleFrame { df, vars: self.out.clone() }))
    }
}

// ---------------------------------------------------------------------------
// order by
// ---------------------------------------------------------------------------

/// One `order by` key.
pub struct OrderSpecIter {
    pub expr: ExprRef,
    pub uses: Vec<Arc<str>>,
    pub descending: bool,
    pub empty_greatest: bool,
}

/// A normalized sort key (§4.8): empty < null < false < true < value, with
/// `empty greatest` flipping the first rank.
#[derive(Clone, Debug)]
enum OrderKey {
    Empty,
    Null,
    Bool(bool),
    Str(Arc<str>),
    Num(f64),
}

impl OrderKey {
    fn of(items: &[Item]) -> Result<OrderKey> {
        match items {
            [] => Ok(OrderKey::Empty),
            [one] => match one {
                Item::Null => Ok(OrderKey::Null),
                Item::Boolean(b) => Ok(OrderKey::Bool(*b)),
                Item::Str(s) => Ok(OrderKey::Str(Arc::clone(s))),
                Item::Integer(v) => Ok(OrderKey::Num(*v as f64)),
                Item::Decimal(d) => Ok(OrderKey::Num(d.to_f64())),
                Item::Double(v) => Ok(OrderKey::Num(*v)),
                other => Err(RumbleError::type_err(format!(
                    "order-by keys must be atomic, got {}",
                    other.type_name()
                ))),
            },
            _ => Err(RumbleError::type_err("order-by keys must be single items or empty")),
        }
    }

    /// The value class (bool/str/num) for compatibility checking; `None`
    /// for empty/null which compare with everything.
    fn class(&self) -> Option<u8> {
        match self {
            OrderKey::Empty | OrderKey::Null => None,
            OrderKey::Bool(_) => Some(1),
            OrderKey::Str(_) => Some(2),
            OrderKey::Num(_) => Some(3),
        }
    }

    fn rank(&self, empty_greatest: bool) -> u8 {
        match self {
            OrderKey::Empty => {
                if empty_greatest {
                    9
                } else {
                    0
                }
            }
            OrderKey::Null => 1,
            OrderKey::Bool(false) => 2,
            OrderKey::Bool(true) => 3,
            OrderKey::Str(_) | OrderKey::Num(_) => 4,
        }
    }

    fn cmp_same_rank(&self, other: &OrderKey) -> std::cmp::Ordering {
        match (self, other) {
            (OrderKey::Str(a), OrderKey::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (OrderKey::Num(a), OrderKey::Num(b)) => a.total_cmp(b),
            _ => std::cmp::Ordering::Equal,
        }
    }
}

fn incompatible_sort_keys() -> RumbleError {
    RumbleError::dynamic(
        codes::INCOMPATIBLE_SORT_KEYS,
        "order-by keys mix incompatible types (e.g. strings and numbers)",
    )
}

/// ORs one key's class cell into its type-discovery mask.
fn note_class(mask: &mut u8, class: &Value) {
    if let Value::I64(c) = *class {
        if c > 0 {
            *mask |= 1 << (c as u8);
        }
    }
}

/// §4.8 type discovery: no key may have seen two value classes.
fn check_classes(masks: &[u8]) -> Result<()> {
    if masks.iter().any(|m| m.count_ones() > 1) {
        return Err(incompatible_sort_keys());
    }
    Ok(())
}

/// `order by expr [descending] [empty greatest], …` (§4.8).
pub struct OrderByClauseIter {
    pub parent: ClauseRef,
    pub specs: Vec<OrderSpecIter>,
}

impl OrderByClauseIter {
    /// Checks that one key class is compatible with the classes seen so far
    /// for its spec; JSONiq requires an error on e.g. strings mixed with
    /// numbers.
    fn merge_class(seen: &mut Option<u8>, class: Option<u8>) -> Result<()> {
        if let Some(c) = class {
            match seen {
                None => *seen = Some(c),
                Some(existing) if *existing == c => {}
                Some(_) => return Err(incompatible_sort_keys()),
            }
        }
        Ok(())
    }

    /// Per key, the direction of its rank, string and double sort cells.
    fn dirs(&self) -> impl Iterator<Item = SortDir> + '_ {
        self.specs.iter().map(|sp| if sp.descending { SortDir::desc() } else { SortDir::asc() })
    }

    /// The tuple stream plus every sort key encoded into native columns —
    /// rank, string, double, and a class column for the §4.8
    /// type-discovery pass — with the in-scope variables.
    fn keyed_frame(&self, ctx: &DynamicContext) -> Result<Option<(DataFrame, Vec<Arc<str>>)>> {
        let fields = key_fields("__o", self.specs.len(), &ORDER_CELLS);
        if let Some((scan, paths)) =
            scan_key_paths(&self.parent, ctx, &self.specs, |sp, var| sp.expr.key_path(var))
        {
            // The return clause reads `$v` whole: it travels on as `Bin`.
            let vars = vec![Arc::clone(&scan.var)];
            let specs: Vec<(Vec<Arc<str>>, bool)> =
                paths.into_iter().zip(self.specs.iter().map(|sp| sp.empty_greatest)).collect();
            let df = scan_frame(scan, ctx, true, fields, move |item, row| {
                specs.iter().try_for_each(|(p, empty_greatest)| {
                    push_order_cells(path_value(item, p), *empty_greatest, row)
                })
            })?;
            return Ok(Some((df, vars)));
        }
        let Some(f) = self.parent.frame(ctx)? else { return Ok(None) };
        let base = ctx.enter_executor();
        let specs: Vec<(ExprRef, bool)> =
            self.specs.iter().map(|sp| (Arc::clone(&sp.expr), sp.empty_greatest)).collect();
        let uses = union_uses(self.specs.iter().map(|sp| sp.uses.as_slice()));
        let uses_strings: Vec<String> = uses.iter().map(|u| u.to_string()).collect();
        let udf =
            DfExpr::udf("orderkeys", Some(uses_strings), move |schema: &Schema, row: &[Value]| {
                let child = ctx_from_row(&base, schema, row, &uses);
                let mut cells = Vec::with_capacity(specs.len() * ORDER_CELLS.len());
                for (expr, empty_greatest) in &specs {
                    let pushed = expr
                        .materialize(&child)
                        .and_then(|items| push_order_cells(&items, *empty_greatest, &mut cells));
                    if let Err(e) = pushed {
                        task_bail(e)
                    }
                }
                Value::List(Arc::new(cells))
            });
        Ok(Some((with_key_cells(f.df, "__ord", udf, fields)?, f.vars)))
    }
}

impl ClauseIterator for OrderByClauseIter {
    fn out_vars(&self) -> &[Arc<str>] {
        self.parent.out_vars()
    }

    fn is_unit_var(&self, var: &str) -> bool {
        self.parent.is_unit_var(var)
    }

    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor> {
        // A pipeline breaker: materialize, key, verify, sort.
        let mut rows: Vec<(Vec<OrderKey>, Tuple)> = Vec::new();
        let mut classes: Vec<Option<u8>> = vec![None; self.specs.len()];
        let parent = self.parent.tuples(ctx)?;
        for r in parent {
            let t = r?;
            let child = t.bind_into(ctx);
            let mut keys = Vec::with_capacity(self.specs.len());
            for (spec, seen) in self.specs.iter().zip(classes.iter_mut()) {
                let items = spec.expr.materialize(&child)?;
                let k = OrderKey::of(&items)?;
                Self::merge_class(seen, k.class())?;
                keys.push(k);
            }
            rows.push((keys, t));
        }
        let specs: Vec<(bool, bool)> =
            self.specs.iter().map(|s| (s.descending, s.empty_greatest)).collect();
        rows.sort_by(|(ka, _), (kb, _)| {
            for ((a, b), (descending, empty_greatest)) in ka.iter().zip(kb).zip(&specs) {
                let o = a
                    .rank(*empty_greatest)
                    .cmp(&b.rank(*empty_greatest))
                    .then_with(|| a.cmp_same_rank(b));
                let o = if *descending { o.reverse() } else { o };
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(Box::new(rows.into_iter().map(|(_, t)| Ok(t))))
    }

    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>> {
        let Some((df, vars)) = self.keyed_frame(ctx)? else { return Ok(None) };

        // Materialize once: the discovery pass and the sort's sampling +
        // partitioning passes would otherwise each recompute the whole
        // upstream pipeline (Spark serves these from shuffle files).
        let df = df.cache()?;

        // Type-discovery pass (§4.8): one job over the class columns.
        {
            let rows = df.to_rdd()?;
            let schema = Arc::clone(df.schema());
            let class_idx: Vec<usize> = (0..self.specs.len())
                .map(|i| schema.index_of(&format!("__o{i}c")).expect("class column"))
                .collect();
            let n = self.specs.len();
            let idx = Arc::new(class_idx);
            let idx2 = Arc::clone(&idx);
            let masks = rows.aggregate(
                vec![0u8; n],
                move |mut acc, row| {
                    for (slot, i) in acc.iter_mut().zip(idx.iter()) {
                        note_class(slot, &row[*i]);
                    }
                    acc
                },
                move |mut a, b| {
                    let _ = &idx2;
                    for (x, y) in a.iter_mut().zip(b) {
                        *x |= y;
                    }
                    a
                },
            )?;
            check_classes(&masks)?;
        }

        // The actual sort on native columns, then drop the scaffolding.
        let mut sort_keys: Vec<(String, SortDir)> = Vec::new();
        for (i, dir) in self.dirs().enumerate() {
            sort_keys.push((format!("__o{i}t"), dir));
            sort_keys.push((format!("__o{i}s"), dir));
            sort_keys.push((format!("__o{i}d"), dir));
        }
        let df = df.order_by(sort_keys)?;
        let drop = key_fields("__o", self.specs.len(), &ORDER_CELLS);
        let drop_refs: Vec<&str> = drop.iter().map(|f| f.name.as_str()).collect();
        let df = df.drop_columns(&drop_refs)?;
        Ok(Some(TupleFrame { df, vars }))
    }

    /// Top-`n` over the scan-key shape, in one job: per partition, encode
    /// each item's §4.8 cells into the sort key `frame` would sort on, OR
    /// the class bits (so type discovery raises exactly what it raises on
    /// the full path), and keep the `n` smallest by (key, position). The
    /// driver merges the runs by (key, partition, position): the tie order
    /// of the stable range sort.
    fn top_k(&self, ctx: &DynamicContext, n: usize) -> Result<Option<TopTuples>> {
        let Some((scan, paths)) =
            scan_key_paths(&self.parent, ctx, &self.specs, |sp, var| sp.expr.key_path(var))
        else {
            return Ok(None);
        };
        let var = Arc::clone(&scan.var);
        let keys: Vec<(Vec<Arc<str>>, bool)> =
            paths.into_iter().zip(self.specs.iter().map(|sp| sp.empty_greatest)).collect();
        // Key `i`'s cells start at `width * i`; its class cell is not sorted on.
        let width = ORDER_CELLS.len();
        let spec: Vec<(usize, SortDir)> = self
            .dirs()
            .enumerate()
            .flat_map(|(i, dir)| (0..3).map(move |cell| (width * i + cell, dir)))
            .collect();
        let runs = scan
            .filtered_rdd(ctx)?
            .map_partitions(move |_, items| {
                let mut top = TopK::new(n);
                let mut masks = vec![0u8; keys.len()];
                let mut cells: Row = Vec::with_capacity(keys.len() * width);
                for item in items {
                    cells.clear();
                    for ((path, empty_greatest), mask) in keys.iter().zip(masks.iter_mut()) {
                        if let Err(e) =
                            push_order_cells(path_value(&item, path), *empty_greatest, &mut cells)
                        {
                            task_bail(e)
                        }
                        note_class(mask, &cells[cells.len() - 1]);
                    }
                    top.push(encode_row_sort_key(&cells, &spec), item);
                }
                Box::new(std::iter::once((masks, top.offered(), top.into_sorted())))
            })
            .collect()?;
        let mut masks = vec![0u8; self.specs.len()];
        let mut total = 0u64;
        let mut sorted_runs = Vec::with_capacity(runs.len());
        for (run_masks, offered, run) in runs {
            masks.iter_mut().zip(run_masks).for_each(|(m, r)| *m |= r);
            total += offered;
            sorted_runs.push(run);
        }
        check_classes(&masks)?;
        let items: Vec<Item> = TopK::merge(sorted_runs, n).into_iter().map(|(_, i)| i).collect();
        Ok(Some(TopTuples { var, complete: items.len() as u64 == total, items }))
    }
}
