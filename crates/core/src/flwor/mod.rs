//! FLWOR expressions: tuple streams with two physical forms.
//!
//! Each clause (except `return`) is a [`ClauseIterator`] producing a tuple
//! stream (§4.2). A tuple maps variable names to *materialized* sequences
//! of items. Every clause offers:
//!
//! * a **local pull API** ([`ClauseIterator::tuples`]), and
//! * a **DataFrame API** ([`ClauseIterator::frame`]) where the tuple stream
//!   is a DataFrame with one serialized-sequence (`Bin`) column per
//!   in-scope variable (§4.3). `frame` returns `None` when the stream
//!   cannot be distributed (e.g. the FLWOR starts from a local `let`),
//!   in which case the whole expression falls back to local execution —
//!   exactly the seamless switching of §5.8.
//!
//! The `return` clause lives in [`FlworIter`], which is an ordinary
//! expression iterator: in DataFrame mode it maps the frame back to an
//! `Rdd<Item>` with a flatMap (§4.10).

pub mod clauses;

use crate::error::Result;
use crate::item::{decode_items, encode_items, Item, Sequence};
use crate::runtime::{cursor_of, DynamicContext, ExprIterator, ExprRef, ItemCursor};
use sparklite::dataframe::{DataFrame, Schema, Value};
use sparklite::rdd::{task_bail, Rdd};
use std::sync::Arc;

/// One tuple of a tuple stream: variable name → materialized sequence.
#[derive(Clone, Debug, Default)]
pub struct Tuple {
    bindings: Vec<(Arc<str>, Sequence)>,
}

impl Tuple {
    pub fn new() -> Tuple {
        Tuple::default()
    }

    pub fn get(&self, name: &str) -> Option<&Sequence> {
        self.bindings.iter().rev().find(|(n, _)| n.as_ref() == name).map(|(_, s)| s)
    }

    /// A copy with one binding added (replacing any previous binding of the
    /// same name — variable redeclaration, §4.5).
    pub fn extended(&self, name: Arc<str>, value: Sequence) -> Tuple {
        let mut bindings: Vec<(Arc<str>, Sequence)> =
            self.bindings.iter().filter(|(n, _)| n.as_ref() != name.as_ref()).cloned().collect();
        bindings.push((name, value));
        Tuple { bindings }
    }

    /// Binds every tuple variable into a dynamic context — the tuple's
    /// contribution to the context nested expressions see (§4.2).
    pub fn bind_into(&self, ctx: &DynamicContext) -> DynamicContext {
        ctx.bind_many(self.bindings.clone())
    }

    pub fn vars(&self) -> impl Iterator<Item = &Arc<str>> {
        self.bindings.iter().map(|(n, _)| n)
    }
}

/// A cursor over a tuple stream.
pub type TupleCursor = Box<dyn Iterator<Item = Result<Tuple>> + Send>;

/// The DataFrame form of a tuple stream: one `Bin` column per variable,
/// holding the codec-serialized sequence bound to it.
#[derive(Clone)]
pub struct TupleFrame {
    pub df: DataFrame,
    /// The in-scope variables, in column order.
    pub vars: Vec<Arc<str>>,
}

/// A FLWOR clause.
pub trait ClauseIterator: Send + Sync {
    /// Variables in scope after this clause.
    fn out_vars(&self) -> &[Arc<str>];

    /// Local tuple-at-a-time evaluation (§5.5).
    fn tuples(&self, ctx: &DynamicContext) -> Result<TupleCursor>;

    /// DataFrame evaluation (§4.4–§4.9); `None` if this pipeline cannot be
    /// distributed.
    fn frame(&self, ctx: &DynamicContext) -> Result<Option<TupleFrame>>;

    /// Whether `var` is statically known to be bound to exactly one item in
    /// every tuple (a `for` or `count` binding). Lets `count($var)` after a
    /// group-by become a plain row COUNT (§4.7).
    fn is_unit_var(&self, _var: &str) -> bool {
        false
    }

    /// The clause chain as a fused scan — an initial simple `for` over one
    /// source followed only by `where` filters — if it has that shape.
    /// Fused pipelines run straight over the item RDD (filter + flatMap)
    /// without the Bin-column DataFrame detour, so no per-row
    /// encode/decode happens between the scan and the return clause.
    fn fused_scan(&self) -> Option<FusedScan> {
        None
    }

    /// The first `n` tuples of this stream, selected in ONE job, when the
    /// clause is an order-by directly on a distributed fused scan with
    /// static-path keys; `None` for every other shape.
    fn top_k(&self, _ctx: &DynamicContext, _n: usize) -> Result<Option<TopTuples>> {
        Ok(None)
    }
}

pub type ClauseRef = Arc<dyn ClauseIterator>;

/// See [`ClauseIterator::top_k`]: the winning tuples, in sort order, each
/// binding `var` to one scan item.
pub struct TopTuples {
    pub var: Arc<str>,
    pub items: Vec<Item>,
    /// Whether the stream has no tuples beyond `items`.
    pub complete: bool,
}

/// See [`ClauseIterator::fused_scan`]: `for $var in source where p1 …`.
pub struct FusedScan {
    pub var: Arc<str>,
    pub source: ExprRef,
    pub predicates: Vec<ExprRef>,
}

impl FusedScan {
    /// Whether the scan runs distributed in `ctx`: on the driver, over a
    /// source with an RDD form.
    pub fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        !ctx.in_executor() && self.source.is_rdd(ctx)
    }

    /// The source items that pass every `where`, as one RDD (only valid
    /// when [`FusedScan::is_rdd`] holds).
    pub fn filtered_rdd(self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        let mut rdd = self.source.rdd(ctx)?;
        let base = ctx.enter_executor();
        for pred in self.predicates {
            // Comparisons over navigation paths on the scan variable compile
            // to a direct item predicate: no per-item context bind at all.
            if let Some(p) = pred.item_predicate(&self.var) {
                rdd = rdd.filter(move |item| match p(item) {
                    Ok(b) => b,
                    Err(e) => task_bail(e),
                });
                continue;
            }
            let base = base.clone();
            let var = Arc::clone(&self.var);
            rdd = rdd.filter(move |item| {
                let child = base.bind(Arc::clone(&var), Arc::new(vec![item.clone()]));
                match pred.ebv(&child) {
                    Ok(b) => b,
                    Err(e) => task_bail(e),
                }
            });
        }
        Ok(rdd)
    }
}

// ---------------------------------------------------------------------------
// Row ↔ context bridging used by every DataFrame-mode UDF
// ---------------------------------------------------------------------------

/// Decodes the `uses` columns of a row into variable bindings on top of
/// `base` (which must already be executor-flagged).
pub(crate) fn ctx_from_row(
    base: &DynamicContext,
    schema: &Schema,
    row: &[Value],
    uses: &[Arc<str>],
) -> DynamicContext {
    let mut bindings = Vec::with_capacity(uses.len());
    for var in uses {
        let Some(idx) = schema.index_of(var) else { continue };
        let Value::Bin(bytes) = &row[idx] else { continue };
        match decode_items(bytes) {
            Ok(items) => bindings.push((Arc::clone(var), Arc::new(items))),
            Err(e) => task_bail(e),
        }
    }
    base.bind_many(bindings)
}

/// Serializes a sequence into a `Bin` cell.
pub(crate) fn bin_of(items: &[Item]) -> Value {
    Value::Bin(Arc::from(encode_items(items).into_boxed_slice()))
}

// ---------------------------------------------------------------------------
// The FLWOR expression itself
// ---------------------------------------------------------------------------

/// A complete FLWOR expression: the clause chain plus the return expression.
pub struct FlworIter {
    pub last: ClauseRef,
    pub return_expr: ExprRef,
    /// Free FLWOR variables of the return expression.
    pub return_uses: Vec<Arc<str>>,
    /// Memo of this execution's `frame()` probe, keyed by context identity.
    /// `is_rdd` and `rdd` are both asked per evaluation; without the memo an
    /// order-by frame would run its cache/type-discovery jobs twice. `rdd`
    /// takes the frame out, so an order-by's cached scaffolding lives no
    /// longer than the RDD built on it.
    frame_memo: parking_lot::Mutex<Option<(usize, Option<TupleFrame>)>>,
}

impl FlworIter {
    pub fn new(last: ClauseRef, return_expr: ExprRef, return_uses: Vec<Arc<str>>) -> FlworIter {
        FlworIter { last, return_expr, return_uses, frame_memo: parking_lot::Mutex::new(None) }
    }

    /// This execution's frame: memoized for later probes, or taken out of
    /// the memo when `consume` is set.
    fn frame_for(&self, ctx: &DynamicContext, consume: bool) -> Result<Option<TupleFrame>> {
        let mut memo = self.frame_memo.lock();
        let frame = match memo.take() {
            Some((id, cached)) if id == ctx.id() => cached,
            _ => self.last.frame(ctx)?,
        };
        if !consume {
            *memo = Some((ctx.id(), frame.clone()));
        }
        Ok(frame)
    }

    /// `take(n)` from the top-`n` tuples: the return clause runs on the
    /// winners only, exactly as the full path's executors would run it.
    /// `None` when they yield fewer than `n` items while more tuples exist.
    fn take_top(
        &self,
        top: TopTuples,
        ctx: &DynamicContext,
        n: usize,
    ) -> Result<Option<Vec<Item>>> {
        let base = ctx.enter_executor();
        let mut out = Vec::new();
        for item in top.items {
            if out.len() >= n {
                break;
            }
            let child = base.bind(Arc::clone(&top.var), Arc::new(vec![item]));
            out.extend(self.return_expr.materialize(&child)?);
        }
        if out.len() < n && !top.complete {
            return Ok(None);
        }
        out.truncate(n);
        Ok(Some(out))
    }

    /// Builds the fused (DataFrame-free) RDD for scan-shaped pipelines:
    /// each `where` becomes a filter and the return expression a flatMap,
    /// all directly over items.
    fn fused_rdd(&self, scan: FusedScan, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        let var = Arc::clone(&scan.var);
        let rdd = scan.filtered_rdd(ctx)?;
        if let Some(keys) = self.return_expr.key_path(&var) {
            // `return $v` (or a static path on it) needs no context either.
            if keys.is_empty() {
                return Ok(rdd);
            }
            return Ok(
                rdd.flat_map(move |item| crate::runtime::follow_key_path(&item, &keys).cloned())
            );
        }
        let base = ctx.enter_executor();
        let ret = Arc::clone(&self.return_expr);
        Ok(rdd.flat_map(move |item| {
            let child = base.bind(Arc::clone(&var), Arc::new(vec![item]));
            match ret.materialize(&child) {
                Ok(items) => items,
                Err(e) => task_bail(e),
            }
        }))
    }
}

impl ExprIterator for FlworIter {
    fn open(&self, ctx: &DynamicContext) -> Result<ItemCursor> {
        if self.is_rdd(ctx) {
            return Ok(cursor_of(self.materialize(ctx)?));
        }
        let return_expr = Arc::clone(&self.return_expr);
        let ctx = ctx.clone();
        let tuples = self.last.tuples(&ctx)?;
        Ok(Box::new(ReturnCursor { tuples, return_expr, ctx, inner: None, failed: false }))
    }

    fn take(&self, ctx: &DynamicContext, n: usize) -> Result<Vec<Item>> {
        // Before any `is_rdd` probe: on an order-by that probe already runs
        // the frame's cache and type-discovery jobs.
        if let Some(top) = self.last.top_k(ctx, n)? {
            if let Some(items) = self.take_top(top, ctx, n)? {
                return Ok(items);
            }
        }
        crate::runtime::take_prefix(self, ctx, n)
    }

    fn is_rdd(&self, ctx: &DynamicContext) -> bool {
        if ctx.in_executor() {
            return false;
        }
        if let Some(scan) = self.last.fused_scan() {
            return scan.source.is_rdd(ctx);
        }
        matches!(self.frame_for(ctx, false), Ok(Some(_)))
    }

    fn rdd(&self, ctx: &DynamicContext) -> Result<Rdd<Item>> {
        if let Some(scan) = self.last.fused_scan().filter(|s| s.is_rdd(ctx)) {
            return self.fused_rdd(scan, ctx);
        }
        let frame = self.frame_for(ctx, true)?.ok_or_else(|| {
            crate::error::RumbleError::dynamic(
                crate::error::codes::CLUSTER,
                "FLWOR tuple stream has no DataFrame form",
            )
        })?;
        // §4.10: the return clause maps each row of the DataFrame to the
        // items produced by the return expression — one flatMap back to an
        // RDD of items.
        let rows = frame.df.to_rdd()?;
        let schema = Arc::clone(frame.df.schema());
        let uses: Arc<Vec<Arc<str>>> = Arc::new(self.return_uses.clone());
        let return_expr = Arc::clone(&self.return_expr);
        let base = ctx.enter_executor();
        Ok(rows.flat_map(move |row| {
            let child = ctx_from_row(&base, &schema, &row, &uses);
            match return_expr.materialize(&child) {
                Ok(items) => items,
                Err(e) => task_bail(e),
            }
        }))
    }

    fn mode_hint(&self, ctx: &DynamicContext) -> Option<&'static str> {
        if self.last.fused_scan().is_some_and(|s| s.is_rdd(ctx)) {
            return Some("rdd (fused)");
        }
        if let Ok(Some(frame)) = self.frame_for(ctx, false) {
            // §4.7/§4.9: DataFrame execution is columnar; report whether the
            // physical compiler will fuse adjacent batch operators so the
            // observed-mode surface stays truthful.
            if frame.df.fused_pipeline() {
                return Some("dataframe (fused)");
            }
            return Some("dataframe");
        }
        None
    }
}

/// Local return: one cursor of items per tuple, streamed.
struct ReturnCursor {
    tuples: TupleCursor,
    return_expr: ExprRef,
    ctx: DynamicContext,
    inner: Option<ItemCursor>,
    failed: bool,
}

impl Iterator for ReturnCursor {
    type Item = Result<Item>;

    fn next(&mut self) -> Option<Result<Item>> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(inner) = &mut self.inner {
                match inner.next() {
                    Some(Ok(i)) => return Some(Ok(i)),
                    Some(Err(e)) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                    None => self.inner = None,
                }
            }
            match self.tuples.next() {
                None => return None,
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(e));
                }
                Some(Ok(tuple)) => {
                    let child = tuple.bind_into(&self.ctx);
                    match self.return_expr.open(&child) {
                        Ok(c) => self.inner = Some(c),
                        Err(e) => {
                            self.failed = true;
                            return Some(Err(e));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::seq;

    #[test]
    fn tuple_extension_and_shadowing() {
        let t = Tuple::new()
            .extended(Arc::from("x"), seq(vec![Item::Integer(1)]))
            .extended(Arc::from("y"), seq(vec![Item::Integer(2)]));
        assert_eq!(t.get("x").unwrap()[0], Item::Integer(1));
        let t2 = t.extended(Arc::from("x"), seq(vec![Item::Integer(9)]));
        assert_eq!(t2.get("x").unwrap()[0], Item::Integer(9));
        assert_eq!(t2.vars().count(), 2, "redeclaration replaces, not duplicates");
        assert_eq!(t.get("x").unwrap()[0], Item::Integer(1), "original untouched");
    }

    #[test]
    fn bin_roundtrip() {
        let items = vec![Item::Integer(1), Item::str("x")];
        let v = bin_of(&items);
        let Value::Bin(b) = v else { panic!() };
        assert_eq!(decode_items(&b).unwrap(), items);
    }
}
