//! The three workloads: their datasets, queries, independent reference
//! answers, and the set-up that makes one runnable instance of each.

use rumble_baselines::{handtuned, naive, ConfusionQuery, QueryOutput};
use rumble_bench::systems::rumble_query;
use rumble_core::api::PreparedQuery;
use rumble_core::{Item, Rumble};
use rumble_datagen::{confusion, heterogeneous, put_dataset, reddit};
use sparklite::{SparkliteConf, SparkliteContext};
use std::time::{Duration, Instant};

/// Driver-side task threads, pinned so results do not depend on the host.
pub const EXECUTORS: usize = 2;
/// Executor worker processes of the distributed workload.
pub const WORKERS: usize = 2;
/// Input split size. A 200K-object file becomes 18–45 splits, near the
/// paper's 23 128-MB blocks of the 2.9 GB confusion file; the engine's
/// 4 MB default would give 5–12 tasks per scan, and a stage's end on two
/// executors would jump by a whole task length from run to run.
const BLOCK_SIZE: usize = 1 << 20;
/// Rows kept by the `take` queries.
const TOP: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 11 queries on a warm, cached confusion file.
    Fig11Warm,
    /// First-touch queries: a fresh engine per query decodes its source.
    /// Auto-persist is off: with it on, each query also caches and later
    /// frees its 200K items, and its latency splits into two modes about
    /// 2.5x apart whose mix changes from run to run.
    ScanCold,
    /// Messy heterogeneous data over executor worker processes.
    MessyDist,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Fig11Warm, Workload::ScanCold, Workload::MessyDist];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig11Warm => "fig11-warm",
            Workload::ScanCold => "scan-cold",
            Workload::MessyDist => "messy-dist",
        }
    }

    /// Whether one engine and its compiled queries serve every pass (the
    /// source stays cached), or each query gets a fresh engine.
    pub fn warm(self) -> bool {
        self != Workload::ScanCold
    }
}

/// A query answer in a form every engine's output can be brought to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Count(u64),
    /// Order matters.
    List(Vec<String>),
    /// Order does not matter: kept sorted.
    Bag(Vec<String>),
}

impl Answer {
    fn bag(mut rows: Vec<String>) -> Answer {
        rows.sort();
        Answer::Bag(rows)
    }
}

impl From<QueryOutput> for Answer {
    fn from(out: QueryOutput) -> Answer {
        match out.normalized() {
            QueryOutput::Count(n) => Answer::Count(n),
            QueryOutput::Groups(g) => {
                Answer::Bag(g.into_iter().map(|(c, t, n)| format!("{c}\t{t}\t{n}")).collect())
            }
            QueryOutput::TopSamples(s) => Answer::List(s),
        }
    }
}

/// How a query's result is pulled out of the engine and compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// `PreparedQuery::count`.
    Count,
    /// `PreparedQuery::collect`, read as a single integer.
    CollectCount,
    /// `PreparedQuery::collect`, the Fig. 11 group rows `{c, t, n}`.
    CollectFig11Groups,
    /// `PreparedQuery::collect`, compared as a multiset.
    CollectBag,
    /// `PreparedQuery::take(10)`, the Fig. 11 `sample` strings in order.
    TakeFig11Samples,
    /// `PreparedQuery::take(10)`, compared in order.
    TakeList,
}

impl Exec {
    /// Runs `q` and brings its result to an [`Answer`].
    pub fn run(self, q: &PreparedQuery) -> Result<Answer, String> {
        let err = |e: rumble_core::RumbleError| e.to_string();
        match self {
            Exec::Count => Ok(Answer::Count(q.count().map_err(err)?)),
            Exec::TakeFig11Samples | Exec::TakeList => self.answer(q.take(TOP).map_err(err)?),
            _ => self.answer(q.collect().map_err(err)?),
        }
    }

    /// Brings a whole result sequence to the [`Answer`] this way of
    /// running the query gives.
    pub fn answer(self, items: Vec<Item>) -> Result<Answer, String> {
        let top = || items.iter().take(TOP);
        Ok(match self {
            Exec::Count => Answer::Count(items.len() as u64),
            Exec::CollectCount => match items.as_slice() {
                [one] => Answer::Count(
                    one.as_i64()
                        .and_then(|n| u64::try_from(n).ok())
                        .ok_or_else(|| format!("not a count: {}", one.serialize()))?,
                ),
                _ => return Err(format!("expected one count, got {} items", items.len())),
            },
            Exec::CollectFig11Groups => {
                let mut groups = Vec::with_capacity(items.len());
                for i in &items {
                    let o =
                        i.as_object().ok_or_else(|| format!("not a group: {}", i.serialize()))?;
                    let field = |k: &str| o.get(k).and_then(Item::as_str).unwrap_or("").to_string();
                    let n = o.get("n").and_then(Item::as_i64).and_then(|n| u64::try_from(n).ok());
                    groups.push((field("c"), field("t"), n.unwrap_or(u64::MAX)));
                }
                QueryOutput::Groups(groups).into()
            }
            Exec::CollectBag => Answer::bag(items.iter().map(Item::serialize).collect()),
            Exec::TakeFig11Samples => QueryOutput::TopSamples(
                top().map(|i| i.as_str().unwrap_or("").to_string()).collect(),
            )
            .into(),
            Exec::TakeList => Answer::List(top().map(Item::serialize).collect()),
        })
    }
}

/// One query of a workload with its reference answer.
pub struct Query {
    /// Short name (`filter`, `group`, …); the end-to-end metric
    /// `q<N>_ms` is this query's latency, N its 1-based position.
    pub label: &'static str,
    pub text: String,
    pub exec: Exec,
    /// Input objects the query scans.
    pub objects: usize,
    pub expected: Answer,
}

/// One generated input file.
pub struct Dataset {
    pub path: &'static str,
    pub text: String,
    pub objects: usize,
}

/// A ready-to-measure workload: the engine, its compiled queries (warm
/// workloads only) and the references.
pub struct Instance {
    pub workload: Workload,
    pub sc: SparkliteContext,
    pub rumble: Rumble,
    pub queries: Vec<Query>,
    pub prepared: Vec<PreparedQuery>,
    pub datasets: Vec<Dataset>,
}

impl Drop for Instance {
    fn drop(&mut self) {
        // Stops the worker processes and waits for them; no-op otherwise.
        self.sc.shutdown_cluster();
    }
}

/// One timed execution of a query.
pub struct Run {
    /// Index of the query in [`Instance::queries`].
    pub query: usize,
    pub answer: Result<Answer, String>,
    /// Before `Rumble::compile`; equals `exec_start` when the query was
    /// compiled in set-up.
    pub start: Instant,
    pub exec_start: Instant,
    pub end: Instant,
    /// What a user of the workload waits for: execution on a warm
    /// workload, compile plus execution on a cold one.
    pub latency: Duration,
}

impl Instance {
    /// Runs query `qi` once. A warm workload executes its compiled query,
    /// unless `compile` asks for a fresh compile on the same engine; a
    /// cold workload always compiles on a fresh engine that does not
    /// persist its source.
    pub fn run_query(&self, qi: usize, compile: bool) -> Run {
        let q = &self.queries[qi];
        let fresh = (!self.workload.warm()).then(|| {
            let engine = Rumble::new(self.sc.clone());
            engine.set_auto_persist(None);
            engine
        });
        let engine = fresh.as_ref().unwrap_or(&self.rumble);
        let start = Instant::now();
        let compiled = if compile || fresh.is_some() {
            Some(engine.compile(&q.text).map_err(|e| e.to_string()))
        } else {
            None
        };
        let exec_start = Instant::now();
        let answer = match &compiled {
            Some(Ok(p)) => q.exec.run(p),
            Some(Err(e)) => Err(e.clone()),
            None => q.exec.run(&self.prepared[qi]),
        };
        let end = Instant::now();
        let latency = if fresh.is_some() { end - start } else { end - exec_start };
        Run { query: qi, answer, start, exec_start, end, latency }
    }
}

const CONFUSION: &str = "hdfs:///confusion.json";
const REDDIT: &str = "hdfs:///reddit.json";
const MESSY: &str = "hdfs:///messy.json";

/// The Fig. 14 needle filter, as `systems::run_reddit_filter` writes it.
fn needle_query(path: &str) -> String {
    format!(
        "for $c in json-file(\"{path}\") where contains($c.body, \"{}\") return $c",
        reddit::NEEDLE
    )
}

fn messy_queries(path: &str) -> [(&'static str, String, Exec); 3] {
    [
        (
            "group",
            format!(
                "for $i in json-file(\"{path}\") group by $v := $i.value \
                 return {{ \"v\": $v, \"n\": count($i) }}"
            ),
            Exec::CollectBag,
        ),
        (
            "sort",
            format!(
                "for $i in json-file(\"{path}\") \
                 order by $i.nested.k descending, $i.nested.flag ascending return $i.id"
            ),
            Exec::TakeList,
        ),
        (
            "unnest",
            format!(
                "count(for $i in json-file(\"{path}\") let $t := $i.tags[] \
                 where exists($t) return $t)"
            ),
            Exec::CollectCount,
        ),
    ]
}

/// How `messy-dist` deploys its executor workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workers {
    /// Processes re-executing this binary with `--executor`.
    Processes,
    /// In-process threads speaking the same TCP protocol, for tests whose
    /// binary is not this one.
    #[cfg_attr(not(test), allow(dead_code))]
    Threads,
}

/// The engine configuration of a workload.
fn conf(workload: Workload, collect_events: bool, workers: Workers) -> SparkliteConf {
    let conf = SparkliteConf::default()
        .with_executors(EXECUTORS)
        .with_default_parallelism(2 * EXECUTORS)
        .with_block_size(BLOCK_SIZE)
        .with_event_collection(collect_events)
        .with_event_capacity(1 << 22);
    match (workload, workers) {
        (Workload::MessyDist, Workers::Processes) => conf.with_dist_processes(WORKERS),
        (Workload::MessyDist, Workers::Threads) => conf.with_dist_threads(WORKERS),
        _ => conf,
    }
}

fn lines(text: &str) -> usize {
    text.lines().filter(|l| !l.trim().is_empty()).count()
}

fn hand_tuned(sc: &SparkliteContext, path: &str, q: ConfusionQuery) -> Result<Answer, String> {
    handtuned::run(sc, path, q).map(Answer::from).map_err(|e| e.to_string())
}

/// Generates the workload's data from `seed`, stores it, starts the
/// context (and workers), compiles the queries and computes every
/// reference answer. The warm-up pass is the caller's.
pub fn setup(
    workload: Workload,
    objects: usize,
    seed: u64,
    collect_events: bool,
    workers: Workers,
) -> Result<Instance, String> {
    let sc = SparkliteContext::new(conf(workload, collect_events, workers));
    let dataset = |path, text: String| Dataset { path, objects: lines(&text), text };
    let datasets = match workload {
        Workload::Fig11Warm => vec![dataset(CONFUSION, confusion::generate(objects, seed))],
        Workload::ScanCold => vec![
            dataset(CONFUSION, confusion::generate(objects, seed)),
            dataset(REDDIT, reddit::generate(objects, seed)),
        ],
        Workload::MessyDist => vec![dataset(MESSY, heterogeneous::generate(objects, seed))],
    };
    for d in &datasets {
        put_dataset(&sc, d.path, &d.text).map_err(|e| e.to_string())?;
    }
    let n0 = datasets[0].objects;
    let mut queries = Vec::new();
    match workload {
        Workload::Fig11Warm => {
            for (label, q, exec) in [
                ("filter", ConfusionQuery::Filter, Exec::Count),
                ("group", ConfusionQuery::Group, Exec::CollectFig11Groups),
                ("sort", ConfusionQuery::Sort, Exec::TakeFig11Samples),
            ] {
                let expected = hand_tuned(&sc, CONFUSION, q)?;
                queries.push(Query {
                    label,
                    text: rumble_query(CONFUSION, q),
                    exec,
                    objects: n0,
                    expected,
                });
            }
        }
        Workload::ScanCold => {
            let reddit = &datasets[1];
            queries.push(Query {
                label: "count",
                text: format!("count(json-file(\"{CONFUSION}\"))"),
                exec: Exec::CollectCount,
                objects: n0,
                expected: Answer::Count(n0 as u64),
            });
            queries.push(Query {
                label: "filter",
                text: rumble_query(CONFUSION, ConfusionQuery::Filter),
                exec: Exec::Count,
                objects: n0,
                expected: hand_tuned(&sc, CONFUSION, ConfusionQuery::Filter)?,
            });
            let needles = reddit.text.lines().filter(|l| l.contains(reddit::NEEDLE)).count();
            queries.push(Query {
                label: "needle",
                text: needle_query(REDDIT),
                exec: Exec::Count,
                objects: reddit.objects,
                expected: Answer::Count(needles as u64),
            });
        }
        Workload::MessyDist => {
            let engine = naive::NaiveEngine::new(
                naive::NaiveConfig { item_budget: usize::MAX, ..naive::zorba_like() },
                &sc,
            );
            for (label, text, exec) in messy_queries(MESSY) {
                let expected = engine
                    .run(&text)
                    .map_err(|e| e.to_string())
                    .and_then(|items| exec.answer(items))
                    .map_err(|e| format!("reference {label}: {e}"))?;
                queries.push(Query { label, text, exec, objects: n0, expected });
            }
        }
    }
    let rumble = Rumble::new(sc.clone());
    let prepared = if workload.warm() {
        queries
            .iter()
            .map(|q| rumble.compile(&q.text).map_err(|e| format!("{}: {e}", q.label)))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };
    Ok(Instance { workload, sc, rumble, queries, prepared, datasets })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tally;

    fn corrupt(answer: &Answer) -> Answer {
        let touch = |mut v: Vec<String>| {
            match v.first_mut() {
                Some(first) => first.push('!'),
                None => v.push("!".to_string()),
            }
            v
        };
        match answer.clone() {
            Answer::Count(n) => Answer::Count(n + 1),
            Answer::List(v) => Answer::List(touch(v)),
            Answer::Bag(v) => Answer::Bag(touch(v)),
        }
    }

    #[test]
    fn reference_checks_reject_corrupted_answers() {
        for workload in Workload::ALL {
            let inst = setup(workload, 600, 7, false, Workers::Threads).unwrap();
            for qi in 0..inst.queries.len() {
                let mut tally = Tally::default();
                let mut run = inst.run_query(qi, false);
                tally.check(&inst, &run);
                assert_eq!(tally.failed, 0, "{workload:?} q{qi}: {:?}", tally.notes);
                let good = run.answer.clone().unwrap();
                run.answer = Ok(corrupt(&good));
                tally.check(&inst, &run);
                run.answer = Err("engine error".to_string());
                tally.check(&inst, &run);
                assert_eq!((tally.attempted, tally.failed), (3, 2), "{workload:?} q{qi}");
            }
        }
    }

    #[test]
    fn bags_ignore_order_and_lists_do_not() {
        let rows = vec!["b".to_string(), "a".to_string()];
        assert_eq!(Answer::bag(rows.clone()), Answer::bag(vec!["a".into(), "b".into()]));
        assert_ne!(Answer::List(rows), Answer::List(vec!["a".into(), "b".into()]));
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = setup(Workload::ScanCold, 300, 5, false, Workers::Threads).unwrap();
        let b = setup(Workload::ScanCold, 300, 5, false, Workers::Threads).unwrap();
        let c = setup(Workload::ScanCold, 300, 6, false, Workers::Threads).unwrap();
        let texts = |i: &Instance| i.datasets.iter().map(|d| d.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
    }
}
