//! The traced run: per-layer metrics measured from outside the engine.
//!
//! It sets the workload up twice in one process, once with event
//! collection off (the baseline for `trace.overhead_pct`) and once with
//! it on, and runs passes on the two in turn for `--seconds`, each query
//! once per pass. Both compile every query afresh, so that event
//! collection is the only difference between them (a `PreparedQuery`
//! kept from set-up runs about 7% slower than a fresh one on the warm
//! workloads). In the traced passes the benchmark records spans around
//! `Rumble::compile` (`api.compile_us`) and the `PreparedQuery` call
//! (`api.execute_us`), the jobs the engine's `Timeline` saw inside each
//! execution, and the `MetricsSnapshot` difference over each pass. Time
//! not covered by a job is the driver's (`driver.outside_jobs_us`).
//! Afterwards single-threaded probes time the front end and the decoder on
//! the workload's own queries and files.
//!
//! Each per-pass quantity is reported as its median over passes; latency
//! percentiles come from the engine's histograms merged over all traced
//! passes. The run is invalid — `correct` is false — when a job lies
//! outside every query's execution or its jobs add up to more than the
//! execution, when events were dropped, or when the distributed timeline
//! does not reconcile with the engine's counters after
//! `shutdown_cluster()`.

use crate::report::{median, Metric};
use crate::workload::{Instance, Run, Workload, EXECUTORS};
use crate::{query_latencies, run_for, run_pass, setup, Args, Outcome, Tally};
use rumble_core::{compiler, item, semantics, syntax};
use sparklite::events::Event;
use sparklite::{histogram_percentile, MetricsSnapshot, HIST_BUCKETS};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repetitions of each front-end probe call; the median is kept.
const FRONT_END_REPS: usize = 25;
/// Slack allowed between a job's event stamps and the execution window
/// around it, for the stamps' microsecond truncation.
const STAMP_SLACK_US: u64 = 2;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer numbers of one traced pass.
struct PassTrace {
    compile_us: f64,
    execute_us: f64,
    jobs_us: f64,
    outside_us: f64,
    /// Engine counters over the pass.
    delta: MetricsSnapshot,
    /// Cache occupancy after the pass.
    cached_bytes: u64,
}

fn hist_sub(a: &[u64; HIST_BUCKETS], b: &[u64; HIST_BUCKETS]) -> [u64; HIST_BUCKETS] {
    std::array::from_fn(|i| a[i].saturating_sub(b[i]))
}

/// `after − before` for every counter (gauges are left at zero).
fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot) -> MetricsSnapshot {
    macro_rules! sub {
        ($($f:ident),*) => {
            MetricsSnapshot {
                $($f: after.$f.saturating_sub(before.$f),)*
                task_duration_hist: hist_sub(&after.task_duration_hist, &before.task_duration_hist),
                block_fetch_hist: hist_sub(&after.block_fetch_hist, &before.block_fetch_hist),
                queue_wait_hist: hist_sub(&after.queue_wait_hist, &before.queue_wait_hist),
                cached_bytes: 0,
            }
        };
    }
    sub!(
        jobs,
        stages,
        tasks,
        input_records,
        input_bytes,
        shuffle_records,
        shuffle_bytes,
        output_records,
        task_busy_us,
        failed_tasks,
        retried_tasks,
        recomputed_tasks,
        speculated_tasks,
        speculative_wins,
        injected_faults,
        optimizer_rule_fires,
        cache_hits,
        cache_misses,
        cache_evictions,
        executors_registered,
        executors_lost,
        heartbeats,
        blocks_pushed,
        block_bytes_pushed,
        blocks_fetched,
        block_bytes_fetched,
        columnar_batches,
        columnar_rows,
        fused_pipelines,
        agg_rows_in,
        agg_groups_out,
        events_lost
    )
}

/// `(start, end)` stamps, µs since the event bus epoch, of every job that
/// started in `events`.
fn job_spans(events: &[(u64, Event)]) -> Vec<(u64, Option<u64>)> {
    let mut order = Vec::new();
    let mut spans: HashMap<u64, (u64, Option<u64>)> = HashMap::new();
    for (at, ev) in events {
        match ev {
            Event::JobStart { job, .. } => {
                order.push(*job);
                spans.insert(*job, (*at, None));
            }
            Event::JobEnd { job, .. } => {
                if let Some(s) = spans.get_mut(job) {
                    s.1 = Some(*at);
                }
            }
            _ => {}
        }
    }
    order.iter().map(|j| spans[j]).collect()
}

/// Attributes one pass's jobs to its queries and checks the accounting:
/// every job lies inside the execution that started it. Returns the
/// pass's compile, execute, job and driver-only microseconds.
fn account(
    inst: &Instance,
    runs: &[Run],
    spans: &[(u64, Option<u64>)],
    epoch: Instant,
    invalid: &mut Vec<String>,
) -> (f64, f64, f64, f64) {
    let at = |t: Instant| t.saturating_duration_since(epoch).as_micros() as u64;
    let (mut compile, mut execute, mut jobs_total, mut outside) = (0.0, 0.0, 0.0, 0.0);
    let mut claimed = 0usize;
    for r in runs {
        let label = inst.queries[r.query].label;
        let (lo, hi) = (at(r.exec_start), at(r.end));
        let mut jobs_us = 0u64;
        for &(start, end) in spans {
            if start + STAMP_SLACK_US < lo || start > hi + STAMP_SLACK_US {
                continue;
            }
            claimed += 1;
            match end {
                Some(end) if end <= hi + STAMP_SLACK_US => jobs_us += end - start,
                _ => invalid.push(format!("{label}: a job outlived its execution")),
            }
        }
        let c = us(r.exec_start - r.start);
        let e = us(r.end - r.exec_start);
        // compile + jobs + driver is the wall time by construction; what
        // can fail is the coverage. Jobs run one after another on the
        // driver, so their spans cannot add up to more than the execution
        // they ran in.
        let o = e - jobs_us as f64;
        if o < -(STAMP_SLACK_US as f64) * 2.0 {
            invalid.push(format!("{label}: jobs cover {jobs_us} µs of a {e:.0} µs execution"));
        }
        compile += c;
        execute += e;
        jobs_total += jobs_us as f64;
        outside += o;
    }
    if claimed != spans.len() {
        invalid.push(format!("{} job(s) ran outside every query", spans.len() - claimed));
    }
    (compile, execute, jobs_total, outside)
}

/// Single-threaded timings of the front end on the workload's queries:
/// `(parse, analyze, compile)` µs, each the sum over queries of the
/// median call.
fn front_end_probe(inst: &Instance) -> Result<[f64; 3], String> {
    let mut sums = [0.0; 3];
    for q in &inst.queries {
        let mut t = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..FRONT_END_REPS {
            let s = Instant::now();
            let program = syntax::parse_program(&q.text).map_err(|e| e.to_string())?;
            let p = Instant::now();
            black_box(semantics::analyze(&program));
            let a = Instant::now();
            black_box(compiler::compile_program(&program).map_err(|e| e.to_string())?);
            let c = Instant::now();
            t[0].push(us(p - s));
            t[1].push(us(a - p));
            t[2].push(us(c - a));
        }
        for (sum, v) in sums.iter_mut().zip(&t) {
            *sum += median(v);
        }
    }
    Ok(sums)
}

/// Single-threaded decode throughput over the workload's files:
/// `(jsonlite::parse_value per line, item::items_from_json_lines)` MB/s.
fn decode_probe(inst: &Instance) -> Result<[f64; 2], String> {
    let (mut bytes, mut parse_s, mut build_s) = (0usize, 0.0, 0.0);
    for d in &inst.datasets {
        bytes += d.text.len();
        let s = Instant::now();
        for (_, line) in jsonlite::JsonLines::new(&d.text) {
            black_box(jsonlite::parse_value(line).map_err(|e| e.to_string())?);
        }
        parse_s += s.elapsed().as_secs_f64();
        let s = Instant::now();
        let items = item::items_from_json_lines(&d.text).map_err(|e| e.to_string())?;
        build_s += s.elapsed().as_secs_f64();
        drop(black_box(items));
    }
    Ok([mb(bytes as u64) / parse_s.max(1e-9), mb(bytes as u64) / build_s.max(1e-9)])
}

/// The sum over queries of each query's median latency.
fn latency_sum(latencies: &[Vec<f64>]) -> f64 {
    latencies.iter().map(|v| median(v)).sum()
}

/// Merges the histograms of every pass.
fn merged(
    passes: &[PassTrace],
    pick: fn(&MetricsSnapshot) -> &[u64; HIST_BUCKETS],
) -> [u64; HIST_BUCKETS] {
    let mut out = [0u64; HIST_BUCKETS];
    for p in passes {
        for (o, v) in out.iter_mut().zip(pick(&p.delta)) {
            *o += v;
        }
    }
    out
}

/// The traced run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut invalid = Vec::new();
    let base = setup(args, false, &mut tally)?;
    let inst = setup(args, true, &mut tally)?;
    let collector = inst.sc.event_collector().expect("collection is on");
    let epoch = inst.sc.event_bus().epoch();
    let mut seen = collector.events().len();
    let mut passes: Vec<PassTrace> = Vec::new();
    let mut base_runs = Vec::new();
    let mut traced_runs = Vec::new();
    let mut pass = |traced: bool| {
        if !traced {
            base_runs.extend(run_pass(&base, true, Duration::ZERO, &mut tally));
            return;
        }
        let before = inst.sc.metrics();
        let runs = run_pass(&inst, true, Duration::ZERO, &mut tally);
        let after = inst.sc.metrics();
        let events = collector.events();
        let spans = job_spans(&events[seen..]);
        seen = events.len();
        let (compile_us, execute_us, jobs_us, outside_us) =
            account(&inst, &runs, &spans, epoch, &mut invalid);
        traced_runs.extend(runs);
        passes.push(PassTrace {
            compile_us,
            execute_us,
            jobs_us,
            outside_us,
            delta: delta(&after, &before),
            cached_bytes: after.cached_bytes,
        });
    };
    // Both instances stay alive and take turns, and the one that goes
    // first alternates, so that drift in the machine's speed and whatever
    // a pass leaves behind for the next land on both alike.
    let mut round = 0;
    run_for(args.seconds, || {
        let traced_first = round % 2 == 1;
        pass(traced_first);
        pass(!traced_first);
        round += 1;
    });
    let base_ms = latency_sum(&query_latencies(base.queries.len(), &base_runs));
    drop(base);
    let [parse_us, analyze_us, compile_us] = front_end_probe(&inst)?;
    let [parse_mb_s, build_mb_s] = decode_probe(&inst)?;

    inst.sc.shutdown_cluster();
    let totals = inst.sc.metrics();
    if collector.dropped() > 0 {
        invalid.push(format!("the collector dropped {} events", collector.dropped()));
    }
    let timeline = inst.sc.timeline().expect("collection is on");
    let reconciled = timeline.reconcile(&totals);
    if inst.workload == Workload::MessyDist {
        if let Err(e) = &reconciled {
            invalid.push(format!("timeline does not reconcile: {e}"));
        }
    }

    let n = passes.len();
    let per_pass = |name: &str, unit: &'static str, f: &dyn Fn(&PassTrace) -> f64| {
        let v: Vec<f64> = passes.iter().map(f).collect();
        Metric::median_of(name, &v, unit)
    };
    let hist_metric = |name: &str, h: &[u64; HIST_BUCKETS], q: f64| {
        Metric::new(name, histogram_percentile(h, q) as f64, "us", h.iter().sum::<u64>() as usize)
    };
    let queue = merged(&passes, |m| &m.queue_wait_hist);
    let task = merged(&passes, |m| &m.task_duration_hist);
    let fetch = merged(&passes, |m| &m.block_fetch_hist);
    let total =
        |f: fn(&MetricsSnapshot) -> u64| passes.iter().map(|p| f(&p.delta)).sum::<u64>() as f64;
    let q = inst.queries.len();
    let files = inst.datasets.len();
    let traced_ms = latency_sum(&query_latencies(q, &traced_runs));

    let metrics = vec![
        Metric::new("syntax.parse_us", parse_us, "us", q * FRONT_END_REPS),
        Metric::new("semantics.analyze_us", analyze_us, "us", q * FRONT_END_REPS),
        Metric::new("compiler.compile_us", compile_us, "us", q * FRONT_END_REPS),
        Metric::new("jsonlite.parse_mb_s", parse_mb_s, "MB/s", files),
        Metric::new("item.build_mb_s", build_mb_s, "MB/s", files),
        per_pass("api.compile_us", "us", &|p| p.compile_us),
        per_pass("api.execute_us", "us", &|p| p.execute_us),
        per_pass("driver.outside_jobs_us", "us", &|p| p.outside_us),
        per_pass("executor.tasks", "count", &|p| p.delta.tasks as f64),
        per_pass("executor.task_busy_ms", "ms", &|p| p.delta.task_busy_us as f64 / 1e3),
        per_pass("executor.utilization", "ratio", &|p| {
            ratio(p.delta.task_busy_us as f64, p.jobs_us * EXECUTORS as f64)
        }),
        hist_metric("executor.queue_wait_p50_us", &queue, 0.50),
        hist_metric("executor.queue_wait_p95_us", &queue, 0.95),
        hist_metric("executor.task_p95_us", &task, 0.95),
        Metric::new("executor.failed_tasks", total(|m| m.failed_tasks), "count", n),
        Metric::new("executor.retried_tasks", total(|m| m.retried_tasks), "count", n),
        per_pass("dataframe.columnar_batches", "count", &|p| p.delta.columnar_batches as f64),
        per_pass("dataframe.rows_per_batch", "rows", &|p| {
            ratio(p.delta.columnar_rows as f64, p.delta.columnar_batches as f64)
        }),
        per_pass("dataframe.fused_pipelines", "count", &|p| p.delta.fused_pipelines as f64),
        per_pass("dataframe.agg_rows_in", "count", &|p| p.delta.agg_rows_in as f64),
        per_pass("dataframe.agg_groups_out", "count", &|p| p.delta.agg_groups_out as f64),
        per_pass("dataframe.optimizer_rule_fires", "count", &|p| {
            p.delta.optimizer_rule_fires as f64
        }),
        per_pass("rdd.shuffle_records", "count", &|p| p.delta.shuffle_records as f64),
        per_pass("rdd.shuffle_mb", "MB", &|p| mb(p.delta.shuffle_bytes)),
        per_pass("cache.hits", "count", &|p| p.delta.cache_hits as f64),
        per_pass("cache.misses", "count", &|p| p.delta.cache_misses as f64),
        per_pass("cache.hit_ratio", "ratio", &|p| {
            let (h, m) = (p.delta.cache_hits as f64, p.delta.cache_misses as f64);
            ratio(h, h + m)
        }),
        per_pass("cache.cached_mb", "MB", &|p| mb(p.cached_bytes)),
        per_pass("cache.evictions", "count", &|p| p.delta.cache_evictions as f64),
        per_pass("storage.input_mb", "MB", &|p| mb(p.delta.input_bytes)),
        per_pass("dist.blocks_pushed", "count", &|p| p.delta.blocks_pushed as f64),
        per_pass("dist.block_mb_pushed", "MB", &|p| mb(p.delta.block_bytes_pushed)),
        per_pass("dist.blocks_fetched", "count", &|p| p.delta.blocks_fetched as f64),
        hist_metric("dist.fetch_p50_us", &fetch, 0.50),
        hist_metric("dist.fetch_p95_us", &fetch, 0.95),
        per_pass("dist.heartbeats", "count", &|p| p.delta.heartbeats as f64),
        Metric::new("dist.events_lost", totals.events_lost as f64, "count", 1),
        Metric::new("trace.overhead_pct", ratio(traced_ms - base_ms, base_ms) * 100.0, "%", n),
    ];

    // Expected routing at this revision; reported, not enforced, so a
    // change that moves work between layers shows here rather than as a
    // wrong answer.
    let dist_work = total(|m| m.blocks_pushed + m.blocks_fetched) + totals.heartbeats as f64;
    let df_work = total(|m| m.columnar_batches + m.agg_rows_in + m.fused_pipelines);
    let work = |w: f64| if w > 0.0 { "> 0" } else { "= 0" };
    let notes = vec![
        format!("dist.* work on {}: {}", inst.workload.name(), work(dist_work)),
        format!("dataframe.* work on {}: {}", inst.workload.name(), work(df_work)),
        format!(
            "timeline reconcile: {}",
            match &reconciled {
                Ok(()) => "ok".to_string(),
                Err(e) => e.clone(),
            }
        ),
    ];
    let mut fields = crate::instance_info(&inst);
    fields.extend([
        ("passes", n.to_string()),
        ("baseline_runs", base_runs.len().to_string()),
        ("baseline_latency_sum_ms", format!("{base_ms:?}")),
        ("traced_latency_sum_ms", format!("{traced_ms:?}")),
    ]);
    drop(inst);
    Ok(Outcome { metrics, tally, invalid, fields, notes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spans_pair_start_and_end() {
        let ev = vec![
            (10, Event::JobStart { job: 1, stage: None, num_tasks: 2 }),
            (15, Event::JobStart { job: 2, stage: None, num_tasks: 1 }),
            (20, Event::JobEnd { job: 1, ok: true }),
        ];
        assert_eq!(job_spans(&ev), vec![(10, Some(20)), (15, None)]);
    }
}
