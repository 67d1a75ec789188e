//! The evaluation harness: regenerates every figure of the paper at a
//! configurable scale. Each figure prints its human-readable report and
//! writes a machine-readable `BENCH_<figure>.json` artifact (name, params,
//! wall-clock milliseconds per cell, engine counters) into the current
//! directory.
//!
//! ```text
//! harness [figure] [--scale N] [--tries N] [--kill-executor]
//!
//!   figure: all | fig11 | fig12 | fig13 | fig14 | fig15 | handtuned | chaos | cache | trace
//!           | dist | columnar | agg | obs
//!   --scale          object-count multiplier (default 1 → laptop-sized runs)
//!   --tries          timed repetitions per measurement (default 3)
//!   --kill-executor  (chaos only) kill a live executor worker process mid-job
//!
//! harness --executor --connect ADDR --worker-id N
//!
//!   Executor worker mode: the entry point `dist`-figure drivers spawn as
//!   separate OS processes. Connects to the driver at ADDR, registers, and
//!   serves tasks and shuffle blocks until told to shut down.
//! ```

use rumble_bench::figures::{self, Cell, FigureReport};
use rumble_bench::write_bench_json;
use std::time::Duration;

struct Args {
    figure: String,
    scale: usize,
    tries: usize,
    kill_executor: bool,
}

/// The `--executor` entry point: runs this process as an executor worker
/// with the JSONiq task runtime and exits with the worker's status.
fn run_executor_mode() -> ! {
    let mut connect = None;
    let mut worker_id = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--executor" => {}
            "--connect" => connect = it.next(),
            "--worker-id" => worker_id = it.next().and_then(|v| v.parse::<u64>().ok()),
            other => die(&format!("unknown executor flag {other}")),
        }
    }
    let connect = connect.unwrap_or_else(|| die("--executor needs --connect ADDR"));
    let worker = worker_id.unwrap_or_else(|| die("--executor needs --worker-id N"));
    let runtime = std::sync::Arc::new(rumble_core::dist::JsoniqTaskRuntime);
    match sparklite::dist::run_worker(&connect, worker, runtime) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("executor worker {worker}: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args { figure: "all".to_string(), scale: 1, tries: 3, kill_executor: false };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--kill-executor" => args.kill_executor = true,
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a positive integer"));
            }
            "--tries" => {
                args.tries = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--tries needs a positive integer"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: harness [all|fig11|fig12|fig13|fig14|fig15|handtuned|chaos|cache|\
                     trace|dist|columnar|agg|obs] [--scale N] [--tries N] [--kill-executor]\n\
                     \x20      harness --executor --connect ADDR --worker-id N"
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') => args.figure = other.to_string(),
            other => die(&format!("unknown flag {other}")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Prints a figure's report and writes its `BENCH_<name>.json` artifact.
fn emit(name: &str, params: &[(&str, u64)], r: &FigureReport) {
    println!("{}", r.report);
    let rows: Vec<(String, Vec<Option<f64>>)> = r
        .rows
        .iter()
        .map(|(l, cells)| {
            (l.clone(), cells.iter().map(|c| c.seconds().map(|s| s * 1000.0)).collect())
        })
        .collect();
    match write_bench_json(name, params, &rows, &r.metrics) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_{name}.json: {e}"),
    }
}

/// The warm cells of the cache figure must not be slower than the cold
/// ones for the fault-free persisted configurations — this is the smoke
/// assertion CI runs (`ci.sh` invokes `harness cache`).
fn check_cache_figure(r: &FigureReport) {
    for (label, cells) in &r.rows {
        if !label.contains("chaos") && label != "no persist" {
            let (cold, warm) = match (&cells[0], &cells[1]) {
                (Cell::Time(c), Cell::Time(w)) => (*c, *w),
                _ => die(&format!("cache figure row '{label}' failed to measure")),
            };
            if warm > cold {
                die(&format!(
                    "cache figure: warm run slower than cold for '{label}' \
                     ({warm:?} > {cold:?})"
                ));
            }
        }
    }
}

/// The columnar A/B must show the fused batch pipeline no slower than the
/// row-major walk of the same plan — the smoke assertion CI runs
/// (`ci.sh` invokes `harness columnar`). Group/sort rows are
/// shuffle-dominated and may tie, so only the fused row is load-bearing.
fn check_columnar_figure(r: &FigureReport) {
    for (label, cells) in &r.rows {
        if label.contains("fused") {
            let (row_major, columnar) = match (&cells[0], &cells[1]) {
                (Cell::Time(r), Cell::Time(c)) => (*r, *c),
                _ => die(&format!("columnar figure row '{label}' failed to measure")),
            };
            if columnar > row_major {
                die(&format!(
                    "columnar figure: batch execution slower than row-major for '{label}' \
                     ({columnar:?} > {row_major:?})"
                ));
            }
        }
    }
}

/// The obs A/B must show the cross-process event stream costing at most 3%
/// wall clock — the smoke assertion CI runs (`ci.sh` invokes `harness
/// obs`). An A/B cannot resolve a difference smaller than the difference
/// between *identical* runs, so the percentage gate only binds once the
/// delta clears the figure's measured A/A noise floor (within-arm spread)
/// plus 10 ms: on a quiet multicore machine that floor is a few ms and 3%
/// has full teeth; on a loaded single-core box scheduler jitter is not
/// turned into a verdict. The reconciliation, lost-event, and worker-lane
/// gates have no such slack: the figure itself panics if any of them
/// fails.
fn check_obs_figure(r: &FigureReport) {
    let get = |k: &str| r.metrics.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    let overhead_bp = get("overhead_bp").unwrap_or_else(|| die("obs figure lost overhead_bp"));
    let delta_us =
        get("overhead_delta_us").unwrap_or_else(|| die("obs figure lost overhead_delta_us"));
    let floor_us = get("noise_floor_us").unwrap_or_else(|| die("obs figure lost noise_floor_us"));
    if overhead_bp > 300 && delta_us > floor_us + 10_000 {
        die(&format!(
            "obs figure: event-stream overhead {:.1}% (+{:.1} ms, above the {:.1} ms A/A \
             noise floor) exceeds the 3% budget",
            overhead_bp as f64 / 100.0,
            delta_us as f64 / 1000.0,
            floor_us as f64 / 1000.0
        ));
    }
}

fn main() {
    if std::env::args().any(|a| a == "--executor") {
        run_executor_mode();
    }
    let args = parse_args();
    let s = args.scale;
    let t = args.tries;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let run_fig = |name: &str| args.figure == "all" || args.figure == name;
    let mut ran = false;

    if run_fig("fig11") {
        ran = true;
        let (n, e) = (200_000 * s, 4);
        let r = figures::fig11(n, e, t);
        emit("fig11", &[("objects", n as u64), ("executors", e as u64), ("tries", t as u64)], &r);
    }
    if run_fig("fig12") {
        ran = true;
        let sizes: Vec<usize> =
            [50_000, 100_000, 200_000, 400_000, 800_000].iter().map(|n| n * s).collect();
        let r = figures::fig12(&sizes, Duration::from_secs(600));
        emit("fig12", &[("max_objects", *sizes.last().unwrap() as u64)], &r);
    }
    if run_fig("fig13") {
        ran = true;
        let (n, e) = (400_000 * s, (cores * 4).max(16));
        let r = figures::fig13(n, e, t);
        emit("fig13", &[("objects", n as u64), ("executors", e as u64), ("tries", t as u64)], &r);
    }
    if run_fig("fig14") {
        ran = true;
        let counts = [1usize, 2, 4, 8, 16, 32];
        let n = 300_000 * s;
        let (points, report) = figures::fig14(n, &counts, t);
        println!("{report}");
        let rows: Vec<(String, Vec<Option<f64>>)> = points
            .iter()
            .map(|p| {
                (
                    format!("{} executors", p.executors),
                    vec![
                        Some(p.runtime.as_secs_f64() * 1000.0),
                        Some(p.aggregated.as_secs_f64() * 1000.0),
                        Some(p.modeled.as_secs_f64() * 1000.0),
                    ],
                )
            })
            .collect();
        match write_bench_json("fig14", &[("objects", n as u64), ("tries", t as u64)], &rows, &[]) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write BENCH_fig14.json: {e}"),
        }
    }
    if run_fig("fig15") {
        ran = true;
        let n = 100_000 * s;
        let (points, report) = figures::fig15(n, &[1, 2, 4, 8], cores);
        println!("{report}");
        let rows: Vec<(String, Vec<Option<f64>>)> = points
            .iter()
            .map(|p| {
                (format!("{} objects", p.objects), vec![Some(p.runtime.as_secs_f64() * 1000.0)])
            })
            .collect();
        match write_bench_json(
            "fig15",
            &[("base_objects", n as u64), ("executors", cores as u64)],
            &rows,
            &[],
        ) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write BENCH_fig15.json: {e}"),
        }
    }
    if run_fig("handtuned") {
        ran = true;
        let n = 200_000 * s;
        let r = figures::handtuned_comparison(n);
        emit("handtuned", &[("objects", n as u64)], &r);
    }
    if run_fig("chaos") {
        ran = true;
        let n = 50_000 * s;
        if args.kill_executor {
            let r = figures::chaos_kill_executor(n, t, Some(Vec::new()));
            emit("chaos_kill", &[("objects", n as u64), ("tries", t as u64)], &r);
        } else {
            let r = figures::chaos(n, cores, t);
            emit(
                "chaos",
                &[("objects", n as u64), ("executors", cores as u64), ("tries", t as u64)],
                &r,
            );
        }
    }
    if run_fig("cache") {
        ran = true;
        let n = 50_000 * s;
        let r = figures::cache(n, cores, t);
        check_cache_figure(&r);
        emit(
            "cache",
            &[("objects", n as u64), ("executors", cores as u64), ("tries", t as u64)],
            &r,
        );
    }
    if run_fig("trace") {
        ran = true;
        let n = 50_000 * s;
        // The figure panics (→ nonzero exit) if the timeline fails to
        // reconcile or either artifact fails schema validation, so running
        // `harness trace` doubles as the observability CI check.
        let (r, jsonl, chrome) = figures::trace(n, cores, t);
        emit(
            "trace",
            &[("objects", n as u64), ("executors", cores as u64), ("tries", t as u64)],
            &r,
        );
        for (path, contents) in [("EVENTS_fig11.jsonl", &jsonl), ("TRACE_fig11.json", &chrome)] {
            match std::fs::write(path, contents) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("warning: could not write {path}: {e}"),
            }
        }
    }
    if run_fig("dist") {
        ran = true;
        let n = 50_000 * s;
        let r = figures::dist(n, &[1, 2, 4], t, Some(Vec::new()));
        emit("dist", &[("objects", n as u64), ("tries", t as u64)], &r);
    }
    if run_fig("columnar") {
        ran = true;
        let n = 50_000 * s;
        let r = figures::columnar(n, cores, t);
        check_columnar_figure(&r);
        emit(
            "columnar",
            &[("objects", n as u64), ("executors", cores as u64), ("tries", t as u64)],
            &r,
        );
    }
    if run_fig("obs") {
        ran = true;
        let n = 50_000 * s;
        // The figure panics (→ nonzero exit) if the merged timeline fails
        // to reconcile, an executor stream loses events, or the Chrome
        // trace is missing worker process lanes; the harness adds the
        // overhead budget on top.
        let (r, chrome) = figures::obs(n, t, Some(Vec::new()));
        check_obs_figure(&r);
        emit("obs", &[("objects", n as u64), ("tries", t as u64)], &r);
        match std::fs::write("TRACE_obs.json", &chrome) {
            Ok(()) => println!("wrote TRACE_obs.json"),
            Err(e) => eprintln!("warning: could not write TRACE_obs.json: {e}"),
        }
    }
    if run_fig("agg") {
        ran = true;
        let n = 50_000 * s;
        let r = figures::agg(n, cores, t, Some(Vec::new()));
        emit("agg", &[("objects", n as u64), ("executors", cores as u64), ("tries", t as u64)], &r);
    }
    if !ran {
        die(&format!("unknown figure '{}'", args.figure));
    }
}
