//! End-to-end benchmark of the Rumble engine.
//!
//! ```text
//! perfbench --workload fig11-warm|scan-cold|messy-dist --seed N --seconds S --trace 0|1
//!           [--objects N]
//! ```
//!
//! One closed-loop client runs the workload's three queries in turn, each
//! issued after the previous one returned, for `--seconds` seconds, and
//! checks every answer against an independent reference. A pass of the
//! query mix repeats a query until it has taken 200 ms, so the short ones
//! get enough samples for a steady median. The last line of
//! standard output is the result: `{"correct", "attempted", "failed",
//! "metrics"}`; the line before it records provenance and each metric's
//! unit and sample count.
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! event collection off: `q1_ms`/`q2_ms`/`q3_ms` (median latency of the
//! workload's queries, in the order of [`workload::setup`]),
//! `throughput_obj_s`, `peak_rss_mb` and `setup_s`. With `--trace 1` they
//! are the per-layer metrics of the [`trace`] module.
//!
//! The same binary is the executor worker of `messy-dist`: the engine
//! re-executes it with `--executor --connect ADDR --worker-id N`.

mod report;
mod trace;
mod workload;

use report::Metric;
use std::time::{Duration, Instant};
use workload::{Instance, Run, Workers, Workload};

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Time a measured pass spends on each query at least, so that a short
/// query gets as many samples as its median needs.
const MIN_QUERY_TIME: Duration = Duration::from_millis(200);
/// Objects per generated dataset.
const DEFAULT_OBJECTS: usize = 200_000;

const USAGE: &str = "usage: perfbench --workload fig11-warm|scan-cold|messy-dist --seed N \
                     --seconds S --trace 0|1 [--objects N]";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub objects: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut objects = DEFAULT_OBJECTS;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--objects" => {
                objects = value()?.parse::<usize>().map_err(|e| format!("--objects: {e}"))?;
                if objects == 0 {
                    return Err("--objects must be positive".into());
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        objects,
    })
}

/// Runs this process as an executor worker with the JSONiq task runtime.
fn run_executor(args: &[String]) -> ! {
    let mut connect = None;
    let mut worker = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = it.next().cloned(),
            "--worker-id" => worker = it.next().and_then(|v| v.parse::<u64>().ok()),
            _ => {}
        }
    }
    let (Some(connect), Some(worker)) = (connect, worker) else {
        eprintln!("--executor needs --connect ADDR --worker-id N");
        std::process::exit(2);
    };
    let runtime = std::sync::Arc::new(rumble_core::dist::JsoniqTaskRuntime);
    match sparklite::dist::run_worker(&connect, worker, runtime) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("executor worker {worker}: {e}");
            std::process::exit(1);
        }
    }
}

/// Operations attempted and failed, with a note per failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one query execution, failed when it errored or its answer
    /// differs from the reference.
    pub fn check(&mut self, inst: &Instance, run: &Run) {
        self.attempted += 1;
        let q = &inst.queries[run.query];
        let problem = match &run.answer {
            Err(e) => Some(format!("{} failed: {e}", q.label)),
            Ok(a) if *a != q.expected => Some(format!("{} answered wrongly", q.label)),
            Ok(_) => None,
        };
        if let Some(p) = problem {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(p);
            }
        }
    }
}

/// Runs every query in order, checking each answer. A query that takes
/// less than `min_time` runs again until it has used that much.
pub fn run_pass(inst: &Instance, compile: bool, min_time: Duration, tally: &mut Tally) -> Vec<Run> {
    let mut runs = Vec::new();
    for qi in 0..inst.queries.len() {
        let mut spent = Duration::ZERO;
        loop {
            let run = inst.run_query(qi, compile);
            tally.check(inst, &run);
            spent += run.end - run.start;
            runs.push(run);
            if spent >= min_time {
                break;
            }
        }
    }
    runs
}

/// The latencies over `runs`, in ms, grouped by query.
pub fn query_latencies(queries: usize, runs: &[Run]) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); queries];
    for r in runs {
        out[r.query].push(ms(r.latency));
    }
    out
}

/// Sets up the workload and runs the warm-up pass (both part of set-up).
pub fn setup(args: &Args, collect_events: bool, tally: &mut Tally) -> Result<Instance, String> {
    let inst = workload::setup(
        args.workload,
        args.objects,
        args.seed,
        collect_events,
        Workers::Processes,
    )?;
    run_pass(&inst, false, Duration::ZERO, tally);
    Ok(inst)
}

/// Calls `pass` until `seconds` have gone by, at least once.
pub fn run_for(seconds: f64, mut pass: impl FnMut()) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    loop {
        pass();
        if start.elapsed() >= budget {
            break;
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Objects per second over one pass of the query mix: the objects the
/// workload's queries scan over the time they took, each query counted
/// once at its mean latency in the pass.
pub fn throughput(inst: &Instance, runs: &[Run]) -> f64 {
    let objects: usize = inst.queries.iter().map(|q| q.objects).sum();
    let secs: f64 = query_latencies(inst.queries.len(), runs)
        .iter()
        .map(|v| v.iter().sum::<f64>() / v.len().max(1) as f64 / 1e3)
        .sum();
    objects as f64 / secs.max(1e-9)
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Everything a run reports.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Failed benchmark self-checks (trace accounting, reconciliation).
    pub invalid: Vec<String>,
    /// Provenance fields, as JSON values.
    pub fields: Vec<(&'static str, String)>,
    pub notes: Vec<String>,
}

/// Provenance of a set-up instance: files, sizes, and which query each
/// latency metric times.
pub fn instance_info(inst: &Instance) -> Vec<(&'static str, String)> {
    let files: Vec<String> = inst
        .datasets
        .iter()
        .map(|d| {
            format!(
                "{{\"path\": {}, \"objects\": {}, \"bytes\": {}}}",
                report::string(d.path),
                d.objects,
                d.text.len()
            )
        })
        .collect();
    let queries: Vec<String> = inst
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            format!(
                "{{\"metric\": \"q{}_ms\", \"label\": {}, \"query\": {}}}",
                i + 1,
                report::string(q.label),
                report::string(&q.text)
            )
        })
        .collect();
    vec![
        ("files", format!("[{}]", files.join(", "))),
        ("queries", format!("[{}]", queries.join(", "))),
    ]
}

/// The untraced run: end-to-end metrics. The run sets the workload up
/// [`SETUP_REPS`] times and measures each instance for an equal share of
/// the time, so one instance's luck in memory layout does not set the
/// result. The peak resident set is read after the first instance, before
/// a second one exists.
fn measure(args: &Args) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut latencies: Vec<Vec<f64>> = Vec::new();
    let mut tputs = Vec::new();
    let mut first = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let inst = setup(args, false, &mut tally)?;
        setups.push(t.elapsed().as_secs_f64());
        latencies.resize(inst.queries.len(), Vec::new());
        run_for(args.seconds / SETUP_REPS as f64, || {
            let runs = run_pass(&inst, false, MIN_QUERY_TIME, &mut tally);
            for (all, mut pass) in
                latencies.iter_mut().zip(query_latencies(inst.queries.len(), &runs))
            {
                all.append(&mut pass);
            }
            tputs.push(throughput(&inst, &runs));
        });
        first.get_or_insert_with(|| (peak_rss_mb(), instance_info(&inst)));
    }
    let (peak_rss, mut fields) = first.expect("at least one set-up");
    fields.push(("passes", tputs.len().to_string()));
    let mut metrics: Vec<Metric> = latencies
        .iter()
        .enumerate()
        .map(|(qi, v)| Metric::median_of(format!("q{}_ms", qi + 1), v, "ms"))
        .collect();
    metrics.push(Metric::median_of("throughput_obj_s", &tputs, "obj/s"));
    metrics.push(Metric::new("peak_rss_mb", peak_rss, "MB", 1));
    metrics.push(Metric::median_of("setup_s", &setups, "s"));
    Ok(Outcome { metrics, tally, invalid: Vec::new(), fields, notes: Vec::new() })
}

/// The git revision of the checkout the benchmark runs in, read from
/// `.git` in the working directory; "unknown" outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let resolve = |head: String| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            let packed = read("packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(&format!(" {r}")))?;
            Some(line.split(' ').next()?.to_string())
        }),
    };
    read("HEAD").and_then(resolve).unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--executor") {
        run_executor(&argv);
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let outcome = if args.trace { trace::run(&args) } else { measure(&args) };
    let out = outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", args.workload.name());
        std::process::exit(1);
    });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields: Vec<(&str, String)> = vec![
        ("workload", report::string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", format!("{:?}", args.seconds)),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("executors", workload::EXECUTORS.to_string()),
        ("git_revision", report::string(&git_revision())),
        ("attempted", out.tally.attempted.to_string()),
        ("failed", out.tally.failed.to_string()),
    ];
    fields.extend(out.fields.iter().map(|(k, v)| (*k, v.clone())));
    let mut notes = out.tally.notes.clone();
    notes.extend(out.invalid.iter().map(|e| format!("invalid: {e}")));
    notes.extend(out.notes.iter().cloned());
    for m in &out.metrics {
        let spread = m.quartiles.map_or(String::new(), |(a, b)| format!(" [{a:.3}, {b:.3}]"));
        eprintln!("{:<28} {:>14.3} {:<6} n={}{spread}", m.name, m.value, m.unit, m.samples);
    }
    for n in &notes {
        eprintln!("note: {n}");
    }
    println!("{}", report::provenance_line(&fields, &out.metrics, &notes));
    let correct = out.tally.failed == 0 && out.invalid.is_empty();
    println!(
        "{}",
        report::result_line(correct, out.tally.attempted, out.tally.failed, &out.metrics)
    );
}
