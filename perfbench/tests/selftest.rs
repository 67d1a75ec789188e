//! Small-scale self-tests of the benchmark binary: every workload
//! declared in `BENCHMARK.json` runs without a failed operation and
//! reports exactly the metrics the file declares, and the traced run's
//! layer counters route work where the workloads say they do.

use jsonlite::Value;
use std::collections::BTreeMap;
use std::process::Command;

fn declared() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    jsonlite::parse_value(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark at tiny scale; returns (provenance, result).
fn run(workload: &str, trace: u8) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.3"])
        .args(["--trace", &trace.to_string(), "--objects", "1500"])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: expected provenance and result lines");
    let parse = |l: &str| jsonlite::parse_value(l).expect("output line is JSON");
    (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]))
}

fn metrics(result: &Value) -> BTreeMap<String, (f64, String)> {
    let Some(Value::Object(members)) = result.get("metrics") else { panic!("no metrics") };
    members
        .iter()
        .map(|(k, v)| {
            let value = v.get("value").and_then(Value::as_f64).expect("numeric value");
            let unit = v.get("unit").and_then(Value::as_str).expect("unit").to_string();
            (k.to_string(), (value, unit))
        })
        .collect()
}

#[test]
fn tiny_runs_pass_and_report_every_declared_metric() {
    let spec = declared();
    let workloads: Vec<String> = names(&spec, "workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, ["fig11-warm", "scan-cold", "messy-dist"]);
    for w in &workloads {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let (prov, result) = run(w, trace);
            assert!(matches!(result.get("correct"), Some(Value::Bool(true))), "{w} {trace}");
            assert_eq!(result.get("failed").and_then(Value::as_i64), Some(0), "{w} {trace}");
            assert!(result.get("attempted").and_then(Value::as_i64).unwrap_or(0) >= 1);
            let got = metrics(&result);
            let want = names(&spec, key);
            assert_eq!(got.len(), want.len(), "{w} trace {trace}: {:?}", got.keys());
            for (name, unit) in want {
                let (_, got_unit) = got.get(&name).unwrap_or_else(|| panic!("{w}: no {name}"));
                assert_eq!(*got_unit, unit, "{w}: unit of {name}");
            }
            let p = prov.get("provenance").expect("provenance");
            for field in ["nproc", "git_revision", "seed", "files", "queries", "attempted"] {
                assert!(p.get(field).is_some(), "{w}: provenance lacks {field}");
            }
            let samples = prov.get("samples").expect("samples");
            for name in got.keys() {
                assert!(samples.get(name).and_then(|s| s.get("n")).is_some(), "{w}: n of {name}");
            }
        }
    }
}

#[test]
fn traced_layers_route_work_as_the_workloads_predict() {
    let dist = ["dist.blocks_pushed", "dist.blocks_fetched", "dist.heartbeats"];
    let dataframe = ["dataframe.columnar_batches", "dataframe.agg_rows_in"];
    for w in ["fig11-warm", "scan-cold", "messy-dist"] {
        let (_, result) = run(w, 1);
        let m = metrics(&result);
        let sum = |keys: &[&str]| keys.iter().map(|k| m[*k].0).sum::<f64>();
        assert_eq!(sum(&dist) > 0.0, w == "messy-dist", "{w}: dist counters {}", sum(&dist));
        if w == "scan-cold" {
            assert_eq!(sum(&dataframe), 0.0, "scan-cold ran DataFrame stages");
            assert_eq!(m["dataframe.optimizer_rule_fires"].0, 0.0);
        } else {
            assert!(sum(&dataframe) > 0.0, "{w}: no DataFrame work");
        }
        assert_eq!(m["dist.events_lost"].0, 0.0);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..], &[]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().unwrap();
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
