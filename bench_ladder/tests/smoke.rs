//! `--smoke` (one small lap, one small set-up) of every workload,
//! untraced and traced, end to end through the binary: exit code, the
//! contract's final line, every declared metric, and the gate.

use bench_ladder::json::{self, Json};
use bench_ladder::spec::{Workload, END_TO_END, PER_LAYER};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn bench(workload: Workload, traced: bool, extra: &[&str]) -> (Output, Duration) {
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-work");
    let started = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_bench_ladder"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", if traced { "1" } else { "0" }, "--smoke"])
        .arg("--work-dir")
        .arg(&work)
        .args(extra)
        .output()
        .expect("run the benchmark binary");
    (output, started.elapsed())
}

fn final_line(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("some output");
    json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn smoke(workload: Workload) {
    for traced in [false, true] {
        let (output, took) = bench(workload, traced, &[]);
        assert!(
            output.status.success(),
            "{} trace={traced}: {}\n{}",
            workload.name(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            took < Duration::from_secs(5),
            "{} took {took:?}",
            workload.name()
        );
        let result = final_line(&output);
        let Json::Obj(fields) = &result else {
            panic!("final line is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json::get(&result, "correct"), Some(&Json::Bool(true)));
        assert_eq!(json::get(&result, "failed"), Some(&Json::U64(0)));
        assert!(json::get(&result, "attempted").and_then(json::as_f64) >= Some(1.0));
        let Some(Json::Obj(metrics)) = json::get(&result, "metrics") else {
            panic!("no metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = if traced {
            PER_LAYER.iter().map(|(n, _, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|(n, _, _)| *n).collect()
        };
        assert_eq!(names, declared);
        if !traced {
            for (name, cell) in metrics {
                let value = json::get(cell, "value").and_then(json::as_f64);
                assert!(value > Some(0.0), "{name} = {value:?}");
            }
        }
    }
}

#[test]
fn engine_random_smoke() {
    smoke(Workload::EngineRandom);
}

#[test]
fn engine_stream_smoke() {
    smoke(Workload::EngineStream);
}

#[test]
fn store_durable_smoke() {
    smoke(Workload::StoreDurable);
}

#[test]
fn wire_closed_smoke() {
    smoke(Workload::WireClosed);
}

#[test]
fn wire_paced_smoke() {
    smoke(Workload::WirePaced);
}

#[test]
fn a_wrong_expectation_in_the_model_fails_the_run() {
    for workload in [Workload::EngineStream, Workload::WireClosed] {
        let (output, _) = bench(workload, false, &["--corrupt-model"]);
        assert_eq!(output.status.code(), Some(1), "{}", workload.name());
        assert_eq!(
            json::get(&final_line(&output), "correct"),
            Some(&Json::Bool(false))
        );
    }
}

#[test]
fn bad_arguments_print_no_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_ladder"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run the benchmark binary");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
