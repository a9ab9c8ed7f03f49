//! `BENCHMARK.json` and the harness must describe the same benchmark.

use bench_ladder::json::{self, Json};
use bench_ladder::spec::{Workload, END_TO_END, PER_LAYER};
use std::path::Path;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    json::get(entry, key)
        .and_then(json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn workloads_match_the_harness() {
    let doc = benchmark_json();
    let listed = json::items(json::get(&doc, "workloads").expect("workloads"));
    let names: Vec<&str> = listed.iter().map(|w| text(w, "name")).collect();
    let ours: Vec<&str> = Workload::BENCHMARKED.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    for w in listed {
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        assert!(valid_name(text(w, "name")));
    }
}

#[test]
fn end_to_end_metrics_match_the_harness() {
    let doc = benchmark_json();
    let listed = json::items(json::get(&doc, "end_to_end").expect("end_to_end"));
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, (name, unit, better)) in listed.iter().zip(END_TO_END) {
        assert_eq!(text(entry, "name"), name);
        assert_eq!(text(entry, "unit"), unit);
        assert_eq!(text(entry, "better"), better.name());
        let bound = json::get(entry, "bound")
            .and_then(json::as_f64)
            .expect("bound");
        // The contract's ceiling.
        assert!((0.03..=0.25).contains(&bound), "{name}: bound {bound}");
    }
    assert!(END_TO_END
        .iter()
        .any(|(n, u, _)| (*n, *u) == ("setup_s", "s")));
}

#[test]
fn per_layer_metrics_match_the_harness() {
    let doc = benchmark_json();
    let listed = json::items(json::get(&doc, "per_layer").expect("per_layer"));
    assert_eq!(listed.len(), PER_LAYER.len());
    assert!(listed.len() <= 128);
    for (entry, (name, unit, better)) in listed.iter().zip(PER_LAYER) {
        assert_eq!(text(entry, "name"), name);
        assert_eq!(text(entry, "unit"), unit);
        assert_eq!(text(entry, "better"), better.name());
        assert!(valid_name(name));
        assert!(json::get(entry, "bound").is_none());
    }
}

#[test]
fn command_stays_inside_the_benchmarks_directory() {
    let doc = benchmark_json();
    let paths: Vec<&str> = json::items(json::get(&doc, "paths").expect("paths"))
        .iter()
        .filter_map(json::as_str)
        .collect();
    assert_eq!(paths, ["bench_ladder"]);
    for arg in json::items(json::get(&doc, "command").expect("command")) {
        let arg = json::as_str(arg).expect("command is strings");
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
        if arg.contains('/') {
            assert!(arg.starts_with("bench_ladder/"), "{arg}");
        }
    }
    let seconds = json::get(&doc, "run_seconds")
        .and_then(json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds));
}
