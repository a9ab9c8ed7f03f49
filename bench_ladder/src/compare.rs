//! `bench_ladder compare <base-dir> <new-dir>`: per workload and
//! end-to-end metric, the new median over the base median, judged by
//! the bounds `BENCHMARK.json` fixes.
//!
//! A cell is `unresolved` when either side's quartile spread exceeds the
//! bound (the runs cannot tell a change of that size from noise) —
//! unless every new run reads better than every base run.

use crate::json::{self, Json};
use crate::laps::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;

/// Verdict on one workload x metric cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Spread too wide to tell.
    Unresolved,
}

/// One compared cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of the base runs.
    pub base: f64,
    /// Median of the new runs.
    pub new: f64,
    /// The bound from `BENCHMARK.json`.
    pub bound: f64,
    /// Larger quartile spread of the two sides, as a share of its median.
    pub spread: f64,
    /// Base and new run counts.
    pub runs: (usize, usize),
    /// How the cell is judged.
    pub verdict: Verdict,
}

/// `(name, higher_is_better, bound)` of each end-to-end metric.
type Bounds = Vec<(String, bool, f64)>;

fn load_bounds(benchmark_json: &Path) -> Result<Bounds, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let metrics = json::get(&doc, "end_to_end").ok_or("BENCHMARK.json has no end_to_end")?;
    json::items(metrics)
        .iter()
        .map(|m| {
            let name = json::get(m, "name").and_then(json::as_str);
            let better = json::get(m, "better").and_then(json::as_str);
            let bound = json::get(m, "bound").and_then(json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_string(), b == "higher", x)),
                _ => Err("malformed end_to_end entry".to_string()),
            }
        })
        .collect()
}

/// workload -> metric -> one value per untraced run found in `dir`.
fn load_runs(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if json::get(&doc, "traced") != Some(&Json::Bool(false)) {
            continue;
        }
        if json::get(&doc, "correct") != Some(&Json::Bool(true)) {
            return Err(format!("{}: the run was not correct", path.display()));
        }
        let Some(workload) = json::get(&doc, "workload").and_then(json::as_str) else {
            continue;
        };
        if let Some(Json::Obj(metrics)) = json::get(&doc, "metrics") {
            for (name, cell) in metrics {
                if let Some(value) = json::get(cell, "value").and_then(json::as_f64) {
                    runs.entry(workload.to_string())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok(runs)
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// Judges one cell from the two sides' runs.
#[must_use]
pub fn judge(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (b, n) = (median(base), median(new));
    let worse = if b == 0.0 {
        0.0
    } else if higher_is_better {
        (b - n) / b
    } else {
        (n - b) / b
    };
    let wide = spread(base).max(spread(new));
    let better_in_every_run = new.iter().all(|&x| {
        base.iter()
            .all(|&y| if higher_is_better { x > y } else { x < y })
    });
    let verdict = if wide > bound && !better_in_every_run {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (wide, verdict)
}

/// Compares the saved untraced results of two directories.
///
/// # Errors
///
/// Unreadable or malformed inputs, or a workload present on one side
/// only.
pub fn compare(
    base_dir: &Path,
    new_dir: &Path,
    benchmark_json: &Path,
) -> Result<Vec<Cell>, String> {
    let bounds = load_bounds(benchmark_json)?;
    let base = load_runs(base_dir)?;
    let new = load_runs(new_dir)?;
    if base.is_empty() {
        return Err(format!("{}: no untraced results", base_dir.display()));
    }
    let mut cells = Vec::new();
    for (workload, base_metrics) in &base {
        let new_metrics = new
            .get(workload)
            .ok_or_else(|| format!("{workload}: missing from {}", new_dir.display()))?;
        for (metric, higher, bound) in &bounds {
            let (Some(b), Some(n)) = (base_metrics.get(metric), new_metrics.get(metric)) else {
                return Err(format!("{workload}: metric {metric} missing on one side"));
            };
            let (wide, verdict) = judge(b, n, *higher, *bound);
            cells.push(Cell {
                workload: workload.clone(),
                metric: metric.clone(),
                base: median(b),
                new: median(n),
                bound: *bound,
                spread: wide,
                runs: (b.len(), n.len()),
                verdict,
            });
        }
    }
    Ok(cells)
}

/// Prints the table and returns `true` when the comparison passes:
/// no cell worse — and, when `symmetric` (an A/A check of one build
/// against itself), no cell better or unresolved either.
#[must_use]
pub fn print_and_pass(cells: &[Cell], symmetric: bool) -> bool {
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base median", "new median", "new/base", "bound", "spread", "runs"
    );
    let mut pass = true;
    for c in cells {
        let ok = match c.verdict {
            Verdict::Same => true,
            Verdict::Worse => false,
            Verdict::Better | Verdict::Unresolved => !symmetric,
        };
        pass &= ok;
        println!(
            "{:<14} {:<14} {:>14.4} {:>14.4} {:>8.4} {:>7.3} {:>7.4} {:>3}/{:<3} {}{}",
            c.workload,
            c.metric,
            c.base,
            c.new,
            if c.base == 0.0 { 0.0 } else { c.new / c.base },
            c.bound,
            c.spread,
            c.runs.0,
            c.runs.1,
            match c.verdict {
                Verdict::Same => "same",
                Verdict::Better => "better",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            },
            if ok { "" } else { "  <-- fails" }
        );
    }
    println!(
        "{} of {} cells {}",
        cells.iter().filter(|c| c.verdict == Verdict::Same).count(),
        cells.len(),
        if symmetric {
            "agree within their bounds"
        } else {
            "unchanged within their bounds"
        }
    );
    pass
}
