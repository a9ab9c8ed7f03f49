//! What a run reports: every metric by name with its unit, the
//! correctness checks, provenance — as text, as the contract's final
//! JSON line, and as a saved result file.

use crate::host::Provenance;
use crate::json::Json;
use crate::spec::{Sizing, Workload};
use std::io;
use std::path::Path;

/// One correctness check of the gate.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// `Ok(detail)` or `Err(what went wrong)`.
    pub verdict: Result<String, String>,
}

/// The checks a run made.
#[derive(Debug, Clone, Default)]
pub struct Checks(pub Vec<Check>);

impl Checks {
    /// Records a check.
    pub fn add(&mut self, name: &'static str, verdict: Result<String, String>) {
        self.0.push(Check { name, verdict });
    }

    /// Records a check that passes when `bad` is 0.
    pub fn zero(&mut self, name: &'static str, bad: u64, of: u64) {
        self.add(
            name,
            if bad == 0 {
                Ok(format!("{of} checked"))
            } else {
                Err(format!("{bad} of {of} wrong"))
            },
        );
    }

    /// `true` when every check passed.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.0.iter().all(|c| c.verdict.is_ok())
    }
}

/// A named number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Report {
    /// Workload run.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--trace 1`.
    pub traced: bool,
    /// Sizes used.
    pub sizing: Sizing,
    /// The contract's metrics: end-to-end (untraced) or per-layer
    /// (traced).
    pub metrics: Vec<Metric>,
    /// Further numbers printed and saved beside them, never judged.
    pub notes: Vec<Metric>,
    /// Operations attempted, all rungs.
    pub attempted: u64,
    /// Operations failed or refused, all rungs.
    pub failed: u64,
    /// The correctness gate.
    pub checks: Checks,
    /// Where and with what this was measured.
    pub provenance: Provenance,
}

impl Report {
    /// Adds a contract metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    /// Adds a note.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    /// `true` when no operation failed and every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.all_passed()
    }

    /// Prints provenance, every metric and note by name with its unit,
    /// and the checks.
    pub fn print(&self) {
        let p = &self.provenance;
        println!(
            "bench_ladder {} seed={} seconds={} trace={}{}",
            self.workload.name(),
            self.seed,
            self.seconds,
            u8::from(self.traced),
            if self.sizing.smoke { " SMOKE" } else { "" }
        );
        println!(
            "  host: nproc={} kernel={} fs={} crypto={} [{}] profile={} timer_floor={:.1}ns",
            p.nproc,
            p.kernel,
            p.work_dir_fs,
            p.crypto_backend,
            p.cpu_features,
            p.profile,
            p.timer_floor_ns
        );
        println!(
            "  sizes: footprint={} blocks, lap={} ops, laps={}, set-ups={} x {} round(s)",
            self.sizing.footprint_blocks,
            self.sizing.lap_ops,
            if self.traced {
                format!("{} per rung", self.sizing.traced_laps)
            } else {
                format!("{} s of them", self.sizing.phase_seconds)
            },
            self.sizing.setup_samples,
            self.sizing.setup_rounds
        );
        for m in &self.metrics {
            println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for m in &self.notes {
            println!("  ({:<32}) {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!("  ops: attempted={} failed={}", self.attempted, self.failed);
        for c in &self.checks.0 {
            match &c.verdict {
                Ok(detail) => println!("  check {:<28} ok    {detail}", c.name),
                Err(why) => println!("  check {:<28} FAIL  {why}", c.name),
            }
        }
    }

    fn metrics_json(metrics: &[Metric]) -> Json {
        let mut obj = Json::object();
        for m in metrics {
            let mut cell = Json::object();
            cell.push("value", Json::F64(m.value));
            cell.push("unit", m.unit.as_str());
            obj.push(&m.name, cell);
        }
        obj
    }

    /// The contract's one-line result.
    #[must_use]
    pub fn final_line(&self) -> String {
        let mut obj = Json::object();
        obj.push("correct", Json::Bool(self.correct()));
        obj.push("attempted", Json::U64(self.attempted.max(1)));
        obj.push("failed", Json::U64(self.failed));
        obj.push("metrics", Self::metrics_json(&self.metrics));
        obj.render_compact()
    }

    /// Saves the full result (metrics, notes, checks, provenance, sizes)
    /// as `<dir>/<workload>.<traced|untraced>.seed<seed>.json`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let p = &self.provenance;
        let mut prov = Json::object();
        prov.push("git_commit", p.git_commit.as_str());
        prov.push("rustc", p.rustc.as_str());
        prov.push("profile", p.profile);
        prov.push("crypto_backend", p.crypto_backend);
        prov.push("cpu_features", p.cpu_features.as_str());
        prov.push("nproc", Json::U64(p.nproc as u64));
        prov.push("kernel", p.kernel.as_str());
        prov.push("work_dir_fs", p.work_dir_fs.as_str());
        prov.push("timer_floor_ns", Json::F64(p.timer_floor_ns));
        let mut sizes = Json::object();
        sizes.push("footprint_blocks", Json::U64(self.sizing.footprint_blocks));
        sizes.push("lap_ops", Json::U64(self.sizing.lap_ops));
        sizes.push("phase_seconds", Json::U64(self.sizing.phase_seconds));
        sizes.push("min_laps", Json::U64(self.sizing.min_laps as u64));
        sizes.push("traced_laps", Json::U64(self.sizing.traced_laps as u64));
        sizes.push("setup_samples", Json::U64(self.sizing.setup_samples as u64));
        sizes.push("setup_rounds", Json::U64(self.sizing.setup_rounds));
        sizes.push("smoke", Json::Bool(self.sizing.smoke));
        let mut checks = Json::object();
        for c in &self.checks.0 {
            let text = match &c.verdict {
                Ok(detail) => format!("ok: {detail}"),
                Err(why) => format!("FAIL: {why}"),
            };
            checks.push(c.name, text.as_str());
        }
        let mut doc = Json::object();
        doc.push("workload", self.workload.name());
        doc.push("seed", Json::U64(self.seed));
        doc.push("seconds", Json::U64(self.seconds));
        doc.push("traced", Json::Bool(self.traced));
        doc.push("correct", Json::Bool(self.correct()));
        doc.push("attempted", Json::U64(self.attempted));
        doc.push("failed", Json::U64(self.failed));
        doc.push("metrics", Self::metrics_json(&self.metrics));
        doc.push("notes", Self::metrics_json(&self.notes));
        doc.push("checks", checks);
        doc.push("sizes", sizes);
        doc.push("provenance", prov);
        let name = format!(
            "{}.{}.seed{}.json",
            self.workload.name(),
            if self.traced { "traced" } else { "untraced" },
            self.seed
        );
        std::fs::write(dir.join(name), doc.render())
    }
}
