//! Machine-readable result artifacts.
//!
//! Every experiment serialises its measurements through
//! [`ame_telemetry::Json`] into `results/<experiment>.json` (the
//! directory is overridable with `AME_RESULTS_DIR`), so downstream
//! plotting/diffing never has to scrape the human-readable tables. The
//! schema is documented in the README's "Telemetry & results format"
//! section: every file is one object with an `experiment` id, a
//! `parameters` object echoing the knobs the run used, and a `rows`
//! array of flat measurement objects.

use ame_telemetry::Json;
use std::path::{Path, PathBuf};

/// Directory JSON artifacts are written to: `$AME_RESULTS_DIR` if set
/// and non-empty, `results/` (relative to the working directory)
/// otherwise. The directory (and any missing parents) is created on
/// first write, so pointing the variable at a fresh path just works.
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var_os("AME_RESULTS_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Wraps an experiment's parameters and rows in the common envelope.
#[must_use]
pub fn envelope(experiment: &str, parameters: Json, rows: Json) -> Json {
    let mut doc = Json::object();
    doc.push("experiment", experiment);
    doc.push("parameters", parameters);
    doc.push("rows", rows);
    doc
}

/// Writes `<results_dir>/<experiment>.json` and returns the path.
///
/// # Errors
///
/// Propagates filesystem errors (unwritable directory, full disk).
pub fn write_json(experiment: &str, doc: &Json) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{experiment}.json"));
    std::fs::write(&path, doc.render())?;
    Ok(path)
}

/// Writes the artifact and prints the one-line summary `repro_all`
/// emits per experiment: `<id>  <key metric>  -> <path>`. Filesystem
/// errors are reported on the same line instead of aborting the
/// remaining experiments.
pub fn write_and_summarize(experiment: &str, key_metric: &str, doc: &Json) {
    match write_json(experiment, doc) {
        Ok(path) => println!(
            "{:<16} {:<44} -> {}",
            experiment,
            key_metric,
            path.display()
        ),
        Err(e) => println!("{experiment:<16} {key_metric:<44} -> write failed: {e}"),
    }
}

/// Renders a path for display in summaries.
#[must_use]
pub fn display(path: &Path) -> String {
    path.display().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `AME_RESULTS_DIR` is process-global; tests that touch it take
    /// this lock so the parallel test runner cannot interleave them.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn envelope_shape() {
        let mut params = Json::object();
        params.push("seed", 7u64);
        let doc = envelope("demo", params, Json::Arr(vec![Json::from(1u64)]));
        let text = doc.render();
        assert!(text.contains("\"experiment\": \"demo\""));
        assert!(text.contains("\"seed\": 7"));
        assert!(text.contains("\"rows\""));
    }

    #[test]
    fn results_dir_honours_env() {
        let _guard = ENV_LOCK.lock().unwrap();
        let saved = std::env::var_os("AME_RESULTS_DIR");
        std::env::set_var("AME_RESULTS_DIR", "/tmp/ame-results-test");
        assert_eq!(results_dir(), PathBuf::from("/tmp/ame-results-test"));
        // An empty value means "unset", not "current directory".
        std::env::set_var("AME_RESULTS_DIR", "");
        assert_eq!(results_dir(), PathBuf::from("results"));
        match saved {
            Some(v) => std::env::set_var("AME_RESULTS_DIR", v),
            None => std::env::remove_var("AME_RESULTS_DIR"),
        }
    }

    #[test]
    fn write_json_creates_missing_directories() {
        // AME_RESULTS_DIR may point at a directory that does not exist
        // yet (fresh checkout, per-run scratch dirs); the writer must
        // create the whole chain rather than erroring.
        let _guard = ENV_LOCK.lock().unwrap();
        let dir =
            std::env::temp_dir().join(format!("ame-results-{}/nested/deep", std::process::id()));
        assert!(!dir.exists());
        let saved = std::env::var_os("AME_RESULTS_DIR");
        std::env::set_var("AME_RESULTS_DIR", &dir);
        let doc = envelope("mkdir_probe", Json::object(), Json::Arr(Vec::new()));
        let written = write_json("mkdir_probe", &doc);
        match saved {
            Some(v) => std::env::set_var("AME_RESULTS_DIR", v),
            None => std::env::remove_var("AME_RESULTS_DIR"),
        }
        let path = written.expect("writer creates missing directories");
        assert_eq!(path, dir.join("mkdir_probe.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"experiment\": \"mkdir_probe\""));
        let _ = std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap());
    }
}
