//! Command line of the benchmark.
//!
//! ```text
//! bench_ladder --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!              [--smoke] [--work-dir DIR] [--out DIR] [--corrupt-model]
//! bench_ladder compare <base-dir> <new-dir> [--symmetric] [--benchmark-json FILE]
//! bench_ladder list [--all]
//! ```

use bench_ladder::compare::{compare, print_and_pass};
use bench_ladder::run::{default_work_dir, run, RunArgs};
use bench_ladder::spec::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  bench_ladder --workload <name> --seed <n> --seconds <s> --trace <0|1>
               [--smoke] [--work-dir DIR] [--out DIR] [--corrupt-model]
  bench_ladder compare <base-dir> <new-dir> [--symmetric] [--benchmark-json FILE]
  bench_ladder list [--all]   the workloads of BENCHMARK.json [and wire_paced]";

fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn number(text: &str, flag: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{flag}: '{text}' is not a whole number"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut parsed = RunArgs {
        workload: Workload::EngineRandom,
        seed: 1,
        seconds: 10,
        traced: false,
        smoke: false,
        work_dir: default_work_dir(),
        out: None,
        corrupt_model: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(args, &mut i, "--workload")?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => parsed.seed = number(value(args, &mut i, "--seed")?, "--seed")?,
            "--seconds" => {
                parsed.seconds = number(value(args, &mut i, "--seconds")?, "--seconds")?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                parsed.traced = match value(args, &mut i, "--trace")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--corrupt-model" => parsed.corrupt_model = true,
            "--work-dir" => parsed.work_dir = PathBuf::from(value(args, &mut i, "--work-dir")?),
            "--out" => parsed.out = Some(PathBuf::from(value(args, &mut i, "--out")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut symmetric = false;
    let mut benchmark_json = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--symmetric" => symmetric = true,
            "--benchmark-json" => {
                benchmark_json = PathBuf::from(value(args, &mut i, "--benchmark-json")?);
            }
            dir => dirs.push(PathBuf::from(dir)),
        }
        i += 1;
    }
    let [base, new] = dirs.as_slice() else {
        return Err("compare takes two directories".into());
    };
    let cells = compare(base, new, &benchmark_json)?;
    Ok(print_and_pass(&cells, symmetric))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("list") => {
            let all = args.get(1).is_some_and(|a| a == "--all");
            for w in Workload::ALL {
                if all || Workload::BENCHMARKED.contains(&w) {
                    println!("{}", w.name());
                }
            }
            return ExitCode::SUCCESS;
        }
        Some("compare") => run_compare(&args[1..]),
        Some(_) => parse_run(&args)
            .and_then(|parsed| run(&parsed))
            .map(|report| {
                report.print();
                println!("{}", report.final_line());
                report.correct()
            }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("bench_ladder: {why}");
            ExitCode::from(2)
        }
    }
}
