//! The heterospec benchmark harness. See `README.md` beside this crate
//! and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! benchmark all [--seed N] [--seconds S]
//! benchmark compare A.json B.json [--spec BENCHMARK.json]
//! ```

mod algos;
mod calib;
mod compare;
mod faultplan;
mod json;
mod probes;
mod procfs;
mod run;
mod spans;
mod spec;
mod stats;
mod verify;
mod workloads;

use json::{obj, s, Json};
use procfs::Host;
use run::{Args, OUT_DIR};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Workload;

/// The seed the one command uses: the scene's acquisition date.
const DEFAULT_SEED: u64 = 20010916;

/// Timed seconds per run; the same number `BENCHMARK.json` gives the
/// driver as `run_seconds`.
const DEFAULT_SECONDS: f64 = 24.0;

/// `--flag value` pairs of a command line.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    args.chunks(2)
        .map(|pair| match pair {
            [flag, value] if flag.starts_with("--") => Ok((flag.as_str(), value.as_str())),
            _ => Err(format!("expected `--flag value`, got {pair:?}")),
        })
        .collect()
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (DEFAULT_SEED, DEFAULT_SECONDS, false, None);
    for (flag, value) in flags(args)? {
        match flag {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 0..=600"));
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// One run in this process: prints the table, then the result line.
fn run_one(args: &Args) -> Result<bool, String> {
    let record = if args.trace {
        run::traced(args)?
    } else {
        run::untraced(args)?
    };
    print!("{}", record.table());
    for complaint in &record.complaints {
        eprintln!("FAILED {complaint}");
    }
    if let Some(path) = &args.out {
        std::fs::write(path, record.to_json(&Host::detect()).to_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", record.result_line());
    Ok(record.correct())
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |c| c.trim().to_string())
}

/// The one command: every workload untraced, then traced, each in a
/// fresh process (so set-up time and peak memory are per workload);
/// collects the records into `results.json`.
fn run_all(args: &[String]) -> Result<bool, String> {
    let (mut seed, mut seconds) = (DEFAULT_SEED.to_string(), DEFAULT_SECONDS.to_string());
    for (flag, value) in flags(args)? {
        match flag {
            "--seed" => seed = value.to_string(),
            "--seconds" => seconds = value.to_string(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for trace in ["0", "1"] {
        for workload in Workload::ALL {
            let record_path = out_dir.join(format!("record-{}-{trace}.json", workload.name()));
            let status = Command::new(&exe)
                .args(["--workload", workload.name(), "--seed", &seed])
                .args(["--seconds", &seconds, "--trace", trace, "--out"])
                .arg(&record_path)
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&record_path)
                .map_err(|e| format!("{}: {e}", record_path.display()))?;
            runs.push(Json::parse(&text)?);
            let _ = std::fs::remove_file(&record_path);
        }
    }
    let results = out_dir.join("results.json");
    let doc = obj([("commit", s(git_commit())), ("runs", Json::Arr(runs))]);
    std::fs::write(&results, doc.to_pretty()).map_err(|e| format!("{}: {e}", results.display()))?;
    eprintln!("wrote {}", results.display());
    Ok(all_correct)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [a, b, rest @ ..] = args else {
        return Err("usage: benchmark compare A.json B.json [--spec BENCHMARK.json]".into());
    };
    let mut spec = "BENCHMARK.json";
    for (flag, value) in flags(rest)? {
        match flag {
            "--spec" => spec = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let comparison = compare::compare(&load(a)?, &load(b)?, &load(spec)?)?;
    print!("{}", comparison.table);
    Ok(comparison.regressed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        None => run_all(&[]),
        Some((first, rest)) if first == "all" => run_all(rest),
        Some((first, rest)) if first == "compare" => run_compare(rest),
        Some(_) => parse_run(&args).and_then(|run| run_one(&run)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
