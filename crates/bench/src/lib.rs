//! # repro-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation section
//! (`cargo run -p repro-bench --release --bin table5` etc.), plus three
//! ablations and the criterion microbenches under `benches/`.
//!
//! All binaries print a paper-style text table and write a CSV to
//! `target/experiments/`. The scene size is selected with the
//! `HETEROSPEC_SCENE` environment variable (`tiny`, `small`, `medium`,
//! (the default), `large`, `full`); virtual times scale linearly with pixel
//! count, so every ratio is size-invariant (see DESIGN.md). The `full`
//! size is the paper's 2133×512 scene and takes several minutes of real
//! compute per algorithm. On Linux every binary with a scene ends its
//! stderr with `# peak RSS: <MiB> MiB (<x.x> × cube)`
//! ([`report_peak_rss`]).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use hetero_hsi::config::{AlgoParams, RunOptions};
use hetero_hsi::framework::ParallelRun;
use hsi_cube::synth::{wtc_scene, SyntheticScene, WtcConfig};
use hsi_cube::HyperCube;
use microjson::Json;
use simnet::engine::Engine;
use std::path::PathBuf;

pub mod microjson;

/// Thunderhead-class cycle time used for sequential baselines
/// (secs/Mflop), matching the paper's single-processor columns.
pub const BASELINE_CYCLE_TIME: f64 = simnet::presets::HOMOGENEOUS_CYCLE_TIME;

/// Scene size selection via `HETEROSPEC_SCENE`.
pub fn scene_config() -> WtcConfig {
    let choice = std::env::var("HETEROSPEC_SCENE").unwrap_or_else(|_| "medium".into());
    let (lines, samples) = match choice.as_str() {
        "tiny" => (96, 64),
        "small" => (512, 128),
        "medium" => (1024, 256),
        "large" => (2048, 384),
        "full" => (2133, 512),
        other => panic!("HETEROSPEC_SCENE: unknown size '{other}'"),
    };
    WtcConfig {
        lines,
        samples,
        ..Default::default()
    }
}

/// Builds the WTC-like scene for the selected size (announcing it). The
/// first call of every scene binary, so the ISA check sits here.
pub fn build_scene() -> SyntheticScene {
    hsi_linalg::require_built_isa();
    let cfg = scene_config();
    eprintln!(
        "# scene: {} x {} x {} bands (HETEROSPEC_SCENE to change)",
        cfg.lines, cfg.samples, cfg.bands
    );
    wtc_scene(cfg)
}

/// The algorithms of the study, in the paper's table order.
pub const ALGORITHMS: [&str; 4] = ["ATDCA", "UFCLS", "PCT", "MORPH"];

/// Dispatches a parallel run by algorithm name, discarding the analysis
/// result (timing experiments).
pub fn run_algorithm(
    name: &str,
    engine: &Engine,
    scene: &SyntheticScene,
    params: &AlgoParams,
    options: &RunOptions,
) -> ParallelRun<()> {
    match name {
        "ATDCA" => strip(hetero_hsi::par::atdca::run(
            engine,
            &scene.cube,
            params,
            options,
        )),
        "UFCLS" => strip(hetero_hsi::par::ufcls::run(
            engine,
            &scene.cube,
            params,
            options,
        )),
        "PCT" => strip(hetero_hsi::par::pct::run(
            engine,
            &scene.cube,
            params,
            options,
        )),
        "MORPH" => strip(hetero_hsi::par::morph::run(
            engine,
            &scene.cube,
            params,
            options,
        )),
        other => panic!("unknown algorithm '{other}'"),
    }
}

fn strip<T>(run: ParallelRun<T>) -> ParallelRun<()> {
    ParallelRun {
        result: (),
        report: run.report,
    }
}

/// One timing record of the 8 × 4 experiment matrix.
#[derive(Debug, Clone)]
pub struct MatrixEntry {
    /// Algorithm (`ATDCA`…)
    pub algorithm: String,
    /// `Hetero` or `Homo`.
    pub variant: String,
    /// Platform name.
    pub network: String,
    /// Total execution time (Table 5).
    pub total: f64,
    /// Communication time (Table 6).
    pub com: f64,
    /// Sequential computation time (Table 6).
    pub seq: f64,
    /// Parallel computation time, idles included (Table 6).
    pub par: f64,
    /// Imbalance over all processors (Table 7).
    pub d_all: f64,
    /// Imbalance excluding the root (Table 7).
    pub d_minus: f64,
}

impl MatrixEntry {
    fn to_json(&self) -> Json {
        microjson::object(vec![
            ("algorithm", Json::String(self.algorithm.clone())),
            ("variant", Json::String(self.variant.clone())),
            ("network", Json::String(self.network.clone())),
            ("total", Json::Number(self.total)),
            ("com", Json::Number(self.com)),
            ("seq", Json::Number(self.seq)),
            ("par", Json::Number(self.par)),
            ("d_all", Json::Number(self.d_all)),
            ("d_minus", Json::Number(self.d_minus)),
        ])
    }

    fn from_json(value: &Json) -> Option<MatrixEntry> {
        Some(MatrixEntry {
            algorithm: value.get("algorithm")?.as_str()?.to_string(),
            variant: value.get("variant")?.as_str()?.to_string(),
            network: value.get("network")?.as_str()?.to_string(),
            total: value.get("total")?.as_f64()?,
            com: value.get("com")?.as_f64()?,
            seq: value.get("seq")?.as_f64()?,
            par: value.get("par")?.as_f64()?,
            d_all: value.get("d_all")?.as_f64()?,
            d_minus: value.get("d_minus")?.as_f64()?,
        })
    }
}

/// Runs (or loads from cache) the full 8-algorithm × 4-network matrix
/// shared by Tables 5, 6 and 7.
pub fn run_matrix(scene: &SyntheticScene, params: &AlgoParams) -> Vec<MatrixEntry> {
    let cache = experiments_dir().join(format!(
        "matrix-{}x{}x{}.json",
        scene.cube.lines(),
        scene.cube.samples(),
        scene.cube.bands()
    ));
    if let Ok(text) = std::fs::read_to_string(&cache) {
        if let Some(entries) = Json::parse(&text)
            .ok()
            .as_ref()
            .and_then(Json::as_array)
            .and_then(|items| items.iter().map(MatrixEntry::from_json).collect())
        {
            eprintln!("# loaded cached matrix from {}", cache.display());
            return entries;
        }
    }
    let networks = simnet::presets::four_networks();
    let mut entries = Vec::new();
    for algorithm in ALGORITHMS {
        for (variant, options) in [
            ("Hetero", RunOptions::hetero()),
            ("Homo", RunOptions::homo()),
        ] {
            for network in &networks {
                eprintln!("# running {variant}-{algorithm} on {}", network.name());
                let engine = Engine::new(network.clone());
                let run = run_algorithm(algorithm, &engine, scene, params, &options);
                let d = run.report.decomposition();
                let i = run.report.imbalance();
                entries.push(MatrixEntry {
                    algorithm: algorithm.to_string(),
                    variant: variant.to_string(),
                    network: network.name().to_string(),
                    total: d.total,
                    com: d.com,
                    seq: d.seq,
                    par: d.par,
                    d_all: i.d_all,
                    d_minus: i.d_minus,
                });
            }
        }
    }
    let json = Json::Array(entries.iter().map(MatrixEntry::to_json).collect());
    let _ = std::fs::write(&cache, json.pretty());
    entries
}

/// One record of the Thunderhead scalability sweep (Table 8 / Fig. 2).
#[derive(Debug, Clone)]
pub struct SweepEntry {
    /// Algorithm name.
    pub algorithm: String,
    /// Processor count.
    pub cpus: usize,
    /// Total execution time in virtual seconds.
    pub total: f64,
    /// Sequential component.
    pub seq: f64,
}

impl SweepEntry {
    fn to_json(&self) -> Json {
        microjson::object(vec![
            ("algorithm", Json::String(self.algorithm.clone())),
            ("cpus", Json::Number(self.cpus as f64)),
            ("total", Json::Number(self.total)),
            ("seq", Json::Number(self.seq)),
        ])
    }

    fn from_json(value: &Json) -> Option<SweepEntry> {
        Some(SweepEntry {
            algorithm: value.get("algorithm")?.as_str()?.to_string(),
            cpus: value.get("cpus")?.as_usize()?,
            total: value.get("total")?.as_f64()?,
            seq: value.get("seq")?.as_f64()?,
        })
    }
}

/// Runs (or loads) the Thunderhead sweep over the paper's processor
/// counts for all four heterogeneous algorithms.
pub fn run_thunderhead_sweep(scene: &SyntheticScene, params: &AlgoParams) -> Vec<SweepEntry> {
    let cache = experiments_dir().join(format!(
        "thunderhead-{}x{}x{}.json",
        scene.cube.lines(),
        scene.cube.samples(),
        scene.cube.bands()
    ));
    if let Ok(text) = std::fs::read_to_string(&cache) {
        if let Some(entries) = Json::parse(&text)
            .ok()
            .as_ref()
            .and_then(Json::as_array)
            .and_then(|items| items.iter().map(SweepEntry::from_json).collect())
        {
            eprintln!("# loaded cached sweep from {}", cache.display());
            return entries;
        }
    }
    let mut entries = Vec::new();
    for algorithm in ALGORITHMS {
        for &cpus in simnet::presets::THUNDERHEAD_SWEEP.iter() {
            eprintln!("# running {algorithm} on thunderhead({cpus})");
            let platform = simnet::presets::thunderhead(cpus);
            let engine = Engine::new(platform);
            let run = run_algorithm(algorithm, &engine, scene, params, &RunOptions::hetero());
            let d = run.report.decomposition();
            entries.push(SweepEntry {
                algorithm: algorithm.to_string(),
                cpus,
                total: d.total,
                seq: d.seq,
            });
        }
    }
    let json = Json::Array(entries.iter().map(SweepEntry::to_json).collect());
    let _ = std::fs::write(&cache, json.pretty());
    entries
}

/// Tristate gate status for the `BENCH_*.json` emitters.
///
/// `"skipped"` means the host or configuration cannot make the
/// measurement meaningful (e.g. too few cores, empty sweep) — distinct
/// from a genuine `"failed"` so trend tooling never mistakes a small CI
/// runner for a regression. Every emitter writes this same schema.
pub fn gate_status(meaningful: bool, passed: bool) -> &'static str {
    if !meaningful {
        "skipped"
    } else if passed {
        "passed"
    } else {
        "failed"
    }
}

/// Writes the canonical `BENCH_*.json` report envelope shared by every
/// emitter (`bench_profile`, `ablation_*`, `chaos_soak`), so the schema
/// — named gate booleans, the tristate `status` of [`gate_status`] and
/// the aggregate `passed` — cannot drift between binaries:
///
/// ```json
/// { <payload…>,
///   "gates": { <gates…>, "status": "skipped|passed|failed", "passed": bool } }
/// ```
///
/// No provenance stamp: a record is a function of the code that wrote
/// it, so regenerating one reproduces the committed file byte for byte
/// and `git log` says which commit that was.
///
/// `payload` is the emitter's measurement body; `gates` are its named
/// gate fields (booleans plus any context values). The caller computes
/// `all_passed` (write_report does not guess which gate entries are
/// enforced) and `meaningful` (`false` ⇒ `"skipped"`, see
/// [`gate_status`]). Writes to `HETEROSPEC_BENCH_OUT` or `default_out`,
/// logs `# wrote <path>`, and returns the status so the caller decides
/// the exit code.
///
/// # Panics
/// Panics when the output path is unwritable.
pub fn write_report(
    default_out: &str,
    payload: Vec<(&str, microjson::Json)>,
    gates: Vec<(&str, microjson::Json)>,
    meaningful: bool,
    all_passed: bool,
) -> &'static str {
    use microjson::{object, Json};
    let status = gate_status(meaningful, all_passed);
    let mut gate_fields = gates;
    gate_fields.push(("status", Json::String(status.into())));
    gate_fields.push(("passed", Json::Bool(all_passed)));
    let mut fields = payload;
    fields.push(("gates", object(gate_fields)));
    let doc = object(fields);
    let out = std::env::var("HETEROSPEC_BENCH_OUT").unwrap_or_else(|_| default_out.to_string());
    std::fs::write(&out, doc.pretty()).unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("# wrote {out}");
    status
}

/// Directory where experiment outputs (CSV/JSON) are written.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Writes rows as a CSV file into [`experiments_dir`].
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = experiments_dir().join(name);
    let mut text = String::from(header);
    text.push('\n');
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("# failed to write {}: {e}", path.display()),
    }
}

/// Peak resident set size of this process so far, in MiB: the `VmHWM`
/// field of `/proc/self/status`. `None` on a host without that file or
/// field (anything but Linux).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// The last line of a binary's output: its memory high-water mark, in
/// MiB and as a multiple of the scene `cube` it ran on (the budget is
/// "memory proportional to one cube", ROADMAP item 3). Goes to stderr
/// with the other `#` lines, so stdout stays a function of the code;
/// omitted where [`peak_rss_mib`] has nothing to read.
pub fn report_peak_rss(cube: &HyperCube) {
    if let Some(mib) = peak_rss_mib() {
        let cubes = mib * (1u64 << 20) as f64 / cube.size_bytes() as f64;
        eprintln!("# peak RSS: {mib:.0} MiB ({cubes:.1} × cube)");
    }
}

/// Renders a simple aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n{title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(line));
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i] + 2))
            .collect::<String>()
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!("{}", "-".repeat(line));
    for row in rows {
        println!("{}", fmt_row(row));
    }
    println!("{}", "-".repeat(line));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_config_sizes() {
        // Default is medium.
        std::env::remove_var("HETEROSPEC_SCENE");
        let c = scene_config();
        assert_eq!((c.lines, c.samples), (1024, 256));
    }

    #[test]
    fn peak_rss_is_read_where_procfs_exists() {
        let peak = peak_rss_mib();
        assert_eq!(peak.is_some(), cfg!(target_os = "linux"));
        // No test process fits in a mebibyte.
        assert!(peak.is_none_or(|mib| mib > 1.0), "{peak:?}");
    }

    #[test]
    fn gate_status_tristate() {
        assert_eq!(gate_status(false, true), "skipped");
        assert_eq!(gate_status(false, false), "skipped");
        assert_eq!(gate_status(true, true), "passed");
        assert_eq!(gate_status(true, false), "failed");
    }

    #[test]
    fn strip_discards_result() {
        // Covered implicitly by run_algorithm; here check table printing
        // does not panic on ragged input.
        print_table("t", &["a", "b"], &[vec!["1".into(), "22".into()]]);
    }

    #[test]
    fn csv_written_to_experiments_dir() {
        write_csv(
            "unit-test.csv",
            "a,b",
            &["1,2".to_string(), "3,4".to_string()],
        );
        let text = std::fs::read_to_string(experiments_dir().join("unit-test.csv")).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
        let _ = std::fs::remove_file(experiments_dir().join("unit-test.csv"));
    }

    #[test]
    fn run_algorithm_dispatches_all_names() {
        use hsi_cube::synth::{wtc_scene, WtcConfig};
        let scene = wtc_scene(WtcConfig {
            lines: 24,
            samples: 16,
            bands: 16,
            ..Default::default()
        });
        let params = AlgoParams {
            num_targets: 3,
            num_classes: 3,
            morph_iterations: 1,
            ..Default::default()
        };
        let engine = Engine::new(simnet::presets::thunderhead(2));
        for name in ALGORITHMS {
            let run = run_algorithm(name, &engine, &scene, &params, &RunOptions::hetero());
            assert!(run.report.total_time > 0.0, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown algorithm")]
    fn unknown_algorithm_panics() {
        use hsi_cube::synth::{wtc_scene, WtcConfig};
        let scene = wtc_scene(WtcConfig {
            lines: 4,
            samples: 4,
            bands: 4,
            ..Default::default()
        });
        let engine = Engine::new(simnet::presets::thunderhead(1));
        let _ = run_algorithm(
            "NOPE",
            &engine,
            &scene,
            &AlgoParams::default(),
            &RunOptions::hetero(),
        );
    }
}
