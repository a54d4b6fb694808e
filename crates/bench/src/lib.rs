//! # repro-bench — the experiment harness
//!
//! One binary per experiment run of the paper's evaluation section
//! (`cargo run -p repro-bench --release --bin table5` etc.): tables that
//! share a run share a binary — `table5` prints Tables 5, 6 and 7 from
//! one matrix run, `table8` Table 8 and Figure 2 from one Thunderhead
//! sweep — plus the ablations and the criterion microbenches under
//! `benches/`.
//!
//! Every experiment lives in this library, so the root suite
//! `tests/goldens.rs` runs the same code the binaries do and pins every
//! binary's output (it fails when a binary is missing from its list):
//! [`experiments`] write their tables to any [`Write`], [`records`]
//! return a `BENCH_*.json` record and its verdict. Each binary is a
//! two-line `main` over [`print_experiment`] or [`emit_record`]
//! (`chaos_soak` has no scene, and `fig1` also writes its image,
//! [`experiments::fig1_composite`]). A record binary writes its record
//! to the working directory; no binary writes any other file but
//! `fig1`'s image, and nothing is cached between runs.
//!
//! The scene size is selected with the `HETEROSPEC_SCENE` environment
//! variable (`tiny`, `small`, `medium` (the default), `large`, `full`);
//! virtual times scale linearly with pixel count, so every ratio is
//! size-invariant (see DESIGN.md). The `full`
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
use simnet::engine::Engine;
use std::io::{self, Write};

pub mod experiments;
pub mod microjson;
pub mod records;

/// Thunderhead-class cycle time used for sequential baselines
/// (secs/Mflop), matching the paper's single-processor columns.
pub const BASELINE_CYCLE_TIME: f64 = simnet::presets::HOMOGENEOUS_CYCLE_TIME;

/// The scene of a named `HETEROSPEC_SCENE` size.
///
/// # Panics
/// Panics on a name other than `tiny`, `small`, `medium`, `large` and
/// `full`.
pub fn scene_size(name: &str) -> WtcConfig {
    let (lines, samples) = match name {
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

/// Scene size selection via `HETEROSPEC_SCENE` (default `medium`).
pub fn scene_config() -> WtcConfig {
    scene_size(&std::env::var("HETEROSPEC_SCENE").unwrap_or_else(|_| "medium".into()))
}

/// A quarter of `cfg`'s pixels (half its lines and samples, at least
/// 64 × 32): the scene of the sweeps that run many drivers, whose
/// ratios and bitwise relations are scale-free.
pub fn quarter(mut cfg: WtcConfig) -> WtcConfig {
    cfg.lines = (cfg.lines / 2).max(64);
    cfg.samples = (cfg.samples / 2).max(32);
    cfg
}

/// Builds the WTC-like scene `cfg` (announcing it). The first call of
/// every scene binary, so the ISA check sits here.
pub fn build(cfg: WtcConfig) -> SyntheticScene {
    hsi_linalg::require_built_isa();
    eprintln!(
        "# scene: {} x {} x {} bands",
        cfg.lines, cfg.samples, cfg.bands
    );
    wtc_scene(cfg)
}

/// The `main` of an experiment binary: runs `experiment` on the scene
/// `cfg` with stdout as its output, then reports the peak RSS.
pub fn print_experiment(
    cfg: WtcConfig,
    experiment: impl FnOnce(&SyntheticScene, &mut io::StdoutLock<'static>) -> io::Result<()>,
) -> io::Result<()> {
    let scene = build(cfg);
    experiment(&scene, &mut io::stdout().lock())?;
    report_peak_rss(&scene.cube);
    Ok(())
}

/// The `main` of a record binary: runs `experiment` on the scene `cfg`
/// with stdout as its table output, reports the peak RSS and
/// [emits](records::Record::emit) the record. Exits 2 with the error on
/// stderr when `experiment` fails (a closed stdout, a scene it refuses).
pub fn emit_record(
    cfg: WtcConfig,
    experiment: impl FnOnce(
        &SyntheticScene,
        &mut io::StdoutLock<'static>,
    ) -> io::Result<records::Record>,
) {
    let scene = build(cfg);
    let record = experiment(&scene, &mut io::stdout().lock()).unwrap_or_else(|e| {
        eprintln!("# {e}");
        std::process::exit(2)
    });
    report_peak_rss(&scene.cube);
    record.emit();
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

/// Runs the full 8-algorithm × 4-network matrix shared by Tables 5, 6
/// and 7.
pub fn run_matrix(scene: &SyntheticScene, params: &AlgoParams) -> Vec<MatrixEntry> {
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
}

/// Runs the Thunderhead sweep over the paper's processor counts for all
/// four heterogeneous algorithms (Table 8 and Figure 2).
pub fn run_thunderhead_sweep(scene: &SyntheticScene, params: &AlgoParams) -> Vec<SweepEntry> {
    let mut entries = Vec::new();
    for algorithm in ALGORITHMS {
        for &cpus in simnet::presets::THUNDERHEAD_SWEEP.iter() {
            eprintln!("# running {algorithm} on thunderhead({cpus})");
            let platform = simnet::presets::thunderhead(cpus);
            let engine = Engine::new(platform);
            let run = run_algorithm(algorithm, &engine, scene, params, &RunOptions::hetero());
            entries.push(SweepEntry {
                algorithm: algorithm.to_string(),
                cpus,
                total: run.report.decomposition().total,
            });
        }
    }
    entries
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

/// Renders a simple aligned text table to `out`.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`], before anything is written, when a
/// row has more cells than `header`: that cell would have no column.
pub fn print_table(
    out: &mut impl Write,
    title: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> io::Result<()> {
    if let Some((i, row)) = rows
        .iter()
        .enumerate()
        .find(|(_, r)| r.len() > header.len())
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "table '{title}': row {i} {row:?} has {} cells, its header {}",
                row.len(),
                header.len()
            ),
        ));
    }
    writeln!(out, "\n{title}")?;
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let line: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    writeln!(out, "{}", "-".repeat(line))?;
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i] + 2))
            .collect::<String>()
    };
    writeln!(
        out,
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    )?;
    writeln!(out, "{}", "-".repeat(line))?;
    for row in rows {
        writeln!(out, "{}", fmt_row(row))?;
    }
    writeln!(out, "{}", "-".repeat(line))
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
        let q = quarter(scene_size("tiny"));
        assert_eq!((q.lines, q.samples), (64, 32));
    }

    #[test]
    fn peak_rss_is_read_where_procfs_exists() {
        let peak = peak_rss_mib();
        assert_eq!(peak.is_some(), cfg!(target_os = "linux"));
        // No test process fits in a mebibyte.
        assert!(peak.is_none_or(|mib| mib > 1.0), "{peak:?}");
    }

    #[test]
    fn a_table_pads_every_column_to_its_widest_cell() {
        let mut out = Vec::new();
        print_table(&mut out, "t", &["a", "b"], &[vec!["1".into(), "22".into()]]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "\nt\n-------\n  a   b\n-------\n  1  22\n-------\n");
    }

    #[test]
    fn a_row_longer_than_its_header_is_invalid_input() {
        let mut out = Vec::new();
        let rows = [vec!["1".into()], vec!["2".into(), "3".into()]];
        let err = print_table(&mut out, "t", &["a"], &rows).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let message = err.to_string();
        assert!(
            message.contains("row 1") && message.contains("header 1"),
            "{message}"
        );
        assert!(out.is_empty());
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
