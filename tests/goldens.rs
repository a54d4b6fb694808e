//! Every pinned virtual number, compared by one harness.
//!
//! [`goldens`] is the single list of the committed goldens: the stdout
//! of the paper's tables and ablations under `tests/golden/`, the
//! `BENCH_*.json` records at the repo root, and `tests/golden/
//! virtual_pins.txt`, one `name 0x<f64 bits>` line per absolute virtual
//! number of the drivers (`seq`, `par`, `sched` under `ft`) on
//! `WtcConfig::tiny()`. Each fresh output is compared with its file by
//! `testutil::golden`, so a refactor that moves any charge — a cost
//! formula, the order two charges are added in, a wire size, a
//! staging-byte count — fails here with an old → new table of the
//! numbers that moved. A change that is *meant* to move virtual time
//! re-baselines with `cp -r target/golden/. .` from the repo root.
//!
//! Three records take 9–15 s each in the dev profile; they are
//! `#[ignore]`d here and run with `--include-ignored` in release.

use heterospec::cube::synth::{wtc_scene, SyntheticScene, WtcConfig};
use heterospec::cube::HyperCube;
use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::ft::{run_replan, run_self_sched, FtOptions, FtRun};
use heterospec::hetero::sched::{AtdcaChunks, ChunkedAlgo, MorphChunks, PctChunks, UfclsChunks};
use heterospec::hetero::{par, seq, OffloadPolicy};
use heterospec::simnet::engine::Engine;
use heterospec::simnet::{
    presets, CollAlgorithm, CollectiveConfig, FaultPlan, RunReport, ScatterMode,
};
use repro_bench::records::{self, Record};
use repro_bench::{experiments, quarter, scene_size};
use std::io;
use testutil::golden::Harness;

/// `(cell, bits)`: one `f64::to_bits` per row.
type Table = Vec<(String, u64)>;

/// The four numbers of a partitioned run: makespan and its COM/SEQ/PAR
/// split.
fn par_rows(table: &mut Table, cell: &str, report: &RunReport<()>) {
    let d = report.decomposition();
    for (part, v) in [
        ("total", report.total_time),
        ("com", d.com),
        ("seq", d.seq),
        ("par", d.par),
    ] {
        table.push((format!("{cell} {part}"), v.to_bits()));
    }
}

/// The option sets of the partitioned cells: the paper's two
/// strategies, the fused tree allreduce, and the pipelined chunked
/// broadcast under the legacy gather → re-score → broadcast split.
fn option_sets() -> [(&'static str, RunOptions); 4] {
    [
        ("hetero", RunOptions::hetero()),
        ("homo", RunOptions::homo()),
        (
            "seghier",
            RunOptions::hetero().with_collectives(CollectiveConfig::uniform(
                CollAlgorithm::SegmentHierarchical,
            )),
        ),
        (
            "pipelined",
            RunOptions::hetero().with_collectives(CollectiveConfig {
                broadcast: CollAlgorithm::PipelinedChunked,
                ..CollectiveConfig::linear()
            }),
        ),
    ]
}

/// The two-crash plan of `tests/carried_rounds.rs`.
fn two_crashes() -> FaultPlan {
    FaultPlan::new()
        .crash(2, 0.02)
        .crash(4, 0.04)
        .slowdown(5, 0.0, 0.5, 2.5)
        .link_outage(0, 7, 0.01, 0.05)
}

fn ft_rows<A>(table: &mut Table, algo: &A)
where
    A: ChunkedAlgo + Sync,
    A::Output: Send,
{
    let opts = FtOptions::default();
    for (mode, driver) in [
        (
            "replan",
            run_replan::<A> as fn(&Engine, &A, &FtOptions) -> FtRun<A::Output>,
        ),
        ("selfsched", run_self_sched::<A>),
    ] {
        for (plan_name, plan) in [("clean", FaultPlan::new()), ("crashes", two_crashes())] {
            let run = driver(&testutil::engine_with(plan), algo, &opts);
            table.push((
                format!("ft {} {mode} {plan_name}", algo.name()),
                run.report.total_time.to_bits(),
            ));
        }
    }
}

/// `ft replan` under `Auto` offload on `accel_heterogeneous`, clean and
/// under [`two_crashes`].
fn accel_replan_rows<A>(table: &mut Table, algo: &A)
where
    A: ChunkedAlgo + Sync,
    A::Output: Send,
{
    let opts = testutil::ft_opts(OffloadPolicy::Auto);
    for (plan_name, plan) in [("clean", FaultPlan::new()), ("crashes", two_crashes())] {
        let engine = Engine::new(presets::accel_heterogeneous()).with_faults(plan);
        let run = run_replan(&engine, algo, &opts);
        table.push((
            format!("ft {} replan accel auto {plan_name}", algo.name()),
            run.report.total_time.to_bits(),
        ));
    }
}

/// The four algorithms' partitioned runs of `cube` on `engine` under
/// `options`, each cell named by `cell(algorithm)`.
fn par_cells(
    table: &mut Table,
    (cube, p): (&HyperCube, &AlgoParams),
    engine: &Engine,
    cell: impl Fn(&str) -> String,
    options: &RunOptions,
) {
    for (algo, report) in [
        ("ATDCA", par::atdca::run(engine, cube, p, options).report),
        ("UFCLS", par::ufcls::run(engine, cube, p, options).report),
        ("PCT", par::pct::run(engine, cube, p, options).report),
        ("MORPH", par::morph::run(engine, cube, p, options).report),
    ] {
        par_rows(table, &cell(algo), &report);
    }
}

fn observed() -> Table {
    let s = testutil::tiny_scene();
    let cube = &s.cube;
    let p = AlgoParams {
        num_targets: 6,
        ..Default::default()
    };
    let mut table: Table = [
        ("seq ATDCA", seq::atdca(cube, &p).mflops),
        ("seq UFCLS", seq::ufcls(cube, &p).mflops),
        ("seq PCT", seq::pct(cube, &p).mflops),
        ("seq MORPH", seq::morph(cube, &p).mflops),
    ]
    .map(|(cell, mflops)| (cell.to_string(), mflops.to_bits()))
    .into();
    for (net, platform) in [
        ("het16", presets::fully_heterogeneous()),
        ("th5", presets::thunderhead(5)),
    ] {
        let engine = Engine::new(platform);
        for (name, options) in option_sets() {
            let cell = |algo: &str| format!("par {algo} {net} {name}");
            par_cells(&mut table, (cube, &p), &engine, cell, &options);
        }
    }
    // The scatter charged at its wire size: every partition's header and
    // samples reach the clock, MORPH's halo clipped at the image border.
    let engine = Engine::new(presets::fully_heterogeneous());
    for (name, options) in [
        ("hetero", RunOptions::hetero()),
        ("homo", RunOptions::homo()),
    ] {
        let options = RunOptions {
            scatter_mode: ScatterMode::Charged,
            ..options
        };
        let cell = |algo: &str| format!("par {algo} het16 {name} charged");
        par_cells(&mut table, (cube, &p), &engine, cell, &options);
    }
    // Every rank stages its kernels on its device where it has one: the
    // staging-byte counts of all four algorithms reach the clock.
    let engine = Engine::new(presets::accel_heterogeneous());
    let options = RunOptions::hetero().with_offload(OffloadPolicy::Always);
    let cell = |algo: &str| format!("par {algo} accel offload");
    par_cells(&mut table, (cube, &p), &engine, cell, &options);
    ft_rows(&mut table, &AtdcaChunks::new(cube, &p));
    ft_rows(&mut table, &UfclsChunks::new(cube, &p));
    ft_rows(&mut table, &PctChunks::new(cube, &p));
    ft_rows(&mut table, &MorphChunks::new(cube, &p));
    // The re-planning master splits batches by each node's device-folded
    // speed, and re-splits a lost worker's lines by it too.
    accel_replan_rows(&mut table, &AtdcaChunks::new(cube, &p));
    accel_replan_rows(&mut table, &PctChunks::new(cube, &p));
    accel_replan_rows(&mut table, &MorphChunks::new(cube, &p));
    table
}

/// The pins' text: one `name 0x<bits>` line per row.
fn virtual_pins() -> String {
    observed()
        .iter()
        .map(|(cell, bits)| format!("{cell} {bits:#018x}\n"))
        .collect()
}

/// The stdout of `experiment` on the scene `cfg`.
fn stdout(
    cfg: WtcConfig,
    experiment: impl FnOnce(&SyntheticScene, &mut Vec<u8>) -> io::Result<()>,
) -> String {
    let mut out = Vec::new();
    experiment(&wtc_scene(cfg), &mut out).expect("write to a Vec");
    String::from_utf8(out).expect("UTF-8 tables")
}

/// The record `experiment` returns on the scene `cfg`.
fn record(
    cfg: WtcConfig,
    experiment: impl FnOnce(&SyntheticScene, &mut io::Sink) -> io::Result<Record>,
) -> Record {
    experiment(&wtc_scene(cfg), &mut io::sink()).expect("write to a sink")
}

/// One committed golden and how to make its fresh text.
struct Golden {
    /// Repo-relative path of the committed file.
    path: &'static str,
    /// Too slow for the dev profile: run by [`slow_goldens_match`] only.
    slow: bool,
    /// The fresh text, and whether the gates of a record passed (always
    /// true for a table).
    fresh: fn() -> (String, bool),
}

/// Every golden of the repository, in the order they are checked.
fn goldens() -> [Golden; 13] {
    fn tiny() -> WtcConfig {
        scene_size("tiny")
    }
    fn table(text: String) -> (String, bool) {
        (text, true)
    }
    fn gated(record: Record) -> (String, bool) {
        (record.text(), record.passed)
    }
    [
        Golden {
            path: "tests/golden/virtual_pins.txt",
            slow: false,
            fresh: || table(virtual_pins()),
        },
        Golden {
            path: "tests/golden/table5.txt",
            slow: false,
            fresh: || table(stdout(tiny(), experiments::table5)),
        },
        Golden {
            path: "tests/golden/table8.txt",
            slow: false,
            fresh: || table(stdout(tiny(), experiments::table8)),
        },
        Golden {
            path: "tests/golden/ablation_faults.txt",
            slow: false,
            fresh: || table(stdout(quarter(tiny()), experiments::ablation_faults)),
        },
        Golden {
            path: "tests/golden/ablation_scatter.txt",
            slow: false,
            fresh: || table(stdout(tiny(), experiments::ablation_scatter)),
        },
        Golden {
            path: "tests/golden/ablation_wea.txt",
            slow: false,
            fresh: || table(stdout(tiny(), experiments::ablation_wea)),
        },
        Golden {
            path: "tests/golden/trace_gantt.txt",
            slow: false,
            fresh: || {
                let scene = experiments::trace_gantt_scene();
                table(stdout(scene, experiments::trace_gantt))
            },
        },
        Golden {
            path: "BENCH_collectives.json",
            slow: false,
            fresh: || gated(record(WtcConfig::tiny(), records::collectives)),
        },
        Golden {
            path: "BENCH_allreduce.json",
            slow: false,
            fresh: || gated(record(WtcConfig::tiny(), records::allreduce)),
        },
        Golden {
            path: "BENCH_chaos.json",
            slow: false,
            fresh: || gated(records::chaos_soak(500)),
        },
        Golden {
            path: "BENCH_epochs.json",
            slow: true,
            fresh: || gated(record(quarter(scene_size("medium")), records::epochs)),
        },
        Golden {
            path: "BENCH_accel.json",
            slow: true,
            fresh: || gated(record(quarter(scene_size("medium")), records::accel)),
        },
        Golden {
            path: "BENCH_profile.json",
            slow: true,
            fresh: || gated(record(quarter(scene_size("medium")), records::profile)),
        },
    ]
}

/// Checks the goldens whose `slow` is `slow`, and that every committed
/// golden is on the list.
fn check(slow: bool) {
    let list = goldens();
    let claimed: Vec<&str> = list.iter().map(|g| g.path).collect();
    let mut harness = Harness::new(env!("CARGO_MANIFEST_DIR"), &claimed);
    let mut failed_gates = Vec::new();
    for golden in list.iter().filter(|g| g.slow == slow) {
        let (text, passed) = (golden.fresh)();
        harness.check(golden.path, &text);
        if !passed {
            failed_gates.push(golden.path);
        }
    }
    match harness.finish() {
        Ok(summary) => println!("{summary}"),
        Err(report) => panic!("goldens moved:\n{report}"),
    }
    assert!(failed_gates.is_empty(), "gates failed: {failed_gates:?}");
}

#[test]
fn cheap_goldens_match_their_files() {
    check(false);
}

#[test]
#[ignore = "9-15 s per record in the dev profile; CI runs it in release"]
fn slow_goldens_match_their_files() {
    check(true);
}
