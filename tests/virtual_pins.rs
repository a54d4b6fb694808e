//! Absolute virtual numbers, pinned to the bit.
//!
//! Every other suite compares runs with each other (seq vs par, rerun vs
//! rerun, carried vs stateless); the `BENCH_*.json` goldens hold
//! absolute numbers but only CI regenerates them. This suite holds a
//! small table of literals on `WtcConfig::tiny()` so that a refactor of
//! the drivers (`seq`, `par`, `sched` under `ft`) that moves any charge
//! — a cost formula, the order two charges are added in, a wire size, a
//! staging-byte count — fails `cargo test` on the spot.
//!
//! A change that is *meant* to move virtual time (ROADMAP item 1)
//! re-baselines here: the failure message prints the observed table in
//! the form the constant is written in.

use heterospec::cube::HyperCube;
use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::ft::{run_replan, run_self_sched, FtOptions, FtRun};
use heterospec::hetero::sched::{AtdcaChunks, ChunkedAlgo, MorphChunks, PctChunks, UfclsChunks};
use heterospec::hetero::{par, seq, OffloadPolicy};
use heterospec::simnet::engine::Engine;
use heterospec::simnet::{
    presets, CollAlgorithm, CollectiveConfig, FaultPlan, RunReport, ScatterMode,
};

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

#[test]
fn virtual_numbers_keep_their_bits() {
    let observed = observed();
    let same = observed.len() == PINS.len()
        && observed
            .iter()
            .zip(PINS)
            .all(|((cell, bits), (pinned_cell, pinned))| cell == pinned_cell && bits == pinned);
    if !same {
        let listing: String = observed
            .iter()
            .map(|(cell, bits)| format!("    (\"{cell}\", {bits:#018x}),\n"))
            .collect();
        panic!("virtual numbers moved; observed table:\n{listing}");
    }
}

/// Captured at `a3eb537` (PR 18), before the detection loops were folded.
/// The `pipelined` ATDCA and UFCLS rows were re-pinned when the option
/// that sliced their follow-up compute into broadcast chunks was deleted;
/// the `pipelined` PCT rows never read it and kept their literals. The
/// MORPH rows and the `accel offload` cell were added at `aaaea72`. The
/// `ft` rows were re-pinned when the ft drivers took the partitioned
/// runs' cost conventions (kernel-reported chunk charges, one install
/// per worker and round, per-step merge charges, delta broadcasts,
/// partials at their wire sizes); no `seq` or `par` row moved. The
/// `charged` rows, the only ones that read a partition's wire size, were
/// added at `a822b95`. The `accel auto` rows were captured at `d8d0605`,
/// before the re-planning master took its speeds from
/// `offload::effective_platform`.
const PINS: &[(&str, u64)] = &[
    ("seq ATDCA", 0x4014e8d972cd7cf6),
    ("seq UFCLS", 0x40109a027525460b),
    ("seq PCT", 0x40473785f8d2e514),
    ("seq MORPH", 0x405356dfa43fe5c9),
    ("par ATDCA het16 hetero total", 0x3fa3e0ae94452165),
    ("par ATDCA het16 hetero com", 0x3fa1018ad1a31de9),
    ("par ATDCA het16 hetero seq", 0x3f30a6dcc7427e65),
    ("par ATDCA het16 hetero par", 0x3f75eeb0489bf3f8),
    ("par UFCLS het16 hetero total", 0x3fa3d52b5f641c92),
    ("par UFCLS het16 hetero com", 0x3fa0f81870e04afd),
    ("par UFCLS het16 hetero seq", 0x3f2a843220b0f16a),
    ("par UFCLS het16 hetero par", 0x3f761475e3190520),
    ("par PCT het16 hetero total", 0x3fd3b62180527da7),
    ("par PCT het16 hetero com", 0x3fc432ec55161a96),
    ("par PCT het16 hetero seq", 0x3fbb152c50daa7c6),
    ("par PCT het16 hetero par", 0x3fa6bb020c863354),
    ("par MORPH het16 hetero total", 0x3fc48b2b705bdeaa),
    ("par MORPH het16 hetero com", 0x3f85805fa0cc5656),
    ("par MORPH het16 hetero seq", 0x3f72833ec39d13c6),
    ("par MORPH het16 hetero par", 0x3fc29f0b803230a7),
    ("par ATDCA het16 homo total", 0x3fa4527bde54d7ed),
    ("par ATDCA het16 homo com", 0x3f9cb6efa43de674),
    ("par ATDCA het16 homo seq", 0x3f30a6dcc7427e65),
    ("par ATDCA het16 homo par", 0x3f8756d94a9d7ed8),
    ("par UFCLS het16 homo total", 0x3fa404f1797afb50),
    ("par UFCLS het16 homo com", 0x3f9e507d9cea002f),
    ("par UFCLS het16 homo seq", 0x3f2a843220b0f16a),
    ("par UFCLS het16 homo par", 0x3f8308b9e395291e),
    ("par PCT het16 homo total", 0x3fd4f15c21d6a1da),
    ("par PCT het16 homo com", 0x3fc28561ba136682),
    ("par PCT het16 homo seq", 0x3fbb5a10641dae38),
    ("par PCT het16 homo par", 0x3fb3609caf160c2c),
    ("par MORPH het16 homo total", 0x3fd77df1a12e3fa9),
    ("par MORPH het16 homo com", 0x3f87b55fff07473c),
    ("par MORPH het16 homo seq", 0x3f727c0e7a5e6e66),
    ("par MORPH het16 homo par", 0x3fd67656674c8bb5),
    ("par ATDCA het16 seghier total", 0x3f96e934c73af22b),
    ("par ATDCA het16 seghier com", 0x3f8bfbe8f4eea57b),
    ("par ATDCA het16 seghier seq", 0x3ebf237594c664ee),
    ("par ATDCA het16 seghier par", 0x3f81d5877dda98a7),
    ("par UFCLS het16 seghier total", 0x3f96493488bd0d42),
    ("par UFCLS het16 seghier com", 0x3f8bc93e7fc6fa78),
    ("par UFCLS het16 seghier seq", 0x3ebf237594c664ee),
    ("par UFCLS het16 seghier par", 0x3f80c831760679d8),
    ("par PCT het16 seghier total", 0x3fd204dda0e0afdf),
    ("par PCT het16 seghier com", 0x3fc404a4e13c98a8),
    ("par PCT het16 seghier seq", 0x3fbb152c50daa7c6),
    ("par PCT het16 seghier par", 0x3f93d401c0bb9998),
    ("par MORPH het16 seghier total", 0x3fc3785d356e838d),
    ("par MORPH het16 seghier com", 0x3f86780c622b46b2),
    ("par MORPH het16 seghier seq", 0x3f72833ec39d13c6),
    ("par MORPH het16 seghier par", 0x3fc17cc2792ee684),
    ("par ATDCA het16 pipelined total", 0x3faa0e411661ca71),
    ("par ATDCA het16 pipelined com", 0x3fa6cd7e7ae8aa1a),
    ("par ATDCA het16 pipelined seq", 0x3f30a6dcc7427ea5),
    ("par ATDCA het16 pipelined par", 0x3f78fba70f54dad0),
    ("par UFCLS het16 pipelined total", 0x3fa9b7776fb503f0),
    ("par UFCLS het16 pipelined com", 0x3fa6c36cac46b47d),
    ("par UFCLS het16 pipelined seq", 0x3f2a843220b0f1aa),
    ("par UFCLS het16 pipelined par", 0x3f76cc348a6cf408),
    ("par PCT het16 pipelined total", 0x3fd1f905a13be6c1),
    ("par PCT het16 pipelined com", 0x3fc4673d90ab1abc),
    ("par PCT het16 pipelined seq", 0x3fbb152c50daa7c6),
    ("par PCT het16 pipelined par", 0x3f9001bc4afaf718),
    ("par MORPH het16 pipelined total", 0x3fc373445cdd9ae4),
    ("par MORPH het16 pipelined com", 0x3f888c51243a67e8),
    ("par MORPH het16 pipelined seq", 0x3f72833ec39d13c6),
    ("par MORPH het16 pipelined par", 0x3fc15665547d0bc8),
    ("par ATDCA th5 hetero total", 0x3f8eebe68e2c0ca8),
    ("par ATDCA th5 hetero com", 0x3f42599ed7c6fbd4),
    ("par ATDCA th5 hetero seq", 0x3f27819e47a09ff7),
    ("par ATDCA th5 hetero par", 0x3f8d684627911a6b),
    ("par UFCLS th5 hetero total", 0x3f88c9f5be18e60f),
    ("par UFCLS th5 hetero com", 0x3f42599ed7c6fbd4),
    ("par UFCLS th5 hetero seq", 0x3f22b73cc2a9077f),
    ("par UFCLS th5 hetero par", 0x3f87597edd91d234),
    ("par PCT th5 hetero total", 0x3fd37132ae643d29),
    ("par PCT th5 hetero com", 0x3f325e2f12f0a258),
    ("par PCT th5 hetero seq", 0x3fcc480d062121fc),
    ("par PCT th5 hetero par", 0x3fb522527e3bc00a),
    ("par MORPH th5 hetero total", 0x3fd031fada4a6588),
    ("par MORPH th5 hetero com", 0x3f26f7cf6b1dec61),
    ("par MORPH th5 hetero seq", 0x3f6013f566852b76),
    ("par MORPH th5 hetero par", 0x3fd00ef3f58ff773),
    ("par ATDCA th5 homo total", 0x3f8eebe68e2c0ca8),
    ("par ATDCA th5 homo com", 0x3f42599ed7c6fbd4),
    ("par ATDCA th5 homo seq", 0x3f27819e47a09ff7),
    ("par ATDCA th5 homo par", 0x3f8d684627911a6b),
    ("par UFCLS th5 homo total", 0x3f88c9f5be18e60f),
    ("par UFCLS th5 homo com", 0x3f42599ed7c6fbd4),
    ("par UFCLS th5 homo seq", 0x3f22b73cc2a9077f),
    ("par UFCLS th5 homo par", 0x3f87597edd91d234),
    ("par PCT th5 homo total", 0x3fd37132ae643d29),
    ("par PCT th5 homo com", 0x3f325e2f12f0a258),
    ("par PCT th5 homo seq", 0x3fcc480d062121fc),
    ("par PCT th5 homo par", 0x3fb522527e3bc00a),
    ("par MORPH th5 homo total", 0x3fd031fada4a6588),
    ("par MORPH th5 homo com", 0x3f26f7cf6b1dec61),
    ("par MORPH th5 homo seq", 0x3f6013f566852b76),
    ("par MORPH th5 homo par", 0x3fd00ef3f58ff773),
    ("par ATDCA th5 seghier total", 0x3f8e8e987f555a27),
    ("par ATDCA th5 seghier com", 0x3f42599ed7c6fbd4),
    ("par ATDCA th5 seghier seq", 0x3eb5fa683b7daf84),
    ("par ATDCA th5 seghier par", 0x3f8d684ebe970e7d),
    ("par UFCLS th5 seghier total", 0x3f887fd1355611f1),
    ("par UFCLS th5 seghier com", 0x3f42599ed7c6fbd4),
    ("par UFCLS th5 seghier seq", 0x3eb5fa683b7daf84),
    ("par UFCLS th5 seghier par", 0x3f8759877497c647),
    ("par PCT th5 seghier total", 0x3fd37132ae643d29),
    ("par PCT th5 seghier com", 0x3f325e2f12f0a258),
    ("par PCT th5 seghier seq", 0x3fcc480d062121fc),
    ("par PCT th5 seghier par", 0x3fb522527e3bc00a),
    ("par MORPH th5 seghier total", 0x3fd031fada4a6588),
    ("par MORPH th5 seghier com", 0x3f26f7cf6b1dec61),
    ("par MORPH th5 seghier seq", 0x3f6013f566852b76),
    ("par MORPH th5 seghier par", 0x3fd00ef3f58ff773),
    ("par ATDCA th5 pipelined total", 0x3f90ef3c80924b38),
    ("par ATDCA th5 pipelined com", 0x3f60624dd2f1aa05),
    ("par ATDCA th5 pipelined seq", 0x3f27819e47a09ff7),
    ("par ATDCA th5 pipelined par", 0x3f8d67df1349a96f),
    ("par UFCLS th5 pipelined total", 0x3f8bbc8831116fde),
    ("par UFCLS th5 pipelined com", 0x3f60624dd2f1aa05),
    ("par UFCLS th5 pipelined seq", 0x3f22b73cc2a9077f),
    ("par UFCLS th5 pipelined par", 0x3f875917c94a613f),
    ("par PCT th5 pipelined total", 0x3fd3751c6a4c829f),
    ("par PCT th5 pipelined com", 0x3f41028f5a033487),
    ("par PCT th5 pipelined seq", 0x3fcc480d062121fc),
    ("par PCT th5 pipelined par", 0x3fb522527e3bc01b),
    ("par MORPH th5 pipelined total", 0x3fd035e97c54102a),
    ("par MORPH th5 pipelined com", 0x3f3b366fdc3984e5),
    ("par MORPH th5 pipelined seq", 0x3f6013f566852b76),
    ("par MORPH th5 pipelined par", 0x3fd00ef3f58ff772),
    ("par ATDCA het16 hetero charged total", 0x3fab573687a36554),
    ("par ATDCA het16 hetero charged com", 0x3f9954f8f34bdd8f),
    ("par ATDCA het16 hetero charged seq", 0x3f30a6dcc7427ee5),
    ("par ATDCA het16 hetero charged par", 0x3f9d16d8a8dde31d),
    ("par UFCLS het16 hetero charged total", 0x3faaa61f639b796f),
    ("par UFCLS het16 hetero charged com", 0x3f9c2d873c94c4b2),
    ("par UFCLS het16 hetero charged seq", 0x3f2a843220b0f1ca),
    ("par UFCLS het16 hetero charged par", 0x3f98e9af2660cc48),
    ("par PCT het16 hetero charged total", 0x3fd3f38aca5d8198),
    ("par PCT het16 hetero charged com", 0x3fc257af2c3b91e2),
    ("par PCT het16 hetero charged seq", 0x3fba1a785671df6c),
    ("par PCT het16 hetero charged par", 0x3fb104547a8d0330),
    ("par MORPH het16 hetero charged total", 0x3fcc2217814cd8e4),
    ("par MORPH het16 hetero charged com", 0x3f827c2a2e3807e6),
    ("par MORPH het16 hetero charged seq", 0x3f6c18828b68b20d),
    ("par MORPH het16 hetero charged par", 0x3fca89f2d43bb59e),
    ("par ATDCA het16 homo charged total", 0x3fd1173caf76364a),
    ("par ATDCA het16 homo charged com", 0x3f9dcbb507a4b306),
    ("par ATDCA het16 homo charged seq", 0x3f30a6dcc7428065),
    ("par ATDCA het16 homo charged par", 0x3fce6caf4f9434f3),
    ("par UFCLS het16 homo charged total", 0x3fd10d8b62dafab4),
    ("par UFCLS het16 homo charged com", 0x3f9f65430050ccb0),
    ("par UFCLS het16 homo charged seq", 0x3f2a843220b0f0ca),
    ("par UFCLS het16 homo charged par", 0x3fce27cd5923af96),
    ("par PCT het16 homo charged total", 0x3fe14a30e47a16b4),
    ("par PCT het16 homo charged com", 0x3fc8500d2423f862),
    ("par PCT het16 homo charged seq", 0x3fbb5a10641dae32),
    ("par PCT het16 homo charged par", 0x3fcf2bae3bb58b56),
    ("par MORPH het16 homo charged total", 0x3fde770c9b07c789),
    ("par MORPH het16 homo charged com", 0x3f8c894806b7a6ab),
    ("par MORPH het16 homo charged seq", 0x3f727c0e7a5e6e66),
    ("par MORPH het16 homo charged par", 0x3fdd48d220e8909a),
    ("par ATDCA accel offload total", 0x3fa3e0ae94452165),
    ("par ATDCA accel offload com", 0x3fa0e90fc8ffc981),
    ("par ATDCA accel offload seq", 0x3f30a6dcc7427e65),
    ("par ATDCA accel offload par", 0x3f76b2888db69738),
    ("par UFCLS accel offload total", 0x3fa3d52b5f641c92),
    ("par UFCLS accel offload com", 0x3fa0e90fc8ffc981),
    ("par UFCLS accel offload seq", 0x3f2a843220b0f16a),
    ("par UFCLS accel offload par", 0x3f768cbb221d1100),
    ("par PCT accel offload total", 0x3fd4a961d90f009a),
    ("par PCT accel offload com", 0x3fc83eb483c749ac),
    ("par PCT accel offload seq", 0x3fb9d07cb9f7ce80),
    ("par PCT accel offload par", 0x3fa0af43456b4120),
    ("par MORPH accel offload total", 0x3fc44903287a59d2),
    ("par MORPH accel offload com", 0x3f847cf1bb9736e7),
    ("par MORPH accel offload seq", 0x3f5d88a023d6b199),
    ("par MORPH accel offload par", 0x3fc2c622cc793901),
    ("ft ATDCA replan clean", 0x3faa237c367d59a0),
    ("ft ATDCA replan crashes", 0x3fac2192d1f334f8),
    ("ft ATDCA selfsched clean", 0x3fc2fb5b8a2331d1),
    ("ft ATDCA selfsched crashes", 0x3fc2da96ee7d4e7c),
    ("ft UFCLS replan clean", 0x3faa1b8904086ac9),
    ("ft UFCLS replan crashes", 0x3fabf30ef1589eed),
    ("ft UFCLS selfsched clean", 0x3fc2fab8a570e5f0),
    ("ft UFCLS selfsched crashes", 0x3fc2d9f409cb029b),
    ("ft PCT replan clean", 0x3fd46fbb9616f8d4),
    ("ft PCT replan crashes", 0x3fda552ef9594711),
    ("ft PCT selfsched clean", 0x3fcc8e6722da38b0),
    ("ft PCT selfsched crashes", 0x3fd0d68fba62deee),
    ("ft MORPH replan clean", 0x3fbff8699bc1915e),
    ("ft MORPH replan crashes", 0x3fd74043f799869a),
    ("ft MORPH selfsched clean", 0x3fc8a5937584bbbf),
    ("ft MORPH selfsched crashes", 0x3fde3e4ed97aafbd),
    ("ft ATDCA replan accel auto clean", 0x3fa9d15a5c8c2cb9),
    ("ft ATDCA replan accel auto crashes", 0x3fab680862872c12),
    ("ft PCT replan accel auto clean", 0x3fd544641947a892),
    ("ft PCT replan accel auto crashes", 0x3fdd8a6578f9daf5),
    ("ft MORPH replan accel auto clean", 0x3fa63b20cbc482ca),
    ("ft MORPH replan accel auto crashes", 0x3fa6a97a1598d476),
];
