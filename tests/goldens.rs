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
//! `tests/golden/bits.txt` pins what every digest above rests on: the
//! bits of the synthetic scenes, of the symmetric eigensolver's output
//! and of PCT and UFCLS: sequential, partitioned over 16 and 256 ranks,
//! and under both ft drivers, clean and after crashes, where a master
//! merges many covariance shards and many scans share FCLS scratch. A
//! storage change that is meant to move no value (in-place work, fewer
//! copies, work moved between host threads) must leave it unedited.
//!
//! Three records take 4–8 s each in the dev profile; they are
//! `#[ignore]`d here and run with `--include-ignored` in release.
//! Every `repro-bench` binary's output is on the list
//! ([`every_binary_has_a_golden`]).

use heterospec::cube::synth::{wtc_scene, SyntheticScene, WtcConfig};
use heterospec::cube::HyperCube;
use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::digest::Fnv64;
use heterospec::hetero::ft::{run_replan, run_self_sched, FtOptions, FtRun};
use heterospec::hetero::sched::{AtdcaChunks, ChunkedAlgo, MorphChunks, PctChunks, UfclsChunks};
use heterospec::hetero::{par, seq, OffloadPolicy, OutputDigest};
use heterospec::linalg::eigen::SymmetricEigen;
use heterospec::simnet::engine::Engine;
use heterospec::simnet::{
    presets, CollAlgorithm, CollectiveConfig, FaultPlan, RunReport, ScatterMode,
};
use repro_bench::records::{self, Record};
use repro_bench::{experiments, quarter, scene_size};
use std::io;
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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

/// `bits.txt`: one `name 0x<FNV-1a digest>` line per pinned output.
fn bits() -> String {
    let mut out = String::new();
    let mut line = |name: String, digest: u64| out += &format!("{name} {digest:#018x}\n");
    let geometry = |lines, samples, seed| WtcConfig {
        lines,
        samples,
        seed,
        ..Default::default()
    };
    for (name, cfg) in [
        ("wtc_256x16_seed20010916", geometry(256, 16, 20010916)),
        ("wtc_256x16_seed7", geometry(256, 16, 7)),
        ("wtc_tiny", WtcConfig::tiny()),
    ] {
        let scene = wtc_scene(cfg);
        let cube = &scene.cube;
        let mut h = Fnv64::default();
        for dim in [cube.lines(), cube.samples(), cube.bands()] {
            h.write_u64(dim as u64);
        }
        for &v in cube.as_slice() {
            h.write_f32(v);
        }
        line(format!("scene {name} cube"), h.finish());
        line(format!("scene {name} truth"), scene.truth.digest64());
    }
    for (name, a) in testutil::eigen_matrices() {
        let e = SymmetricEigen::new(&a).expect("eigen");
        let mut values = Fnv64::default();
        for &v in &e.eigenvalues {
            values.write_f64(v);
        }
        let mut vectors = Fnv64::default();
        for &v in e.eigenvectors.as_slice() {
            vectors.write_f64(v);
        }
        line(format!("eigen {name} values"), values.finish());
        line(format!("eigen {name} vectors"), vectors.finish());
    }
    let scene = wtc_scene(geometry(256, 16, 20010916));
    let (cube, p) = (&scene.cube, &AlgoParams::default());
    let nets = [
        ("het16", presets::fully_heterogeneous()),
        ("th256", presets::thunderhead(256)),
    ];
    let pct = seq::pct(cube, p).result;
    line("pct seq_wtc_256x16_seed20010916".into(), pct.digest64());
    // Many covariance shards merged by a master: 16 uneven WEA cells,
    // 256 one-line cells, and the ft drivers' 8-line chunks, re-issued
    // after crashes.
    for (net, platform) in &nets {
        let engine = Engine::new(platform.clone());
        let run = par::pct::run(&engine, cube, p, &RunOptions::hetero());
        let name = format!("pct par_{net}_wtc_256x16_seed20010916");
        line(name, run.result.digest64());
    }
    ft_digests(&mut line, "pct", &PctChunks::new(cube, p));
    // UFCLS's targets: every FCLS scan of every round, on one thread, on
    // 16 and 256 ranks, and in the ft drivers' chunks.
    let ufcls = seq::ufcls(cube, p).result;
    line("ufcls seq_wtc_256x16_seed20010916".into(), ufcls.digest64());
    for (net, platform) in &nets {
        let engine = Engine::new(platform.clone());
        let run = par::ufcls::run(&engine, cube, p, &RunOptions::hetero());
        let name = format!("ufcls par_{net}_wtc_256x16_seed20010916");
        line(name, run.result.digest64());
    }
    ft_digests(&mut line, "ufcls", &UfclsChunks::new(cube, p));
    out
}

/// `what`'s output digests from both ft drivers over `algo` on the
/// fully-heterogeneous network, clean and under [`two_crashes`].
fn ft_digests<A>(line: &mut impl FnMut(String, u64), what: &str, algo: &A)
where
    A: ChunkedAlgo + Sync,
    A::Output: OutputDigest + Send,
{
    let opts = FtOptions::default();
    for (plan_name, plan) in [("clean", FaultPlan::new()), ("crashes", two_crashes())] {
        let engine = testutil::engine_with(plan);
        for (mode, output) in [
            ("replan", run_replan(&engine, algo, &opts).output),
            ("selfsched", run_self_sched(&engine, algo, &opts).output),
        ] {
            let name = format!("{what} ft_{mode}_{plan_name}_wtc_256x16_seed20010916");
            line(name, output.digest64());
        }
    }
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
    /// The `repro-bench` binary whose output it is: the stdout of an
    /// experiment, or the record it writes.
    bin: Option<&'static str>,
    /// Too slow for the dev profile: run by [`slow_goldens_match`] only.
    slow: bool,
    /// The fresh text, and whether the gates of a record passed (always
    /// true for a table).
    fresh: fn() -> (String, bool),
}

/// Every golden of the repository, in the order they are checked.
fn goldens() -> [Golden; 18] {
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
        // First: the slowest cheap golden (a third of their time), so no
        // core waits for it alone at the end of `fresh_on_every_core`.
        Golden {
            path: "BENCH_chaos.json",
            bin: Some("chaos_soak"),
            slow: false,
            fresh: || gated(records::chaos_soak(500)),
        },
        Golden {
            path: "tests/golden/virtual_pins.txt",
            bin: None,
            slow: false,
            fresh: || table(virtual_pins()),
        },
        Golden {
            path: "tests/golden/bits.txt",
            bin: None,
            slow: false,
            fresh: || table(bits()),
        },
        Golden {
            path: "tests/golden/table3.txt",
            bin: Some("table3"),
            slow: false,
            fresh: || table(stdout(tiny(), experiments::table3)),
        },
        Golden {
            path: "tests/golden/table4.txt",
            bin: Some("table4"),
            slow: false,
            fresh: || table(stdout(tiny(), experiments::table4)),
        },
        Golden {
            path: "tests/golden/table5.txt",
            bin: Some("table5"),
            slow: false,
            fresh: || table(stdout(tiny(), experiments::table5)),
        },
        Golden {
            path: "tests/golden/table8.txt",
            bin: Some("table8"),
            slow: false,
            fresh: || table(stdout(tiny(), experiments::table8)),
        },
        Golden {
            path: "tests/golden/fig1.txt",
            bin: Some("fig1"),
            slow: false,
            fresh: || table(stdout(tiny(), experiments::fig1)),
        },
        Golden {
            path: "tests/golden/ablation_overlap.txt",
            bin: Some("ablation_overlap"),
            slow: false,
            fresh: || table(stdout(tiny(), experiments::ablation_overlap)),
        },
        Golden {
            path: "tests/golden/ablation_faults.txt",
            bin: Some("ablation_faults"),
            slow: false,
            fresh: || table(stdout(quarter(tiny()), experiments::ablation_faults)),
        },
        Golden {
            path: "tests/golden/ablation_scatter.txt",
            bin: Some("ablation_scatter"),
            slow: false,
            fresh: || table(stdout(tiny(), experiments::ablation_scatter)),
        },
        Golden {
            path: "tests/golden/ablation_wea.txt",
            bin: Some("ablation_wea"),
            slow: false,
            fresh: || table(stdout(tiny(), experiments::ablation_wea)),
        },
        Golden {
            path: "tests/golden/trace_gantt.txt",
            bin: Some("trace_gantt"),
            slow: false,
            fresh: || {
                let scene = experiments::trace_gantt_scene();
                table(stdout(scene, experiments::trace_gantt))
            },
        },
        Golden {
            path: "BENCH_collectives.json",
            bin: Some("ablation_collectives"),
            slow: false,
            fresh: || gated(record(WtcConfig::tiny(), records::collectives)),
        },
        Golden {
            path: "BENCH_allreduce.json",
            bin: Some("ablation_allreduce"),
            slow: false,
            fresh: || gated(record(WtcConfig::tiny(), records::allreduce)),
        },
        Golden {
            path: "BENCH_accel.json",
            bin: Some("ablation_accel"),
            slow: true,
            fresh: || gated(record(quarter(scene_size("medium")), records::accel)),
        },
        Golden {
            path: "BENCH_profile.json",
            bin: Some("bench_profile"),
            slow: true,
            fresh: || gated(record(quarter(scene_size("medium")), records::profile)),
        },
        Golden {
            path: "BENCH_dynamic.json",
            bin: Some("ablation_dynamic"),
            slow: true,
            fresh: || gated(record(quarter(scene_size("medium")), records::dynamic)),
        },
    ]
}

/// Every golden's fresh text, computed on a scoped pool as wide as the
/// host: each worker takes the next golden off the list until none is
/// left. The texts come back in list order.
fn fresh_on_every_core(due: &[&Golden]) -> Vec<(String, bool)> {
    let width = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let next = AtomicUsize::new(0);
    let fresh = Mutex::new(vec![None; due.len()]);
    std::thread::scope(|scope| {
        for _ in 0..width.min(due.len()) {
            scope.spawn(|| loop {
                let at = next.fetch_add(1, Ordering::Relaxed);
                let Some(golden) = due.get(at) else { break };
                let text = (golden.fresh)();
                fresh.lock().expect("no worker panicked")[at] = Some(text);
            });
        }
    });
    let fresh = fresh.into_inner().expect("no worker panicked");
    fresh
        .into_iter()
        .map(|text| text.expect("every golden computed"))
        .collect()
}

/// Checks the goldens whose `slow` is `slow`, and that every committed
/// golden is on the list.
fn check(slow: bool) {
    let list = goldens();
    let claimed: Vec<&str> = list.iter().map(|g| g.path).collect();
    let mut harness = Harness::new(env!("CARGO_MANIFEST_DIR"), &claimed);
    let mut failed_gates = Vec::new();
    let due: Vec<&Golden> = list.iter().filter(|g| g.slow == slow).collect();
    for (golden, (text, passed)) in due.iter().zip(fresh_on_every_core(&due)) {
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

/// No binary's output goes unpinned: each `repro-bench` binary has an
/// entry in [`goldens`], and each entry names a binary that exists.
#[test]
fn every_binary_has_a_golden() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src/bin");
    let bins: Vec<String> = std::fs::read_dir(&dir)
        .expect("the repro-bench binaries")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "rs"))
        .map(|path| {
            path.file_stem()
                .expect("a file name")
                .to_string_lossy()
                .into()
        })
        .collect();
    let pinned: Vec<&str> = goldens().iter().filter_map(|g| g.bin).collect();
    let mut unpinned: Vec<&str> = bins
        .iter()
        .map(String::as_str)
        .filter(|bin| !pinned.contains(bin))
        .collect();
    unpinned.sort();
    let stale: Vec<&str> = pinned
        .into_iter()
        .filter(|bin| !bins.iter().any(|b| b == bin))
        .collect();
    assert!(
        unpinned.is_empty() && stale.is_empty(),
        "binaries whose output no golden pins: {unpinned:?}; goldens of no binary: {stale:?}"
    );
}

#[test]
fn cheap_goldens_match_their_files() {
    check(false);
}

#[test]
#[ignore = "4-8 s per record in the dev profile; CI runs it in release"]
fn slow_goldens_match_their_files() {
    check(true);
}
