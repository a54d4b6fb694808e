//! **Ablation A4** — static WEA vs demand-driven self-scheduling under
//! hidden load (the paper's future-work direction), measured on the
//! engine.
//!
//! Hidden load is a whole-run [`FaultPlan::slowdown`] of rank 2 (p3,
//! WEA's favourite node). "Static WEA" is the paper's own
//! `par::morph::run(.., RunOptions::hetero())`: it plans from the
//! platform's nominal cycle-times while the engine charges the true
//! ones, so the slowed partition becomes the critical path.
//! "Self-scheduling" is `ft::run_self_sched` over [`MorphChunks`]: the
//! master hands fixed-size chunks to whichever worker is free, paying
//! real `Assign`/`Partial`/state messages per chunk.
//!
//! The sweep runs on the fully heterogeneous network and on
//! `thunderhead(16)` — one switched segment, where no serial link exists
//! to queue on, as the artefact-free control (ROADMAP open item 1).
//! Gates, exit 1 on failure, both networks: static ×8 ≥ 5 × static ×1;
//! self-sched (chunk 8) ×8 ≤ 2 × its ×1 and < 0.5 × static ×8; and on
//! Thunderhead every rank's `contention` phase is exactly 0. They are
//! enforced from the default scene up (≥ 4 chunks per worker) and
//! reported as `skipped` below that, where chunk quantisation decides.
//!
//! ```text
//! cargo run -p repro-bench --release --bin ablation_dynamic
//! ```

use hetero_hsi::config::{AlgoParams, RunOptions};
use hetero_hsi::ft::{run_self_sched, FtOptions};
use hetero_hsi::par;
use hetero_hsi::sched::MorphChunks;
use hsi_cube::synth::wtc_scene;
use hsi_cube::HyperCube;
use repro_bench::{gate_status, print_table, scene_config, write_csv};
use simnet::engine::Engine;
use simnet::prof::RunProfile;
use simnet::{presets, FaultPlan, Platform};
use std::collections::BTreeMap;

/// The hidden-load sweep: p3's true cycle-time as a multiple of nominal.
const SLOWDOWNS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
/// Self-scheduling chunk sizes (lines); the gates read the middle one.
const CHUNKS: [usize; 3] = [2, 8, 32];
/// End of the slowdown window: past any run of the sweep.
const WHOLE_RUN: f64 = 1e6;

/// Largest per-rank `contention` phase of a profiled run.
fn max_contention(profile: &RunProfile) -> f64 {
    let per_rank = profile.ranks.iter().map(|r| r.phases.contention);
    per_rank.fold(0.0, f64::max)
}

/// Where a self-scheduled run's time went, from its [`RunProfile`]: the
/// master's idle share, serial-link queueing per link, and the worker
/// that computed longest. The ft protocol is master↔worker only, so a
/// worker's `contention` is all on the link between its segment and the
/// master's (segment 0 on every preset, hence `s0-s<seg>`).
fn attribution(label: &str, platform: &Platform, profile: &RunProfile) {
    let master = &profile.ranks[0];
    let mut links: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    for r in &profile.ranks[1..] {
        if platform.crosses_segments(0, r.rank) {
            let (sum, worst) = links.entry(platform.segment_of(r.rank)).or_default();
            *sum += r.phases.contention;
            *worst = worst.max(r.phases.contention);
        }
    }
    let links: Vec<String> = links
        .iter()
        .map(|(seg, (sum, worst))| format!("s0-s{seg} {sum:.2} s (worst rank {worst:.2} s)"))
        .collect();
    let busiest = profile.ranks[1..]
        .iter()
        .max_by(|a, b| a.phases.compute_par.total_cmp(&b.phases.compute_par))
        .expect("a master and at least one worker");
    eprintln!(
        "# {label}: makespan {:.2} s; master idle {:.2} s ({:.1}%); \
         contention by link: {}; busiest worker r{} computes {:.2} s",
        profile.makespan,
        master.phases.idle,
        100.0 * master.phases.idle / profile.makespan,
        if links.is_empty() {
            "none (one segment)".to_string()
        } else {
            links.join(", ")
        },
        busiest.rank,
        busiest.phases.compute_par,
    );
}

/// One network's sweep: prints its table, appends its rows to `csv` and
/// returns whether its gates hold.
fn sweep(
    platform: &Platform,
    cube: &HyperCube,
    params: &AlgoParams,
    csv: &mut Vec<String>,
) -> bool {
    let name = platform.name();
    let chunks = MorphChunks::new(cube, params);
    let mut rows = Vec::new();
    let mut statics = Vec::new();
    let mut mids = Vec::new();
    let mut worst_contention = 0.0f64;
    for slowdown in SLOWDOWNS {
        let engine = Engine::new(platform.clone())
            .with_faults(FaultPlan::new().slowdown(2, 0.0, WHOLE_RUN, slowdown))
            .with_profiling(true);
        eprintln!("# {name} x{slowdown}: static WEA");
        let stat = par::morph::run(&engine, cube, params, &RunOptions::hetero());
        statics.push(stat.report.total_time);
        let mut row = vec![
            format!("x{slowdown}"),
            format!("{:.2}", stat.report.total_time),
        ];
        let mut line = format!("{name},{slowdown},{:.4}", stat.report.total_time);
        for chunk_lines in CHUNKS {
            eprintln!("# {name} x{slowdown}: self-scheduling, chunk {chunk_lines}");
            let opts = FtOptions {
                chunk_lines,
                ..FtOptions::default()
            };
            let run = run_self_sched(&engine, &chunks, &opts);
            let profile = run.report.profile.as_ref().expect("profiling is on");
            worst_contention = worst_contention.max(max_contention(profile));
            if chunk_lines == CHUNKS[1] {
                mids.push(run.report.total_time);
                attribution(
                    &format!("{name} x{slowdown} chunk {chunk_lines}"),
                    platform,
                    profile,
                );
            }
            row.push(format!("{:.2}", run.report.total_time));
            line += &format!(",{:.4}", run.report.total_time);
        }
        rows.push(row);
        csv.push(line);
    }
    print_table(
        &format!(
            "Ablation A4 on {name}: MORPH completion time (s), static WEA vs \
             self-scheduling, p3 secretly slowed (engine-measured)"
        ),
        &[
            "Slowdown",
            "Static WEA",
            "Self chunk=2",
            "Self chunk=8",
            "Self chunk=32",
        ],
        &rows,
    );

    let (s1, s8) = (statics[0], statics[SLOWDOWNS.len() - 1]);
    let (d1, d8) = (mids[0], mids[SLOWDOWNS.len() - 1]);
    let single_segment = (1..platform.num_procs()).all(|r| !platform.crosses_segments(0, r));
    // The flatness gate allows one x8-slowed chunk (8 chunk-times) inside
    // 2 x the unloaded makespan, so it needs at least 4 gated-size chunks
    // per worker; smaller scenes only print the table.
    let meaningful = cube.lines() >= 4 * CHUNKS[1] * (platform.num_procs() - 1);
    let gates = [
        ("static x8 >= 5 x static x1", s8 >= 5.0 * s1),
        ("self-sched x8 <= 2 x self-sched x1", d8 <= 2.0 * d1),
        ("self-sched x8 < 0.5 x static x8", d8 < 0.5 * s8),
        (
            "single segment => zero contention on every rank",
            !single_segment || worst_contention == 0.0,
        ),
    ];
    for (what, ok) in gates {
        eprintln!("# gate [{name}] {what}: {}", gate_status(meaningful, ok));
    }
    !meaningful || gates.iter().all(|&(_, ok)| ok)
}

fn main() {
    // A quarter-size scene keeps this sweep quick.
    let mut cfg = scene_config();
    cfg.lines = (cfg.lines / 2).max(64);
    cfg.samples = (cfg.samples / 2).max(32);
    eprintln!("# scene: {} x {} x {}", cfg.lines, cfg.samples, cfg.bands);
    let scene = wtc_scene(cfg);
    let params = AlgoParams::default();

    let mut passed = true;
    let mut csv = Vec::new();
    for platform in [presets::fully_heterogeneous(), presets::thunderhead(16)] {
        passed &= sweep(&platform, &scene.cube, &params, &mut csv);
    }
    write_csv(
        "ablation_dynamic.csv",
        "network,slowdown,static,self2,self8,self32",
        &csv,
    );
    repro_bench::report_peak_rss(&scene.cube);
    if !passed {
        std::process::exit(1);
    }
}
