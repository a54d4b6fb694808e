use hetero_hsi::config::{AlgoParams, RunOptions};
use hetero_hsi::ft::{run_replan, run_self_sched, FtOptions};
use hetero_hsi::sched::AtdcaChunks;
use hsi_cube::synth::SyntheticScene;
use simnet::engine::Engine;
use simnet::prof::RunProfile;
use simnet::FaultPlan;
use std::io::{self, Write};

use super::Record;
use crate::microjson::{object, Json};
use crate::{print_table, run_algorithm, ALGORITHMS};

/// One profiled (platform, workload) measurement.
struct Cell {
    platform: String,
    workload: String,
    makespan: f64,
    path_secs: f64,
    slack_secs: f64,
    bottleneck: String,
    share: f64,
    identity: bool,
    bounded: bool,
    observer: bool,
}

impl Cell {
    fn new(platform: &str, workload: String, prof: &RunProfile, observer: bool) -> Cell {
        let cp = &prof.critical_path;
        Cell {
            platform: platform.to_string(),
            workload,
            makespan: prof.makespan,
            path_secs: cp.length,
            slack_secs: cp.slack,
            bottleneck: cp.bottleneck.owner.clone(),
            share: cp.bottleneck.share,
            identity: prof.identity_holds(),
            bounded: prof.path_bounded(),
            observer,
        }
    }

    fn to_json(&self) -> Json {
        object(vec![
            ("platform", Json::String(self.platform.clone())),
            ("workload", Json::String(self.workload.clone())),
            ("makespan_secs", Json::Number(self.makespan)),
            ("path_secs", Json::Number(self.path_secs)),
            ("slack_secs", Json::Number(self.slack_secs)),
            ("bottleneck", Json::String(self.bottleneck.clone())),
            ("bottleneck_share", Json::Number(self.share)),
            ("identity_exact", Json::Bool(self.identity)),
            ("path_bounded", Json::Bool(self.bounded)),
            ("pure_observer", Json::Bool(self.observer)),
        ])
    }
}

/// **Profiler gate** — exact phase accounting → `BENCH_profile.json`.
///
/// Profiles the four algorithms over the paper's four networks plus
/// both fault-tolerant drivers under a crash plan, and enforces the
/// profiler's contract on **every** cell. Four deterministic gates,
/// always enforced:
///
/// 1. **Identity exact** — every rank's eight-phase fold equals its
///    wall-clock bitwise (`f64::to_bits`, no epsilon) in every cell;
/// 2. **Path bounded** — critical-path length ≤ makespan and
///    `fl(length + slack) == makespan` bitwise in every cell;
/// 3. **Pure observer** — each cell's timing report with the profile
///    stripped is identical to the same run without profiling;
/// 4. **Recovery attributed** — under a crash plan both drivers
///    surface a non-zero recovery phase while staying exact.
///
/// The binary runs it on a quarter-size scene ([`crate::quarter`]) to
/// keep the 4 × 4 matrix quick; the gated quantities are bitwise
/// relations on deterministic virtual times, so they are
/// scale-independent.
///
/// ```text
/// cargo run -p repro-bench --release --bin bench_profile
/// ```
pub fn profile(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<Record> {
    let params = AlgoParams::default();
    let options = RunOptions::hetero();
    let mut cells: Vec<Cell> = Vec::new();

    // --- Algorithm × network matrix. ---------------------------------
    for platform in simnet::presets::four_networks() {
        for algorithm in ALGORITHMS {
            eprintln!("# profiling {algorithm} on {}", platform.name());
            let profiled = run_algorithm(
                algorithm,
                &Engine::new(platform.clone()).with_profiling(true),
                scene,
                &params,
                &options,
            );
            let plain = run_algorithm(
                algorithm,
                &Engine::new(platform.clone()),
                scene,
                &params,
                &options,
            );
            let mut report = profiled.report;
            let prof = report.profile.take().expect("profiled run has a profile");
            let observer = plain.report.profile.is_none() && report == plain.report;
            cells.push(Cell::new(
                platform.name(),
                algorithm.to_string(),
                &prof,
                observer,
            ));
        }
    }

    // --- Fault-tolerant drivers under a crash plan. ------------------
    let algo = AtdcaChunks::new(&scene.cube, &params);
    let opts = FtOptions::default();
    let mut gate_recovery = true;
    for mode in ["self-sched", "replan"] {
        eprintln!("# profiling ATDCA/{mode} under crash(5, 0.02)");
        let run = |profiling: bool| {
            let engine = Engine::new(simnet::presets::fully_heterogeneous())
                .with_faults(FaultPlan::new().crash(5, 0.02))
                .with_profiling(profiling);
            match mode {
                "self-sched" => run_self_sched(&engine, &algo, &opts).report,
                _ => run_replan(&engine, &algo, &opts).report,
            }
        };
        let mut report = run(true);
        let plain = run(false);
        let prof = report.profile.take().expect("profiled run has a profile");
        let observer = plain.profile.is_none() && report == plain;
        gate_recovery &= prof.ranks.iter().any(|r| r.phases.recovery > 0.0);
        cells.push(Cell::new(
            "fully-heterogeneous",
            format!("ATDCA/{mode}+crash"),
            &prof,
            observer,
        ));
    }

    // --- Gates: enforced on every cell, no exceptions. ---------------
    let gate_identity = cells.iter().all(|c| c.identity);
    let gate_bounded = cells.iter().all(|c| c.bounded);
    let gate_observer = cells.iter().all(|c| c.observer);

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.platform.clone(),
                c.workload.clone(),
                format!("{:.3}", c.makespan),
                format!("{:.3}", c.path_secs),
                format!("{:.3}", c.slack_secs),
                c.bottleneck.clone(),
                format!("{:.1}", c.share * 100.0),
                format!("{}", c.identity && c.bounded && c.observer),
            ]
        })
        .collect();
    print_table(
        out,
        "Profiler gate: exact accounting + critical path on every cell",
        &[
            "Platform",
            "Workload",
            "Makespan s",
            "Path s",
            "Slack s",
            "Bottleneck",
            "Share %",
            "Exact",
        ],
        &rows,
    )?;

    eprintln!(
        "# gate 1 (accounting identity bitwise in all {} cells): {}",
        cells.len(),
        if gate_identity { "PASS" } else { "FAIL" }
    );
    eprintln!(
        "# gate 2 (critical path bounded in all cells): {}",
        if gate_bounded { "PASS" } else { "FAIL" }
    );
    eprintln!(
        "# gate 3 (profiling is a pure observer): {}",
        if gate_observer { "PASS" } else { "FAIL" }
    );
    eprintln!(
        "# gate 4 (crash runs attribute a recovery phase): {}",
        if gate_recovery { "PASS" } else { "FAIL" }
    );

    let all_passed = gate_identity && gate_bounded && gate_observer && gate_recovery;
    Ok(Record::new(
        "BENCH_profile.json",
        vec![(
            "cells",
            Json::Array(cells.iter().map(Cell::to_json).collect()),
        )],
        vec![
            ("identity_exact", Json::Bool(gate_identity)),
            ("path_bounded", Json::Bool(gate_bounded)),
            ("pure_observer", Json::Bool(gate_observer)),
            ("recovery_attributed", Json::Bool(gate_recovery)),
        ],
        all_passed,
    ))
}
