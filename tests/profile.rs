//! Profiler acceptance suite.
//!
//! Contract of `simnet::prof` as wired through the full stack:
//!
//! 1. the **accounting identity** — every rank's eight-phase fold equals
//!    its wall-clock bitwise (`f64::to_bits`, no epsilon) — holds for
//!    all four algorithms on all four paper networks, and for both
//!    fault-tolerant drivers under every offload policy;
//! 2. the critical path is **bounded** (`length ≤ makespan`,
//!    `fl(length + slack) == makespan`) and **deterministic** across
//!    reruns, including its bottleneck attribution;
//! 3. crash plans shift attribution **structurally**: a recovery phase
//!    appears on affected ranks while the totals stay exact;
//! 4. profiling is an **observer**: results and the timing report are
//!    bit-identical with and without it (only `RunReport::profile`
//!    differs);
//! 5. the Chrome-trace exporter emits a well-formed JSON event array
//!    for any profiled run.

use heterospec::hetero::config::RunOptions;
use heterospec::hetero::ft::{run_replan, run_self_sched};
use heterospec::hetero::par::{atdca, morph, pct, ufcls};
use heterospec::hetero::sched::AtdcaChunks;
use heterospec::hetero::OffloadPolicy;
use heterospec::simnet::engine::{Ctx, Engine};
use heterospec::simnet::{chrome_trace, presets, FaultPlan, RunReport};
use testutil::{assert_profile_exact, coords, engine_with, ft_opts, tiny_scene, POLICIES};

fn params() -> heterospec::hetero::config::AlgoParams {
    testutil::params(5, 2)
}

/// Identity + path bounds across the full algorithm × network matrix.
#[test]
fn identity_holds_for_all_algorithms_on_all_networks() {
    let s = tiny_scene();
    let p = params();
    let o = RunOptions::hetero();
    for platform in presets::four_networks() {
        let name = platform.name().to_string();
        let engine = Engine::new(platform).with_profiling(true);
        let reports: [(&str, RunReport<()>); 4] = [
            ("ATDCA", atdca::run(&engine, &s.cube, &p, &o).report),
            ("UFCLS", ufcls::run(&engine, &s.cube, &p, &o).report),
            ("PCT", pct::run(&engine, &s.cube, &p, &o).report),
            ("MORPH", morph::run(&engine, &s.cube, &p, &o).report),
        ];
        for (algo, report) in &reports {
            let profile = assert_profile_exact(report);
            assert!(!profile.ranks.is_empty(), "{algo} on {name}: empty profile");
            assert!(
                profile.makespan > 0.0,
                "{algo} on {name}: degenerate makespan"
            );
            assert!(
                profile.critical_path.bottleneck.seconds > 0.0,
                "{algo} on {name}: no bottleneck attributed"
            );
        }
    }
}

/// Both fault-tolerant drivers keep the identity under every offload
/// policy on the device-bearing preset (offload phases in the fold).
#[test]
fn ft_drivers_profile_exactly_under_every_offload_policy() {
    let s = tiny_scene();
    let p = params();
    let algo = AtdcaChunks::new(&s.cube, &p);
    for policy in POLICIES {
        let opts = ft_opts(policy);
        let engine = Engine::new(presets::accel_heterogeneous()).with_profiling(true);
        let ss = run_self_sched(&engine, &algo, &opts);
        let ss_prof = assert_profile_exact(&ss.report);
        let rp = run_replan(&engine, &algo, &opts);
        let rp_prof = assert_profile_exact(&rp.report);
        for prof in [ss_prof, rp_prof] {
            assert!(
                prof.ranks.iter().all(|r| r.phases.recovery == 0.0),
                "{policy:?}: clean run must have no recovery phase"
            );
        }
        if policy == OffloadPolicy::Always {
            assert!(
                ss_prof.ranks.iter().any(|r| r.phases.offload > 0.0),
                "Always: some rank must spend offload time"
            );
        }
    }
}

/// Rerunning the same configuration reproduces the profile bit for bit:
/// same phase breakdowns, same critical path, same bottleneck.
#[test]
fn critical_path_is_deterministic_across_reruns() {
    let s = tiny_scene();
    let p = params();
    let run = || {
        let engine = Engine::new(presets::fully_heterogeneous()).with_profiling(true);
        morph::run(&engine, &s.cube, &p, &RunOptions::hetero()).report
    };
    let first = run();
    let second = run();
    let pa = assert_profile_exact(&first);
    let pb = assert_profile_exact(&second);
    assert_eq!(pa, pb, "profiles differ between identical reruns");
    assert_eq!(
        pa.critical_path.bottleneck.owner, pb.critical_path.bottleneck.owner,
        "bottleneck attribution differs between identical reruns"
    );
    assert!(!pa.summary().is_empty() && !pa.bottleneck_line().is_empty());
}

/// A crash plan changes the profile structurally — a recovery phase
/// appears on at least one rank — while every rank's fold stays exact
/// and the surviving output is unchanged.
#[test]
fn crash_plans_surface_a_recovery_phase_and_keep_totals_exact() {
    let s = tiny_scene();
    let p = params();
    let algo = AtdcaChunks::new(&s.cube, &p);
    let opts = ft_opts(OffloadPolicy::Never);

    let clean_engine = engine_with(FaultPlan::new()).with_profiling(true);
    let clean = run_self_sched(&clean_engine, &algo, &opts);
    let clean_prof = assert_profile_exact(&clean.report);
    assert!(
        clean_prof.ranks.iter().all(|r| r.phases.recovery == 0.0),
        "clean run must have no recovery phase"
    );

    let crash_engine = engine_with(FaultPlan::new().crash(5, 0.02)).with_profiling(true);
    let faulty = run_self_sched(&crash_engine, &algo, &opts);
    assert_eq!(
        coords(&faulty.output),
        coords(&clean.output),
        "self-sched output must survive the crash"
    );
    let prof = assert_profile_exact(&faulty.report);
    assert!(
        prof.ranks.iter().any(|r| r.phases.recovery > 0.0),
        "crash run must attribute recovery time on some rank"
    );
    assert!(
        faulty.recoveries.iter().any(|r| r.rank == 5),
        "crash run must record the loss"
    );
}

/// Profiling is a pure observer: result coordinates and the timing
/// report are bit-identical with and without it once the `profile`
/// field is cleared.
#[test]
fn profiling_never_perturbs_results_or_virtual_time() {
    let s = tiny_scene();
    let p = params();
    let o = RunOptions::hetero();
    let platform = presets::fully_heterogeneous();
    let profiled = atdca::run(
        &Engine::new(platform.clone()).with_profiling(true),
        &s.cube,
        &p,
        &o,
    );
    let plain = atdca::run(&Engine::new(platform), &s.cube, &p, &o);
    assert!(profiled.report.profile.is_some());
    assert!(plain.report.profile.is_none());
    assert_eq!(coords(&profiled.result), coords(&plain.result));
    let mut stripped = profiled.report;
    stripped.profile = None;
    assert_eq!(
        stripped, plain.report,
        "profiling must not change the timing report"
    );
}

/// The Chrome-trace exporter produces a well-formed JSON event array
/// whose spans cover the phases the profile accounts for.
#[test]
fn chrome_trace_export_covers_profiled_runs() {
    let engine = Engine::new(presets::fully_heterogeneous()).with_profiling(true);
    let (report, trace) = engine.run_traced(|ctx: &mut Ctx<u64>| {
        ctx.compute_par(0.5 * (ctx.rank() as f64 + 1.0));
        if ctx.is_root() {
            for src in 1..ctx.num_ranks() {
                let got = ctx.recv(src);
                assert_eq!(got, src as u64);
            }
        } else {
            let rank = ctx.rank() as u64;
            ctx.send(0, rank);
        }
    });
    assert_profile_exact(&report);
    let json = chrome_trace(&trace);
    assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    for needle in ["\"ph\":\"X\"", "compute_par", "send", "recv"] {
        assert!(json.contains(needle), "chrome trace missing {needle}");
    }
}
