//! Accelerator offload acceptance suite.
//!
//! Contract of `simnet::accel` + `hetero::offload`:
//!
//! 1. device execution is **bit-identical** to host execution — the
//!    same kernels run in the same order under every [`OffloadPolicy`];
//!    only time accounting differs, so fixed-grid runs produce equal
//!    outputs across `Never`/`Always`/`Auto`;
//! 2. the engine charges an offload exactly `DeviceSpec::offload_secs`
//!    (launch + transfers + device compute), bit for bit, and
//!    accumulates it in the rank's `RunReport::offloads` entry;
//! 3. `Auto` is never slower than `Never` on the tested configurations
//!    and strictly faster on a GPU-bearing preset;
//! 4. reruns are deterministic, including the per-rank
//!    `RunReport::offloads` telemetry;
//! 5. a mid-run crash of a device-bearing rank degrades structurally
//!    under both fault-tolerant drivers.

use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::ft::{run_replan, run_self_sched};
use heterospec::hetero::par::{atdca, morph, pct, ufcls};
use heterospec::hetero::sched::{AtdcaChunks, MorphChunks, PctChunks, UfclsChunks};
use heterospec::hetero::{seq, OffloadPolicy};
use heterospec::simnet::engine::Engine;
use heterospec::simnet::{presets, Ctx, FailureCause, FaultPlan};

use testutil::{coords, ft_opts, tiny_scene as scene, POLICIES};

fn params() -> AlgoParams {
    testutil::params(5, 2)
}

/// The engine charges an offload the closed form `offload_secs` itself,
/// bit for bit, on every device of the heterogeneous accel preset.
#[test]
fn the_engine_charges_offload_secs_exactly() {
    let engine = Engine::new(presets::accel_heterogeneous());
    let mflops = 12.5;
    let (h2d, d2h) = (3_000_000u64, 40_000u64);
    let report = engine.run(|ctx: &mut Ctx<()>| {
        let spec = ctx.device().copied();
        spec.map(|spec| {
            let before = ctx.elapsed();
            ctx.offload(mflops, h2d, d2h);
            (before, ctx.elapsed(), spec.offload_secs(mflops, h2d, d2h))
        })
    });
    let mut devices = 0;
    for (rank, r) in report.results.iter().enumerate() {
        if let Some((before, after, closed_form)) = r.as_ref().expect("rank completed") {
            assert_eq!(
                *after,
                before + closed_form,
                "rank {rank}: the charged span is not offload_secs"
            );
            devices += 1;
            let stats = &report.offloads[rank];
            assert_eq!(stats.launches, 1);
            assert_eq!(stats.bytes_h2d, h2d);
            assert_eq!(stats.bytes_d2h, d2h);
            assert!(stats.device_ms > 0.0);
        } else {
            assert!(report.offloads[rank].is_empty());
        }
    }
    // 7 GPU Athlons + 1 FPGA Pentium carry devices on this preset.
    assert_eq!(devices, 8);
}

/// Bit-identity across policies on the fixed self-scheduling grid, for
/// all four algorithms on both accel presets: device execution changes
/// *when* things complete, never *what* is computed.
#[test]
fn device_output_is_bit_identical_to_host_across_algorithms() {
    let s = scene();
    let p = params();
    for platform in [
        presets::accel_heterogeneous(),
        presets::accel_thunderhead(6),
    ] {
        // ATDCA / UFCLS (grid-independent argmax algorithms).
        let atdca_runs: Vec<_> = POLICIES
            .iter()
            .map(|&pol| {
                run_self_sched(
                    &Engine::new(platform.clone()),
                    &AtdcaChunks::new(&s.cube, &p),
                    &ft_opts(pol),
                )
            })
            .collect();
        let ufcls_runs: Vec<_> = POLICIES
            .iter()
            .map(|&pol| {
                run_self_sched(
                    &Engine::new(platform.clone()),
                    &UfclsChunks::new(&s.cube, &p),
                    &ft_opts(pol),
                )
            })
            .collect();
        for r in &atdca_runs[1..] {
            assert_eq!(
                coords(&r.output),
                coords(&atdca_runs[0].output),
                "ATDCA output depends on offload policy on {}",
                platform.name()
            );
        }
        for r in &ufcls_runs[1..] {
            assert_eq!(coords(&r.output), coords(&ufcls_runs[0].output));
        }
        // PCT / MORPH (grid-dependent — the fixed grid pins them).
        let pct_runs: Vec<_> = POLICIES
            .iter()
            .map(|&pol| {
                run_self_sched(
                    &Engine::new(platform.clone()),
                    &PctChunks::new(&s.cube, &p),
                    &ft_opts(pol),
                )
            })
            .collect();
        for r in &pct_runs[1..] {
            assert_eq!(r.output.0.as_slice(), pct_runs[0].output.0.as_slice());
            assert_eq!(r.output.1.mean, pct_runs[0].output.1.mean);
        }
        let morph_runs: Vec<_> = POLICIES
            .iter()
            .map(|&pol| {
                run_self_sched(
                    &Engine::new(platform.clone()),
                    &MorphChunks::new(&s.cube, &p),
                    &ft_opts(pol),
                )
            })
            .collect();
        for r in &morph_runs[1..] {
            assert_eq!(r.output.0.as_slice(), morph_runs[0].output.0.as_slice());
            assert_eq!(r.output.1, morph_runs[0].output.1);
        }
    }
}

/// The partitioned algorithms under `Auto`: ATDCA/UFCLS are partition-
/// independent, so offloading (which resizes WEA partitions through the
/// effective speeds) still reproduces the sequential targets; the
/// grid-dependent classifiers stay well-formed.
#[test]
fn partitioned_algorithms_stay_correct_under_auto() {
    let s = scene();
    let p = params();
    let engine = Engine::new(presets::accel_heterogeneous());
    let auto = RunOptions::hetero().with_offload(OffloadPolicy::Auto);
    let want_atdca = coords(&seq::atdca(&s.cube, &p).result);
    assert_eq!(
        coords(&atdca::run(&engine, &s.cube, &p, &auto).result),
        want_atdca
    );
    let want_ufcls = coords(&seq::ufcls(&s.cube, &p).result);
    assert_eq!(
        coords(&ufcls::run(&engine, &s.cube, &p, &auto).result),
        want_ufcls
    );
    for labels in [
        pct::run(&engine, &s.cube, &p, &auto).result.0,
        morph::run(&engine, &s.cube, &p, &auto).result.0,
    ] {
        assert_eq!(labels.lines(), s.cube.lines());
        for &l in labels.as_slice() {
            assert!((l as usize) < p.num_classes);
        }
    }
}

/// `Auto` never loses to `Never` on the tested configurations, and is
/// strictly faster on the GPU-everywhere preset (where every chunk's
/// device time beats the host by a wide margin).
#[test]
fn auto_is_undominated_and_wins_on_gpu_presets() {
    let s = scene();
    let p = params();
    for platform in [
        presets::accel_heterogeneous(),
        presets::accel_thunderhead(6),
    ] {
        let algo = AtdcaChunks::new(&s.cube, &p);
        let never = run_self_sched(
            &Engine::new(platform.clone()),
            &algo,
            &ft_opts(OffloadPolicy::Never),
        );
        let auto = run_self_sched(
            &Engine::new(platform.clone()),
            &algo,
            &ft_opts(OffloadPolicy::Auto),
        );
        assert!(
            auto.report.total_time <= never.report.total_time,
            "{}: auto {:.4} slower than never {:.4}",
            platform.name(),
            auto.report.total_time,
            never.report.total_time
        );
        let never_rp = run_replan(
            &Engine::new(platform.clone()),
            &algo,
            &ft_opts(OffloadPolicy::Never),
        );
        let auto_rp = run_replan(
            &Engine::new(platform.clone()),
            &algo,
            &ft_opts(OffloadPolicy::Auto),
        );
        assert!(
            auto_rp.report.total_time <= never_rp.report.total_time,
            "{} replan: auto {:.4} slower than never {:.4}",
            platform.name(),
            auto_rp.report.total_time,
            never_rp.report.total_time
        );
    }
    // Strictly faster where every node carries a GPU.
    let platform = presets::accel_thunderhead(6);
    let algo = MorphChunks::new(&s.cube, &p);
    let never = run_self_sched(
        &Engine::new(platform.clone()),
        &algo,
        &ft_opts(OffloadPolicy::Never),
    );
    let auto = run_self_sched(&Engine::new(platform), &algo, &ft_opts(OffloadPolicy::Auto));
    assert!(
        auto.report.total_time < never.report.total_time,
        "auto {:.4} should strictly beat never {:.4} on the GPU cluster",
        auto.report.total_time,
        never.report.total_time
    );
}

/// Offload decisions and telemetry are deterministic: identical reruns
/// produce equal reports (the comparison includes `offloads`), and the
/// telemetry lands where the devices are.
#[test]
fn offload_telemetry_is_deterministic_and_attributed() {
    let s = scene();
    let p = params();
    let auto = RunOptions::hetero().with_offload(OffloadPolicy::Auto);
    let run = || {
        atdca::run(
            &Engine::new(presets::accel_heterogeneous()),
            &s.cube,
            &p,
            &auto,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.report, b.report, "offload rerun drift");
    assert_eq!(coords(&a.result), coords(&b.result));
    assert_eq!(a.report.offloads.len(), 16);
    // p3 (Athlon + GPU) offloads; p2 (Xeon, no device) never does.
    assert!(a.report.offloads[2].launches > 0, "GPU rank never launched");
    assert_eq!(a.report.offloads[1].launches, 0);
    // The platform records each rank's arch and attached device.
    let engine = Engine::new(presets::accel_heterogeneous());
    let device = |r: usize| engine.platform().proc(r).device.map(|d| d.kind.label());
    assert_eq!(device(2), Some("GPU"));
    assert_eq!(device(1), None);
    assert!(engine.platform().proc(1).arch.contains("Xeon"));
    // Under `Never` the same devices stay idle.
    let never = atdca::run(
        &Engine::new(presets::accel_heterogeneous()),
        &s.cube,
        &p,
        &RunOptions::hetero(),
    );
    assert!(never.report.offloads.iter().all(|o| o.launches == 0));
    assert!(
        never.report.offloads[1].host_ms > 0.0,
        "host time untracked"
    );
}

/// A device-bearing rank crashing mid-run degrades structurally under
/// both fault-tolerant drivers: correct output from the survivors, a
/// structured `Crash` record, and bit-identical replays (offload
/// telemetry included).
#[test]
fn device_bearing_rank_crash_degrades_structurally_in_both_drivers() {
    let s = scene();
    let p = params();
    let want = coords(&seq::atdca(&s.cube, &p).result);
    let algo = AtdcaChunks::new(&s.cube, &p);
    // Rank 2 carries the GPU on this preset; crash it mid-round.
    let engine =
        || Engine::new(presets::accel_heterogeneous()).with_faults(FaultPlan::new().crash(2, 0.02));
    for policy in [OffloadPolicy::Always, OffloadPolicy::Auto] {
        let opts = ft_opts(policy);
        let ss = run_self_sched(&engine(), &algo, &opts);
        assert_eq!(coords(&ss.output), want, "{policy:?} self-sched");
        assert!(!ss.recoveries.is_empty());
        assert_eq!(
            ss.report.failure_of(2).expect("crash recorded").cause,
            FailureCause::Crash
        );
        let rp = run_replan(&engine(), &algo, &opts);
        assert_eq!(coords(&rp.output), want, "{policy:?} replan");
        assert!(!rp.recoveries.is_empty());
        let ss2 = run_self_sched(&engine(), &algo, &opts);
        assert_eq!(ss.report, ss2.report, "{policy:?} self-sched rerun drift");
        let rp2 = run_replan(&engine(), &algo, &opts);
        assert_eq!(rp.report, rp2.report, "{policy:?} replan rerun drift");
    }
}
