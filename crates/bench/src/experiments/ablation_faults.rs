use hetero_hsi::config::AlgoParams;
use hetero_hsi::ft::{run_replan, run_self_sched, FtOptions, FtRun};
use hetero_hsi::sched::AtdcaChunks;
use hsi_cube::synth::SyntheticScene;
use simnet::engine::Engine;
use simnet::FaultPlan;
use std::io::{self, Write};

use crate::{print_table, write_csv};

/// **Ablation A5** — recovery overhead of the two fault-tolerance
/// modes under deterministic crash plans.
///
/// A fault-free run of each mode fixes its baseline completion time
/// `T₀`; the sweep then crashes one or two workers at a fraction of
/// `T₀` and reports the relative completion-time overhead
/// `(T − T₀)/T₀`. Static WEA with re-planning restarts the lost
/// worker's whole outstanding batch on the survivors, so its overhead
/// grows with how much of the partition the crash orphans; chunked
/// self-scheduling re-queues at most one in-flight chunk, so a crash
/// costs it detection latency, one chunk, and the lost worker's share
/// of the remaining work.
///
/// The binary runs it on a quarter-size scene ([`crate::quarter`]):
/// overhead ratios are scale-free.
///
/// ```text
/// cargo run -p repro-bench --release --bin ablation_faults
/// ```
pub fn ablation_faults(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<()> {
    let params = AlgoParams::default();
    let algo = AtdcaChunks::new(&scene.cube, &params);
    let opts = FtOptions::default();
    let platform = || simnet::presets::fully_heterogeneous();

    let run = |plan: FaultPlan, self_sched: bool| -> FtRun<_> {
        let engine = Engine::new(platform()).with_faults(plan);
        if self_sched {
            run_self_sched(&engine, &algo, &opts)
        } else {
            run_replan(&engine, &algo, &opts)
        }
    };

    eprintln!("# fault-free baselines");
    let t0_replan = run(FaultPlan::new(), false).report.total_time;
    let t0_ss = run(FaultPlan::new(), true).report.total_time;
    eprintln!("# T0 replan {t0_replan:.3}s, T0 self-sched {t0_ss:.3}s");

    // Crash the WEA-favoured fast node first; a second loss takes a
    // mid-speed node in the other segment.
    let crash_ranks = [2usize, 9];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &frac in &[0.25f64, 0.5, 0.75] {
        for count in [1usize, 2] {
            let plan_for = |t0: f64| {
                let mut plan = FaultPlan::new();
                for &r in &crash_ranks[..count] {
                    plan = plan.crash(r, frac * t0);
                }
                plan
            };
            eprintln!("# crash at {frac} x T0, {count} worker(s)");
            let rp = run(plan_for(t0_replan), false);
            let ss = run(plan_for(t0_ss), true);
            let ovh_rp = 100.0 * (rp.report.total_time - t0_replan) / t0_replan;
            let ovh_ss = 100.0 * (ss.report.total_time - t0_ss) / t0_ss;
            rows.push(vec![
                format!("{frac:.2}"),
                format!("{count}"),
                format!("{:.2}", rp.report.total_time),
                format!("{ovh_rp:+.1}%"),
                format!("{:.2}", ss.report.total_time),
                format!("{ovh_ss:+.1}%"),
                format!("{}", rp.recoveries.len()),
                format!("{}", ss.recoveries.len()),
            ]);
            csv.push(format!(
                "{frac},{count},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
                t0_replan, rp.report.total_time, ovh_rp, t0_ss, ss.report.total_time, ovh_ss,
            ));
        }
    }
    print_table(
        out,
        &format!(
            "Ablation A5: ATDCA completion time (s) under worker crashes \
             (T0: replan {t0_replan:.2}s, self-sched {t0_ss:.2}s)"
        ),
        &[
            "Crash@xT0",
            "Crashes",
            "Replan",
            "ovh",
            "SelfSched",
            "ovh",
            "rec(rp)",
            "rec(ss)",
        ],
        &rows,
    )?;
    write_csv(
        "ablation_faults.csv",
        "crash_frac,crash_count,t0_replan,t_replan,ovh_replan_pct,t0_selfsched,t_selfsched,ovh_selfsched_pct",
        &csv,
    );
    Ok(())
}
