use hetero_hsi::config::AlgoParams;
use hetero_hsi::ft::{run_replan, run_self_sched, FtOptions, FtRun};
use hetero_hsi::sched::{AtdcaChunks, ChunkedAlgo, MorphChunks};
use hetero_hsi::seq::DetectedTarget;
use hetero_hsi::OutputDigest;
use hsi_cube::synth::SyntheticScene;
use simnet::engine::Engine;
use simnet::{CollAlgorithm, CollectiveConfig, FaultPlan};
use std::io::{self, Write};

use super::Record;
use crate::microjson::{object, Json};
use crate::{print_table, write_csv};

/// Full-fidelity output digest: coordinates *and* spectra, so a lost or
/// substituted contribution cannot hide behind a matching pixel count.
fn digest(targets: &[DetectedTarget]) -> Vec<(usize, usize, Vec<f32>)> {
    targets
        .iter()
        .map(|t| (t.line, t.sample, t.spectrum.clone()))
        .collect()
}

/// `algo` under one fault-tolerant driver on `fully_heterogeneous()`.
fn drive<A>(algo: &A, plan: FaultPlan, opts: &FtOptions, self_sched: bool) -> FtRun<A::Output>
where
    A: ChunkedAlgo + Sync,
    A::Output: Send,
{
    let engine = Engine::new(simnet::presets::fully_heterogeneous()).with_faults(plan);
    if self_sched {
        run_self_sched(&engine, algo, opts)
    } else {
        run_replan(&engine, algo, opts)
    }
}

fn tree_opts() -> FtOptions {
    FtOptions {
        collectives: CollectiveConfig::uniform(CollAlgorithm::SegmentHierarchical),
        ..FtOptions::default()
    }
}

/// **Ablation A8** — epoch-stamped membership for the ft tree
/// collectives → `BENCH_epochs.json`.
///
/// The fault-tolerant drivers can ship each round's state down an
/// epoch-stamped survivor tree ([`FtOptions::collectives`](hetero_hsi::ft::FtOptions::collectives)) instead of
/// the linear master fan-out. Two deterministic gates, always enforced:
///
/// 1. **Zero surviving-contribution loss** — under every swept crash
///    plan (interior relays and a leaf, barrier-phase through
///    late-round times, single and double losses), the fixed-grid
///    self-scheduling driver on the survivor tree produces a target
///    list bit-identical to its fault-free run (spectra included), the
///    re-planning driver matches its own fault-free output, and every
///    observed loss bumps the membership epoch exactly once.
/// 2. **Tree beats linear** — where the round state is worth spreading
///    (MORPH's class set, the largest delta of the four algorithms), the
///    tree-mode drivers complete strictly faster than the linear fan-out
///    on `fully_heterogeneous()`, with bit-identical outputs, both
///    fault-free and under a mid-run relay crash. (ATDCA's delta is one
///    row of `U`: there the tree's header and ack barrier cost more than
///    the fan-out they spread — see EXPERIMENTS.md A8.)
///
/// The binary runs it on a quarter-size scene ([`crate::quarter`]):
/// timing ratios and output identity are scale-free.
///
/// ```text
/// cargo run -p repro-bench --release --bin ablation_epochs
/// ```
pub fn epochs(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<Record> {
    let params = AlgoParams::default();
    let algo = AtdcaChunks::new(&scene.cube, &params);

    let run =
        |plan: FaultPlan, opts: &FtOptions, self_sched: bool| drive(&algo, plan, opts, self_sched);

    eprintln!("# fault-free baselines (tree, both drivers)");
    let base_tree_ss = run(FaultPlan::new(), &tree_opts(), true);
    let base_tree_rp = run(FaultPlan::new(), &tree_opts(), false);
    let d_tree_ss = digest(&base_tree_ss.output);
    let d_tree_rp = digest(&base_tree_rp.output);
    let t0 = base_tree_ss.report.total_time;
    eprintln!(
        "# T0 tree: ss {:.3}s rp {:.3}s",
        t0, base_tree_rp.report.total_time,
    );

    // Surface the dominant critical-path contributor of the fault-free
    // tree run (observability only — never gated here).
    {
        let engine = Engine::new(simnet::presets::fully_heterogeneous()).with_profiling(true);
        let profiled = run_self_sched(&engine, &algo, &tree_opts());
        if let Some(p) = &profiled.report.profile {
            eprintln!("# tree self-sched {}", p.bottleneck_line());
        }
    }

    // --- Gate 1: survivor contributions survive every crash plan. ----
    // Ranks 4, 8 and 10 lead segments of `fully_heterogeneous` (interior
    // relays of the segment-hierarchical tree); 13 is a leaf. Times are
    // fractions of the fault-free tree run, from barrier-phase (~0) to
    // late-round, plus a double loss of two relays.
    let plans: Vec<(String, FaultPlan)> = vec![
        ("relay 4 @ barrier".into(), FaultPlan::new().crash(4, 1e-4)),
        (
            "relay 4 @ 0.25 T0".into(),
            FaultPlan::new().crash(4, 0.25 * t0),
        ),
        (
            "relay 8 @ 0.50 T0".into(),
            FaultPlan::new().crash(8, 0.50 * t0),
        ),
        (
            "relay 10 @ 0.75 T0".into(),
            FaultPlan::new().crash(10, 0.75 * t0),
        ),
        (
            "leaf 13 @ 0.40 T0".into(),
            FaultPlan::new().crash(13, 0.40 * t0),
        ),
        (
            "relays 4+10 @ 0.20/0.55 T0".into(),
            FaultPlan::new().crash(4, 0.20 * t0).crash(10, 0.55 * t0),
        ),
    ];
    let mut gate_no_loss = true;
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut sweep_json = Vec::new();
    for (label, plan) in &plans {
        let ss = run(plan.clone(), &tree_opts(), true);
        let rp = run(plan.clone(), &tree_opts(), false);
        let ss_ok = digest(&ss.output) == d_tree_ss;
        let rp_ok = digest(&rp.output) == d_tree_rp;
        let epochs_ok = ss.report.epochs.len() == ss.recoveries.len()
            && rp.report.epochs.len() == rp.recoveries.len();
        // Replays are bit-identical, reports included.
        let ss2 = run(plan.clone(), &tree_opts(), true);
        let replay_ok = ss.report == ss2.report && digest(&ss2.output) == digest(&ss.output);
        let ok = ss_ok && rp_ok && epochs_ok && replay_ok;
        gate_no_loss &= ok;
        rows.push(vec![
            label.clone(),
            format!("{}", ss.recoveries.len()),
            format!("{}", ss.report.epochs.len()),
            format!("{:.3}", ss.report.total_time),
            format!("{:.3}", rp.report.total_time),
            format!("{ok}"),
        ]);
        csv.push(format!(
            "{label},{},{},{:.6},{:.6},{ok}",
            ss.recoveries.len(),
            ss.report.epochs.len(),
            ss.report.total_time,
            rp.report.total_time,
        ));
        sweep_json.push(object(vec![
            ("plan", Json::String(label.clone())),
            ("recoveries", Json::Number(ss.recoveries.len() as f64)),
            ("epoch_bumps", Json::Number(ss.report.epochs.len() as f64)),
            ("selfsched_secs", Json::Number(ss.report.total_time)),
            ("replan_secs", Json::Number(rp.report.total_time)),
            ("selfsched_output_identical", Json::Bool(ss_ok)),
            ("replan_output_identical", Json::Bool(rp_ok)),
            ("replay_identical", Json::Bool(replay_ok)),
        ]));
        if !ok {
            eprintln!("# LOSS under plan '{label}': ss {ss_ok} rp {rp_ok} epochs {epochs_ok} replay {replay_ok}");
        }
    }
    print_table(
        out,
        "Ablation A8: epoch-stamped tree ft under crash plans (ATDCA)",
        &[
            "Plan",
            "Losses",
            "Epochs",
            "SelfSched s",
            "Replan s",
            "Intact",
        ],
        &rows,
    )?;
    write_csv(
        "ablation_epochs.csv",
        "plan,recoveries,epoch_bumps,t_selfsched,t_replan,intact",
        &csv,
    );

    // --- Gate 2: tree mode strictly beats the linear fan-out. --------
    let morph = MorphChunks::new(&scene.cube, &params);
    let morph_run = |plan: FaultPlan, opts: &FtOptions, self_sched: bool| {
        let run = drive(&morph, plan, opts, self_sched);
        (run.report.total_time, run.output.digest64())
    };
    let (tree_ss, tree_ss_out) = morph_run(FaultPlan::new(), &tree_opts(), true);
    let (lin_ss, lin_ss_out) = morph_run(FaultPlan::new(), &FtOptions::default(), true);
    let (tree_rp, tree_rp_out) = morph_run(FaultPlan::new(), &tree_opts(), false);
    let (lin_rp, lin_rp_out) = morph_run(FaultPlan::new(), &FtOptions::default(), false);
    let same_outputs = tree_ss_out == lin_ss_out && tree_rp_out == lin_rp_out;
    let faultfree_win = tree_ss < lin_ss && tree_rp < lin_rp;
    let crash_plan = || FaultPlan::new().crash(4, 0.25 * tree_ss);
    let (crash_tree_rp, _) = morph_run(crash_plan(), &tree_opts(), false);
    let (crash_lin_rp, _) = morph_run(crash_plan(), &FtOptions::default(), false);
    let crash_win = crash_tree_rp < crash_lin_rp;
    let gate_tree_wins = faultfree_win && crash_win && same_outputs;
    eprintln!(
        "# gate 1 (zero surviving-contribution loss across {} plans): {}",
        plans.len(),
        if gate_no_loss { "PASS" } else { "FAIL" }
    );
    eprintln!(
        "# gate 2 (MORPH tree < linear, identical outputs): {} (ss {:.3} vs {:.3}, rp {:.3} vs {:.3}, crashed rp {:.3} vs {:.3})",
        if gate_tree_wins { "PASS" } else { "FAIL" },
        tree_ss,
        lin_ss,
        tree_rp,
        lin_rp,
        crash_tree_rp,
        crash_lin_rp,
    );

    let all_passed = gate_no_loss && gate_tree_wins;
    let payload = vec![
        ("sweep", Json::Array(sweep_json)),
        (
            "tree_vs_linear",
            object(vec![
                ("algorithm", Json::String(morph.name().into())),
                ("tree_selfsched_secs", Json::Number(tree_ss)),
                ("linear_selfsched_secs", Json::Number(lin_ss)),
                ("tree_replan_secs", Json::Number(tree_rp)),
                ("linear_replan_secs", Json::Number(lin_rp)),
                ("crashed_tree_replan_secs", Json::Number(crash_tree_rp)),
                ("crashed_linear_replan_secs", Json::Number(crash_lin_rp)),
                ("outputs_identical", Json::Bool(same_outputs)),
            ]),
        ),
    ];
    Ok(Record::new(
        "BENCH_epochs.json",
        payload,
        vec![
            ("no_contribution_loss", Json::Bool(gate_no_loss)),
            ("tree_beats_linear", Json::Bool(gate_tree_wins)),
        ],
        all_passed,
    ))
}
