use super::Record;
use crate::microjson::{object, Json};
use crate::{print_table, write_csv};
use hetero_hsi::config::{AlgoParams, RunOptions};
use hsi_cube::synth::SyntheticScene;
use simnet::engine::{Engine, WireVec};
use simnet::{coll, CollAlgorithm, CollectiveConfig, Platform};
use std::io::{self, Write};

/// A gathered ATDCA/UFCLS candidate: 128 header bits + 224 f32 bands.
const CAND_BITS: u64 = 128 + 224 * 32;
/// A bulkier payload (a 126-element f32 row block per rank).
const BULK_BITS: u64 = 129_024;

struct SweepRecord {
    network: String,
    bits: u64,
    requested: CollAlgorithm,
    resolved: CollAlgorithm,
    predicted: f64,
    measured: f64,
}

impl SweepRecord {
    fn to_json(&self) -> Json {
        object(vec![
            ("op", Json::String("allreduce".into())),
            ("network", Json::String(self.network.clone())),
            ("bits", Json::Number(self.bits as f64)),
            ("requested", Json::String(self.requested.to_string())),
            ("resolved", Json::String(self.resolved.to_string())),
            ("predicted_secs", Json::Number(self.predicted)),
            ("measured_secs", Json::Number(self.measured)),
        ])
    }
}

/// One isolated allreduce of `bits` payload; all rank clocks start at
/// zero, so `total_time` is the collective's completion time.
fn run_allreduce(
    platform: &Platform,
    requested: CollAlgorithm,
    bits: u64,
) -> (CollAlgorithm, f64, f64) {
    let cfg = CollectiveConfig {
        allreduce: requested,
        ..CollectiveConfig::linear()
    };
    let bytes = (bits / 8) as usize;
    let report = Engine::new(platform.clone()).run(|ctx| {
        let own = vec![ctx.rank() as u8; bytes];
        coll::allreduce(
            ctx,
            &cfg,
            0,
            WireVec(own),
            |a, b| {
                WireVec(
                    a.0.iter()
                        .zip(&b.0)
                        .map(|(x, y)| x.wrapping_add(*y))
                        .collect(),
                )
            },
            bits,
        )
        .0
        .len()
    });
    let choice = report
        .collectives
        .first()
        .expect("collective choice recorded");
    (choice.algorithm, choice.predicted_secs, report.total_time)
}

/// The legacy split the fused schedule replaces: a linear gather of one
/// candidate per rank followed by a linear broadcast of the winner.
fn run_split_baseline(platform: &Platform, bits: u64) -> f64 {
    let cfg = CollectiveConfig::linear();
    let bytes = (bits / 8) as usize;
    Engine::new(platform.clone())
        .run(|ctx| {
            let winner = coll::gather(ctx, &cfg, 0, WireVec(vec![ctx.rank() as u8; bytes]), bits)
                .map(|entries| {
                    entries
                        .into_iter()
                        .filter_map(coll::GatherEntry::into_msg)
                        .next()
                        .expect("root contribution")
                });
            coll::broadcast(ctx, &cfg, 0, winner, bits)
                .expect("valid broadcast")
                .0
                .len()
        })
        .total_time
}

/// ATDCA + UFCLS targets and total times under one option set.
#[allow(clippy::type_complexity)]
fn detection_outputs(
    scene: &SyntheticScene,
    platform: &Platform,
    options: &RunOptions,
) -> (
    Vec<(usize, usize, Vec<f32>)>,
    f64,
    Vec<(usize, usize, Vec<f32>)>,
    f64,
) {
    let params = AlgoParams {
        num_targets: 6,
        ..Default::default()
    };
    let engine = Engine::new(platform.clone());
    let digest = |ts: &[hetero_hsi::seq::DetectedTarget]| {
        ts.iter()
            .map(|t| (t.line, t.sample, t.spectrum.clone()))
            .collect::<Vec<_>>()
    };
    let atdca = hetero_hsi::par::atdca::run(&engine, &scene.cube, &params, options);
    let ufcls = hetero_hsi::par::ufcls::run(&engine, &scene.cube, &params, options);
    (
        digest(&atdca.result),
        atdca.report.total_time,
        digest(&ufcls.result),
        ufcls.report.total_time,
    )
}

/// **Ablation A7** — fused allreduce → `BENCH_allreduce.json`.
///
/// Sweeps the fused `simnet::coll::allreduce` schedules (linear,
/// binomial tree, segment-hierarchical, auto) over the paper's four
/// networks and two payload sizes, checking the analytic cost replay
/// against the measured virtual time at every point. Three gates, all
/// deterministic and always enforced:
///
/// 1. **Fusion win (collective)** — the auto-selected allreduce is
///    strictly cheaper than the legacy split (linear gather + linear
///    broadcast) on `fully_heterogeneous()` at the candidate payload.
/// 2. **Fusion win (end-to-end)** — UFCLS under the fused winner
///    selection is strictly faster than the legacy run on
///    `fully_heterogeneous()`, with bit-identical targets.
/// 3. **Model exactness** — predicted equals measured (< 1e-6) at every
///    swept allreduce point.
///
/// Gate 2 runs on `scene` (`WtcConfig::tiny()` in the binary).
///
/// ```text
/// cargo run -p repro-bench --release --bin ablation_allreduce
/// ```
pub fn allreduce(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<Record> {
    let networks = simnet::presets::four_networks();
    let algos = [
        CollAlgorithm::Linear,
        CollAlgorithm::BinomialTree,
        CollAlgorithm::SegmentHierarchical,
        CollAlgorithm::Auto,
    ];
    let sizes: [u64; 2] = [CAND_BITS, BULK_BITS];

    // --- Sweep + gate 3 (model exactness).
    let mut records: Vec<SweepRecord> = Vec::new();
    let mut model_exact = true;
    for network in &networks {
        for &bits in &sizes {
            for &alg in &algos {
                let (resolved, predicted, measured) = run_allreduce(network, alg, bits);
                if (predicted - measured).abs() > 1e-6 {
                    eprintln!(
                        "# MODEL DRIFT: allreduce {alg} on {} at {bits} bits: \
                         predicted {predicted} vs measured {measured}",
                        network.name()
                    );
                    model_exact = false;
                }
                records.push(SweepRecord {
                    network: network.name().to_string(),
                    bits,
                    requested: alg,
                    resolved,
                    predicted,
                    measured,
                });
            }
        }
    }

    // --- Gate 1: fused collective beats the split baseline.
    let fully_het = &networks[0];
    let (_, _, fused_cand) = run_allreduce(fully_het, CollAlgorithm::Auto, CAND_BITS);
    let split_cand = run_split_baseline(fully_het, CAND_BITS);
    let gate_collective = fused_cand < split_cand;

    // --- Gate 2: fused UFCLS end-to-end win with identical targets.
    let legacy_opts = RunOptions::hetero();
    let fused_opts = RunOptions::hetero().with_collectives(CollectiveConfig {
        allreduce: CollAlgorithm::Auto,
        ..CollectiveConfig::linear()
    });
    let legacy = detection_outputs(scene, fully_het, &legacy_opts);
    let fused = detection_outputs(scene, fully_het, &fused_opts);
    let gate_fused_e2e = fused.3 < legacy.3 && fused.2 == legacy.2 && fused.0 == legacy.0;
    if !gate_fused_e2e {
        eprintln!(
            "# FUSED E2E: ufcls {} vs legacy {}, outputs identical: {}",
            fused.3,
            legacy.3,
            fused.2 == legacy.2 && fused.0 == legacy.0
        );
    }

    // --- Report.
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for r in &records {
        rows.push(vec![
            r.network.clone(),
            format!("{}", r.bits),
            r.requested.to_string(),
            r.resolved.to_string(),
            format!("{:.6}", r.predicted),
            format!("{:.6}", r.measured),
        ]);
        csv.push(format!(
            "{},{},{},{},{:.9},{:.9}",
            r.network, r.bits, r.requested, r.resolved, r.predicted, r.measured
        ));
    }
    print_table(
        out,
        "Ablation A7: fused allreduce — predicted vs measured virtual seconds",
        &[
            "Network",
            "Bits",
            "Requested",
            "Resolved",
            "Predicted",
            "Measured",
        ],
        &rows,
    )?;
    write_csv(
        "ablation_allreduce.csv",
        "network,bits,requested,resolved,predicted_secs,measured_secs",
        &csv,
    );
    eprintln!(
        "# gate 1 (fused allreduce < gather+bcast at candidate bits on {}): {} ({fused_cand:.6} vs {split_cand:.6})",
        fully_het.name(),
        if gate_collective { "PASS" } else { "FAIL" }
    );
    eprintln!(
        "# gate 2 (fused UFCLS end-to-end win, identical targets): {} ({:.6} vs {:.6})",
        if gate_fused_e2e { "PASS" } else { "FAIL" },
        fused.3,
        legacy.3
    );
    eprintln!(
        "# gate 3 (model exact across {} points): {}",
        records.len(),
        if model_exact { "PASS" } else { "FAIL" }
    );

    let all_passed = gate_collective && gate_fused_e2e && model_exact;
    let payload = vec![
        (
            "sweep",
            Json::Array(records.iter().map(SweepRecord::to_json).collect()),
        ),
        (
            "fusion",
            object(vec![
                ("fused_auto_secs", Json::Number(fused_cand)),
                ("split_linear_secs", Json::Number(split_cand)),
                ("ufcls_fused_secs", Json::Number(fused.3)),
                ("ufcls_legacy_secs", Json::Number(legacy.3)),
            ]),
        ),
    ];
    Ok(Record::new(
        "BENCH_allreduce.json",
        payload,
        vec![
            ("fused_beats_split_collective", Json::Bool(gate_collective)),
            ("fused_ufcls_end_to_end", Json::Bool(gate_fused_e2e)),
            ("model_exact", Json::Bool(model_exact)),
        ],
        all_passed,
    ))
}
