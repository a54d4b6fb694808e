use super::Record;
use crate::microjson::{object, Json};
use crate::print_table;
use hetero_hsi::config::{AlgoParams, RunOptions};
use hetero_hsi::seq::DetectedTarget;
use hsi_cube::synth::SyntheticScene;
use simnet::engine::{Engine, WireVec};
use simnet::{coll, CollAlgorithm, CollOp, CollectiveConfig, Platform};
use std::io::{self, Write};

/// Tolerance for "Auto is no worse than the best concrete algorithm".
const EPS: f64 = 1e-9;
/// The paper's endmember matrix `U`: 18 targets × 224 bands × f32.
const U_BITS: u64 = 18 * 224 * 32;

/// One swept measurement.
struct SweepRecord {
    op: CollOp,
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
            ("op", Json::String(self.op.to_string())),
            ("network", Json::String(self.network.clone())),
            ("bits", Json::Number(self.bits as f64)),
            ("requested", Json::String(self.requested.to_string())),
            ("resolved", Json::String(self.resolved.to_string())),
            ("predicted_secs", Json::Number(self.predicted)),
            ("measured_secs", Json::Number(self.measured)),
        ])
    }
}

/// Runs one broadcast or gather of `bits` payload under `cfg` and
/// returns `(resolved algorithm, predicted secs, measured secs)`. All
/// rank clocks start at zero, so the report's `total_time` *is* the
/// collective's completion time.
fn run_collective(
    platform: &Platform,
    op: CollOp,
    requested: CollAlgorithm,
    bits: u64,
) -> (CollAlgorithm, f64, f64) {
    let cfg = CollectiveConfig::uniform(requested);
    let engine = Engine::new(platform.clone());
    let bytes = (bits / 8) as usize;
    let report = engine.run(|ctx| match op {
        CollOp::Broadcast => {
            let msg = if ctx.is_root() {
                Some(WireVec(vec![0u8; bytes]))
            } else {
                None
            };
            let out = coll::broadcast(ctx, &cfg, 0, msg, bits).expect("valid broadcast");
            out.0.len()
        }
        CollOp::Gather => {
            let entries = coll::gather(ctx, &cfg, 0, WireVec(vec![0u8; bytes]), bits);
            entries.expect("valid gather").map_or(0, |e| e.len())
        }
        other => unreachable!("sweep only covers broadcast/gather, got {other}"),
    });
    let choice = report
        .collectives
        .first()
        .expect("collective choice recorded");
    (choice.algorithm, choice.predicted_secs, report.total_time)
}

/// Runs all four analysis algorithms under `cfg` on a tiny scene,
/// returning every output.
#[allow(clippy::type_complexity)]
fn algorithm_outputs(
    scene: &SyntheticScene,
    backend: CollAlgorithm,
) -> (
    Vec<DetectedTarget>,
    Vec<DetectedTarget>,
    hsi_cube::LabelImage,
    (hsi_cube::LabelImage, Vec<Vec<f32>>),
) {
    let params = AlgoParams {
        num_targets: 6,
        morph_iterations: 2,
        ..Default::default()
    };
    let options = RunOptions::hetero().with_collectives(CollectiveConfig::uniform(backend));
    let engine = Engine::new(simnet::presets::fully_heterogeneous());
    let atdca = hetero_hsi::par::atdca::run(&engine, &scene.cube, &params, &options);
    let ufcls = hetero_hsi::par::ufcls::run(&engine, &scene.cube, &params, &options);
    let pct = hetero_hsi::par::pct::run(&engine, &scene.cube, &params, &options);
    let morph = hetero_hsi::par::morph::run(&engine, &scene.cube, &params, &options);
    (atdca.result, ufcls.result, pct.result.0, morph.result)
}

/// **Ablation A6** — collective algorithm selection → `BENCH_collectives.json`.
///
/// Sweeps the `simnet::coll` schedules (linear, binomial tree,
/// segment-hierarchical, pipelined-chunked, auto) over the paper's four
/// networks and a range of message sizes, comparing each algorithm's
/// *measured* virtual completion time against the cost model's
/// *prediction* (they agree exactly for healthy rank-0-rooted runs —
/// that equality is what makes `Auto` trustworthy). Three gates, all
/// deterministic and always enforced:
///
/// 1. **Topology win** — segment-hierarchical broadcast strictly beats
///    linear on `fully_heterogeneous()` for an endmember-matrix-sized
///    (`U`: 18 × 224 × f32) payload.
/// 2. **Auto is undominated** — at every swept (op, network, size)
///    point, `Auto`'s measured time is within ε of the best concrete
///    algorithm's measured time.
/// 3. **Payload identity** — ATDCA/UFCLS/PCT/MORPH produce bit-identical
///    outputs under every collective backend.
///
/// Gate 3 runs on `scene` (`WtcConfig::tiny()` in the binary).
///
/// ```text
/// cargo run -p repro-bench --release --bin ablation_collectives
/// ```
pub fn collectives(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<Record> {
    let networks = simnet::presets::four_networks();
    let bcast_algos = [
        CollAlgorithm::Linear,
        CollAlgorithm::BinomialTree,
        CollAlgorithm::SegmentHierarchical,
        CollAlgorithm::PipelinedChunked,
        CollAlgorithm::Auto,
    ];
    let gather_algos = [
        CollAlgorithm::Linear,
        CollAlgorithm::BinomialTree,
        CollAlgorithm::SegmentHierarchical,
        CollAlgorithm::Auto,
    ];
    // One 224-band f32 spectrum, the U matrix, and two bulkier payloads.
    let bcast_sizes: [u64; 4] = [224 * 32, U_BITS, 2_000_000, 16_777_216];
    let gather_sizes: [u64; 3] = [224 * 32, U_BITS, 2_000_000];

    let mut records: Vec<SweepRecord> = Vec::new();
    let mut model_exact = true;
    let mut sweep = |op: CollOp, algos: &[CollAlgorithm], sizes: &[u64]| {
        for network in &networks {
            for &bits in sizes {
                for &alg in algos {
                    let (resolved, predicted, measured) = run_collective(network, op, alg, bits);
                    // The cost model is an exact replay for healthy
                    // rank-0-rooted collectives (see simnet::coll::cost).
                    if (predicted - measured).abs() > 1e-6 {
                        eprintln!(
                            "# MODEL DRIFT: {op} {alg} on {} at {bits} bits: \
                             predicted {predicted} vs measured {measured}",
                            network.name()
                        );
                        model_exact = false;
                    }
                    records.push(SweepRecord {
                        op,
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
    };
    sweep(CollOp::Broadcast, &bcast_algos, &bcast_sizes);
    sweep(CollOp::Gather, &gather_algos, &gather_sizes);

    // --- Gate 1: topology win at the U payload.
    let find = |op: CollOp, net: &str, bits: u64, alg: CollAlgorithm| {
        records
            .iter()
            .find(|r| r.op == op && r.network == net && r.bits == bits && r.requested == alg)
            .map(|r| r.measured)
            .expect("swept point present")
    };
    let fully_het = networks[0].name().to_string();
    let lin_u = find(CollOp::Broadcast, &fully_het, U_BITS, CollAlgorithm::Linear);
    let hier_u = find(
        CollOp::Broadcast,
        &fully_het,
        U_BITS,
        CollAlgorithm::SegmentHierarchical,
    );
    let gate_topology = hier_u < lin_u;

    // --- Gate 2: Auto undominated at every swept point.
    let mut gate_auto = true;
    for net in networks.iter().map(|n| n.name().to_string()) {
        for (op, sizes) in [
            (CollOp::Broadcast, &bcast_sizes[..]),
            (CollOp::Gather, &gather_sizes[..]),
        ] {
            for &bits in sizes {
                let auto = find(op, &net, bits, CollAlgorithm::Auto);
                let best = records
                    .iter()
                    .filter(|r| {
                        r.op == op
                            && r.network == net
                            && r.bits == bits
                            && r.requested != CollAlgorithm::Auto
                    })
                    .map(|r| r.measured)
                    .fold(f64::INFINITY, f64::min);
                if auto > best + EPS {
                    eprintln!(
                        "# AUTO DOMINATED: {op} on {net} at {bits} bits: auto {auto} > best {best}"
                    );
                    gate_auto = false;
                }
            }
        }
    }

    // --- Gate 3: payload identity across backends.
    eprintln!("# verifying algorithm outputs across collective backends");
    let baseline = algorithm_outputs(scene, CollAlgorithm::Linear);
    let mut gate_identity = true;
    let mut identity_rows = Vec::new();
    for &backend in &bcast_algos[1..] {
        let same = algorithm_outputs(scene, backend) == baseline;
        if !same {
            eprintln!("# OUTPUT DRIFT under backend {backend}");
            gate_identity = false;
        }
        identity_rows.push((backend, same));
    }

    // --- Report.
    let mut rows = Vec::new();
    for r in &records {
        rows.push(vec![
            r.op.to_string(),
            r.network.clone(),
            format!("{}", r.bits),
            r.requested.to_string(),
            r.resolved.to_string(),
            format!("{:.6}", r.predicted),
            format!("{:.6}", r.measured),
        ]);
    }
    print_table(
        out,
        "Ablation A6: collective algorithms — predicted vs measured virtual seconds",
        &[
            "Op",
            "Network",
            "Bits",
            "Requested",
            "Resolved",
            "Predicted",
            "Measured",
        ],
        &rows,
    )?;
    eprintln!(
        "# gate 1 (seg-hierarchical < linear bcast at U on {fully_het}): {} ({hier_u:.6} vs {lin_u:.6})",
        if gate_topology { "PASS" } else { "FAIL" }
    );
    eprintln!(
        "# gate 2 (auto undominated across {} points): {}",
        records.len(),
        if gate_auto { "PASS" } else { "FAIL" }
    );
    eprintln!(
        "# gate 3 (outputs bit-identical across backends): {}",
        if gate_identity { "PASS" } else { "FAIL" }
    );

    let all_passed = gate_topology && gate_auto && gate_identity && model_exact;
    Ok(Record::new(
        "BENCH_collectives.json",
        vec![
            (
                "sweep",
                Json::Array(records.iter().map(SweepRecord::to_json).collect()),
            ),
            (
                "identity",
                Json::Array(
                    identity_rows
                        .iter()
                        .map(|(backend, same)| {
                            object(vec![
                                ("backend", Json::String(backend.to_string())),
                                ("identical_to_linear", Json::Bool(*same)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ],
        vec![
            ("hier_beats_linear_bcast_u", Json::Bool(gate_topology)),
            ("auto_undominated", Json::Bool(gate_auto)),
            ("outputs_identical", Json::Bool(gate_identity)),
            ("model_exact", Json::Bool(model_exact)),
        ],
        all_passed,
    ))
}
