use hetero_hsi::config::AlgoParams;
use hetero_hsi::ft::{run_self_sched, FtOptions};
use hetero_hsi::sched::{AtdcaChunks, ChunkedAlgo, MorphChunks, PctChunks, UfclsChunks};
use hetero_hsi::seq::DetectedTarget;
use hetero_hsi::OffloadPolicy;
use hsi_cube::synth::SyntheticScene;
use simnet::engine::Engine;
use simnet::Platform;
use std::io::{self, Write};

use super::Record;
use crate::microjson::{object, Json};
use crate::{print_table, write_csv, ALGORITHMS};

const POLICIES: [OffloadPolicy; 3] = [
    OffloadPolicy::Never,
    OffloadPolicy::Always,
    OffloadPolicy::Auto,
];

/// Full-fidelity digest of a target list (coordinates and spectra).
fn digest(targets: &[DetectedTarget]) -> Vec<(usize, usize, Vec<f32>)> {
    targets
        .iter()
        .map(|t| (t.line, t.sample, t.spectrum.clone()))
        .collect()
}

/// One (platform, algorithm, policy) measurement.
struct Cell {
    platform: String,
    algorithm: &'static str,
    policy: &'static str,
    total_secs: f64,
    kernel_ms: f64,
    launches: u64,
    bytes_h2d: u64,
}

impl Cell {
    fn to_json(&self) -> Json {
        object(vec![
            ("platform", Json::String(self.platform.clone())),
            ("algorithm", Json::String(self.algorithm.into())),
            ("policy", Json::String(self.policy.into())),
            ("total_secs", Json::Number(self.total_secs)),
            ("kernel_ms", Json::Number(self.kernel_ms)),
            ("launches", Json::Number(self.launches as f64)),
            ("bytes_h2d", Json::Number(self.bytes_h2d as f64)),
        ])
    }
}

/// Runs one algorithm under all three policies on the fixed grid and
/// reports (output-identity across policies, one cell per policy).
fn sweep_cell<A, D, F>(
    platform: &Platform,
    algorithm: &'static str,
    algo: &A,
    dig: F,
) -> (bool, Vec<Cell>)
where
    A: ChunkedAlgo + Sync,
    A::Output: Send,
    D: PartialEq,
    F: Fn(&A::Output) -> D,
{
    let mut cells = Vec::new();
    let mut baseline: Option<D> = None;
    let mut identical = true;
    for policy in POLICIES {
        let opts = FtOptions {
            offload: policy,
            ..FtOptions::default()
        };
        let run = run_self_sched(&Engine::new(platform.clone()), algo, &opts);
        let d = dig(&run.output);
        match &baseline {
            None => baseline = Some(d),
            Some(b) => identical &= &d == b,
        }
        let kernel_ms: f64 = run
            .report
            .offloads
            .iter()
            .map(|o| o.host_ms + o.device_ms)
            .sum();
        cells.push(Cell {
            platform: platform.name().to_string(),
            algorithm,
            policy: policy.label(),
            total_secs: run.report.total_time,
            kernel_ms,
            launches: run.report.offloads.iter().map(|o| o.launches).sum(),
            bytes_h2d: run.report.offloads.iter().map(|o| o.bytes_h2d).sum(),
        });
    }
    (identical, cells)
}

/// A deferred per-algorithm sweep (name, runner).
type AlgoSweep<'a> = (&'static str, Box<dyn Fn() -> (bool, Vec<Cell>) + 'a>);

/// All four algorithms on one platform.
fn sweep_platform(
    platform: &Platform,
    scene: &SyntheticScene,
    params: &AlgoParams,
) -> (bool, Vec<Cell>) {
    let cube = &scene.cube;
    let mut identical = true;
    let mut cells = Vec::new();
    let runs: [AlgoSweep; 4] = [
        ("ATDCA", {
            let a = AtdcaChunks::new(cube, params);
            Box::new(move || sweep_cell(platform, "ATDCA", &a, |o| digest(o)))
        }),
        ("UFCLS", {
            let a = UfclsChunks::new(cube, params);
            Box::new(move || sweep_cell(platform, "UFCLS", &a, |o| digest(o)))
        }),
        ("PCT", {
            let a = PctChunks::new(cube, params);
            Box::new(move || {
                sweep_cell(platform, "PCT", &a, |o| {
                    (o.0.as_slice().to_vec(), o.1.mean.clone())
                })
            })
        }),
        ("MORPH", {
            let a = MorphChunks::new(cube, params);
            Box::new(move || {
                sweep_cell(platform, "MORPH", &a, |o| {
                    (o.0.as_slice().to_vec(), o.1.clone())
                })
            })
        }),
    ];
    for (name, run) in &runs {
        eprintln!("# running {name} on {} (3 policies)", platform.name());
        let (same, mut c) = run();
        identical &= same;
        cells.append(&mut c);
    }
    (identical, cells)
}

/// **Ablation A9** — accelerator offload policies → `BENCH_accel.json`.
///
/// Sweeps the four chunked algorithms over the two accel presets
/// (`accel_heterogeneous`, `accel_thunderhead`) under every
/// [`OffloadPolicy`], on the fixed self-scheduling grid so outputs are
/// comparable bit for bit. Three deterministic gates, always enforced:
///
/// 1. **Auto undominated** — for every (platform, algorithm) cell,
///    `Auto` completes no slower than `Never` *and* no slower than
///    `Always` (the per-chunk cost model never picks the losing side);
/// 2. **Kernel-time win** — on the GPU-everywhere Thunderhead preset,
///    `Auto` spends at least 2× less aggregate kernel time (host +
///    device virtual ms, summed over ranks) than `Never`;
/// 3. **Output identity** — each cell's output digest is identical
///    across `Never`/`Always`/`Auto`: device execution is pure time
///    accounting, never a numeric path.
///
/// The binary runs it on a quarter-size scene ([`crate::quarter`]) to
/// keep the 2 × 4 × 3 sweep quick; the gated quantities are ratios of
/// deterministic virtual times.
///
/// ```text
/// cargo run -p repro-bench --release --bin ablation_accel
/// ```
pub fn accel(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<Record> {
    let params = AlgoParams::default();

    let platforms = [
        simnet::presets::accel_heterogeneous(),
        simnet::presets::accel_thunderhead(16),
    ];
    let mut cells: Vec<Cell> = Vec::new();
    let mut gate_identity = true;
    for platform in &platforms {
        let (same, mut c) = sweep_platform(platform, scene, &params);
        gate_identity &= same;
        cells.append(&mut c);
    }

    // Surface each platform's dominant critical-path contributor under
    // `Auto` (observability only — never gated here).
    let atdca = AtdcaChunks::new(&scene.cube, &params);
    for platform in &platforms {
        let engine = Engine::new(platform.clone()).with_profiling(true);
        let opts = FtOptions {
            offload: OffloadPolicy::Auto,
            ..FtOptions::default()
        };
        let profiled = run_self_sched(&engine, &atdca, &opts);
        if let Some(p) = &profiled.report.profile {
            eprintln!("# {} ATDCA/auto {}", platform.name(), p.bottleneck_line());
        }
    }

    // --- Gate 1: Auto undominated in every cell. ---------------------
    let find = |platform: &str, algorithm: &str, policy: &str| -> &Cell {
        cells
            .iter()
            .find(|c| c.platform == platform && c.algorithm == algorithm && c.policy == policy)
            .expect("cell present")
    };
    let mut gate_undominated = true;
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for platform in &platforms {
        for algorithm in ALGORITHMS {
            let never = find(platform.name(), algorithm, "never");
            let always = find(platform.name(), algorithm, "always");
            let auto = find(platform.name(), algorithm, "auto");
            let undominated =
                auto.total_secs <= never.total_secs && auto.total_secs <= always.total_secs;
            gate_undominated &= undominated;
            rows.push(vec![
                platform.name().to_string(),
                algorithm.to_string(),
                format!("{:.3}", never.total_secs),
                format!("{:.3}", always.total_secs),
                format!("{:.3}", auto.total_secs),
                format!("{}", auto.launches),
                format!("{undominated}"),
            ]);
            csv.push(format!(
                "{},{algorithm},{:.6},{:.6},{:.6},{},{undominated}",
                platform.name(),
                never.total_secs,
                always.total_secs,
                auto.total_secs,
                auto.launches,
            ));
        }
    }
    print_table(
        out,
        "Ablation A9: offload policies on the accel presets (fixed grid)",
        &[
            "Platform",
            "Algo",
            "Never s",
            "Always s",
            "Auto s",
            "Launches",
            "Auto<=both",
        ],
        &rows,
    )?;
    write_csv(
        "ablation_accel.csv",
        "platform,algorithm,t_never,t_always,t_auto,auto_launches,undominated",
        &csv,
    );

    // --- Gate 2: >= 2x aggregate kernel-time win on the GPU cluster. -
    let gpu = platforms[1].name();
    let never_kernel: f64 = ALGORITHMS
        .iter()
        .map(|a| find(gpu, a, "never").kernel_ms)
        .sum();
    let auto_kernel: f64 = ALGORITHMS
        .iter()
        .map(|a| find(gpu, a, "auto").kernel_ms)
        .sum();
    let kernel_ratio = never_kernel / auto_kernel.max(f64::MIN_POSITIVE);
    let gate_kernel_win = kernel_ratio >= 2.0;

    eprintln!(
        "# gate 1 (Auto undominated in all {} cells): {}",
        rows.len(),
        if gate_undominated { "PASS" } else { "FAIL" }
    );
    eprintln!(
        "# gate 2 (>= 2x kernel-time win on {gpu}): {} ({:.1} ms never / {:.1} ms auto = {:.2}x)",
        if gate_kernel_win { "PASS" } else { "FAIL" },
        never_kernel,
        auto_kernel,
        kernel_ratio,
    );
    eprintln!(
        "# gate 3 (outputs bit-identical across policies): {}",
        if gate_identity { "PASS" } else { "FAIL" }
    );

    let all_passed = gate_undominated && gate_kernel_win && gate_identity;
    Ok(Record::new(
        "BENCH_accel.json",
        vec![
            (
                "sweep",
                Json::Array(cells.iter().map(Cell::to_json).collect()),
            ),
            (
                "kernel_time",
                object(vec![
                    ("platform", Json::String(gpu.to_string())),
                    ("never_ms", Json::Number(never_kernel)),
                    ("auto_ms", Json::Number(auto_kernel)),
                    ("ratio", Json::Number(kernel_ratio)),
                ]),
            ),
        ],
        vec![
            ("auto_undominated", Json::Bool(gate_undominated)),
            ("kernel_time_win_2x", Json::Bool(gate_kernel_win)),
            ("outputs_identical", Json::Bool(gate_identity)),
        ],
        all_passed,
    ))
}
