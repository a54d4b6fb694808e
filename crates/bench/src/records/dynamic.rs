use hetero_hsi::config::{AlgoParams, RunOptions};
use hetero_hsi::ft::{run_self_sched, FtOptions};
use hetero_hsi::par;
use hetero_hsi::sched::MorphChunks;
use hsi_cube::synth::SyntheticScene;
use hsi_cube::HyperCube;
use simnet::engine::Engine;
use simnet::prof::RunProfile;
use simnet::{presets, FaultPlan, Platform};
use std::collections::BTreeMap;
use std::io::{self, Write};

use super::Record;
use crate::microjson::{object, Json};
use crate::print_table;

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

/// One slowdown of one network's sweep.
struct Row {
    slowdown: f64,
    /// Static WEA's makespan.
    static_secs: f64,
    /// Self-scheduling's makespan at each of [`CHUNKS`].
    self_secs: [f64; 3],
    /// Largest per-rank `contention` phase of the self-scheduled runs.
    contention: f64,
}

/// One network's sweep.
struct Sweep {
    network: String,
    /// No rank's traffic to the master crosses a serial link.
    single_segment: bool,
    rows: Vec<Row>,
}

/// Runs one network's sweep, printing its table.
fn sweep(
    platform: &Platform,
    cube: &HyperCube,
    params: &AlgoParams,
    out: &mut impl Write,
) -> io::Result<Sweep> {
    let name = platform.name();
    let chunks = MorphChunks::new(cube, params);
    let mut rows = Vec::new();
    for slowdown in SLOWDOWNS {
        let engine = Engine::new(platform.clone())
            .with_faults(FaultPlan::new().slowdown(2, 0.0, WHOLE_RUN, slowdown))
            .with_profiling(true);
        eprintln!("# {name} x{slowdown}: static WEA");
        let static_secs = par::morph::run(&engine, cube, params, &RunOptions::hetero())
            .report
            .total_time;
        let mut self_secs = [0.0; 3];
        let mut contention = 0.0f64;
        for (secs, chunk_lines) in self_secs.iter_mut().zip(CHUNKS) {
            eprintln!("# {name} x{slowdown}: self-scheduling, chunk {chunk_lines}");
            let opts = FtOptions {
                chunk_lines,
                ..FtOptions::default()
            };
            let run = run_self_sched(&engine, &chunks, &opts);
            let profile = run.report.profile.as_ref().expect("profiling is on");
            contention = contention.max(max_contention(profile));
            if chunk_lines == CHUNKS[1] {
                let label = format!("{name} x{slowdown} chunk {chunk_lines}");
                attribution(&label, platform, profile);
            }
            *secs = run.report.total_time;
        }
        rows.push(Row {
            slowdown,
            static_secs,
            self_secs,
            contention,
        });
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![format!("x{}", r.slowdown), format!("{:.2}", r.static_secs)];
            row.extend(r.self_secs.iter().map(|s| format!("{s:.2}")));
            row
        })
        .collect();
    print_table(
        out,
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
        &table,
    )?;
    Ok(Sweep {
        network: name.to_string(),
        single_segment: (1..platform.num_procs()).all(|r| !platform.crosses_segments(0, r)),
        rows,
    })
}

impl Sweep {
    /// The gates on this network, keyed `<network>.<gate>`. Every
    /// network has three; a single-segment one adds that no rank ever
    /// queued on a link, which a network with serial links cannot check.
    fn gates(&self) -> Vec<(String, bool)> {
        let (first, last) = (&self.rows[0], &self.rows[self.rows.len() - 1]);
        let (s1, s8) = (first.static_secs, last.static_secs);
        let (d1, d8) = (first.self_secs[1], last.self_secs[1]);
        let mut gates = vec![
            ("static_degrades_5x", s8 >= 5.0 * s1),
            ("self_sched_flat_2x", d8 <= 2.0 * d1),
            ("self_sched_halves_static", d8 < 0.5 * s8),
        ];
        if self.single_segment {
            let zero = self.rows.iter().all(|r| r.contention == 0.0);
            gates.push(("zero_contention", zero));
        }
        let key = |gate| format!("{}.{gate}", self.network);
        gates
            .into_iter()
            .map(|(gate, ok)| (key(gate), ok))
            .collect()
    }

    fn to_json(&self) -> Json {
        let rows = self.rows.iter().map(|r| {
            let mut fields = vec![
                ("slowdown", Json::Number(r.slowdown)),
                ("static_secs", Json::Number(r.static_secs)),
                ("worst_contention_secs", Json::Number(r.contention)),
            ];
            let keys = ["self_chunk2_secs", "self_chunk8_secs", "self_chunk32_secs"];
            fields.extend(keys.into_iter().zip(r.self_secs.map(Json::Number)));
            object(fields)
        });
        object(vec![
            ("network", Json::String(self.network.clone())),
            ("rows", Json::Array(rows.collect())),
        ])
    }
}

/// The record of `sweeps`, logging each gate.
fn record(sweeps: &[Sweep]) -> Record {
    let gates: Vec<(String, bool)> = sweeps.iter().flat_map(Sweep::gates).collect();
    for (key, ok) in &gates {
        eprintln!("# gate {key}: {}", if *ok { "passed" } else { "failed" });
    }
    let passed = gates.iter().all(|&(_, ok)| ok);
    let sweeps = Json::Array(sweeps.iter().map(Sweep::to_json).collect());
    let gates = gates
        .iter()
        .map(|(key, ok)| (key.as_str(), Json::Bool(*ok)));
    Record::new(
        "BENCH_dynamic.json",
        vec![("sweeps", sweeps)],
        gates.collect(),
        passed,
    )
}

/// **Ablation A4** — static WEA vs demand-driven self-scheduling under
/// hidden load (the paper's future-work direction), measured on the
/// engine → `BENCH_dynamic.json`.
///
/// Hidden load is a whole-run [`FaultPlan::slowdown`] of rank 2 (p3,
/// WEA's favourite node). "Static WEA" is the paper's own
/// `par::morph::run(.., RunOptions::hetero())`: it plans from the
/// platform's nominal cycle-times while the engine charges the true
/// ones, so the slowed partition becomes the critical path.
/// "Self-scheduling" is `ft::run_self_sched` over [`MorphChunks`]: the
/// master hands fixed-size chunks to whichever worker is free, paying
/// real `Assign`/`Partial`/state messages per chunk.
///
/// The sweep runs on the fully heterogeneous network and on
/// `thunderhead(16)` — one switched segment, where no serial link exists
/// to queue on, as the artefact-free control (ROADMAP open item 1).
/// Gates on both networks: static ×8 ≥ 5 × static ×1
/// (`static_degrades_5x`); self-sched (chunk 8) ×8 ≤ 2 × its ×1
/// (`self_sched_flat_2x`) and < 0.5 × static ×8
/// (`self_sched_halves_static`); and on `thunderhead(16)` alone every
/// rank's `contention` phase is exactly 0 (`zero_contention`).
///
/// The flatness gate allows one ×8-slowed chunk (8 chunk-times) inside
/// 2 × the unloaded makespan, so it needs at least 4 chunks of 8 lines
/// per worker: a scene of fewer lines than that is refused with
/// [`io::ErrorKind::InvalidInput`] before anything runs, since chunk
/// quantisation would decide every gate. The binary runs it on a
/// quarter of the `HETEROSPEC_SCENE` size, so `medium` (512 × 128) is
/// the smallest it accepts.
///
/// ```text
/// cargo run -p repro-bench --release --bin ablation_dynamic
/// ```
pub fn dynamic(scene: &SyntheticScene, out: &mut impl Write) -> io::Result<Record> {
    let cube = &scene.cube;
    let platforms = [presets::fully_heterogeneous(), presets::thunderhead(16)];
    let workers = platforms.iter().map(|p| p.num_procs() - 1).max();
    let floor = 4 * CHUNKS[1] * workers.expect("two platforms");
    if cube.lines() < floor {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "A4's gates need at least {floor} lines (4 chunks of {} per worker), \
                 the scene has {}: run it at HETEROSPEC_SCENE=medium or larger",
                CHUNKS[1],
                cube.lines()
            ),
        ));
    }
    let params = AlgoParams::default();
    let sweeps = platforms
        .iter()
        .map(|platform| sweep(platform, cube, &params, out))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(record(&sweeps))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sweep whose every makespan is 1 s.
    fn flat(network: &str, single_segment: bool) -> Sweep {
        let rows = SLOWDOWNS.map(|slowdown| Row {
            slowdown,
            static_secs: 1.0,
            self_secs: [1.0; 3],
            contention: 0.0,
        });
        Sweep {
            network: network.into(),
            single_segment,
            rows: rows.into(),
        }
    }

    #[test]
    fn the_record_gates_three_things_per_network_and_contention_on_one_segment_only() {
        let sweeps = [
            flat("fully-heterogeneous", false),
            flat("thunderhead", true),
        ];
        let record = record(&sweeps);
        let Json::Object(fields) = &record.json else {
            panic!("a record is an object")
        };
        let Some(Json::Object(gates)) = fields.get("gates") else {
            panic!("a record has gates")
        };
        let names: Vec<&str> = gates.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            [
                "fully-heterogeneous.self_sched_flat_2x",
                "fully-heterogeneous.self_sched_halves_static",
                "fully-heterogeneous.static_degrades_5x",
                "passed",
                "status",
                "thunderhead.self_sched_flat_2x",
                "thunderhead.self_sched_halves_static",
                "thunderhead.static_degrades_5x",
                "thunderhead.zero_contention",
            ]
        );
        // Flat numbers: nothing degrades, so the static gate fails.
        assert!(!record.passed);
    }

    #[test]
    fn a_scene_below_four_chunks_per_worker_is_refused_before_any_run() {
        let scene = hsi_cube::synth::wtc_scene(crate::quarter(crate::scene_size("small")));
        let err = dynamic(&scene, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("medium"), "{err}");
    }
}
