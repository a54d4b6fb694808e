//! Hidden load on the engine (ablation A4's contract, small scene).
//!
//! A node that does not deliver its nominal speed is a whole-run
//! `FaultPlan::slowdown`. Static WEA (`par::morph`) plans from nominal
//! speeds and pays the true ones; demand-driven self-scheduling
//! (`ft::run_self_sched` over `MorphChunks`) reroutes from completion
//! feedback and pays real per-chunk messages instead:
//!
//! 1. under a surprise slowdown self-scheduling wins, and stays flat
//!    where the static plan degrades with the misestimate;
//! 2. chunk size is a trade-off between per-chunk traffic and the
//!    last-chunk effect;
//! 3. on one switched segment the self-scheduler stays inside the
//!    list-scheduling bound and nothing ever queues on a link;
//! 4. a slowdown plan changes time, never output;
//! 5. losing every worker is a structured error, not a panic or a hang.

use heterospec::cube::synth::SyntheticScene;
use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::ft::{
    run_self_sched, try_run_replan, try_run_self_sched, FtError, FtOptions, POLL_INTERVAL_S,
};
use heterospec::hetero::par;
use heterospec::hetero::sched::{ChunkedAlgo, MorphChunks};
use heterospec::hetero::OutputDigest;
use heterospec::simnet::engine::Engine;
use heterospec::simnet::{presets, FailureCause, FaultPlan, Platform};

/// p3 — the smallest cycle-time of Table 1, WEA's favourite node.
const LOADED: usize = 2;

fn scene() -> SyntheticScene {
    testutil::scene(240, 40, 48)
}

fn params() -> AlgoParams {
    testutil::params(5, 3)
}

/// `platform` with rank [`LOADED`] slowed by `factor` for the whole run.
fn loaded(platform: Platform, factor: f64) -> Engine {
    Engine::new(platform).with_faults(FaultPlan::new().slowdown(LOADED, 0.0, 1e6, factor))
}

fn chunked(chunk_lines: usize) -> FtOptions {
    FtOptions {
        chunk_lines,
        ..FtOptions::default()
    }
}

fn static_secs(engine: &Engine, s: &SyntheticScene, p: &AlgoParams) -> f64 {
    par::morph::run(engine, &s.cube, p, &RunOptions::hetero())
        .report
        .total_time
}

fn self_sched_secs(engine: &Engine, s: &SyntheticScene, p: &AlgoParams, chunk: usize) -> f64 {
    run_self_sched(engine, &MorphChunks::new(&s.cube, p), &chunked(chunk))
        .report
        .total_time
}

#[test]
fn self_scheduling_stays_flat_where_static_wea_degrades() {
    let (s, p) = (scene(), params());
    let nominal = loaded(presets::fully_heterogeneous(), 1.0);
    let surprised = loaded(presets::fully_heterogeneous(), 6.0);
    let (stat1, stat6) = (
        static_secs(&nominal, &s, &p),
        static_secs(&surprised, &s, &p),
    );
    let (dyn1, dyn6) = (
        self_sched_secs(&nominal, &s, &p, 6),
        self_sched_secs(&surprised, &s, &p, 6),
    );
    assert!(dyn6 < stat6, "self-sched {dyn6:.3} !< static {stat6:.3}");
    assert!(
        stat6 >= 3.0 * stat1,
        "static {stat1:.3} -> {stat6:.3}: the loaded partition should bind"
    );
    assert!(
        dyn6 <= 1.5 * dyn1,
        "self-sched {dyn1:.3} -> {dyn6:.3}: work should reroute"
    );
}

#[test]
fn chunk_size_is_a_tradeoff() {
    let (s, p) = (scene(), params());
    let engine = loaded(presets::fully_heterogeneous(), 6.0);
    let small = self_sched_secs(&engine, &s, &p, 1);
    let mid = self_sched_secs(&engine, &s, &p, 6);
    let huge = self_sched_secs(&engine, &s, &p, s.cube.lines());
    assert!(
        mid < small,
        "per-chunk traffic should penalise 1-line chunks: {mid:.3} vs {small:.3}"
    );
    assert!(
        mid < huge,
        "a whole-image chunk serialises the run: {mid:.3} vs {huge:.3}"
    );
}

/// Graham's bound for any list schedule of a round's chunks on `m`
/// identical workers — `W/m + c_max` — summed over MORPH's two rounds,
/// plus the engine's per-dispatch overhead the bound does not know:
/// every chunk a worker takes costs it at most one poll interval (the
/// master notices a completion that late) and the chunk's *measured*
/// message time (`send_wait + recv_wait` over all ranks, per dispatch).
#[test]
fn single_segment_self_scheduling_respects_the_list_scheduling_bound() {
    let (s, p) = (scene(), params());
    let platform = presets::thunderhead(8);
    let workers = platform.num_procs() - 1;
    let cycle = platform.proc(1).cycle_time;
    let algo = MorphChunks::new(&s.cube, &p);
    for chunk in [1usize, 4, 8] {
        let opts = chunked(chunk);
        let engine = Engine::new(platform.clone()).with_profiling(true);
        let run = run_self_sched(&engine, &algo, &opts);
        let profile = testutil::assert_profile_exact(&run.report);

        let per_round = s.cube.lines().div_ceil(chunk);
        let last = s.cube.lines() - (per_round - 1) * chunk;
        let mut graham = 0.0;
        for round in 0..algo.rounds() {
            let full = algo.chunk_mflops(round, chunk) * cycle;
            let work = (per_round - 1) as f64 * full + algo.chunk_mflops(round, last) * cycle;
            graham += work / workers as f64 + full;
        }
        let dispatches = (per_round * algo.rounds()) as f64;
        let message_secs: f64 = profile
            .ranks
            .iter()
            .map(|r| r.phases.send_wait + r.phases.recv_wait)
            .sum();
        let per_dispatch = POLL_INTERVAL_S + message_secs / dispatches;
        let overhead = algo.rounds() as f64 * per_round.div_ceil(workers) as f64 * per_dispatch;
        let master_seq = profile.ranks[0].phases.compute_seq;
        assert!(
            run.report.total_time <= graham + overhead + master_seq,
            "chunk {chunk}: {:.4} s > list-scheduling bound {graham:.4} s \
             + dispatch overhead {overhead:.4} s + master merge {master_seq:.4} s",
            run.report.total_time
        );
        for r in &profile.ranks {
            assert_eq!(
                r.phases.contention, 0.0,
                "chunk {chunk}: rank {} queued on a link that does not exist",
                r.rank
            );
        }
    }
}

#[test]
fn a_slowdown_plan_changes_time_never_output() {
    let (s, p) = (scene(), params());
    let algo = MorphChunks::new(&s.cube, &p);
    let opts = FtOptions::default();
    let nominal = Engine::new(presets::fully_heterogeneous());
    let surprised = || loaded(presets::fully_heterogeneous(), 6.0);

    let stat = par::morph::run(&nominal, &s.cube, &p, &RunOptions::hetero());
    let stat_slow = par::morph::run(&surprised(), &s.cube, &p, &RunOptions::hetero());
    assert_eq!(stat.result.digest64(), stat_slow.result.digest64());
    assert!(stat_slow.report.total_time > stat.report.total_time);

    let dynm = run_self_sched(&nominal, &algo, &opts);
    let dynm_slow = run_self_sched(&surprised(), &algo, &opts);
    assert_eq!(dynm.output.digest64(), dynm_slow.output.digest64());
    // Rerouting can hide the load from the makespan, never from the
    // loaded rank's own ledger.
    assert_ne!(
        dynm.report.ledgers[LOADED],
        dynm_slow.report.ledgers[LOADED]
    );

    // Same plan, same run: reports (every ledger and timestamp) and
    // outputs are bit-identical.
    let stat_again = par::morph::run(&surprised(), &s.cube, &p, &RunOptions::hetero());
    assert_eq!(stat_slow.report, stat_again.report);
    assert_eq!(stat_slow.result, stat_again.result);
    let dynm_again = run_self_sched(&surprised(), &algo, &opts);
    assert_eq!(dynm_slow.report, dynm_again.report);
    assert_eq!(dynm_slow.output, dynm_again.output);
}

#[test]
fn losing_every_worker_is_a_structured_error() {
    let (s, p) = (scene(), params());
    let algo = MorphChunks::new(&s.cube, &p);
    let platform = presets::thunderhead(4);
    let workers = 1..platform.num_procs();
    // Staggered crashes inside round 0: each loss is recovered from
    // until nobody is left to recover onto.
    let plan = workers
        .clone()
        .fold(FaultPlan::new(), |plan, w| plan.crash(w, 0.01 * w as f64));
    let engine = Engine::new(platform).with_faults(plan);
    for (mode, result) in [
        (
            "replan",
            try_run_replan(&engine, &algo, &FtOptions::default()),
        ),
        (
            "self-sched",
            try_run_self_sched(&engine, &algo, &FtOptions::default()),
        ),
    ] {
        let err = result
            .err()
            .unwrap_or_else(|| panic!("{mode}: no worker survives"));
        let FtError::AllWorkersLost { round, failures } = &err else {
            panic!("{mode}: expected AllWorkersLost, got {err:?}");
        };
        assert_eq!(*round, 0, "{mode}");
        let mut lost: Vec<usize> = failures.iter().map(|f| f.rank).collect();
        lost.sort_unstable();
        assert_eq!(lost, workers.clone().collect::<Vec<_>>(), "{mode}");
        assert!(
            failures.iter().all(|f| f.cause == FailureCause::Crash),
            "{mode}: the master must leave cleanly, not as a failure: {failures:?}"
        );
        assert!(err.to_string().contains("all workers lost in round 0"));
    }
}
