//! `chaos_soak` — budgeted differential-fuzzing campaign over the
//! whole stack (see `crates/chaos` and `docs/TESTING.md`).
//!
//! Draws scenarios from a pinned base seed, checks each against the
//! seven-invariant oracle, shrinks every violation to a minimal
//! reproducer, and emits `BENCH_chaos.json` through the shared
//! [`repro_bench::write_report`] envelope. Deterministic: the same
//! seed and scenario count reproduce the same campaign bit-for-bit on
//! any host (the wall-clock budget is the only nondeterministic knob —
//! leave it unset for pinned CI runs).
//!
//! Environment:
//!
//! * `HETEROSPEC_CHAOS_SEED` — base seed (default `20060925`; scenario
//!   `i` uses `seed + i`).
//! * `HETEROSPEC_CHAOS_SCENARIOS` — campaign size (default 500).
//! * `HETEROSPEC_CHAOS_BUDGET_S` — optional wall-clock budget in
//!   seconds; the campaign stops drawing new scenarios once exceeded
//!   and reports how many it completed.
//! * `HETEROSPEC_BENCH_OUT` — output path (default `BENCH_chaos.json`).
//!
//! Gates (all enforced):
//!
//! * `zero_shrunk_failures` — no scenario violated any invariant, and
//!   none hung;
//! * `all_invariants_exercised` — every one of the seven invariants
//!   performed at least one comparison across the campaign;
//! * `shrinker_selftest` — with an injected invariant break, the
//!   shrinker converges to ≤ 3 ranks and ≤ 1 fault event (the harness
//!   can fail, and failures minimize).
//!
//! Observed, not gated (ROADMAP 1b → 1c): how many cross-segment
//! transfers each scenario's allreduce probe made and how many pairs of
//! them overlapped on one serial link, totalled per collective backend
//! under `serial_links`, with the smallest overlapping scenario named.
//!
//! On violation the full Rust reproducer (a pasteable `#[test]`) is
//! printed to stderr and a structured record lands in the report's
//! `failures` array.
//!
//! No hang: each check runs on a helper thread, and one that has not
//! returned after [`SCENARIO_TIMEOUT`] ends the campaign. Its unshrunk
//! scenario's reproducer goes to stderr, a `no_hang` record to
//! `failures`, and the process exits 1 with the check still stuck.

use chaos::{
    hang_reproducer, reproducer, shrink, CheckCounts, Injection, Invariant, LinkCensus, Oracle,
    Scenario, Shrunk,
};
use repro_bench::microjson::{object, Json};
use repro_bench::write_report;
use simnet::CollAlgorithm;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};
use testutil::gen::FaultEvent;

/// How long one scenario's check may take before the soak calls it
/// hung. Every scenario of the pinned campaign checks in well under a
/// second in release.
const SCENARIO_TIMEOUT: Duration = Duration::from_secs(60);

/// `check()` on a helper thread: its value, or `None` if it has not
/// returned within `timeout`. A stuck thread cannot be stopped; it is
/// left running for the process's exit to end. A panic in `check`
/// propagates.
fn within<T: Send + 'static>(
    timeout: Duration,
    check: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let (done, verdict) = mpsc::channel();
    let helper = std::thread::spawn(move || done.send(check()));
    match verdict.recv_timeout(timeout) {
        Ok(value) => Some(value),
        Err(RecvTimeoutError::Timeout) => None,
        Err(RecvTimeoutError::Disconnected) => match helper.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(_) => unreachable!("the helper sends before it returns"),
        },
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Injects a deliberate break and asserts the shrinker minimizes it —
/// the soak's proof that a red scenario would actually surface small.
fn shrinker_selftest() -> bool {
    let oracle = Oracle::with_injection(Injection::FailOnCrash);
    let mut bloated = Scenario::generate(3);
    bloated.ranks = 8;
    bloated.segments = 3;
    bloated.faults = vec![
        FaultEvent::Slowdown {
            rank: 3,
            from: 0.0,
            until: 0.2,
            factor: 2.5,
        },
        FaultEvent::Crash { rank: 5, at: 0.05 },
        FaultEvent::LinkOutage {
            seg_a: 0,
            seg_b: 2,
            from: 0.01,
            until: 0.04,
        },
    ];
    let Some(violation) = oracle.check(&bloated).violation else {
        eprintln!("# selftest: injected oracle failed to reject a crash scenario");
        return false;
    };
    let minimal = shrink(&oracle, &bloated, &violation);
    let ok = minimal.scenario.ranks <= 3
        && minimal.scenario.faults.len() <= 1
        && minimal.scenario.faults.iter().all(FaultEvent::is_crash);
    eprintln!(
        "# selftest: injected break shrank to {} ranks, {} fault(s) in {} steps: {}",
        minimal.scenario.ranks,
        minimal.scenario.faults.len(),
        minimal.steps,
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

/// One entry of the report's `failures`: what broke, on which scenario,
/// after how many shrink steps.
fn failure_json(invariant: &str, detail: &str, s: &Scenario, shrink_steps: usize) -> Json {
    object(vec![
        ("invariant", Json::String(invariant.into())),
        ("detail", Json::String(detail.into())),
        ("seed", Json::Number(s.seed as f64)),
        ("ranks", Json::Number(s.ranks as f64)),
        ("segments", Json::Number(s.segments as f64)),
        ("algo", Json::String(format!("{:?}", s.algo))),
        ("driver", Json::String(format!("{:?}", s.driver))),
        ("collective", Json::String(format!("{:?}", s.collective))),
        ("offload", Json::String(format!("{:?}", s.offload))),
        (
            "scene",
            Json::Array(vec![
                Json::Number(s.lines as f64),
                Json::Number(s.samples as f64),
                Json::Number(s.bands as f64),
            ]),
        ),
        ("chunk_lines", Json::Number(s.chunk_lines as f64)),
        (
            "faults",
            Json::Array(
                s.faults
                    .iter()
                    .map(|e| Json::String(format!("{e:?}")))
                    .collect(),
            ),
        ),
        ("shrink_steps", Json::Number(shrink_steps as f64)),
    ])
}

/// The three concrete schedules a scenario can draw, by report key.
const COLLECTIVES: [(&str, CollAlgorithm); 3] = [
    ("linear", CollAlgorithm::Linear),
    ("binomial_tree", CollAlgorithm::BinomialTree),
    ("segment_hierarchical", CollAlgorithm::SegmentHierarchical),
];

/// Serial-link occupancy summed over the scenarios of one collective.
#[derive(Default, Clone, Copy)]
struct LinkTotals {
    scenarios: usize,
    transfers: usize,
    overlaps: usize,
    scenarios_with_overlap: usize,
}

impl LinkTotals {
    fn add(&mut self, links: LinkCensus) {
        self.scenarios += 1;
        self.transfers += links.transfers;
        self.overlaps += links.overlaps;
        self.scenarios_with_overlap += usize::from(links.overlaps > 0);
    }

    fn to_json(self) -> Json {
        object(vec![
            ("scenarios", Json::Number(self.scenarios as f64)),
            (
                "cross_segment_transfers",
                Json::Number(self.transfers as f64),
            ),
            ("overlapping_pairs", Json::Number(self.overlaps as f64)),
            (
                "scenarios_with_overlap",
                Json::Number(self.scenarios_with_overlap as f64),
            ),
        ])
    }
}

fn main() {
    hsi_linalg::require_built_isa();
    let base_seed = env_u64("HETEROSPEC_CHAOS_SEED", 20_060_925);
    let requested = env_u64("HETEROSPEC_CHAOS_SCENARIOS", 500) as usize;
    let budget_s = env_u64("HETEROSPEC_CHAOS_BUDGET_S", 0);
    let started = Instant::now();

    let selftest_ok = shrinker_selftest();

    let oracle = Oracle::new();
    let mut totals = CheckCounts::default();
    let mut completed = 0usize;
    let mut skipped = 0usize;
    let mut failures: Vec<Shrunk> = Vec::new();
    let mut hung: Option<(Scenario, String)> = None;
    let mut links = [LinkTotals::default(); COLLECTIVES.len()];
    // Fewest ranks, then fewest segments, then lowest seed.
    let mut smallest_overlap: Option<(Scenario, LinkCensus)> = None;
    for i in 0..requested {
        if budget_s > 0 && started.elapsed().as_secs() >= budget_s {
            eprintln!("# budget of {budget_s}s exhausted after {completed} scenarios");
            break;
        }
        let scenario = Scenario::generate(base_seed + i as u64);
        let (checker, checked) = (oracle.clone(), scenario.clone());
        let Some(verdict) = within(SCENARIO_TIMEOUT, move || checker.check(&checked)) else {
            let detail = format!("no verdict after {} s", SCENARIO_TIMEOUT.as_secs());
            eprintln!(
                "# HANG at seed {}: {detail}; unshrunk reproducer:",
                scenario.seed
            );
            eprintln!("{}", hang_reproducer(&scenario, &detail));
            hung = Some((scenario, detail));
            break;
        };
        totals.merge(&verdict.counts);
        completed += 1;
        if verdict.skipped {
            skipped += 1;
            continue;
        }
        if let Some(at) = COLLECTIVES
            .iter()
            .position(|&(_, c)| c == scenario.collective)
        {
            links[at].add(verdict.links);
        }
        if verdict.links.overlaps > 0
            && smallest_overlap
                .as_ref()
                .is_none_or(|(s, _)| (scenario.ranks, scenario.segments) < (s.ranks, s.segments))
        {
            smallest_overlap = Some((scenario.clone(), verdict.links));
        }
        if let Some(violation) = verdict.violation {
            eprintln!(
                "# VIOLATION at seed {}: [{}] {}",
                scenario.seed,
                violation.invariant.name(),
                violation.detail
            );
            let minimal = shrink(&oracle, &scenario, &violation);
            eprintln!(
                "# shrunk in {} steps to {} ranks / {} fault(s); reproducer:",
                minimal.steps,
                minimal.scenario.ranks,
                minimal.scenario.faults.len()
            );
            eprintln!("{}", reproducer(&minimal.scenario, &minimal.violation));
            // Unique by minimized shape: the same root cause found via
            // different seeds shrinks to the same scenario.
            if !failures.iter().any(|f| {
                f.scenario == minimal.scenario
                    && f.violation.invariant == minimal.violation.invariant
            }) {
                failures.push(minimal);
            }
        }
    }

    let gate_zero_failures = failures.is_empty() && hung.is_none();
    let gate_all_exercised = Invariant::ALL.iter().all(|&i| totals.of(i) > 0);
    eprintln!(
        "# {completed}/{requested} scenarios, {} checks total, {skipped} skipped, {} unique shrunk failure(s), {} hang(s)",
        totals.total(),
        failures.len(),
        usize::from(hung.is_some())
    );
    for invariant in Invariant::ALL {
        eprintln!(
            "#   {:<24} {:>8} checks",
            invariant.name(),
            totals.of(invariant)
        );
    }
    for ((collective, _), totals) in COLLECTIVES.iter().zip(&links) {
        eprintln!(
            "#   serial links, {collective}: {} scenarios, {} cross-segment transfers, {} overlapping pairs in {} scenarios (observed, not enforced)",
            totals.scenarios, totals.transfers, totals.overlaps, totals.scenarios_with_overlap
        );
    }
    if let Some((s, census)) = &smallest_overlap {
        eprintln!(
            "#   smallest overlapping scenario: seed {} ({:?}, {} ranks, {} segments): {} overlapping pairs among {} transfers",
            s.seed, s.collective, s.ranks, s.segments, census.overlaps, census.transfers
        );
    }
    eprintln!(
        "# gate 1 (zero shrunk failures, no hang): {}",
        if gate_zero_failures { "PASS" } else { "FAIL" }
    );
    eprintln!(
        "# gate 2 (all seven invariants exercised): {}",
        if gate_all_exercised { "PASS" } else { "FAIL" }
    );
    eprintln!(
        "# gate 3 (shrinker selftest): {}",
        if selftest_ok { "PASS" } else { "FAIL" }
    );

    let checks = object(
        Invariant::ALL
            .iter()
            .map(|&i| (i.name(), Json::Number(totals.of(i) as f64)))
            .collect(),
    );
    let all_passed = gate_zero_failures && gate_all_exercised && selftest_ok;
    // Meaningful only if the campaign ran at all (a zero-scenario run
    // proves nothing and must read "skipped", not "passed").
    let status = write_report(
        "BENCH_chaos.json",
        vec![
            ("base_seed", Json::Number(base_seed as f64)),
            ("scenarios_requested", Json::Number(requested as f64)),
            ("scenarios_completed", Json::Number(completed as f64)),
            ("scenarios_skipped", Json::Number(skipped as f64)),
            ("checks", checks),
            (
                "serial_links",
                object(
                    COLLECTIVES
                        .iter()
                        .zip(&links)
                        .map(|(&(key, _), totals)| (key, totals.to_json()))
                        .chain(std::iter::once((
                            "smallest_overlapping_seed",
                            smallest_overlap
                                .as_ref()
                                .map_or(Json::Null, |(s, _)| Json::Number(s.seed as f64)),
                        )))
                        .collect(),
                ),
            ),
            (
                "failures",
                Json::Array(
                    failures
                        .iter()
                        .map(|f| {
                            let v = &f.violation;
                            failure_json(v.invariant.name(), &v.detail, &f.scenario, f.steps)
                        })
                        .chain(
                            hung.iter()
                                .map(|(s, detail)| failure_json("no_hang", detail, s, 0)),
                        )
                        .collect(),
                ),
            ),
            (
                "elapsed_secs",
                Json::Number(started.elapsed().as_secs_f64()),
            ),
        ],
        vec![
            ("zero_shrunk_failures", Json::Bool(gate_zero_failures)),
            ("all_invariants_exercised", Json::Bool(gate_all_exercised)),
            ("shrinker_selftest", Json::Bool(selftest_ok)),
        ],
        completed > 0,
        all_passed,
    );

    if status == "failed" {
        eprintln!("# GATE FAILED");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_check_that_never_returns_is_given_up_on() {
        let stuck = within(Duration::from_millis(50), || loop {
            std::thread::park();
        });
        assert_eq!(stuck, None::<()>);
        assert_eq!(within(SCENARIO_TIMEOUT, || 7), Some(7));
    }

    #[test]
    #[should_panic(expected = "oracle bug")]
    fn a_check_that_panics_is_not_taken_for_a_hang() {
        within(SCENARIO_TIMEOUT, || panic!("oracle bug"));
    }
}
