//! Greedy delta-debugging shrinker and reproducer emitters.
//!
//! Given a scenario the oracle rejects, [`shrink`] repeatedly tries
//! the smallest structural edits — drop one fault event, halve the
//! rank count, halve the scene, simplify the collective, detach the
//! accelerators — keeping any edit under which the *same invariant*
//! still fails, until no edit preserves the failure. Every edit
//! strictly decreases a bounded quantity, so the loop terminates; the
//! oracle is deterministic, so the result is reproducible.
//!
//! The minimized scenario is then rendered as a self-contained Rust
//! `#[test]` (paste into a suite as a permanent regression); the soak
//! report's JSON record of it is the campaign driver's.

use crate::oracle::{Oracle, Violation};
use crate::scenario::Scenario;
use testutil::gen::FaultEvent;

/// A minimized failing scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Shrunk {
    /// The smallest scenario found that still violates the invariant.
    pub scenario: Scenario,
    /// The violation it produces (same invariant as the original).
    pub violation: Violation,
    /// Number of accepted shrink steps.
    pub steps: usize,
}

/// Minimizes `scenario` under `oracle`, preserving the invariant of
/// `violation`. Returns the fixpoint: no single candidate edit keeps
/// the failure alive.
pub fn shrink(oracle: &Oracle, scenario: &Scenario, violation: &Violation) -> Shrunk {
    let mut current = scenario.clone();
    let mut witnessed = violation.clone();
    let mut steps = 0;
    loop {
        let mut progressed = false;
        for candidate in candidates(&current) {
            let verdict = oracle.check(&candidate);
            if let Some(v) = verdict.violation {
                if v.invariant == witnessed.invariant {
                    current = candidate;
                    witnessed = v;
                    steps += 1;
                    progressed = true;
                    break; // greedy: restart from the smaller scenario
                }
            }
        }
        if !progressed {
            return Shrunk {
                scenario: current,
                violation: witnessed,
                steps,
            };
        }
    }
}

/// All single-step reductions of `s`, most aggressive first. Every
/// candidate is structurally valid and strictly smaller than `s` in
/// at least one bounded dimension (and larger in none).
fn candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    // Fault events: drop all at once, then one at a time.
    if s.faults.len() > 1 {
        let mut c = s.clone();
        c.faults.clear();
        out.push(c);
    }
    for i in 0..s.faults.len() {
        let mut c = s.clone();
        c.faults.remove(i);
        out.push(c);
    }
    // Rank count: halve, then decrement.
    for target in [s.ranks / 2, s.ranks - 1] {
        if target >= 2 && target < s.ranks {
            out.push(reduce_ranks(s, target));
        }
    }
    // Segments: collapse to one (drops link-level events).
    if s.segments > 1 {
        let mut c = s.clone();
        c.segments = 1;
        c.faults.retain(|e| {
            !matches!(
                e,
                FaultEvent::LinkOutage { .. } | FaultEvent::LinkDegraded { .. }
            )
        });
        out.push(c);
    }
    // Scene: halve each dimension toward its floor.
    if 6.max(s.lines / 2) < s.lines {
        let mut c = s.clone();
        c.lines = 6.max(s.lines / 2);
        out.push(c);
    }
    if 4.max(s.samples / 2) < s.samples {
        let mut c = s.clone();
        c.samples = 4.max(s.samples / 2);
        out.push(c);
    }
    if 8.max(s.bands / 2) < s.bands {
        let mut c = s.clone();
        c.bands = 8.max(s.bands / 2);
        out.push(c);
    }
    // Workload knobs.
    if s.num_targets > 2 {
        let mut c = s.clone();
        c.num_targets -= 1;
        out.push(c);
    }
    if s.chunk_lines > 1 {
        let mut c = s.clone();
        c.chunk_lines = 1.max(s.chunk_lines / 2);
        out.push(c);
    }
    // Configuration simplifications.
    if s.collective != simnet::CollAlgorithm::Linear {
        let mut c = s.clone();
        c.collective = simnet::CollAlgorithm::Linear;
        out.push(c);
    }
    if s.offload != hetero_hsi::OffloadPolicy::Never {
        let mut c = s.clone();
        c.offload = hetero_hsi::OffloadPolicy::Never;
        out.push(c);
    }
    if !s.gpu_ranks.is_empty() || !s.fpga_ranks.is_empty() {
        let mut c = s.clone();
        c.gpu_ranks.clear();
        c.fpga_ranks.clear();
        out.push(c);
    }
    out
}

/// Shrinks `s` to `ranks` processors, remapping fault targets into the
/// surviving coordinate ranges so the schedule stays structurally
/// valid: worker ranks fold into `1..ranks` (rank 0 stays untouchable),
/// duplicate crashes collapse, crash count is clamped so at least two
/// ranks survive, and segment indices fold into the clamped segment
/// count.
fn reduce_ranks(s: &Scenario, ranks: usize) -> Scenario {
    let mut c = s.clone();
    c.ranks = ranks;
    c.segments = s.segments.min(ranks);
    c.gpu_ranks.retain(|&r| r < ranks);
    c.fpga_ranks.retain(|&r| r < ranks);
    let fold_rank = |rank: usize| (rank - 1) % (ranks - 1) + 1;
    let fold_seg = |seg: usize| seg % c.segments;
    let mut crashed = vec![false; ranks];
    let mut crashes_left = ranks.saturating_sub(2);
    let mut faults = Vec::new();
    for event in &s.faults {
        match *event {
            FaultEvent::Crash { rank, at } => {
                let rank = fold_rank(rank);
                if !crashed[rank] && crashes_left > 0 {
                    crashed[rank] = true;
                    crashes_left -= 1;
                    faults.push(FaultEvent::Crash { rank, at });
                }
            }
            FaultEvent::Slowdown {
                rank,
                from,
                until,
                factor,
            } => faults.push(FaultEvent::Slowdown {
                rank: fold_rank(rank),
                from,
                until,
                factor,
            }),
            FaultEvent::LinkOutage {
                seg_a,
                seg_b,
                from,
                until,
            } => {
                let (seg_a, seg_b) = (fold_seg(seg_a), fold_seg(seg_b));
                if seg_a != seg_b {
                    faults.push(FaultEvent::LinkOutage {
                        seg_a,
                        seg_b,
                        from,
                        until,
                    });
                }
            }
            FaultEvent::LinkDegraded {
                seg_a,
                seg_b,
                from,
                until,
                factor,
            } => {
                let (seg_a, seg_b) = (fold_seg(seg_a), fold_seg(seg_b));
                if seg_a != seg_b {
                    faults.push(FaultEvent::LinkDegraded {
                        seg_a,
                        seg_b,
                        from,
                        until,
                        factor,
                    });
                }
            }
        }
    }
    c.faults = faults;
    c
}

/// Renders a minimized scenario as a self-contained Rust regression
/// test, ready to paste into a suite that depends on `chaos` (see
/// `docs/TESTING.md` for the workflow). Float literals use `{:?}`,
/// which round-trips `f64` bit-exactly.
pub fn reproducer(s: &Scenario, v: &Violation) -> String {
    let what = format!(
        "minimal scenario violating\n/// the `{}` invariant.",
        v.invariant.name()
    );
    test_source(s, &what, &v.detail)
}

/// Renders a scenario whose check never returned as the same kind of
/// regression test. The scenario is unshrunk: shrinking it would run the
/// check that hung again.
pub fn hang_reproducer(s: &Scenario, detail: &str) -> String {
    test_source(
        s,
        "scenario whose check never\n/// returned (`no_hang`).",
        detail,
    )
}

fn test_source(s: &Scenario, what: &str, detail: &str) -> String {
    let faults = s
        .faults
        .iter()
        .map(|e| format!("            FaultEvent::{e:?},\n"))
        .collect::<String>();
    format!(
        "/// Auto-generated by the chaos harness: {what}\n\
         ///\n\
         /// Evidence at generation time: {detail}\n\
         #[test]\n\
         fn chaos_repro_seed_{seed}() {{\n\
         {i}use chaos::{{Algo, Driver, Oracle, Scenario}};\n\
         {i}use hetero_hsi::OffloadPolicy;\n\
         {i}use simnet::CollAlgorithm;\n\
         {i}use testutil::gen::FaultEvent;\n\
         \n\
         {i}let scenario = Scenario {{\n\
         {i}    seed: {seed},\n\
         {i}    ranks: {ranks},\n\
         {i}    segments: {segments},\n\
         {i}    gpu_ranks: vec!{gpu:?},\n\
         {i}    fpga_ranks: vec!{fpga:?},\n\
         {i}    algo: Algo::{algo:?},\n\
         {i}    driver: Driver::{driver:?},\n\
         {i}    collective: CollAlgorithm::{coll:?},\n\
         {i}    offload: OffloadPolicy::{off:?},\n\
         {i}    lines: {lines},\n\
         {i}    samples: {samples},\n\
         {i}    bands: {bands},\n\
         {i}    num_targets: {num_targets},\n\
         {i}    chunk_lines: {chunk_lines},\n\
         {i}    faults: vec![\n{faults}{i}    ],\n\
         {i}}};\n\
         {i}let verdict = Oracle::new().check(&scenario);\n\
         {i}assert!(verdict.violation.is_none(), \"{{:?}}\", verdict.violation);\n\
         }}\n",
        detail = detail.replace('\n', " "),
        i = "    ",
        seed = s.seed,
        ranks = s.ranks,
        segments = s.segments,
        gpu = s.gpu_ranks,
        fpga = s.fpga_ranks,
        algo = s.algo,
        driver = s.driver,
        coll = s.collective,
        off = s.offload,
        lines = s.lines,
        samples = s.samples,
        bands = s.bands,
        num_targets = s.num_targets,
        chunk_lines = s.chunk_lines,
        faults = faults,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Injection, Invariant, Oracle};
    use crate::scenario::{Algo, Driver};

    /// The harness self-test: inject a break that fires on any crash,
    /// hand the shrinker a deliberately bloated scenario, and assert
    /// it converges to the minimal reproducer — at most three ranks
    /// and a single fault event (ranks cannot reach two: a two-rank
    /// scenario admits no crash, so the injected break vanishes).
    #[test]
    fn shrinker_converges_to_minimal_crash_scenario() {
        let oracle = Oracle::with_injection(Injection::FailOnCrash);
        let mut bloated = Scenario::generate(3);
        bloated.ranks = 8;
        bloated.segments = 3;
        bloated.algo = Algo::Atdca;
        bloated.driver = Driver::SelfSched;
        bloated.gpu_ranks = vec![2, 5];
        bloated.fpga_ranks = vec![7];
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
        let violation = oracle
            .check(&bloated)
            .violation
            .expect("injected oracle must reject a crash scenario");
        let shrunk = shrink(&oracle, &bloated, &violation);
        assert!(shrunk.steps > 0, "shrinker made no progress");
        assert!(
            shrunk.scenario.ranks <= 3,
            "ranks not minimized: {}",
            shrunk.scenario.ranks
        );
        assert!(
            shrunk.scenario.faults.len() <= 1,
            "faults not minimized: {:?}",
            shrunk.scenario.faults
        );
        assert!(
            shrunk.scenario.faults.iter().all(FaultEvent::is_crash),
            "the surviving fault must be the crash the break keys on"
        );
        assert_eq!(shrunk.violation.invariant, Invariant::OutputIdentity);
        assert!(
            shrunk.scenario.gpu_ranks.is_empty() && shrunk.scenario.fpga_ranks.is_empty(),
            "devices not detached"
        );
        // The fixpoint really is a fixpoint: every candidate edit
        // loses the violation.
        for candidate in candidates(&shrunk.scenario) {
            let verdict = oracle.check(&candidate);
            assert!(
                verdict
                    .violation
                    .map(|v| v.invariant != shrunk.violation.invariant)
                    .unwrap_or(true),
                "fixpoint has a smaller failing neighbour"
            );
        }
    }

    #[test]
    fn reduce_ranks_keeps_schedules_structurally_valid() {
        let mut s = Scenario::generate(11);
        s.ranks = 8;
        s.segments = 3;
        s.faults = vec![
            FaultEvent::Crash { rank: 7, at: 0.1 },
            FaultEvent::Crash { rank: 6, at: 0.2 },
            FaultEvent::Slowdown {
                rank: 5,
                from: 0.0,
                until: 0.1,
                factor: 3.0,
            },
            FaultEvent::LinkDegraded {
                seg_a: 1,
                seg_b: 2,
                from: 0.0,
                until: 0.1,
                factor: 2.0,
            },
        ];
        let reduced = reduce_ranks(&s, 3);
        assert_eq!(reduced.ranks, 3);
        assert!(reduced.segments <= 3);
        let mut crashes = 0;
        for event in &reduced.faults {
            match *event {
                FaultEvent::Crash { rank, .. } => {
                    assert!((1..3).contains(&rank));
                    crashes += 1;
                }
                FaultEvent::Slowdown { rank, .. } => assert!((1..3).contains(&rank)),
                FaultEvent::LinkOutage { seg_a, seg_b, .. }
                | FaultEvent::LinkDegraded { seg_a, seg_b, .. } => {
                    assert!(seg_a < reduced.segments && seg_b < reduced.segments);
                    assert_ne!(seg_a, seg_b);
                }
            }
        }
        assert!(crashes <= 1, "two survivors minimum at three ranks");
        // The reduced scenario builds a platform and plan cleanly.
        assert_eq!(reduced.platform().num_procs(), 3);
        let _ = reduced.fault_plan();
    }

    #[test]
    fn reproducer_is_a_self_contained_test_function() {
        let s = Scenario::generate(42);
        let v = Violation {
            invariant: Invariant::PredictExact,
            detail: "predicted 0.5 vs measured 0.25".into(),
        };
        let code = reproducer(&s, &v);
        assert!(code.contains("#[test]"));
        assert!(code.contains("fn chaos_repro_seed_42()"));
        assert!(code.contains("Oracle::new().check(&scenario)"));
        assert!(code.contains("predict-exact"));
        let hung = hang_reproducer(&s, "no verdict after 60 s");
        assert!(hung.contains("fn chaos_repro_seed_42()"));
        assert!(hung.contains("`no_hang`") && hung.contains("no verdict after 60 s"));
        // Only the header differs from a violation's reproducer.
        let body = |code: &str| code[code.find("#[test]").expect("test attribute")..].to_string();
        assert_eq!(body(&hung), body(&code));
    }
}
