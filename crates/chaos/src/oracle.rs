//! The oracle: seven standing invariants of the stack, checked against
//! one scenario with a handful of deterministic engine runs.
//!
//! The invariants form a hierarchy (see `docs/TESTING.md`): bit-exact
//! output identity first, structural degradation contracts under
//! faults, analytic replay (`predict_* == measured`), and finally the
//! profiler's identity/pure-observer gates. Each performed comparison
//! bumps a per-invariant counter so a soak can prove every invariant
//! was actually exercised (a green run with zero checks is a bug in
//! the harness, not a pass).
//!
//! Beside the seven, the oracle *observes* an eighth that does not hold
//! yet (ROADMAP 1b → 1c): no two transfers overlap on one serial
//! inter-segment link. Each verdict carries the count ([`LinkCensus`]);
//! nothing is enforced until worker↔worker transfers reserve.

use crate::scenario::{Algo, Driver, Scenario};
use hetero_hsi::ft::{self, FtError, FtRun};
use hetero_hsi::sched::{AtdcaChunks, MorphChunks, PctChunks, UfclsChunks};
use hetero_hsi::{seq, ChunkedAlgo, OutputDigest};
use simnet::engine::{Engine, WireVec};
use simnet::{coll, CollAlgorithm, CollOp, CollectiveConfig, Ctx};
use testutil::gen::FaultEvent;
use testutil::links::{serial_link_overlaps, serial_link_uses};

/// The seven standing invariants, in oracle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Outputs are bit-identical across reruns, and — for
    /// grid-invariant algorithms — to the sequential reference.
    OutputIdentity,
    /// Under faults the survivors' output equals the fault-free output
    /// (every lost contribution was recovered), and recoveries name
    /// only ranks that actually crashed.
    SurvivorCompleteness,
    /// Analytic replay: `coll::predict` matches the measured virtual
    /// time of an isolated collective, and every device rank's charged
    /// offload equals `DeviceSpec::offload_secs` bit-exactly.
    PredictExact,
    /// Profiler accounting: every rank's phase fold equals its
    /// wall-clock bitwise, and the critical path is bounded.
    ProfileFold,
    /// Profiling is a pure observer: stripping the profile from a
    /// profiled report yields the unprofiled report, bit for bit.
    PureObserver,
    /// The allreduce probe's `CopyStats` — live counters, since its
    /// `WireVec` payload deep-copies on every fan-out clone — are
    /// identical traced and untraced.
    CopyDeterminism,
    /// `OffloadStats` (and the whole report) is identical across
    /// reruns.
    OffloadDeterminism,
}

impl Invariant {
    /// All seven, in oracle order.
    pub const ALL: [Invariant; 7] = [
        Invariant::OutputIdentity,
        Invariant::SurvivorCompleteness,
        Invariant::PredictExact,
        Invariant::ProfileFold,
        Invariant::PureObserver,
        Invariant::CopyDeterminism,
        Invariant::OffloadDeterminism,
    ];

    /// Stable kebab-case name (JSON keys, report fields).
    pub fn name(self) -> &'static str {
        match self {
            Invariant::OutputIdentity => "output-identity",
            Invariant::SurvivorCompleteness => "survivor-completeness",
            Invariant::PredictExact => "predict-exact",
            Invariant::ProfileFold => "profile-fold",
            Invariant::PureObserver => "pure-observer",
            Invariant::CopyDeterminism => "copy-determinism",
            Invariant::OffloadDeterminism => "offload-determinism",
        }
    }

    fn index(self) -> usize {
        Invariant::ALL.iter().position(|&i| i == self).unwrap_or(0)
    }
}

/// How many comparisons each invariant performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckCounts {
    counts: [u64; 7],
}

impl CheckCounts {
    fn bump(&mut self, invariant: Invariant) {
        self.counts[invariant.index()] += 1;
    }

    /// Comparisons performed for `invariant`.
    pub fn of(&self, invariant: Invariant) -> u64 {
        self.counts[invariant.index()]
    }

    /// Accumulates another scenario's counts into this one.
    pub fn merge(&mut self, other: &CheckCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
    }

    /// Total comparisons across all invariants.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// Human-readable evidence (the two sides that differed).
    pub detail: String,
}

/// What the scenario's allreduce probe put on the platform's serial
/// inter-segment links. Observed and reported, not enforced: a tree
/// schedule over two or more segments overlaps today because only
/// transfers with the root at one end reserve (ROADMAP 1c).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCensus {
    /// Delivered transfers whose endpoints sit in different segments.
    pub transfers: usize,
    /// Pairs of them that held one link at the same virtual time.
    pub overlaps: usize,
}

/// The oracle's verdict on one scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Comparisons performed, per invariant.
    pub counts: CheckCounts,
    /// The first violation hit, if any (the oracle stops at the first).
    pub violation: Option<Violation>,
    /// Serial-link occupancy of the allreduce probe (zero when the
    /// oracle stopped before it).
    pub links: LinkCensus,
    /// `true` when the ft driver rejected the scenario structurally
    /// (no checks ran). Generation never produces such scenarios; the
    /// flag exists so shrinker candidates that drift out of the valid
    /// envelope read as "violation gone", never as a pass.
    pub skipped: bool,
}

/// Deliberate invariant breaks for harness self-tests: the oracle must
/// be able to fail, and the shrinker must converge on the break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Report an [`Invariant::OutputIdentity`] violation on every
    /// scenario that schedules a crash (and run no real checks). The
    /// minimal reproducer is therefore "smallest scenario with one
    /// crash" — three ranks, one fault — which the shrinker self-test
    /// asserts.
    FailOnCrash,
}

/// The seven-invariant checker.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    injection: Option<Injection>,
}

/// Payload bits the allreduce probe declares to the cost model.
const PROBE_BITS: u64 = 64 * 32;

/// The oracle's isolated allreduce: every rank contributes 64 words of
/// its rank number, summed with wrapping adds under `collective` from
/// rank 0; each rank returns the length of the result. `WireVec`
/// declares every byte a fan-out clone deep-copies.
fn allreduce_probe(collective: CollAlgorithm) -> impl Fn(&mut Ctx<WireVec<u32>>) -> usize + Sync {
    let cfg = CollectiveConfig {
        allreduce: collective,
        ..CollectiveConfig::linear()
    };
    move |ctx| {
        let own = vec![ctx.rank() as u32; 64];
        coll::allreduce(
            ctx,
            &cfg,
            0,
            WireVec(own),
            |x, y| {
                WireVec(
                    x.0.iter()
                        .zip(&y.0)
                        .map(|(p, q)| p.wrapping_add(*q))
                        .collect(),
                )
            },
            PROBE_BITS,
        )
        .expect("the probe's root is rank 0")
        .0
        .len()
    }
}

/// Early-return helper: bump the counter, then either pass or return
/// the verdict carrying the violation.
macro_rules! ensure {
    ($verdict:ident, $inv:expr, $cond:expr, $($msg:tt)*) => {
        $verdict.counts.bump($inv);
        let holds: bool = $cond;
        if !holds {
            $verdict.violation = Some(Violation {
                invariant: $inv,
                detail: format!($($msg)*),
            });
            return $verdict;
        }
    };
}

impl Oracle {
    /// An oracle running the real checks.
    pub fn new() -> Oracle {
        Oracle { injection: None }
    }

    /// An oracle with a deliberate break wired in (self-tests only).
    pub fn with_injection(injection: Injection) -> Oracle {
        Oracle {
            injection: Some(injection),
        }
    }

    /// Checks every invariant against `scenario`, stopping at the
    /// first violation.
    pub fn check(&self, scenario: &Scenario) -> Verdict {
        if let Some(Injection::FailOnCrash) = self.injection {
            let mut verdict = Verdict::default();
            verdict.counts.bump(Invariant::OutputIdentity);
            verdict.violation = scenario.has_crash().then(|| Violation {
                invariant: Invariant::OutputIdentity,
                detail: "injected break: scenario schedules a crash (self-test)".into(),
            });
            return verdict;
        }
        let scene = scenario.scene();
        let params = scenario.params();
        match scenario.algo {
            Algo::Atdca => {
                let reference = seq::atdca(&scene.cube, &params).result.digest64();
                self.run_checks(
                    scenario,
                    &AtdcaChunks::new(&scene.cube, &params),
                    Some(reference),
                )
            }
            Algo::Ufcls => {
                let reference = seq::ufcls(&scene.cube, &params).result.digest64();
                self.run_checks(
                    scenario,
                    &UfclsChunks::new(&scene.cube, &params),
                    Some(reference),
                )
            }
            // PCT/MORPH outputs depend on the chunk grid, so the
            // sequential whole-image result is not the reference;
            // rerun identity and fault-free identity still apply.
            Algo::Pct => self.run_checks(scenario, &PctChunks::new(&scene.cube, &params), None),
            Algo::Morph => self.run_checks(scenario, &MorphChunks::new(&scene.cube, &params), None),
        }
    }

    fn run_checks<A>(&self, s: &Scenario, algo: &A, seq_digest: Option<u64>) -> Verdict
    where
        A: ChunkedAlgo + Sync,
        A::Output: OutputDigest + Send,
    {
        let mut verdict = Verdict::default();
        let platform = s.platform();
        let plan = s.fault_plan();
        let opts = s.ft_options();
        let drive = |engine: &Engine| -> Result<FtRun<A::Output>, FtError> {
            match s.driver {
                Driver::Replan => ft::try_run_replan(engine, algo, &opts),
                Driver::SelfSched => ft::try_run_self_sched(engine, algo, &opts),
            }
        };
        let skip = |verdict: Verdict| Verdict {
            skipped: true,
            ..verdict
        };

        // Two profiled runs off the same engine (rerun determinism)
        // and one unprofiled run (pure-observer reference).
        let profiled = Engine::new(platform.clone())
            .with_faults(plan.clone())
            .with_profiling(true);
        let Ok(a) = drive(&profiled) else {
            return skip(verdict);
        };
        let Ok(b) = drive(&profiled) else {
            return skip(verdict);
        };
        let plain = Engine::new(platform.clone()).with_faults(plan);
        let Ok(c) = drive(&plain) else {
            return skip(verdict);
        };

        // 1. Output identity: reruns, then the sequential reference.
        let digest_a = a.output.digest64();
        ensure!(
            verdict,
            Invariant::OutputIdentity,
            digest_a == b.output.digest64(),
            "rerun digest diverged: {digest_a:#018x} vs {:#018x}",
            b.output.digest64()
        );
        if let Some(reference) = seq_digest {
            ensure!(
                verdict,
                Invariant::OutputIdentity,
                digest_a == reference,
                "parallel output {digest_a:#018x} != sequential reference {reference:#018x}"
            );
        }

        // 2. Survivor completeness: with any faults scheduled, the
        // output must equal the fault-free output, and recoveries may
        // only name ranks that actually crashed.
        if !s.faults.is_empty() {
            let faultfree = Engine::new(platform.clone());
            let Ok(reference) = drive(&faultfree) else {
                return skip(verdict);
            };
            ensure!(
                verdict,
                Invariant::SurvivorCompleteness,
                digest_a == reference.output.digest64(),
                "faulted output {digest_a:#018x} != fault-free output {:#018x}",
                reference.output.digest64()
            );
            let crashed: Vec<usize> = s
                .faults
                .iter()
                .filter_map(|e| match *e {
                    FaultEvent::Crash { rank, .. } => Some(rank),
                    _ => None,
                })
                .collect();
            ensure!(
                verdict,
                Invariant::SurvivorCompleteness,
                a.recoveries.iter().all(|r| crashed.contains(&r.rank)),
                "recovery names a rank that never crashed: {:?} (crashed: {crashed:?})",
                a.recoveries
            );
        }

        // 3. Analytic replay: an isolated allreduce on this platform
        // must measure exactly what `coll::predict` replays (the
        // scenario's collective is concrete by construction), and an
        // offload must charge a device rank's clock exactly the closed
        // form `offload_secs`, bitwise.
        let (probe, trace) =
            Engine::new(platform.clone()).run_traced(allreduce_probe(s.collective));
        let untraced = Engine::new(platform.clone()).run(allreduce_probe(s.collective));
        let uses = serial_link_uses(&platform, &trace);
        verdict.links = LinkCensus {
            transfers: uses.len(),
            overlaps: serial_link_overlaps(&uses).len(),
        };
        let predicted = coll::predict(
            &platform,
            platform.msg_latency_s(),
            CollOp::Allreduce,
            s.collective,
            0,
            PROBE_BITS,
        );
        ensure!(
            verdict,
            Invariant::PredictExact,
            (predicted - probe.total_time).abs() < 1e-9,
            "coll::predict({:?}) = {predicted} vs measured {} on {} ranks",
            s.collective,
            probe.total_time,
            s.ranks
        );
        let (mflops, h2d, d2h) = (12.5, 4096, 1024);
        let charged = Engine::new(platform).run(|ctx: &mut Ctx<()>| {
            ctx.device().copied().map(|spec| {
                ctx.offload(mflops, h2d, d2h);
                (spec, ctx.elapsed())
            })
        });
        for (rank, result) in charged.results.iter().enumerate() {
            let Some(Some((spec, measured))) = result else {
                continue;
            };
            let closed_form = spec.offload_secs(mflops, h2d, d2h);
            ensure!(
                verdict,
                Invariant::PredictExact,
                measured.to_bits() == closed_form.to_bits(),
                "rank {rank}: offload charged {measured:e} != offload_secs {closed_form:e} on {}",
                spec.kind.label()
            );
        }

        // 4. Profile accounting identity and critical-path bounds.
        verdict.counts.bump(Invariant::ProfileFold);
        let Some(profile) = &a.report.profile else {
            verdict.violation = Some(Violation {
                invariant: Invariant::ProfileFold,
                detail: "profiled run carries no profile".into(),
            });
            return verdict;
        };
        if let Some(rank) = profile.ranks.iter().find(|r| !r.identity_holds()) {
            verdict.violation = Some(Violation {
                invariant: Invariant::ProfileFold,
                detail: format!(
                    "rank {}: accounted {:e} != wall {:e} (bitwise)",
                    rank.rank,
                    rank.phases.accounted(),
                    rank.wall
                ),
            });
            return verdict;
        }
        ensure!(
            verdict,
            Invariant::ProfileFold,
            profile.path_bounded(),
            "critical path out of bounds: length {:e}, slack {:e}, makespan {:e}",
            profile.critical_path.length,
            profile.critical_path.slack,
            profile.makespan
        );

        // 5. Pure observer: profile stripped, the profiled report must
        // equal the unprofiled one — timing, ledgers, offloads
        // and output alike.
        let mut stripped = a.report.clone();
        stripped.profile = None;
        ensure!(
            verdict,
            Invariant::PureObserver,
            stripped == c.report,
            "profiling perturbed the run: profiled(total {:e}) vs plain(total {:e})",
            a.report.total_time,
            c.report.total_time
        );
        ensure!(
            verdict,
            Invariant::PureObserver,
            digest_a == c.output.digest64(),
            "profiling changed the output digest: {digest_a:#018x} vs {:#018x}",
            c.output.digest64()
        );

        // 6. Copy accounting is tracing-blind. The ft drivers send point
        // to point and copy nothing a counter sees, so the check runs on
        // the allreduce probe, whose fan-outs deep-copy `WireVec`s.
        ensure!(
            verdict,
            Invariant::CopyDeterminism,
            probe.copies == untraced.copies,
            "allreduce probe CopyStats diverged: traced {:?} vs untraced {:?}",
            probe.copies,
            untraced.copies
        );

        // 7. Offload accounting — and the whole rerun report — is
        // deterministic.
        ensure!(
            verdict,
            Invariant::OffloadDeterminism,
            a.report.offloads == b.report.offloads,
            "OffloadStats diverged across reruns: {:?} vs {:?}",
            a.report.offloads,
            b.report.offloads
        );
        ensure!(
            verdict,
            Invariant::OffloadDeterminism,
            a.report == b.report && a.recoveries == b.recoveries,
            "rerun report diverged (total {:e} vs {:e}, {} vs {} recoveries)",
            a.report.total_time,
            b.report.total_time,
            a.recoveries.len(),
            b.recoveries.len()
        );

        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_counts_track_and_merge() {
        let mut a = CheckCounts::default();
        a.bump(Invariant::OutputIdentity);
        a.bump(Invariant::OutputIdentity);
        a.bump(Invariant::PredictExact);
        assert_eq!(a.of(Invariant::OutputIdentity), 2);
        assert_eq!(a.of(Invariant::PredictExact), 1);
        assert_eq!(a.total(), 3);
        let mut b = CheckCounts::default();
        b.bump(Invariant::ProfileFold);
        b.merge(&a);
        assert_eq!(b.total(), 4);
        assert_eq!(b.of(Invariant::ProfileFold), 1);
    }

    #[test]
    fn injection_fires_exactly_on_crash_scenarios() {
        let oracle = Oracle::with_injection(Injection::FailOnCrash);
        let mut with_crash = Scenario::generate(0);
        with_crash.faults = vec![FaultEvent::Crash { rank: 1, at: 0.01 }];
        with_crash.ranks = 4;
        let verdict = oracle.check(&with_crash);
        assert_eq!(
            verdict.violation.as_ref().map(|v| v.invariant),
            Some(Invariant::OutputIdentity)
        );
        let mut clean = with_crash.clone();
        clean.faults.clear();
        assert!(oracle.check(&clean).violation.is_none());
    }

    /// The copy check compares live counters: on a scenario's platform,
    /// the allreduce probe deep-copies under each of the three concrete
    /// collectives, and tracing leaves the counts alone.
    #[test]
    fn the_copy_check_compares_non_zero_counts_for_every_collective() {
        let platform = Scenario::generate(0).platform();
        for collective in [
            CollAlgorithm::Linear,
            CollAlgorithm::BinomialTree,
            CollAlgorithm::SegmentHierarchical,
        ] {
            let engine = Engine::new(platform.clone());
            let (traced, _) = engine.run_traced(allreduce_probe(collective));
            let untraced = engine.run(allreduce_probe(collective));
            assert!(
                traced.copies.bytes_deep_copied > 0 && traced.copies.allocs_on_hot_path > 0,
                "{collective:?}: {:?}",
                traced.copies
            );
            assert_eq!(traced.copies, untraced.copies, "{collective:?}");
        }
    }

    /// A deterministic mini-campaign: every scenario passes all seven
    /// invariants, and each invariant is exercised at least once. The
    /// link census is live too: probes cross segments, and the
    /// root-mediated schedules — every transfer has the root at one end,
    /// and the root reserves — never overlap on a serial link.
    #[test]
    fn mini_campaign_is_green_and_exercises_every_invariant() {
        let oracle = Oracle::new();
        let mut totals = CheckCounts::default();
        let mut crossings = 0;
        for seed in 0..24u64 {
            let scenario = Scenario::generate(seed);
            let verdict = oracle.check(&scenario);
            assert!(!verdict.skipped, "seed {seed}: structurally rejected");
            assert!(
                verdict.violation.is_none(),
                "seed {seed}: {:?}\nscenario: {scenario:?}",
                verdict.violation
            );
            totals.merge(&verdict.counts);
            crossings += verdict.links.transfers;
            if scenario.collective != simnet::CollAlgorithm::BinomialTree {
                assert_eq!(verdict.links.overlaps, 0, "seed {seed}: {scenario:?}");
            }
        }
        assert!(crossings > 0, "no probe crossed a segment boundary");
        for invariant in Invariant::ALL {
            assert!(
                totals.of(invariant) > 0,
                "invariant {} never exercised in the mini-campaign",
                invariant.name()
            );
        }
    }
}
