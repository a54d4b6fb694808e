//! Run reports: the paper's performance metrics.
//!
//! * Total execution time (Table 5 / Table 8),
//! * COM/SEQ/PAR decomposition on the root timeline (Table 6),
//! * load imbalance `D = R_max/R_min` over processor run times, with and
//!   without the root (Table 7),
//! * speedup helpers (Figure 2),
//! * structured rank failures (`None` results + [`RankFailure`] records)
//!   when a run executes under a fault plan or a rank panics.

use crate::accel::OffloadStats;
use crate::clock::TimeLedger;
use crate::coll::CollectiveChoice;
use crate::faults::RankFailure;

/// Host-side copy telemetry for one run, summed over all ranks.
///
/// The counters are **deterministic**: they count the clone sites the
/// collective schedules execute (a function of the platform, rank count
/// and payload types only), charging each site the payload's
/// [`crate::Wire::deep_copy_bits`]. They report what each payload type
/// declares there, not what its `clone` does: whether a broadcast really
/// shares one body is checked by pointer identity (`tests/zero_copy.rs`).
/// They never observe `Arc` refcounts
/// or decoder unwrap outcomes, which can differ between hosts. The
/// counters describe host behaviour, not the simulation, so they are
/// excluded from [`RunReport`]'s `PartialEq` bit-identity contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// Bytes actually deep-copied by collective fan-out clones (heap
    /// payload only; an `Arc`-backed payload contributes 0 per clone).
    pub bytes_deep_copied: u64,
    /// Number of fan-out clones that allocated (deep-copied > 0 bytes).
    pub allocs_on_hot_path: u64,
}

impl CopyStats {
    /// Accumulates another rank's counters into this one.
    pub fn merge(&mut self, other: CopyStats) {
        self.bytes_deep_copied += other.bytes_deep_copied;
        self.allocs_on_hot_path += other.allocs_on_hot_path;
    }
}

/// The outcome of one [`crate::Engine::run`].
///
/// `PartialEq` compares every *simulation* field — including each rank's
/// full time ledger — which is how the fault-injection tests assert that
/// two runs under identical fault plans are *bit-identical*. The
/// [`RunReport::copies`] host telemetry is deliberately excluded: a
/// shared-payload run must compare equal to an owned-payload run that
/// produced the same simulation. [`RunReport::offloads`] *is* compared —
/// offload decisions are simulation state, so two runs that scheduled
/// kernels differently must not compare equal.
#[derive(Debug, Clone)]
pub struct RunReport<R> {
    /// Name of the platform the run executed on.
    pub platform_name: String,
    /// Per-rank time ledgers.
    pub ledgers: Vec<TimeLedger>,
    /// Per-rank program results; `None` for ranks that failed.
    pub results: Vec<Option<R>>,
    /// Structured failures, in rank order (empty on a healthy run).
    pub failures: Vec<RankFailure>,
    /// Total virtual execution time: the latest rank's final clock.
    pub total_time: f64,
    /// Collective algorithm choices made during the run (rank 0's log,
    /// in call order; see [`crate::coll`]). Deterministic, so it
    /// participates in the report's bit-identity comparisons.
    pub collectives: Vec<CollectiveChoice>,
    /// Copy telemetry summed over all ranks (host observability only;
    /// not part of the `PartialEq` identity contract).
    pub copies: CopyStats,
    /// Per-rank offload telemetry (one entry per rank, crashed ranks
    /// included up to their crash instant). Unlike [`RunReport::copies`]
    /// these counters are *simulation state* — a function of the
    /// platform model and the offload policy only — so they participate
    /// in the bit-identity `PartialEq` contract.
    pub offloads: Vec<OffloadStats>,
    /// Post-run profile: per-rank phase breakdowns and the critical
    /// path (see [`crate::prof`]). `Some` for profiled runs
    /// ([`crate::Engine::with_profiling`] / `run_traced`), `None`
    /// otherwise. The profile is a pure function of the trace and the
    /// ledgers, so it is deterministic and **participates in the
    /// `PartialEq` bit-identity contract** — two profiled runs must
    /// agree on the profile, and a profiled run never compares equal to
    /// an unprofiled one (clear the field to compare across the two).
    pub profile: Option<crate::prof::RunProfile>,
}

impl<R: PartialEq> PartialEq for RunReport<R> {
    fn eq(&self, other: &Self) -> bool {
        self.platform_name == other.platform_name
            && self.ledgers == other.ledgers
            && self.results == other.results
            && self.failures == other.failures
            && self.total_time == other.total_time
            && self.collectives == other.collectives
            && self.offloads == other.offloads
            && self.profile == other.profile
    }
}

impl<R> RunReport<R> {
    /// Assembles a report from per-rank ledgers and results of a healthy
    /// (failure-free) run.
    pub fn new(platform_name: String, ledgers: Vec<TimeLedger>, results: Vec<R>) -> Self {
        Self::with_failures(
            platform_name,
            ledgers,
            results.into_iter().map(Some).collect(),
            Vec::new(),
        )
    }

    /// Assembles a report that may include failed ranks.
    pub fn with_failures(
        platform_name: String,
        ledgers: Vec<TimeLedger>,
        results: Vec<Option<R>>,
        failures: Vec<RankFailure>,
    ) -> Self {
        let total_time = ledgers.iter().map(|l| l.now).fold(0.0, f64::max);
        RunReport {
            platform_name,
            ledgers,
            results,
            failures,
            total_time,
            collectives: Vec::new(),
            copies: CopyStats::default(),
            offloads: Vec::new(),
            profile: None,
        }
    }

    /// `true` when every rank completed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failure record of `rank`, if it failed.
    pub fn failure_of(&self, rank: usize) -> Option<&RankFailure> {
        self.failures.iter().find(|f| f.rank == rank)
    }

    /// The recorded collective choices for one operation, in call order
    /// — e.g. every `Allreduce` decision of a winner-selection loop.
    pub fn choices_of(&self, op: crate::coll::CollOp) -> impl Iterator<Item = &CollectiveChoice> {
        self.collectives.iter().filter(move |c| c.op == op)
    }

    /// The result of `rank`.
    ///
    /// # Panics
    /// Panics (with the failure record) if the rank did not complete —
    /// the convenient accessor for tests and healthy-run call sites.
    pub fn result(&self, rank: usize) -> &R {
        match &self.results[rank] {
            Some(r) => r,
            None => panic!(
                "rank {rank} produced no result: {:?}",
                self.failure_of(rank)
            ),
        }
    }

    /// The paper's Table 6 decomposition, computed on the root timeline:
    /// `SEQ` = root sequential compute, `COM` = root communication time,
    /// `PAR` = everything else (parallel compute **including worker idle
    /// time**, as the paper specifies).
    pub fn decomposition(&self) -> Decomposition {
        let root = &self.ledgers[0];
        let seq = root.compute_seq;
        let com = root.comm;
        let par = (self.total_time - seq - com).max(0.0);
        Decomposition {
            com,
            seq,
            par,
            total: self.total_time,
        }
    }

    /// The paper's Table 7 imbalance metrics over processor run (busy)
    /// times: `D_all` over all processors, `D_minus` excluding the root.
    pub fn imbalance(&self) -> Imbalance {
        Imbalance {
            d_all: imbalance_of(self.ledgers.iter().map(|l| l.busy())),
            d_minus: imbalance_of(self.ledgers.iter().skip(1).map(|l| l.busy())),
        }
    }
}

impl<T> RunReport<Option<T>> {
    /// Splits a rooted run — one whose ranks return `Some` only on the
    /// root — into rank 0's value and the report that carries everything
    /// else verbatim (with `results` emptied). The value is `None` when
    /// rank 0 failed or itself returned `None`; callers decide whether
    /// that is an error.
    pub fn into_root(mut self) -> (Option<T>, RunReport<()>) {
        let root = self.results.get_mut(0).and_then(Option::take).flatten();
        let report = RunReport {
            platform_name: self.platform_name,
            ledgers: self.ledgers,
            results: Vec::new(),
            failures: self.failures,
            total_time: self.total_time,
            collectives: self.collectives,
            copies: self.copies,
            offloads: self.offloads,
            profile: self.profile,
        };
        (root, report)
    }
}

/// COM/SEQ/PAR split of a run (Table 6 semantics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decomposition {
    /// Communication time on the root timeline.
    pub com: f64,
    /// Root-only sequential computation.
    pub seq: f64,
    /// Parallel-phase time, worker idling included.
    pub par: f64,
    /// Total execution time (`com + seq + par`).
    pub total: f64,
}

/// Load-imbalance ratios (Table 7 semantics). Perfect balance is `1.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Imbalance {
    /// `R_max / R_min` over all processors.
    pub d_all: f64,
    /// `R_max / R_min` excluding the root.
    pub d_minus: f64,
}

fn imbalance_of(times: impl Iterator<Item = f64>) -> f64 {
    let mut max = f64::NEG_INFINITY;
    let mut min = f64::INFINITY;
    let mut any = false;
    for t in times {
        any = true;
        max = max.max(t);
        min = min.min(t);
    }
    if !any || min <= 0.0 {
        return 1.0;
    }
    max / min
}

/// Speedup of a multi-processor time over the single-processor baseline
/// (Figure 2's y-axis). Returns 0 for non-positive times.
pub fn speedup(single_proc_time: f64, multi_proc_time: f64) -> f64 {
    if single_proc_time <= 0.0 || multi_proc_time <= 0.0 {
        return 0.0;
    }
    single_proc_time / multi_proc_time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Phase;
    use crate::faults::FailureCause;

    fn ledger(seq: f64, par: f64, comm: f64, idle: f64) -> TimeLedger {
        let mut l = TimeLedger::new();
        l.compute(seq, Phase::Seq);
        l.compute(par, Phase::Par);
        l.comm = comm;
        l.idle = idle;
        l.now = seq + par + comm + idle;
        l
    }

    #[test]
    fn decomposition_sums_to_total() {
        let report = RunReport::new(
            "t".into(),
            vec![ledger(2.0, 5.0, 1.0, 0.5), ledger(0.0, 7.0, 0.5, 1.0)],
            vec![(), ()],
        );
        let d = report.decomposition();
        assert!((d.total - report.total_time).abs() < 1e-12);
        assert!((d.com - 1.0).abs() < 1e-12);
        assert!((d.seq - 2.0).abs() < 1e-12);
        assert!((d.com + d.seq + d.par - d.total).abs() < 1e-12);
    }

    #[test]
    fn total_time_is_max_rank_clock() {
        let report = RunReport::new(
            "t".into(),
            vec![ledger(0.0, 1.0, 0.0, 0.0), ledger(0.0, 9.0, 0.0, 0.0)],
            vec![(), ()],
        );
        assert!((report.total_time - 9.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_perfect_when_equal() {
        let report = RunReport::new(
            "t".into(),
            vec![
                ledger(0.0, 4.0, 0.0, 0.0),
                ledger(0.0, 4.0, 0.0, 0.0),
                ledger(0.0, 4.0, 0.0, 0.0),
            ],
            vec![(), (), ()],
        );
        let i = report.imbalance();
        assert!((i.d_all - 1.0).abs() < 1e-12);
        assert!((i.d_minus - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_detects_skew_and_root_exclusion() {
        let report = RunReport::new(
            "t".into(),
            vec![
                ledger(8.0, 0.0, 0.0, 0.0), // busy root
                ledger(0.0, 2.0, 0.0, 0.0),
                ledger(0.0, 4.0, 0.0, 0.0),
            ],
            vec![(), (), ()],
        );
        let i = report.imbalance();
        assert!((i.d_all - 4.0).abs() < 1e-12); // 8 / 2
        assert!((i.d_minus - 2.0).abs() < 1e-12); // 4 / 2
    }

    #[test]
    fn idle_time_lands_in_par_not_com() {
        // Root waits 10 s idle for workers: decomposition must charge PAR.
        let report = RunReport::new(
            "t".into(),
            vec![ledger(1.0, 2.0, 0.5, 10.0), ledger(0.0, 13.0, 0.5, 0.0)],
            vec![(), ()],
        );
        let d = report.decomposition();
        assert!((d.seq - 1.0).abs() < 1e-12);
        assert!((d.com - 0.5).abs() < 1e-12);
        assert!(d.par > 11.9, "idle must be inside PAR: {}", d.par);
    }

    #[test]
    fn speedup_helper() {
        assert!((speedup(100.0, 25.0) - 4.0).abs() < 1e-12);
        assert_eq!(speedup(0.0, 10.0), 0.0);
        assert_eq!(speedup(10.0, 0.0), 0.0);
    }

    #[test]
    fn healthy_report_accessors() {
        let report = RunReport::new(
            "t".into(),
            vec![ledger(0.0, 1.0, 0.0, 0.0), ledger(0.0, 2.0, 0.0, 0.0)],
            vec![10u32, 20u32],
        );
        assert!(report.ok());
        assert_eq!(*report.result(1), 20);
        assert_eq!(report.failure_of(0), None);
    }

    #[test]
    fn failed_report_accessors() {
        let failure = RankFailure {
            rank: 1,
            at: 2.0,
            cause: FailureCause::Crash,
        };
        let report = RunReport::with_failures(
            "t".into(),
            vec![ledger(0.0, 1.0, 0.0, 0.0), ledger(0.0, 2.0, 0.0, 0.0)],
            vec![Some(10u32), None],
            vec![failure.clone()],
        );
        assert!(!report.ok());
        assert_eq!(report.failure_of(1), Some(&failure));
        assert_eq!(*report.result(0), 10);
    }

    #[test]
    fn choices_of_filters_by_operation() {
        use crate::coll::{CollAlgorithm, CollOp};
        let mut report = RunReport::new("t".into(), vec![ledger(0.0, 1.0, 0.0, 0.0)], vec![()]);
        for op in [CollOp::Broadcast, CollOp::Allreduce, CollOp::Allreduce] {
            report.collectives.push(CollectiveChoice {
                op,
                requested: CollAlgorithm::Auto,
                algorithm: CollAlgorithm::Linear,
                bits: 64,
                predicted_secs: 0.0,
            });
        }
        assert_eq!(report.choices_of(CollOp::Allreduce).count(), 2);
        assert_eq!(report.choices_of(CollOp::Gather).count(), 0);
    }

    #[test]
    fn into_root_takes_the_value_and_carries_every_other_field() {
        // A real profiled run with a crash and a collective, so every
        // report field is non-trivial.
        let cfg = crate::CollectiveConfig::linear();
        let mut full = crate::Engine::new(crate::Platform::uniform("t", 3, 0.01, 64, 10.0))
            .with_faults(crate::FaultPlan::new().crash(2, 0.0))
            .with_profiling(true)
            .run(move |ctx| {
                crate::coll::gather(ctx, &cfg, 0, ctx.rank() as u64, 64).expect("gather");
                ctx.is_root().then_some(7u32)
            });
        full.copies.bytes_deep_copied = 9;
        assert_eq!(full.failures.len(), 1);
        assert_eq!(full.collectives.len(), 1);
        assert!(full.profile.is_some());

        let (root, rest) = full.clone().into_root();
        assert_eq!(root, Some(7));
        assert!(rest.results.is_empty());
        assert_eq!(rest.platform_name, full.platform_name);
        assert_eq!(rest.ledgers, full.ledgers);
        assert_eq!(rest.failures, full.failures);
        assert_eq!(rest.total_time.to_bits(), full.total_time.to_bits());
        assert_eq!(rest.collectives, full.collectives);
        assert_eq!(rest.copies, full.copies);
        assert_eq!(rest.offloads, full.offloads);
        assert_eq!(rest.profile, full.profile);

        // A root that failed, or itself returned `None`, yields `None`.
        for results in [vec![None, None, None], vec![Some(None), None, None]] {
            full.results = results;
            assert_eq!(full.clone().into_root().0, None);
        }
    }

    #[test]
    #[should_panic(expected = "produced no result")]
    fn result_accessor_panics_on_failed_rank() {
        let report = RunReport::with_failures(
            "t".into(),
            vec![ledger(0.0, 1.0, 0.0, 0.0)],
            vec![None::<u32>],
            vec![RankFailure {
                rank: 0,
                at: 1.0,
                cause: FailureCause::Crash,
            }],
        );
        let _ = report.result(0);
    }
}
