//! The output checks: what makes an algorithm run count as *failed*.
//!
//! A run fails if it panics or returns `Err` (reported by the caller
//! through [`Verifier::judge`]), reports a `RankFailure` its fault plan
//! did not schedule, breaks its output expectation, or differs — in
//! output digest or in the bits of its virtual time — from the same run
//! of the previous pass. Expected digests always come from a reference
//! computed by the same build, never from a constant pinned here.

use simnet::{FailureCause, RankFailure};
use std::collections::BTreeMap;

/// What a finished run showed.
#[derive(Debug, Clone)]
pub struct Observation<'a> {
    /// Digest of the whole output.
    pub digest: u64,
    /// Virtual seconds of the run.
    pub virtual_s: f64,
    /// Label agreement with the sequential reference (1.0 for targets).
    pub agreement: f64,
    /// Rank failures in the engine's report.
    pub failures: &'a [RankFailure],
    /// Ranks the ft driver recovered from.
    pub recovered: &'a [usize],
}

/// What the workload expects of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expectation {
    /// The output digest must equal this reference, when given.
    pub digest: Option<u64>,
    /// The label agreement must not fall below this.
    pub min_agreement: f64,
    /// Ranks the run's fault plan crashes (empty without faults).
    pub scheduled_crashes: Vec<usize>,
    /// The ft driver must report at least this many recoveries.
    pub min_recoveries: usize,
}

/// Counts attempted and failed runs and remembers each run's previous
/// pass for the rerun-identity check.
#[derive(Debug, Default)]
pub struct Verifier {
    previous: BTreeMap<String, (u64, u64)>,
    /// Algorithm runs judged so far.
    pub attempted: u64,
    /// Runs that failed a check (or never produced an output).
    pub failed: u64,
    /// One line per failed run.
    pub complaints: Vec<String>,
}

impl Verifier {
    /// Checks one observation against its expectation and against the
    /// previous observation under the same `label`.
    pub fn check(
        &mut self,
        label: &str,
        seen: &Observation<'_>,
        expect: &Expectation,
    ) -> Result<(), String> {
        let fingerprint = (seen.digest, seen.virtual_s.to_bits());
        let previous = self.previous.insert(label.to_string(), fingerprint);
        for failure in seen.failures {
            let scheduled = failure.cause == FailureCause::Crash
                && expect.scheduled_crashes.contains(&failure.rank);
            if !scheduled {
                return Err(format!("unscheduled rank failure: {failure}"));
            }
        }
        if let Some(stray) = seen
            .recovered
            .iter()
            .find(|r| !expect.scheduled_crashes.contains(r))
        {
            return Err(format!(
                "recovered from rank {stray}, which no fault crashed"
            ));
        }
        if seen.recovered.len() < expect.min_recoveries {
            return Err(format!(
                "{} recoveries, expected at least {}",
                seen.recovered.len(),
                expect.min_recoveries
            ));
        }
        if let Some(reference) = expect.digest {
            if seen.digest != reference {
                return Err(format!(
                    "output digest {:016x} differs from the reference {reference:016x}",
                    seen.digest
                ));
            }
        }
        // Not `<`: an agreement that is NaN must fail too.
        let agrees = seen.agreement >= expect.min_agreement;
        if !agrees {
            return Err(format!(
                "label agreement {:.4} below the floor {:.4}",
                seen.agreement, expect.min_agreement
            ));
        }
        match previous {
            Some((digest, _)) if digest != seen.digest => Err(format!(
                "output digest {:016x} differs from the previous pass ({digest:016x})",
                seen.digest
            )),
            Some((_, bits)) if bits != seen.virtual_s.to_bits() => Err(format!(
                "virtual time {:e} differs from the previous pass ({:e})",
                seen.virtual_s,
                f64::from_bits(bits)
            )),
            _ => Ok(()),
        }
    }

    /// Counts a run: `verdict` is the outcome of running it and, if it
    /// ran, of [`Verifier::check`].
    pub fn judge(&mut self, label: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.complaints.push(format!("{label}: {why}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seen<'a>(digest: u64, virtual_s: f64) -> Observation<'a> {
        Observation {
            digest,
            virtual_s,
            agreement: 1.0,
            failures: &[],
            recovered: &[],
        }
    }

    fn crash(rank: usize) -> RankFailure {
        RankFailure {
            rank,
            at: 0.5,
            cause: FailureCause::Crash,
        }
    }

    #[test]
    fn a_clean_repeated_run_passes() {
        let mut v = Verifier::default();
        let expect = Expectation {
            digest: Some(42),
            ..Default::default()
        };
        assert_eq!(v.check("a", &seen(42, 1.5), &expect), Ok(()));
        assert_eq!(v.check("a", &seen(42, 1.5), &expect), Ok(()));
    }

    #[test]
    fn a_tampered_digest_is_flagged() {
        let mut v = Verifier::default();
        let expect = Expectation {
            digest: Some(42),
            ..Default::default()
        };
        let err = v.check("a", &seen(43, 1.5), &expect).unwrap_err();
        assert!(err.contains("differs from the reference"), "{err}");
        // Without a reference, the rerun check still catches a change.
        let mut v = Verifier::default();
        assert_eq!(
            v.check("a", &seen(42, 1.5), &Expectation::default()),
            Ok(())
        );
        let err = v
            .check("a", &seen(43, 1.5), &Expectation::default())
            .unwrap_err();
        assert!(err.contains("previous pass"), "{err}");
        // Another label has its own history.
        assert_eq!(
            v.check("b", &seen(99, 1.5), &Expectation::default()),
            Ok(())
        );
    }

    #[test]
    fn a_virtual_time_one_ulp_off_is_flagged() {
        let mut v = Verifier::default();
        let t = 7.395758_f64;
        let next_up = f64::from_bits(t.to_bits() + 1);
        assert_eq!(v.check("a", &seen(1, t), &Expectation::default()), Ok(()));
        let err = v
            .check("a", &seen(1, next_up), &Expectation::default())
            .unwrap_err();
        assert!(err.contains("virtual time"), "{err}");
    }

    #[test]
    fn an_unscheduled_rank_failure_is_flagged() {
        let mut v = Verifier::default();
        let expect = Expectation {
            scheduled_crashes: vec![3, 7],
            min_recoveries: 2,
            ..Default::default()
        };
        let scheduled = [crash(3), crash(7)];
        let ok = Observation {
            failures: &scheduled,
            recovered: &[3, 7],
            ..seen(1, 1.0)
        };
        assert_eq!(v.check("a", &ok, &expect), Ok(()));

        let stray = [crash(3), crash(5)];
        let bad = Observation {
            failures: &stray,
            recovered: &[3, 7],
            ..seen(1, 1.0)
        };
        assert!(v
            .check("a", &bad, &expect)
            .unwrap_err()
            .contains("unscheduled"));

        // A scheduled rank that died of something else is not excused.
        let lost = [RankFailure {
            rank: 3,
            at: 0.5,
            cause: FailureCause::PeerLost { peer: 0 },
        }];
        let bad = Observation {
            failures: &lost,
            recovered: &[3, 7],
            ..seen(1, 1.0)
        };
        assert!(v
            .check("a", &bad, &expect)
            .unwrap_err()
            .contains("unscheduled"));

        // Any failure at all is unscheduled when no fault was planned.
        let one = [crash(3)];
        let bad = Observation {
            failures: &one,
            ..seen(1, 1.0)
        };
        assert!(v.check("b", &bad, &Expectation::default()).is_err());
    }

    #[test]
    fn missing_or_stray_recoveries_are_flagged() {
        let mut v = Verifier::default();
        let expect = Expectation {
            scheduled_crashes: vec![3, 7],
            min_recoveries: 2,
            ..Default::default()
        };
        let one = Observation {
            recovered: &[3],
            ..seen(1, 1.0)
        };
        assert!(v
            .check("a", &one, &expect)
            .unwrap_err()
            .contains("recoveries"));
        let stray = Observation {
            recovered: &[3, 9],
            ..seen(1, 1.0)
        };
        assert!(v
            .check("a", &stray, &expect)
            .unwrap_err()
            .contains("rank 9"));
    }

    #[test]
    fn low_or_undefined_agreement_is_flagged() {
        let mut v = Verifier::default();
        let expect = Expectation {
            min_agreement: 0.9,
            ..Default::default()
        };
        for agreement in [0.89, f64::NAN] {
            let low = Observation {
                agreement,
                ..seen(1, 1.0)
            };
            assert!(v
                .check("a", &low, &expect)
                .unwrap_err()
                .contains("agreement"));
        }
    }

    #[test]
    fn judge_counts_attempts_and_failures() {
        let mut v = Verifier::default();
        v.judge("a", Ok(()));
        v.judge("b", Err("root produced no result".into()));
        assert_eq!((v.attempted, v.failed), (2, 1));
        assert_eq!(v.complaints, ["b: root produced no result"]);
    }
}
