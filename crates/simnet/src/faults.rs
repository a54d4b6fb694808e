//! Deterministic virtual-time fault plans.
//!
//! The paper's §5 names fault tolerance as the open problem for
//! heterogeneous remote-sensing clusters: nodes of a network of
//! workstations crash, get loaded by other users, and links saturate.
//! This module describes such events **in virtual time**, so that a
//! faulty run is exactly as deterministic as a healthy one:
//!
//! * [`FaultPlan::crash`] — a rank dies the moment its own virtual clock
//!   reaches `t`. The engine unwinds the rank, records a structured
//!   [`RankFailure`], and publishes the failure on the run's exit board,
//!   which a peer reads only once it has drained the crashed rank's
//!   messages (so everything sent before the crash is still delivered
//!   first).
//! * [`FaultPlan::slowdown`] — during `[from, until)` a rank's compute
//!   takes `factor`× its nominal time (a hidden external load). Applied
//!   by piecewise integration in [`FaultPlan::dilate`], so work spanning
//!   a window boundary is charged exactly.
//! * [`FaultPlan::link_outage`] / [`FaultPlan::link_degraded`] — an
//!   inter-segment link is down (transfers wait for the window to end)
//!   or slowed by a factor during a virtual-time window.
//!
//! Everything here is pure arithmetic over the plan; the engine injects
//! the results through the existing cost model (clock, contention,
//! comm), which is what keeps runs bit-deterministic.

/// Why a rank failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureCause {
    /// A crash scheduled by the run's [`FaultPlan`].
    Crash,
    /// The rank's program panicked (message preserved).
    Panic(String),
    /// The rank aborted because a peer it was receiving from was lost.
    PeerLost {
        /// The peer whose loss cascaded into this rank.
        peer: usize,
    },
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Crash => write!(f, "planned crash"),
            FailureCause::Panic(msg) => write!(f, "panic: {msg}"),
            FailureCause::PeerLost { peer } => write!(f, "peer rank {peer} lost"),
        }
    }
}

/// Structured description of a rank failure: which rank died, at what
/// virtual time, and why. Carried by [`crate::RunReport::failures`] and
/// by [`RecvError::Failed`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankFailure {
    /// The failed rank.
    pub rank: usize,
    /// Virtual time of the failure in seconds.
    pub at: f64,
    /// What killed the rank.
    pub cause: FailureCause,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} failed at {:.6}s ({})",
            self.rank, self.at, self.cause
        )
    }
}

impl std::error::Error for RankFailure {}

/// Error returned by [`crate::Ctx::recv_deadline`]: either no message
/// arrived by the virtual deadline, or the source rank is known to have
/// failed by then.
#[derive(Debug, Clone, PartialEq)]
pub enum RecvError {
    /// No message from the source arrived at or before `deadline`.
    Timeout {
        /// The virtual deadline that expired.
        deadline: f64,
    },
    /// The source rank failed at or before the deadline.
    Failed(RankFailure),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout { deadline } => {
                write!(f, "no message by virtual deadline {deadline:.6}s")
            }
            RecvError::Failed(failure) => write!(f, "{failure}"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Structured rejection of an invalid [`FaultPlan`] entry at
/// construction time.
///
/// Historically a `slowdown` window with `factor = +∞` passed the
/// builder's range assert and then sent [`FaultPlan::dilate`] into an
/// infinite loop (each window slice contributes zero capacity), while a
/// `link_degraded` window with a non-finite factor was *silently
/// dropped* by the finite-factor filter in
/// [`FaultPlan::adjust_transfer`] — the plan looked armed but did
/// nothing. Both are now rejected here, at plan construction.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A `slowdown` factor that is NaN, ±∞, or not strictly positive.
    InvalidSlowdownFactor {
        /// The rank the window targeted.
        rank: usize,
        /// The offending factor.
        factor: f64,
    },
    /// A `link_degraded` factor that is NaN, ±∞, or below 1.
    InvalidLinkFactor {
        /// Lower-numbered segment of the link.
        seg_a: usize,
        /// Higher-numbered segment of the link.
        seg_b: usize,
        /// The offending factor.
        factor: f64,
    },
    /// A window whose end does not lie strictly after its start.
    EmptyWindow {
        /// Window start (virtual seconds).
        from: f64,
        /// Window end (virtual seconds).
        until: f64,
    },
    /// A crash scheduled at a negative (or NaN) virtual time.
    InvalidCrashTime {
        /// The rank the crash targeted.
        rank: usize,
        /// The offending crash instant.
        at: f64,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::InvalidSlowdownFactor { rank, factor } => write!(
                f,
                "slowdown factor for rank {rank} must be finite and > 0 (got {factor})"
            ),
            FaultPlanError::InvalidLinkFactor {
                seg_a,
                seg_b,
                factor,
            } => write!(
                f,
                "link degradation factor for segments {seg_a}\u{2194}{seg_b} must be finite and \u{2265} 1 (got {factor}); use link_outage for a down link"
            ),
            FaultPlanError::EmptyWindow { from, until } => {
                write!(f, "fault window [{from}, {until}) is empty")
            }
            FaultPlanError::InvalidCrashTime { rank, at } => {
                write!(f, "crash time for rank {rank} must be non-negative (got {at})")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// One per-rank slowdown window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slowdown {
    rank: usize,
    from: f64,
    until: f64,
    factor: f64,
}

/// One inter-segment link fault window (`factor = ∞` means outage).
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinkWindow {
    a: usize,
    b: usize,
    from: f64,
    until: f64,
    factor: f64,
}

/// A deterministic virtual-time fault schedule, attached to a run with
/// [`crate::Engine::with_faults`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    crashes: Vec<(usize, f64)>,
    slowdowns: Vec<Slowdown>,
    links: Vec<LinkWindow>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.slowdowns.is_empty() && self.links.is_empty()
    }

    /// Schedules `rank` to crash when its own virtual clock reaches
    /// `at` seconds. A rank that never advances past `at` (e.g. it
    /// finishes earlier) exits cleanly — a crash only materialises on
    /// activity at or after the crash instant.
    ///
    /// # Panics
    /// On an invalid crash time; use [`FaultPlan::try_crash`] for a
    /// structured [`FaultPlanError`] instead.
    pub fn crash(self, rank: usize, at: f64) -> Self {
        match self.try_crash(rank, at) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`FaultPlan::crash`]: rejects NaN or negative
    /// crash times with a structured [`FaultPlanError`].
    pub fn try_crash(mut self, rank: usize, at: f64) -> Result<Self, FaultPlanError> {
        let at_ok = at.is_finite() && at >= 0.0;
        if !at_ok {
            return Err(FaultPlanError::InvalidCrashTime { rank, at });
        }
        self.crashes.push((rank, at));
        Ok(self)
    }

    /// During `[from, until)`, computation on `rank` takes `factor`×
    /// its nominal time (`factor ≥ 1`: an external load stealing
    /// cycles; `factor < 1` would model a turbo boost and is allowed).
    ///
    /// # Panics
    /// On a NaN/±∞/non-positive factor or an empty window; use
    /// [`FaultPlan::try_slowdown`] for a structured [`FaultPlanError`]
    /// instead. An infinite factor is rejected rather than treated as a
    /// halt: [`FaultPlan::dilate`] integrates work through windows, and
    /// an infinite factor yields zero capacity per slice (a
    /// non-terminating integral). Model a dead rank with
    /// [`FaultPlan::crash`].
    pub fn slowdown(self, rank: usize, from: f64, until: f64, factor: f64) -> Self {
        match self.try_slowdown(rank, from, until, factor) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`FaultPlan::slowdown`]: rejects NaN, ±∞ and
    /// non-positive factors (and empty windows) with a structured
    /// [`FaultPlanError`].
    pub fn try_slowdown(
        mut self,
        rank: usize,
        from: f64,
        until: f64,
        factor: f64,
    ) -> Result<Self, FaultPlanError> {
        let factor_ok = factor.is_finite() && factor > 0.0;
        if !factor_ok {
            return Err(FaultPlanError::InvalidSlowdownFactor { rank, factor });
        }
        let window_ok = until > from;
        if !window_ok {
            return Err(FaultPlanError::EmptyWindow { from, until });
        }
        self.slowdowns.push(Slowdown {
            rank,
            from,
            until,
            factor,
        });
        Ok(self)
    }

    /// The `seg_a`↔`seg_b` inter-segment link is down during
    /// `[from, until)`: transfers starting inside the window wait for
    /// it to end.
    ///
    /// # Panics
    /// On an empty window; use [`FaultPlan::try_link_outage`] for a
    /// structured [`FaultPlanError`] instead.
    pub fn link_outage(self, seg_a: usize, seg_b: usize, from: f64, until: f64) -> Self {
        match self.try_link_outage(seg_a, seg_b, from, until) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`FaultPlan::link_outage`]: rejects empty
    /// windows with a structured [`FaultPlanError`]. (An outage is the
    /// one legitimate infinite-factor window; it is stored with
    /// `factor = ∞` internally and handled by the start-pushing loop in
    /// [`FaultPlan::adjust_transfer`], never by duration stretching.)
    pub fn try_link_outage(
        mut self,
        seg_a: usize,
        seg_b: usize,
        from: f64,
        until: f64,
    ) -> Result<Self, FaultPlanError> {
        let window_ok = until > from;
        if !window_ok {
            return Err(FaultPlanError::EmptyWindow { from, until });
        }
        self.links.push(LinkWindow {
            a: seg_a.min(seg_b),
            b: seg_a.max(seg_b),
            from,
            until,
            factor: f64::INFINITY,
        });
        Ok(self)
    }

    /// The `seg_a`↔`seg_b` link is `factor`× slower for transfers
    /// starting during `[from, until)` (the factor is sampled at the
    /// transfer's start — a documented approximation).
    ///
    /// # Panics
    /// On a NaN/±∞/sub-1 factor or an empty window; use
    /// [`FaultPlan::try_link_degraded`] for a structured
    /// [`FaultPlanError`] instead. An infinite factor used to slip
    /// through the old range assert and then be silently ignored by the
    /// finite-factor match in [`FaultPlan::adjust_transfer`]; it is now
    /// rejected here with a pointer to [`FaultPlan::link_outage`].
    pub fn link_degraded(
        self,
        seg_a: usize,
        seg_b: usize,
        from: f64,
        until: f64,
        factor: f64,
    ) -> Self {
        match self.try_link_degraded(seg_a, seg_b, from, until, factor) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`FaultPlan::link_degraded`]: rejects NaN, ±∞
    /// and sub-1 factors (and empty windows) with a structured
    /// [`FaultPlanError`].
    pub fn try_link_degraded(
        mut self,
        seg_a: usize,
        seg_b: usize,
        from: f64,
        until: f64,
        factor: f64,
    ) -> Result<Self, FaultPlanError> {
        let factor_ok = factor.is_finite() && factor >= 1.0;
        if !factor_ok {
            return Err(FaultPlanError::InvalidLinkFactor {
                seg_a: seg_a.min(seg_b),
                seg_b: seg_a.max(seg_b),
                factor,
            });
        }
        let window_ok = until > from;
        if !window_ok {
            return Err(FaultPlanError::EmptyWindow { from, until });
        }
        self.links.push(LinkWindow {
            a: seg_a.min(seg_b),
            b: seg_a.max(seg_b),
            from,
            until,
            factor,
        });
        Ok(self)
    }

    /// Largest slowdown factor that any window for `rank` applies at or
    /// after `start` (1.0 when no window is active). This is the
    /// analytic worst case a scheduler may use to bound how late a
    /// merely-slowed (not crashed) rank can finish nominal work.
    pub fn max_slowdown_factor(&self, rank: usize, start: f64) -> f64 {
        self.slowdowns
            .iter()
            .filter(|s| s.rank == rank && s.until > start)
            .map(|s| s.factor)
            .fold(1.0f64, f64::max)
    }

    /// Earliest scheduled crash time of `rank`, if any.
    pub fn crash_time(&self, rank: usize) -> Option<f64> {
        self.crashes
            .iter()
            .filter(|&&(r, _)| r == rank)
            .map(|&(_, at)| at)
            .min_by(f64::total_cmp)
    }

    /// Virtual end time of `secs` seconds of nominal compute starting at
    /// `start` on `rank`, stretched through the rank's slowdown windows
    /// by piecewise integration. Overlapping windows apply the largest
    /// factor.
    pub fn dilate(&self, rank: usize, start: f64, secs: f64) -> f64 {
        debug_assert!(secs >= 0.0);
        if secs <= 0.0 {
            return start;
        }
        let wins: Vec<&Slowdown> = self
            .slowdowns
            .iter()
            .filter(|s| s.rank == rank && s.until > start)
            .collect();
        if wins.is_empty() {
            return start + secs;
        }
        let mut t = start;
        let mut remaining = secs; // nominal work-seconds still to do
        loop {
            let factor = wins
                .iter()
                .filter(|w| w.from <= t && t < w.until)
                .map(|w| w.factor)
                .fold(1.0f64, f64::max);
            let next_boundary = wins
                .iter()
                .flat_map(|w| [w.from, w.until])
                .filter(|&b| b > t)
                .fold(f64::INFINITY, f64::min);
            let capacity = (next_boundary - t) / factor;
            if capacity >= remaining {
                return t + remaining * factor;
            }
            remaining -= capacity;
            t = next_boundary;
        }
    }

    /// Adjusts a transfer over the `seg_a`↔`seg_b` link that would start
    /// no earlier than `earliest` and last `duration`: outage windows
    /// push the start past their end, degradation windows stretch the
    /// duration. Returns `(earliest', duration')`.
    pub fn adjust_transfer(
        &self,
        seg_a: usize,
        seg_b: usize,
        earliest: f64,
        duration: f64,
    ) -> (f64, f64) {
        if self.links.is_empty() {
            return (earliest, duration);
        }
        let key = (seg_a.min(seg_b), seg_a.max(seg_b));
        let mut start = earliest;
        loop {
            let mut moved = false;
            for w in &self.links {
                if (w.a, w.b) == key && w.factor.is_infinite() && w.from <= start && start < w.until
                {
                    start = w.until;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        let factor = self
            .links
            .iter()
            .filter(|w| {
                (w.a, w.b) == key && w.factor.is_finite() && w.from <= start && start < w.until
            })
            .map(|w| w.factor)
            .fold(1.0f64, f64::max);
        (start, duration * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_identity() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.crash_time(3), None);
        assert_eq!(plan.dilate(0, 1.0, 2.0), 3.0);
        assert_eq!(plan.adjust_transfer(0, 1, 5.0, 0.5), (5.0, 0.5));
    }

    #[test]
    fn earliest_crash_wins() {
        let plan = FaultPlan::new().crash(2, 5.0).crash(2, 1.5).crash(1, 9.0);
        assert_eq!(plan.crash_time(2), Some(1.5));
        assert_eq!(plan.crash_time(1), Some(9.0));
        assert_eq!(plan.crash_time(0), None);
    }

    #[test]
    fn dilate_inside_window() {
        // 2x slowdown on [0, 100): 3 s of work takes 6 s.
        let plan = FaultPlan::new().slowdown(0, 0.0, 100.0, 2.0);
        assert!((plan.dilate(0, 1.0, 3.0) - 7.0).abs() < 1e-12);
        // Other ranks unaffected.
        assert_eq!(plan.dilate(1, 1.0, 3.0), 4.0);
    }

    #[test]
    fn dilate_across_window_boundary() {
        // 3x slowdown on [2, 4). Work of 4 s starting at 0:
        // 2 s nominal before the window, then 2/3 s of work fills [2,4),
        // leaving 4 - 2 - 2/3 to run after 4.0 at nominal speed.
        let plan = FaultPlan::new().slowdown(0, 2.0, 4.0, 3.0);
        let end = plan.dilate(0, 0.0, 4.0);
        let expect = 4.0 + (4.0 - 2.0 - 2.0 / 3.0);
        assert!((end - expect).abs() < 1e-12, "end {end} expect {expect}");
    }

    #[test]
    fn dilate_overlapping_windows_take_max_factor() {
        let plan = FaultPlan::new()
            .slowdown(0, 0.0, 10.0, 2.0)
            .slowdown(0, 0.0, 10.0, 4.0);
        assert!((plan.dilate(0, 0.0, 1.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn outage_pushes_transfer_start() {
        let plan = FaultPlan::new().link_outage(0, 1, 1.0, 3.0);
        assert_eq!(plan.adjust_transfer(1, 0, 2.0, 0.5), (3.0, 0.5));
        // Starting before the window is unaffected (the engine reserves
        // from the adjusted earliest; contention may still delay it).
        assert_eq!(plan.adjust_transfer(0, 1, 0.5, 0.2), (0.5, 0.2));
        // Other links unaffected.
        assert_eq!(plan.adjust_transfer(2, 3, 2.0, 0.5), (2.0, 0.5));
    }

    #[test]
    fn chained_outages_push_repeatedly() {
        let plan = FaultPlan::new()
            .link_outage(0, 1, 1.0, 3.0)
            .link_outage(0, 1, 3.0, 5.0);
        assert_eq!(plan.adjust_transfer(0, 1, 2.0, 0.5), (5.0, 0.5));
    }

    #[test]
    fn degradation_stretches_duration() {
        let plan = FaultPlan::new().link_degraded(0, 1, 0.0, 10.0, 4.0);
        assert_eq!(plan.adjust_transfer(0, 1, 2.0, 0.5), (2.0, 2.0));
        // Outside the window: untouched.
        assert_eq!(plan.adjust_transfer(0, 1, 20.0, 0.5), (20.0, 0.5));
    }

    #[test]
    fn non_finite_slowdown_factors_are_rejected_at_construction() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -2.0] {
            let err = FaultPlan::new()
                .try_slowdown(3, 0.0, 1.0, bad)
                .expect_err("factor must be rejected");
            match err {
                FaultPlanError::InvalidSlowdownFactor { rank, factor } => {
                    assert_eq!(rank, 3);
                    assert!(factor.is_nan() == bad.is_nan() && (factor.is_nan() || factor == bad));
                }
                other => panic!("wrong error: {other:?}"),
            }
        }
        // Valid factors (including turbo-boost < 1) still construct.
        assert!(FaultPlan::new().try_slowdown(0, 0.0, 1.0, 0.5).is_ok());
        assert!(FaultPlan::new().try_slowdown(0, 0.0, 1.0, 8.0).is_ok());
    }

    #[test]
    fn non_finite_link_degradation_factors_are_rejected_at_construction() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5, -1.0] {
            let err = FaultPlan::new()
                .try_link_degraded(1, 0, 0.0, 1.0, bad)
                .expect_err("factor must be rejected");
            match err {
                FaultPlanError::InvalidLinkFactor { seg_a, seg_b, .. } => {
                    assert_eq!((seg_a, seg_b), (0, 1), "segments normalised low-high");
                }
                other => panic!("wrong error: {other:?}"),
            }
        }
        // The error text points the caller at the outage API.
        let msg = FaultPlan::new()
            .try_link_degraded(0, 1, 0.0, 1.0, f64::INFINITY)
            .expect_err("infinite degradation rejected")
            .to_string();
        assert!(msg.contains("link_outage"), "got: {msg}");
        // link_outage itself (the legitimate internal ∞) is unaffected.
        let plan = FaultPlan::new().link_outage(0, 1, 1.0, 3.0);
        assert_eq!(plan.adjust_transfer(0, 1, 2.0, 0.5), (3.0, 0.5));
    }

    #[test]
    fn infallible_builders_panic_with_structured_message() {
        let caught = std::panic::catch_unwind(|| {
            let _ = FaultPlan::new().slowdown(2, 0.0, 1.0, f64::INFINITY);
        })
        .expect_err("must panic");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("finite"), "got: {msg}");
        assert!(msg.contains("rank 2"), "got: {msg}");
    }

    #[test]
    fn empty_windows_and_bad_crash_times_are_structured_errors() {
        assert_eq!(
            FaultPlan::new().try_slowdown(0, 2.0, 2.0, 2.0),
            Err(FaultPlanError::EmptyWindow {
                from: 2.0,
                until: 2.0
            })
        );
        assert_eq!(
            FaultPlan::new().try_link_outage(0, 1, 5.0, 4.0),
            Err(FaultPlanError::EmptyWindow {
                from: 5.0,
                until: 4.0
            })
        );
        assert_eq!(
            FaultPlan::new().try_crash(1, -0.5),
            Err(FaultPlanError::InvalidCrashTime { rank: 1, at: -0.5 })
        );
        assert!(FaultPlan::new().try_crash(1, f64::NAN).is_err());
        assert!(FaultPlan::new().try_crash(1, f64::INFINITY).is_err());
    }

    #[test]
    fn max_slowdown_factor_reports_worst_active_window() {
        let plan = FaultPlan::new()
            .slowdown(1, 0.0, 2.0, 3.0)
            .slowdown(1, 1.0, 5.0, 6.0)
            .slowdown(2, 0.0, 9.0, 2.0);
        assert_eq!(plan.max_slowdown_factor(1, 0.0), 6.0);
        // Windows entirely before `start` no longer apply.
        assert_eq!(plan.max_slowdown_factor(1, 2.5), 6.0);
        assert_eq!(plan.max_slowdown_factor(1, 5.5), 1.0);
        assert_eq!(plan.max_slowdown_factor(0, 0.0), 1.0);
    }

    #[test]
    fn display_formats() {
        let f = RankFailure {
            rank: 3,
            at: 1.25,
            cause: FailureCause::Crash,
        };
        assert!(f.to_string().contains("rank 3"));
        assert!(f.to_string().contains("planned crash"));
        let e = RecvError::Timeout { deadline: 2.0 };
        assert!(e.to_string().contains("deadline"));
        assert!(RecvError::Failed(f).to_string().contains("rank 3"));
        assert!(FailureCause::Panic("boom".into())
            .to_string()
            .contains("boom"));
        assert!(FailureCause::PeerLost { peer: 7 }.to_string().contains('7'));
    }
}
