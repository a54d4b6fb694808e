//! The deterministic membership/epoch protocol behind the collectives'
//! member-set parameter.
//!
//! A fault-tolerant master cannot keep tree collectives alive on a fixed
//! all-ranks schedule: once an interior relay crashes, every later round
//! routed through it loses the whole subtree (`docs/COMMS.md`, failure
//! semantics). This module provides the agreement layer that fixes it:
//!
//! * [`Membership`] — an epoch-stamped alive-set view. Every collective
//!   in [`crate::coll`] builds its schedule over a view's survivor set;
//!   [`Membership::new`] (every rank alive) is what the all-ranks call
//!   shapes pass. The master owns the authoritative copy and bumps the
//!   epoch on every observed [`RankFailure`]; workers rebuild their copy
//!   from the `(epoch, survivors)` header the master piggybacks on the
//!   first send of each round ([`Membership::from_survivors`]).
//!
//! Everything here is deterministic: views only change when their owner
//! observes a failure (a virtual-time event), schedules are pure
//! functions of `(view, algorithm, platform)`, and the collectives' cost
//! model replays the survivor schedule exactly.

use crate::faults::{FailureCause, RankFailure};

/// An epoch-stamped view of which ranks are alive.
///
/// The epoch is a monotone counter that bumps on every *newly* observed
/// failure, so two views with the same epoch (derived from the same
/// observation sequence) agree on the survivor set — the property the
/// view-taking collectives rely on when every participant passes the
/// same view.
#[derive(Debug, Clone, PartialEq)]
pub struct Membership {
    epoch: u64,
    alive: Vec<bool>,
    /// The failures this view observed directly, ascending by rank;
    /// empty for views rebuilt from a wire header, which carries the
    /// survivor set but not the causes. Sparse so that the all-alive
    /// view every all-ranks collective call builds costs one `Vec<bool>`.
    failures: Vec<RankFailure>,
}

impl Membership {
    /// The initial view: epoch 0, every rank alive.
    pub fn new(num_ranks: usize) -> Self {
        Membership {
            epoch: 0,
            alive: vec![true; num_ranks],
            failures: Vec::new(),
        }
    }

    /// Rebuilds a view from an `(epoch, survivors)` wire header.
    /// Failure causes are unknown to the receiver, so
    /// [`Membership::lost_entry`] synthesizes them on demand.
    pub fn from_survivors(epoch: u64, num_ranks: usize, survivors: &[usize]) -> Self {
        let mut alive = vec![false; num_ranks];
        for &r in survivors {
            alive[r] = true;
        }
        Membership {
            epoch,
            alive,
            failures: Vec::new(),
        }
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total rank count the view covers (alive or not).
    pub fn num_ranks(&self) -> usize {
        self.alive.len()
    }

    /// `true` while `rank` has no observed failure in this view; `false`
    /// for a rank the view does not cover at all.
    pub fn is_alive(&self, rank: usize) -> bool {
        self.alive.get(rank).copied().unwrap_or(false)
    }

    /// The alive flag of every rank the view covers — what keys the
    /// run's schedule memo, without materialising the survivor list.
    pub(crate) fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// The surviving ranks, ascending.
    pub fn survivors(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&r| self.alive[r]).collect()
    }

    /// Number of surviving ranks.
    pub fn num_survivors(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Observes a failure: marks the rank dead, records the cause and
    /// bumps the epoch. Returns `false` (and changes nothing) when the
    /// rank is not alive in this view — already dead, since re-observing
    /// the same permanent failure must not advance the epoch, or outside
    /// the view altogether (like [`Membership::is_alive`]).
    pub fn observe_failure(&mut self, failure: &RankFailure) -> bool {
        let r = failure.rank;
        if !self.is_alive(r) {
            return false;
        }
        self.alive[r] = false;
        let at = self.failures.partition_point(|f| f.rank < r);
        self.failures.insert(at, failure.clone());
        self.epoch += 1;
        true
    }

    /// The recorded failure of a dead rank, when the view observed it
    /// directly (views rebuilt from a wire header have none).
    pub fn failure_of(&self, rank: usize) -> Option<&RankFailure> {
        self.failures.iter().find(|f| f.rank == rank)
    }

    /// The failure record a gather reports for a rank outside the
    /// survivor set: the observed one when recorded, otherwise a
    /// synthesized `PeerLost` (deterministic — wire-rebuilt views know
    /// *that* a rank is gone, not when or why).
    pub fn lost_entry(&self, rank: usize) -> RankFailure {
        debug_assert!(!self.alive[rank], "lost_entry: rank {rank} is alive");
        self.failure_of(rank).cloned().unwrap_or(RankFailure {
            rank,
            at: 0.0,
            cause: FailureCause::PeerLost { peer: rank },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coll::{
        allreduce_over, broadcast_over, gather_over, reduce_over, CollAlgorithm, CollError,
        CollectiveConfig,
    };

    fn failure(rank: usize, at: f64) -> RankFailure {
        RankFailure {
            rank,
            at,
            cause: FailureCause::Crash,
        }
    }

    #[test]
    fn epoch_bumps_once_per_newly_observed_failure() {
        let mut view = Membership::new(6);
        assert_eq!(view.epoch(), 0);
        assert_eq!(view.num_survivors(), 6);
        assert!(view.observe_failure(&failure(3, 1.0)));
        assert_eq!(view.epoch(), 1);
        assert!(!view.is_alive(3));
        // Re-observing the same permanent failure changes nothing.
        assert!(!view.observe_failure(&failure(3, 1.0)));
        assert_eq!(view.epoch(), 1);
        assert!(view.observe_failure(&failure(1, 2.0)));
        assert_eq!(view.epoch(), 2);
        assert_eq!(view.survivors(), vec![0, 2, 4, 5]);
        assert_eq!(view.failure_of(3), Some(&failure(3, 1.0)));
    }

    #[test]
    fn wire_rebuilt_view_matches_survivor_set() {
        let mut owner = Membership::new(5);
        owner.observe_failure(&failure(2, 0.5));
        let rebuilt = Membership::from_survivors(owner.epoch(), 5, &owner.survivors());
        assert_eq!(rebuilt.epoch(), owner.epoch());
        assert_eq!(rebuilt.survivors(), owner.survivors());
        // Causes don't travel on the wire; lost entries are synthesized.
        assert_eq!(rebuilt.failure_of(2), None);
        assert_eq!(
            rebuilt.lost_entry(2).cause,
            FailureCause::PeerLost { peer: 2 }
        );
        // The owner reports the observed failure verbatim.
        assert_eq!(owner.lost_entry(2), failure(2, 0.5));
    }

    #[test]
    fn a_failure_outside_the_view_changes_nothing() {
        // A marker for a rank the view does not cover: not alive, so —
        // like `is_alive` — no panic, no epoch bump, no record.
        let mut view = Membership::new(4);
        assert!(!view.observe_failure(&failure(4, 1.0)));
        assert!(!view.observe_failure(&failure(usize::MAX, 1.0)));
        assert_eq!(view, Membership::new(4));
    }

    #[test]
    fn single_survivor_view_is_well_formed() {
        let view = Membership::from_survivors(15, 16, &[3]);
        assert_eq!(view.epoch(), 15);
        assert_eq!(view.num_ranks(), 16);
        assert_eq!(view.num_survivors(), 1);
        assert_eq!(view.survivors(), vec![3]);
        for r in 0..16 {
            assert_eq!(view.is_alive(r), r == 3, "rank {r}");
        }
        // Dead ranks synthesize deterministic PeerLost entries.
        assert_eq!(view.lost_entry(0).cause, FailureCause::PeerLost { peer: 0 });
    }

    #[test]
    fn single_survivor_collectives_are_identity_operations() {
        // A view reduced to its root: every view-taking collective must
        // complete locally — no traffic, payload returned verbatim.
        use crate::engine::{Engine, WireVec};
        let platform = crate::presets::fully_heterogeneous();
        let cfg = CollectiveConfig::uniform(CollAlgorithm::SegmentHierarchical);
        let report = Engine::new(platform).run(move |ctx| {
            if ctx.rank() != 0 {
                return None;
            }
            let view = Membership::from_survivors(15, 16, &[0]);
            let b = broadcast_over(ctx, &cfg, 0, &view, Some(WireVec(vec![9u32; 4])), 128)
                .expect("sole member broadcasts to itself");
            let a = allreduce_over(
                ctx,
                &cfg,
                0,
                &view,
                WireVec(vec![7u32; 4]),
                |x, y| WireVec(x.0.iter().zip(&y.0).map(|(p, q)| p + q).collect()),
                128,
            )
            .expect("sole member folds only itself");
            let g = gather_over(ctx, &cfg, 0, &view, WireVec(vec![1u32]), 32)
                .expect("sole member gathers itself")
                .expect("the sole member is the root");
            Some((b.0, a.0, g.len(), ctx.elapsed()))
        });
        let (b, a, g_len, _elapsed) = report.result(0).clone().expect("root ran");
        assert_eq!(b, vec![9u32; 4]);
        assert_eq!(a, vec![7u32; 4], "nothing to fold but the own payload");
        // The gather is rank-indexed: 16 entries, 15 of them Lost.
        assert_eq!(g_len, 16);
    }

    #[test]
    fn out_of_range_root_is_not_a_member() {
        // A root the view does not cover is a structured NotAMember from
        // every view-taking collective — before any traffic, never an
        // index panic.
        use crate::engine::Engine;
        let cfg = CollectiveConfig::uniform(CollAlgorithm::BinomialTree);
        let report = Engine::new(crate::presets::fully_heterogeneous()).run(move |ctx| {
            let view = Membership::new(ctx.num_ranks());
            let root = ctx.num_ranks() + 3;
            [
                broadcast_over(ctx, &cfg, root, &view, None::<u64>, 64).err(),
                gather_over(ctx, &cfg, root, &view, 1u64, 64).err(),
                reduce_over(ctx, &cfg, root, &view, 1u64, |a, b| a + b, 64).err(),
                allreduce_over(ctx, &cfg, root, &view, 1u64, |a, b| a + b, 64).err(),
            ]
        });
        assert!(report.ok());
        assert!(report.collectives.is_empty(), "rejected before selection");
        for r in 0..16 {
            for (i, e) in report.result(r).iter().enumerate() {
                assert_eq!(
                    *e,
                    Some(CollError::NotAMember { rank: 19 }),
                    "rank {r}, collective {i}"
                );
            }
        }
    }

    #[test]
    fn epoch_bumps_on_the_final_observed_failure() {
        // Observing failures down to a single survivor: the *last*
        // observation (the round that empties the view to one member)
        // bumps the epoch exactly like every earlier one.
        let mut view = Membership::new(4);
        for (i, dead) in [3usize, 1, 2].iter().enumerate() {
            assert!(view.observe_failure(&failure(*dead, i as f64)));
            assert_eq!(view.epoch(), i as u64 + 1);
        }
        assert_eq!(view.num_survivors(), 1);
        assert_eq!(view.survivors(), vec![0]);
        assert_eq!(view.epoch(), 3, "final round bumped the epoch");
        // Re-observing any of them after the final round is inert.
        assert!(!view.observe_failure(&failure(2, 9.0)));
        assert_eq!(view.epoch(), 3);
    }

    #[test]
    fn from_survivors_round_trips_through_itself() {
        let mut owner = Membership::new(9);
        owner.observe_failure(&failure(4, 0.25));
        owner.observe_failure(&failure(7, 0.50));
        let once = Membership::from_survivors(owner.epoch(), owner.num_ranks(), &owner.survivors());
        let twice = Membership::from_survivors(once.epoch(), once.num_ranks(), &once.survivors());
        // The wire round-trip is idempotent and loses nothing but the
        // failure causes: epoch, rank count and survivor set all survive
        // both hops.
        assert_eq!(once, twice);
        assert_eq!(twice.epoch(), owner.epoch());
        assert_eq!(twice.num_ranks(), owner.num_ranks());
        assert_eq!(twice.survivors(), owner.survivors());
        // Survivor order is normalized: a shuffled survivor list
        // rebuilds the identical view.
        let shuffled = Membership::from_survivors(owner.epoch(), 9, &[8, 0, 5, 3, 6, 2, 1]);
        assert_eq!(shuffled, once);
    }
}
