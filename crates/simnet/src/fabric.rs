//! The run's *fabric*: everything the ranks of one
//! [`crate::Engine::run`] share, built once in O(P).
//!
//! * **A mailbox per rank** — one mutex over per-source FIFOs plus the
//!   source the owner is currently blocked on, and one condition
//!   variable. [`Fabric::post`] pushes onto the destination's queue for
//!   the sender and wakes the owner *only if it is blocked on that
//!   sender*; [`Fabric::take`] pops. Each source has its own queue, so
//!   messages between a pair arrive in send order (MPI's guarantee)
//!   however other senders interleave. Queues are created on a source's
//!   first message: a star costs the root P − 1 queues and every worker
//!   one.
//! * **The exit board** — one write-once slot per rank holding its final
//!   clock and, for a failure, the cause. [`Fabric::leave`] publishes the
//!   slot and then wakes just the peers blocked on the leaver. A receiver
//!   consults the board *only after that source's queue is empty, under
//!   its own mailbox lock*: every `post` the leaver made completed before
//!   it published, so the exit trails every real message by construction.
//! * **The schedule memo** ([`ScheduleMemo`]) — a collective schedule is
//!   built once per `(algorithm, root)` per run and shared by every rank
//!   that plans over it.
//! * **The link ledger** — the run's one [`LinkLedger`] behind a mutex
//!   that [`crate::contention::charge`] takes only for a transfer that
//!   queues on a serial link.
//!
//! The fabric is the single place that sees every send, receive and exit
//! of a run. It carries no virtual-time logic: arrival times are
//! resolved by the ranks themselves through
//! [`crate::contention::charge`] (which says who reserves a link; the
//! engine says in whose program order), so nothing here can move a
//! virtual number.

use crate::coll::ScheduleMemo;
use crate::contention::LinkLedger;
use crate::faults::FailureCause;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// A rank's entry on the exit board.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Exit {
    /// The rank's virtual clock when it left.
    pub(crate) at: f64,
    /// `None`: clean exit. `Some`: why the rank failed.
    pub(crate) failure: Option<FailureCause>,
}

struct Inbox<T> {
    /// Per-source FIFOs, created on a source's first message.
    queues: BTreeMap<usize, VecDeque<T>>,
    /// The source the owner is blocked on in [`Fabric::take`], if any.
    waiting_on: Option<usize>,
}

struct Mailbox<T> {
    inbox: Mutex<Inbox<T>>,
    /// Signalled when the source the owner waits on posts or leaves.
    /// Only the owner ever waits here, so `notify_one` reaches it.
    arrived: Condvar,
}

impl<T> Mailbox<T> {
    fn lock(&self) -> MutexGuard<'_, Inbox<T>> {
        // Critical sections only move queue entries; none can panic.
        self.inbox
            .lock()
            .expect("fabric: no rank panics while holding a mailbox")
    }
}

/// The shared state of one run over `T`-typed in-flight messages.
pub(crate) struct Fabric<T> {
    mailboxes: Vec<Mailbox<T>>,
    exits: Vec<OnceLock<Exit>>,
    /// The run's serial-link reservation ledger.
    pub(crate) links: Mutex<LinkLedger>,
    /// The run's collective schedules.
    pub(crate) schedules: ScheduleMemo,
}

impl<T> Fabric<T> {
    /// The fabric of a `ranks`-rank run: empty mailboxes, an empty exit
    /// board, free links, no schedules.
    pub(crate) fn new(ranks: usize) -> Self {
        Fabric {
            mailboxes: (0..ranks)
                .map(|_| Mailbox {
                    inbox: Mutex::new(Inbox {
                        queues: BTreeMap::new(),
                        waiting_on: None,
                    }),
                    arrived: Condvar::new(),
                })
                .collect(),
            exits: (0..ranks).map(|_| OnceLock::new()).collect(),
            links: Mutex::new(LinkLedger::new()),
            schedules: ScheduleMemo::default(),
        }
    }

    /// Queues `item` from `src` for `dst`. An item for a rank that has
    /// already left is dropped — frames for a dead host.
    pub(crate) fn post(&self, src: usize, dst: usize, item: T) {
        let mailbox = &self.mailboxes[dst];
        let mut inbox = mailbox.lock();
        if self.exits[dst].get().is_some() {
            drop(inbox);
            return;
        }
        inbox.queues.entry(src).or_default().push_back(item);
        let wake = inbox.waiting_on == Some(src);
        drop(inbox);
        if wake {
            mailbox.arrived.notify_one();
        }
    }

    /// `me`'s next item from `src`, blocking (in wall-clock time) until
    /// one is posted; `Err` with `src`'s exit once `src` has left and
    /// everything it posted has been taken. The exit is permanent: every
    /// later call reports it again.
    pub(crate) fn take(&self, me: usize, src: usize) -> Result<T, Exit> {
        let mailbox = &self.mailboxes[me];
        let mut inbox = mailbox.lock();
        let found = loop {
            if let Some(item) = inbox.queues.get_mut(&src).and_then(VecDeque::pop_front) {
                break Ok(item);
            }
            if let Some(exit) = self.exits[src].get() {
                break Err(exit.clone());
            }
            inbox.waiting_on = Some(src);
            inbox = mailbox
                .arrived
                .wait(inbox)
                .expect("fabric: no rank panics while holding a mailbox");
        };
        inbox.waiting_on = None;
        found
    }

    /// Publishes `rank`'s exit, discards its undelivered mail and wakes
    /// the peers blocked on it. Called exactly once per rank, after its
    /// last `post`.
    pub(crate) fn leave(&self, rank: usize, exit: Exit) {
        self.exits[rank]
            .set(exit)
            .expect("fabric: a rank leaves exactly once");
        // A `post` that locks after this sees the published exit and
        // drops its item, so the mailbox stays empty from here on.
        let undelivered = std::mem::take(&mut self.mailboxes[rank].lock().queues);
        drop(undelivered);
        for (peer, mailbox) in self.mailboxes.iter().enumerate() {
            // A peer that has left never blocks again.
            if peer == rank || self.exits[peer].get().is_some() {
                continue;
            }
            // Under the peer's lock the peer is either before its board
            // check (and will see the slot) or already waiting (and is
            // woken here): no wake-up can be lost.
            let blocked = mailbox.lock().waiting_on == Some(rank);
            if blocked {
                mailbox.arrived.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn clean(at: f64) -> Exit {
        Exit { at, failure: None }
    }

    #[test]
    fn per_pair_fifo_survives_interleaved_senders_and_reverse_draining() {
        // 64 ranks interleave sends to rank 0, which drains its sources
        // in reverse rank order: each pair's sequence must arrive intact.
        const P: usize = 64;
        const N: u64 = 50;
        let fabric = Fabric::<(usize, u64)>::new(P);
        let start = Barrier::new(P);
        std::thread::scope(|scope| {
            for src in 1..P {
                let (fabric, start) = (&fabric, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..N {
                        fabric.post(src, 0, (src, i));
                    }
                    fabric.leave(src, clean(src as f64));
                });
            }
            start.wait();
            for src in (1..P).rev() {
                for i in 0..N {
                    assert_eq!(fabric.take(0, src), Ok((src, i)));
                }
                // Drained: the exit shows, and keeps showing.
                assert_eq!(fabric.take(0, src), Err(clean(src as f64)));
                assert_eq!(fabric.take(0, src), Err(clean(src as f64)));
            }
        });
    }

    #[test]
    fn an_exit_trails_everything_posted_before_it() {
        let fabric = Fabric::<u32>::new(2);
        fabric.post(1, 0, 7);
        fabric.post(1, 0, 8);
        let crash = Exit {
            at: 0.5,
            failure: Some(FailureCause::Crash),
        };
        fabric.leave(1, crash.clone());
        assert_eq!(fabric.take(0, 1), Ok(7));
        assert_eq!(fabric.take(0, 1), Ok(8));
        assert_eq!(fabric.take(0, 1), Err(crash));
    }

    #[test]
    fn a_blocked_receiver_is_woken_by_the_post_and_by_the_exit() {
        let fabric = Fabric::<u32>::new(3);
        std::thread::scope(|scope| {
            let receiver = scope.spawn(|| (fabric.take(0, 1), fabric.take(0, 1)));
            // Posts from a rank nobody waits on wake nobody and are kept.
            fabric.post(2, 0, 99);
            fabric.post(1, 0, 5);
            fabric.leave(1, clean(1.0));
            let (first, second) = receiver.join().expect("receiver");
            assert_eq!(first, Ok(5));
            assert_eq!(second, Err(clean(1.0)));
        });
        assert_eq!(fabric.take(0, 2), Ok(99));
    }

    #[test]
    fn mail_for_a_rank_that_left_is_dropped() {
        let fabric = Fabric::<std::sync::Arc<()>>::new(2);
        let payload = std::sync::Arc::new(());
        fabric.post(0, 1, std::sync::Arc::clone(&payload));
        assert_eq!(std::sync::Arc::strong_count(&payload), 2);
        fabric.leave(1, clean(0.0));
        assert_eq!(
            std::sync::Arc::strong_count(&payload),
            1,
            "undelivered mail dies with its host"
        );
        fabric.post(0, 1, std::sync::Arc::clone(&payload));
        assert_eq!(
            std::sync::Arc::strong_count(&payload),
            1,
            "a frame for a dead host is dropped"
        );
    }
}
