//! Execution tracing: per-rank virtual-time event timelines.
//!
//! [`crate::Engine::run_traced`] records every compute interval, send
//! overhead and receive wait with its virtual start/end times, giving a
//! Gantt-style view of a run — the tool for understanding *why* a
//! network shows a particular COM/SEQ/PAR split or imbalance.
//!
//! Events are collected from all rank threads and canonically sorted, so
//! traces of deterministic programs are themselves deterministic.

use std::fmt::Write as _;

/// What a rank was doing during a traced interval.
///
/// `Recv` and `Offload` carry the extra timing facts the post-run
/// profiler ([`crate::prof`]) needs: message provenance for
/// critical-path extraction and the nominal offload sub-phase split.
/// The fields are `f64`, so the enum is `PartialEq` but (deliberately)
/// not `Eq`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// Parallel-phase computation.
    ComputePar,
    /// Offloaded kernel execution on the rank's attached accelerator.
    /// The four fields are the *nominal* (pre-fault-dilation) seconds of
    /// the closed form [`crate::accel::DeviceSpec::offload_secs`]
    /// charges: launch latency, host→device staging, device compute,
    /// device→host staging.
    Offload {
        /// Fixed per-launch dispatch latency (nominal seconds).
        launch: f64,
        /// Host→device transfer (nominal seconds).
        h2d: f64,
        /// Device kernel execution (nominal seconds).
        compute: f64,
        /// Device→host transfer (nominal seconds).
        d2h: f64,
    },
    /// Sequential-phase computation (root-only work).
    ComputeSeq,
    /// Sender-side message injection overhead.
    Send {
        /// Destination rank.
        dst: usize,
    },
    /// Waiting for a message: a delivered receive, a deadline timeout,
    /// or a failure observation (see `delivered`).
    Recv {
        /// Source rank.
        src: usize,
        /// `true` when a message was actually delivered; `false` for a
        /// [`crate::Ctx::recv_deadline`] timeout or a failure
        /// observation (both pure waits — no message dependency).
        delivered: bool,
        /// The sender's virtual clock when it injected the message
        /// (after its send overhead). Meaningful only when `delivered`.
        sent_at: f64,
        /// Link-occupancy seconds of the delivered transfer.
        transfer: f64,
        /// Seconds the transfer queued behind earlier reservations on
        /// the serial inter-segment link (`0` for intra-segment and
        /// worker↔worker traffic).
        queued: f64,
    },
    /// The rank failed at this instant (zero-length marker).
    Crash,
    /// Master-side recovery span: re-planning after losing a worker.
    Recovery {
        /// The rank whose loss triggered the recovery.
        lost: usize,
    },
    /// Membership epoch bump (zero-length marker): the coordinator's
    /// view observed a new failure and advanced to `epoch`.
    EpochBump {
        /// The epoch the view moved to.
        epoch: u64,
    },
}

/// One traced interval on a rank's virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The rank the event belongs to.
    pub rank: usize,
    /// Virtual start time (seconds).
    pub start: f64,
    /// Virtual end time (seconds).
    pub end: f64,
    /// Activity kind.
    pub kind: TraceKind,
}

/// A complete run trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events sorted by `(rank, start, end)`.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Canonicalises event order (called by the engine after the run).
    pub(crate) fn finalize(&mut self) {
        self.events.sort_by(|a, b| {
            (a.rank, a.start, a.end)
                .partial_cmp(&(b.rank, b.start, b.end))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }

    /// Events of one rank, in timeline order.
    pub fn for_rank(&self, rank: usize) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter().filter(move |e| e.rank == rank)
    }

    /// Latest event end across all ranks.
    pub fn horizon(&self) -> f64 {
        self.events.iter().map(|e| e.end).fold(0.0, f64::max)
    }

    /// Renders a text Gantt chart, one row per rank, `width` columns
    /// wide. Legend: `#` parallel compute, `D` device offload,
    /// `S` sequential compute, `s` send overhead, `r` receive wait,
    /// `X` crash, `R` recovery, `E` epoch bump, `.` idle.
    pub fn gantt(&self, num_ranks: usize, width: usize) -> String {
        let horizon = self.horizon().max(f64::MIN_POSITIVE);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "virtual time 0 .. {horizon:.3} s  (# par, D offload, S seq, s send, r recv, X crash, R recovery, E epoch, . idle)"
        );
        for rank in 0..num_ranks {
            let mut row = vec!['.'; width];
            for e in self.for_rank(rank) {
                let mut a = ((e.start / horizon) * width as f64).floor() as usize;
                let mut b = (((e.end / horizon) * width as f64).ceil() as usize).min(width);
                if b <= a {
                    // Zero-length markers (e.g. a crash) still get one cell.
                    a = a.min(width.saturating_sub(1));
                    b = (a + 1).min(width);
                }
                let ch = match e.kind {
                    TraceKind::ComputePar => '#',
                    TraceKind::Offload { .. } => 'D',
                    TraceKind::ComputeSeq => 'S',
                    TraceKind::Send { .. } => 's',
                    TraceKind::Recv { .. } => 'r',
                    TraceKind::Crash => 'X',
                    TraceKind::Recovery { .. } => 'R',
                    TraceKind::EpochBump { .. } => 'E',
                };
                for c in row.iter_mut().take(b).skip(a.min(width)) {
                    // Compute (host or device) paints over comm; fault
                    // markers paint over everything (they're the rarest
                    // and most important).
                    let is_compute = ch == '#' || ch == 'D';
                    if *c == '.'
                        || (*c != '#' && *c != 'D' && is_compute)
                        || ch == 'X'
                        || ch == 'R'
                        || ch == 'E'
                    {
                        *c = ch;
                    }
                }
            }
            let _ = writeln!(out, "r{rank:03} |{}|", row.into_iter().collect::<String>());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Ctx, Engine};
    use crate::Platform;

    fn traced_run() -> (crate::RunReport<usize>, Trace) {
        let engine = Engine::new(Platform::uniform("t", 3, 0.01, 64, 5.0));
        engine.run_traced(|ctx: &mut Ctx<u64>| {
            ctx.compute_par(100.0 * (ctx.rank() + 1) as f64);
            if ctx.is_root() {
                ctx.compute_seq(50.0);
                for src in 1..ctx.num_ranks() {
                    let _ = ctx.recv(src);
                }
            } else {
                ctx.send(0, ctx.rank() as u64);
            }
            ctx.rank()
        })
    }

    #[test]
    fn trace_captures_all_kinds() {
        let (_, trace) = traced_run();
        let kinds: Vec<_> = trace.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TraceKind::ComputePar));
        assert!(kinds.contains(&TraceKind::ComputeSeq));
        assert!(kinds.iter().any(|k| matches!(k, TraceKind::Send { .. })));
        assert!(kinds.iter().any(|k| matches!(k, TraceKind::Recv { .. })));
    }

    #[test]
    fn events_are_well_formed_and_sorted() {
        let (_, trace) = traced_run();
        for e in &trace.events {
            assert!(e.end >= e.start, "negative interval: {e:?}");
            assert!(e.rank < 3);
        }
        for w in trace.events.windows(2) {
            assert!(
                (w[0].rank, w[0].start) <= (w[1].rank, w[1].start),
                "not sorted"
            );
        }
    }

    #[test]
    fn per_rank_intervals_do_not_overlap() {
        let (_, trace) = traced_run();
        for rank in 0..3 {
            let evs: Vec<_> = trace.for_rank(rank).collect();
            for w in evs.windows(2) {
                assert!(w[1].start >= w[0].end - 1e-12, "rank {rank}: overlap {w:?}");
            }
        }
    }

    #[test]
    fn trace_busy_matches_ledger() {
        let (report, trace) = traced_run();
        let mut busy = [0.0; 3];
        for e in &trace.events {
            busy[e.rank] += e.end - e.start;
        }
        for (rank, ledger) in report.ledgers.iter().enumerate() {
            // Trace busy covers compute + send overhead + recv wait
            // (comm + idle), i.e. everything except untraced gaps.
            let expect = ledger.compute_par + ledger.compute_seq + ledger.comm + ledger.idle;
            assert!(
                (busy[rank] - expect).abs() < 1e-9,
                "rank {rank}: trace {} vs ledger {}",
                busy[rank],
                expect
            );
        }
    }

    #[test]
    fn gantt_renders_every_rank() {
        let (_, trace) = traced_run();
        let chart = trace.gantt(3, 40);
        assert_eq!(chart.lines().count(), 4); // header + 3 ranks
        assert!(chart.contains("r000"));
        assert!(chart.contains('#'));
    }

    #[test]
    fn gantt_marks_crash_and_recovery() {
        let trace = Trace {
            events: vec![
                TraceEvent {
                    rank: 0,
                    start: 0.5,
                    end: 1.0,
                    kind: TraceKind::Recovery { lost: 1 },
                },
                TraceEvent {
                    rank: 1,
                    start: 1.0,
                    end: 1.0, // zero-length crash marker at the horizon
                    kind: TraceKind::Crash,
                },
            ],
        };
        let chart = trace.gantt(2, 20);
        assert!(chart.contains('R'), "recovery span rendered:\n{chart}");
        assert!(chart.contains('X'), "crash marker rendered:\n{chart}");
    }

    #[test]
    fn traces_are_deterministic() {
        let (_, a) = traced_run();
        let (_, b) = traced_run();
        assert_eq!(a.events, b.events);
    }
}
