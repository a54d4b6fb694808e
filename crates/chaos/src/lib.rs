//! # chaos — deterministic whole-stack differential fuzzing
//!
//! A seed-driven scenario fuzzer, seven-invariant oracle and greedy
//! scenario shrinker over the full heterospec stack: `simnet` virtual
//! time + faults + profiling, the four chunked hyperspectral
//! algorithms, both fault-tolerant drivers, tree collectives and
//! accelerator offload — all in one randomized experiment per seed.
//!
//! * [`Scenario::generate`] draws a complete experiment from one `u64`
//!   (platform shape, attached devices, workload, chunking, fault
//!   schedule, collective backend, offload policy, ft driver) as plain
//!   editable data.
//! * [`Oracle::check`] verifies the seven standing invariants of the
//!   stack (bit-exact outputs, survivor completeness, analytic replay,
//!   profile accounting, pure-observer profiling, copy/offload
//!   determinism), counting every comparison it performs, and reports
//!   — without enforcing it yet — how many transfers of its allreduce
//!   probe overlapped on a serial inter-segment link ([`LinkCensus`]).
//! * [`shrink()`] minimizes a violating scenario by greedy delta
//!   debugging, and [`reproducer`] renders the result as a pasteable
//!   Rust regression test (the soak's JSON report entry is rendered by
//!   the campaign driver).
//!
//! Everything is deterministic: same seed, same scenario, same
//! verdict, same shrink — on any host. The time-budgeted campaign
//! driver lives in `crates/bench` (`chaos_soak`); the oracle hierarchy
//! and the reproducer-to-regression workflow are documented in
//! `docs/TESTING.md`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::redundant_clone))]

pub mod oracle;
pub mod scenario;
pub mod shrink;

pub use oracle::{CheckCounts, Injection, Invariant, LinkCensus, Oracle, Verdict, Violation};
pub use scenario::{Algo, Driver, Scenario};
pub use shrink::{hang_reproducer, reproducer, shrink, Shrunk};
