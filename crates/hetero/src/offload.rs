//! Offload scheduling: when does a chunk run on the node's accelerator?
//!
//! The paper's central "future perspective" is heterogeneous nodes with
//! *specialized hardware* — GPUs/FPGAs doing the pixel-parallel kernels
//! while the cluster fabric handles distribution. `simnet::accel` models
//! the devices; this module makes the **scheduling decision**:
//!
//! * [`OffloadPolicy`] selects host-only ([`OffloadPolicy::Never`]),
//!   device-whenever-possible ([`OffloadPolicy::Always`]), or
//!   cost-model-driven ([`OffloadPolicy::Auto`]) execution, wired
//!   through [`crate::config::RunOptions`] and [`crate::ft::FtOptions`].
//! * [`decide`] applies the policy per chunk: `Auto` offloads exactly
//!   when the analytic device time (launch + transfers + compute, see
//!   [`DeviceSpec::offload_secs`]) beats the host time `mflops · wᵢ`,
//!   with ties going to the host.
//! * [`charge_chunk`] charges a worker's chunk through the engine under
//!   the decision — device chunks via `Ctx::offload` (recorded in
//!   `RunReport::offloads` and as `D` trace spans), host chunks via
//!   `Ctx::compute_par_tracked`.
//! * [`effective_platform`] folds the device into a node's speed, for
//!   the WEA partitioners and the re-planning master's batch split
//!   alike: accelerator-rich nodes read as proportionally faster (device
//!   time amortized over a representative chunk) and receive larger
//!   partitions.
//!
//! **Bit-identity.** The policy changes *where time is charged*, never
//! *what is computed*: the same kernels run on the host threads in the
//! same order under every policy, so analysis outputs are identical
//! across `Never`/`Always`/`Auto` whenever the work grid is (fixed-grid
//! self-scheduling, identical partitions) — asserted by `tests/accel.rs`.

use simnet::accel::DeviceSpec;
use simnet::platform::{Platform, ProcessorSpec};
use simnet::{Ctx, Wire};

/// When workers offload chunks to their node's accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OffloadPolicy {
    /// Host CPUs only — devices (if any) stay idle. The default:
    /// existing runs are unchanged.
    #[default]
    Never,
    /// Every chunk that fits in device memory runs on the device, even
    /// when transfers + launch latency make it slower than the host.
    /// Kept as the strawman `ablation_accel`'s gate holds `Auto` to in
    /// `BENCH_accel.json` (`Auto` never slower than `Always` or `Never`).
    Always,
    /// Per-chunk cost-model decision: offload exactly when the analytic
    /// device time beats the host time (ties go to the host).
    Auto,
}

impl OffloadPolicy {
    /// Short display label (reports and benches).
    pub fn label(&self) -> &'static str {
        match self {
            OffloadPolicy::Never => "never",
            OffloadPolicy::Always => "always",
            OffloadPolicy::Auto => "auto",
        }
    }
}

/// Analytic resource demand of one offload-eligible chunk: compute
/// megaflops plus the bytes a device would stage in and out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkCost {
    /// Kernel compute in megaflops.
    pub mflops: f64,
    /// Bytes staged host → device (chunk pixels + round state).
    pub bytes_h2d: u64,
    /// Bytes staged device → host (the partial result).
    pub bytes_d2h: u64,
}

impl ChunkCost {
    /// Bundles a megaflop count with an `(h2d, d2h)` byte pair.
    pub fn new(mflops: f64, bytes: (u64, u64)) -> Self {
        ChunkCost {
            mflops,
            bytes_h2d: bytes.0,
            bytes_d2h: bytes.1,
        }
    }
}

/// Where one chunk executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkTarget {
    /// On the host CPU at the node's cycle-time.
    Host,
    /// On the node's attached accelerator.
    Device,
}

/// Applies `policy` to one chunk on one processor. Pure and analytic —
/// a function of the spec and the cost only — so masters and workers
/// agree on every decision.
pub fn decide(proc: &ProcessorSpec, policy: OffloadPolicy, cost: &ChunkCost) -> ChunkTarget {
    let Some(device) = proc.device.as_ref() else {
        return ChunkTarget::Host;
    };
    if !device.fits(cost.bytes_h2d, cost.bytes_d2h) {
        return ChunkTarget::Host;
    }
    match policy {
        OffloadPolicy::Never => ChunkTarget::Host,
        OffloadPolicy::Always => ChunkTarget::Device,
        OffloadPolicy::Auto => {
            if device_secs(device, cost) < host_secs(proc, cost) {
                ChunkTarget::Device
            } else {
                ChunkTarget::Host
            }
        }
    }
}

#[inline]
fn host_secs(proc: &ProcessorSpec, cost: &ChunkCost) -> f64 {
    cost.mflops * proc.cycle_time
}

#[inline]
fn device_secs(device: &DeviceSpec, cost: &ChunkCost) -> f64 {
    device.offload_secs(cost.mflops, cost.bytes_h2d, cost.bytes_d2h)
}

/// Charges one offload-eligible chunk through the engine under `policy`:
/// the device path goes through `Ctx::offload` (launch + transfers +
/// device compute, `D` trace span, offload telemetry), the host path
/// through `Ctx::compute_par_tracked` (identical charge to a plain
/// `compute_par`, plus `host_ms` telemetry). Fault-plan slowdowns and
/// crash truncation compose unchanged on both paths.
pub fn charge_chunk<M: Wire>(ctx: &mut Ctx<M>, policy: OffloadPolicy, cost: &ChunkCost) {
    let proc = ctx.platform().proc(ctx.rank());
    match decide(proc, policy, cost) {
        ChunkTarget::Host => ctx.compute_par_tracked(cost.mflops),
        ChunkTarget::Device => ctx.offload(cost.mflops, cost.bytes_h2d, cost.bytes_d2h),
    }
}

/// A clone of `platform` whose cycle-times are replaced by the
/// *effective* seconds-per-megaflop for work shaped like `rep`: the host
/// cycle-time when [`decide`] keeps the chunk on the host, or
/// `device_secs / rep.mflops` when it offloads — launch latency and
/// transfers amortized over the chunk. Fed to the WEA partitioners and
/// to [`crate::ft`]'s speed-proportional batch split **only** — the
/// engine always runs on the real platform — so fraction computation
/// sees host + device pairs while time accounting stays exact.
/// `Never` returns an identical copy (partitions are unchanged).
pub fn effective_platform(platform: &Platform, policy: OffloadPolicy, rep: &ChunkCost) -> Platform {
    let procs: Vec<ProcessorSpec> = platform
        .procs()
        .iter()
        .map(|p| {
            let mut q = p.clone();
            // Host-path cycle-times are carried over verbatim (not
            // re-derived through `1/speed`) so `Never` — and any node
            // the policy keeps on the host — partitions bit-identically
            // to the historic planner.
            if decide(p, policy, rep) == ChunkTarget::Device {
                let device = p.device.as_ref().expect("decide returned Device");
                q.cycle_time = device_secs(device, rep) / rep.mflops;
            }
            q
        })
        .collect();
    let n = platform.num_procs();
    let links = (0..n)
        .map(|i| (0..n).map(|j| platform.link_ms_per_mbit(i, j)).collect())
        .collect();
    Platform::new(platform.name().to_string(), procs, links)
        .with_msg_latency(platform.msg_latency_s())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::presets;

    fn gpu_proc() -> ProcessorSpec {
        presets::accel_heterogeneous().proc(2).clone() // p3: Athlon + GPU
    }

    fn plain_proc() -> ProcessorSpec {
        presets::accel_heterogeneous().proc(1).clone() // p2: Xeon, no device
    }

    fn big_chunk() -> ChunkCost {
        // 5000 Mflop over 40 MB in / 1 MB out: device compute wins big.
        ChunkCost::new(5000.0, (40_000_000, 1_000_000))
    }

    fn tiny_chunk() -> ChunkCost {
        // 0.001 Mflop: launch latency dominates; host wins.
        ChunkCost::new(0.001, (1_000, 100))
    }

    #[test]
    fn never_is_always_host() {
        assert_eq!(
            decide(&gpu_proc(), OffloadPolicy::Never, &big_chunk()),
            ChunkTarget::Host
        );
    }

    #[test]
    fn no_device_is_always_host() {
        for policy in [OffloadPolicy::Always, OffloadPolicy::Auto] {
            assert_eq!(
                decide(&plain_proc(), policy, &big_chunk()),
                ChunkTarget::Host
            );
        }
    }

    #[test]
    fn auto_offloads_when_device_wins_and_only_then() {
        let p = gpu_proc();
        assert_eq!(
            decide(&p, OffloadPolicy::Auto, &big_chunk()),
            ChunkTarget::Device
        );
        assert_eq!(
            decide(&p, OffloadPolicy::Auto, &tiny_chunk()),
            ChunkTarget::Host,
            "launch latency must keep tiny chunks on the host"
        );
        // Always offloads the tiny chunk anyway.
        assert_eq!(
            decide(&p, OffloadPolicy::Always, &tiny_chunk()),
            ChunkTarget::Device
        );
    }

    #[test]
    fn memory_bound_forces_host() {
        let p = gpu_proc(); // 512 MB GPU
        let huge = ChunkCost::new(1e6, (600_000_000, 0));
        for policy in [OffloadPolicy::Always, OffloadPolicy::Auto] {
            assert_eq!(decide(&p, policy, &huge), ChunkTarget::Host);
        }
    }

    #[test]
    fn charge_chunk_charges_the_closed_forms() {
        let p = gpu_proc();
        let c = big_chunk();
        let d = p.device.expect("gpu proc has a device");
        let device = d.offload_secs(c.mflops, c.bytes_h2d, c.bytes_d2h);
        for (policy, want) in [
            (OffloadPolicy::Never, c.mflops * p.cycle_time),
            (OffloadPolicy::Always, device),
            // Auto picks the device for this chunk.
            (OffloadPolicy::Auto, device),
        ] {
            let engine = simnet::Engine::new(presets::accel_heterogeneous());
            let report = engine.run(|ctx: &mut Ctx<()>| {
                let start = ctx.elapsed();
                if ctx.rank() == 2 {
                    charge_chunk(ctx, policy, &c);
                }
                ctx.elapsed() - start
            });
            assert_eq!(*report.result(2), want, "{policy:?}");
        }
    }

    #[test]
    fn never_effective_platform_is_bit_identical() {
        let base = presets::accel_heterogeneous();
        let eff = effective_platform(&base, OffloadPolicy::Never, &big_chunk());
        for i in 0..base.num_procs() {
            assert_eq!(eff.proc(i).cycle_time, base.proc(i).cycle_time);
        }
    }

    #[test]
    fn auto_effective_platform_speeds_up_gpu_nodes_only() {
        let base = presets::accel_heterogeneous();
        let rep = big_chunk();
        let eff = effective_platform(&base, OffloadPolicy::Auto, &rep);
        // p3 (GPU) gets faster; p2 (no device) is untouched.
        assert!(eff.proc(2).cycle_time < base.proc(2).cycle_time);
        assert_eq!(eff.proc(1).cycle_time, base.proc(1).cycle_time);
        assert_eq!(eff.msg_latency_s(), base.msg_latency_s());
    }

    #[test]
    fn policy_labels() {
        assert_eq!(OffloadPolicy::Never.label(), "never");
        assert_eq!(OffloadPolicy::Always.label(), "always");
        assert_eq!(OffloadPolicy::Auto.label(), "auto");
        assert_eq!(OffloadPolicy::default(), OffloadPolicy::Never);
    }
}
