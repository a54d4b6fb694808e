//! The accelerator device model — the paper's "specialized hardware"
//! future perspective.
//!
//! A [`DeviceSpec`] optionally attached to a
//! [`crate::platform::ProcessorSpec`] turns a node's effective speed
//! into a *host + device pair*: the pixel-parallel kernels may run on
//! the device, paying an explicit launch latency and host↔device
//! transfer cost, while the cluster fabric (links, collectives, fault
//! plans) is entirely device-oblivious — payloads are always staged
//! through host memory.
//!
//! Device execution is **bit-identical** to host execution by
//! construction: the same kernels run in the same order on the host
//! threads; only the virtual-time accounting differs. An offloaded
//! kernel charges
//!
//! ```text
//! T_offload = launch_latency_s
//!           + bytes_h2d / (h2d_gb_per_s · 1e9)     (host → device)
//!           + mflops / throughput_mflops           (device compute)
//!           + bytes_d2h / (d2h_gb_per_s · 1e9)     (device → host)
//! ```
//!
//! through the engine's ordinary compute path, so fault-plan slowdowns
//! and crash truncation compose unchanged (see `Ctx::offload`).
//! [`DeviceSpec::offload_secs`] is that closed form and its one owner:
//! the engine charges it, `hetero::offload` decides and plans with it,
//! and on a fault-free run the charged span equals it to the bit
//! (`tests/accel.rs`, chaos invariant 3).

/// The kind of accelerator attached to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// A commodity graphics processor: high throughput, PCIe-class
    /// transfer bandwidth, tens-of-microseconds launch latency.
    Gpu,
    /// A reconfigurable FPGA board: moderate throughput, lower transfer
    /// bandwidth, near-zero launch latency — the paper's onboard
    /// real-time processing story.
    Fpga,
}

impl DeviceKind {
    /// Short display label (`"GPU"` / `"FPGA"`).
    pub fn label(&self) -> &'static str {
        match self {
            DeviceKind::Gpu => "GPU",
            DeviceKind::Fpga => "FPGA",
        }
    }
}

/// An accelerator attached to one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// What kind of accelerator this is.
    pub kind: DeviceKind,
    /// Sustained kernel throughput in megaflops per second.
    pub throughput_mflops: f64,
    /// Device memory in MB; an offload whose staged bytes exceed it
    /// must run on the host instead.
    pub mem_mb: u64,
    /// Host→device transfer bandwidth in GB/s.
    pub h2d_gb_per_s: f64,
    /// Device→host transfer bandwidth in GB/s.
    pub d2h_gb_per_s: f64,
    /// Fixed per-launch latency in seconds (driver + kernel dispatch).
    pub launch_latency_s: f64,
}

impl DeviceSpec {
    /// A 2006-era commodity GPU on PCIe: ~20 GFLOP/s sustained on the
    /// streaming kernels, 512 MB of device memory, asymmetric
    /// host↔device bandwidth, 80 µs launch latency.
    pub fn commodity_gpu() -> Self {
        DeviceSpec {
            kind: DeviceKind::Gpu,
            throughput_mflops: 20_000.0,
            mem_mb: 512,
            h2d_gb_per_s: 1.5,
            d2h_gb_per_s: 1.0,
            launch_latency_s: 80.0e-6,
        }
    }

    /// An onboard FPGA accelerator: ~2 GFLOP/s, 256 MB, modest
    /// bandwidth, but near-zero (10 µs) dispatch latency — attractive
    /// for many small kernels.
    pub fn edge_fpga() -> Self {
        DeviceSpec {
            kind: DeviceKind::Fpga,
            throughput_mflops: 2_000.0,
            mem_mb: 256,
            h2d_gb_per_s: 0.4,
            d2h_gb_per_s: 0.4,
            launch_latency_s: 10.0e-6,
        }
    }

    /// Validates the spec (positive throughput, bandwidths and memory,
    /// non-negative latency).
    ///
    /// # Panics
    /// Panics on a non-physical spec; called by `Platform::new` for
    /// every attached device.
    pub fn validate(&self) {
        assert!(
            self.throughput_mflops > 0.0 && self.throughput_mflops.is_finite(),
            "device throughput must be positive and finite"
        );
        assert!(self.mem_mb > 0, "device memory must be positive");
        assert!(
            self.h2d_gb_per_s > 0.0 && self.d2h_gb_per_s > 0.0,
            "device transfer bandwidths must be positive"
        );
        assert!(
            self.launch_latency_s >= 0.0 && self.launch_latency_s.is_finite(),
            "launch latency must be non-negative and finite"
        );
    }

    /// `true` when a kernel staging `bytes_h2d` in and `bytes_d2h` out
    /// fits in device memory.
    #[inline]
    pub fn fits(&self, bytes_h2d: u64, bytes_d2h: u64) -> bool {
        bytes_h2d.saturating_add(bytes_d2h) <= self.mem_mb.saturating_mul(1_000_000)
    }

    /// Virtual-time cost of one offloaded kernel: launch + H2D +
    /// compute + D2H. This closed form is the single source of truth —
    /// the engine charges it and the offload scheduler plans with it.
    #[inline]
    pub fn offload_secs(&self, mflops: f64, bytes_h2d: u64, bytes_d2h: u64) -> f64 {
        self.launch_latency_s
            + bytes_h2d as f64 / (self.h2d_gb_per_s * 1.0e9)
            + mflops / self.throughput_mflops
            + bytes_d2h as f64 / (self.d2h_gb_per_s * 1.0e9)
    }
}

/// Deterministic per-rank offload telemetry, recorded in
/// `RunReport::offloads`. Unlike `CopyStats` (host observability), these
/// counters are *simulation state* — a function of the platform model
/// and the offload policy only — and therefore participate in the
/// bit-identity contract (`RunReport::PartialEq` includes them).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OffloadStats {
    /// Number of kernels launched on the device.
    pub launches: u64,
    /// Bytes staged host → device across all launches.
    pub bytes_h2d: u64,
    /// Bytes staged device → host across all launches.
    pub bytes_d2h: u64,
    /// Virtual milliseconds spent in offloaded execution (launch +
    /// transfers + device compute, fault dilation included).
    pub device_ms: f64,
    /// Virtual milliseconds spent computing offload-eligible chunks on
    /// the host (the road not taken, or `Never`/no-device ranks).
    pub host_ms: f64,
}

impl OffloadStats {
    /// `true` when this rank never touched a device and did no tracked
    /// host chunk work.
    pub fn is_empty(&self) -> bool {
        self.launches == 0 && self.host_ms == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_secs_components() {
        let gpu = DeviceSpec::commodity_gpu();
        // 1000 Mflop, 1.5 GB in, 1 GB out: 80 µs + 1 s + 0.05 s + 1 s.
        let t = gpu.offload_secs(1000.0, 1_500_000_000, 1_000_000_000);
        assert!((t - (80.0e-6 + 1.0 + 0.05 + 1.0)).abs() < 1e-12, "{t}");
        // Zero-size launch still pays the latency.
        assert_eq!(gpu.offload_secs(0.0, 0, 0), 80.0e-6);
    }

    #[test]
    fn memory_bound() {
        let fpga = DeviceSpec::edge_fpga(); // 256 MB
        assert!(fpga.fits(200_000_000, 50_000_000));
        assert!(!fpga.fits(200_000_000, 60_000_001));
        assert!(!fpga.fits(u64::MAX, 1)); // saturating, no overflow
    }

    #[test]
    fn kind_labels() {
        assert_eq!(DeviceKind::Gpu.label(), "GPU");
        assert_eq!(DeviceKind::Fpga.label(), "FPGA");
    }

    #[test]
    #[should_panic(expected = "throughput")]
    fn invalid_spec_rejected() {
        DeviceSpec {
            throughput_mflops: 0.0,
            ..DeviceSpec::commodity_gpu()
        }
        .validate();
    }
}
