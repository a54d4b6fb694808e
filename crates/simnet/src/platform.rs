//! The heterogeneous platform model.
//!
//! A platform is the paper's complete graph `G = (P, E)`: a set of
//! processors, each weighted by its relative cycle-time `wᵢ` (seconds per
//! megaflop) and local memory, and a symmetric link-capacity matrix
//! `c_ij` (milliseconds to transfer a one-megabit message), exactly the
//! quantities of the paper's Tables 1 and 2. Processors are grouped into
//! *communication segments*; transfers within a segment run in parallel
//! (switched network), while transfers between segments share a serial
//! inter-segment link (modeled by [`crate::contention`]).

use crate::accel::DeviceSpec;

/// One computing node of the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorSpec {
    /// Display name, e.g. `"p3"`.
    pub name: String,
    /// Architecture string; surfaces in `RunReport` per-rank summaries
    /// and keys device attachment in the accel presets.
    pub arch: &'static str,
    /// Cycle-time in seconds per megaflop (the paper's `wᵢ`); smaller is
    /// faster.
    pub cycle_time: f64,
    /// Main memory in MB; bounds how many pixel vectors the node can hold
    /// (WEA's upper bound).
    pub memory_mb: u64,
    /// Cache size in KB; documents the node class alongside `arch` (the
    /// kernel cost model is analytic and does not read it).
    pub cache_kb: u64,
    /// Communication segment this node is attached to.
    pub segment: usize,
    /// Optional accelerator attached to this node. `None` models a
    /// plain CPU host; `Some` makes the node's effective speed a
    /// host + device pair (see [`crate::accel`]).
    pub device: Option<DeviceSpec>,
}

impl ProcessorSpec {
    /// Relative speed `1/wᵢ` in megaflops per second (host CPU only;
    /// device throughput is accounted per offloaded kernel).
    #[inline]
    pub fn speed(&self) -> f64 {
        1.0 / self.cycle_time
    }

    /// Attaches a device (builder style).
    pub fn with_device(mut self, device: DeviceSpec) -> Self {
        self.device = Some(device);
        self
    }
}

/// Default per-message software latency in seconds (MPI call overhead on
/// a 2006-era Ethernet LAN).
pub const DEFAULT_MSG_LATENCY_S: f64 = 200.0e-6;

/// A complete platform: processors plus the link-capacity matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: String,
    procs: Vec<ProcessorSpec>,
    /// `links[i][j]` = ms to move one megabit from `i` to `j`; symmetric,
    /// zero on the diagonal (local "transfer" is free).
    links: Vec<Vec<f64>>,
    /// Per-message software latency in seconds.
    msg_latency_s: f64,
}

impl Platform {
    /// Builds a platform, validating the link matrix.
    ///
    /// # Panics
    /// Panics when the matrix is not square of matching size, not
    /// symmetric, has non-zero diagonal, or any capacity is negative.
    pub fn new(name: impl Into<String>, procs: Vec<ProcessorSpec>, links: Vec<Vec<f64>>) -> Self {
        let p = procs.len();
        assert!(p > 0, "Platform::new: need at least one processor");
        assert_eq!(links.len(), p, "link matrix must be {p}x{p}");
        for (i, row) in links.iter().enumerate() {
            assert_eq!(row.len(), p, "link matrix must be {p}x{p}");
            assert_eq!(row[i], 0.0, "self-link c_{{{i}{i}}} must be zero");
            for (j, &c) in row.iter().enumerate() {
                assert!(c >= 0.0, "negative link capacity c_{{{i}{j}}}");
                assert!(
                    (c - links[j][i]).abs() < 1e-12,
                    "link matrix must be symmetric (c_{{{i}{j}}} != c_{{{j}{i}}})"
                );
            }
        }
        for proc in &procs {
            assert!(proc.cycle_time > 0.0, "cycle_time must be positive");
            if let Some(device) = &proc.device {
                device.validate();
            }
        }
        Platform {
            name: name.into(),
            procs,
            links,
            msg_latency_s: DEFAULT_MSG_LATENCY_S,
        }
    }

    /// Attaches a device to one node of an already-built platform
    /// (builder style). The presets attach devices while assembling
    /// their [`ProcessorSpec`]s; this is the entry point for callers
    /// that start from a generated platform — the chaos harness drops
    /// accelerators onto random hosts through it.
    ///
    /// # Panics
    /// Panics when `rank` is out of range or the device spec is
    /// invalid.
    pub fn with_device_at(mut self, rank: usize, device: DeviceSpec) -> Self {
        assert!(
            rank < self.procs.len(),
            "with_device_at: rank {rank} out of range ({} procs)",
            self.procs.len()
        );
        device.validate();
        self.procs[rank].device = Some(device);
        self
    }

    /// Sets the per-message software latency (builder style). Fabrics
    /// like Myrinet have an order of magnitude lower latency than
    /// commodity Ethernet.
    pub fn with_msg_latency(mut self, secs: f64) -> Self {
        assert!(secs >= 0.0, "latency must be non-negative");
        self.msg_latency_s = secs;
        self
    }

    /// Per-message software latency in seconds.
    #[inline]
    pub fn msg_latency_s(&self) -> f64 {
        self.msg_latency_s
    }

    /// Builds a uniform (homogeneous) platform: `p` identical processors
    /// in one segment, all pairwise links at `link_ms_per_mbit`.
    ///
    /// ```
    /// use simnet::Platform;
    /// let p = Platform::uniform("lab", 8, 0.01, 1024, 26.64);
    /// assert_eq!(p.num_procs(), 8);
    /// assert!(p.is_compute_homogeneous());
    /// ```
    pub fn uniform(
        name: impl Into<String>,
        p: usize,
        cycle_time: f64,
        memory_mb: u64,
        link_ms_per_mbit: f64,
    ) -> Self {
        let procs = (0..p)
            .map(|i| ProcessorSpec {
                name: format!("p{}", i + 1),
                arch: "homogeneous node",
                cycle_time,
                memory_mb,
                cache_kb: 1024,
                segment: 0,
                device: None,
            })
            .collect();
        let links = (0..p)
            .map(|i| {
                (0..p)
                    .map(|j| if i == j { 0.0 } else { link_ms_per_mbit })
                    .collect()
            })
            .collect();
        Platform::new(name, procs, links)
    }

    /// Platform display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processors.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// Processor `i`'s specification.
    #[inline]
    pub fn proc(&self, i: usize) -> &ProcessorSpec {
        &self.procs[i]
    }

    /// All processors.
    pub fn procs(&self) -> &[ProcessorSpec] {
        &self.procs
    }

    /// Per-rank hardware summaries (name, arch, attached-device label)
    /// for [`crate::report::RunReport::ranks`].
    pub fn rank_summaries(&self) -> Vec<crate::report::RankSummary> {
        self.procs
            .iter()
            .map(|p| crate::report::RankSummary {
                name: p.name.clone(),
                arch: p.arch,
                device: p.device.map(|d| d.kind.label()),
            })
            .collect()
    }

    /// Link capacity `c_ij` in ms per megabit.
    #[inline]
    pub fn link_ms_per_mbit(&self, i: usize, j: usize) -> f64 {
        self.links[i][j]
    }

    /// Virtual transfer duration, in **seconds**, of a `bits`-bit message
    /// from `i` to `j`.
    #[inline]
    pub fn transfer_secs(&self, i: usize, j: usize, bits: u64) -> f64 {
        let mbits = bits as f64 / 1.0e6;
        mbits * self.links[i][j] / 1.0e3
    }

    /// Segment of processor `i`.
    #[inline]
    pub fn segment_of(&self, i: usize) -> usize {
        self.procs[i].segment
    }

    /// `true` when `i` and `j` sit on different communication segments
    /// (their transfer then contends for the serial inter-segment link).
    #[inline]
    pub fn crosses_segments(&self, i: usize, j: usize) -> bool {
        self.segment_of(i) != self.segment_of(j)
    }

    /// Relative speeds `1/wᵢ`, normalised to sum to one — the ideal
    /// heterogeneous workload fractions `αᵢ` for compute-bound work.
    pub fn relative_speeds(&self) -> Vec<f64> {
        let speeds: Vec<f64> = self.procs.iter().map(|p| p.speed()).collect();
        let total: f64 = speeds.iter().sum();
        speeds.into_iter().map(|s| s / total).collect()
    }

    /// Aggregate speed `Σ 1/wᵢ` in Mflop/s.
    pub fn aggregate_speed(&self) -> f64 {
        self.procs.iter().map(|p| p.speed()).sum()
    }

    /// Mean per-processor speed in Mflop/s (Lastovetsky principle 2).
    pub fn mean_speed(&self) -> f64 {
        self.aggregate_speed() / self.num_procs() as f64
    }

    /// Mean off-diagonal link capacity in ms/Mbit (Lastovetsky
    /// principle 3: the aggregate communication characteristic).
    pub fn mean_link(&self) -> f64 {
        let p = self.num_procs();
        if p < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        for i in 0..p {
            for j in 0..p {
                if i != j {
                    sum += self.links[i][j];
                }
            }
        }
        sum / (p * (p - 1)) as f64
    }

    /// `true` when every processor has the same cycle-time.
    pub fn is_compute_homogeneous(&self) -> bool {
        let w0 = self.procs[0].cycle_time;
        self.procs.iter().all(|p| (p.cycle_time - w0).abs() < 1e-15)
    }

    /// `true` when every off-diagonal link has the same capacity.
    pub fn is_network_homogeneous(&self) -> bool {
        let p = self.num_procs();
        let mut first: Option<f64> = None;
        for i in 0..p {
            for j in 0..p {
                if i == j {
                    continue;
                }
                match first {
                    None => first = Some(self.links[i][j]),
                    Some(c) => {
                        if (self.links[i][j] - c).abs() > 1e-12 {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> Platform {
        Platform::new(
            "two",
            vec![
                ProcessorSpec {
                    name: "a".into(),
                    arch: "x",
                    cycle_time: 0.01,
                    memory_mb: 1024,
                    cache_kb: 512,
                    segment: 0,
                    device: None,
                },
                ProcessorSpec {
                    name: "b".into(),
                    arch: "x",
                    cycle_time: 0.02,
                    memory_mb: 512,
                    cache_kb: 512,
                    segment: 1,
                    device: None,
                },
            ],
            vec![vec![0.0, 10.0], vec![10.0, 0.0]],
        )
    }

    #[test]
    fn accessors() {
        let p = two_node();
        assert_eq!(p.num_procs(), 2);
        assert_eq!(p.proc(0).name, "a");
        assert_eq!(p.link_ms_per_mbit(0, 1), 10.0);
        assert!(p.crosses_segments(0, 1));
    }

    #[test]
    fn transfer_secs_units() {
        let p = two_node();
        // 1 megabit at 10 ms/Mbit = 10 ms = 0.01 s.
        assert!((p.transfer_secs(0, 1, 1_000_000) - 0.01).abs() < 1e-12);
        // Self transfer is free.
        assert_eq!(p.transfer_secs(0, 0, 1_000_000), 0.0);
    }

    #[test]
    fn relative_speeds_sum_to_one_and_rank_correctly() {
        let p = two_node();
        let s = p.relative_speeds();
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s[0] > s[1], "faster node must get the larger share");
        assert!((s[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_platform_is_homogeneous() {
        let p = Platform::uniform("homo", 4, 0.0131, 2048, 26.64);
        assert!(p.is_compute_homogeneous());
        assert!(p.is_network_homogeneous());
        assert_eq!(p.num_procs(), 4);
        assert!((p.mean_link() - 26.64).abs() < 1e-12);
        assert!(!p.crosses_segments(0, 3));
    }

    #[test]
    fn heterogeneity_predicates() {
        let p = two_node();
        assert!(!p.is_compute_homogeneous());
        assert!(p.is_network_homogeneous());
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_links_rejected() {
        Platform::new(
            "bad",
            Platform::uniform("t", 2, 0.01, 1, 1.0).procs().to_vec(),
            vec![vec![0.0, 1.0], vec![2.0, 0.0]],
        );
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn nonzero_diagonal_rejected() {
        Platform::new(
            "bad",
            Platform::uniform("t", 2, 0.01, 1, 1.0).procs().to_vec(),
            vec![vec![1.0, 1.0], vec![1.0, 0.0]],
        );
    }

    #[test]
    fn device_attachment_builder_and_validation() {
        let spec = crate::accel::DeviceSpec::commodity_gpu();
        let procs: Vec<ProcessorSpec> = Platform::uniform("t", 2, 0.01, 1024, 1.0)
            .procs()
            .iter()
            .cloned()
            .map(|p| p.with_device(spec))
            .collect();
        let plat = Platform::new("gpu", procs, vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert_eq!(plat.proc(0).device, Some(spec));
        assert_eq!(plat.proc(1).device, Some(spec));
    }

    #[test]
    #[should_panic(expected = "throughput")]
    fn invalid_device_rejected_by_platform() {
        let mut procs = Platform::uniform("t", 2, 0.01, 1024, 1.0).procs().to_vec();
        procs[0].device = Some(crate::accel::DeviceSpec {
            throughput_mflops: f64::NAN,
            ..crate::accel::DeviceSpec::commodity_gpu()
        });
        Platform::new("bad", procs, vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
    }

    #[test]
    fn mean_speed_and_aggregate() {
        let p = two_node();
        assert!((p.aggregate_speed() - 150.0).abs() < 1e-9);
        assert!((p.mean_speed() - 75.0).abs() < 1e-9);
    }
}
