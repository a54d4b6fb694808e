//! The Workload Estimation Algorithm (paper Algorithm 1).
//!
//! WEA chooses workload fractions `{αᵢ}` for the processors and turns
//! them into a spatial-domain decomposition of the image (contiguous
//! row blocks, full spectra per pixel — the paper's hybrid strategy).
//!
//! Three layers, matching the paper:
//!
//! 1. **Speed-proportional fractions** (Algorithm 1 step 2):
//!    `αᵢ ∝ 1/wᵢ`.
//! 2. **Link-aware generalisation.** The paper's platform model is the
//!    complete graph `G = (P, E)` with link weights `c_ij`, and its
//!    partially-homogeneous results (identical CPUs, heterogeneous
//!    links, yet Hetero ≫ Homo) show the heterogeneous algorithms adapt
//!    to link capacity too. We model a row's cost to processor `i` as
//!    `wᵢ·f + β·kᵢ·(c₀ᵢ/1000)·b` — compute plus staging over the path
//!    from the root, where `f`/`b` are the algorithm's megaflops and
//!    megabits per row and `kᵢ` counts the processors sharing `i`'s
//!    serial inter-segment link (the serialisation factor). `β = 0`
//!    recovers the literal Algorithm 1; the `ablation_wea` bench sweeps
//!    `β`.
//! 3. **Memory upper bounds** (Algorithm 1 step 3b): processors whose
//!    assignment exceeds their local-memory capacity are capped and the
//!    excess is redistributed recursively among the rest.

use simnet::Platform;

/// How WEA accounts for the network when choosing fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeaLinkModel {
    /// Ignore links entirely: `αᵢ ∝ 1/wᵢ` (the literal Algorithm 1).
    Ignore,
    /// Additive heuristic: `αᵢ ∝ 1/(wᵢ·f + β·kᵢ·c₀ᵢ·b)` with `kᵢ` the
    /// serialisation factor of `i`'s inter-segment link. Kept for the
    /// `ablation_wea` bench.
    Heuristic {
        /// Staging-cost weight (0 recovers `Ignore`).
        beta: f64,
    },
    /// Makespan equalisation: fractions are chosen so every processor
    /// finishes (staging + compute) at the same virtual time under the
    /// engine's exact communication model — switched intra-segment
    /// links, serial FIFO inter-segment links. This is the optimum of
    /// the paper's `G = (P, E)` formulation, found by binary search on
    /// the completion time.
    Makespan,
}

/// Configuration of the heterogeneous WEA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeaConfig {
    /// Network model used when choosing fractions.
    pub link_model: WeaLinkModel,
    /// Honour per-node memory upper bounds (Algorithm 1 step 3b).
    pub respect_memory: bool,
}

impl Default for WeaConfig {
    fn default() -> Self {
        WeaConfig {
            link_model: WeaLinkModel::Makespan,
            respect_memory: true,
        }
    }
}

/// Fraction of a node's memory usable for pixel data (Algorithm 1's
/// upper bound).
pub const MEMORY_FILL: f64 = 0.8;

/// Per-row resource demand of an algorithm on a given scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowCost {
    /// Megaflops of worker computation per image row.
    pub mflops_per_row: f64,
    /// Megabits shipped to stage one image row.
    pub mbits_per_row: f64,
    /// Megaflops of **fixed** per-node computation, independent of the
    /// partition size — MORPH's halo lines are the canonical case. The
    /// makespan allocator subtracts this from each node's time budget,
    /// which stops it from starving fast nodes with tiny partitions
    /// whose fixed cost dominates.
    pub fixed_mflops: f64,
}

/// A processor's assigned block of image rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowAssignment {
    /// First global image line of the block.
    pub first_line: usize,
    /// Number of lines in the block (may be zero).
    pub n_lines: usize,
}

/// Errors from partitioning.
#[derive(Debug, Clone, PartialEq)]
pub enum WeaError {
    /// The platform's aggregate memory cannot hold the image.
    InsufficientMemory {
        /// Rows that fit across all processors.
        capacity: usize,
        /// Rows required.
        required: usize,
    },
}

impl std::fmt::Display for WeaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeaError::InsufficientMemory { capacity, required } => write!(
                f,
                "platform memory holds only {capacity} rows, image needs {required}"
            ),
        }
    }
}

impl std::error::Error for WeaError {}

/// Serialisation factor `kᵢ`: processors sharing `i`'s inter-segment
/// link toward the root (1 when `i` shares the root's segment).
fn serial_factor(platform: &Platform, i: usize) -> f64 {
    let root_seg = platform.segment_of(0);
    let seg = platform.segment_of(i);
    if seg == root_seg {
        1.0
    } else {
        platform.procs().iter().filter(|p| p.segment == seg).count() as f64
    }
}

/// Heterogeneous workload fractions (Algorithm 1 step 2, generalised to
/// the platform graph per [`WeaLinkModel`]).
///
/// ```
/// use hetero_hsi::wea::{hetero_fractions, RowCost, WeaConfig};
/// let platform = simnet::presets::fully_heterogeneous();
/// let compute_only = RowCost {
///     mflops_per_row: 1.0,
///     mbits_per_row: 0.0,
///     fixed_mflops: 0.0,
/// };
/// let f = hetero_fractions(&platform, compute_only, WeaConfig::default());
/// // Fractions form a distribution, and the fastest processor (p3)
/// // receives the largest share.
/// assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// assert_eq!(f.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0, 2);
/// ```
pub fn hetero_fractions(platform: &Platform, cost: RowCost, cfg: WeaConfig) -> Vec<f64> {
    match cfg.link_model {
        WeaLinkModel::Ignore => speed_fractions(platform),
        WeaLinkModel::Heuristic { beta } => heuristic_fractions(platform, cost, beta),
        WeaLinkModel::Makespan => makespan_fractions(platform, cost),
    }
}

/// `αᵢ ∝ 1/wᵢ` — the literal Algorithm 1 step 2.
pub fn speed_fractions(platform: &Platform) -> Vec<f64> {
    let rates: Vec<f64> = platform.procs().iter().map(|p| p.speed()).collect();
    let total: f64 = rates.iter().sum();
    rates.into_iter().map(|r| r / total).collect()
}

fn heuristic_fractions(platform: &Platform, cost: RowCost, beta: f64) -> Vec<f64> {
    let rates: Vec<f64> = (0..platform.num_procs())
        .map(|i| {
            let w = platform.proc(i).cycle_time;
            let compute = w * cost.mflops_per_row.max(1e-12);
            let staging = beta
                * serial_factor(platform, i)
                * (platform.link_ms_per_mbit(0, i) / 1.0e3)
                * cost.mbits_per_row;
            1.0 / (compute + staging)
        })
        .collect();
    let total: f64 = rates.iter().sum();
    rates.into_iter().map(|r| r / total).collect()
}

/// Rows (possibly fractional) the platform can complete within virtual
/// time `t` under the engine's communication model: a node on the root's
/// segment receives over its own switched link (staging and compute both
/// bound by `t`); nodes on a remote segment share a serial FIFO link, so
/// node `j`'s compute can only start after all preceding transfers on
/// that link.
fn capacity_rows(platform: &Platform, cp: &[f64], tr: &[f64], fixed: &[f64], t: f64) -> f64 {
    let root_seg = platform.segment_of(0);
    let p = platform.num_procs();
    let mut total = 0.0;
    // Root-segment nodes (switched): rows_i = (t - fixed_i) / (tr_i + cp_i).
    for i in 0..p {
        if platform.segment_of(i) == root_seg {
            total += (t - fixed[i]).max(0.0) / (tr[i] + cp[i]).max(1e-300);
        }
    }
    // Remote segments: greedy front-tight fill in rank order (the order
    // the root scatters in).
    let mut segments: Vec<usize> = (0..p).map(|i| platform.segment_of(i)).collect();
    segments.sort_unstable();
    segments.dedup();
    for seg in segments {
        if seg == root_seg {
            continue;
        }
        let mut prefix = 0.0;
        for i in 0..p {
            if platform.segment_of(i) != seg {
                continue;
            }
            // Constraint: prefix + fixed_i + rows_i·(tr_i + cp_i) ≤ t.
            let room = (t - prefix - fixed[i]).max(0.0);
            let rows = room / (tr[i] + cp[i]).max(1e-300);
            prefix += rows * tr[i];
            total += rows;
        }
    }
    total
}

/// Makespan-equalising fractions: binary search the completion time `T`
/// at which the platform's capacity equals the whole image, then read
/// off each node's share.
fn makespan_fractions(platform: &Platform, cost: RowCost) -> Vec<f64> {
    let p = platform.num_procs();
    let f = cost.mflops_per_row.max(1e-12);
    let cp: Vec<f64> = (0..p).map(|i| platform.proc(i).cycle_time * f).collect();
    let tr: Vec<f64> = (0..p)
        .map(|i| cost.mbits_per_row * platform.link_ms_per_mbit(0, i) / 1.0e3)
        .collect();
    let fixed: Vec<f64> = (0..p)
        .map(|i| cost.fixed_mflops * platform.proc(i).cycle_time)
        .collect();

    // The fixed component is absolute, so the row budget matters: solve
    // for the actual total (callers pass fractions through apportioning
    // later, but the *shape* depends on the fixed/variable ratio). We
    // normalise to a nominal 1024-row image; the resulting fractions are
    // exact when the real image is near that and conservative otherwise.
    let target = 1024.0;
    let mut hi = (0..p)
        .map(|i| fixed[i] + (tr[i] + cp[i]) * target)
        .fold(0.0f64, f64::max);
    let mut lo = 0.0;
    // Grow hi until feasible (paranoia; the bound above suffices).
    while capacity_rows(platform, &cp, &tr, &fixed, hi) < target {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if capacity_rows(platform, &cp, &tr, &fixed, mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let t = hi;
    // Reconstruct per-node rows at time t (same walk as capacity_rows).
    let root_seg = platform.segment_of(0);
    let mut rows = vec![0.0; p];
    for i in 0..p {
        if platform.segment_of(i) == root_seg {
            rows[i] = (t - fixed[i]).max(0.0) / (tr[i] + cp[i]).max(1e-300);
        }
    }
    let mut segments: Vec<usize> = (0..p).map(|i| platform.segment_of(i)).collect();
    segments.sort_unstable();
    segments.dedup();
    for seg in segments {
        if seg == root_seg {
            continue;
        }
        let mut prefix = 0.0;
        for i in 0..p {
            if platform.segment_of(i) != seg {
                continue;
            }
            let room = (t - prefix - fixed[i]).max(0.0);
            rows[i] = room / (tr[i] + cp[i]).max(1e-300);
            prefix += rows[i] * tr[i];
        }
    }
    let total: f64 = rows.iter().sum();
    rows.into_iter().map(|r| r / total).collect()
}

/// Homogeneous fractions: equal shares (the paper's "homogeneous
/// version" of each algorithm).
pub fn homo_fractions(platform: &Platform) -> Vec<f64> {
    vec![1.0 / platform.num_procs() as f64; platform.num_procs()]
}

/// Converts fractions into whole-row counts summing exactly to
/// `total_rows` (largest-remainder apportionment, deterministic ties by
/// processor index).
pub fn apportion_rows(fractions: &[f64], total_rows: usize) -> Vec<usize> {
    let mut counts: Vec<usize> = fractions
        .iter()
        .map(|f| (f * total_rows as f64).floor() as usize)
        .collect();
    let assigned: usize = counts.iter().sum();
    let mut remainders: Vec<(usize, f64)> = fractions
        .iter()
        .enumerate()
        .map(|(i, f)| (i, f * total_rows as f64 - counts[i] as f64))
        .collect();
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(i, _) in remainders.iter().take(total_rows - assigned) {
        counts[i] += 1;
    }
    counts
}

/// Rows that fit in [`MEMORY_FILL`] of each processor's memory
/// (Algorithm 1's upper bound).
pub fn memory_row_capacity(platform: &Platform, row_bytes: usize) -> Vec<usize> {
    platform
        .procs()
        .iter()
        .map(|p| ((p.memory_mb as f64 * 1.0e6 * MEMORY_FILL) / row_bytes.max(1) as f64) as usize)
        .collect()
}

/// Applies memory caps with recursive redistribution (Algorithm 1 step
/// 3b): over-capacity processors are pinned to their cap and the excess
/// is re-apportioned among the rest by their fractions, repeating until
/// stable.
pub fn apply_memory_bounds(
    counts: &[usize],
    fractions: &[f64],
    caps: &[usize],
) -> Result<Vec<usize>, WeaError> {
    let total: usize = counts.iter().sum();
    let capacity: usize = caps.iter().sum();
    if capacity < total {
        return Err(WeaError::InsufficientMemory {
            capacity,
            required: total,
        });
    }
    let mut counts = counts.to_vec();
    let mut pinned = vec![false; counts.len()];
    loop {
        // Pin every processor exceeding its cap.
        let mut overflow = 0usize;
        for i in 0..counts.len() {
            if !pinned[i] && counts[i] > caps[i] {
                overflow += counts[i] - caps[i];
                counts[i] = caps[i];
                pinned[i] = true;
            }
        }
        if overflow == 0 {
            return Ok(counts);
        }
        // Redistribute the excess among unpinned processors by fraction.
        let free: Vec<usize> = (0..counts.len()).filter(|&i| !pinned[i]).collect();
        if free.is_empty() {
            // All pinned: by the capacity check above this cannot leave
            // overflow, but guard anyway.
            return Err(WeaError::InsufficientMemory {
                capacity: caps.iter().sum(),
                required: total,
            });
        }
        let free_frac: f64 = free.iter().map(|&i| fractions[i]).sum();
        let sub_fracs: Vec<f64> = free.iter().map(|&i| fractions[i] / free_frac).collect();
        let extra = apportion_rows(&sub_fracs, overflow);
        for (slot, &i) in free.iter().enumerate() {
            counts[i] += extra[slot];
        }
    }
}

/// Full WEA: fractions → row counts → memory bounds → contiguous
/// assignments in processor order.
pub fn assignments(
    platform: &Platform,
    total_rows: usize,
    row_bytes: usize,
    fractions: &[f64],
    cfg: WeaConfig,
) -> Result<Vec<RowAssignment>, WeaError> {
    let counts = apportion_rows(fractions, total_rows);
    let counts = if cfg.respect_memory {
        let caps = memory_row_capacity(platform, row_bytes);
        apply_memory_bounds(&counts, fractions, &caps)?
    } else {
        counts
    };
    let mut out = Vec::with_capacity(counts.len());
    let mut first = 0usize;
    for n in counts {
        out.push(RowAssignment {
            first_line: first,
            n_lines: n,
        });
        first += n;
    }
    debug_assert_eq!(first, total_rows);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::presets;

    fn unit_cost() -> RowCost {
        RowCost {
            mflops_per_row: 1.0,
            mbits_per_row: 0.0,
            fixed_mflops: 0.0,
        }
    }

    #[test]
    fn hetero_fractions_proportional_to_speed_when_compute_bound() {
        let p = presets::fully_heterogeneous();
        let f = hetero_fractions(&p, unit_cost(), WeaConfig::default());
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // With no communication term, αᵢ ∝ 1/wᵢ: p3 (0.0026) vs p10
        // (0.0451) must be in ratio 0.0451/0.0026.
        let ratio = f[2] / f[9];
        assert!((ratio - 0.0451 / 0.0026).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn link_aware_fractions_shift_load_toward_near_segments() {
        let p = presets::partially_homogeneous(); // equal CPUs, het links
        let cost = RowCost {
            mflops_per_row: 1.0,
            mbits_per_row: 0.5,
            fixed_mflops: 0.0,
        };
        let compute_only = hetero_fractions(
            &p,
            cost,
            WeaConfig {
                link_model: WeaLinkModel::Ignore,
                ..Default::default()
            },
        );
        // Ignoring links on equal CPUs: uniform.
        assert!((compute_only[0] - compute_only[15]).abs() < 1e-12);
        for model in [
            WeaLinkModel::Heuristic { beta: 1.0 },
            WeaLinkModel::Makespan,
        ] {
            let link_aware = hetero_fractions(
                &p,
                cost,
                WeaConfig {
                    link_model: model,
                    ..Default::default()
                },
            );
            // The root (segment s1, no staging) gets more than a
            // segment-4 node behind the slowest serial link.
            assert!(
                link_aware[0] > link_aware[15] * 1.5,
                "{model:?}: {} vs {}",
                link_aware[0],
                link_aware[15]
            );
        }
    }

    #[test]
    fn makespan_fractions_equalize_completion() {
        // Verify the defining property: staging + compute finishes at the
        // same virtual time on every node (within numerical tolerance).
        let p = presets::partially_homogeneous();
        let cost = RowCost {
            mflops_per_row: 2.0,
            mbits_per_row: 0.5,
            fixed_mflops: 0.0,
        };
        let fr = hetero_fractions(&p, cost, WeaConfig::default());
        assert!((fr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Recompute completion per node under the engine model.
        let cp: Vec<f64> = (0..16).map(|i| p.proc(i).cycle_time * 2.0).collect();
        let tr: Vec<f64> = (0..16)
            .map(|i| 0.5 * p.link_ms_per_mbit(0, i) / 1.0e3)
            .collect();
        let root_seg = p.segment_of(0);
        let mut completions = Vec::new();
        for seg in 0..4 {
            let mut prefix = 0.0;
            for i in 0..16 {
                if p.segment_of(i) != seg {
                    continue;
                }
                if seg == root_seg {
                    completions.push(fr[i] * (tr[i] + cp[i]));
                } else {
                    prefix += fr[i] * tr[i];
                    completions.push(prefix + fr[i] * cp[i]);
                }
            }
        }
        let max = completions.iter().cloned().fold(0.0f64, f64::max);
        let min = completions.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            (max - min) / max < 1e-6,
            "completions not equal: min {min}, max {max}"
        );
    }

    #[test]
    fn homo_fractions_equal() {
        let p = presets::fully_heterogeneous();
        let f = homo_fractions(&p);
        assert_eq!(f.len(), 16);
        assert!(f.iter().all(|&x| (x - 1.0 / 16.0).abs() < 1e-15));
    }

    #[test]
    fn apportion_conserves_total() {
        let f = [0.5, 0.3, 0.2];
        for total in [1usize, 7, 100, 2133] {
            let counts = apportion_rows(&f, total);
            assert_eq!(counts.iter().sum::<usize>(), total);
        }
        // Exact thirds with a remainder: deterministic assignment.
        let counts = apportion_rows(&[1.0 / 3.0; 3], 10);
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert_eq!(counts, apportion_rows(&[1.0 / 3.0; 3], 10));
    }

    #[test]
    fn memory_caps_pin_and_redistribute() {
        let counts = [60, 20, 20];
        let fractions = [0.6, 0.2, 0.2];
        let caps = [30, 100, 100];
        let out = apply_memory_bounds(&counts, &fractions, &caps).unwrap();
        assert_eq!(out[0], 30);
        assert_eq!(out.iter().sum::<usize>(), 100);
        // Excess split evenly between the two equal-fraction nodes.
        assert_eq!(out[1], 35);
        assert_eq!(out[2], 35);
    }

    #[test]
    fn cascading_caps() {
        // Redistribution itself overflows node 1, forcing a second round.
        let counts = [80, 15, 5];
        let fractions = [0.8, 0.15, 0.05];
        let caps = [10, 20, 100];
        let out = apply_memory_bounds(&counts, &fractions, &caps).unwrap();
        assert_eq!(out[0], 10);
        assert_eq!(out[1], 20);
        assert_eq!(out[2], 70);
    }

    #[test]
    fn insufficient_memory_detected() {
        let err = apply_memory_bounds(&[10, 10], &[0.5, 0.5], &[5, 4]).unwrap_err();
        assert_eq!(
            err,
            WeaError::InsufficientMemory {
                capacity: 9,
                required: 20
            }
        );
    }

    #[test]
    fn assignments_are_contiguous_and_complete() {
        let p = presets::fully_heterogeneous();
        let f = hetero_fractions(&p, unit_cost(), WeaConfig::default());
        let asg = assignments(&p, 1000, 512 * 224 * 4, &f, WeaConfig::default()).unwrap();
        assert_eq!(asg.len(), 16);
        let mut next = 0;
        for a in &asg {
            assert_eq!(a.first_line, next);
            next += a.n_lines;
        }
        assert_eq!(next, 1000);
        // Fast p3 gets the biggest block; slow p10 the smallest.
        let sizes: Vec<usize> = asg.iter().map(|a| a.n_lines).collect();
        assert_eq!(
            sizes.iter().enumerate().max_by_key(|(_, &n)| n).unwrap().0,
            2
        );
    }

    #[test]
    fn memory_bound_respected_in_assignments() {
        // UltraSparc p10 has 512 MB: with huge rows its block is capped.
        let p = presets::fully_heterogeneous();
        let f = homo_fractions(&p);
        let row_bytes = 50 * 1024 * 1024; // 50 MB per row
        let cfg = WeaConfig::default();
        let asg = assignments(&p, 160, row_bytes, &f, cfg).unwrap();
        let caps = memory_row_capacity(&p, row_bytes);
        for (a, cap) in asg.iter().zip(&caps) {
            assert!(a.n_lines <= *cap, "{} > {}", a.n_lines, cap);
        }
        assert_eq!(asg.iter().map(|a| a.n_lines).sum::<usize>(), 160);
    }

    #[test]
    fn wea_error_display() {
        let e = WeaError::InsufficientMemory {
            capacity: 5,
            required: 9,
        };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('9'));
        let _: &dyn std::error::Error = &e;
    }

    #[test]
    fn serial_factor_counts_segment_population() {
        let p = presets::fully_heterogeneous();
        assert_eq!(serial_factor(&p, 0), 1.0); // root
        assert_eq!(serial_factor(&p, 1), 1.0); // same segment as root
        assert_eq!(serial_factor(&p, 4), 4.0); // s2 has 4 nodes
        assert_eq!(serial_factor(&p, 10), 6.0); // s4 has 6 nodes
    }
}
