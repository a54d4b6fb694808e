//! The names and units of every metric the harness emits — the same
//! list `BENCHMARK.json` declares (a unit test holds the two equal).
//!
//! Two clocks, named on every number: *host* time is what the simulator
//! costs to run here; *virtual* time is what the modelled 2006 cluster
//! would take. Every name with `virtual` or `virt_` in it is on the
//! virtual clock and must repeat exactly; every other time is host time.

use crate::algos::{Algo, FtDriver};
use crate::workloads::Workload;

/// One metric the harness emits.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// `true` for counts and virtual-clock values: two runs of the same
    /// commit and seed must report them exactly equal, so `compare`
    /// judges them by equality instead of by a bound. `false` for host
    /// measurements, which carry noise.
    pub exact: bool,
}

fn host(name: impl Into<String>, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        exact: false,
    }
}

fn exact(name: impl Into<String>, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        exact: true,
    }
}

/// End-to-end metrics, printed by an untraced run.
pub fn end_to_end() -> Vec<MetricSpec> {
    vec![
        host("setup_s", "s"),
        host("wall_s", "s"),
        host("cpu_s", "s"),
        host("peak_rss_mb", "MiB"),
        exact("virtual_s", "s"),
        exact("detect_rate", "fraction"),
    ]
}

/// The pixel kernels of `hetero::kernels` the traced run probes.
pub const KERNELS: [&str; 8] = [
    "brightest",
    "max_projection",
    "max_fcls_error",
    "unique_set",
    "covariance_partial",
    "pct_label",
    "sad_label",
    "mei_top",
];

/// Kernels also probed over 8-line ranges (the ft drivers' chunk size).
pub const CHUNKED_KERNELS: [&str; 3] = ["max_projection", "max_fcls_error", "sad_label"];

/// Collective schedules swept by the `simnet.coll` probes.
pub const COLLECTIVES: [&str; 5] = [
    "linear",
    "binomial_tree",
    "segment_hierarchical",
    "pipelined_chunked",
    "auto",
];

/// Per-layer metrics, printed by a traced run. Layers are the crates
/// and modules of the program.
pub fn per_layer() -> Vec<MetricSpec> {
    let mut m = vec![
        host("calib.triad_gb_per_s", "GB/s"),
        host("calib.dot_gflops", "Gflop/s"),
        host("hsi_cube.synth.wtc_scene_s", "s"),
        host("hsi_cube.synth.mpx_per_s", "Mpx/s"),
        host("hsi_cube.envi.write_mb_per_s", "MB/s"),
        host("hsi_cube.envi.read_mb_per_s", "MB/s"),
        host("hsi_linalg.eigen.sym224_ms", "ms"),
        host("hsi_linalg.fcls.solve_ns", "ns"),
        host("hsi_linalg.ortho.score_ns", "ns"),
        host("hsi_linalg.cov.push_ns_per_px", "ns"),
        host("hsi_morpho.erosion.ns_per_pxband", "ns"),
        host("hsi_morpho.dilation.ns_per_pxband", "ns"),
        host("hsi_morpho.mei.ms", "ms"),
    ];
    for k in KERNELS {
        m.push(host(format!("hetero.kernels.{k}.ns_per_pxband"), "ns"));
        m.push(host(format!("hetero.kernels.{k}.stream_frac"), "fraction"));
        m.push(exact(format!("hetero.kernels.{k}.mflop"), "Mflop"));
    }
    for k in CHUNKED_KERNELS {
        m.push(host(
            format!("hetero.kernels.{k}.chunk8_ns_per_pxband"),
            "ns",
        ));
    }
    for a in Algo::ALL {
        m.push(host(format!("hetero.seq.{}.wall_s", a.name()), "s"));
    }
    for a in Algo::ALL {
        m.push(host(format!("hetero.par.{}.wall_s", a.name()), "s"));
        m.push(exact(format!("hetero.par.{}.virtual_s", a.name()), "s"));
        m.push(exact(format!("hetero.par.{}.msgs", a.name()), "count"));
    }
    m.push(host("hetero.par.cpu_over_seq", "ratio"));
    m.push(exact("hetero.eval.class_acc", "fraction"));
    m.push(exact("hetero.eval.class_agree", "fraction"));
    m.push(host("hetero.wea.plan_us", "us"));
    m.push(exact("hetero.wea.d_all", "ratio"));
    m.push(exact("hetero.wea.homo_over_hetero", "ratio"));
    for d in FtDriver::ALL {
        m.push(host(format!("hetero.ft.{}.wall_s", d.name()), "s"));
        m.push(exact(format!("hetero.ft.{}.virtual_s", d.name()), "s"));
        m.push(exact(format!("hetero.ft.{}.recoveries", d.name()), "count"));
        m.push(exact(
            format!("hetero.ft.{}.virtual_overhead", d.name()),
            "ratio",
        ));
    }
    m.push(host("hetero.ft.tree.wall_s", "s"));
    m.push(exact("hetero.ft.tree.virtual_s", "s"));
    for p in [16, 64, 256] {
        m.push(host(format!("simnet.engine.spinup_ms.p{p}"), "ms"));
    }
    for p in [16, 256] {
        m.push(host(format!("simnet.engine.star_msgs_per_s.p{p}"), "1/s"));
    }
    for w in Workload::ENGINE {
        m.push(exact(format!("simnet.engine.{}.msgs", w.name()), "count"));
        m.push(exact(format!("simnet.engine.{}.virt_com_s", w.name()), "s"));
        m.push(exact(format!("simnet.engine.{}.virt_seq_s", w.name()), "s"));
        m.push(exact(format!("simnet.engine.{}.virt_par_s", w.name()), "s"));
    }
    m.push(host(
        "simnet.engine.thunderhead-scale.host_us_per_msg",
        "us",
    ));
    m.push(host(
        "simnet.engine.thunderhead-scale.wall_over_p1",
        "ratio",
    ));
    m.push(exact("simnet.engine.virtual_speedup.p64", "ratio"));
    m.push(exact("simnet.engine.virtual_speedup.p256", "ratio"));
    for c in COLLECTIVES {
        m.push(exact(format!("simnet.coll.{c}.virtual_s"), "s"));
        m.push(host(format!("simnet.coll.{c}.wall_s"), "s"));
        m.push(exact(format!("simnet.coll.{c}.msgs"), "count"));
    }
    m.push(exact("simnet.coll.digest_identical", "count"));
    m.push(exact("simnet.coll.bytes_deep_copied", "B"));
    m.push(exact("simnet.coll.allocs_on_hot_path", "count"));
    m.push(host("simnet.prof.overhead_ratio", "ratio"));
    m.push(exact("simnet.prof.path_elements", "count"));
    m.push(exact("simnet.prof.top_bottleneck_share", "fraction"));
    m.push(exact("simnet.prof.fold_exact", "fraction"));
    m.push(exact("hetero.offload.auto_over_never", "ratio"));
    m.push(exact("hetero.offload.launches", "count"));
    m.push(host("harness.trace_overhead_ratio", "ratio"));
    m.push(host("harness.peak_threads", "count"));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn benchmark_json() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    #[test]
    fn every_metric_in_benchmark_json_is_emitted_exactly_once_with_its_unit() {
        let doc = benchmark_json();
        let pairs = |specs: Vec<MetricSpec>| -> Vec<(String, String)> {
            specs
                .into_iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect()
        };
        let e2e = pairs(end_to_end());
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        let layers = pairs(per_layer());
        assert_eq!(declared(&doc, "per_layer"), layers);
        let names: Vec<String> = e2e.iter().chain(&layers).map(|(n, _)| n.clone()).collect();
        let unique: BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a metric name is used twice");
    }

    #[test]
    fn names_and_units_stay_inside_the_contract() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        for m in end_to_end().into_iter().chain(layers) {
            assert!(name_ok(&m.name), "bad metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "bad unit {:?} of {}", m.unit, m.name);
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()));
        }
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = benchmark_json();
        let declared: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, ours);
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::Str("benchmark".into())]
        );
    }

    #[test]
    fn exactness_follows_the_clock() {
        let all: Vec<MetricSpec> = end_to_end().into_iter().chain(per_layer()).collect();
        let is_exact = |name: &str| all.iter().find(|m| m.name == name).unwrap().exact;
        for name in [
            "virtual_s",
            "hetero.par.pct.virtual_s",
            "hetero.par.pct.msgs",
            "hetero.kernels.mei_top.mflop",
            "simnet.engine.ft-faults.virt_com_s",
            "simnet.engine.virtual_speedup.p64",
            "hetero.ft.replan.recoveries",
        ] {
            assert!(is_exact(name), "{name}");
        }
        for name in [
            "wall_s",
            "cpu_s",
            "setup_s",
            "hetero.par.pct.wall_s",
            "simnet.engine.spinup_ms.p256",
            "hetero.kernels.mei_top.stream_frac",
            "simnet.engine.thunderhead-scale.host_us_per_msg",
        ] {
            assert!(!is_exact(name), "{name}");
        }
        // Every time on the virtual clock says so in its name.
        for m in all.iter().filter(|m| m.unit == "s" && m.exact) {
            assert!(m.name.contains("virt"), "{} hides its clock", m.name);
        }
    }
}
