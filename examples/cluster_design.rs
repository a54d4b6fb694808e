//! Cluster design: explore how WEA distributes a hyperspectral workload
//! over a custom heterogeneous platform, and validate the equivalent-
//! homogeneous-network methodology the paper evaluates with.
//!
//! ```text
//! cargo run --release --example cluster_design
//! ```

use heterospec::cube::synth::{wtc_scene, WtcConfig};
use heterospec::hetero::config::{AlgoParams, RunOptions};
use heterospec::hetero::framework::plan_assignments;
use heterospec::hetero::par::atdca;
use heterospec::simnet::engine::Engine;
use heterospec::simnet::equivalent::{check_equivalence, equivalent_homogeneous};
use heterospec::simnet::{Platform, ProcessorSpec};

fn main() {
    heterospec::linalg::require_built_isa();
    // A made-up departmental cluster: two fast nodes, four mid nodes,
    // two legacy machines, on two switched segments.
    let procs: Vec<ProcessorSpec> = [
        ("fast-1", 0.004, 4096, 0),
        ("fast-2", 0.004, 4096, 0),
        ("mid-1", 0.011, 2048, 0),
        ("mid-2", 0.011, 2048, 0),
        ("mid-3", 0.011, 2048, 1),
        ("mid-4", 0.011, 2048, 1),
        ("old-1", 0.035, 512, 1),
        ("old-2", 0.040, 512, 1),
    ]
    .iter()
    .map(|&(name, w, mem, seg)| ProcessorSpec {
        name: name.to_string(),
        arch: "example node",
        cycle_time: w,
        memory_mb: mem,
        cache_kb: 1024,
        segment: seg,
        device: None,
    })
    .collect();
    let n = procs.len();
    let links = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    if i == j {
                        0.0
                    } else if procs[i].segment == procs[j].segment {
                        15.0
                    } else {
                        80.0
                    }
                })
                .collect()
        })
        .collect();
    let cluster = Platform::new("department-cluster", procs, links);

    let scene = wtc_scene(WtcConfig {
        lines: 256,
        samples: 96,
        ..Default::default()
    });
    let params = AlgoParams::default();

    // How does WEA split the image?
    let options = RunOptions::hetero();
    let cost = atdca::row_cost(&scene.cube, &params);
    let assignments = plan_assignments(&cluster, &scene.cube, &options, cost);
    println!("WEA row assignments over {} lines:", scene.cube.lines());
    for (i, a) in assignments.iter().enumerate() {
        let p = cluster.proc(i);
        println!(
            "  {:8} (w = {:.4}, segment {}): lines {:>4}..{:<4} ({} rows, {:.1}%)",
            p.name,
            p.cycle_time,
            p.segment,
            a.first_line,
            a.first_line + a.n_lines,
            a.n_lines,
            100.0 * a.n_lines as f64 / scene.cube.lines() as f64
        );
    }

    // Lastovetsky's methodology: compare against the equivalent
    // homogeneous network.
    let equivalent = equivalent_homogeneous(&cluster);
    let report = check_equivalence(&cluster, &equivalent);
    println!(
        "\nequivalent homogeneous network: w = {:.4} s/Mflop, link = {:.1} ms/Mbit",
        1.0 / equivalent.mean_speed(),
        equivalent.mean_link()
    );
    println!(
        "  equivalence check: speeds within {:.1e}, links within {:.1e}",
        report.mean_speed_rel_diff, report.mean_link_rel_diff
    );

    // The paper's optimality criterion: a heterogeneous algorithm is
    // optimal if its efficiency on the heterogeneous network matches the
    // homogeneous version's efficiency on the equivalent network.
    let het_run = atdca::run(&Engine::new(cluster), &scene.cube, &params, &options);
    let hom_run = atdca::run(
        &Engine::new(equivalent),
        &scene.cube,
        &params,
        &RunOptions::homo(),
    );
    println!(
        "\nHetero-ATDCA on the heterogeneous cluster: {:.2} s",
        het_run.report.total_time
    );
    println!(
        "Homo-ATDCA on the equivalent homogeneous:  {:.2} s",
        hom_run.report.total_time
    );
    let ratio = het_run.report.total_time / hom_run.report.total_time;
    println!(
        "ratio {:.2} — {}",
        ratio,
        if ratio < 1.1 {
            "the heterogeneous algorithm is close to optimal (paper section 3.1)"
        } else {
            "room for improvement in the workload distribution"
        }
    );
}
