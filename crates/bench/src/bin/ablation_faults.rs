//! Ablation A5 on a quarter of the `HETEROSPEC_SCENE` size: [`repro_bench::experiments::ablation_faults`].

fn main() -> std::io::Result<()> {
    let scene = repro_bench::quarter(repro_bench::scene_config());
    repro_bench::print_experiment(scene, repro_bench::experiments::ablation_faults)
}
