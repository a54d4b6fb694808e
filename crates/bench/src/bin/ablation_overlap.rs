//! Ablation A3 at the `HETEROSPEC_SCENE` size:
//! [`repro_bench::experiments::ablation_overlap`].

fn main() -> std::io::Result<()> {
    let scene = repro_bench::scene_config();
    repro_bench::print_experiment(scene, repro_bench::experiments::ablation_overlap)
}
