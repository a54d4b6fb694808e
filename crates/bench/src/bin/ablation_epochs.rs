//! Ablation A8 → `BENCH_epochs.json`, on a quarter of the `HETEROSPEC_SCENE`
//! size (`medium` or larger): [`repro_bench::records::epochs`].

fn main() {
    let scene = repro_bench::quarter(repro_bench::scene_config());
    repro_bench::emit_record(scene, repro_bench::records::epochs);
}
