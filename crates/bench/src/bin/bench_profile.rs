//! Profiler gate → `BENCH_profile.json`, on a quarter of the `HETEROSPEC_SCENE`
//! size: [`repro_bench::records::profile`].

fn main() {
    let scene = repro_bench::quarter(repro_bench::scene_config());
    repro_bench::emit_record(scene, repro_bench::records::profile);
}
