//! Ablation A7 → `BENCH_allreduce.json`: [`repro_bench::records::allreduce`].

fn main() {
    let scene = hsi_cube::synth::WtcConfig::tiny();
    repro_bench::emit_record(scene, repro_bench::records::allreduce);
}
