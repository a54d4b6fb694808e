//! Ablation A6 → `BENCH_collectives.json`: [`repro_bench::records::collectives`].

fn main() {
    let scene = hsi_cube::synth::WtcConfig::tiny();
    repro_bench::emit_record(scene, repro_bench::records::collectives);
}
