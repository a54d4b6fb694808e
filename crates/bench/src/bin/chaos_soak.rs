//! The chaos soak → `BENCH_chaos.json`: [`repro_bench::records::chaos_soak`]
//! over `HETEROSPEC_CHAOS_SCENARIOS` scenarios (default 500, the committed
//! record's size).

fn main() {
    hsi_linalg::require_built_isa();
    repro_bench::records::chaos_soak(repro_bench::records::requested_scenarios()).emit();
}
