//! Gantt charts of one ATDCA round: [`repro_bench::experiments::trace_gantt`].

fn main() -> std::io::Result<()> {
    let scene = repro_bench::experiments::trace_gantt_scene();
    repro_bench::print_experiment(scene, repro_bench::experiments::trace_gantt)
}
