//! The experiments whose stdout is a golden (`tests/golden/<name>.txt`,
//! compared by the root suite `tests/goldens.rs`): each takes its scene
//! and writes its tables to `out`, and writes one CSV per table under
//! [`crate::experiments_dir`].

mod ablation_faults;
mod ablation_scatter;
mod ablation_wea;
mod table5;
mod table8;
mod trace_gantt;

pub use ablation_faults::ablation_faults;
pub use ablation_scatter::ablation_scatter;
pub use ablation_wea::ablation_wea;
pub use table5::table5;
pub use table8::table8;
pub use trace_gantt::{trace_gantt, trace_gantt_scene};
