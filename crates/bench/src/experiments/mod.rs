//! The experiments whose stdout is a golden (`tests/golden/<name>.txt`,
//! compared by the root suite `tests/goldens.rs`): each takes its scene
//! and writes its tables to `out`, and nothing else. Figure 1's image is
//! [`fig1_composite`], which the `fig1` binary writes to a file.

mod ablation_faults;
mod ablation_overlap;
mod ablation_scatter;
mod ablation_wea;
mod fig1;
mod table3;
mod table4;
mod table5;
mod table8;
mod trace_gantt;

pub use ablation_faults::ablation_faults;
pub use ablation_overlap::ablation_overlap;
pub use ablation_scatter::ablation_scatter;
pub use ablation_wea::ablation_wea;
pub use fig1::{fig1, fig1_composite};
pub use table3::table3;
pub use table4::table4;
pub use table5::table5;
pub use table8::table8;
pub use trace_gantt::{trace_gantt, trace_gantt_scene};
