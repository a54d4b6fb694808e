//! The `BENCH_*.json` records: virtual-time sweeps with gates, each a
//! function that returns its [`Record`].
//!
//! A record holds virtual numbers only (no host time, no provenance
//! stamp), so it is a function of the code that wrote it: the root
//! suite `tests/goldens.rs` compares each with its committed file, and
//! each binary writes it over that file in the working directory.

use crate::microjson::{object, Json};

mod accel;
mod allreduce;
mod chaos;
mod collectives;
mod dynamic;
mod profile;

pub use accel::accel;
pub use allreduce::allreduce;
pub use chaos::{chaos_soak, requested_scenarios};
pub use collectives::collectives;
pub use dynamic::dynamic;
pub use profile::profile;

/// A `BENCH_*.json` record and its verdict.
#[derive(Debug)]
pub struct Record {
    /// Its file name at the repo root (`BENCH_collectives.json`…).
    pub file: &'static str,
    /// The document.
    pub json: Json,
    /// True when every gate passed.
    pub passed: bool,
}

impl Record {
    /// The canonical envelope shared by every record, so the schema —
    /// named gate booleans, a `status` of `passed` or `failed` and the
    /// aggregate `passed` — cannot drift between emitters:
    ///
    /// ```json
    /// { <payload…>,
    ///   "gates": { <gates…>, "status": "passed|failed", "passed": bool } }
    /// ```
    ///
    /// `payload` is the emitter's measurement body; `gates` are its named
    /// gate fields (booleans plus any context values). The caller computes
    /// `passed`: the envelope does not guess which gate entries are
    /// enforced.
    pub fn new(
        file: &'static str,
        payload: Vec<(&str, Json)>,
        gates: Vec<(&str, Json)>,
        passed: bool,
    ) -> Record {
        let mut gate_fields = gates;
        let status = if passed { "passed" } else { "failed" };
        gate_fields.push(("status", Json::String(status.into())));
        gate_fields.push(("passed", Json::Bool(passed)));
        let mut fields = payload;
        fields.push(("gates", object(gate_fields)));
        Record {
            file,
            json: object(fields),
            passed,
        }
    }

    /// The file's text.
    pub fn text(&self) -> String {
        self.json.pretty()
    }

    /// Writes the record to [`Record::file`] in the working directory,
    /// logs `# wrote <file>`, and exits 1 when a gate failed.
    ///
    /// # Panics
    /// Panics when the file is unwritable.
    pub fn emit(self) {
        std::fs::write(self.file, self.text())
            .unwrap_or_else(|e| panic!("write {}: {e}", self.file));
        eprintln!("# wrote {}", self.file);
        if !self.passed {
            eprintln!("# GATE FAILED");
            std::process::exit(1);
        }
    }
}
