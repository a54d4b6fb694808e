//! `benchmark compare A.json B.json`: two result sets side by side,
//! judged by the bounds `BENCHMARK.json` fixes.
//!
//! One row per workload × end-to-end metric with both medians, the
//! ratio **with its base**, the bound, and a verdict. Host measurements
//! are judged by their bound; counts, virtual-clock values and output
//! digests must be exactly equal.

use crate::json::Json;
use std::collections::BTreeMap;

/// A row's judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows (or exactly equal, where required).
    Ok,
    /// Worse than the bound allows (or unequal, where equality is required).
    Regressed,
    /// The quartile spread is wider than the bound and the two sets of
    /// samples overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric's samples in one record, as far as judging needs them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The reported value (median).
    pub value: f64,
    /// First quartile of the samples behind it.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Sample {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// Judges `b` against the base `a` for a metric that may worsen by at
/// most `bound` (a share of `a`); `lower_is_better` gives its direction.
pub fn judge_bounded(a: Sample, b: Sample, bound: f64, lower_is_better: bool) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (b.value - a.value) / a.value.abs();
    if a.spread().max(b.spread()) > bound {
        // Too noisy for the bound: only disjoint sample ranges decide.
        let b_all_better = sign * (b.q3 - a.q1) < 0.0 && sign * (b.q1 - a.q3) < 0.0;
        let b_all_worse = sign * (b.q1 - a.q3) > 0.0 && sign * (b.q3 - a.q1) > 0.0;
        return if b_all_better {
            Verdict::Ok
        } else if b_all_worse && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Judges a value that must repeat exactly (bit for bit).
pub fn judge_exact(a: f64, b: f64) -> Verdict {
    if a.to_bits() == b.to_bits() {
        Verdict::Ok
    } else {
        Verdict::Regressed
    }
}

/// `(bound, lower_is_better)` of every end-to-end metric in the spec.
fn bounds(spec: &Json) -> Result<BTreeMap<String, (f64, bool)>, String> {
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("the spec has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without a direction")?;
            Ok((name.to_string(), (bound, better == "lower")))
        })
        .collect()
}

/// The records of a result file: a `results.json` holds many under
/// `runs`, a `--out` file is one record itself.
fn records(doc: &Json) -> Vec<&Json> {
    match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    }
}

fn key_of(record: &Json) -> Option<(String, bool)> {
    Some((
        record.get("workload")?.as_str()?.to_string(),
        matches!(record.get("trace"), Some(Json::Bool(true))),
    ))
}

fn sample_of(metric: &Json) -> Option<Sample> {
    let value = metric.get("value")?.as_f64()?;
    let quartile = |q: &str| metric.get(q).and_then(Json::as_f64).unwrap_or(value);
    Some(Sample {
        value,
        q1: quartile("q1"),
        q3: quartile("q3"),
    })
}

/// The comparison of two result sets: the printed table and whether
/// any row regressed.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The table, one row per line.
    pub table: String,
    /// Rows judged `regressed`.
    pub regressed: usize,
    /// Rows judged `unresolved`.
    pub unresolved: usize,
}

/// Compares result set `b` against the base `a` under `spec`
/// (`BENCHMARK.json`).
pub fn compare(a: &Json, b: &Json, spec: &Json) -> Result<Comparison, String> {
    let bounds = bounds(spec)?;
    let base: BTreeMap<(String, bool), &Json> = records(a)
        .into_iter()
        .filter_map(|r| key_of(r).map(|k| (k, r)))
        .collect();
    let mut table = String::from("workload  metric  A  B  B/A (base A)  bound  verdict\n");
    let (mut regressed, mut unresolved) = (0, 0);
    let mut tally = |verdict: Verdict| match verdict {
        Verdict::Ok => {}
        Verdict::Regressed => regressed += 1,
        Verdict::Unresolved => unresolved += 1,
    };
    for record in records(b) {
        let key = key_of(record).ok_or("a record of B has no workload")?;
        let Some(base_record) = base.get(&key) else {
            table.push_str(&format!("{}  (not in A)\n", key.0));
            continue;
        };
        let (workload, traced) = (&key.0, key.1);
        for side in [base_record, &record] {
            let failed = side
                .get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            if failed != 0.0 {
                table.push_str(&format!("{workload}  failed  {failed}  regressed\n"));
                tally(Verdict::Regressed);
            }
        }
        let metrics_a = base_record
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or(&[]);
        let mut exact_equal = 0;
        for (name, metric_a) in metrics_a {
            let (Some(sa), Some(sb)) = (
                sample_of(metric_a),
                record
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(sample_of),
            ) else {
                table.push_str(&format!(
                    "{workload}  {name}  (missing on one side)  regressed\n"
                ));
                tally(Verdict::Regressed);
                continue;
            };
            let exact = matches!(metric_a.get("exact"), Some(Json::Bool(true)));
            let (verdict, bound_text) = match bounds.get(name) {
                _ if exact => (judge_exact(sa.value, sb.value), "exact".to_string()),
                Some(&(bound, lower)) => (judge_bounded(sa, sb, bound, lower), format!("{bound}")),
                // Per-layer host measurements have no bound: shown, not judged.
                None => (Verdict::Ok, "-".to_string()),
            };
            tally(verdict);
            // Traced records hold a hundred layer metrics: print the
            // judged ones that moved, count the exact ones that held.
            if traced && verdict == Verdict::Ok {
                exact_equal += usize::from(exact);
                continue;
            }
            table.push_str(&format!(
                "{workload}  {name}  {}  {}  {:.4} (base A)  {bound_text}  {}\n",
                sa.value,
                sb.value,
                sb.value / sa.value,
                verdict.word()
            ));
        }
        if traced {
            table.push_str(&format!(
                "{workload}  (traced)  {exact_equal} exact per-layer metrics equal\n"
            ));
        }
        let digests_b = record.get("digests");
        for (label, digest) in base_record
            .get("digests")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
        {
            let same = digests_b.and_then(|d| d.get(label)) == Some(digest);
            if !same {
                table.push_str(&format!("{workload}  digest {label}  differs  regressed\n"));
                tally(Verdict::Regressed);
            }
        }
    }
    table.push_str(&format!("{regressed} regressed, {unresolved} unresolved\n"));
    Ok(Comparison {
        table,
        regressed,
        unresolved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Sample {
        Sample {
            value,
            q1: value * 0.99,
            q3: value * 1.01,
        }
    }

    #[test]
    fn a_quiet_metric_is_judged_by_its_bound() {
        assert_eq!(
            judge_bounded(tight(1.0), tight(1.05), 0.1, true),
            Verdict::Ok
        );
        assert_eq!(
            judge_bounded(tight(1.0), tight(1.15), 0.1, true),
            Verdict::Regressed
        );
        assert_eq!(
            judge_bounded(tight(1.0), tight(0.5), 0.1, true),
            Verdict::Ok
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            judge_bounded(tight(1.0), tight(0.85), 0.1, false),
            Verdict::Regressed
        );
        assert_eq!(
            judge_bounded(tight(1.0), tight(1.5), 0.1, false),
            Verdict::Ok
        );
    }

    #[test]
    fn a_noisy_metric_is_unresolved_unless_the_samples_are_disjoint() {
        let noisy = |value: f64| Sample {
            value,
            q1: value * 0.8,
            q3: value * 1.2,
        };
        assert_eq!(
            judge_bounded(noisy(1.0), noisy(1.05), 0.1, true),
            Verdict::Unresolved
        );
        assert_eq!(
            judge_bounded(noisy(1.0), noisy(1.3), 0.1, true),
            Verdict::Unresolved
        );
        assert_eq!(
            judge_bounded(noisy(1.0), noisy(2.0), 0.1, true),
            Verdict::Regressed
        );
        assert_eq!(
            judge_bounded(noisy(1.0), noisy(0.5), 0.1, true),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_values_must_match_to_the_bit() {
        let t = 7.395758_f64;
        assert_eq!(judge_exact(t, t), Verdict::Ok);
        assert_eq!(
            judge_exact(t, f64::from_bits(t.to_bits() + 1)),
            Verdict::Regressed
        );
    }

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "virtual_s", "unit": "s", "better": "lower", "bound": 0.02}]}"#;

    fn record(wall: f64, virt: f64, digest: &str) -> String {
        format!(
            r#"{{"workload": "w", "trace": false, "failed": 0,
                "metrics": {{
                  "wall_s": {{"value": {wall}, "unit": "s", "q1": {wall}, "q3": {wall}, "exact": false}},
                  "virtual_s": {{"value": {virt}, "unit": "s", "exact": true}}}},
                "digests": {{"hetero.par.atdca": "{digest}"}}}}"#
        )
    }

    #[test]
    fn identical_sets_compare_clean_and_moved_ones_do_not() {
        let spec = Json::parse(SPEC).unwrap();
        let a = Json::parse(&record(1.0, 8.25, "00ff")).unwrap();
        let same = compare(&a, &a, &spec).unwrap();
        assert_eq!((same.regressed, same.unresolved), (0, 0), "{}", same.table);
        assert!(same.table.contains("1.0000 (base A)"), "{}", same.table);

        let slower = Json::parse(&record(1.2, 8.25, "00ff")).unwrap();
        assert_eq!(compare(&a, &slower, &spec).unwrap().regressed, 1);
        // A virtual time inside its bound still fails: it must be exact.
        let drifted = Json::parse(&record(1.0, 8.26, "00ff")).unwrap();
        assert_eq!(compare(&a, &drifted, &spec).unwrap().regressed, 1);
        let rebased = Json::parse(&record(1.0, 8.25, "00fe")).unwrap();
        let out = compare(&a, &rebased, &spec).unwrap();
        assert_eq!(out.regressed, 1);
        assert!(
            out.table.contains("digest hetero.par.atdca"),
            "{}",
            out.table
        );
        // A results.json wraps its records in `runs`.
        let wrapped =
            Json::parse(&format!(r#"{{"runs": [{}]}}"#, record(1.0, 8.25, "00ff"))).unwrap();
        assert_eq!(compare(&wrapped, &a, &spec).unwrap().regressed, 0);
    }
}
