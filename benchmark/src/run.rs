//! One benchmark run: one workload, one seed, one process.
//!
//! The harness is a single-threaded **closed loop with one client**: it
//! calls the library back to back, one algorithm run at a time; every
//! thread beyond that one is the program's own (rank threads, kernel
//! pools). An untraced run reports the end-to-end metrics; a traced run
//! repeats one pass under spans with the engine's tracer on and then
//! probes every layer.

use crate::calib::{self, Calibrator};
use crate::json::{obj, s, Json};
use crate::probes;
use crate::procfs::{self, Host};
use crate::spans::{chrome_trace, Spans};
use crate::spec::{self, MetricSpec};
use crate::stats::Summary;
use crate::verify::Verifier;
use crate::workloads::{Fixture, Pass, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Times the whole set-up is repeated in an untraced run; `setup_s` is
/// the median, so one slow page-fault storm does not decide it.
pub const SETUP_REPEATS: usize = 3;

/// Fewest timed passes, whatever `--seconds` says.
pub const MIN_PASSES: usize = 5;

/// Untraced passes a traced run takes as the base of its overhead ratio.
const TRACE_BASE_PASSES: usize = 3;

/// Where trace files and probe scratch files go, relative to the
/// checkout root (`run.sh` makes that the working directory).
pub const OUT_DIR: &str = "benchmark/out";

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Drives the scene content and the fault-plan draw.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Also write the full record here.
    pub out: Option<PathBuf>,
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Which metric.
    pub spec: MetricSpec,
    /// The value the metric reports.
    pub value: f64,
    /// Median, quartiles, minimum and count of the samples behind it.
    pub summary: Summary,
}

impl Measured {
    /// A metric measured once.
    fn single(spec: MetricSpec, value: f64) -> Measured {
        Measured {
            spec,
            value,
            summary: Summary::single(value),
        }
    }

    /// A repeated measurement reported as its median.
    fn median(spec: MetricSpec, samples: &[f64]) -> Measured {
        let summary = Summary::of(samples);
        Measured {
            spec,
            value: summary.median,
            summary,
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Record {
    /// What was asked for.
    pub args: Args,
    /// Algorithm runs attempted (references, `T0` runs, passes, probes).
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// Timed passes.
    pub passes: usize,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Measured>,
    /// One line per failed run or harness-side problem.
    pub complaints: Vec<String>,
    /// Output digest of every run of the last pass, by label.
    pub digests: Vec<(String, u64)>,
    /// Most program threads alive at once during the workload's own
    /// passes (traced runs only; 0 otherwise).
    pub peak_threads: u64,
    /// Median raw (un-normalised) wall seconds of a timed pass and the
    /// median calibration-loop seconds beside it: the host's speed
    /// during this run (untraced runs only; NaN otherwise).
    pub raw_wall_s: f64,
    /// See [`Record::raw_wall_s`].
    pub calibration_s: f64,
}

impl Record {
    /// `true` when no run failed and every metric was measured.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.complaints.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric exactly `value` and `unit`.
    pub fn result_line(&self) -> String {
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                obj(self.metrics.iter().map(|m| {
                    (
                        m.spec.name.clone(),
                        obj([("value", Json::Num(m.value)), ("unit", s(m.spec.unit))]),
                    )
                })),
            ),
        ])
        .to_compact()
    }

    /// The full record: the result plus spreads, digests and provenance.
    pub fn to_json(&self, host: &Host) -> Json {
        obj([
            ("workload", s(self.args.workload.name())),
            ("seed", Json::Num(self.args.seed as f64)),
            ("seconds", Json::Num(self.args.seconds)),
            ("trace", Json::Bool(self.args.trace)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("passes", Json::Num(self.passes as f64)),
            (
                "metrics",
                obj(self.metrics.iter().map(|m| {
                    (
                        m.spec.name.clone(),
                        obj([
                            ("value", Json::Num(m.value)),
                            ("unit", s(m.spec.unit)),
                            ("median", Json::Num(m.summary.median)),
                            ("q1", Json::Num(m.summary.q1)),
                            ("q3", Json::Num(m.summary.q3)),
                            ("min", Json::Num(m.summary.min)),
                            ("n", Json::Num(m.summary.n as f64)),
                            ("exact", Json::Bool(m.spec.exact)),
                        ]),
                    )
                })),
            ),
            (
                "digests",
                obj(self
                    .digests
                    .iter()
                    .map(|(label, d)| (label.clone(), s(format!("{d:016x}"))))),
            ),
            (
                "complaints",
                Json::Arr(self.complaints.iter().map(s).collect()),
            ),
            (
                "provenance",
                obj([
                    ("nproc", Json::Num(host.nproc as f64)),
                    ("cpu_model", s(host.cpu_model.as_str())),
                    ("l2_kib", Json::Num(host.l2_kib as f64)),
                    ("l3_kib", Json::Num(host.l3_kib as f64)),
                    ("rustc", s(env!("BENCH_RUSTC_VERSION"))),
                    ("harness_threads", Json::Num(1.0)),
                    ("program_peak_threads", Json::Num(self.peak_threads as f64)),
                    ("raw_wall_s", Json::Num(self.raw_wall_s)),
                    ("calibration_s", Json::Num(self.calibration_s)),
                    ("calibration_nominal_s", Json::Num(calib::NOMINAL_S)),
                    ("setup_repeats", Json::Num(SETUP_REPEATS as f64)),
                ]),
            ),
        ])
    }

    /// Human-readable lines: `workload  name  value  unit  [spread]`.
    pub fn table(&self) -> String {
        let w = self.args.workload.name();
        let mut out = String::new();
        for m in &self.metrics {
            let Summary {
                median,
                q1,
                q3,
                min,
                n,
            } = m.summary;
            out.push_str(&format!(
                "{w}  {}  {}  {}",
                m.spec.name, m.value, m.spec.unit
            ));
            if n > 1 {
                out.push_str(&format!(
                    "  (median {median:.6} q1 {q1:.6} q3 {q3:.6} min {min:.6} n {n})"
                ));
            }
            out.push('\n');
        }
        if self.raw_wall_s.is_finite() {
            out.push_str(&format!(
                "{w}  raw_wall_s  {}  s  (not normalised; calibration loop {:.6} s, nominal {} s)\n",
                self.raw_wall_s,
                self.calibration_s,
                calib::NOMINAL_S
            ));
        }
        out.push_str(&format!(
            "{w}  ops  {}  count\n{w}  fail_share  {}  failed/ops\n",
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        out
    }
}

fn last_digests(fixture_pass: &Pass) -> Vec<(String, u64)> {
    fixture_pass
        .runs
        .iter()
        .filter_map(|run| {
            run.result
                .as_ref()
                .ok()
                .map(|done| (run.label.clone(), done.output.digest()))
        })
        .collect()
}

/// The untraced run: end-to-end metrics only. Every host time is
/// normalised by the calibration samples taken right before and after
/// it (see [`crate::calib`]) and reported as the median of its samples.
pub fn untraced(args: &Args) -> Result<Record, String> {
    let spans = Spans::new(false);
    let calibrator = Calibrator::new();
    let mut verifier = Verifier::default();
    let mut calibration = vec![calibrator.sample_s()];
    let mut before = calibration[0];
    let mut sample_after = |before: &mut f64| {
        let after = calibrator.sample_s();
        calibration.push(after);
        (std::mem::replace(before, after), after)
    };

    let mut setup_s = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        drop(fixture.take());
        let start = Instant::now();
        fixture = Some(Fixture::setup(
            args.workload,
            args.seed,
            &spans,
            &mut verifier,
        )?);
        let raw = start.elapsed().as_secs_f64();
        let (was, now) = sample_after(&mut before);
        setup_s.push(calib::normalise(raw, was, now));
    }
    let fixture = fixture.expect("SETUP_REPEATS is positive");

    let (mut wall, mut cpu, mut raw_wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut score = None;
    let mut digests = Vec::new();
    let timed = Instant::now();
    while wall.len() < MIN_PASSES || timed.elapsed().as_secs_f64() < args.seconds {
        let pass = fixture.pass(&spans);
        let (was, now) = sample_after(&mut before);
        wall.push(calib::normalise(pass.wall_s, was, now));
        cpu.push(calib::normalise(pass.cpu_s, was, now));
        raw_wall.push(pass.wall_s);
        // Bit-identity across passes is the verifier's job (a pass that
        // differs is a failed run); the score of any pass is the score.
        score = Some(fixture.judge(&pass, &mut verifier));
        digests = last_digests(&pass);
    }
    let score = score.expect("MIN_PASSES is positive");
    let mut specs = spec::end_to_end().into_iter();
    let mut next = || specs.next().expect("six end-to-end metrics are declared");
    let metrics = vec![
        Measured::median(next(), &setup_s),
        Measured::median(next(), &wall),
        Measured::median(next(), &cpu),
        Measured::single(next(), procfs::peak_rss_mib()),
        Measured::single(next(), score.virtual_s),
        Measured::single(next(), score.detect_rate),
    ];
    Ok(Record {
        args: args.clone(),
        attempted: verifier.attempted,
        failed: verifier.failed,
        passes: wall.len(),
        metrics,
        complaints: verifier.complaints,
        digests,
        peak_threads: 0,
        raw_wall_s: Summary::of(&raw_wall).median,
        calibration_s: Summary::of(&calibration).median,
    })
}

/// Samples the process's thread count until stopped. Only the traced
/// run starts one: it is the one extra harness thread, and it is
/// subtracted from what it reports (so a workload that spawns nothing
/// reads 1, the harness thread).
struct ThreadSampler {
    stop: std::sync::Arc<AtomicBool>,
    peak: std::sync::Arc<AtomicU64>,
    handle: std::thread::JoinHandle<()>,
}

impl ThreadSampler {
    fn start() -> ThreadSampler {
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let peak = std::sync::Arc::new(AtomicU64::new(0));
        let (stop_flag, peak_cell) = (stop.clone(), peak.clone());
        // `stop` publishes nothing but itself and `peak` is a statistic:
        // Relaxed suffices, and `join` orders the final read.
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                peak_cell.fetch_max(procfs::thread_count(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        ThreadSampler { stop, peak, handle }
    }

    /// Stops the sampler and returns the program's peak thread count
    /// (the harness thread counted, the sampler not).
    fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        // A sampler that panicked has nothing to report; 0 shows it.
        if self.handle.join().is_err() {
            return 0;
        }
        self.peak.load(Ordering::Relaxed).saturating_sub(1)
    }
}

/// The traced run: one pass under spans with the engine's tracer on,
/// then every per-layer probe; writes `trace-<workload>.json`.
pub fn traced(args: &Args) -> Result<Record, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let spans = Spans::new(true);
    let quiet = Spans::new(false);
    let mut verifier = Verifier::default();

    let fixture = spans.scope("setup", || {
        Fixture::setup(args.workload, args.seed, &spans, &mut verifier)
    })?;
    // The sampler watches the workload's own passes only: scene
    // synthesis uses kernel threads on every workload, and the probes
    // below run other workloads' passes too.
    let sampler = ThreadSampler::start();
    let base: Vec<f64> = (0..TRACE_BASE_PASSES)
        .map(|_| {
            let pass = fixture.pass(&quiet);
            fixture.judge(&pass, &mut verifier);
            pass.wall_s
        })
        .collect();
    spans.set_pass(1);
    let traced_pass = spans.scope("pass", || {
        fixture.pass_with(&spans, true, &hetero_hsi::FtOptions::default())
    });
    spans.set_pass(0);
    let peak_threads = sampler.finish();
    fixture.judge(&traced_pass, &mut verifier);
    let base_wall_s = Summary::of(&base).median;

    let mut layers = spans.scope("probes", || {
        probes::run_all(&spans, &fixture, args.seed, out_dir, &mut verifier)
    })?;
    layers.put(
        "harness.trace_overhead_ratio",
        traced_pass.wall_s / base_wall_s,
    );
    layers.put("harness.peak_threads", peak_threads as f64);

    let trace_file = out_dir.join(format!("trace-{}.json", args.workload.name()));
    std::fs::write(
        &trace_file,
        chrome_trace(&spans.finished(), args.workload.name()).to_compact(),
    )
    .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let mut complaints = verifier.complaints;
    complaints.append(&mut layers.complaints);
    let metrics = spec::per_layer()
        .into_iter()
        .map(|spec| {
            let value = layers.values.remove(&spec.name).unwrap_or_else(|| {
                complaints.push(format!("{} was not measured", spec.name));
                f64::NAN
            });
            Measured::single(spec, value)
        })
        .collect();
    complaints.extend(
        layers
            .values
            .keys()
            .map(|name| format!("{name} was measured but is not declared")),
    );
    Ok(Record {
        args: args.clone(),
        attempted: verifier.attempted,
        failed: verifier.failed,
        passes: TRACE_BASE_PASSES + 1,
        metrics,
        complaints,
        digests: last_digests(&traced_pass),
        peak_threads,
        raw_wall_s: f64::NAN,
        calibration_s: f64::NAN,
    })
}
