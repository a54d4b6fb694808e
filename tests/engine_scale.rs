//! The engine at the paper's largest scale (Table 8 / Fig. 2: 256
//! Thunderhead nodes) and under faults: whatever order the host runs
//! the rank threads in — 256 of them on a couple of cores, with or
//! without kernel threads beside them — a run's `RunReport` and output
//! repeat exactly.
//!
//! The transport itself (per-pair FIFO, exit-after-drain, dropped mail,
//! the `PeerLost` cascade) and the one-schedule-per-key count are unit
//! tests in `simnet`; this suite drives the same machinery through the
//! real algorithm drivers.

use heterospec::hetero::config::RunOptions;
use heterospec::hetero::ft::{run_replan, run_self_sched, FtOptions, FtRun};
use heterospec::hetero::sched::{AtdcaChunks, ChunkedAlgo, MorphChunks, PctChunks, UfclsChunks};
use heterospec::hetero::{par, OutputDigest};
use heterospec::simnet::engine::{Ctx, Engine};
use heterospec::simnet::report::RunReport;
use heterospec::simnet::{presets, FaultPlan};
use std::sync::{Mutex, MutexGuard, PoisonError};

const RERUNS: usize = 5;

/// The page-fault gates below need the C library's stack cache to
/// themselves (one of them counts in a child process it waits on), the
/// memory gate the process's peak resident size, and every test here
/// spawns rank threads: they take turns.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `run` on five reruns of a 1-thread-per-rank engine and once at 2:
/// every `(output digest, report)` equals the first.
fn assert_repeats(what: &str, engine: &Engine, run: impl Fn(&Engine) -> (u64, RunReport<()>)) {
    let narrow = engine.clone().with_threads_per_rank(1);
    let first = run(&narrow);
    for rerun in 1..RERUNS {
        assert_eq!(run(&narrow), first, "{what}: rerun {rerun}");
    }
    let wide = engine.clone().with_threads_per_rank(2);
    assert_eq!(run(&wide), first, "{what}: 2 kernel threads per rank");
}

#[test]
fn the_four_algorithms_repeat_exactly_on_256_ranks() {
    let _turn = one_at_a_time();
    // One image line per rank, as in the benchmark's thunderhead-scale.
    let scene = testutil::scene(256, 8, 32);
    let cube = &scene.cube;
    let params = testutil::params(4, 2);
    let options = RunOptions::hetero();
    let engine = Engine::new(presets::thunderhead(256));
    assert_repeats("atdca", &engine, |e| {
        let run = par::atdca::run(e, cube, &params, &options);
        (run.result.digest64(), run.report)
    });
    assert_repeats("ufcls", &engine, |e| {
        let run = par::ufcls::run(e, cube, &params, &options);
        (run.result.digest64(), run.report)
    });
    assert_repeats("pct", &engine, |e| {
        let run = par::pct::run(e, cube, &params, &options);
        (run.result.digest64(), run.report)
    });
    assert_repeats("morph", &engine, |e| {
        let run = par::morph::run(e, cube, &params, &options);
        (run.result.digest64(), run.report)
    });
}

/// Both ft drivers over `algo` under a plan that kills two workers,
/// slows a third and cuts a link: both crashes are recovered from, and
/// output, recoveries and report repeat exactly.
fn assert_ft_repeats<A>(algo: &A)
where
    A: ChunkedAlgo + Sync,
    A::Output: OutputDigest + Send,
{
    let plan = FaultPlan::new()
        .crash(2, 0.02)
        .crash(4, 0.03)
        .slowdown(5, 0.0, 0.5, 2.5)
        .link_outage(0, 7, 0.01, 0.05);
    let engine = Engine::new(presets::fully_heterogeneous()).with_faults(plan);
    let opts = FtOptions::default();
    for (mode, driver) in [
        (
            "self-sched",
            run_self_sched::<A> as fn(&Engine, &A, &FtOptions) -> FtRun<A::Output>,
        ),
        ("replan", run_replan::<A>),
    ] {
        let what = format!("{mode} {}", algo.name());
        assert_repeats(&what, &engine, |e| {
            let run = driver(e, algo, &opts);
            assert_eq!(run.recoveries.len(), 2, "{what}");
            assert_eq!(run.report.failures.len(), 2, "{what}");
            (run.output.digest64(), run.report)
        });
    }
}

/// Minor page faults taken so far by what `stat` describes
/// (`/proc/self/stat`: the process, exited threads included;
/// `/proc/thread-self/stat`: the calling thread): field 10, counted after
/// the `(comm)` field, which may itself hold spaces.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn minor_faults(stat: &str) -> u64 {
    let stat = std::fs::read_to_string(stat).expect("procfs");
    let after_comm = &stat[stat.rfind(')').expect("(comm) field") + 1..];
    // Field 3 (state) comes first after `(comm)`: field 10 is the 8th.
    after_comm
        .split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .expect("minflt field")
}

/// The minor faults a second 256-rank run's ranks take, summed over
/// ranks: each worker's whole thread, and rank 0's program, which runs
/// on this test's thread and so counts from its own start. Each rank
/// writes its rank over a `FRAME`-byte array on its stack, and every
/// worker sends the root what it reads back.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn warm_run_faults<const FRAME: usize>() -> u64 {
    let _turn = one_at_a_time();
    let engine = Engine::new(presets::thunderhead(256)).with_threads_per_rank(1);
    let run = || {
        engine.run(|ctx: &mut Ctx<u64>| {
            let before = match ctx.rank() {
                0 => minor_faults("/proc/thread-self/stat"),
                _ => 0,
            };
            let mut frame = [0u8; FRAME];
            frame.fill(ctx.rank() as u8);
            std::hint::black_box(&mut frame);
            if ctx.is_root() {
                let sum: u64 = (1..ctx.num_ranks()).map(|src| ctx.recv(src)).sum();
                assert_eq!(sum, 255 * 256 / 2);
            } else {
                ctx.send(0, u64::from(frame[0]));
            }
            minor_faults("/proc/thread-self/stat") - before
        })
    };
    let _warm = run();
    let report = run();
    assert!(report.ok(), "{:?}", report.failures);
    report.results.iter().flatten().sum()
}

/// Rank threads take over the previous run's stacks: 256 ranks' stacks
/// fit glibc's 40 MiB cache of exited threads' stacks, so a warm run
/// faults in next to nothing (3 faults measured). With 2 MiB stacks, 256
/// of them overflow the cache and the same run takes ≈ 700.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn a_warm_256_rank_run_faults_in_no_fresh_stacks() {
    let faults = warm_run_faults::<16>();
    assert!(
        faults <= 64,
        "{faults} minor faults on 256 warm rank threads"
    );
}

/// The rank stack has room for a 64 KiB frame: a smaller budget
/// overflows here instead of in some deeper rank program. (No fault
/// budget: glibc hands the kernel back the pages below a cached stack's
/// top 16 KiB, so a deep frame faults in again on every run.)
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn a_rank_program_has_room_for_a_64_kib_frame() {
    warm_run_faults::<{ 64 * 1024 }>();
}

/// A field of `/proc/self/status`, in KiB.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"))
}

/// PCT's master sums each covariance shard where it merges it, from the
/// shared cube, so no rank holds a 197 KiB shard of sums while it waits
/// for the gather: a warm 256-rank run on the benchmark's scene (256 ×
/// 16 pixels, 224 bands, one line per rank) raises the process's peak
/// resident size by a few MiB. Measured: 39.6–55.7 MiB when every
/// worker summed its own shard, 0.5–5.9 MiB with the master summing.
/// A size, no stopwatch.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn a_256_rank_pct_run_holds_no_covariance_shard_per_rank() {
    let _turn = one_at_a_time();
    let scene = testutil::scene(256, 16, 224);
    let params = heterospec::hetero::config::AlgoParams::default();
    let engine = Engine::new(presets::thunderhead(256));
    let run = || par::pct::run(&engine, &scene.cube, &params, &RunOptions::hetero());
    // Warm: rank stacks cached, the allocator's arenas made.
    let _warm = run();
    let before = status_kib("VmRSS");
    // Resets VmHWM to the current resident size.
    std::fs::write("/proc/self/clear_refs", "5").expect("clear_refs");
    let pct = run();
    let grew_mib = status_kib("VmHWM").saturating_sub(before) as f64 / 1024.0;
    assert!(pct.report.ok(), "{:?}", pct.report.failures);
    assert!(
        grew_mib < 16.0,
        "a 256-rank PCT run raised the peak resident size by {grew_mib:.1} MiB"
    );
}

/// Minor faults the whole process takes over a warm 256-rank `par::ufcls`
/// run on the benchmark's scene (256 × 16 pixels, 224 bands, one line
/// per rank), printed as `minor faults: N`. Meaningful in a process of
/// its own: memory an earlier test freed and the allocator kept would
/// absorb the run's allocations whatever they are.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
#[ignore = "a probe: a_warm_256_rank_ufcls_run_reuses_its_fcls_scratch runs it in a process of its own"]
fn warm_256_rank_ufcls_minor_faults() {
    let _turn = one_at_a_time();
    let scene = testutil::scene(256, 16, 224);
    let params = heterospec::hetero::config::AlgoParams::default();
    let engine = Engine::new(presets::thunderhead(256));
    let run = || par::ufcls::run(&engine, &scene.cube, &params, &RunOptions::hetero());
    // Warm: rank stacks cached, the allocator's arenas made.
    let _warm = run();
    let before = minor_faults("/proc/self/stat");
    let ufcls = run();
    let faults = minor_faults("/proc/self/stat") - before;
    assert!(ufcls.report.ok(), "{:?}", ufcls.report.failures);
    println!("minor faults: {faults}");
}

/// Runs this test binary on the `#[ignore]`d probe `name` in a process
/// of its own and returns the number its stdout prints after `label`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn probe_in_a_fresh_process(name: &str, label: &str) -> u64 {
    let exe = std::env::current_exe().expect("the test binary");
    let probe = std::process::Command::new(exe)
        .args(["--exact", name, "--include-ignored", "--nocapture"])
        .arg("--test-threads=1")
        .output()
        .expect("the probe process");
    let stdout = String::from_utf8_lossy(&probe.stdout);
    let stderr = String::from_utf8_lossy(&probe.stderr);
    assert!(probe.status.success(), "probe failed:\n{stdout}\n{stderr}");
    (stdout.split(label).nth(1))
        .and_then(|n| n.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no `{label}` in the probe's output:\n{stdout}"))
}

/// UFCLS's scans share one stack of idle FCLS workspaces, so a warm
/// 256-rank run reuses the workspaces earlier runs grew instead of
/// building one per rank thread, and faults in few pages
/// ([`warm_256_rank_ufcls_minor_faults`], run in a fresh process of this
/// binary). Measured on a 2-core x86-64 VM, dev and release: 1 430–2 110
/// faults with one workspace per rank thread, 70–690 from the shared
/// stack (the top of that with a build running beside it). A count, no
/// stopwatch.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn a_warm_256_rank_ufcls_run_reuses_its_fcls_scratch() {
    let _turn = one_at_a_time();
    let faults = probe_in_a_fresh_process("warm_256_rank_ufcls_minor_faults", "minor faults: ");
    assert!(
        faults <= 1000,
        "{faults} minor faults in a warm 256-rank UFCLS run"
    );
}

/// How much the peak resident size grows from the first to the last of
/// eight warm passes of the four `par` algorithms on `thunderhead(256)`
/// over the benchmark's scene (256 × 16 pixels, 224 bands, one line per
/// rank), printed as `VmHWM growth: N KiB`. A 4 MiB block is freed
/// first: glibc then raises its mmap threshold to that block's size and
/// its trim threshold to twice it, where the benchmark's setup leaves
/// them, so every smaller block comes from a heap and a thread's arena
/// keeps what it frees. Meaningful in a process of its own.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
#[ignore = "a probe: warm_runs_reuse_the_masters_buffers runs it in a process of its own"]
fn warm_256_rank_passes_vmhwm_growth() {
    let _turn = one_at_a_time();
    drop(std::hint::black_box(vec![1u8; 4 << 20]));
    let scene = testutil::scene(256, 16, 224);
    let cube = &scene.cube;
    let params = heterospec::hetero::config::AlgoParams::default();
    let options = RunOptions::hetero();
    let engine = Engine::new(presets::thunderhead(256));
    let pass = || {
        let failures = [
            par::atdca::run(&engine, cube, &params, &options)
                .report
                .failures,
            par::ufcls::run(&engine, cube, &params, &options)
                .report
                .failures,
            par::pct::run(&engine, cube, &params, &options)
                .report
                .failures,
            par::morph::run(&engine, cube, &params, &options)
                .report
                .failures,
        ];
        assert!(failures.iter().all(Vec::is_empty), "{failures:?}");
        status_kib("VmHWM")
    };
    let first = pass();
    let mut last = first;
    for _ in 1..8 {
        last = pass();
    }
    println!("VmHWM growth: {} KiB", last - first);
}

/// The master runs on the caller's thread, so the buffers it frees at
/// the end of a run (PCT's 401 KB eigenvector matrix and 203 KB
/// accumulator, the gather buffers) are reused by the next run from the
/// same arena, instead of staying behind in whichever of glibc's arenas
/// a fresh rank-0 thread was handed. So the peak resident size barely
/// grows over warm runs ([`warm_256_rank_passes_vmhwm_growth`], run in a
/// fresh process of this binary). Measured on a 2-core x86-64 VM, 12
/// runs a side over dev and release: 4 100–7 304 KiB with rank 0 on a
/// thread of its own, 1 908–3 128 KiB on the caller's. A size, no
/// stopwatch.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn warm_runs_reuse_the_masters_buffers() {
    let _turn = one_at_a_time();
    let kib = probe_in_a_fresh_process("warm_256_rank_passes_vmhwm_growth", "VmHWM growth: ");
    assert!(
        kib <= 3_584,
        "the peak resident size grew {kib} KiB over seven warm 256-rank passes"
    );
}

/// How much the peak resident size grows from the first to the last of
/// 17 warm `par::ufcls` passes on the 16-node network over the
/// benchmark's scene (256 × 16 pixels, 224 bands, 18 targets), printed
/// as `VmHWM growth: N KiB`. A 4 MiB block is freed first, as in
/// [`warm_256_rank_passes_vmhwm_growth`]. Meaningful in a process of its
/// own.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
#[ignore = "a probe: a_ufcls_carry_is_not_regrown_in_every_arena runs it in a process of its own"]
fn warm_ufcls_passes_vmhwm_growth() {
    let _turn = one_at_a_time();
    drop(std::hint::black_box(vec![1u8; 4 << 20]));
    let scene = testutil::scene(256, 16, 224);
    let params = heterospec::hetero::config::AlgoParams::default();
    let engine = Engine::new(presets::fully_heterogeneous());
    let pass = || {
        let run = par::ufcls::run(&engine, &scene.cube, &params, &RunOptions::hetero());
        assert!(run.report.ok(), "{:?}", run.report.failures);
        status_kib("VmHWM")
    };
    let first = pass();
    let mut last = first;
    for _ in 1..17 {
        last = pass();
    }
    println!("VmHWM growth: {} KiB", last - first);
}

/// UFCLS's carry — every line's endmember dots and NNLS trails — is
/// reserved once, where the run is made, at its final size, so the rank
/// thread that scores a line fills it instead of regrowing it round by
/// round in its own glibc arena, a copy per arena it lands in. So warm
/// passes barely raise the peak resident size
/// ([`warm_ufcls_passes_vmhwm_growth`], run in a fresh process of this
/// binary). Measured on a 2-core x86-64 VM, three runs a side: 4 924–5 820
/// KiB in dev and 4 824–5 388 in release while scans grew the lines,
/// 1 412–2 008 and 1 220–1 376 with the carry reserved. A size, no
/// stopwatch.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn a_ufcls_carry_is_not_regrown_in_every_arena() {
    let _turn = one_at_a_time();
    let kib = probe_in_a_fresh_process("warm_ufcls_passes_vmhwm_growth", "VmHWM growth: ");
    assert!(
        kib <= 3_584,
        "the peak resident size grew {kib} KiB over 16 warm 16-rank UFCLS passes"
    );
}

/// How much the peak resident size grows from the first to the last of
/// six warm passes of the four `par` algorithms on the 16-node network
/// over the benchmark's scene (256 × 16 pixels, 224 bands, the paper's
/// parameters), printed as `VmHWM growth: N KiB`. A 4 MiB block is freed
/// first, as in [`warm_256_rank_passes_vmhwm_growth`]. Meaningful in a
/// process of its own.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
#[ignore = "a probe: a_run_keeps_its_working_memory_out_of_the_rank_arenas runs it in a process of its own"]
fn warm_16_rank_passes_vmhwm_growth() {
    let _turn = one_at_a_time();
    drop(std::hint::black_box(vec![1u8; 4 << 20]));
    let scene = testutil::scene(256, 16, 224);
    let cube = &scene.cube;
    let params = heterospec::hetero::config::AlgoParams::default();
    let options = RunOptions::hetero();
    let engine = Engine::new(presets::fully_heterogeneous());
    let pass = || {
        let failures = [
            par::atdca::run(&engine, cube, &params, &options)
                .report
                .failures,
            par::ufcls::run(&engine, cube, &params, &options)
                .report
                .failures,
            par::pct::run(&engine, cube, &params, &options)
                .report
                .failures,
            par::morph::run(&engine, cube, &params, &options)
                .report
                .failures,
        ];
        assert!(failures.iter().all(Vec::is_empty), "{failures:?}");
        status_kib("VmHWM")
    };
    let first = pass();
    let mut last = first;
    for _ in 1..6 {
        last = pass();
    }
    println!("VmHWM growth: {} KiB", last - first);
}

/// A run's working memory is made by its owner, on the caller's thread:
/// each round's detector system by the master's merge, PCT's shard-band
/// buffers by the merge that lends them to its pool helpers, MORPH's MEI
/// workspaces by the run, for its largest window. So a rank thread's
/// glibc arena keeps none of it, and warm passes of the four algorithms
/// on the 16-node network barely raise the peak resident size
/// ([`warm_16_rank_passes_vmhwm_growth`], run in a fresh process of this
/// binary). Measured on a 2-core x86-64 VM, 14 runs a side over dev and
/// release: 1 396–2 440 KiB while the three grew in the ranks' and the
/// pool helpers' arenas, 316–496 KiB made by their owners. A size, no
/// stopwatch.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn a_run_keeps_its_working_memory_out_of_the_rank_arenas() {
    let _turn = one_at_a_time();
    let kib = probe_in_a_fresh_process("warm_16_rank_passes_vmhwm_growth", "VmHWM growth: ");
    assert!(
        kib <= 1_024,
        "the peak resident size grew {kib} KiB over five warm 16-rank passes"
    );
}

#[test]
fn both_ft_drivers_repeat_exactly_under_crashes_a_slowdown_and_a_link_outage() {
    let _turn = one_at_a_time();
    let scene = testutil::tiny_scene();
    let params = testutil::params(5, 2);
    assert_ft_repeats(&AtdcaChunks::new(&scene.cube, &params));
    assert_ft_repeats(&UfclsChunks::new(&scene.cube, &params));
    assert_ft_repeats(&PctChunks::new(&scene.cube, &params));
    assert_ft_repeats(&MorphChunks::new(&scene.cube, &params));
}
