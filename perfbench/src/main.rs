//! The repository's benchmark: three named workloads driven through the
//! public crate APIs, every end-to-end metric printed by name and unit,
//! each workload's outputs checked, and a traced mode that reports the
//! per-layer numbers.
//!
//! ```text
//! perfbench --workload paper-grid|big-cluster|serve-fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Output: a provenance line, the phase table on traced runs, and as the
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is 0 when the run completed, whether or not
//! the outputs were correct (`correct` says that); bad arguments exit 2.

mod cluster;
mod fleet;
mod grid;
mod report;
mod trace;

use mapreduce::EngineState;
use report::{fmt_num, json_str, Outcome};
use std::path::PathBuf;
use std::time::Instant;

/// The parsed command line and the run's fixed settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Nominal measurement length, seconds: it sizes each workload's
    /// fixed amount of work.
    pub seconds: f64,
    pub traced: bool,
    /// Set the workload up once, print the seconds it took, and exit
    /// (see [`probe_in_child`]).
    pub probe: bool,
    /// Worker threads of the pool: one per available core, except on
    /// `serve-fleet`.
    pub workers: usize,
    /// Scratch directory for capsules and snapshots, removed on exit.
    pub tmp: PathBuf,
}

const WORKLOADS: [&str; 3] = ["paper-grid", "big-cluster", "serve-fleet"];

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut probe = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--setup-probe" => probe = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let tmp = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    // with one pool worker the fleet's tick thread runs the tenant
    // advances itself; a second one raises throughput on two cores but
    // competes with the wire, client and reader threads, and made both
    // throughput and read latency swing from run to run
    let workers = if workload == "serve-fleet" {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    Ok(Ctx {
        workload,
        seed: seed.unwrap_or(0),
        seconds,
        traced: trace.unwrap_or(false),
        probe,
        workers,
        tmp,
    })
}

/// Set-ups timed per run: at least this many...
const MIN_SETUPS: usize = 9;
/// ...and more until this long has passed, up to [`MAX_SETUPS`].
const SETUP_BUDGET_S: f64 = 1.5;
const MAX_SETUPS: usize = 60;

/// Time the workload's set-up with `once`, which returns the seconds one
/// set-up took, and record the median as `setup_s`.
pub fn timed_setups(out: &mut Outcome, mut once: impl FnMut() -> Result<f64, String>) {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_SETUPS
        || (started.elapsed().as_secs_f64() < SETUP_BUDGET_S && times.len() < MAX_SETUPS)
    {
        match once() {
            Ok(s) => times.push(s),
            Err(e) => return out.problem(format!("set-up: {e}")),
        }
    }
    out.setups = times.len() as u64;
    out.set("setup_s", report::median(&mut times));
}

/// One set-up in a fresh child process of this program (`--setup-probe
/// 1`), which times it and prints the seconds. In one long-lived process
/// repeated set-ups of the batch workloads land on whatever memory the
/// allocator kept from the previous one, and their times jumped between
/// two modes from process to process; a fresh process starts from the
/// same state every time, as a user's first set-up does.
pub fn probe_in_child(ctx: &Ctx) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = ctx.seed.to_string();
    let probe = std::process::Command::new(exe)
        .args(["--workload", &ctx.workload, "--seed", &seed, "--setup-probe", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !probe.status.success() {
        return Err(format!("set-up probe exited with {}", probe.status));
    }
    String::from_utf8_lossy(&probe.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("set-up probe output: {e}"))
}

/// Passes a batch workload measures: enough for `--seconds` at `pass_s`
/// seconds per pass on the reference host, and at least 2. A fixed count
/// gives every run the same work. When the clock decided, a run's last
/// pass started or not by a margin of a few hundred ms, and the slower
/// first pass weighed 1/2 or 1/3 of big-cluster's result.
pub fn planned_passes(ctx: &Ctx, pass_s: f64) -> u64 {
    ((ctx.seconds / pass_s).ceil() as u64).max(2)
}

/// Whether a workload that began at `started` may start another unit of
/// work: measurement stops after 3 × `--seconds` even if its planned work
/// is not done, which bounds the run time of a much slower build.
pub fn within_cap(ctx: &Ctx, started: Instant) -> bool {
    started.elapsed().as_secs_f64() < 3.0 * ctx.seconds
}

/// Seconds `build` takes; dropping its result is not timed.
pub fn time_once<T>(build: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    let built = build();
    let seconds = t.elapsed().as_secs_f64();
    drop(built);
    seconds
}

/// Compare a canary run's digest with the value recorded in the source.
pub fn check_canary(out: &mut Outcome, digest: u64, recorded: u64) {
    if digest != recorded {
        out.problem(format!(
            "canary digest {digest:#018x} != recorded {recorded:#018x}"
        ));
    }
}

/// Fold one run's auditor fingerprint and step count into a digest.
pub fn fold_digest(digest: u64, fingerprint: u64, steps: u64) -> u64 {
    mapreduce::fold_hash(mapreduce::fold_hash(digest, fingerprint), steps)
}

/// splitmix64: the benchmark's input generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One in-process read of clusters: the `EngineState::observe`
/// projection of each, which the realtime service builds for every frame
/// it publishes. Returns the latency in ms.
///
/// A stand-in for the batch workloads, which have no read path of their
/// own but must report `observe_*` like every workload; the real read is
/// measured on `serve-fleet`. It leaves out the JSON encoding a wire
/// reply adds: encoding a 1024-node observation took either 0.75 or
/// 1.3 ms depending on the process, as its large buffers did or did not
/// come back from the allocator's own free lists.
pub fn observe_once<S: std::borrow::Borrow<EngineState>>(states: &[S]) -> f64 {
    let t = Instant::now();
    let observations: Vec<_> = states.iter().map(|s| s.borrow().observe()).collect();
    std::hint::black_box(&observations);
    t.elapsed().as_secs_f64() * 1e3
}

fn provenance(ctx: &Ctx, out: &Outcome, wall_s: f64) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"workers\": {}, \"rustc\": {}, \"profile\": {}, \"rev\": {}, \
         \"repeats\": {}, \"samples\": {}, \"setups\": {}, \"wall_s\": {}}}}}",
        json_str(&ctx.workload),
        ctx.seed,
        fmt_num(ctx.seconds),
        ctx.traced as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        ctx.workers,
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(&env("PERFBENCH_REV")),
        out.repeats,
        out.samples,
        out.setups,
        fmt_num(wall_s),
    )
}

fn main() {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if ctx.probe {
        let seconds = match ctx.workload.as_str() {
            "paper-grid" => grid::setup_probe(&ctx),
            "big-cluster" => cluster::setup_probe(&ctx),
            _ => fleet::setup_probe(&ctx),
        };
        match seconds {
            Ok(s) => println!("{}", fmt_num(s)),
            Err(e) => {
                eprintln!("perfbench: set-up probe: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.tmp.display());
        std::process::exit(1);
    }
    let started = Instant::now();
    let out = match ctx.workload.as_str() {
        "paper-grid" => grid::run(&ctx),
        "big-cluster" => cluster::run(&ctx),
        _ => fleet::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    println!(
        "{}",
        provenance(&ctx, &out, started.elapsed().as_secs_f64())
    );
    for p in &out.problems {
        println!("check failed: {p}");
    }
    for table in &out.phases {
        print!("{}", table.render());
    }
    println!("{}", report::result_line(&out, ctx.traced));
}
