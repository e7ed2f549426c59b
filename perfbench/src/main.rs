//! The benchmark: runs one named workload against the program's public
//! functions, checks its outputs, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <campaign|campaign_ckpt|device_full|pipeline>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--fingerprint <file>] [--out <dir>]
//! perfbench --write-fingerprint <file>
//! ```
//!
//! `--trace 0` times whole rounds of the workload for at least `--seconds`
//! and prints the end-to-end metrics; `--trace 1` runs the same work once
//! untraced and once with spans around every call into a layer, writes the
//! spans as Chrome-trace JSON under `--out`, and prints the per-layer
//! metrics. See README.md.

mod campaign;
mod device;
mod fingerprint;
mod metrics;
mod pipeline;
mod session;
mod stats;
mod trace;

use higpu_sim::gpu::Gpu;
use higpu_sim::stats::SimStats;
use higpu_workloads::WorkloadRegistry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` declares them.
pub const WORKLOADS: [&str; 4] = ["campaign", "campaign_ckpt", "device_full", "pipeline"];

/// Set-up is repeated in one run until it has taken this long (and at
/// least [`SETUP_MIN_REPS`] times); the median repetition is reported, since
/// a set-up of microseconds to milliseconds does not repeat within a tenth
/// from one sample.
const SETUP_WINDOW_S: f64 = 0.25;
const SETUP_MIN_REPS: usize = 3;

/// The registry the campaign tools sweep: the synthetic stress kernel plus
/// every Rodinia benchmark (17 workloads).
pub fn registry() -> WorkloadRegistry {
    let mut reg = WorkloadRegistry::new();
    higpu_workloads::synthetic::register(&mut reg);
    higpu_rodinia::register_all(&mut reg);
    reg
}

/// Parameters every workload receives.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub out_dir: PathBuf,
}

/// What one run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
    /// Simulated results of this run, compared with the stored fingerprint.
    pub fingerprint: BTreeMap<String, String>,
    /// Failed output checks; any makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn record(&mut self, key: String, value: impl ToString) {
        self.fingerprint.insert(key, value.to_string());
    }
}

/// The seed of round `round` of a run seeded with `seed` (splitmix64), so
/// every round draws fresh fault models and the same seed repeats them.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    let mut z = seed
        .wrapping_add((round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x5EED);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `setup` repeatedly (see [`SETUP_WINDOW_S`]); returns the last
/// result and the median duration in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let prepared = setup();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= SETUP_MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_WINDOW_S {
            return (prepared, stats::median(&times));
        }
    }
}

/// Runs whole rounds until at least `seconds` have passed (one round at
/// least). `round` returns that round's metric values; each metric's median
/// over the rounds is returned, so a stall of the host during one round
/// does not move the result.
pub fn median_over_rounds<const N: usize>(
    seconds: f64,
    mut round: impl FnMut(usize) -> [f64; N],
) -> [f64; N] {
    let t = Instant::now();
    let mut rounds: Vec<[f64; N]> = Vec::new();
    while rounds.is_empty() || t.elapsed().as_secs_f64() < seconds {
        rounds.push(round(rounds.len()));
    }
    std::array::from_fn(|k| stats::median(&rounds.iter().map(|r| r[k]).collect::<Vec<_>>()))
}

/// Runs `f`; `None` when it panicked (the panic hook has already printed
/// where).
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Simulated-statistics totals over the runs a traced pass made.
#[derive(Debug, Default, Clone)]
pub struct SimTotals {
    pub instructions: u64,
    pub cycles: u64,
    pub busy_sm_cycles: u64,
    pub sm_cycles: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub dram: u64,
    pub transactions: u64,
}

impl SimTotals {
    pub fn add(&mut self, s: &SimStats) {
        self.instructions += s.instructions;
        self.cycles += s.cycles;
        self.busy_sm_cycles += s.per_sm.iter().map(|m| m.busy_cycles).sum::<u64>();
        self.sm_cycles += s.cycles * s.per_sm.len() as u64;
        self.l1_hits += s.memory.l1.hits;
        self.l1_misses += s.memory.l1.misses;
        self.l2_hits += s.memory.l2.hits;
        self.l2_misses += s.memory.l2.misses;
        self.dram += s.memory.dram.reads + s.memory.dram.writes;
        self.transactions += s.memory.transactions;
    }

    /// Sets the `sim.*` statistics and the host-speed ratios derived from
    /// the `sim` layer's self time.
    pub fn report(&self, out: &mut Outcome, sim_self_ns: u64) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.set("sim.instructions", self.instructions as f64);
        out.set("sim.cycles", self.cycles as f64);
        out.set("sim.ipc", ratio(self.instructions, self.cycles));
        out.set("sim.l1_hits", self.l1_hits as f64);
        out.set("sim.l1_misses", self.l1_misses as f64);
        out.set("sim.l2_hits", self.l2_hits as f64);
        out.set("sim.l2_misses", self.l2_misses as f64);
        out.set("sim.dram_accesses", self.dram as f64);
        out.set("sim.transactions", self.transactions as f64);
        out.set(
            "sim.sm_utilization",
            ratio(self.busy_sm_cycles, self.sm_cycles),
        );
        out.set(
            "sim.ns_per_warp_instr",
            ratio(sim_self_ns, self.instructions),
        );
        out.set("sim.mcycles_per_s", ratio(self.cycles, sim_self_ns) * 1e3);
    }
}

/// Times [`Gpu::snapshot`] and [`Gpu::restore`] on a device that has just
/// run a workload: `(snapshot µs, restore µs, snapshot KiB)`.
pub fn snapshot_probe(gpu: &mut Gpu) -> (f64, f64, f64) {
    const REPS: usize = 20;
    let t = Instant::now();
    let mut snap = gpu.snapshot();
    for _ in 1..REPS {
        snap = std::hint::black_box(gpu.snapshot());
    }
    let snap_us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    let t = Instant::now();
    for _ in 0..REPS {
        gpu.restore(std::hint::black_box(&snap));
    }
    let restore_us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    (snap_us, restore_us, snap.approx_bytes() as f64 / 1024.0)
}

/// Closes a traced pass: writes the Chrome trace, sets the layer self
/// times, `trace.wall_ms`, `trace.attributed` (the share of the traced wall
/// time the program's layers account for) and `trace.overhead` against the
/// untraced pass of the same work.
pub fn finish_trace(
    out: &mut Outcome,
    opts: &Opts,
    name: &str,
    untraced_s: f64,
) -> Vec<trace::Span> {
    let spans = trace::finish();
    let by_layer = trace::self_time_by_layer(&spans);
    let root = spans.first().map_or(0, |s| s.end - s.start);
    for layer in metrics::LAYERS {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        out.set(&format!("{layer}.self_ms"), ns as f64 / 1e6);
    }
    let attributed: u64 = by_layer
        .iter()
        .filter(|(l, _)| **l != "bench")
        .map(|(_, t)| t)
        .sum();
    let share = attributed as f64 / root.max(1) as f64;
    out.set("trace.wall_ms", root as f64 / 1e6);
    out.set("trace.attributed", share);
    out.set("trace.overhead", root as f64 / 1e9 / untraced_s);
    out.check((0.9..=1.1).contains(&share), || {
        format!("layer self times cover {share:.3} of the traced wall time, outside 0.9..=1.1")
    });
    let file = opts
        .out_dir
        .join(format!("trace-{name}-{}.json", opts.seed));
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&file, trace::chrome_json(&spans)));
    match written {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {}",
            spans.len(),
            file.display()
        ),
        Err(e) => out
            .problems
            .push(format!("writing {}: {e}", file.display())),
    }
    spans
}

/// Mean of `values`, or 0 for none (a layer the workload never entered).
pub fn mean_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn run(workload: &str, traced: bool, opts: &Opts) -> Result<Outcome, String> {
    Ok(match (workload, traced) {
        ("campaign", false) => campaign::run(&campaign::PLAIN, opts),
        ("campaign", true) => campaign::run_traced(&campaign::PLAIN, opts),
        ("campaign_ckpt", false) => campaign::run(&campaign::CHECKPOINTED, opts),
        ("campaign_ckpt", true) => campaign::run_traced(&campaign::CHECKPOINTED, opts),
        ("device_full", false) => device::run(opts),
        ("device_full", true) => device::run_traced(opts),
        ("pipeline", false) => pipeline::run(opts),
        ("pipeline", true) => pipeline::run_traced(opts),
        (other, _) => return Err(format!("unknown workload '{other}' (one of {WORKLOADS:?})")),
    })
}

/// The command line.
struct Args {
    workload: Option<String>,
    traced: bool,
    opts: Opts,
    fingerprint: Option<PathBuf>,
    write_fingerprint: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut traced = false;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut fingerprint = None;
    let mut write_fingerprint = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 3600.0) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--fingerprint" => fingerprint = Some(PathBuf::from(value()?)),
            "--out" => opts.out_dir = PathBuf::from(value()?),
            "--write-fingerprint" => write_fingerprint = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload,
        traced,
        opts,
        fingerprint,
        write_fingerprint,
    })
}

fn main() {
    std::panic::set_hook(Box::new(|info| {
        let what = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_default();
        match info.location() {
            Some(l) => eprintln!("perfbench: operation panicked at {l}: {what}"),
            None => eprintln!("perfbench: operation panicked: {what}"),
        }
    }));
    let Args {
        workload,
        traced,
        opts,
        fingerprint: fp_file,
        write_fingerprint: write_fp,
    } = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = write_fp {
        std::process::exit(match fingerprint::write(&path) {
            Ok(n) => {
                eprintln!("perfbench: wrote {n} values to {}", path.display());
                0
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        });
    }
    let Some(workload) = workload else {
        eprintln!("perfbench: --workload is required (one of {WORKLOADS:?})");
        std::process::exit(2);
    };
    let mut out = match run(&workload, traced, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = fp_file {
        fingerprint::compare(&path, &out.fingerprint);
    }
    if !traced {
        match stats::peak_rss_mib() {
            Some(mib) => out.set("peak_rss_mb", mib),
            None => out.problems.push("VmHWM is not readable".into()),
        }
    }
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    match metrics::result_line(
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        traced,
        &out.values,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
