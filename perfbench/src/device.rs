//! `device_full`: fault-free SRRS@2 runs of the 17 registry workloads at
//! paper scale (`Scale::Full`) on the default device, each one verified.
//!
//! One operation is one redundant run. A round runs every workload in a
//! seed-shuffled order (the inputs themselves are the registry's fixed
//! paper-scale inputs), repeating each until it has simulated about
//! [`WINDOW_INSTR`] warp-instructions, so launch-bound small workloads
//! get a timing window long enough to repeat. The repeat count follows
//! from the (deterministic) instruction count of a run, so every round
//! makes the same operations.

use higpu_core::diversity::{analyze, DiversityRequirements};
use higpu_core::policy::PolicyKind;
use higpu_core::redundancy::{RedundancyMode, RedundantExecutor};
use higpu_faults::campaign::policy_mode;
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::Gpu;
use higpu_sim::stats::SimStats;
use higpu_workloads::runner::{run_redundant, run_solo};
use higpu_workloads::{verify_words, Scale, Workload};
use std::time::Instant;

use crate::session::run_redundant_traced;
use crate::trace::{self, span};
use crate::{mean_or_zero, round_seed, stats, Opts, Outcome, SimTotals};

/// Warp-instructions each workload simulates per round (at least one run).
const WINDOW_INSTR: u64 = 1_500_000;

struct Prepared {
    workloads: Vec<Box<dyn Workload>>,
    references: Vec<Vec<u32>>,
    gpu: Gpu,
    mode: RedundancyMode,
    build_ms: f64,
    reference_ms: f64,
}

fn prepare() -> Prepared {
    let t = Instant::now();
    let reg = crate::registry();
    let workloads: Vec<Box<dyn Workload>> = reg
        .names()
        .into_iter()
        .map(|n| reg.build(n, Scale::Full).expect("registered"))
        .collect();
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let references = workloads.iter().map(|w| w.reference()).collect();
    let reference_ms = t.elapsed().as_secs_f64() * 1e3;
    let cfg = GpuConfig::default();
    let mode = policy_mode(PolicyKind::Srrs, 2, cfg.num_sms).expect("SRRS@2");
    Prepared {
        workloads,
        references,
        gpu: Gpu::new(cfg),
        mode,
        build_ms,
        reference_ms,
    }
}

/// Per-workload accumulation over the timed rounds.
#[derive(Debug, Clone, Default)]
struct PerWorkload {
    /// Runs per round, fixed by the first run's instruction count.
    reps: Option<u64>,
    /// The first run's statistics; every later run must repeat them.
    first: Option<SimStats>,
    runs: u64,
    instructions: u64,
    secs: f64,
}

/// The order of round `round`: a seeded Fisher–Yates shuffle.
fn order(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        s = round_seed(s, i);
        idx.swap(i, (s % (i as u64 + 1)) as usize);
    }
    idx
}

/// One verified redundant run of workload `w`; `traced` wraps the layer
/// calls in spans.
fn one_run(p: &mut Prepared, w: usize, traced: bool, out: &mut Outcome) -> Option<SimStats> {
    let name = p.workloads[w].name();
    {
        let _s = span("sim", "reset");
        if p.gpu.reset().is_err() {
            p.gpu.force_reset();
        }
    }
    let run = {
        let exec = {
            let _s = span("core", "executor_new");
            RedundantExecutor::new(&mut p.gpu, p.mode.clone())
        };
        let mut exec = match exec {
            Ok(e) => e,
            Err(e) => {
                out.problems.push(format!("{name}: {e}"));
                return None;
            }
        };
        if traced {
            run_redundant_traced(&mut exec, &*p.workloads[w]).map(|(o, m, _)| (o, m == 0))
        } else {
            run_redundant(&mut exec, &*p.workloads[w])
                .map(|r| (r.matched(), r.output))
                .map(|(m, o)| (o, m))
        }
    };
    let (output, matched) = match run {
        Ok(r) => r,
        Err(e) => {
            out.problems.push(format!("{name}: {e}"));
            return None;
        }
    };
    let verified = {
        let _s = span("workloads", "verify");
        verify_words(&output, &p.references[w], p.workloads[w].tolerance())
    };
    let diverse = {
        let _s = span("core", "diversity");
        analyze(p.gpu.trace(), DiversityRequirements::default()).is_diverse()
    };
    out.check(matched, || {
        format!("{name}: replicas disagree on a fault-free run")
    });
    out.check(verified.is_ok(), || {
        format!("{name}: output fails verification: {verified:?}")
    });
    out.check(diverse, || format!("{name}: the SRRS trace is not diverse"));
    Some(p.gpu.stats())
}

/// One round; returns the instructions it simulated.
fn round(
    p: &mut Prepared,
    seed: u64,
    traced: bool,
    acc: &mut [PerWorkload],
    out: &mut Outcome,
    sim: &mut SimTotals,
) -> u64 {
    let mut instructions = 0;
    for w in order(p.workloads.len(), seed) {
        let mut done = 0;
        loop {
            if acc[w].reps.is_some_and(|r| done >= r) {
                break;
            }
            trace::set_op(out.attempted + 1);
            let t = Instant::now();
            let stats = one_run(p, w, traced, out);
            let secs = t.elapsed().as_secs_f64();
            out.attempted += 1;
            done += 1;
            let Some(stats) = stats else {
                out.failed += 1;
                acc[w].reps.get_or_insert(1);
                continue;
            };
            let a = &mut acc[w];
            a.reps.get_or_insert_with(|| {
                WINDOW_INSTR
                    .div_ceil(stats.instructions.max(1))
                    .clamp(1, 500)
            });
            match &a.first {
                None => a.first = Some(stats.clone()),
                Some(first) => out.check(*first == stats, || {
                    format!(
                        "{}: simulated statistics changed between runs",
                        p.workloads[w].name()
                    )
                }),
            }
            a.runs += 1;
            a.instructions += stats.instructions;
            a.secs += secs;
            instructions += stats.instructions;
            sim.add(&stats);
        }
    }
    instructions
}

fn record(p: &Prepared, acc: &[PerWorkload], out: &mut Outcome) {
    for (w, a) in acc.iter().enumerate() {
        let Some(s) = &a.first else { continue };
        let k = format!("device_full.{}", p.workloads[w].name());
        out.record(format!("{k}.instructions"), s.instructions);
        out.record(format!("{k}.cycles"), s.cycles);
        out.record(
            format!("{k}.l1"),
            format!("hits={} misses={}", s.memory.l1.hits, s.memory.l1.misses),
        );
        out.record(
            format!("{k}.l2"),
            format!("hits={} misses={}", s.memory.l2.hits, s.memory.l2.misses),
        );
        out.record(
            format!("{k}.dram"),
            format!(
                "reads={} writes={}",
                s.memory.dram.reads, s.memory.dram.writes
            ),
        );
        out.record(format!("{k}.transactions"), s.memory.transactions);
    }
}

fn mips(a: &PerWorkload) -> f64 {
    a.instructions as f64 / a.secs / 1e6
}

/// The untraced run: whole rounds for at least `--seconds`.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (mut p, setup_s) = crate::repeated_setup(prepare);
    let mut acc = vec![PerWorkload::default(); p.workloads.len()];
    let mut sim = SimTotals::default();
    let [ops, mips, geomean] = crate::median_over_rounds(opts.seconds, |r| {
        let before = acc.clone();
        let completed_before = out.attempted - out.failed;
        let t = Instant::now();
        let seed = round_seed(opts.seed, r);
        let instructions = round(&mut p, seed, false, &mut acc, &mut out, &mut sim);
        let secs = t.elapsed().as_secs_f64();
        let per: Vec<f64> = acc
            .iter()
            .zip(&before)
            .filter(|(a, b)| a.runs > b.runs)
            .map(|(a, b)| (a.instructions - b.instructions) as f64 / (a.secs - b.secs) / 1e6)
            .collect();
        let completed = out.attempted - out.failed - completed_before;
        [
            completed as f64 / secs,
            instructions as f64 / secs / 1e6,
            stats::geomean(&per),
        ]
    });
    record(&p, &acc, &mut out);
    out.set("setup_s", setup_s);
    out.set("ops_per_s", ops);
    out.set("sim_mips", mips);
    out.set("sim_mips_geomean", geomean);
    out
}

/// The traced run: one untraced round, one solo run of each workload (the
/// redundancy's host and simulated cost), then the same round traced.
pub fn run_traced(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut p = prepare();
    let seed = round_seed(opts.seed, 0);
    let mut acc = vec![PerWorkload::default(); p.workloads.len()];
    let mut sim = SimTotals::default();
    let t = Instant::now();
    round(&mut p, seed, false, &mut acc, &mut out, &mut sim);
    let untraced_s = t.elapsed().as_secs_f64();
    record(&p, &acc, &mut out);

    let mut host_ratio = Vec::new();
    let mut cycle_ratio = Vec::new();
    for (w, a) in acc.iter().enumerate() {
        let Some(redundant) = &a.first else { continue };
        if p.gpu.reset().is_err() {
            p.gpu.force_reset();
        }
        let t = Instant::now();
        let solo = run_solo(&mut p.gpu, &*p.workloads[w]);
        let solo_s = t.elapsed().as_secs_f64();
        match solo {
            Ok(output) => {
                let ok = verify_words(&output, &p.references[w], p.workloads[w].tolerance());
                out.check(ok.is_ok(), || {
                    format!("{}: solo output fails verification", p.workloads[w].name())
                });
                host_ratio.push((a.secs / a.runs as f64) / solo_s);
                cycle_ratio.push(redundant.cycles as f64 / p.gpu.stats().cycles as f64);
            }
            Err(e) => out
                .problems
                .push(format!("{}: solo run: {e}", p.workloads[w].name())),
        }
    }

    trace::start();
    let mut traced_acc: Vec<PerWorkload> = acc
        .iter()
        .map(|a| PerWorkload {
            reps: a.reps,
            first: a.first.clone(),
            ..PerWorkload::default()
        })
        .collect();
    let mut traced_sim = SimTotals::default();
    {
        let _root = span("bench", "device_full");
        round(
            &mut p,
            seed,
            true,
            &mut traced_acc,
            &mut out,
            &mut traced_sim,
        );
    }
    let spans = crate::finish_trace(&mut out, opts, "device_full", untraced_s);
    let by_layer = trace::self_time_by_layer(&spans);
    traced_sim.report(&mut out, by_layer.get("sim").copied().unwrap_or(0));
    for (w, a) in acc.iter().enumerate() {
        out.set(
            &format!("sim.mips.{}", p.workloads[w].name()),
            if a.runs > 0 { mips(a) } else { 0.0 },
        );
    }
    out.set(
        "sim.reset_us",
        mean_or_zero(&trace::durations(&spans, "sim", "reset")) / 1e3,
    );
    // The device still holds the last workload's end state.
    let (snap_us, restore_us, snap_kb) = crate::snapshot_probe(&mut p.gpu);
    out.set("sim.snapshot_us", snap_us);
    out.set("sim.restore_us", restore_us);
    out.set("sim.snapshot_kb", snap_kb);
    out.set("core.redundant_over_solo", stats::geomean(&host_ratio));
    out.set("core.makespan_overhead", stats::geomean(&cycle_ratio));
    out.set("workloads.build_ms", p.build_ms);
    out.set("workloads.reference_ms", p.reference_ms);
    out.set(
        "workloads.verify_ms",
        mean_or_zero(&trace::durations(&spans, "workloads", "verify")) / 1e6,
    );
    for name in [
        "faults.trial_us_p50",
        "faults.trial_us_p99",
        "faults.calibrate_ms",
        "faults.trials_simulated",
        "faults.trials_skipped",
        "faults.activated_per_simulated",
        "faults.restores_per_trial",
        "faults.pool_speedup",
    ] {
        out.set(name, 0.0);
    }
    crate::pipeline::set_absent(&mut out);
    out
}
