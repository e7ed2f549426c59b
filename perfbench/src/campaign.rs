//! `campaign` and `campaign_ckpt`: SRRS fault campaigns over the 17
//! registry workloads at campaign scale, transient and permanent families.
//!
//! A round is one campaign per (workload, family) cell through the
//! engine's public entry, `run_campaign_with_perf`; one operation is one
//! injection trial. `kmeans` keeps the fixed seed 7, at which a corrupted
//! membership word makes `Kmeans::cpu_update` index out of bounds and the
//! engine re-raise the panic: every trial of those cells counts as
//! attempted and failed, in every run, whatever `--seed`.

use higpu_core::policy::PolicyKind;
use higpu_core::redundancy::RedundancyMode;
use higpu_core::redundancy::RedundantExecutor;
use higpu_faults::campaign::{
    draw_models, dry_run_makespan, ftti_deadline, policy_mode, run_campaign_with_perf,
    trivially_not_activated, CampaignConfig, CampaignReport, CampaignRunner, FaultSpec,
    TrialOutcome,
};
use higpu_faults::checkpoint::{record_reference, CheckpointConfig};
use higpu_faults::workload::{CampaignWorkload, RedundantWorkload};
use higpu_sim::gpu::Gpu;
use higpu_workloads::runner::run_redundant;
use higpu_workloads::{verify_words, Scale};
use std::time::Instant;

use crate::session::TracedWorkload;
use crate::trace::{self, span};
use crate::{guarded, mean_or_zero, round_seed, stats, Opts, Outcome, SimTotals};

/// One campaign workload's configuration.
#[derive(Debug)]
pub struct Kind {
    pub name: &'static str,
    pub replicas: u8,
    pub workers: usize,
    pub checkpoint: Option<CheckpointConfig>,
    /// Cells left out, as (workload, fault label): on some seeds their
    /// SRRS campaigns classify a trial as an undetected failure, so the
    /// check that SRRS leaves none would fail only now and then (see
    /// README.md, "Faults found").
    pub left_out: &'static [(&'static str, &'static str)],
}

/// SRRS@2 from zero at 2 workers: the production campaign path.
pub const PLAIN: Kind = Kind {
    name: "campaign",
    replicas: 2,
    workers: 2,
    checkpoint: None,
    left_out: &[("cfd", "permanent-sm")],
};

/// SRRS@3 (TMR, majority vote) with checkpointed suffix replay at 1 worker.
pub const CHECKPOINTED: Kind = Kind {
    name: "campaign_ckpt",
    replicas: 3,
    workers: 1,
    checkpoint: Some(CheckpointConfig { stride: 4096 }),
    left_out: &[
        ("bfs", "transient-sm"),
        ("iterated_fma", "permanent-sm"),
        ("backprop", "permanent-sm"),
        ("bfs", "permanent-sm"),
        ("cfd", "permanent-sm"),
        ("dwt2d", "permanent-sm"),
        ("gaussian", "permanent-sm"),
        ("hotspot", "permanent-sm"),
        ("hotspot3D", "permanent-sm"),
        ("leukocyte", "permanent-sm"),
        ("lud", "permanent-sm"),
        ("myocyte", "permanent-sm"),
        ("nn", "permanent-sm"),
        ("nw", "permanent-sm"),
        ("pathfinder", "permanent-sm"),
        ("srad", "permanent-sm"),
        ("streamcluster", "permanent-sm"),
    ],
};

/// Trials per cell. kmeans's panic fires within the first 100 models at
/// seed 7 for both families at 2 and at 3 replicas.
const TRIALS: u32 = 100;

/// The families swept; the 400-cycle transient window is the campaign
/// matrix's default.
const FAULTS: [FaultSpec; 2] = [FaultSpec::Transient { duration: 400 }, FaultSpec::Permanent];

/// The seed `kmeans` cells always run at (see the module docs).
const KMEANS_SEED: u64 = 7;

struct Cell {
    workload: usize,
    fault: FaultSpec,
}

struct Prepared {
    workloads: Vec<CampaignWorkload>,
    /// CPU references of the fault-free check.
    references: Vec<Vec<u32>>,
    /// The device of the fault-free check.
    gpu: Gpu,
    cells: Vec<Cell>,
    mode: RedundancyMode,
    base: CampaignConfig,
    build_ms: f64,
    reference_ms: f64,
}

fn prepare(kind: &Kind) -> Prepared {
    let t = Instant::now();
    let reg = crate::registry();
    let workloads: Vec<CampaignWorkload> = reg
        .names()
        .into_iter()
        .map(|n| CampaignWorkload::from_registry(&reg, n, Scale::Campaign).expect("registered"))
        .collect();
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let references = workloads.iter().map(|w| w.inner().reference()).collect();
    let reference_ms = t.elapsed().as_secs_f64() * 1e3;
    let cells = (0..workloads.len())
        .flat_map(|workload| FAULTS.map(|fault| Cell { workload, fault }))
        .filter(|c| {
            let cell = (workloads[c.workload].name(), c.fault.label());
            !kind.left_out.contains(&cell)
        })
        .collect();
    let base = CampaignConfig {
        trials: TRIALS,
        checkpoint: kind.checkpoint,
        ..CampaignConfig::default()
    };
    let mode = policy_mode(PolicyKind::Srrs, kind.replicas, base.gpu.num_sms)
        .expect("SRRS runs at any replica count");
    Prepared {
        workloads,
        references,
        gpu: Gpu::new(base.gpu.clone()),
        cells,
        mode,
        base,
        build_ms,
        reference_ms,
    }
}

impl Prepared {
    fn cfg(
        &self,
        cell: &Cell,
        seed: u64,
        workers: usize,
        ckpt: Option<CheckpointConfig>,
    ) -> CampaignConfig {
        let kmeans = self.workloads[cell.workload].name() == "kmeans";
        CampaignConfig {
            seed: if kmeans { KMEANS_SEED } else { seed },
            workers,
            checkpoint: ckpt,
            ..self.base.clone()
        }
    }
}

/// Result of one engine pass over every cell.
struct Pass {
    /// Per cell: the report, or `None` when the cell aborted.
    reports: Vec<Option<CampaignReport>>,
    secs: f64,
    instructions: u64,
    /// Trials of the cells that completed.
    completed: u64,
    /// Per workload: (instructions, seconds, some cell failed).
    per_workload: Vec<(u64, f64, bool)>,
}

impl Pass {
    /// `[ops_per_s, sim_mips, sim_mips_geomean]` of this pass; the geomean
    /// runs over the workloads whose cells all completed.
    fn metrics(&self) -> [f64; 3] {
        let mips: Vec<f64> = self
            .per_workload
            .iter()
            .filter(|(i, s, failed)| !failed && *i > 0 && *s > 0.0)
            .map(|&(i, s, _)| i as f64 / s / 1e6)
            .collect();
        [
            self.completed as f64 / self.secs,
            self.instructions as f64 / self.secs / 1e6,
            stats::geomean(&mips),
        ]
    }
}

/// Checks one cell's report: outcomes sum to the trials and, SRRS being a
/// diverse policy, no fault went undetected (the paper's claim).
fn check_report(out: &mut Outcome, r: &CampaignReport) {
    let sum = r.not_activated + r.masked + r.detected + r.corrected + r.undetected;
    out.check(sum == r.trials, || {
        format!(
            "{}/{}: outcomes sum to {sum}, not {}",
            r.workload, r.fault, r.trials
        )
    });
    out.check(r.undetected == 0, || {
        format!(
            "{}/{}: {} undetected failures under SRRS@{}",
            r.workload, r.fault, r.undetected, r.replicas
        )
    });
}

fn record(out: &mut Outcome, kind: &Kind, seed: u64, r: &CampaignReport, instructions: u64) {
    let cell = format!("{}.{}.{}", kind.name, r.workload, r.fault);
    out.record(format!("{cell}.fault_free_makespan"), r.fault_free_makespan);
    let seeded = format!("{}.seed{seed:016x}.{}.{}", kind.name, r.workload, r.fault);
    out.record(
        format!("{seeded}.outcomes"),
        format!(
            "na={} masked={} detected={} corrected={} undetected={}",
            r.not_activated, r.masked, r.detected, r.corrected, r.undetected
        ),
    );
    out.record(format!("{seeded}.sim_instructions"), instructions);
}

/// One engine pass over every cell.
fn engine_pass(
    p: &Prepared,
    kind: &Kind,
    seed: u64,
    workers: usize,
    ckpt: Option<CheckpointConfig>,
    out: &mut Outcome,
) -> Pass {
    let t0 = Instant::now();
    let mut pass = Pass {
        reports: Vec::with_capacity(p.cells.len()),
        secs: 0.0,
        instructions: 0,
        completed: 0,
        per_workload: vec![(0, 0.0, false); p.workloads.len()],
    };
    for cell in &p.cells {
        let cfg = p.cfg(cell, seed, workers, ckpt);
        let wl = &p.workloads[cell.workload];
        let t = Instant::now();
        let result = guarded(|| run_campaign_with_perf(&cfg, &p.mode, cell.fault, wl));
        let secs = t.elapsed().as_secs_f64();
        out.attempted += u64::from(cfg.trials);
        let slot = &mut pass.per_workload[cell.workload];
        match result {
            Some(Ok((report, perf))) => {
                check_report(out, &report);
                record(out, kind, cfg.seed, &report, perf.sim_instructions);
                pass.completed += u64::from(cfg.trials);
                pass.instructions += perf.sim_instructions;
                slot.0 += perf.sim_instructions;
                slot.1 += secs;
                pass.reports.push(Some(report));
            }
            failure => {
                let why = match failure {
                    Some(Err(e)) => format!("campaign error: {e}"),
                    _ => "aborted by a panicking trial".to_string(),
                };
                eprintln!(
                    "perfbench: {} {}: {why}; its {} trials count as failed",
                    wl.name(),
                    cell.fault.label(),
                    cfg.trials
                );
                out.failed += u64::from(cfg.trials);
                slot.2 = true;
                pass.reports.push(None);
            }
        }
    }
    pass.secs = t0.elapsed().as_secs_f64();
    pass
}

/// The untraced run: whole rounds for at least `--seconds`.
pub fn run(kind: &Kind, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (mut p, setup_s) = crate::repeated_setup(|| prepare(kind));
    fault_free_check(&mut p, &mut out, false);
    let [ops, mips, geomean] = crate::median_over_rounds(opts.seconds, |round| {
        let seed = round_seed(opts.seed, round);
        engine_pass(&p, kind, seed, kind.workers, kind.checkpoint, &mut out).metrics()
    });
    out.set("setup_s", setup_s);
    out.set("ops_per_s", ops);
    out.set("sim_mips", mips);
    out.set("sim_mips_geomean", geomean);
    out
}

/// What the traced trial loop observed.
#[derive(Default)]
struct TraceAcc {
    trial_ns: Vec<f64>,
    simulated: u64,
    skipped: u64,
    activated: u64,
    restores: u64,
    trials: u64,
    sim: SimTotals,
    op: u64,
}

/// The engine's trial loop at one worker, decomposed into its public
/// steps with spans: calibration (`dry_run_makespan` or
/// `record_reference`), `draw_models`, then per trial `Gpu::reset` and
/// `CampaignRunner::run_trial_observed_with_makespan`. Returns the report
/// the engine would have produced.
fn traced_cell(
    p: &Prepared,
    cell: &Cell,
    cfg: &CampaignConfig,
    acc: &mut TraceAcc,
) -> Option<CampaignReport> {
    let inner = p.workloads[cell.workload].inner();
    let wl = TracedWorkload(inner);
    let calibrated = {
        let _s = span("faults", "calibrate");
        match cfg.checkpoint {
            Some(ck) => record_reference(cfg, &p.mode, &wl, ck.stride).map(|r| {
                let m = r.makespan();
                (Some(r), m)
            }),
            None => dry_run_makespan(cfg, &p.mode, &wl).map(|m| (None, m)),
        }
    };
    let (reference, makespan) = calibrated.ok()?;
    let deadline = Some(ftti_deadline(makespan, wl.ftti_multiplier()));
    let models = {
        let _s = span("faults", "draw_models");
        draw_models(cfg, cell.fault, makespan)
    };
    let mut runner = CampaignRunner::new(cfg);
    let mut report = CampaignReport {
        workload: inner.name().to_string(),
        policy: p.mode.policy_kind().label().to_string(),
        fault: cell.fault.label(),
        replicas: p.mode.replicas(),
        fault_free_makespan: makespan,
        trials: cfg.trials,
        not_activated: 0,
        masked: 0,
        detected: 0,
        corrected: 0,
        undetected: 0,
    };
    for model in models {
        acc.op += 1;
        trace::set_op(acc.op);
        let t = Instant::now();
        let trivial = trivially_not_activated(model, makespan, deadline);
        let trial = {
            let _s = span("faults", "trial");
            if !trivial {
                let _r = span("sim", "reset");
                let gpu = runner.gpu_mut();
                if gpu.reset().is_err() {
                    gpu.force_reset();
                }
            }
            runner.run_trial_observed_with_makespan(
                &p.mode,
                &wl,
                model,
                deadline,
                reference.as_ref(),
                makespan,
            )
        };
        acc.trial_ns.push(t.elapsed().as_nanos() as f64);
        let (outcome, obs) = trial.ok()?;
        acc.trials += 1;
        if trivial {
            acc.skipped += 1;
        } else {
            acc.simulated += 1;
            acc.sim.add(&runner.gpu_mut().stats());
        }
        acc.activated += u64::from(obs.activated);
        acc.restores += obs.restores;
        match outcome {
            TrialOutcome::NotActivated => report.not_activated += 1,
            TrialOutcome::Masked => report.masked += 1,
            TrialOutcome::Detected => report.detected += 1,
            TrialOutcome::Corrected => report.corrected += 1,
            TrialOutcome::UndetectedFailure => report.undetected += 1,
        }
    }
    Some(report)
}

/// Checks that every workload's fault-free redundant run at campaign scale
/// agrees across replicas and verifies against its CPU reference — the
/// oracle every trial is classified by. With `probe`, also times
/// `Gpu::snapshot`/`Gpu::restore` after each run and returns the means.
fn fault_free_check(p: &mut Prepared, out: &mut Outcome, probe: bool) -> (f64, f64, f64) {
    let mut acc = (Vec::new(), Vec::new(), Vec::new());
    for (wl, reference) in p.workloads.iter().zip(&p.references) {
        if p.gpu.reset().is_err() {
            p.gpu.force_reset();
        }
        let run = RedundantExecutor::new(&mut p.gpu, p.mode.clone())
            .map_err(|e| e.to_string())
            .and_then(|mut exec| run_redundant(&mut exec, wl.inner()).map_err(|e| e.to_string()));
        match run {
            Ok(run) => {
                let v = verify_words(&run.output, reference, wl.inner().tolerance());
                out.check(run.matched() && v.is_ok(), || {
                    format!(
                        "{}: fault-free run: matched {}, {v:?}",
                        wl.name(),
                        run.matched()
                    )
                });
            }
            Err(e) => out
                .problems
                .push(format!("{}: fault-free run: {e}", wl.name())),
        }
        if probe {
            let (s, r, kb) = crate::snapshot_probe(&mut p.gpu);
            acc.0.push(s);
            acc.1.push(r);
            acc.2.push(kb);
        }
    }
    (
        mean_or_zero(&acc.0),
        mean_or_zero(&acc.1),
        mean_or_zero(&acc.2),
    )
}

/// The traced run: the round at seed round 0 through the engine at one and
/// at two workers (and, checkpointed, from zero too), then the same round
/// through the traced one-worker loop. Every pass must report the same
/// outcomes cell for cell.
pub fn run_traced(kind: &Kind, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut p = prepare(kind);
    let (snap_us, restore_us, snap_kb) = fault_free_check(&mut p, &mut out, true);
    let seed = round_seed(opts.seed, 0);
    let one = engine_pass(&p, kind, seed, 1, kind.checkpoint, &mut out);
    let two = engine_pass(&p, kind, seed, 2, kind.checkpoint, &mut out);
    out.check(one.reports == two.reports, || {
        "reports differ between 1 and 2 workers".into()
    });
    if kind.checkpoint.is_some() {
        let zero = engine_pass(&p, kind, seed, 2, None, &mut out);
        out.check(zero.reports == one.reports, || {
            "checkpointed reports differ from from-zero reports".into()
        });
    }

    trace::start();
    let mut acc = TraceAcc::default();
    let mut traced_reports = Vec::with_capacity(p.cells.len());
    {
        let _root = span("bench", kind.name);
        for cell in &p.cells {
            let cfg = p.cfg(cell, seed, 1, kind.checkpoint);
            out.attempted += u64::from(cfg.trials);
            let r = guarded(|| traced_cell(&p, cell, &cfg, &mut acc)).flatten();
            if r.is_none() {
                out.failed += u64::from(cfg.trials);
            }
            traced_reports.push(r);
        }
    }
    let spans = crate::finish_trace(&mut out, opts, kind.name, one.secs);
    out.check(traced_reports == one.reports, || {
        "the traced loop's reports differ from the engine's".into()
    });

    let by_layer = trace::self_time_by_layer(&spans);
    let ms = |v: &[f64]| mean_or_zero(v) / 1e6;
    out.set(
        "faults.trial_us_p50",
        stats::percentile(&acc.trial_ns, 50.0) / 1e3,
    );
    out.set(
        "faults.trial_us_p99",
        stats::percentile(&acc.trial_ns, 99.0) / 1e3,
    );
    out.set(
        "faults.calibrate_ms",
        ms(&trace::durations(&spans, "faults", "calibrate")),
    );
    out.set("faults.trials_simulated", acc.simulated as f64);
    out.set("faults.trials_skipped", acc.skipped as f64);
    out.set(
        "faults.activated_per_simulated",
        acc.activated as f64 / acc.simulated.max(1) as f64,
    );
    out.set(
        "faults.restores_per_trial",
        acc.restores as f64 / acc.trials.max(1) as f64,
    );
    out.set("faults.pool_speedup", one.secs / two.secs);
    acc.sim
        .report(&mut out, by_layer.get("sim").copied().unwrap_or(0));
    out.set(
        "sim.reset_us",
        mean_or_zero(&trace::durations(&spans, "sim", "reset")) / 1e3,
    );
    out.set("sim.snapshot_us", snap_us);
    out.set("sim.restore_us", restore_us);
    out.set("sim.snapshot_kb", snap_kb);
    let mips = |i: usize| {
        let (instr, secs, failed) = one.per_workload[i];
        if failed || secs == 0.0 {
            0.0
        } else {
            instr as f64 / secs / 1e6
        }
    };
    for (i, wl) in p.workloads.iter().enumerate() {
        out.set(&format!("sim.mips.{}", wl.name()), mips(i));
    }
    out.set("core.redundant_over_solo", 0.0);
    out.set("core.makespan_overhead", 0.0);
    out.set("workloads.build_ms", p.build_ms);
    out.set("workloads.reference_ms", p.reference_ms);
    out.set(
        "workloads.verify_ms",
        ms(&trace::durations(&spans, "workloads", "verify")),
    );
    crate::pipeline::set_absent(&mut out);
    out
}
