//! `pipeline`: pipeline campaigns over `ad_pipeline` and `sensor_fusion`
//! under SRRS@2 on both frame executors, at one worker.
//!
//! Per (pipeline, executor) a round runs [`FRAMES`] fault-free frames on a
//! device of the benchmark's own (verified stage by stage against
//! `Pipeline::reference_outputs`), a single-frame transient campaign and a
//! permanent-fault limp-home campaign of [`MISSION_FRAMES`]-frame missions
//! on the wide 10-SM device. One operation is one trial or one fault-free
//! frame.

use higpu_core::policy::PolicyKind;
use higpu_core::redundancy::RedundancyMode;
use higpu_faults::campaign::{draw_models, policy_mode, CampaignConfig, FaultSpec};
use higpu_pipeline::campaign::PipelineCampaignRunner;
use higpu_pipeline::{
    full_pipeline_registry, plan, run_pipeline, run_pipeline_campaign, ExecMode, FrameOptions,
    Pipeline, PipelineCampaignReport, PipelineCampaignSpec, PipelinePlan, PipelineRegistry,
    PipelineTrialOutcome,
};
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::Gpu;
use higpu_workloads::{verify_words, Scale};
use std::time::Instant;

use crate::trace::{self, span};
use crate::{mean_or_zero, round_seed, stats, Opts, Outcome, SimTotals};

const PIPELINES: [&str; 2] = ["ad_pipeline", "sensor_fusion"];
const EXECS: [ExecMode; 2] = [ExecMode::Overlapped, ExecMode::Serial];
const TRANSIENT: FaultSpec = FaultSpec::Transient { duration: 400 };
/// Fault-free frames per (pipeline, executor) and round.
const FRAMES: u32 = 48;
/// Single-frame transient trials per (pipeline, executor) and round.
const TRANSIENT_TRIALS: u32 = 100;
/// Limp-home missions per (pipeline, executor) and round.
const MISSIONS: u32 = 20;
/// Frames per limp-home mission (the campaign matrix's default).
const MISSION_FRAMES: u32 = 4;

/// Sets every `pipeline.*` metric to 0, for workloads that never enter the
/// pipeline layer.
pub fn set_absent(out: &mut Outcome) {
    for name in [
        "pipeline.plan_ms",
        "pipeline.frame_ms.serial",
        "pipeline.frame_ms.overlapped",
        "pipeline.overlap_host_ratio",
        "pipeline.makespan_cycles",
        "pipeline.retries",
        "pipeline.quarantined",
    ] {
        out.set(name, 0.0);
    }
}

/// The wide device limp-home missions run on: quarantining one of ten SMs
/// leaves room to re-plan (as in the campaign matrix).
fn wide_gpu() -> GpuConfig {
    let mut gpu = GpuConfig::wide_10sm();
    gpu.global_mem_bytes = 2 * 1024 * 1024;
    gpu
}

struct Prepared {
    registry: PipelineRegistry,
    pipelines: Vec<Pipeline>,
    references: Vec<Vec<Vec<u32>>>,
    plans: Vec<PipelinePlan>,
    mode: RedundancyMode,
    cfg: CampaignConfig,
    gpu: Gpu,
    build_ms: f64,
    reference_ms: f64,
    plan_ms: f64,
}

fn prepare() -> Prepared {
    let t = Instant::now();
    let registry = full_pipeline_registry();
    let pipelines: Vec<Pipeline> = PIPELINES
        .iter()
        .map(|n| registry.build(n, Scale::Campaign).expect("registered"))
        .collect();
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let references = pipelines.iter().map(Pipeline::reference_outputs).collect();
    let reference_ms = t.elapsed().as_secs_f64() * 1e3;
    let cfg = CampaignConfig {
        workers: 1,
        ..CampaignConfig::default()
    };
    let mode = policy_mode(PolicyKind::Srrs, 2, cfg.gpu.num_sms).expect("SRRS@2");
    let t = Instant::now();
    let plans = pipelines
        .iter()
        .map(|p| plan(&cfg.gpu, p, &mode).expect("a fault-free frame plans"))
        .collect();
    let plan_ms = t.elapsed().as_secs_f64() * 1e3 / PIPELINES.len() as f64;
    Prepared {
        registry,
        pipelines,
        references,
        plans,
        mode,
        gpu: Gpu::new(cfg.gpu.clone()),
        cfg,
        build_ms,
        reference_ms,
        plan_ms,
    }
}

fn specs(name: &str, exec: ExecMode) -> [PipelineCampaignSpec; 2] {
    [
        PipelineCampaignSpec::new(name, PolicyKind::Srrs, TRANSIENT).with_exec(exec),
        PipelineCampaignSpec::new(name, PolicyKind::Srrs, FaultSpec::Permanent)
            .with_exec(exec)
            .with_frames(MISSION_FRAMES),
    ]
}

fn campaign_cfg(p: &Prepared, spec: &PipelineCampaignSpec, seed: u64) -> CampaignConfig {
    if spec.frames > 1 {
        CampaignConfig {
            trials: MISSIONS,
            seed,
            gpu: wide_gpu(),
            ..p.cfg.clone()
        }
    } else {
        CampaignConfig {
            trials: TRANSIENT_TRIALS,
            seed,
            ..p.cfg.clone()
        }
    }
}

/// Per (pipeline, executor) results of the fault-free frames.
#[derive(Debug, Clone, Default)]
struct FrameAcc {
    frames: u64,
    secs: f64,
    instructions: u64,
    end_cycle: u64,
}

/// One fault-free frame, verified stage by stage.
fn fault_free_frame(
    p: &mut Prepared,
    i: usize,
    exec: ExecMode,
    out: &mut Outcome,
    sim: &mut SimTotals,
) -> Option<(u64, u64)> {
    let name = PIPELINES[i];
    {
        let _s = span("sim", "reset");
        if p.gpu.reset().is_err() {
            p.gpu.force_reset();
        }
    }
    let run = {
        let _s = span("pipeline", "run_pipeline");
        run_pipeline(
            &mut p.gpu,
            &p.pipelines[i],
            &p.mode,
            &p.plans[i],
            FrameOptions::default().with_exec(exec),
        )
    };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            out.problems.push(format!("{name}/{}: {e}", exec.label()));
            return None;
        }
    };
    out.check(run.completed(), || {
        format!("{name}/{}: fault-free frame did not complete", exec.label())
    });
    let _s = span("workloads", "verify");
    for (s, stage) in p.pipelines[i].stages().iter().enumerate() {
        let v = verify_words(
            &run.outputs[s],
            &p.references[i][s],
            stage.program.tolerance(),
        );
        out.check(v.is_ok(), || {
            format!(
                "{name}/{}: stage {} fails verification: {v:?}",
                exec.label(),
                stage.name
            )
        });
    }
    let stats = p.gpu.stats();
    sim.add(&stats);
    Some((stats.instructions, run.end_cycle))
}

fn check_report(out: &mut Outcome, r: &PipelineCampaignReport) {
    let sum = r.not_activated
        + r.masked
        + r.corrected
        + r.recovered
        + r.detected
        + r.undetected
        + r.quarantined
        + r.limp_home_miss;
    let cell = format!("{}/{}/{}", r.pipeline, r.exec, r.fault);
    out.check(sum == r.trials, || {
        format!("{cell}: outcomes sum to {sum}, not {}", r.trials)
    });
    out.check(r.undetected == 0, || {
        format!("{cell}: {} undetected failures under SRRS", r.undetected)
    });
    if r.frames == 1 {
        out.check(r.retries_failed == 0, || {
            format!(
                "{cell}: {} in-slack retries of a transient fault failed",
                r.retries_failed
            )
        });
    }
}

fn record(out: &mut Outcome, seed: u64, r: &PipelineCampaignReport) {
    let cell = format!(
        "pipeline.{}.{}.{}.x{}",
        r.pipeline, r.exec, r.fault, r.frames
    );
    out.record(format!("{cell}.fault_free_makespan"), r.fault_free_makespan);
    out.record(
        format!(
            "pipeline.seed{seed:016x}.{}.{}.{}.x{}.outcomes",
            r.pipeline, r.exec, r.fault, r.frames
        ),
        format!(
            "na={} masked={} corrected={} recovered={} detected={} undetected={} quarantined={} \
             limp_miss={} retries={}",
            r.not_activated,
            r.masked,
            r.corrected,
            r.recovered,
            r.detected,
            r.undetected,
            r.quarantined,
            r.limp_home_miss,
            r.retries_attempted
        ),
    );
}

/// One round; `reports` collects the campaign reports in cell order.
fn round(
    p: &mut Prepared,
    seed: u64,
    acc: &mut [FrameAcc],
    out: &mut Outcome,
    sim: &mut SimTotals,
    reports: &mut Vec<PipelineCampaignReport>,
) {
    for i in 0..PIPELINES.len() {
        for (e, exec) in EXECS.into_iter().enumerate() {
            let a = &mut acc[i * EXECS.len() + e];
            for _ in 0..FRAMES {
                let t = Instant::now();
                let frame = fault_free_frame(p, i, exec, out, sim);
                out.attempted += 1;
                match frame {
                    Some((instr, end)) => {
                        a.frames += 1;
                        a.secs += t.elapsed().as_secs_f64();
                        a.instructions += instr;
                        a.end_cycle = end;
                    }
                    None => out.failed += 1,
                }
            }
            for spec in specs(PIPELINES[i], exec) {
                let cfg = campaign_cfg(p, &spec, seed);
                out.attempted += u64::from(cfg.trials);
                match run_pipeline_campaign(&cfg, &p.registry, &spec) {
                    Ok(r) => {
                        check_report(out, &r);
                        record(out, seed, &r);
                        reports.push(r);
                    }
                    Err(e) => {
                        out.failed += u64::from(cfg.trials);
                        out.problems
                            .push(format!("{} {}: {e}", spec.pipeline, spec.exec.label()));
                    }
                }
            }
        }
    }
}

fn frame_mips(a: &FrameAcc) -> f64 {
    a.instructions as f64 / a.secs / 1e6
}

/// The untraced run: whole rounds for at least `--seconds`.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (mut p, setup_s) = crate::repeated_setup(prepare);
    let mut acc = Vec::new();
    let [ops, mips, geomean] = crate::median_over_rounds(opts.seconds, |r| {
        acc = vec![FrameAcc::default(); PIPELINES.len() * EXECS.len()];
        let completed_before = out.attempted - out.failed;
        let t = Instant::now();
        let seed = round_seed(opts.seed, r);
        round(
            &mut p,
            seed,
            &mut acc,
            &mut out,
            &mut SimTotals::default(),
            &mut Vec::new(),
        );
        let secs = t.elapsed().as_secs_f64();
        let instructions: u64 = acc.iter().map(|a| a.instructions).sum();
        let frame_secs: f64 = acc.iter().map(|a| a.secs).sum();
        let completed = out.attempted - out.failed - completed_before;
        [
            completed as f64 / secs,
            instructions as f64 / frame_secs / 1e6,
            stats::geomean(&acc.iter().map(frame_mips).collect::<Vec<_>>()),
        ]
    });
    for (k, a) in acc.iter().enumerate() {
        out.record(
            format!(
                "pipeline.{}.{}.frame_cycles",
                PIPELINES[k / EXECS.len()],
                EXECS[k % EXECS.len()].label()
            ),
            a.end_cycle,
        );
    }
    out.set("setup_s", setup_s);
    out.set("ops_per_s", ops);
    out.set("sim_mips", mips);
    out.set("sim_mips_geomean", geomean);
    out
}

/// Counts of a traced trial loop, in report order.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counts {
    not_activated: u32,
    masked: u32,
    corrected: u32,
    recovered: u32,
    detected: u32,
    undetected: u32,
    quarantined: u32,
    limp_home_miss: u32,
}

impl Counts {
    fn of(r: &PipelineCampaignReport) -> Self {
        Self {
            not_activated: r.not_activated,
            masked: r.masked,
            corrected: r.corrected,
            recovered: r.recovered,
            detected: r.detected,
            undetected: r.undetected,
            quarantined: r.quarantined,
            limp_home_miss: r.limp_home_miss,
        }
    }

    fn add(&mut self, o: PipelineTrialOutcome) {
        match o {
            PipelineTrialOutcome::NotActivated => self.not_activated += 1,
            PipelineTrialOutcome::Masked => self.masked += 1,
            PipelineTrialOutcome::Corrected => self.corrected += 1,
            PipelineTrialOutcome::Recovered => self.recovered += 1,
            PipelineTrialOutcome::Detected => self.detected += 1,
            PipelineTrialOutcome::UndetectedFailure => self.undetected += 1,
            PipelineTrialOutcome::Quarantined => self.quarantined += 1,
            PipelineTrialOutcome::LimpHomeMiss => self.limp_home_miss += 1,
        }
    }
}

/// The campaign engine's trial loop at one worker, decomposed into its
/// public steps with spans: planning, the fault-sampling window (one
/// fault-free frame under the cell's executor), `draw_models`, then one
/// `PipelineCampaignRunner` trial per model.
fn traced_cell(
    p: &Prepared,
    i: usize,
    spec: &PipelineCampaignSpec,
    cfg: &CampaignConfig,
    trial_ns: &mut Vec<f64>,
    op: &mut u64,
) -> Option<Counts> {
    let pipeline = &p.pipelines[i];
    let mode = policy_mode(spec.policy, spec.replicas, cfg.gpu.num_sms).ok()?;
    let frame_plan = {
        let _s = span("pipeline", "plan");
        plan(&cfg.gpu, pipeline, &mode).ok()?
    };
    let opts = spec.frame_options();
    let frame_makespan = if spec.exec == ExecMode::Serial {
        frame_plan.fault_free_makespan
    } else {
        let _s = span("pipeline", "run_pipeline");
        let mut gpu = Gpu::new(cfg.gpu.clone());
        run_pipeline(&mut gpu, pipeline, &mode, &frame_plan, opts)
            .ok()?
            .end_cycle
    };
    let models = {
        let _s = span("faults", "draw_models");
        draw_models(cfg, spec.fault, frame_makespan * u64::from(spec.frames))
    };
    let mut runner = PipelineCampaignRunner::new(cfg);
    let mut counts = Counts::default();
    for model in models {
        *op += 1;
        trace::set_op(*op);
        let t = Instant::now();
        let _s = span("pipeline", "trial");
        let outcome = if spec.frames > 1 {
            runner
                .run_limp_trial(pipeline, &mode, &frame_plan, opts, spec.frames, model)
                .map(|(o, _)| o)
        } else {
            runner
                .run_trial(pipeline, &mode, &frame_plan, opts, false, model)
                .map(|(o, _)| o)
        };
        drop(_s);
        trial_ns.push(t.elapsed().as_nanos() as f64);
        counts.add(outcome.ok()?);
    }
    Some(counts)
}

/// The traced run: one untraced round, then the same round traced, with
/// the campaigns driven trial by trial; both must count the same outcomes.
pub fn run_traced(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut p = prepare();
    let seed = round_seed(opts.seed, 0);
    let mut acc = vec![FrameAcc::default(); PIPELINES.len() * EXECS.len()];
    let mut reports = Vec::new();
    let t = Instant::now();
    round(
        &mut p,
        seed,
        &mut acc,
        &mut out,
        &mut SimTotals::default(),
        &mut reports,
    );
    let untraced_s = t.elapsed().as_secs_f64();

    trace::start();
    let mut sim = SimTotals::default();
    let mut traced_acc = vec![FrameAcc::default(); acc.len()];
    let mut trial_ns = Vec::new();
    let mut traced_counts = Vec::new();
    let mut op = 0;
    {
        let _root = span("bench", "pipeline");
        for i in 0..PIPELINES.len() {
            for (e, exec) in EXECS.into_iter().enumerate() {
                for _ in 0..FRAMES {
                    op += 1;
                    trace::set_op(op);
                    let t = Instant::now();
                    out.attempted += 1;
                    match fault_free_frame(&mut p, i, exec, &mut out, &mut sim) {
                        Some(_) => {
                            let a = &mut traced_acc[i * EXECS.len() + e];
                            a.frames += 1;
                            a.secs += t.elapsed().as_secs_f64();
                        }
                        None => out.failed += 1,
                    }
                }
                for spec in specs(PIPELINES[i], exec) {
                    let cfg = campaign_cfg(&p, &spec, seed);
                    out.attempted += u64::from(cfg.trials);
                    let c = traced_cell(&p, i, &spec, &cfg, &mut trial_ns, &mut op);
                    if c.is_none() {
                        out.failed += u64::from(cfg.trials);
                    }
                    traced_counts.push(c);
                }
            }
        }
    }
    let spans = crate::finish_trace(&mut out, opts, "pipeline", untraced_s);
    let engine_counts: Vec<Option<Counts>> = reports.iter().map(|r| Some(Counts::of(r))).collect();
    out.check(traced_counts == engine_counts, || {
        "the traced trial loop's outcomes differ from the engine's".into()
    });

    // A frame runs in one call into the pipeline layer, so the host time
    // behind the simulated statistics is the fault-free frames' time.
    let frame_ns = traced_acc.iter().map(|a| a.secs).sum::<f64>() * 1e9;
    sim.report(&mut out, frame_ns as u64);
    let frame_ms = |exec: ExecMode| {
        let (secs, frames) = traced_acc
            .iter()
            .enumerate()
            .filter(|(k, _)| EXECS[k % EXECS.len()] == exec)
            .fold((0.0, 0u64), |(s, f), (_, a)| (s + a.secs, f + a.frames));
        secs * 1e3 / frames.max(1) as f64
    };
    out.set(
        "faults.trial_us_p50",
        stats::percentile(&trial_ns, 50.0) / 1e3,
    );
    out.set(
        "faults.trial_us_p99",
        stats::percentile(&trial_ns, 99.0) / 1e3,
    );
    for name in [
        "faults.calibrate_ms",
        "faults.trials_simulated",
        "faults.trials_skipped",
        "faults.activated_per_simulated",
        "faults.restores_per_trial",
        "faults.pool_speedup",
        "core.redundant_over_solo",
        "core.makespan_overhead",
    ] {
        out.set(name, 0.0);
    }
    for w in crate::metrics::REGISTRY {
        out.set(&format!("sim.mips.{w}"), 0.0);
    }
    out.set(
        "sim.reset_us",
        mean_or_zero(&trace::durations(&spans, "sim", "reset")) / 1e3,
    );
    let (snap_us, restore_us, snap_kb) = crate::snapshot_probe(&mut p.gpu);
    out.set("sim.snapshot_us", snap_us);
    out.set("sim.restore_us", restore_us);
    out.set("sim.snapshot_kb", snap_kb);
    out.set("workloads.build_ms", p.build_ms);
    out.set("workloads.reference_ms", p.reference_ms);
    out.set(
        "workloads.verify_ms",
        mean_or_zero(&trace::durations(&spans, "workloads", "verify")) / 1e6,
    );
    out.set("pipeline.plan_ms", p.plan_ms);
    out.set("pipeline.frame_ms.serial", frame_ms(ExecMode::Serial));
    out.set(
        "pipeline.frame_ms.overlapped",
        frame_ms(ExecMode::Overlapped),
    );
    out.set(
        "pipeline.overlap_host_ratio",
        frame_ms(ExecMode::Overlapped) / frame_ms(ExecMode::Serial),
    );
    out.set(
        "pipeline.makespan_cycles",
        acc.iter().map(|a| a.end_cycle as f64).sum::<f64>() / acc.len() as f64,
    );
    out.set(
        "pipeline.retries",
        reports.iter().map(|r| f64::from(r.retries_attempted)).sum(),
    );
    out.set(
        "pipeline.quarantined",
        reports.iter().map(|r| f64::from(r.quarantined)).sum(),
    );
    out
}
