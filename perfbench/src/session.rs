//! Traced adapters: a [`GpuSession`] wrapper that records a span around
//! every call a host program makes into the redundant protocol, and a
//! campaign workload built on it. Between those calls the host program's
//! own code runs, so the enclosing `workloads.run` span keeps that time as
//! its self time.

use higpu_core::redundancy::{RedundancyError, RedundantExecutor};
use higpu_faults::workload::{RedundantWorkload, WorkloadVerdict};
use higpu_sim::kernel::Dim3;
use higpu_sim::program::Program;
use higpu_workloads::{BufId, GpuSession, RedundantSession, SParam, SessionError, Workload};
use std::sync::Arc;

use crate::trace::span;

/// Records `core` spans around allocation, upload, launch and read-back
/// (replicated by the redundant executor, compared or voted on read) and
/// `sim` spans around `sync`, where the device runs the launched kernels.
pub struct TracedSession<'a> {
    pub inner: &'a mut dyn GpuSession,
}

impl GpuSession for TracedSession<'_> {
    fn alloc_words(&mut self, words: u32) -> Result<BufId, SessionError> {
        let _s = span("core", "alloc");
        self.inner.alloc_words(words)
    }

    fn write_u32(&mut self, buf: BufId, data: &[u32]) -> Result<(), SessionError> {
        let _s = span("core", "upload");
        self.inner.write_u32(buf, data)
    }

    fn write_f32(&mut self, buf: BufId, data: &[f32]) -> Result<(), SessionError> {
        let _s = span("core", "upload");
        self.inner.write_f32(buf, data)
    }

    fn launch(
        &mut self,
        program: &Arc<Program>,
        grid: Dim3,
        block: Dim3,
        shared_mem_bytes: u32,
        params: &[SParam],
    ) -> Result<(), SessionError> {
        let _s = span("core", "launch");
        self.inner
            .launch(program, grid, block, shared_mem_bytes, params)
    }

    fn sync(&mut self) -> Result<(), SessionError> {
        let _s = span("sim", "sync");
        self.inner.sync()
    }

    fn read_u32(&mut self, buf: BufId, words: usize) -> Result<Vec<u32>, SessionError> {
        let _s = span("core", "read_vote");
        self.inner.read_u32(buf, words)
    }

    fn read_f32(&mut self, buf: BufId, words: usize) -> Result<Vec<f32>, SessionError> {
        let _s = span("core", "read_vote");
        self.inner.read_f32(buf, words)
    }
}

/// Runs `workload` in a tolerant redundant session under `exec`, traced,
/// and returns the voted output with the session's mismatch counters
/// `(mismatched, tied)` reads.
pub fn run_redundant_traced(
    exec: &mut RedundantExecutor<'_>,
    workload: &dyn Workload,
) -> Result<(Vec<u32>, usize, usize), SessionError> {
    let _s = span("workloads", "run");
    let mut session = RedundantSession::tolerant(exec);
    let output = workload.run(&mut TracedSession {
        inner: &mut session,
    })?;
    Ok((output, session.mismatched_reads(), session.tied_reads()))
}

/// A campaign workload classifying its runs exactly as the engine's
/// `CampaignWorkload` does, with the host program traced and the
/// verification (which recomputes the CPU reference) in its own span. The
/// traced campaign loop checks that its reports equal the engine's.
pub struct TracedWorkload<'a>(pub &'a dyn Workload);

impl RedundantWorkload for TracedWorkload<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn run(&self, exec: &mut RedundantExecutor<'_>) -> Result<WorkloadVerdict, RedundancyError> {
        let (output, mismatched, tied) = match run_redundant_traced(exec, self.0) {
            Ok(run) => run,
            Err(SessionError::Sim(e)) => return Err(RedundancyError::Sim(e)),
            Err(SessionError::Redundancy(e)) => return Err(e),
            Err(SessionError::ReplicaMismatch { .. }) => {
                return Ok(WorkloadVerdict {
                    matched: false,
                    correct: false,
                    fully_voted: false,
                    corrected: false,
                })
            }
        };
        let correct = {
            let _s = span("workloads", "verify");
            self.0.verify(&output).is_ok()
        };
        let fully_voted = mismatched > 0 && tied == 0;
        Ok(WorkloadVerdict {
            matched: mismatched == 0,
            correct,
            fully_voted,
            corrected: fully_voted && correct,
        })
    }

    fn ftti_multiplier(&self) -> u64 {
        self.0.ftti_multiplier()
    }
}
