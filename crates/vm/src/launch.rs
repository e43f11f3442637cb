//! One launch of a TaxScript program on a pooled scratch, and the
//! [`Suspension`] a launch leaves when its agent's `go` or `spawn` is
//! still in flight, or its `await_bc` has no mail yet.

use std::sync::Arc;

use tacoma_briefcase::Briefcase;
use tacoma_taxscript::{ExecScratch, Outcome, Program, RuntimeError, Vm};

use crate::{Execution, HostHooks, LaunchCaches, VmError};

/// How far one launch got.
#[derive(Debug)]
pub enum Run {
    /// The agent ended: finished, exited or moved.
    Done(Execution),
    /// The agent stopped at a `go` or `spawn` whose verdict is in flight,
    /// or at an `await_bc` with no mail yet.
    Suspended(Suspension),
}

impl Run {
    /// The execution of a launch whose hooks answer `go`/`spawn`/
    /// `await_bc` at once ([`VirtualMachine::execute`], `ag_exec`).
    ///
    /// # Panics
    ///
    /// When the launch suspended: its hooks answered pending.
    ///
    /// [`VirtualMachine::execute`]: crate::VirtualMachine::execute
    pub fn into_execution(self) -> Execution {
        match self {
            Run::Done(execution) => execution,
            Run::Suspended(_) => {
                unreachable!("execute's hooks answered pending; such hooks launch instead")
            }
        }
    }
}

/// An agent run parked at a `go` or `spawn` whose verdict is in flight,
/// or at an `await_bc` with no mail yet.
/// The scratch it keeps checked out of its host's pool is the
/// continuation: pc, fuel, frames, stack and locals. Dropping a
/// suspension abandons the run (a killed agent); its scratch is then
/// not returned to the pool.
#[derive(Debug)]
pub struct Suspension {
    scratch: ExecScratch,
    caches: Arc<LaunchCaches>,
    trace: Vec<String>,
    vm: &'static str,
}

impl Suspension {
    /// Carries the run on once the host has the answer: the pending
    /// `go`/`spawn`/`await_bc` is polled again through `hooks`, with the
    /// same arguments, and the agent runs on from there.
    ///
    /// # Errors
    ///
    /// [`VmError::Runtime`] for a fault in the rest of the run.
    pub fn resume(
        mut self,
        briefcase: &mut Briefcase,
        mut hooks: &mut dyn HostHooks,
    ) -> Result<Run, VmError> {
        let outcome = self.scratch.resume(&mut hooks, briefcase);
        settle(&self.caches, self.scratch, outcome, self.trace, self.vm)
    }
}

impl LaunchCaches {
    /// Runs a decoded program for VM `vm` with a scratch from this host's
    /// pool. The scratch goes back to the pool when the run ends, even on
    /// a fault, and stays out as the continuation when it suspends.
    pub(crate) fn run(
        self: &Arc<Self>,
        vm: &'static str,
        program: &Program,
        briefcase: &mut Briefcase,
        hooks: &mut dyn HostHooks,
        fuel: u64,
        trace: Vec<String>,
    ) -> Result<Run, VmError> {
        let mut scratch = self.pool().checkout();
        let outcome = Vm::new(program, hooks)
            .with_fuel(fuel)
            .run_with_scratch(briefcase, &mut scratch);
        settle(self, scratch, outcome, trace, vm)
    }
}

fn settle(
    caches: &Arc<LaunchCaches>,
    scratch: ExecScratch,
    outcome: Result<Outcome, RuntimeError>,
    mut trace: Vec<String>,
    vm: &'static str,
) -> Result<Run, VmError> {
    if let Ok(Outcome::Suspended) = outcome {
        return Ok(Run::Suspended(Suspension {
            scratch,
            caches: Arc::clone(caches),
            trace,
            vm,
        }));
    }
    caches.pool().checkin(scratch);
    let outcome = outcome?;
    trace.push(format!("{vm}: agent ended with {outcome:?}"));
    Ok(Run::Done(Execution { outcome, trace }))
}
