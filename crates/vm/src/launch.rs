//! One launch of a TaxScript program on a pooled scratch, and the
//! [`Suspension`] a launch leaves when its agent's `go` or `spawn` is
//! still in flight, or its `await_bc` has no mail yet.

use std::sync::Arc;
use std::task::Poll;

use tacoma_briefcase::Briefcase;
use tacoma_taxscript::{ExecScratch, GoDecision, Outcome, Program, RuntimeError, Vm};

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
    /// `await_bc` at once (what [`VirtualMachine::execute`] requires).
    ///
    /// # Panics
    ///
    /// When the launch suspended: its hooks answered pending.
    ///
    /// [`VirtualMachine::execute`]: crate::VirtualMachine::execute
    pub(crate) fn into_execution(self) -> Execution {
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
        hooks: &mut dyn HostHooks,
    ) -> Result<Run, VmError> {
        let outcome = self.scratch.resume(&mut HooksProxy { hooks }, briefcase);
        settle(&self.caches, self.scratch, outcome, self.trace, self.vm)
    }
}

/// One VM's way of launching programs: through its host's caches and
/// under its trace name.
pub(crate) struct Launcher<'a> {
    pub caches: &'a Arc<LaunchCaches>,
    pub vm: &'static str,
}

impl Launcher<'_> {
    /// Runs a decoded program with a scratch from the host's pool. The
    /// scratch goes back to the pool when the run ends, even on a fault,
    /// and stays out as the continuation when it suspends.
    pub(crate) fn run(
        &self,
        program: &Program,
        briefcase: &mut Briefcase,
        hooks: &mut dyn HostHooks,
        fuel: u64,
        trace: Vec<String>,
    ) -> Result<Run, VmError> {
        let mut scratch = self.caches.pool().checkout();
        let outcome = Vm::new(program, HooksProxy { hooks })
            .with_fuel(fuel)
            .run_with_scratch(briefcase, &mut scratch);
        settle(self.caches, scratch, outcome, trace, self.vm)
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

/// Adapts `&mut dyn HostHooks` to the by-value hooks parameter of
/// [`Vm::new`].
pub(crate) struct HooksProxy<'a> {
    pub hooks: &'a mut dyn HostHooks,
}

impl HostHooks for HooksProxy<'_> {
    fn display(&mut self, text: &str) {
        self.hooks.display(text);
    }
    fn go(&mut self, uri: &str, briefcase: &Briefcase) -> GoDecision {
        self.hooks.go(uri, briefcase)
    }
    fn spawn(&mut self, uri: &str, briefcase: &Briefcase) -> Option<String> {
        self.hooks.spawn(uri, briefcase)
    }
    fn activate(&mut self, uri: &str, briefcase: &Briefcase) -> bool {
        self.hooks.activate(uri, briefcase)
    }
    fn meet(&mut self, uri: &str, briefcase: &Briefcase) -> Option<Briefcase> {
        self.hooks.meet(uri, briefcase)
    }
    fn await_bc(&mut self, timeout_ms: i64) -> Option<Briefcase> {
        self.hooks.await_bc(timeout_ms)
    }
    fn now_ms(&mut self) -> i64 {
        self.hooks.now_ms()
    }
    fn host_name(&mut self) -> String {
        self.hooks.host_name()
    }
    fn work_ns(&mut self, nanos: u64) {
        self.hooks.work_ns(nanos);
    }
    fn poll_go(&mut self, uri: &str, briefcase: &Briefcase) -> Poll<GoDecision> {
        self.hooks.poll_go(uri, briefcase)
    }
    fn poll_spawn(&mut self, uri: &str, briefcase: &Briefcase) -> Poll<Option<String>> {
        self.hooks.poll_spawn(uri, briefcase)
    }
    fn poll_await(&mut self, timeout_ms: i64) -> Poll<Option<Briefcase>> {
        self.hooks.poll_await(timeout_ms)
    }
}

impl std::fmt::Debug for HooksProxy<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HooksProxy")
    }
}
