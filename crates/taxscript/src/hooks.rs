//! The host interface: how a running agent reaches the TAX library
//! primitives (§3.1) from inside the VM sandbox.

use std::task::Poll;

use tacoma_briefcase::Briefcase;

/// The host's answer to a `go(uri)` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoDecision {
    /// The move will happen: the VM stops with
    /// [`Outcome::Moved`](crate::Outcome) and the host ships the
    /// briefcase. Per TACOMA semantics the current instance terminates.
    Moved,
    /// The destination is unreachable; `go` returns nonzero to the script
    /// (the Figure-4 `if (go(next, bc))` failure branch).
    Unreachable,
}

/// Host callbacks for mobility, communication, and environment queries.
///
/// The VM calls these when the script invokes the corresponding builtin.
/// The kernel's implementation routes through the firewall; tests can use
/// [`NullHooks`].
pub trait HostHooks {
    /// `display(...)` — a line of agent output.
    fn display(&mut self, text: &str);

    /// `go(uri)` — request relocation. The current briefcase is provided
    /// so the host can validate the destination against it.
    fn go(&mut self, uri: &str, briefcase: &Briefcase) -> GoDecision;

    /// `spawn(uri)` — request a clone at `uri` with a fresh instance
    /// number. Returns the new instance (hex) or `None` on failure.
    fn spawn(&mut self, uri: &str, briefcase: &Briefcase) -> Option<String>;

    /// `activate(uri)` — asynchronously send a copy of the briefcase.
    /// Returns whether the send was accepted.
    fn activate(&mut self, uri: &str, briefcase: &Briefcase) -> bool;

    /// `meet(uri)` — RPC: send the briefcase, wait for the reply.
    /// Returns the reply briefcase, or `None` on failure/timeout.
    fn meet(&mut self, uri: &str, briefcase: &Briefcase) -> Option<Briefcase>;

    /// `await_bc(timeout_ms)` — block for an incoming briefcase, for at
    /// most `timeout_ms` of the host's clock.
    fn await_bc(&mut self, timeout_ms: i64) -> Option<Briefcase>;

    /// `now_ms()` — the host's (virtual) clock in milliseconds.
    fn now_ms(&mut self) -> i64;

    /// `host_name()` — where the agent is currently executing.
    fn host_name(&mut self) -> String;

    /// Charges `nanos` of simulated CPU work to the host's clock. Used by
    /// native programs (and cost-calibrated services) so computation has a
    /// virtual-time cost alongside communication. The default is a no-op,
    /// which is right for hosts without a virtual clock.
    fn work_ns(&mut self, nanos: u64) {
        let _ = nanos;
    }

    /// `go(uri)` from a VM that can suspend. A host whose transport
    /// acknowledges later answers [`Poll::Pending`]: the fused
    /// dispatcher then stops with [`Outcome::Suspended`](crate::Outcome),
    /// its state held in the run's [`ExecScratch`](crate::ExecScratch),
    /// and [`ExecScratch::resume`](crate::ExecScratch::resume) polls
    /// again with the same arguments once the verdict is in. The default
    /// answers at once through [`HostHooks::go`].
    fn poll_go(&mut self, uri: &str, briefcase: &Briefcase) -> Poll<GoDecision> {
        Poll::Ready(self.go(uri, briefcase))
    }

    /// `spawn(uri)` from a VM that can suspend, as [`HostHooks::poll_go`]
    /// is to `go`. The default answers at once through
    /// [`HostHooks::spawn`].
    fn poll_spawn(&mut self, uri: &str, briefcase: &Briefcase) -> Poll<Option<String>> {
        Poll::Ready(self.spawn(uri, briefcase))
    }

    /// `await_bc(timeout_ms)` from a VM that can suspend, as
    /// [`HostHooks::poll_go`] is to `go`. A host with no mail for the
    /// agent yet answers [`Poll::Pending`]; on resume it answers with the
    /// mail that woke the run, or `None` once the deadline passed. The
    /// default answers at once through [`HostHooks::await_bc`].
    fn poll_await(&mut self, timeout_ms: i64) -> Poll<Option<Briefcase>> {
        Poll::Ready(self.await_bc(timeout_ms))
    }
}

/// A mutable borrow of hooks is hooks, so `&mut dyn HostHooks` goes
/// wherever a VM takes its hooks by value. Every method forwards, the
/// `poll_*` ones too: a host that suspends still suspends through the
/// borrow.
impl<H: HostHooks + ?Sized> HostHooks for &mut H {
    fn display(&mut self, text: &str) {
        (**self).display(text);
    }
    fn go(&mut self, uri: &str, briefcase: &Briefcase) -> GoDecision {
        (**self).go(uri, briefcase)
    }
    fn spawn(&mut self, uri: &str, briefcase: &Briefcase) -> Option<String> {
        (**self).spawn(uri, briefcase)
    }
    fn activate(&mut self, uri: &str, briefcase: &Briefcase) -> bool {
        (**self).activate(uri, briefcase)
    }
    fn meet(&mut self, uri: &str, briefcase: &Briefcase) -> Option<Briefcase> {
        (**self).meet(uri, briefcase)
    }
    fn await_bc(&mut self, timeout_ms: i64) -> Option<Briefcase> {
        (**self).await_bc(timeout_ms)
    }
    fn now_ms(&mut self) -> i64 {
        (**self).now_ms()
    }
    fn host_name(&mut self) -> String {
        (**self).host_name()
    }
    fn work_ns(&mut self, nanos: u64) {
        (**self).work_ns(nanos);
    }
    fn poll_go(&mut self, uri: &str, briefcase: &Briefcase) -> Poll<GoDecision> {
        (**self).poll_go(uri, briefcase)
    }
    fn poll_spawn(&mut self, uri: &str, briefcase: &Briefcase) -> Poll<Option<String>> {
        (**self).poll_spawn(uri, briefcase)
    }
    fn poll_await(&mut self, timeout_ms: i64) -> Poll<Option<Briefcase>> {
        (**self).poll_await(timeout_ms)
    }
}

/// A null host: collects `display` output, fails every `go`/`spawn`/
/// communication, reports time zero. Useful for unit tests and for
/// running pure computations.
#[derive(Debug, Default)]
pub struct NullHooks {
    /// Everything the agent displayed, in order.
    pub displayed: Vec<String>,
}

impl HostHooks for NullHooks {
    fn display(&mut self, text: &str) {
        self.displayed.push(text.to_owned());
    }

    fn go(&mut self, _uri: &str, _briefcase: &Briefcase) -> GoDecision {
        GoDecision::Unreachable
    }

    fn spawn(&mut self, _uri: &str, _briefcase: &Briefcase) -> Option<String> {
        None
    }

    fn activate(&mut self, _uri: &str, _briefcase: &Briefcase) -> bool {
        false
    }

    fn meet(&mut self, _uri: &str, _briefcase: &Briefcase) -> Option<Briefcase> {
        None
    }

    fn await_bc(&mut self, _timeout_ms: i64) -> Option<Briefcase> {
        None
    }

    fn now_ms(&mut self) -> i64 {
        0
    }

    fn host_name(&mut self) -> String {
        "localhost".to_owned()
    }
}
