//! Static analysis over compiled TaxScript programs.
//!
//! Four passes, run in order by [`analyze`]:
//!
//! 1. **Verification** ([`verify`]) — abstract interpretation proving the
//!    bytecode cannot fault the VM: stack depths are consistent at every
//!    join, no instruction underflows or overflows the operand stack,
//!    every jump lands on a real instruction, and every constant,
//!    function, and builtin reference is in bounds. Strictly stronger
//!    than [`Program::validate`]. Unverifiable code is unrunnable code.
//! 2. **Capability extraction** ([`capabilities`]) — what the agent *can*
//!    do: the builtins reachable from `main`, constant travel targets,
//!    and the briefcase folders it reads and writes. This manifest is
//!    what a firewall compares against the sender's ACL grant before
//!    admitting an arriving agent (the paper's §3.2 reference monitor).
//! 3. **Flow analysis** ([`flow`]) — the folder-level taint/flow summary:
//!    which briefcase folders the agent reads, writes, drains, and ships,
//!    joinable across wrapper chains and declared itineraries by
//!    [`flow_lints`] (TAX005–TAX008).
//! 4. **Linting** ([`lint`]) — structured [`Diagnostic`]s for suspicious
//!    but runnable patterns: unreachable code, folders read but never
//!    written, travel targets that can never parse, and loops that make
//!    no progress toward `go`/`exit`.
//!
//! The whole pipeline is deterministic in the program bytes, so
//! [`AnalysisCache`] memoizes it by content hash — the firewall and the
//! VM share one cache and an agent is analyzed once per process, not
//! once per hop.
//!
//! See `docs/analysis.md` for the full catalogue and the admission flow.

mod cache;
mod capabilities;
mod flow;
mod lint;
mod verifier;

pub use cache::{
    tagged_hash, AnalysisCache, AnalysisFailure, CacheResult, CacheStats, ContentLru,
    VerifiedScript, DEFAULT_CAPACITY,
};
pub use capabilities::{capabilities, Capabilities};
pub use flow::{flow, flow_lints, FlowSite, FlowSummary, GrowthLoop, ItineraryGraph, ShipSite};
pub use lint::{lint, Diagnostic, LintCode, Severity};
pub use verifier::{verify, FnFacts, Site, VerifyError, VerifySummary};

use crate::Program;

/// The combined result of all analysis passes.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// The verifier's proof object.
    pub verified: VerifySummary,
    /// The capability manifest.
    pub capabilities: Capabilities,
    /// The folder-level flow summary, joinable across wrapper chains
    /// and itineraries (see [`flow_lints`]).
    pub flow: FlowSummary,
    /// Lint findings, sorted by function, offset, then code.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Whether any diagnostic is at [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }
}

/// Runs verification, capability extraction, and lints over `program`.
///
/// # Errors
///
/// [`VerifyError`] if the program fails verification; capabilities and
/// lints are only computed for verified programs (their analyses assume
/// in-bounds references).
pub fn analyze(program: &Program) -> Result<AnalysisReport, VerifyError> {
    let verified = verify(program)?;
    let capabilities = capabilities(program);
    let flow = flow::flow(program);
    let mut diagnostics = lint(program);
    // Single-program flow lints: no chain, no declared itinerary.
    // TAX005/TAX006 need that journey context and stay quiet here;
    // TAX007/TAX008 fire standalone.
    diagnostics.extend(flow_lints(&[&flow], &[]));
    diagnostics
        .sort_by(|a, b| (&a.function, a.offset, a.code).cmp(&(&b.function, b.offset, b.code)));
    diagnostics.dedup();
    Ok(AnalysisReport {
        verified,
        capabilities,
        flow,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_source;

    #[test]
    fn analyze_combines_all_passes() {
        let p = compile_source(
            r#"
            fn main() {
                bc_append("RESULTS", host_name());
                if (go("tacoma://h2/vm_script")) { display("unreachable"); }
                exit(0);
            }
            "#,
        )
        .unwrap();
        let report = analyze(&p).unwrap();
        assert!(report.capabilities.is_mobile());
        assert!(report
            .capabilities
            .go_targets
            .contains("tacoma://h2/vm_script"));
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert!(!report.has_errors());
        assert!(report.verified.max_stack() >= 1);
    }

    #[test]
    fn analyze_rejects_unverifiable() {
        let mut p = compile_source("fn main() { exit(0); }").unwrap();
        let main = p.main_index();
        p.functions[main].code[0] = crate::Op::Const(u16::MAX);
        assert!(analyze(&p).is_err());
    }
}
