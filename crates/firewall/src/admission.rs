//! Code admission: static analysis at the firewall boundary.
//!
//! §3.2 makes the firewall the reference monitor for everything that
//! crosses a host boundary. Signature checking (first-level
//! authentication) says who *sent* an agent; it says nothing about what
//! the agent's code *does*. This module closes that gap for TaxScript
//! bytecode: when a transfer arrives carrying `CODE-TYPE =
//! taxscript-bytecode`, the firewall runs the full analysis pipeline
//! (decode, verify, capabilities, folder flow) and then
//!
//! 1. compares the **capability manifest** against the rights the
//!    sending principal actually holds here — an agent that could `go()`
//!    onward is only admitted if its principal holds `SEND_REMOTE`; one
//!    that can `meet`/`bc_recv` needs `SEND_LOCAL` — and
//! 2. joins the **flow summary** with the briefcase's declared `HOSTS`
//!    itinerary and refuses error-severity flow findings (TAX005: a
//!    written folder would ship to a host the itinerary never covers).
//!
//! Analysis is memoized by content hash in the host's [`LaunchCaches`],
//! the one set its firewall shares with `vm_script` and `vm_bin`, so a
//! known agent re-arriving at every hop of a tour is admitted in
//! O(hash) — see the `cache_hit` flag on [`AdmissionVerdict::Verified`]
//! and the hit/miss/eviction counters in `FirewallStats`.
//!
//! The policy has no knobs: it always analyzes bytecode, always through
//! the cache. Briefcases without an explicit bytecode `CODE-TYPE` are
//! outside its jurisdiction — source agents are compiled (and thereby
//! checked) by `vm_script` at install time, and binary artifacts go
//! through `vm_bin`'s signature gate.

use std::sync::Arc;

use tacoma_briefcase::{folders, Briefcase};
use tacoma_security::Rights;
use tacoma_taxscript::analysis::{
    self, AnalysisReport, Capabilities, Diagnostic, Severity, VerifiedScript,
};
use tacoma_taxscript::Builtin;
use tacoma_vm::{code_types, LaunchCaches};

/// The firewall's code-admission check: arriving TaxScript bytecode is
/// analyzed through a set of [`LaunchCaches`]. A standalone policy owns a
/// fresh set; a firewall's policy holds its host's set. Clones share it.
#[derive(Debug, Clone, Default)]
pub struct AdmissionPolicy {
    caches: Arc<LaunchCaches>,
}

/// Why the admission check refused a briefcase.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The code failed to decode or verify — it cannot run safely.
    Unverifiable {
        /// Human-readable verifier/decoder failure.
        detail: String,
    },
    /// The code's capabilities exceed the rights the principal holds.
    CapabilityExceedsRights {
        /// The offending capability, human-readable (e.g. `go/spawn`).
        capability: &'static str,
        /// The right that would be needed.
        needed: Rights,
    },
    /// The folder flow joined with the declared itinerary has
    /// error-severity findings (e.g. TAX005: collected data would ship
    /// to a host outside the itinerary).
    FlowViolation {
        /// The error-severity findings, sorted like `analyze`'s.
        diagnostics: Vec<Diagnostic>,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Unverifiable { detail } => {
                write!(f, "code failed verification: {detail}")
            }
            AdmissionError::CapabilityExceedsRights { capability, needed } => {
                write!(f, "code uses {capability} but principal lacks {needed:?}")
            }
            AdmissionError::FlowViolation { diagnostics } => {
                write!(f, "itinerary flow violation:")?;
                for d in diagnostics {
                    write!(f, " [{d}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// The outcome of a successful admission check.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionVerdict {
    /// The code was analyzed and is within the principal's rights.
    Verified {
        /// The verified program and its full analysis report, shared
        /// with the cache (a hit costs one pointer clone).
        script: Arc<VerifiedScript>,
        /// Whether the result came from the host's content-hash cache
        /// rather than a cold analysis.
        cache_hit: bool,
    },
    /// The briefcase is outside this policy's jurisdiction (no TaxScript
    /// bytecode).
    Skipped,
}

impl AdmissionVerdict {
    /// The full analysis report of a verified agent, if analyzed.
    pub fn report(&self) -> Option<&AnalysisReport> {
        match self {
            AdmissionVerdict::Verified { script, .. } => Some(&script.report),
            AdmissionVerdict::Skipped => None,
        }
    }

    /// The capability manifest of a verified agent, if analyzed.
    pub fn capabilities(&self) -> Option<&Capabilities> {
        self.report().map(|r| &r.capabilities)
    }
}

impl AdmissionPolicy {
    /// The launch caches this policy analyzes through.
    pub(crate) fn caches(&self) -> &Arc<LaunchCaches> {
        &self.caches
    }

    /// Checks an arriving transfer's code against `rights` and the
    /// briefcase's declared `HOSTS` itinerary.
    ///
    /// # Errors
    ///
    /// [`AdmissionError`] when the code is unverifiable, demands more
    /// than the principal may do, or leaks folders outside the
    /// itinerary.
    pub fn check(
        &self,
        briefcase: &Briefcase,
        rights: Rights,
    ) -> Result<AdmissionVerdict, AdmissionError> {
        if briefcase.single_str(folders::CODE_TYPE).ok() != Some(code_types::TAXSCRIPT_BYTECODE) {
            return Ok(AdmissionVerdict::Skipped);
        }
        let code =
            briefcase
                .element(folders::CODE, 0)
                .map_err(|e| AdmissionError::Unverifiable {
                    detail: e.to_string(),
                })?;
        let (result, cache_hit) = self.caches.analysis().analyze_bytes(code.data());
        let script = result.map_err(|e| AdmissionError::Unverifiable {
            detail: e.to_string(),
        })?;

        require_rights(&script.report.capabilities, rights)?;
        require_clean_flow(&script.report, briefcase)?;
        Ok(AdmissionVerdict::Verified { script, cache_hit })
    }
}

/// The rights a capability manifest demands beyond bare EXECUTE.
fn require_rights(caps: &Capabilities, rights: Rights) -> Result<(), AdmissionError> {
    if caps.is_mobile() && !rights.contains(Rights::SEND_REMOTE) {
        return Err(AdmissionError::CapabilityExceedsRights {
            capability: "go/spawn (onward travel)",
            needed: Rights::SEND_REMOTE,
        });
    }
    if caps.communicates() && !rights.contains(Rights::SEND_LOCAL) {
        let capability = if caps.uses(Builtin::Meet) {
            "meet (local communication)"
        } else {
            "bc_send/bc_recv (local communication)"
        };
        return Err(AdmissionError::CapabilityExceedsRights {
            capability,
            needed: Rights::SEND_LOCAL,
        });
    }
    Ok(())
}

/// Joins the agent's flow summary with the briefcase's declared `HOSTS`
/// itinerary and refuses error-severity findings (TAX005). Warnings pass
/// — admission is a gate, not a linter; `taxsh audit` surfaces the rest.
fn require_clean_flow(
    report: &AnalysisReport,
    briefcase: &Briefcase,
) -> Result<(), AdmissionError> {
    let itinerary = declared_itinerary(briefcase);
    if itinerary.is_empty() {
        return Ok(());
    }
    let errors: Vec<Diagnostic> = analysis::flow_lints(&[&report.flow], &itinerary)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(AdmissionError::FlowViolation {
            diagnostics: errors,
        })
    }
}

/// The itinerary the briefcase declares: the string entries of its
/// `HOSTS` folder, in visit order.
fn declared_itinerary(briefcase: &Briefcase) -> Vec<String> {
    let Some(folder) = briefcase.folder(folders::HOSTS) else {
        return Vec::new();
    };
    folder
        .iter()
        .filter_map(|e| e.as_str().ok().map(str::to_owned))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_taxscript::compile_source;

    fn bytecode_briefcase(src: &str) -> Briefcase {
        let program = compile_source(src).unwrap();
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, program.encode());
        bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_BYTECODE);
        bc
    }

    #[test]
    fn stationary_agent_admitted_with_execute_only() {
        let bc = bytecode_briefcase("fn main() { display(1); exit(0); }");
        let verdict = AdmissionPolicy::default()
            .check(&bc, Rights::EXECUTE)
            .unwrap();
        assert!(matches!(verdict, AdmissionVerdict::Verified { .. }));
    }

    #[test]
    fn mobile_agent_needs_send_remote() {
        let bc = bytecode_briefcase(r#"fn main() { go("tacoma://h2/vm_script"); exit(0); }"#);
        let policy = AdmissionPolicy::default();
        assert!(matches!(
            policy.check(&bc, Rights::EXECUTE),
            Err(AdmissionError::CapabilityExceedsRights { needed, .. })
                if needed == Rights::SEND_REMOTE
        ));
        let ok = policy
            .check(&bc, Rights::EXECUTE.with(Rights::SEND_REMOTE))
            .unwrap();
        assert!(ok.capabilities().unwrap().is_mobile(), "{ok:?}");
    }

    #[test]
    fn repeat_admission_is_a_cache_hit() {
        let bc = bytecode_briefcase("fn main() { display(7); exit(0); }");
        let policy = AdmissionPolicy::default();
        policy.check(&bc, Rights::EXECUTE).unwrap();
        let verdict = policy.check(&bc, Rights::EXECUTE).unwrap();
        assert!(
            matches!(
                verdict,
                AdmissionVerdict::Verified {
                    cache_hit: true,
                    ..
                }
            ),
            "{verdict:?}"
        );
    }

    #[test]
    fn cold_path_matches_cached_report() {
        let bc = bytecode_briefcase("fn main() { display(8); exit(0); }");
        let cached = AdmissionPolicy::default();
        // "Cold" is a fresh policy: its own empty caches.
        let cold = AdmissionPolicy::default();
        cached.check(&bc, Rights::EXECUTE).unwrap();
        let warm = cached.check(&bc, Rights::EXECUTE).unwrap();
        let eager = cold.check(&bc, Rights::EXECUTE).unwrap();
        let counts = |p: &AdmissionPolicy| {
            let s = p.caches().analysis().stats();
            (s.hits, s.misses)
        };
        assert_eq!(counts(&cached), (1, 1));
        assert_eq!(counts(&cold), (0, 1));
        let (
            AdmissionVerdict::Verified {
                script: a,
                cache_hit: true,
            },
            AdmissionVerdict::Verified {
                script: b,
                cache_hit: false,
            },
        ) = (warm, eager)
        else {
            panic!("expected warm hit and cold miss");
        };
        assert_eq!(*a, *b);
    }

    #[test]
    fn tainted_escape_is_refused_at_admission() {
        // The agent collects data and ships to a host the declared
        // itinerary never covers: TAX005 at error severity.
        let mut bc = bytecode_briefcase(
            r#"
            fn main() {
                bc_append("SECRETS", host_name());
                if (go("tacoma://exfil/vm_script")) { exit(1); }
                exit(0);
            }
            "#,
        );
        bc.append(folders::HOSTS, "tacoma://home/vm_script");
        let policy = AdmissionPolicy::default();
        let refused = policy.check(&bc, Rights::ALL);
        assert!(
            matches!(
                &refused,
                Err(AdmissionError::FlowViolation { diagnostics })
                    if diagnostics.iter().all(|d| d.code.as_str() == "TAX005")
            ),
            "{refused:?}"
        );

        // The same agent with the target on the itinerary is admitted.
        let mut covered = bytecode_briefcase(
            r#"
            fn main() {
                bc_append("SECRETS", host_name());
                if (go("tacoma://exfil/vm_script")) { exit(1); }
                exit(0);
            }
            "#,
        );
        covered.append(folders::HOSTS, "tacoma://exfil/vm_script");
        assert!(policy.check(&covered, Rights::ALL).is_ok());
    }

    #[test]
    fn no_declared_itinerary_skips_flow_gate() {
        let bc = bytecode_briefcase(
            r#"
            fn main() {
                bc_append("RESULTS", host_name());
                if (go("tacoma://anywhere/vm_script")) { exit(1); }
                exit(0);
            }
            "#,
        );
        assert!(AdmissionPolicy::default().check(&bc, Rights::ALL).is_ok());
    }

    #[test]
    fn communicating_agent_needs_send_local() {
        let bc = bytecode_briefcase(r#"fn main() { meet("tacoma://h1/peer"); exit(0); }"#);
        assert!(matches!(
            AdmissionPolicy::default().check(&bc, Rights::EXECUTE),
            Err(AdmissionError::CapabilityExceedsRights { needed, .. })
                if needed == Rights::SEND_LOCAL
        ));
    }

    #[test]
    fn corrupt_bytecode_is_unverifiable() {
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, vec![0xFFu8; 16]);
        bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_BYTECODE);
        assert!(matches!(
            AdmissionPolicy::default().check(&bc, Rights::ALL),
            Err(AdmissionError::Unverifiable { .. })
        ));
    }

    #[test]
    fn briefcases_without_bytecode_are_skipped() {
        let mut opaque = Briefcase::new();
        opaque.append(folders::CODE, b"compiled agent bytes".to_vec());
        let policy = AdmissionPolicy::default();
        assert_eq!(
            policy.check(&opaque, Rights::NONE).unwrap(),
            AdmissionVerdict::Skipped
        );

        let mut source = Briefcase::new();
        source.append(folders::CODE, "fn main() { exit(0); }");
        source.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_SOURCE);
        assert_eq!(
            policy.check(&source, Rights::NONE).unwrap(),
            AdmissionVerdict::Skipped
        );
    }
}
