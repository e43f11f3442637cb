//! Partial-name matching, as performed by the firewall (§3.2):
//!
//! > "The firewall also provides basic matching functionality if the full
//! > name of the receiver is unknown. […] Furthermore, if the principal is
//! > left out, only two principals are considered as valid; the local
//! > system, or the principal of the mobile agent. The last part can be
//! > given as either a name, an instance number or both."

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{AgentUri, Instance};

/// The complete, concrete identity of a *registered* agent: unlike an
/// [`AgentUri`] (which is a pattern), an address always carries principal,
/// name, and instance. Addresses order by principal, then name, then
/// instance.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AgentAddress {
    principal: String,
    name: String,
    instance: Instance,
}

impl AgentAddress {
    /// Creates the address of a registered agent.
    pub fn new(principal: impl Into<String>, name: impl Into<String>, instance: Instance) -> Self {
        AgentAddress {
            principal: principal.into(),
            name: name.into(),
            instance,
        }
    }

    /// The principal on whose behalf the agent runs.
    pub fn principal(&self) -> &str {
        &self.principal
    }

    /// The agent's symbolic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The agent's instance number.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Matches a target URI against this address, under the §3.2 rules.
    ///
    /// `local_system` is the local system principal; `sender` is the
    /// principal of the agent attempting the communication. These are
    /// consulted only when the target omits its principal.
    pub fn matches(&self, target: &AgentUri, local_system: &str, sender: &str) -> MatchOutcome {
        match target.principal() {
            Some(p) => {
                if p != self.principal {
                    return MatchOutcome::PrincipalMismatch;
                }
            }
            None => {
                // Principal omitted: valid only if the receiver belongs to
                // the local system or to the sender itself.
                if self.principal != local_system && self.principal != sender {
                    return MatchOutcome::PrincipalDenied;
                }
            }
        }
        if let Some(name) = target.name() {
            if name != self.name {
                return MatchOutcome::NameMismatch;
            }
        }
        if let Some(instance) = target.instance() {
            if instance != &self.instance {
                return MatchOutcome::InstanceMismatch;
            }
        }
        MatchOutcome::Match
    }

    /// Converts this concrete address into an exact URI (no location).
    pub fn to_uri(&self) -> AgentUri {
        AgentUri::from_parts(
            None,
            Some(self.principal.clone()),
            crate::AgentId::exact(&self.name, self.instance.clone())
                .expect("registered names are validated at registration"),
        )
    }
}

impl fmt::Display for AgentAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}:{}", self.principal, self.name, self.instance)
    }
}

/// The result of matching a target URI against a registered agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchOutcome {
    /// All present parts of the target agree with the address.
    Match,
    /// The target named a different principal.
    PrincipalMismatch,
    /// The target omitted the principal, and the receiver belongs to
    /// neither the local system nor the sender.
    PrincipalDenied,
    /// The target's name differs.
    NameMismatch,
    /// The target's instance differs.
    InstanceMismatch,
}

impl MatchOutcome {
    /// Whether the outcome is a successful match.
    pub fn is_match(self) -> bool {
        self == MatchOutcome::Match
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> AgentAddress {
        AgentAddress::new("alice@h1", "webbot", Instance::from_u64(0x42))
    }

    #[test]
    fn name_only_matches_any_instance() {
        let target: AgentUri = "alice@h1/webbot".parse().unwrap();
        assert!(addr().matches(&target, "system", "bob").is_match());
    }

    #[test]
    fn instance_only_matches_any_name() {
        let target: AgentUri = "alice@h1/:42".parse().unwrap();
        assert!(addr().matches(&target, "system", "bob").is_match());
    }

    #[test]
    fn exact_id_must_agree_on_both() {
        let ok: AgentUri = "alice@h1/webbot:42".parse().unwrap();
        assert!(addr().matches(&ok, "system", "bob").is_match());
        let wrong_inst: AgentUri = "alice@h1/webbot:43".parse().unwrap();
        assert_eq!(
            addr().matches(&wrong_inst, "system", "bob"),
            MatchOutcome::InstanceMismatch
        );
        let wrong_name: AgentUri = "alice@h1/other:42".parse().unwrap();
        assert_eq!(
            addr().matches(&wrong_name, "system", "bob"),
            MatchOutcome::NameMismatch
        );
    }

    #[test]
    fn omitted_principal_allows_local_system() {
        let sys = AgentAddress::new("system", "ag_fs", Instance::from_u64(1));
        let target: AgentUri = "ag_fs".parse().unwrap();
        assert!(sys.matches(&target, "system", "alice@h1").is_match());
    }

    #[test]
    fn omitted_principal_allows_senders_own_agents() {
        let target: AgentUri = "webbot".parse().unwrap();
        assert!(addr().matches(&target, "system", "alice@h1").is_match());
    }

    #[test]
    fn omitted_principal_denies_third_parties() {
        let target: AgentUri = "webbot".parse().unwrap();
        assert_eq!(
            addr().matches(&target, "system", "mallory@h9"),
            MatchOutcome::PrincipalDenied
        );
    }

    #[test]
    fn explicit_principal_mismatch_detected() {
        let target: AgentUri = "bob@h1/webbot".parse().unwrap();
        assert_eq!(
            addr().matches(&target, "system", "bob@h1"),
            MatchOutcome::PrincipalMismatch
        );
    }

    #[test]
    fn to_uri_is_exact_and_matches_self() {
        let a = addr();
        let uri = a.to_uri();
        assert!(uri.id().is_exact());
        assert!(a.matches(&uri, "system", "anyone").is_match());
    }

    #[test]
    fn instance_comparison_uses_normalized_hex() {
        let a = AgentAddress::new("p", "n", "00ff".parse().unwrap());
        let target: AgentUri = "p/n:FF".parse().unwrap();
        assert!(a.matches(&target, "system", "x").is_match());
    }
}
