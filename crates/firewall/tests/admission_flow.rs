//! End-to-end admission: a signed agent arrives at the firewall carrying
//! TaxScript bytecode; the firewall verifies the code and compares its
//! capability manifest against the sending principal's ACL grant.

use tacoma_briefcase::{folders, Briefcase};
use tacoma_firewall::{Decision, Firewall, FirewallError, Message};
use tacoma_security::{Keyring, Policy, Principal, Rights, TrustStore};
use tacoma_simnet::SimTime;
use tacoma_taxscript::compile_source;
use tacoma_vm::code_types;

/// A firewall whose policy grants `alice` exactly `rights`, with alice's
/// signing key trusted.
fn firewall_granting(rights: Rights) -> (Firewall, Keyring) {
    let alice = Principal::new("alice").unwrap();
    let keys = Keyring::generate(&alice, 9);
    let mut policy = Policy::new();
    policy.grant(alice, rights);
    let mut fw = Firewall::new("h1", 27017, policy, TrustStore::new());
    fw.add_vm("vm_script");
    fw.trust_mut().trust(keys.public());
    (fw, keys)
}

/// A signed transfer from `alice` carrying `src` compiled to bytecode.
fn signed_transfer(keys: &Keyring, src: &str) -> Message {
    let code = compile_source(src).unwrap().encode();
    let mut bc = Briefcase::new();
    bc.set_single(folders::AGENT_NAME, "courier");
    bc.set_single(folders::PRINCIPAL, "alice");
    bc.append(folders::CODE, code.clone());
    bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_BYTECODE);
    bc.set_single(folders::SIGNATURE, keys.sign(&code).digest().to_hex());
    Message::transfer(
        "h2",
        Principal::new("alice").unwrap(),
        "tacoma://h1/vm_script".parse().unwrap(),
        bc,
        false,
    )
}

const MOBILE_AGENT: &str = r#"
    fn main() {
        while (1) {
            let e = bc_remove("HOSTS", 0);
            if (e == nil) { exit(0); }
            if (go(e)) { display("unreachable: " + e); }
        }
    }
"#;

const STATIONARY_AGENT: &str = r#"
    fn main() { bc_append("RESULTS", host_name()); exit(0); }
"#;

#[test]
fn agent_within_grant_installs_and_counts_as_verified() {
    let (mut fw, keys) = firewall_granting(Rights::EXECUTE.with(Rights::SEND_REMOTE));
    let d = fw
        .route_inbound(signed_transfer(&keys, MOBILE_AGENT), SimTime::ZERO)
        .unwrap();
    assert!(matches!(d, Decision::InstallAgent { .. }));
    assert_eq!(fw.stats().code_verified, 1);
    assert_eq!(fw.stats().code_rejected, 0);
    assert_eq!(fw.stats().agents_installed, 1);
}

#[test]
fn capabilities_exceeding_grant_are_rejected_and_counted() {
    // alice may execute here but not send onward — a go()-capable agent
    // exceeds her grant even though its signature is perfectly valid.
    let (mut fw, keys) = firewall_granting(Rights::EXECUTE);
    let err = fw
        .route_inbound(signed_transfer(&keys, MOBILE_AGENT), SimTime::ZERO)
        .unwrap_err();
    assert!(
        matches!(err, FirewallError::CodeRejected(_)),
        "expected CodeRejected, got {err:?}"
    );
    let stats = fw.stats();
    assert_eq!(stats.code_rejected, 1, "rejection must be visible in stats");
    assert_eq!(stats.denied, 1);
    assert_eq!(stats.code_verified, 0);
    assert_eq!(stats.agents_installed, 0, "agent must not land");
}

#[test]
fn stationary_agent_passes_under_minimal_grant() {
    let (mut fw, keys) = firewall_granting(Rights::EXECUTE);
    let d = fw
        .route_inbound(signed_transfer(&keys, STATIONARY_AGENT), SimTime::ZERO)
        .unwrap();
    assert!(matches!(d, Decision::InstallAgent { .. }));
    assert_eq!(fw.stats().code_verified, 1);
}

#[test]
fn unverifiable_bytecode_is_rejected_even_with_full_rights() {
    let (mut fw, keys) = firewall_granting(Rights::ALL);
    // Hand-tamper the bytecode after compiling, then re-sign it so the
    // signature check passes. A jump to code_len survives decode
    // (Program::validate tolerates it) — only the verifier catches it.
    let mut program = compile_source(STATIONARY_AGENT).unwrap();
    let main = program.main_index();
    let end = program.functions()[main].code.len() as u32;
    program.functions_mut()[main].code[0] = tacoma_taxscript::Op::Jump(end);
    let code = program.encode();
    assert!(
        tacoma_taxscript::Program::decode(&code).is_ok(),
        "tamper must survive decode"
    );

    let mut bc = Briefcase::new();
    bc.set_single(folders::AGENT_NAME, "courier");
    bc.set_single(folders::PRINCIPAL, "alice");
    bc.append(folders::CODE, code.clone());
    bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_BYTECODE);
    bc.set_single(folders::SIGNATURE, keys.sign(&code).digest().to_hex());
    let m = Message::transfer(
        "h2",
        Principal::new("alice").unwrap(),
        "tacoma://h1/vm_script".parse().unwrap(),
        bc,
        false,
    );

    let err = fw.route_inbound(m, SimTime::ZERO).unwrap_err();
    assert!(matches!(err, FirewallError::CodeRejected(_)), "{err:?}");
    assert_eq!(fw.stats().code_rejected, 1);
}
