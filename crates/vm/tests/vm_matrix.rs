//! The VM acceptance matrix: which code types land on which virtual
//! machine, and that the same agent state flows through all three.

use tacoma_briefcase::{folders, Briefcase};
use tacoma_security::{Keyring, Principal, TrustStore};
use tacoma_taxscript::{compile_source, NullHooks, Outcome};
use tacoma_vm::{
    code_types, Architecture, ArtifactBundle, BinaryArtifact, ExecContext, NativeRegistry, Run,
    VirtualMachine, VmBin, VmC, VmError, VmScript,
};

const SRC: &str = r#"fn main() { bc_set("RAN-ON", host_name()); exit(0); }"#;

fn all_vms() -> Vec<Box<dyn VirtualMachine>> {
    vec![
        Box::new(VmScript::new()),
        Box::new(VmBin::new()),
        Box::new(VmC::new()),
    ]
}

/// A briefcase carrying `SRC` in the form `code_type` names: source
/// text, its bytecode, or a bundle of that bytecode for this host.
fn briefcase_of(code_type: &str) -> Briefcase {
    let program = compile_source(SRC).unwrap();
    let code = match code_type {
        code_types::TAXSCRIPT_SOURCE => SRC.as_bytes().to_vec(),
        code_types::TAXSCRIPT_BYTECODE => program.encode(),
        _ => ArtifactBundle::new()
            .with(BinaryArtifact::bytecode(
                "src",
                Architecture::simulated(),
                &program,
            ))
            .encode(),
    };
    let mut bc = Briefcase::new();
    bc.append(folders::CODE, code);
    bc.set_single(folders::CODE_TYPE, code_type);
    bc
}

/// A VM runs a code type when its `launch` runs it, and refuses it there
/// with `UnsupportedCodeType` otherwise: there is no second list.
#[test]
fn acceptance_matrix_is_exactly_as_documented() {
    let expectations = [
        ("vm_script", code_types::TAXSCRIPT_SOURCE, true),
        ("vm_script", code_types::TAXSCRIPT_BYTECODE, true),
        ("vm_script", code_types::BINARY_ARTIFACT, false),
        ("vm_bin", code_types::TAXSCRIPT_SOURCE, false),
        ("vm_bin", code_types::TAXSCRIPT_BYTECODE, true),
        ("vm_bin", code_types::BINARY_ARTIFACT, true),
        ("vm_c", code_types::TAXSCRIPT_SOURCE, true),
        ("vm_c", code_types::TAXSCRIPT_BYTECODE, false),
        ("vm_c", code_types::BINARY_ARTIFACT, false),
    ];
    let trust = TrustStore::new();
    let natives = NativeRegistry::new();
    let ctx = ExecContext::new(&trust, &natives).allow_unsigned();
    for (vm_name, code_type, accepted) in expectations {
        let vm = all_vms()
            .into_iter()
            .find(|v| v.name() == vm_name)
            .expect("vm exists");
        let mut bc = briefcase_of(code_type);
        match vm.launch(&mut bc, &mut NullHooks::default(), &ctx) {
            Ok(Run::Done(exec)) if accepted => assert_eq!(exec.outcome, Outcome::Exit(0)),
            Err(VmError::UnsupportedCodeType { vm, .. }) if !accepted => assert_eq!(vm, vm_name),
            other => panic!("{vm_name} x {code_type} (accepted: {accepted}): {other:?}"),
        }
    }
}

#[test]
fn same_agent_runs_on_every_vm_shape() {
    let trust = TrustStore::new();
    let natives = NativeRegistry::new();
    let ctx = ExecContext::new(&trust, &natives).allow_unsigned();
    // Source on vm_script and vm_c; bytecode on vm_bin (unsigned, allowed).
    let cases: [(Box<dyn VirtualMachine>, &str); 3] = [
        (Box::new(VmScript::new()), code_types::TAXSCRIPT_SOURCE),
        (Box::new(VmC::new()), code_types::TAXSCRIPT_SOURCE),
        (Box::new(VmBin::new()), code_types::TAXSCRIPT_BYTECODE),
    ];
    for (vm, code_type) in cases {
        let mut bc = briefcase_of(code_type);
        let exec = vm
            .execute(&mut bc, &mut NullHooks::default(), &ctx)
            .unwrap_or_else(|e| panic!("{} failed on {}: {e}", vm.name(), code_type));
        assert_eq!(exec.outcome, Outcome::Exit(0), "{}", vm.name());
        assert_eq!(
            bc.single_str("RAN-ON").unwrap(),
            "localhost",
            "{}",
            vm.name()
        );
    }
}

#[test]
fn named_script_vm_runs_under_its_alias() {
    let vm = VmScript::named("vm_perl");
    assert_eq!(vm.name(), "vm_perl");
    let trust = TrustStore::new();
    let natives = NativeRegistry::new();
    let mut bc = Briefcase::new();
    bc.append(folders::CODE, SRC);
    let ctx = ExecContext::new(&trust, &natives);
    let mut hooks = NullHooks::default();
    assert_eq!(
        vm.execute(&mut bc, &mut hooks, &ctx).unwrap().outcome,
        Outcome::Exit(0)
    );
}

#[test]
fn signed_artifact_runs_on_vm_bin_under_strict_trust() {
    let keys = Keyring::generate(&Principal::new("vendor").unwrap(), 4);
    let mut trust = TrustStore::new();
    trust.trust(keys.public());
    let mut natives = NativeRegistry::new();
    natives.install_fn("tool", |bc, _| {
        bc.set_single("NATIVE", "ran");
        Ok(Outcome::Finished)
    });

    let bundle = ArtifactBundle::new().with(BinaryArtifact::native(
        "tool",
        Architecture::simulated(),
        "tool",
        5_000,
    ));
    let code = bundle.encode();
    let mut bc = Briefcase::new();
    bc.set_single(folders::PRINCIPAL, "vendor");
    bc.set_single(folders::SIGNATURE, keys.sign(&code).digest().to_hex());
    bc.append(folders::CODE, code);
    bc.set_single(folders::CODE_TYPE, code_types::BINARY_ARTIFACT);

    // Strict: no allow_unsigned. The trusted signature carries it.
    let ctx = ExecContext::new(&trust, &natives);
    let mut hooks = NullHooks::default();
    let exec = VmBin::new().execute(&mut bc, &mut hooks, &ctx).unwrap();
    assert_eq!(exec.outcome, Outcome::Finished);
    assert_eq!(bc.single_str("NATIVE").unwrap(), "ran");
}

#[test]
fn fuel_budget_applies_on_every_scripting_path() {
    let trust = TrustStore::new();
    let natives = NativeRegistry::new();
    let looping = "fn main() { while (1) { } }";
    for vm in [
        Box::new(VmScript::new()) as Box<dyn VirtualMachine>,
        Box::new(VmC::new()) as Box<dyn VirtualMachine>,
    ] {
        let mut bc = Briefcase::new();
        bc.append(folders::CODE, looping);
        bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_SOURCE);
        let ctx = ExecContext::new(&trust, &natives)
            .allow_unsigned()
            .with_fuel(50_000);
        let mut hooks = NullHooks::default();
        let err = vm.execute(&mut bc, &mut hooks, &ctx).unwrap_err();
        assert!(
            err.to_string().contains("instruction budget"),
            "{}: {err}",
            vm.name()
        );
    }
}
