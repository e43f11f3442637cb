//! End-to-end kernel tests: agents moving, communicating, and being
//! mediated across a multi-host system.

use tacoma_core::{
    AgentSpec, EventKind, Keyring, LinkSpec, Outcome, Principal, SystemBuilder, TaxSystem,
};

fn three_hosts() -> TaxSystem {
    SystemBuilder::new()
        .host("alpha")
        .unwrap()
        .host("beta")
        .unwrap()
        .host("gamma")
        .unwrap()
        .trust_all()
        .build()
}

/// The Figure 4 agent: hop the full itinerary, displaying at each host.
#[test]
fn figure4_itinerary_visits_every_host() {
    let mut system = three_hosts();
    let spec = AgentSpec::script(
        "hello",
        r#"
        fn main() {
            display("Hello world from " + host_name());
            let next = bc_remove("HOSTS", 0);
            if (next == nil) { exit(0); }
            if (go(next)) { display("Unable to reach " + next); }
        }
        "#,
    )
    .itinerary(["tacoma://beta/vm_script", "tacoma://gamma/vm_script"]);

    system.launch("alpha", spec).unwrap();
    system.run_until_quiet();

    assert_eq!(
        system.agent_outputs(),
        vec![
            "Hello world from alpha",
            "Hello world from beta",
            "Hello world from gamma",
        ]
    );
    // The final host records the exit.
    let gamma = system.host("gamma").unwrap();
    assert!(gamma
        .events()
        .iter()
        .any(|e| matches!(e.kind, EventKind::Completed(Outcome::Exit(0)))));
}

/// Figure 4's failure branch: a crashed host is unreachable, the agent
/// reports it and carries on.
#[test]
fn unreachable_host_takes_failure_branch() {
    let mut system = three_hosts();
    system.network().with_topology(|t| {
        t.crash_host(&"beta".parse().unwrap());
    });

    let spec = AgentSpec::script(
        "hello",
        r#"
        fn main() {
            while (1) {
                let next = bc_remove("HOSTS", 0);
                if (next == nil) { exit(0); }
                if (go(next)) { display("Unable to reach " + next); }
            }
        }
        "#,
    )
    .itinerary(["tacoma://beta/vm_script", "tacoma://gamma/vm_script"]);

    system.launch("alpha", spec).unwrap();
    system.run_until_quiet();
    assert_eq!(
        system.agent_outputs(),
        vec!["Unable to reach tacoma://beta/vm_script"]
    );
    // It still reached gamma afterwards.
    let gamma = system.host("gamma").unwrap();
    assert!(gamma
        .events()
        .iter()
        .any(|e| matches!(e.kind, EventKind::Installed { .. })));
}

/// The briefcase carries accumulated results home (the §4 data-mining
/// shape): state mutated at each hop survives the moves.
#[test]
fn briefcase_state_accumulates_across_hops() {
    let mut system = three_hosts();
    let spec = AgentSpec::script(
        "miner",
        r#"
        fn main() {
            bc_append("VISITED", host_name());
            let next = bc_remove("HOSTS", 0);
            if (next == nil) {
                display("route " + str(bc_len("VISITED")));
                display(bc_get("VISITED", 0) + ">" + bc_get("VISITED", 1) + ">" + bc_get("VISITED", 2));
                exit(0);
            }
            go(next);
        }
        "#,
    )
    .itinerary(["tacoma://beta/vm_script", "tacoma://gamma/vm_script"]);
    system.launch("alpha", spec).unwrap();
    system.run_until_quiet();
    assert_eq!(system.agent_outputs(), vec!["route 3", "alpha>beta>gamma"]);
}

/// meet() against a local service agent is synchronous RPC (§3.1).
#[test]
fn meet_local_service_round_trips() {
    let mut system = three_hosts();
    let spec = AgentSpec::script(
        "client",
        r#"
        fn main() {
            bc_set("CMD", "compile");
            bc_set("SOURCE", "fn main() { exit(3); }");
            if (meet("ag_cc")) {
                display("compiled " + bc_get("INSTR-COUNT", 0) + " instrs, status " + bc_get("STATUS", 0));
            } else {
                display("meet failed");
            }
            exit(0);
        }
        "#,
    );
    system.launch("alpha", spec).unwrap();
    system.run_until_quiet();
    let output = system.agent_outputs();
    assert_eq!(output.len(), 1);
    assert!(
        output[0].starts_with("compiled ") && output[0].ends_with("status ok"),
        "{output:?}"
    );
}

/// meet() against a *remote* service charges the network and returns the
/// reply.
#[test]
fn meet_remote_service_charges_network() {
    let mut system = three_hosts();
    let spec = AgentSpec::script(
        "client",
        r#"
        fn main() {
            bc_set("CMD", "append");
            bc_append("ARGS", "hello from alpha");
            if (meet("tacoma://beta/ag_log")) { display("logged"); }
            exit(0);
        }
        "#,
    );
    system.launch("alpha", spec).unwrap();
    system.run_until_quiet();
    assert_eq!(system.agent_outputs(), vec!["logged"]);

    let net = system.network();
    let a: tacoma_core::HostId = "alpha".parse().unwrap();
    let b: tacoma_core::HostId = "beta".parse().unwrap();
    let stats = net.stats();
    assert!(
        stats.pair(&a, &b).bytes > 0,
        "request bytes must be charged"
    );
    assert!(stats.pair(&b, &a).bytes > 0, "reply bytes must be charged");
}

/// activate()/await_bc(): asynchronous send into a mailbox.
#[test]
fn activate_and_await_between_agents() {
    let mut system = three_hosts();

    // The receiver registers, then waits for mail.
    let receiver = AgentSpec::script(
        "receiver",
        r#"
        fn main() {
            if (await_bc(1000)) {
                display("got " + bc_get("PAYLOAD", 0));
            } else {
                display("no mail");
            }
            exit(0);
        }
        "#,
    );
    // The sender fires a message at the receiver by name.
    let sender = AgentSpec::script(
        "sender",
        r#"
        fn main() {
            bc_set("PAYLOAD", "ping");
            activate("tacoma://alpha/receiver");
            exit(0);
        }
        "#,
    );

    // Launch the sender first: its message is *queued* because the
    // receiver has not arrived (§3.2), then flushed on registration.
    let mut system2 = three_hosts();
    system2.launch("beta", sender.clone()).unwrap();
    system2.run_until_quiet();
    system2.launch("alpha", receiver.clone()).unwrap();
    system2.run_until_quiet();
    assert_eq!(system2.agent_outputs(), vec!["got ping"]);

    // And the no-mail branch: the receiver alone times out.
    system.launch("alpha", receiver).unwrap();
    system.run_until_quiet();
    assert_eq!(system.agent_outputs(), vec!["no mail"]);
}

/// spawn(): the child gets a fresh instance reported back to the parent,
/// and both run to completion.
#[test]
fn spawn_forks_a_child_with_reported_instance() {
    let mut system = three_hosts();
    let spec = AgentSpec::script(
        "forker",
        r#"
        fn main() {
            if (bc_has("CHILD")) {
                display("child at " + host_name());
                exit(0);
            }
            bc_set("CHILD", 1);
            let inst = spawn("tacoma://beta/vm_script");
            if (inst == nil) {
                display("spawn failed");
            } else {
                display("spawned child instance " + inst);
            }
            exit(0);
        }
        "#,
    );
    system.launch("alpha", spec).unwrap();
    system.run_until_quiet();
    let out = system.agent_outputs();
    assert_eq!(out.len(), 2, "{out:?}");
    assert!(out[0].starts_with("spawned child instance "));
    assert_eq!(out[1], "child at beta");
}

/// Signed agents are authenticated by remote firewalls; tampering or
/// unknown principals are rejected under a strict policy.
#[test]
fn strict_policy_requires_signatures() {
    use tacoma_core::{HostBuilder, Policy};
    let alice = Keyring::generate(&Principal::new("alice").unwrap(), 11);

    let strict_beta = HostBuilder::new("beta")
        .unwrap()
        .policy(Policy::new()) // authenticated-only
        .trust_key(alice.public());
    let mut system = SystemBuilder::new()
        .host("alpha")
        .unwrap()
        .host_with(strict_beta)
        .build();

    let code = r#"
        fn main() {
            let next = bc_remove("HOSTS", 0);
            if (next == nil) { display("arrived " + host_name()); exit(0); }
            if (go(next)) { display("rejected"); }
            exit(0);
        }
    "#;

    // Unsigned: beta's firewall refuses the transfer.
    let unsigned = AgentSpec::script("anon", code).itinerary(["tacoma://beta/vm_script"]);
    system.launch("alpha", unsigned).unwrap();
    system.run_until_quiet();
    let beta = system.host("beta").unwrap();
    assert!(
        beta.events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Rejected(_))),
        "unsigned agent must be rejected: {:?}",
        beta.events()
    );
    assert!(!system.agent_outputs().iter().any(|l| l == "arrived beta"));

    // Signed by the trusted key: lands and runs.
    let signed = AgentSpec::script("signed", code)
        .signed_by(alice)
        .itinerary(["tacoma://beta/vm_script"]);
    system.launch("alpha", signed).unwrap();
    system.run_until_quiet();
    assert!(system.agent_outputs().iter().any(|l| l == "arrived beta"));
}

/// Admin operations: list shows registered agents; kill removes a queued
/// agent before it runs.
#[test]
fn admin_list_and_kill() {
    let mut system = three_hosts();
    let spec = AgentSpec::script("victim", r#"fn main() { display("ran"); exit(0); }"#);
    let address = system.launch("alpha", spec).unwrap();

    let admin = Principal::local_system("alpha");
    let reply = system.admin("alpha", &admin, "list", &[]).unwrap();
    let agents: Vec<String> = reply
        .folder("AGENTS")
        .map(|f| f.iter().map(|e| e.as_str().unwrap().to_owned()).collect())
        .unwrap_or_default();
    assert!(
        agents.iter().any(|line| line.contains("victim")),
        "list must show the queued agent: {agents:?}"
    );

    system
        .admin("alpha", &admin, "kill", &[&address.to_string()])
        .unwrap();
    system.run_until_quiet();
    assert!(
        system.agent_outputs().is_empty(),
        "killed agent must never run"
    );
}

/// stop parks a queued agent; resume lets it run.
#[test]
fn admin_stop_and_resume() {
    let mut system = three_hosts();
    let spec = AgentSpec::script("pausable", r#"fn main() { display("ran"); exit(0); }"#);
    let address = system.launch("alpha", spec).unwrap();
    let admin = Principal::local_system("alpha");
    system
        .admin("alpha", &admin, "stop", &[&address.to_string()])
        .unwrap();
    system.run_until_quiet();
    assert!(
        system.agent_outputs().is_empty(),
        "stopped agent must not run"
    );

    system
        .admin("alpha", &admin, "resume", &[&address.to_string()])
        .unwrap();
    system.run_until_quiet();
    assert_eq!(system.agent_outputs(), vec!["ran"]);
}

/// The vm_c pipeline (Figure 3) works through the kernel: source arrives,
/// is compiled on-site, and the binary travels on the next hop.
#[test]
fn vm_c_pipeline_through_kernel() {
    let mut system = three_hosts();
    let spec = AgentSpec::script(
        "csource",
        r#"fn main() { display("compiled and ran on " + host_name()); exit(0); }"#,
    )
    .on_vm("vm_c");
    system.launch("alpha", spec).unwrap();
    system.run_until_quiet();
    assert_eq!(system.agent_outputs(), vec!["compiled and ran on alpha"]);
    // The execution trace records the 7 steps.
    let alpha = system.host("alpha").unwrap();
    let has_pipeline = alpha.events().iter().any(|e| match &e.kind {
        EventKind::ExecutionTrace(lines) => lines.iter().any(|l| l.starts_with("7:")),
        _ => false,
    });
    assert!(has_pipeline, "expected the Figure-3 trace");
}

/// Faulting agents are contained: the error is recorded, the system stays
/// up, and other agents keep running.
#[test]
fn agent_faults_are_contained() {
    let mut system = three_hosts();
    system
        .launch(
            "alpha",
            AgentSpec::script("crasher", "fn main() { let x = 1 / 0; }"),
        )
        .unwrap();
    system
        .launch(
            "alpha",
            AgentSpec::script("survivor", r#"fn main() { display("alive"); }"#),
        )
        .unwrap();
    system.run_until_quiet();
    assert_eq!(system.agent_outputs(), vec!["alive"]);
    let alpha = system.host("alpha").unwrap();
    assert!(alpha
        .events()
        .iter()
        .any(|e| matches!(e.kind, EventKind::Faulted(_))));
}

/// Network bytes for a `go` scale with the carried briefcase: dropping
/// state before moving saves bandwidth (§3.1's "drop state no longer
/// needed").
#[test]
fn dropping_state_before_go_saves_bandwidth() {
    let payload = "x".repeat(100_000);

    let run = |drop_state: bool| {
        let mut system = SystemBuilder::new()
            .host("alpha")
            .unwrap()
            .host("beta")
            .unwrap()
            .default_link(LinkSpec::lan_100mbit())
            .trust_all()
            .build();
        let code = if drop_state {
            r#"fn main() {
                if (host_name() == "beta") { exit(0); }
                bc_clear("BULK");
                go("tacoma://beta/vm_script");
            }"#
        } else {
            r#"fn main() {
                if (host_name() == "beta") { exit(0); }
                go("tacoma://beta/vm_script");
            }"#
        };
        let spec = AgentSpec::script("mover", code).folder("BULK", [payload.as_str()]);
        system.launch("alpha", spec).unwrap();
        system.run_until_quiet();
        let stats = system.network().stats();
        stats
            .pair(&"alpha".parse().unwrap(), &"beta".parse().unwrap())
            .bytes
    };

    let heavy = run(false);
    let light = run(true);
    assert!(heavy > light + 90_000, "heavy={heavy} light={light}");
}

/// Firewall mediation is total: local sends, remote sends, and transfers
/// all show up in firewall statistics (the Figure 1 property).
#[test]
fn firewall_mediates_everything() {
    let mut system = three_hosts();
    let spec = AgentSpec::script(
        "busy",
        r#"
        fn main() {
            if (host_name() == "beta") { exit(0); }
            bc_set("CMD", "list");
            bc_append("ARGS", "/");
            activate("ag_fs");
            go("tacoma://beta/vm_script");
        }
        "#,
    );
    system.launch("alpha", spec).unwrap();
    system.run_until_quiet();

    let alpha_stats = system.host("alpha").unwrap().with_firewall(|fw| fw.stats());
    assert!(
        alpha_stats.forwarded_remote >= 1,
        "the go() must be mediated: {alpha_stats}"
    );
    let beta_stats = system.host("beta").unwrap().with_firewall(|fw| fw.stats());
    assert!(
        beta_stats.agents_installed >= 1,
        "the arrival must be mediated: {beta_stats}"
    );
}

/// A Briefcase sent with REPLY-TO set gets the service's reply delivered
/// back asynchronously.
#[test]
fn activate_service_with_reply_to() {
    let mut system = three_hosts();
    let spec = AgentSpec::script(
        "asker",
        r#"
        fn main() {
            bc_set("CMD", "compile");
            bc_set("SOURCE", "fn main() { }");
            bc_set("REPLY-TO", "tacoma://alpha/asker");
            activate("tacoma://beta/ag_cc");
            if (await_bc(2000)) {
                display("reply status " + bc_get("STATUS", 0));
            } else {
                display("no reply");
            }
            exit(0);
        }
        "#,
    );
    system.launch("alpha", spec).unwrap();
    system.run_until_quiet();
    assert_eq!(system.agent_outputs(), vec!["reply status ok"]);
}

/// The admin `runtime` query reports how long an agent has been
/// registered (§3.2's "determining their run time").
#[test]
fn admin_runtime_query() {
    let mut system = three_hosts();
    // A long-lived agent that waits around.
    let spec = AgentSpec::script("lingerer", r#"fn main() { await_bc(5000); exit(0); }"#);
    let address = system.launch("alpha", spec).unwrap();

    // Let virtual time pass before asking.
    system.clock().advance(std::time::Duration::from_secs(3));
    let admin = Principal::local_system("alpha");
    let mut args_now = system.clock().now().as_nanos().to_string();
    args_now.truncate(args_now.len()); // explicit clock sample
    let reply = system
        .admin("alpha", &admin, "runtime", &[&address.to_string()])
        .unwrap();
    // The reply carries a runtime folder; without a NOW-NS hint it
    // reports relative to registration (zero or more).
    assert!(reply.single_i64("RUNTIME-MS").unwrap() >= 0);
    system.run_until_quiet();
}

/// An artifact bundle with no payload for the host's architecture faults
/// cleanly — the §5 multi-architecture list done wrong.
#[test]
fn wrong_architecture_bundle_faults_cleanly() {
    use tacoma_core::{Architecture, ArtifactBundle, BinaryArtifact};
    let mut system = three_hosts();
    let bundle = ArtifactBundle::new().with(BinaryArtifact::native(
        "x",
        Architecture::sparc_solaris(),
        "x",
        100,
    ));
    let spec = AgentSpec::bundle("misfit", bundle);
    system.launch("alpha", spec).unwrap();
    system.run_until_quiet();
    let alpha = system.host("alpha").unwrap();
    let faulted = alpha
        .events()
        .iter()
        .any(|e| matches!(&e.kind, EventKind::Faulted(msg) if msg.contains("architecture")));
    assert!(faulted, "{:?}", alpha.events());
}

/// A bundle referencing a native program the host never installed faults
/// with a precise error (COTS binary not deployed).
#[test]
fn missing_native_program_faults_cleanly() {
    use tacoma_core::{Architecture, ArtifactBundle, BinaryArtifact};
    let mut system = three_hosts();
    let bundle = ArtifactBundle::new().with(BinaryArtifact::native(
        "ghostware",
        Architecture::simulated(),
        "ghostware",
        100,
    ));
    system
        .launch("alpha", AgentSpec::bundle("ghost", bundle))
        .unwrap();
    system.run_until_quiet();
    let alpha = system.host("alpha").unwrap();
    assert!(alpha
        .events()
        .iter()
        .any(|e| { matches!(&e.kind, EventKind::Faulted(msg) if msg.contains("ghostware")) }));
}

/// The paper's future-work "additional virtual machines": hosts can
/// expose extra script-VM landing pads, and agents address them by name.
#[test]
fn extra_script_vms_are_addressable() {
    use tacoma_core::HostBuilder;
    let beta = HostBuilder::new("beta")
        .unwrap()
        .extra_script_vms(["vm_perl", "vm_tcl"]);
    let mut system = SystemBuilder::new()
        .host("alpha")
        .unwrap()
        .host_with(beta)
        .trust_all()
        .build();
    let spec = AgentSpec::script(
        "polyglot",
        r#"
        fn main() {
            if (host_name() == "beta") { display("landed on vm_perl"); exit(0); }
            go("tacoma://beta/vm_perl");
        }
        "#,
    );
    system.launch("alpha", spec).unwrap();
    system.run_until_quiet();
    assert_eq!(system.agent_outputs(), vec!["landed on vm_perl"]);
}

/// Cache and pool warmth is telemetry, never trace: the process-global
/// analysis cache, program cache and VM pool are cold for the first
/// launch of a program and warm for the second, and the recorded events
/// must not be able to tell. (A warmth string in `ExecutionTrace` made
/// the worker-count determinism suites depend on test order.)
#[test]
fn cold_and_warm_launches_record_identical_events() {
    fn events_of(spec: AgentSpec) -> Vec<(String, tacoma_core::HostEvent)> {
        let mut system = three_hosts();
        system.launch("alpha", spec).unwrap();
        system.run_until_quiet();
        system.events()
    }

    // Program text no other test in this binary uses, so the first launch
    // of each really is the cold one.
    const SOURCE: &str = r#"
        fn main() {
            display("cold-or-warm on " + host_name());
            let next = bc_remove("HOSTS", 0);
            if (next == nil) { exit(0); }
            go(next);
        }
    "#;
    let script = || AgentSpec::script("twice", SOURCE).itinerary(["tacoma://beta/vm_script"]);
    let cold = events_of(script());
    assert_eq!(events_of(script()), cold, "vm_script source path");
    assert!(cold
        .iter()
        .any(|(_, e)| matches!(e.kind, EventKind::ExecutionTrace(_))));

    let program = tacoma_taxscript::compile_source(
        r#"fn main() { display("cold-or-warm binary"); exit(0); }"#,
    )
    .unwrap();
    let binary = || AgentSpec::bytecode("twice-bin", program.clone());
    let cold = events_of(binary());
    assert_eq!(events_of(binary()), cold, "vm_bin bytecode path");
    assert!(cold
        .iter()
        .any(|(_, e)| matches!(e.kind, EventKind::Completed(Outcome::Exit(0)))));
}

/// `drain_events` hands back exactly what `events` showed, forgets it on
/// the merged log and on every host, and keeps later events in order — the
/// contract `taxd`'s print-what-you-drain loop relies on.
#[test]
fn drain_events_is_an_ordered_snapshot_that_clears_every_log() {
    let mut system = three_hosts();
    let hop = |name: &str| {
        AgentSpec::script(
            name,
            r#"fn main() {
                display("at " + host_name());
                let next = bc_remove("HOSTS", 0);
                if (next == nil) { exit(0); }
                go(next);
            }"#,
        )
        .itinerary(["tacoma://beta/vm_script"])
    };
    system.launch("alpha", hop("first")).unwrap();
    system.run_until_quiet();

    let seen = system.events();
    assert!(seen.iter().any(|(host, _)| host == "beta"));
    assert_eq!(system.drain_events(), seen);
    assert!(system.events().is_empty());
    assert!(system.agent_outputs().is_empty());
    for name in system.host_names() {
        assert!(system.host(&name).unwrap().events().is_empty());
    }
    assert!(system.drain_events().is_empty());

    system.launch("alpha", hop("second")).unwrap();
    system.run_until_quiet();
    let later = system.drain_events();
    assert_eq!(later.len(), seen.len(), "only the second run's events");
    assert!(later.iter().all(|(_, e)| e
        .agent
        .as_ref()
        .is_none_or(|a| a.to_string().contains("second"))));
}
