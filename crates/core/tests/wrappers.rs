//! The §4 wrapper mechanism, end to end: stacking, monitoring, location
//! transparency, and ordered group communication — all without modifying
//! the wrapped agents.

use std::sync::Arc;

use tacoma_core::wrappers::AgLocator;
use tacoma_core::{folders, AgentSpec, Briefcase, EventKind, Principal, SystemBuilder, TaxSystem};

fn system_with(hosts: &[&str]) -> TaxSystem {
    let mut b = SystemBuilder::new();
    for h in hosts {
        b = b.host(h).unwrap();
    }
    b.trust_all().build()
}

/// The monitoring wrapper (rwWebbot): every move is reported to a log
/// service at the home host, without the agent's code mentioning it.
#[test]
fn monitor_wrapper_reports_moves_to_home_log() {
    let mut system = system_with(&["home", "s1", "s2"]);
    let spec = AgentSpec::script(
        "roamer",
        r#"
        fn main() {
            let next = bc_remove("HOSTS", 0);
            if (next == nil) { exit(0); }
            go(next);
        }
        "#,
    )
    .itinerary(["tacoma://s1/vm_script", "tacoma://s2/vm_script"])
    .wrap("monitor:tacoma://home/ag_log");

    system.launch("home", spec).unwrap();
    system.run_until_quiet();

    // The home log received one report per hop.
    let principal = Principal::local_system("home");
    let mut read = Briefcase::new();
    read.set_single(folders::COMMAND, "read");
    let reply = system
        .call_service("home", "ag_log", &principal, read)
        .unwrap();
    let lines: Vec<String> = reply
        .folder("LINES")
        .map(|f| f.iter().map(|e| e.as_str().unwrap().to_owned()).collect())
        .unwrap_or_default();
    assert_eq!(lines.len(), 2, "one report per hop: {lines:?}");
    assert!(
        lines[0].contains("home -> tacoma://s1/vm_script"),
        "{lines:?}"
    );
    assert!(
        lines[1].contains("s1 -> tacoma://s2/vm_script"),
        "{lines:?}"
    );
}

/// The monitoring wrapper absorbs status queries and answers them itself —
/// the wrapped agent never sees monitoring traffic.
#[test]
fn monitor_wrapper_answers_status_queries() {
    let mut system = system_with(&["home", "s1"]);

    // A long-lived agent that waits for real mail.
    let worker = AgentSpec::script(
        "worker",
        r#"
        fn main() {
            if (await_bc(5000)) {
                display("worker got real mail: " + bc_get("NOTE", 0));
            } else {
                display("worker got nothing");
            }
            exit(0);
        }
        "#,
    )
    .wrap("monitor:tacoma://home/ag_log");
    system.launch("s1", worker).unwrap();

    // A prober sends a status query (answered by the wrapper), then a
    // real message (passed through to the agent).
    let prober = AgentSpec::script(
        "prober",
        r#"
        fn main() {
            bc_set("CMD", "status");
            bc_set("REPLY-TO", "tacoma://home/prober");
            activate("tacoma://s1/worker");
            if (await_bc(5000)) {
                display("status says " + bc_get("LOCATION", 0));
            }
            bc_clear("CMD");
            bc_clear("REPLY-TO");
            bc_clear("LOCATION");
            bc_clear("AGENT");
            bc_clear("HOPS");
            bc_clear("STATUS");
            bc_set("NOTE", "hello");
            activate("tacoma://s1/worker");
            exit(0);
        }
        "#,
    );
    system.launch("home", prober).unwrap();
    system.run_until_quiet();

    let out = system.agent_outputs();
    assert!(out.contains(&"status says s1".to_owned()), "{out:?}");
    assert!(
        out.contains(&"worker got real mail: hello".to_owned()),
        "{out:?}"
    );
}

/// The location-transparency wrapper: a home locator service always knows
/// where the wrapped agent is.
#[test]
fn location_wrapper_tracks_the_agent() {
    let mut system = system_with(&["home", "s1", "s2"]);
    system
        .host("home")
        .unwrap()
        .add_service(Arc::new(AgLocator::new()));

    let spec = AgentSpec::script(
        "nomad",
        r#"
        fn main() {
            let next = bc_remove("HOSTS", 0);
            if (next == nil) { exit(0); }
            go(next);
        }
        "#,
    )
    .itinerary(["tacoma://s1/vm_script", "tacoma://s2/vm_script"])
    .wrap("location:tacoma://home/ag_locator");

    system.launch("home", spec).unwrap();
    system.run_until_quiet();

    let principal = Principal::local_system("home");
    let mut lookup = Briefcase::new();
    lookup.set_single(folders::COMMAND, "lookup");
    lookup.append(folders::ARGS, "nomad");
    let reply = system
        .call_service("home", "ag_locator", &principal, lookup)
        .unwrap();
    assert_eq!(
        reply.single_str("URI").unwrap(),
        "tacoma://s2/nomad",
        "locator must hold the last hop"
    );
}

/// Group communication, FIFO order: a member multicasts a sequence, the
/// other member delivers it in per-sender order. (Concurrent two-way
/// chatter needs preemptive agents; ordering under adversarial reordering
/// is covered by the `wrappers::ordering` unit tests.)
#[test]
fn group_wrapper_fifo_multicast() {
    let mut system = system_with(&["h1", "h2"]);
    let members = "ga@h1,gb@h2";

    // The sender multicasts three payloads and exits.
    let sender = AgentSpec::script(
        "ga",
        r#"
        fn main() {
            bc_set("BODY", "a1");
            activate("group");
            bc_set("BODY", "a2");
            activate("group");
            bc_set("BODY", "a3");
            activate("group");
            exit(0);
        }
        "#,
    )
    .wrap(format!("group:fifo:{members}"));

    // The receiver drains its mailbox; note the BODY clear before each
    // await, because await merges incoming folders into the briefcase.
    let receiver = AgentSpec::script(
        "gb",
        r#"
        fn main() {
            let n = 0;
            while (n < 3) {
                bc_clear("BODY");
                if (await_bc(2000)) {
                    display(host_name() + " delivered " + bc_get("BODY", 0));
                    n = n + 1;
                } else {
                    display(host_name() + " timed out");
                    exit(1);
                }
            }
            exit(0);
        }
        "#,
    )
    .wrap(format!("group:fifo:{members}"));

    system.launch("h1", sender).unwrap();
    system.launch("h2", receiver).unwrap();
    system.run_until_quiet();

    let out = system.agent_outputs();
    let deliveries: Vec<&String> = out.iter().filter(|l| l.contains("delivered")).collect();
    assert_eq!(
        deliveries,
        ["h2 delivered a1", "h2 delivered a2", "h2 delivered a3"],
        "all output: {out:?}"
    );
}

/// Total (atomic) order: every member delivers the same global sequence,
/// even for the sequencer's own messages.
#[test]
fn group_wrapper_total_order_agrees_across_members() {
    let mut system = system_with(&["h1", "h2", "h3"]);
    let members = "seq@h1,m2@h2,m3@h3";

    // Each member clears the BODY it sent before it awaits: await merges
    // incoming folders into the briefcase, so a stale BODY would shadow
    // the delivered one.
    let sender = |name: &str, host: &str, body: &str| {
        AgentSpec::script(
            name,
            format!(
                r#"
                fn main() {{
                    bc_set("BODY", "{body}");
                    activate("group");
                    bc_clear("BODY");
                    let n = 0;
                    while (n < 2) {{
                        if (await_bc(3000)) {{
                            display("{host}:" + bc_get("BODY", 0));
                            bc_clear("BODY");
                            n = n + 1;
                        }} else {{
                            exit(1);
                        }}
                    }}
                    exit(0);
                }}
                "#
            ),
        )
        .wrap(format!("group:total:{members}"))
    };

    system
        .launch("h1", sender("seq", "h1", "from-seq"))
        .unwrap();
    system.launch("h2", sender("m2", "h2", "from-m2")).unwrap();
    system.launch("h3", sender("m3", "h3", "from-m3")).unwrap();
    system.run_until_quiet();

    let out = system.agent_outputs();
    let order_of = |host: &str| -> Vec<String> {
        out.iter()
            .filter_map(|l| l.strip_prefix(&format!("{host}:")))
            .map(str::to_owned)
            .collect()
    };
    // With total order + self-delivery, each member sees 2 messages
    // (its own plus others, bounded by the await loop) in a sequence
    // consistent with the global one: every member's delivery list is a
    // subsequence of the same total order.
    let o1 = order_of("h1");
    let o2 = order_of("h2");
    let o3 = order_of("h3");
    assert!(
        !o1.is_empty() && !o2.is_empty() && !o3.is_empty(),
        "{out:?}"
    );

    fn is_subsequence(sub: &[String], full: &[String]) -> bool {
        let mut it = full.iter();
        sub.iter().all(|x| it.any(|y| y == x))
    }
    // Reconstruct the global order from the sequencer's own deliveries
    // plus any the others saw.
    let mut global = o1.clone();
    for o in [&o2, &o3] {
        for item in o {
            if !global.contains(item) {
                global.push(item.clone());
            }
        }
    }
    assert!(
        is_subsequence(&o2, &global),
        "h2 {o2:?} vs global {global:?}; out {out:?}"
    );
    assert!(
        is_subsequence(&o3, &global),
        "h3 {o3:?} vs global {global:?}; out {out:?}"
    );
}

/// Stacked wrappers compose: logging inside monitor (Figure 5 shape),
/// both observing the same move.
#[test]
fn stacked_wrappers_compose() {
    let mut system = system_with(&["home", "s1"]);
    let spec = AgentSpec::script(
        "stacked",
        r#"
        fn main() {
            let next = bc_remove("HOSTS", 0);
            if (next == nil) { exit(0); }
            go(next);
        }
        "#,
    )
    .itinerary(["tacoma://s1/vm_script"])
    .wrap("logging")
    .wrap("monitor:tacoma://home/ag_log");

    system.launch("home", spec).unwrap();
    system.run_until_quiet();

    // The logging wrapper annotated the travelling briefcase; its note is
    // in the home host's event log.
    let home = system.host("home").unwrap();
    let notes: Vec<String> = home
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Wrapper { note, .. } => Some(note.clone()),
            _ => None,
        })
        .collect();
    assert!(
        notes.iter().any(|n| n.contains("moving to")),
        "logging note missing: {notes:?}"
    );
    assert!(
        notes.iter().any(|n| n.contains("reported move")),
        "monitor note missing: {notes:?}"
    );
}
