//! Transfers in flight: on a transport that completes sends later, an
//! agent's `go`/`spawn` suspends its run instead of blocking the host,
//! and the verdict resumes it — moved (the run ends), or unreachable
//! (the script carries on from the call). Kill and stop reach a
//! suspended agent — in flight or parked in `await_bc` — as they reach a
//! queued one.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use tacoma_core::{
    folders, AgentSpec, Briefcase, EventKind, Outcome, Principal, SystemBuilder, TaxSystem,
};
use tacoma_firewall::Message;
use tacoma_journal::{Journal, JournalConfig};
use tacoma_transport::{Completion, Transport, TransportError, TransportStats};

/// A nonblocking transport whose sends complete only when the test says
/// so, all with the same verdict.
#[derive(Debug, Default)]
struct Gate {
    sent: Mutex<Vec<u64>>,
    done: Mutex<Vec<Completion>>,
}

impl Gate {
    fn in_transit(&self) -> usize {
        self.sent.lock().unwrap().len()
    }

    fn settle(&self, delivered: bool) {
        let tokens: Vec<u64> = self.sent.lock().unwrap().drain(..).collect();
        let mut done = self.done.lock().unwrap();
        for token in tokens {
            let result = if delivered {
                Ok(())
            } else {
                Err(TransportError::RetriesExhausted {
                    host: "beta".into(),
                    attempts: 3,
                    last: "peer gone".into(),
                })
            };
            done.push(Completion { token, result });
        }
    }
}

impl Transport for Gate {
    fn send(&self, _: &str, _: &str, _: u16, _: &[u8]) -> Result<(), TransportError> {
        Ok(())
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    fn kind(&self) -> &'static str {
        "gate"
    }

    fn send_nowait(
        &self,
        _: &str,
        _: &str,
        _: u16,
        _: bytes::Bytes,
        token: u64,
    ) -> Result<(), TransportError> {
        self.sent.lock().unwrap().push(token);
        Ok(())
    }

    fn drain_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.done.lock().unwrap())
    }
}

const TRAVELLER: &str = r#"
    fn main() {
        display("before");
        if (go("tacoma://beta/vm_script")) { display("unreachable"); }
        display("after");
    }
"#;

/// Parks in `await_bc` until its deadline: nobody sends it mail.
const AWAITER: &str = r#"
    fn main() {
        display("before");
        if (await_bc(500)) { display("mail"); }
        display("after");
    }
"#;

/// One host, `alpha`, whose only way out is `gate`.
fn alpha(gate: &Arc<Gate>) -> TaxSystem {
    alpha_over(Arc::clone(gate) as Arc<dyn Transport>)
}

fn alpha_over(transport: Arc<dyn Transport>) -> TaxSystem {
    SystemBuilder::new()
        .host("alpha")
        .unwrap()
        .transport(transport)
        .build()
}

/// Attaches a fresh journal, in a temporary directory named after
/// `test`, to `system`'s alpha. The caller removes the directory.
fn journal_alpha(system: &TaxSystem, test: &str) -> (Arc<Journal>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("tacoma-inflight-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Arc::new(Journal::open(&dir, JournalConfig::default()).unwrap().0);
    let host = system.host("alpha").unwrap();
    host.attach_journal(Arc::clone(&journal));
    (journal, dir)
}

fn events(system: &TaxSystem) -> Vec<EventKind> {
    system.events().into_iter().map(|(_, e)| e.kind).collect()
}

fn departed(system: &TaxSystem) -> usize {
    events(system)
        .iter()
        .filter(|k| matches!(k, EventKind::Departed { .. }))
        .count()
}

fn completed(system: &TaxSystem) -> usize {
    events(system)
        .iter()
        .filter(|k| matches!(k, EventKind::Completed(_)))
        .count()
}

/// Delivers the verdict and runs whoever it resumed.
fn settle(system: &mut TaxSystem, gate: &Gate, delivered: bool) {
    gate.settle(delivered);
    assert_eq!(system.pump_transport("alpha").unwrap(), 1);
    system.run_until_quiet();
}

#[test]
fn go_suspends_until_the_ack_and_then_moves() {
    let gate = Arc::new(Gate::default());
    let mut system = alpha(&gate);
    system
        .launch("alpha", AgentSpec::script("t", TRAVELLER))
        .unwrap();
    system.run_until_quiet();

    // The frame is out, the agent is parked on it, and nothing decided.
    assert_eq!(gate.in_transit(), 1);
    assert_eq!(system.transport_inflight("alpha").unwrap(), 1);
    assert!(system.is_quiet(), "a suspended agent is not runnable");
    assert_eq!(system.agent_outputs(), ["before"]);
    assert_eq!(departed(&system), 0);

    settle(&mut system, &gate, true);
    assert_eq!(departed(&system), 1);
    assert_eq!(system.agent_outputs(), ["before"], "a moved run ends at go");
    assert_eq!(completed(&system), 0);
    assert_eq!(system.transport_inflight("alpha").unwrap(), 0);
}

#[test]
fn a_lost_transfer_resumes_the_script_past_go() {
    let gate = Arc::new(Gate::default());
    let mut system = alpha(&gate);
    system
        .launch("alpha", AgentSpec::script("t", TRAVELLER))
        .unwrap();
    system.run_until_quiet();
    settle(&mut system, &gate, false);

    assert_eq!(system.agent_outputs(), ["before", "unreachable", "after"]);
    assert_eq!(departed(&system), 0);
    assert!(events(&system)
        .iter()
        .any(|k| matches!(k, EventKind::Rejected(e) if e.contains("peer gone"))));
    assert!(events(&system)
        .iter()
        .any(|k| matches!(k, EventKind::Completed(Outcome::Finished))));
}

#[test]
fn spawn_suspends_and_reports_the_child_or_nil() {
    let source = r#"
        fn main() {
            let child = spawn("tacoma://beta/vm_script");
            if (child == nil) { display("no child"); } else { display("child " + child); }
        }
    "#;
    for delivered in [true, false] {
        let gate = Arc::new(Gate::default());
        let mut system = alpha(&gate);
        system
            .launch("alpha", AgentSpec::script("s", source))
            .unwrap();
        system.run_until_quiet();
        assert!(system.agent_outputs().is_empty());
        settle(&mut system, &gate, delivered);
        let outputs = system.agent_outputs();
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].starts_with("child "), delivered, "{outputs:?}");
    }
}

#[test]
fn kill_while_in_flight_ends_the_run_like_a_queued_one() {
    let gate = Arc::new(Gate::default());
    let mut system = alpha(&gate);
    let address = system
        .launch("alpha", AgentSpec::script("t", TRAVELLER))
        .unwrap();
    system.run_until_quiet();
    let admin = Principal::local_system("alpha");
    system
        .admin("alpha", &admin, "kill", &[&address.to_string()])
        .unwrap();
    // The frame's verdict still arrives; the killed run never resumes.
    gate.settle(false);
    system.pump_transport("alpha").unwrap();
    system.run_until_quiet();
    assert_eq!(system.agent_outputs(), ["before"]);
    assert_eq!(system.transport_inflight("alpha").unwrap(), 0);
}

/// A killed agent's inbound hop is closed, so a crash replay never runs
/// the agent again: at the kill while its task is queued or parked in
/// `await_bc`, and by its transfer's begin (which names it as parent)
/// once it is suspended in flight — even when that transfer then fails.
#[test]
fn kill_closes_the_inbound_hop_of_a_queued_or_suspended_agent() {
    for (suspended, code) in [(false, TRAVELLER), (true, TRAVELLER), (true, AWAITER)] {
        let gate = Arc::new(Gate::default());
        let mut system = alpha(&gate);
        let test = format!("kill-{suspended}-{}", code.len());
        let (journal, dir) = journal_alpha(&system, &test);

        // The agent arrives the way a daemon's door admits it: its hop is
        // journaled first, then the frame is routed.
        let mut briefcase = Briefcase::new();
        briefcase.set_single(folders::AGENT_NAME, "t");
        briefcase.append(folders::CODE, code);
        let message = Message::transfer(
            "beta",
            Principal::new("carol").unwrap(),
            "tacoma://alpha/vm_script".parse().unwrap(),
            briefcase,
            false,
        )
        .with_hop("inbound", None);
        let wire = bytes::Bytes::from(message.encode());
        assert!(journal.begin_inbound_hop("inbound", None, &wire).unwrap());
        system.inject_wire_bytes("alpha", &wire).unwrap();
        let address = system
            .events()
            .into_iter()
            .find_map(|(_, e)| matches!(e.kind, EventKind::Installed { .. }).then_some(e.agent))
            .flatten()
            .unwrap();
        if code == AWAITER {
            assert!(!system.run_for(1).quiesced(), "parked until its deadline");
        } else if suspended {
            system.run_until_quiet();
            assert_eq!(gate.in_transit(), 1, "suspended at its go");
        }
        assert_eq!(journal.stats().open_hops, 1);

        let admin = Principal::local_system("alpha");
        system
            .admin("alpha", &admin, "kill", &[&address.to_string()])
            .unwrap();
        if code == AWAITER {
            system.run_until_quiet();
            assert_eq!(system.agent_outputs(), ["before"]);
        } else if suspended {
            settle(&mut system, &gate, false);
            assert_eq!(system.agent_outputs(), ["before"]);
        } else {
            system.run_until_quiet();
            assert!(system.agent_outputs().is_empty());
        }
        assert_eq!(journal.stats().open_hops, 0, "no hop left to replay");

        drop(system);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// `vm_c` hands its compiled binary to `vm_bin` on the same launch path,
/// so its agents suspend too.
#[test]
fn a_vm_c_agent_suspends_and_resumes() {
    let gate = Arc::new(Gate::default());
    let mut system = alpha(&gate);
    system
        .launch("alpha", AgentSpec::script("c", TRAVELLER).on_vm("vm_c"))
        .unwrap();
    system.run_until_quiet();
    assert_eq!(gate.in_transit(), 1);
    assert_eq!(system.agent_outputs(), ["before"]);
    settle(&mut system, &gate, false);
    assert_eq!(system.agent_outputs(), ["before", "unreachable", "after"]);
}

/// A stop reaches a run suspended in flight or parked in `await_bc`: the
/// run its verdict or deadline wakes is held until `resume`.
#[test]
fn stop_while_in_flight_parks_the_resumed_run_until_resume() {
    for (code, ends) in [
        (TRAVELLER, &["before", "unreachable", "after"][..]),
        (AWAITER, &["before", "after"][..]),
    ] {
        let gate = Arc::new(Gate::default());
        let mut system = alpha(&gate);
        let address = system
            .launch("alpha", AgentSpec::script("t", code))
            .unwrap();
        if code == AWAITER {
            assert!(!system.run_for(1).quiesced(), "parked until its deadline");
        } else {
            system.run_until_quiet();
        }
        let admin = Principal::local_system("alpha");
        system
            .admin("alpha", &admin, "stop", &[&address.to_string()])
            .unwrap();
        if code == AWAITER {
            assert!(system.run_until_quiet().quiesced());
        } else {
            settle(&mut system, &gate, false);
        }
        assert_eq!(system.agent_outputs(), ["before"], "stopped: parked");

        system
            .admin("alpha", &admin, "resume", &[&address.to_string()])
            .unwrap();
        system.run_until_quiet();
        assert_eq!(system.agent_outputs(), ends);
    }
}

/// Identical launches on a journaling host: every root hop gets its own
/// key (the launch's `name:instance` is mixed in), all their begins are
/// made durable by one fsync when the turn goes quiet, and every agent
/// completes its hop.
#[test]
fn identical_launches_get_distinct_hops_under_one_fsync() {
    let gate = Arc::new(Gate::default());
    let mut system = alpha(&gate);
    let (journal, dir) = journal_alpha(&system, "launches");
    for _ in 0..4 {
        system
            .launch("alpha", AgentSpec::script("same", TRAVELLER))
            .unwrap();
    }
    let before = journal.stats();
    system.run_until_quiet();
    let after = journal.stats();
    assert_eq!(gate.in_transit(), 4);
    assert_eq!(after.open_hops, 4, "four launches, four distinct hops");
    assert_eq!(after.fsyncs - before.fsyncs, 1, "one fsync for the turn");

    gate.settle(true);
    assert_eq!(system.pump_transport("alpha").unwrap(), 4);
    system.run_until_quiet();
    assert_eq!(departed(&system), 4);
    let done = journal.stats();
    assert_eq!((done.open_hops, done.committed_hops), (0, 4));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A transport with only the blocking `send`, which notes the journal's
/// `(open hops, fsyncs)` at each frame it is handed.
#[derive(Debug, Default)]
struct BlockingOnly {
    journal: OnceLock<Arc<Journal>>,
    seen: Mutex<Vec<(u64, u64)>>,
}

impl Transport for BlockingOnly {
    fn send(&self, _: &str, _: &str, _: u16, _: &[u8]) -> Result<(), TransportError> {
        let js = self.journal.get().unwrap().stats();
        self.seen.lock().unwrap().push((js.open_hops, js.fsyncs));
        Ok(())
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    fn kind(&self) -> &'static str {
        "blocking-only"
    }
}

/// A journaled host on a transport with no pipelined path still batches
/// its hop begins under the turn's one fsync: its `go`s suspend, every
/// frame takes the blocking fallback after the barrier, and each agent
/// resumes with its verdict.
#[test]
fn a_blocking_only_transport_shares_the_turns_fsync() {
    let transport = Arc::new(BlockingOnly::default());
    let mut system = alpha_over(Arc::clone(&transport) as Arc<dyn Transport>);
    let (journal, dir) = journal_alpha(&system, "blocking");
    transport.journal.set(Arc::clone(&journal)).unwrap();
    for _ in 0..4 {
        system
            .launch("alpha", AgentSpec::script("t", TRAVELLER))
            .unwrap();
    }
    let fsyncs = journal.stats().fsyncs;
    system.run_until_quiet();

    let seen = transport.seen.lock().unwrap().clone();
    assert_eq!(seen.len(), 4);
    assert_eq!(seen[0].0, 4, "every begin is in before the first frame");
    assert!(
        seen.iter().all(|&(_, at)| at == fsyncs + 1),
        "one fsync before any frame: {seen:?}"
    );
    assert_eq!(departed(&system), 4, "each agent resumed with its verdict");
    assert_eq!(system.agent_outputs(), ["before"; 4]);
    let js = journal.stats();
    assert_eq!((js.open_hops, js.committed_hops), (0, 4));

    drop(system);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A system dropped with a transfer in flight settles it first: the
/// transport outlives the system, and the ack it already has must still
/// commit the hop.
#[test]
fn dropping_the_system_settles_what_it_left_in_flight() {
    let gate = Arc::new(Gate::default());
    let mut system = alpha(&gate);
    let (journal, dir) = journal_alpha(&system, "drop");
    system
        .launch("alpha", AgentSpec::script("t", TRAVELLER))
        .unwrap();
    system.run_until_quiet();
    assert_eq!(journal.stats().open_hops, 1);

    gate.settle(true);
    drop(system);
    let js = journal.stats();
    assert_eq!((js.open_hops, js.committed_hops), (0, 1));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `settle` releases the frames a turn still holds — the barrier's
/// fsync, then the sends — before it waits for their verdicts.
#[test]
fn settle_releases_held_frames_then_waits_for_their_verdicts() {
    let gate = Arc::new(Gate::default());
    let mut system = alpha(&gate);
    let (journal, dir) = journal_alpha(&system, "settle");
    system
        .launch("alpha", AgentSpec::script("t", TRAVELLER))
        .unwrap();
    assert!(system.step(), "the agent runs to its go");
    assert_eq!(gate.in_transit(), 0, "held until the turn's barrier");

    let fsyncs = journal.stats().fsyncs;
    let soon = Instant::now() + Duration::from_millis(20);
    assert_eq!(system.settle(soon, None), 1, "sent, not yet acked");
    assert_eq!(gate.in_transit(), 1);
    assert_eq!(journal.stats().fsyncs - fsyncs, 1);

    gate.settle(true);
    assert_eq!(
        system.settle(Instant::now() + Duration::from_secs(5), None),
        0
    );
    let js = journal.stats();
    assert_eq!((js.open_hops, js.committed_hops), (0, 1));

    drop(system);
    std::fs::remove_dir_all(&dir).unwrap();
}
