use super::*;
use crate::registry::AgentStatus;

fn fw() -> Firewall {
    let mut fw = Firewall::new("h1", 27017, Policy::new(), TrustStore::new());
    fw.add_vm("vm_script");
    fw
}

fn msg(from: &str, to: &str) -> Message {
    Message::deliver(
        "h1",
        Principal::new(from).unwrap(),
        None,
        to.parse().unwrap(),
        Briefcase::new(),
    )
}

fn register(fw: &mut Firewall, principal: &str, name: &str, inst: u64) -> AgentAddress {
    let addr = AgentAddress::new(principal, name, Instance::from_u64(inst));
    fw.register_agent(&addr, "vm_script", SimTime::ZERO);
    addr
}

#[test]
fn local_delivery_to_running_agent() {
    let mut fw = fw();
    let addr = register(&mut fw, "alice", "webbot", 1);
    let d = fw
        .route_outbound(msg("alice", "alice/webbot:1"), SimTime::ZERO)
        .unwrap();
    assert!(matches!(d, Decision::DeliverLocal { agent, .. } if agent == addr));
    assert_eq!(fw.stats().delivered_local, 1);
}

#[test]
fn absent_receiver_queues_then_flushes_on_registration() {
    let mut fw = fw();
    let d = fw
        .route_outbound(msg("alice", "alice/webbot"), SimTime::ZERO)
        .unwrap();
    assert_eq!(d, Decision::Queued);
    assert_eq!(fw.pending_len(), 1);

    let mail = fw.register_agent(
        &AgentAddress::new("alice", "webbot", Instance::from_u64(5)),
        "vm_script",
        SimTime::from_nanos(1000),
    );
    assert_eq!(mail.len(), 1);
    assert_eq!(fw.pending_len(), 0);
}

#[test]
fn remote_target_forwards_with_effective_port() {
    let mut fw = fw();
    let d = fw
        .route_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO)
        .unwrap();
    assert!(matches!(d, Decision::ForwardRemote { ref host, port: 27017, .. } if host == "h2"));
}

#[test]
fn own_host_in_target_is_local() {
    let mut fw = fw();
    register(&mut fw, "alice", "webbot", 1);
    let d = fw
        .route_outbound(msg("alice", "tacoma://h1/alice/webbot"), SimTime::ZERO)
        .unwrap();
    assert!(matches!(d, Decision::DeliverLocal { .. }));
}

#[test]
fn stopped_agent_queues_mail() {
    let mut fw = fw();
    let addr = register(&mut fw, "alice", "webbot", 1);
    fw.registry.get_mut(&addr).unwrap().status = AgentStatus::Stopped;
    let d = fw
        .route_outbound(msg("alice", "alice/webbot"), SimTime::ZERO)
        .unwrap();
    assert_eq!(d, Decision::Queued);
}

#[test]
fn unauthenticated_remote_sender_is_denied() {
    let mut fw = fw();
    register(&mut fw, "alice", "webbot", 1);
    let mut m = msg("mallory@evil", "alice/webbot:1");
    m.from_host = "evil.example".into();
    let err = fw.route_inbound(m, SimTime::ZERO).unwrap_err();
    assert!(matches!(err, FirewallError::Denied(_)));
    assert_eq!(fw.stats().denied, 1);
}

#[test]
fn trusted_remote_sender_delivers() {
    use tacoma_security::Keyring;
    let mut fw = fw();
    register(&mut fw, "alice", "webbot", 1);
    // Trust the sending host's system principal.
    let sender_sys = Principal::local_system("h2");
    fw.trust_mut()
        .trust(Keyring::generate(&sender_sys, 3).public());
    let mut m = msg("alice", "alice/webbot:1");
    m.from_host = "h2".into();
    let d = fw.route_inbound(m, SimTime::ZERO).unwrap();
    assert!(matches!(d, Decision::DeliverLocal { .. }));
}

#[test]
fn signed_transfer_installs_on_named_vm() {
    use tacoma_security::Keyring;
    let mut fw = fw();
    let alice = Principal::new("alice").unwrap();
    let keys = Keyring::generate(&alice, 9);
    fw.trust_mut().trust(keys.public());

    let code = b"compiled agent bytes".to_vec();
    let mut bc = Briefcase::new();
    bc.set_single(folders::AGENT_NAME, "webbot");
    bc.set_single(folders::PRINCIPAL, "alice");
    bc.append(folders::CODE, code.clone());
    bc.set_single(folders::SIGNATURE, keys.sign(&code).digest().to_hex());

    let m = Message::transfer(
        "h2",
        alice,
        "tacoma://h1/vm_script".parse().unwrap(),
        bc,
        false,
    );
    let d = fw.route_inbound(m, SimTime::ZERO).unwrap();
    let Decision::InstallAgent {
        vm,
        address,
        spawned,
        ..
    } = d
    else {
        panic!("expected install, got {d:?}")
    };
    assert_eq!(vm, "vm_script");
    assert_eq!(address.name(), "webbot");
    assert_eq!(address.principal(), "alice");
    assert!(!spawned);
    assert_eq!(fw.stats().agents_installed, 1);
}

#[test]
fn tampered_transfer_is_denied() {
    use tacoma_security::Keyring;
    let mut fw = fw();
    let alice = Principal::new("alice").unwrap();
    let keys = Keyring::generate(&alice, 9);
    fw.trust_mut().trust(keys.public());

    let mut bc = Briefcase::new();
    bc.set_single(folders::AGENT_NAME, "webbot");
    bc.set_single(folders::PRINCIPAL, "alice");
    bc.append(folders::CODE, b"tampered code".to_vec());
    bc.set_single(
        folders::SIGNATURE,
        keys.sign(b"original code").digest().to_hex(),
    );

    let m = Message::transfer(
        "h2",
        alice,
        "tacoma://h1/vm_script".parse().unwrap(),
        bc,
        false,
    );
    assert!(matches!(
        fw.route_inbound(m, SimTime::ZERO),
        Err(FirewallError::Denied(_))
    ));
}

#[test]
fn unsigned_transfer_lands_only_under_trusting_policy() {
    let alice = Principal::new("alice").unwrap();
    let mut bc = Briefcase::new();
    bc.set_single(folders::AGENT_NAME, "webbot");
    let make = |bc: Briefcase| {
        Message::transfer(
            "h2",
            alice.clone(),
            "tacoma://h1/vm_script".parse().unwrap(),
            bc,
            true,
        )
    };

    // Default policy: denied.
    let mut strict = fw();
    assert!(strict
        .route_inbound(make(bc.clone()), SimTime::ZERO)
        .is_err());

    // Trusting policy (§2's single administrative domain): installed.
    let mut open = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
    open.add_vm("vm_script");
    let d = open.route_inbound(make(bc), SimTime::ZERO).unwrap();
    assert!(matches!(d, Decision::InstallAgent { spawned: true, .. }));
}

#[test]
fn transfer_to_unknown_vm_is_rejected() {
    let mut open = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
    open.add_vm("vm_script");
    let mut bc = Briefcase::new();
    bc.set_single(folders::AGENT_NAME, "x");
    let m = Message::transfer(
        "h2",
        Principal::new("p").unwrap(),
        "tacoma://h1/vm_java".parse().unwrap(),
        bc,
        false,
    );
    assert!(matches!(
        open.route_inbound(m, SimTime::ZERO),
        Err(FirewallError::NoSuchVm { vm }) if vm == "vm_java"
    ));
}

#[test]
fn admin_list_requires_admin_right() {
    let mut fw = fw();
    register(&mut fw, "alice", "webbot", 1);
    let mut m = msg("alice", "firewall");
    m.briefcase.set_single(folders::COMMAND, "list");
    assert!(matches!(
        fw.route_outbound(m, SimTime::ZERO),
        Err(FirewallError::Denied(_))
    ));
}

#[test]
fn admin_list_and_kill_flow() {
    let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
    fw.add_vm("vm_script");
    let addr = AgentAddress::new("alice", "webbot", Instance::from_u64(1));
    fw.register_agent(&addr, "vm_script", SimTime::ZERO);

    let mut list = msg("admin@h1", "firewall");
    list.briefcase.set_single(folders::COMMAND, "list");
    let Decision::Admin {
        reply,
        control: None,
    } = fw.route_outbound(list, SimTime::ZERO).unwrap()
    else {
        panic!()
    };
    assert_eq!(reply.folder("AGENTS").unwrap().len(), 1);

    let mut kill = msg("admin@h1", "firewall");
    kill.briefcase.set_single(folders::COMMAND, "kill");
    kill.briefcase.set_single(folders::ARGS, "alice/webbot:1");
    let Decision::Admin {
        control: Some(action),
        ..
    } = fw.route_outbound(kill, SimTime::ZERO).unwrap()
    else {
        panic!()
    };
    assert_eq!(action.kind, ControlKind::Kill);
    assert_eq!(action.agent, addr);
    assert!(fw.registry().is_empty());
}

#[test]
fn admin_stop_makes_agent_queue_mail_then_resume_flushes() {
    let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
    fw.add_vm("vm_script");
    let addr = AgentAddress::new("alice", "webbot", Instance::from_u64(1));
    fw.register_agent(&addr, "vm_script", SimTime::ZERO);

    let mut stop = msg("admin@h1", "firewall");
    stop.briefcase.set_single(folders::COMMAND, "stop");
    stop.briefcase.set_single(folders::ARGS, "alice/webbot:1");
    fw.route_outbound(stop, SimTime::ZERO).unwrap();

    let d = fw
        .route_outbound(msg("alice", "alice/webbot:1"), SimTime::ZERO)
        .unwrap();
    assert_eq!(d, Decision::Queued);

    let mut resume = msg("admin@h1", "firewall");
    resume.briefcase.set_single(folders::COMMAND, "resume");
    resume.briefcase.set_single(folders::ARGS, "alice/webbot:1");
    fw.route_outbound(resume, SimTime::ZERO).unwrap();

    let d = fw
        .route_outbound(msg("alice", "alice/webbot:1"), SimTime::ZERO)
        .unwrap();
    assert!(matches!(d, Decision::DeliverLocal { .. }));
}

#[test]
fn admin_unknown_command_and_target_errors() {
    let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
    fw.add_vm("vm_script");
    let mut bad = msg("admin@h1", "firewall");
    bad.briefcase.set_single(folders::COMMAND, "explode");
    assert!(matches!(
        fw.route_outbound(bad, SimTime::ZERO),
        Err(FirewallError::UnknownCommand { .. })
    ));

    let mut kill = msg("admin@h1", "firewall");
    kill.briefcase.set_single(folders::COMMAND, "kill");
    kill.briefcase.set_single(folders::ARGS, "alice/ghost");
    assert!(matches!(
        fw.route_outbound(kill, SimTime::ZERO),
        Err(FirewallError::UnknownAgent { .. })
    ));
}

#[test]
fn instances_are_unique_and_monotone() {
    let mut fw = fw();
    let a = fw.allocate_instance();
    let b = fw.allocate_instance();
    assert_ne!(a, b);
}

/// A transport that can be flipped between failing and delivering,
/// recording what it shipped.
#[derive(Debug, Default)]
struct FlakyTransport {
    up: std::sync::atomic::AtomicBool,
    sent: parking_lot::Mutex<Vec<(String, u16, usize)>>,
}

impl FlakyTransport {
    fn up() -> Self {
        let t = FlakyTransport::default();
        t.up.store(true, std::sync::atomic::Ordering::SeqCst);
        t
    }

    fn down() -> Self {
        FlakyTransport::default()
    }

    fn restore(&self) {
        self.up.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

impl tacoma_transport::Transport for FlakyTransport {
    fn send(
        &self,
        _from: &str,
        to_host: &str,
        to_port: u16,
        payload: &[u8],
    ) -> Result<(), tacoma_transport::TransportError> {
        if self.up.load(std::sync::atomic::Ordering::SeqCst) {
            self.sent
                .lock()
                .push((to_host.to_owned(), to_port, payload.len()));
            Ok(())
        } else {
            Err(tacoma_transport::TransportError::Unreachable {
                host: to_host.to_owned(),
                detail: "link down".into(),
            })
        }
    }

    fn stats(&self) -> tacoma_transport::TransportStats {
        tacoma_transport::TransportStats::default()
    }

    fn kind(&self) -> &'static str {
        "flaky"
    }
}

#[test]
fn dispatch_ships_remote_deliver_over_transport() {
    let mut fw = fw();
    let t = FlakyTransport::up();
    let d = fw
        .dispatch_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO, &t)
        .unwrap();
    assert!(matches!(d, Decision::Forwarded { ref host, .. } if host == "h2"));
    let sent = t.sent.lock();
    assert_eq!(sent.len(), 1);
    assert_eq!(sent[0].0, "h2");
    assert_eq!(sent[0].1, 27017);
    let stats = fw.stats();
    assert_eq!(stats.frames_sent, 1);
    assert_eq!(stats.bytes_sent, sent[0].2 as u64);
}

#[test]
fn undeliverable_deliver_is_parked_not_lost() {
    let mut fw = fw();
    let t = FlakyTransport::down();
    let d = fw
        .dispatch_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO, &t)
        .unwrap();
    assert_eq!(d, Decision::Queued);
    assert_eq!(fw.pending_len(), 1);
    let stats = fw.stats();
    assert_eq!(stats.retry_timeouts, 1);
    assert_eq!(stats.queued, 1);
    assert_eq!(stats.frames_sent, 0);
}

#[test]
fn undeliverable_transfer_surfaces_to_the_agent() {
    let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
    fw.add_vm("vm_script");
    let mut bc = Briefcase::new();
    bc.set_single(folders::AGENT_NAME, "webbot");
    let m = Message::transfer(
        "h1",
        Principal::new("alice").unwrap(),
        "tacoma://h2/vm_script".parse().unwrap(),
        bc,
        false,
    );
    let t = FlakyTransport::down();
    let err = fw.dispatch_outbound(m, SimTime::ZERO, &t).unwrap_err();
    assert!(matches!(err, FirewallError::Transport(_)));
    assert_eq!(fw.pending_len(), 0, "transfers are not parked");
    assert_eq!(fw.stats().retry_timeouts, 1);
}

#[test]
fn parked_remote_mail_redelivers_when_link_returns() {
    let mut fw = fw();
    let t = FlakyTransport::down();
    fw.dispatch_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO, &t)
        .unwrap();
    assert_eq!(fw.pending_len(), 1);

    // Link still down: the sweep re-parks, preserving the message. A
    // transport without a nonblocking path settles the retry at once.
    assert_eq!(fw.redeliver_remote_pending(SimTime::ZERO, &t), 1);
    assert_eq!(fw.pending_len(), 1);
    assert_eq!(fw.stats().retry_timeouts, 2);
    assert_eq!(fw.stats().queued, 1, "a re-park is not a new park");

    // Link back: the sweep delivers.
    t.restore();
    assert_eq!(fw.redeliver_remote_pending(SimTime::ZERO, &t), 1);
    assert_eq!(fw.pending_len(), 0);
    assert_eq!(t.sent.lock().len(), 1);
    assert_eq!(fw.stats().frames_sent, 1);
}

#[test]
fn parked_remote_mail_expires_by_its_deadline() {
    let mut fw = fw();
    fw.set_queue_timeout(Duration::from_millis(50));
    let t = FlakyTransport::down();
    fw.dispatch_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO, &t)
        .unwrap();
    // Past the deadline the sweep leaves it for expire() to count.
    let late = SimTime::ZERO + Duration::from_secs(1);
    assert_eq!(fw.redeliver_remote_pending(late, &t), 0);
    assert_eq!(fw.expire_pending(late), 1);
    assert_eq!(fw.stats().expired, 1);
}

#[test]
fn wire_roundtrip_through_inbound_counts_bytes() {
    let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
    fw.add_vm("vm_script");
    let addr = AgentAddress::new("alice", "webbot", Instance::from_u64(1));
    fw.register_agent(&addr, "vm_script", SimTime::ZERO);
    let mut m = msg("alice", "alice/webbot:1");
    m.from_host = "h2".into();
    let wire = bytes::Bytes::from(m.encode());
    let d = fw.route_inbound_wire_bytes(&wire, SimTime::ZERO).unwrap();
    assert!(matches!(d, Decision::DeliverLocal { .. }));
    let stats = fw.stats();
    assert_eq!(stats.frames_received, 1);
    assert_eq!(stats.bytes_received, wire.len() as u64);
}

#[test]
fn admin_stats_reports_counter_line() {
    let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
    fw.add_vm("vm_script");
    let mut m = msg("admin@h1", "firewall");
    m.briefcase.set_single(folders::COMMAND, "stats");
    let Decision::Admin { reply, .. } = fw.route_outbound(m, SimTime::ZERO).unwrap() else {
        panic!()
    };
    let line = reply.single_str("STATS").unwrap();
    assert!(line.contains("tx-frames=0"), "{line}");
    assert!(line.contains("retry-timeouts=0"), "{line}");
}

#[test]
fn journal_records_park_ship_and_hop_lifecycle() {
    use tacoma_journal::JournalConfig;
    let dir = std::env::temp_dir().join(format!("taxfw-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (journal, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
    let journal = Arc::new(journal);

    let mut fw = fw();
    fw.set_journal(Arc::clone(&journal));

    // A park caused by an unreachable peer is journaled write-ahead…
    let t = FlakyTransport::down();
    fw.dispatch_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO, &t)
        .unwrap();
    assert_eq!(journal.stats().parked, 1);

    // …and marked delivered when the redelivery sweep ships it.
    t.restore();
    assert_eq!(fw.redeliver_remote_pending(SimTime::ZERO, &t), 1);
    assert_eq!(journal.stats().parked, 0);

    // A keyed transfer is begun write-ahead and committed on ack.
    fw.dispatch_outbound(keyed_transfer("k1"), SimTime::ZERO, &t)
        .unwrap();
    let js = journal.stats();
    assert_eq!((js.open_hops, js.committed_hops), (0, 1));

    // An undeliverable transfer's hop is aborted — terminal, so a
    // replay will never re-run a hop the agent already saw fail.
    let down = FlakyTransport::down();
    assert!(fw
        .dispatch_outbound(keyed_transfer("k2"), SimTime::ZERO, &down)
        .is_err());
    let js = journal.stats();
    assert_eq!((js.open_hops, js.committed_hops), (0, 2));

    // Local parks (absent receiver) and expiry are journaled too.
    fw.set_queue_timeout(Duration::from_millis(10));
    fw.route_outbound(msg("alice", "alice/nobody"), SimTime::ZERO)
        .unwrap();
    assert_eq!(journal.stats().parked, 1);
    fw.expire_pending(SimTime::ZERO + Duration::from_secs(1));
    assert_eq!(journal.stats().parked, 0);

    // The stats line mirrors the journal gauges.
    let stats = fw.stats();
    assert!(stats.journal_records > 0);
    assert!(stats.journal_fsyncs > 0);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A nonblocking transport stub: enqueues everything, then completes
/// each token with a scripted result when pumped. Blocking sends
/// succeed immediately and are counted.
#[derive(Debug, Default)]
struct NowaitTransport {
    fail: std::sync::atomic::AtomicBool,
    /// Refuse the nonblocking path, as a full peer queue does.
    refuse: std::sync::atomic::AtomicBool,
    queued: parking_lot::Mutex<Vec<u64>>,
    blocking_sends: parking_lot::Mutex<usize>,
    /// When set, the journal's `(records, fsyncs)` at each
    /// nonblocking send.
    watch: Option<Arc<Journal>>,
    seen: parking_lot::Mutex<Vec<(u64, u64)>>,
}

impl tacoma_transport::Transport for NowaitTransport {
    fn send(
        &self,
        _from: &str,
        _to_host: &str,
        _to_port: u16,
        _payload: &[u8],
    ) -> Result<(), tacoma_transport::TransportError> {
        *self.blocking_sends.lock() += 1;
        Ok(())
    }

    fn stats(&self) -> tacoma_transport::TransportStats {
        tacoma_transport::TransportStats::default()
    }

    fn kind(&self) -> &'static str {
        "nowait-stub"
    }

    fn send_nowait(
        &self,
        _from: &str,
        _to_host: &str,
        _to_port: u16,
        _payload: bytes::Bytes,
        token: u64,
    ) -> Result<(), tacoma_transport::TransportError> {
        if self.refuse.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(tacoma_transport::TransportError::QueueFull {
                host: "h2".into(),
                capacity: 0,
            });
        }
        if let Some(journal) = &self.watch {
            let js = journal.stats();
            self.seen.lock().push((js.records, js.fsyncs));
        }
        self.queued.lock().push(token);
        Ok(())
    }

    fn drain_completions(&self) -> Vec<tacoma_transport::Completion> {
        let fail = self.fail.load(std::sync::atomic::Ordering::SeqCst);
        self.queued
            .lock()
            .drain(..)
            .map(|token| tacoma_transport::Completion {
                token,
                result: if fail {
                    Err(tacoma_transport::TransportError::RetriesExhausted {
                        host: "h2".into(),
                        attempts: 1,
                        last: "scripted failure".into(),
                    })
                } else {
                    Ok(())
                },
            })
            .collect()
    }
}

#[test]
fn nowait_ship_settles_on_pump() {
    let mut fw = fw();
    let t = NowaitTransport::default();
    let d = fw
        .dispatch_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO, &t)
        .unwrap();
    assert!(matches!(d, Decision::Forwarded { ref host, .. } if host == "h2"));
    assert_eq!(fw.transport_inflight(), 1);
    // Books are settled only when the completion comes back.
    assert_eq!(fw.stats().frames_sent, 0);
    assert_eq!(fw.pump_transport(SimTime::ZERO, &t), 1);
    assert_eq!(fw.transport_inflight(), 0);
    let stats = fw.stats();
    assert_eq!(stats.frames_sent, 1);
    assert!(stats.bytes_sent > 0);
}

#[test]
fn failed_nowait_completion_parks_for_redelivery() {
    let mut fw = fw();
    let t = NowaitTransport::default();
    fw.dispatch_outbound(msg("alice", "tacoma://h2/ag_fs"), SimTime::ZERO, &t)
        .unwrap();
    t.fail.store(true, std::sync::atomic::Ordering::SeqCst);
    assert_eq!(fw.pump_transport(SimTime::ZERO, &t), 1);
    let stats = fw.stats();
    assert_eq!(stats.frames_sent, 0);
    assert_eq!(stats.retry_timeouts, 1);
    assert_eq!(stats.queued, 1);
    assert_eq!(fw.pending_len(), 1, "failed ship parked, not lost");

    // The redelivery sweep picks it up over a (blocking) transport.
    let up = FlakyTransport::up();
    assert_eq!(fw.redeliver_remote_pending(SimTime::ZERO, &up), 1);
    assert_eq!(fw.pending_len(), 0);
    assert_eq!(fw.stats().frames_sent, 1);
}

#[test]
fn transfers_take_the_blocking_path_even_on_nowait_transports() {
    let (mut fw, journal, dir) = journaled_fw("nowait");
    let transfer = keyed_transfer("aa11");

    // A `go` that wants its verdict now (a native program's) learns
    // its fate synchronously — the hop is begun, sent blocking, and
    // committed before dispatch returns. Suspendable agents use
    // `dispatch_transfer` instead.
    let t = NowaitTransport::default();
    let d = fw.dispatch_outbound(transfer, SimTime::ZERO, &t).unwrap();
    assert!(matches!(d, Decision::Forwarded { .. }));
    assert_eq!(fw.transport_inflight(), 0, "transfers never ride nowait");
    assert_eq!(*t.blocking_sends.lock(), 1);
    let js = journal.stats();
    assert_eq!((js.open_hops, js.committed_hops), (0, 1));
    assert_eq!(fw.stats().frames_sent, 1);

    std::fs::remove_dir_all(&dir).unwrap();
}

fn journaled_fw(tag: &str) -> (Firewall, Arc<Journal>, std::path::PathBuf) {
    use tacoma_journal::JournalConfig;
    let dir = std::env::temp_dir().join(format!("taxfw-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (journal, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
    let journal = Arc::new(journal);
    let mut fw = Firewall::new("h1", 27017, Policy::trusting(), TrustStore::new());
    fw.add_vm("vm_script");
    fw.set_journal(Arc::clone(&journal));
    (fw, journal, dir)
}

fn keyed_transfer(key: &str) -> Message {
    let mut bc = Briefcase::new();
    bc.set_single(folders::AGENT_NAME, "webbot");
    bc.set_single("TAG", key);
    Message::transfer(
        "h1",
        Principal::new("alice").unwrap(),
        "tacoma://h2/vm_script".parse().unwrap(),
        bc,
        false,
    )
    .with_hop(key, None)
}

#[test]
fn transfers_ride_nowait_and_settle_by_verdict() {
    let (mut fw, journal, dir) = journaled_fw("inflight");
    let t = NowaitTransport::default();
    let Decision::InFlight { token } = fw
        .dispatch_transfer(keyed_transfer("aa11"), SimTime::ZERO, &t)
        .unwrap()
    else {
        panic!("a transfer on a nowait transport is left in flight");
    };
    assert_eq!(fw.transport_inflight(), 1);
    assert_eq!(*t.blocking_sends.lock(), 0);
    assert_eq!(journal.stats().open_hops, 1, "begun before it ships");

    assert_eq!(fw.release_held(SimTime::ZERO, &t), 1);
    assert_eq!(fw.pump_transport(SimTime::ZERO, &t), 1);
    assert_eq!(fw.take_verdicts(), vec![(token, Ok(()))]);
    assert_eq!(fw.transport_inflight(), 0);
    let js = journal.stats();
    assert_eq!((js.open_hops, js.committed_hops), (0, 1));
    assert_eq!(fw.stats().frames_sent, 1);

    // A lost frame aborts its hop and reports the failure.
    let Decision::InFlight { token } = fw
        .dispatch_transfer(keyed_transfer("bb22"), SimTime::ZERO, &t)
        .unwrap()
    else {
        panic!("in flight");
    };
    fw.release_held(SimTime::ZERO, &t);
    t.fail.store(true, std::sync::atomic::Ordering::SeqCst);
    fw.pump_transport(SimTime::ZERO, &t);
    let verdicts = fw.take_verdicts();
    assert_eq!(verdicts.len(), 1);
    assert_eq!(verdicts[0].0, token);
    assert!(matches!(verdicts[0].1, Err(FirewallError::Transport(_))));
    // Aborted is terminal: the journal closes the hop either way.
    let js = journal.stats();
    assert_eq!((js.open_hops, js.committed_hops), (0, 2));
    assert_eq!(fw.stats().retry_timeouts, 1);
    assert_eq!(fw.pending_len(), 0, "a lost transfer is not parked");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn no_transfer_frame_reaches_the_transport_before_its_hop_begin_is_durable() {
    let (mut fw, journal, dir) = journaled_fw("barrier");
    let t = NowaitTransport {
        watch: Some(Arc::clone(&journal)),
        ..NowaitTransport::default()
    };
    let before = journal.stats();
    for key in ["k1", "k2", "k3"] {
        let d = fw
            .dispatch_transfer(keyed_transfer(key), SimTime::ZERO, &t)
            .unwrap();
        assert!(matches!(d, Decision::InFlight { .. }));
    }
    // Three begins appended, none synced, and nothing sent.
    let appended = journal.stats();
    assert_eq!(appended.records, before.records + 3);
    assert_eq!(appended.fsyncs, before.fsyncs);
    assert!(t.seen.lock().is_empty(), "no frame before the barrier");

    assert_eq!(fw.release_held(SimTime::ZERO, &t), 3);
    // Every frame went out after exactly one fsync that covered all
    // three begins.
    let seen = t.seen.lock().clone();
    assert_eq!(seen.len(), 3);
    for (records, fsyncs) in seen {
        assert_eq!(records, before.records + 3);
        assert_eq!(fsyncs, before.fsyncs + 1);
    }
    assert_eq!(fw.release_held(SimTime::ZERO, &t), 0, "nothing held twice");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_full_queue_sends_a_held_transfer_blocking() {
    let (mut fw, journal, dir) = journaled_fw("queuefull");
    let t = NowaitTransport::default();
    t.refuse.store(true, std::sync::atomic::Ordering::SeqCst);
    let Decision::InFlight { token } = fw
        .dispatch_transfer(keyed_transfer("cc33"), SimTime::ZERO, &t)
        .unwrap()
    else {
        panic!("in flight");
    };
    fw.release_held(SimTime::ZERO, &t);
    assert_eq!(*t.blocking_sends.lock(), 1);
    // Settled by the blocking send, without a pump.
    assert_eq!(fw.take_verdicts(), vec![(token, Ok(()))]);
    assert_eq!(fw.transport_inflight(), 0);
    assert_eq!(journal.stats().committed_hops, 1);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn expire_pending_counts() {
    let mut fw = fw();
    fw.set_queue_timeout(Duration::from_millis(10));
    fw.route_outbound(msg("alice", "alice/nobody"), SimTime::ZERO)
        .unwrap();
    assert_eq!(fw.expire_pending(SimTime::ZERO + Duration::from_secs(1)), 1);
    assert_eq!(fw.stats().expired, 1);
}
