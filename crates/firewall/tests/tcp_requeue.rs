//! The acceptance scenarios for undeliverable mail over real TCP (the
//! reactor backend): a Deliver message whose destination daemon is down
//! is *parked* in the pending queue (never silently dropped), survives
//! failed redelivery sweeps with its original deadline, and goes out the
//! moment the peer comes back — and an overdriven bounded queue parks
//! what it refuses instead of losing it. The sweep itself never waits
//! for a peer: it hands parked mail back to the reactor and returns.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tacoma_briefcase::Briefcase;
use tacoma_firewall::{Decision, Firewall, Message, DEFAULT_QUEUE_TIMEOUT};
use tacoma_journal::{Journal, JournalConfig};
use tacoma_security::{Policy, Principal, TrustStore};
use tacoma_simnet::SimTime;
use tacoma_transport::{
    BackoffPolicy, ListenerConfig, ReactorConfig, ReactorTransport, Transport, TransportListener,
};

/// The reactor's retry budget in most of these tests.
const BUDGET: Duration = Duration::from_millis(150);

fn firewall() -> Firewall {
    Firewall::new("alpha", 4711, Policy::trusting(), TrustStore::new())
}

fn transport(queue_capacity: usize, retry_budget: Duration) -> ReactorTransport {
    let mut config = ReactorConfig {
        shards: 1,
        queue_capacity,
        ack_timeout: Duration::from_millis(100),
        retry_budget,
        backoff: BackoffPolicy::fast(),
        ..ReactorConfig::default()
    };
    config.connect.local_host = "alpha".to_owned();
    ReactorTransport::new(config)
}

/// A loopback port nothing listens on.
fn dead_addr() -> String {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    format!("127.0.0.1:{}", probe.local_addr().unwrap().port())
}

fn mail_to_beta(note: &str) -> Message {
    let mut bc = Briefcase::new();
    bc.set_single("NOTE", note);
    Message::deliver(
        "alpha",
        Principal::new("alice").unwrap(),
        None,
        "tacoma://beta/worker".parse().unwrap(),
        bc,
    )
}

/// Pumps completions until nothing is in flight: every frame the reactor
/// gave up on is parked by then.
fn settle(fw: &mut Firewall, now: SimTime, transport: &ReactorTransport) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while fw.transport_inflight() > 0 {
        assert!(Instant::now() < deadline, "in-flight ships never settled");
        if fw.pump_transport(now, transport) == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// One redelivery sweep, then pumps until every message it handed over
/// has settled: each is counted once, as sent or as a retry timeout, and
/// is then delivered or parked again. (The sweep's frames are not in
/// [`Firewall::transport_inflight`]: a daemon never waits for them.)
/// Returns how many messages the sweep handed over.
fn sweep(fw: &mut Firewall, now: SimTime, transport: &ReactorTransport) -> usize {
    let settled = |fw: &Firewall| {
        let stats = fw.stats();
        stats.frames_sent + stats.retry_timeouts
    };
    let before = settled(fw);
    let retried = fw.redeliver_remote_pending(now, transport);
    let deadline = Instant::now() + Duration::from_secs(10);
    while settled(fw) < before + retried as u64 {
        assert!(Instant::now() < deadline, "redeliveries never settled");
        fw.pump_transport(now, transport);
        std::thread::sleep(Duration::from_millis(5));
    }
    retried
}

/// Everything the listener has received, as `NOTE` → arrival count,
/// collected until `want` distinct notes arrived and the wire then stayed
/// quiet (so a late duplicate cannot hide).
fn received_notes(listener: &TransportListener, want: usize) -> BTreeMap<String, usize> {
    let mut notes = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match listener.incoming().recv_timeout(Duration::from_millis(300)) {
            Ok(inbound) => {
                assert_eq!(inbound.from_host, "alpha");
                let message = Message::decode_bytes(&inbound.payload).unwrap();
                let note = message.briefcase.single_str("NOTE").unwrap().to_owned();
                *notes.entry(note).or_insert(0) += 1;
            }
            Err(_) if notes.len() >= want || Instant::now() >= deadline => return notes,
            Err(_) => {}
        }
    }
}

#[test]
fn down_peer_parks_then_requeue_delivers_when_it_returns() {
    let mut fw = firewall();
    let transport = transport(1024, BUDGET);
    let now = SimTime::ZERO;

    // Phase 1: beta is down. The nonblocking ship is optimistic; the
    // completion pump parks the frame once its retry budget runs out.
    transport.add_peer("beta", dead_addr());
    let decision = fw
        .dispatch_outbound(mail_to_beta("do not lose me"), now, &transport)
        .unwrap();
    assert!(
        matches!(decision, Decision::Forwarded { .. }),
        "got {decision:?}"
    );
    settle(&mut fw, now, &transport);
    assert_eq!(fw.pending_len(), 1, "the message is parked, not dropped");
    let stats = fw.stats();
    assert_eq!(stats.queued, 1);
    assert_eq!(stats.retry_timeouts, 1);
    assert_eq!(stats.frames_sent, 0);

    // Phase 2: a sweep while beta is still down re-parks the message.
    assert_eq!(sweep(&mut fw, now, &transport), 1);
    assert_eq!(fw.pending_len(), 1);
    let stats = fw.stats();
    assert_eq!(stats.queued, 1, "a re-park is not a new park");
    assert_eq!(stats.retry_timeouts, 2);
    assert_eq!(stats.frames_sent, 0);

    // Phase 3: beta comes back; the next sweep drains the queue.
    let listener =
        TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("beta")).unwrap();
    transport.add_peer("beta", listener.local_addr().to_string());

    assert_eq!(sweep(&mut fw, now, &transport), 1);
    assert_eq!(fw.pending_len(), 0);
    assert_eq!(fw.stats().frames_sent, 1);

    // The bytes that arrived at beta decode back to the parked message —
    // once.
    let notes = received_notes(&listener, 1);
    assert_eq!(notes, BTreeMap::from([("do not lose me".to_owned(), 1)]));
}

#[test]
fn parked_mail_still_honours_its_deadline_across_sweeps() {
    let mut fw = firewall();
    let transport = transport(1024, BUDGET);
    transport.add_peer("beta", dead_addr());

    let start = SimTime::ZERO;
    fw.dispatch_outbound(mail_to_beta("expires"), start, &transport)
        .unwrap();
    settle(&mut fw, start, &transport);
    assert_eq!(fw.pending_len(), 1);

    // Sweeps while down re-park but never extend the deadline.
    let mid = start + Duration::from_secs(10);
    assert_eq!(sweep(&mut fw, mid, &transport), 1);
    assert_eq!(fw.pending_len(), 1, "re-parked");

    // Past the original 30 s queue timeout the message expires instead of
    // being retried forever.
    let late = start + Duration::from_secs(40);
    assert_eq!(
        sweep(&mut fw, late, &transport),
        0,
        "expired mail is not retried"
    );
    assert_eq!(fw.expire_pending(late), 1);
    assert_eq!(fw.pending_len(), 0);
    assert_eq!(fw.stats().expired, 1);
}

/// Backpressure end to end: mail overdriven into a two-slot queue toward
/// an absent peer. What the queue accepts fails at its budget and is
/// parked by the pump; what it refuses (`QueueFull`) falls back to the
/// blocking send, fails there, and is parked on the spot. Nothing is
/// dropped — and once the peer is up, the sweep delivers every message
/// exactly once.
#[test]
fn overdriven_queue_parks_every_refusal_and_redelivers_exactly_once() {
    const MAIL: usize = 8;
    let mut fw = firewall();
    let transport = transport(2, BUDGET);
    transport.add_peer("beta", dead_addr());
    let now = SimTime::ZERO;

    let (mut optimistic, mut parked_at_once) = (0, 0);
    for i in 0..MAIL {
        match fw
            .dispatch_outbound(mail_to_beta(&format!("note-{i}")), now, &transport)
            .unwrap()
        {
            Decision::Forwarded { .. } => optimistic += 1,
            Decision::Queued => parked_at_once += 1,
            other => panic!("unexpected decision {other:?}"),
        }
    }
    assert!(optimistic >= 2, "the queue's two slots were used");
    assert!(parked_at_once >= 1, "the overdrive hit the full queue");
    assert!(transport.stats().queue_drops >= 1, "QueueFull was raised");

    settle(&mut fw, now, &transport);
    assert_eq!(fw.pending_len(), MAIL, "every failed frame is parked");
    let stats = fw.stats();
    assert_eq!(stats.queued, MAIL as u64);
    assert_eq!(stats.frames_sent, 0);

    let listener =
        TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("beta")).unwrap();
    transport.add_peer("beta", listener.local_addr().to_string());
    let deadline = Instant::now() + Duration::from_secs(10);
    while fw.pending_len() > 0 {
        assert!(Instant::now() < deadline, "parked mail never drained");
        sweep(&mut fw, now, &transport);
    }
    assert_eq!(fw.stats().frames_sent, MAIL as u64);

    let expected: BTreeMap<String, usize> = (0..MAIL).map(|i| (format!("note-{i}"), 1)).collect();
    assert_eq!(received_notes(&listener, MAIL), expected);
}

/// The sweep does not wait for a dead peer: three messages parked for it
/// go back to the reactor, whose 1 s retry budget the sweep does not sit
/// through. Each lost redelivery goes back under its original deadline
/// and journal key, with no second `mail-parked` record, and once the
/// peer is back each original key is closed by `mail-delivered`.
#[test]
fn sweep_returns_at_once_and_reparks_under_the_original_deadline() {
    const MAIL: usize = 3;
    let dir = std::env::temp_dir().join(format!("tcp-requeue-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Arc::new(Journal::open(&dir, JournalConfig::default()).unwrap().0);
    let mut fw = firewall();
    fw.set_journal(Arc::clone(&journal));
    let transport = transport(1024, Duration::from_secs(1));
    transport.add_peer("beta", dead_addr());
    let start = SimTime::ZERO;
    for i in 0..MAIL {
        let mail = mail_to_beta(&format!("note-{i}"));
        fw.dispatch_outbound(mail, start, &transport).unwrap();
    }
    settle(&mut fw, start, &transport);
    let parked = journal.stats();
    assert_eq!((fw.pending_len(), parked.parked), (MAIL, MAIL as u64));

    let (mid, began) = (start + Duration::from_secs(10), Instant::now());
    assert_eq!(fw.redeliver_remote_pending(mid, &transport), MAIL);
    let took = began.elapsed();
    assert!(took.as_millis() < 100, "the sweep took {took:?}");
    assert_eq!(fw.transport_inflight(), 0, "nothing waits on a redelivery");
    let deadline = Instant::now() + Duration::from_secs(10);
    while fw.pending_len() < MAIL {
        assert!(Instant::now() < deadline, "redeliveries never settled");
        assert_eq!(fw.pump_transport(mid, &transport), 0, "no progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = fw.stats();
    assert_eq!((stats.queued, stats.retry_timeouts), (3, 6));
    assert_eq!(journal.stats().records, parked.records, "no second park");

    // Just past the original deadline the sweep takes nothing; at it, all.
    let original = start + DEFAULT_QUEUE_TIMEOUT;
    let past = original + Duration::from_nanos(1);
    assert_eq!(fw.redeliver_remote_pending(past, &transport), 0);
    let listener =
        TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("beta")).unwrap();
    transport.add_peer("beta", listener.local_addr().to_string());
    assert_eq!(sweep(&mut fw, original, &transport), MAIL);
    assert_eq!((fw.pending_len(), fw.stats().frames_sent), (0, 3));
    assert_eq!(journal.stats().parked, 0, "every original key closed");
    let expected: BTreeMap<String, usize> = (0..MAIL).map(|i| (format!("note-{i}"), 1)).collect();
    assert_eq!(received_notes(&listener, MAIL), expected);
    drop(fw);
    std::fs::remove_dir_all(&dir).unwrap();
}
