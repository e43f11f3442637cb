//! The sharded reactor against a real listener on loopback: pipelined
//! completions, blocking fallback, bounded backpressure, restart
//! recovery, and the WAN-delay coalescing the bench gate relies on; and
//! the door's stop-and-wait dialect beside it.

use std::collections::HashSet;
use std::net::TcpListener as StdTcpListener;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use tacoma_transport::{
    BackoffPolicy, Completion, ConnectConfig, Connection, ListenerConfig, ReactorConfig,
    ReactorTransport, Transport, TransportError, TransportListener,
};

fn fast_reactor(local_host: &str) -> ReactorTransport {
    ReactorTransport::new(ReactorConfig {
        connect: ConnectConfig {
            local_host: local_host.to_owned(),
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(2),
            ..ConnectConfig::default()
        },
        shards: 2,
        ack_window: 16,
        queue_capacity: 1024,
        ack_timeout: Duration::from_millis(300),
        retry_budget: Duration::from_secs(5),
        backoff: BackoffPolicy::fast(),
    })
}

/// Drains completions until `want` have arrived or the deadline hits.
fn collect_completions(transport: &ReactorTransport, want: usize) -> Vec<Completion> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got = Vec::new();
    while got.len() < want && Instant::now() < deadline {
        got.extend(transport.drain_completions());
        std::thread::sleep(Duration::from_millis(2));
    }
    got
}

#[test]
fn pipelined_sends_complete_and_arrive() {
    let listener =
        TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("beta")).unwrap();
    let port = listener.local_addr().port();
    let transport = fast_reactor("alpha");

    for token in 0..50u64 {
        transport
            .send_nowait(
                "alpha",
                "127.0.0.1",
                port,
                Bytes::from(format!("payload-{token}").into_bytes()),
                token,
            )
            .unwrap();
    }

    let completions = collect_completions(&transport, 50);
    assert_eq!(completions.len(), 50);
    let mut tokens: Vec<u64> = completions
        .iter()
        .map(|c| {
            assert!(c.result.is_ok(), "token {} failed: {:?}", c.token, c.result);
            c.token
        })
        .collect();
    tokens.sort_unstable();
    assert_eq!(tokens, (0..50).collect::<Vec<_>>());

    let mut payloads = Vec::new();
    for _ in 0..50 {
        let inbound = listener
            .incoming()
            .recv_timeout(Duration::from_secs(5))
            .unwrap();
        assert_eq!(inbound.from_host, "alpha");
        payloads.push(String::from_utf8(inbound.payload.to_vec()).unwrap());
    }
    payloads.sort();
    let mut expected: Vec<String> = (0..50).map(|t| format!("payload-{t}")).collect();
    expected.sort();
    assert_eq!(payloads, expected);

    let stats = transport.stats();
    assert_eq!(stats.frames_sent, 50);
    assert!(stats.acks_received >= 1);
    assert_eq!(stats.queue_depth, 0, "everything drained");
    assert!(stats.queue_high_water >= 1);
    assert_eq!(stats.retry_timeouts, 0);
}

#[test]
fn blocking_send_rides_the_reactor() {
    let listener =
        TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("beta")).unwrap();
    let port = listener.local_addr().port();
    let transport = fast_reactor("alpha");

    transport
        .send("alpha", "127.0.0.1", port, b"blocking path")
        .unwrap();
    let inbound = listener
        .incoming()
        .recv_timeout(Duration::from_secs(5))
        .unwrap();
    assert_eq!(&inbound.payload[..], b"blocking path");
    assert_eq!(transport.stats().frames_sent, 1);
}

#[test]
fn full_queue_refuses_with_backpressure() {
    // A port nothing listens on: the queue can only fill.
    let port = {
        let probe = StdTcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
    };
    let transport = ReactorTransport::new(ReactorConfig {
        queue_capacity: 4,
        retry_budget: Duration::from_secs(30),
        ..ReactorConfig::default()
    });

    for token in 0..4u64 {
        transport
            .send_nowait("alpha", "127.0.0.1", port, Bytes::from(vec![1u8]), token)
            .unwrap();
    }
    let err = transport
        .send_nowait("alpha", "127.0.0.1", port, Bytes::from(vec![1u8]), 99)
        .unwrap_err();
    assert!(
        matches!(err, TransportError::QueueFull { capacity: 4, .. }),
        "got {err:?}"
    );

    let stats = transport.stats();
    assert!(stats.queue_drops >= 1);
    assert!(stats.queue_high_water >= 4);
}

#[test]
fn listener_restart_redelivers_the_window() {
    let listener =
        TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("beta")).unwrap();
    let addr = listener.local_addr();
    let port = addr.port();
    let transport = fast_reactor("alpha");

    // Warm batch over the first connection.
    for token in 0..5u64 {
        transport
            .send_nowait(
                "alpha",
                "127.0.0.1",
                port,
                Bytes::from(format!("warm-{token}").into_bytes()),
                token,
            )
            .unwrap();
    }
    assert_eq!(collect_completions(&transport, 5).len(), 5);
    let mut seen = Vec::new();
    for _ in 0..5 {
        let inbound = listener
            .incoming()
            .recv_timeout(Duration::from_secs(5))
            .unwrap();
        seen.push(String::from_utf8(inbound.payload.to_vec()).unwrap());
    }

    // Kill the receiver; the next batch queues and rides the reconnect
    // backoff until the listener returns on the same port.
    drop(listener);
    for token in 5..10u64 {
        transport
            .send_nowait(
                "alpha",
                "127.0.0.1",
                port,
                Bytes::from(format!("cold-{token}").into_bytes()),
                token,
            )
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));
    let listener = TransportListener::bind(
        &format!("127.0.0.1:{port}"),
        ListenerConfig::trusting("beta"),
    )
    .expect("rebind the same port");

    let completions = collect_completions(&transport, 5);
    assert_eq!(completions.len(), 5);
    for c in &completions {
        assert!(c.result.is_ok(), "token {} failed: {:?}", c.token, c.result);
    }
    // Transport-level redelivery may duplicate across the crash (dedup
    // is the journal layer's job) — but nothing may be lost.
    let deadline = Instant::now() + Duration::from_secs(5);
    while seen.len() < 10 && Instant::now() < deadline {
        if let Ok(inbound) = listener.incoming().recv_timeout(Duration::from_millis(100)) {
            seen.push(String::from_utf8(inbound.payload.to_vec()).unwrap());
        }
    }
    for token in 0..10 {
        let label = if token < 5 {
            format!("warm-{token}")
        } else {
            format!("cold-{token}")
        };
        assert!(seen.contains(&label), "{label} lost across the restart");
    }
    assert!(transport.stats().reconnects >= 1);
}

#[test]
fn delayed_acks_coalesce_and_pipelining_beats_stop_and_wait() {
    let mut config = ListenerConfig::trusting("beta");
    config.ack_delay = Some(Duration::from_millis(30));
    let listener = TransportListener::bind("127.0.0.1:0", config).unwrap();
    let port = listener.local_addr().port();
    let transport = fast_reactor("alpha");

    let start = Instant::now();
    for token in 0..16u64 {
        transport
            .send_nowait(
                "alpha",
                "127.0.0.1",
                port,
                Bytes::from(vec![7u8; 64]),
                token,
            )
            .unwrap();
    }
    let completions = collect_completions(&transport, 16);
    let elapsed = start.elapsed();
    assert_eq!(completions.len(), 16);
    for c in &completions {
        assert!(c.result.is_ok(), "token {} failed: {:?}", c.token, c.result);
    }

    // Stop-and-wait would pay the 30 ms ack delay 16 times (480 ms);
    // the pipelined window absorbs it in a handful of coalesced acks.
    assert!(
        elapsed < Duration::from_millis(240),
        "pipelining should beat half the stop-and-wait floor, took {elapsed:?}"
    );
    let stats = transport.stats();
    assert_eq!(stats.frames_sent, 16);
    assert!(
        stats.acks_received < 16,
        "delayed acks should coalesce, got {}",
        stats.acks_received
    );
}

/// The door's stop-and-wait dialect (`Connection::send_payload`, which
/// `taxsh send` speaks): every payload is acked, and one the `pre_ack`
/// hook suppresses (here, a second copy) is not forwarded.
#[test]
fn stop_and_wait_sends_are_acked_and_a_suppressed_copy_is_not_forwarded() {
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let door = Arc::clone(&seen);
    let mut config = ListenerConfig::trusting("beta");
    config.pre_ack = Some(Arc::new(move |p: &Bytes| {
        door.lock().unwrap().insert(p.clone())
    }));
    let listener = TransportListener::bind("127.0.0.1:0", config).unwrap();
    let addr = format!("127.0.0.1:{}", listener.local_addr().port());
    let mut conn = Connection::establish(&addr, 1, &ConnectConfig::default()).unwrap();
    conn.send_payload(b"agent-1").unwrap();
    conn.send_payload(b"agent-1").unwrap();

    let incoming = listener.incoming();
    let first = incoming.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(&first.payload[..], b"agent-1");
    let second = incoming.recv_timeout(Duration::from_millis(200));
    assert!(second.is_err(), "the suppressed copy was forwarded");
    assert_eq!(seen.lock().unwrap().len(), 1);
}
