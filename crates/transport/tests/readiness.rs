//! Readiness waits on both sides of the wire: a frame or an ack wakes its
//! shard the moment it lands, idle shards cost only their housekeeping
//! tick, and shutdown reaches a blocked shard at once.

use std::time::{Duration, Instant};

use tacoma_transport::{
    ListenerConfig, ReactorConfig, ReactorTransport, Transport, TransportListener,
};

const SHARDS: usize = 2;

fn reactor(local_host: &str) -> ReactorTransport {
    let mut config = ReactorConfig {
        shards: SHARDS,
        ..ReactorConfig::default()
    };
    config.connect.local_host = local_host.to_owned();
    ReactorTransport::new(config)
}

fn listener(local_host: &str) -> TransportListener {
    let mut config = ListenerConfig::trusting(local_host);
    config.shards = SHARDS;
    TransportListener::bind("127.0.0.1:0", config).unwrap()
}

/// A reactor holding one established, now idle connection to `listener`
/// per name in `peers`.
fn connected_reactor(listener: &TransportListener, peers: usize) -> ReactorTransport {
    let transport = reactor("alpha");
    let addr = listener.local_addr().to_string();
    for i in 0..peers {
        let host = format!("peer-{i}");
        transport.add_peer(host.clone(), addr.clone());
        transport.send("alpha", &host, 0, b"hello").unwrap();
    }
    assert_eq!(transport.stats().connects, peers as u64);
    transport
}

/// Send → ack is a round trip through two shards, not two polling parks:
/// with 1 ms parks on each side the median sat near 1 ms.
#[test]
fn blocking_send_acks_without_waiting_out_a_park() {
    let listener = listener("beta");
    let port = listener.local_addr().port();
    let transport = reactor("alpha");
    // The first send pays the connect and handshake.
    transport.send("alpha", "127.0.0.1", port, b"warm").unwrap();

    let mut micros: Vec<u128> = (0..500u32)
        .map(|i| {
            let start = Instant::now();
            transport
                .send("alpha", "127.0.0.1", port, &i.to_le_bytes())
                .unwrap();
            start.elapsed().as_micros()
        })
        .collect();
    micros.sort_unstable();
    let median = micros[micros.len() / 2];
    assert!(
        median < 300,
        "median send→ack {median} µs (p90 {} µs)",
        micros[micros.len() * 9 / 10]
    );

    for _ in 0..501 {
        listener
            .incoming()
            .recv_timeout(Duration::from_secs(5))
            .unwrap();
    }
    assert_eq!(transport.stats().frames_sent, 501);
}

/// E12's idle contract: 64 connected, silent peers on each side cost each
/// shard only its 50 ms housekeeping tick — no busy park per live socket.
#[test]
fn idle_connections_cost_only_the_housekeeping_tick() {
    let listener = listener("beta");
    let transport = connected_reactor(&listener, 64);
    for _ in 0..64 {
        listener
            .incoming()
            .recv_timeout(Duration::from_secs(5))
            .unwrap();
    }
    // Let the tail of the connect storm settle.
    std::thread::sleep(Duration::from_millis(100));

    let (reactor_before, listener_before) = (transport.stats().wakes, listener.stats().wakes);
    std::thread::sleep(Duration::from_secs(1));
    let reactor_wakes = transport.stats().wakes - reactor_before;
    let listener_wakes = listener.stats().wakes - listener_before;

    let ceiling = 30 * SHARDS as u64;
    assert!(
        reactor_wakes <= ceiling,
        "reactor shards woke {reactor_wakes} times in 1 s (ceiling {ceiling})"
    );
    assert!(
        listener_wakes <= ceiling,
        "listener shards woke {listener_wakes} times in 1 s (ceiling {ceiling})"
    );
    assert!(
        reactor_wakes > 0 && listener_wakes > 0,
        "the tick still runs"
    );
}

/// Shutdown wakes a shard blocked in `poll` instead of waiting for its
/// timeout. The bound is well under the 50 ms tick, so a shard that
/// missed its wake would usually wait out enough of it to fail here.
#[test]
fn dropping_idle_endpoints_returns_promptly() {
    let listener = listener("beta");
    let transport = connected_reactor(&listener, 8);
    // Idle long enough that every shard is blocked on its full tick.
    std::thread::sleep(Duration::from_millis(200));

    let start = Instant::now();
    drop(transport);
    let reactor_drop = start.elapsed();
    let start = Instant::now();
    drop(listener);
    let listener_drop = start.elapsed();

    assert!(
        reactor_drop < Duration::from_millis(20),
        "reactor drop took {reactor_drop:?}"
    );
    assert!(
        listener_drop < Duration::from_millis(20),
        "listener drop took {listener_drop:?}"
    );
}
