//! Fault injection against the reactor backend: dead peers, half-closed
//! connections, and handshake rejection — proving the reconnect loop
//! recovers when it can and reports honestly when it cannot. Every fault
//! runs both stop-and-wait (`ack_window = 1`) and pipelined.

use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use tacoma_transport::{
    build_welcome, split_seq, BackoffPolicy, Frame, FrameKind, FrameLimits, ListenerConfig,
    ReactorConfig, ReactorTransport, Transport, TransportError, TransportListener,
};

const WINDOWS: [usize; 2] = [1, 16];

fn fast_reactor(local_host: &str, ack_window: usize) -> ReactorTransport {
    let mut config = ReactorConfig {
        shards: 1,
        ack_window,
        ack_timeout: Duration::from_millis(300),
        retry_budget: Duration::from_millis(400),
        backoff: BackoffPolicy::fast(),
        ..ReactorConfig::default()
    };
    config.connect.local_host = local_host.to_owned();
    ReactorTransport::new(config)
}

/// Nothing listening at all: every connect attempt fails, the caller gets
/// `RetriesExhausted` once the frame's budget runs out, and the counters
/// account for every retry.
#[test]
fn dead_peer_exhausts_retries() {
    for window in WINDOWS {
        // Bind-then-drop to get a port nothing listens on.
        let port = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let transport = fast_reactor("alpha", window);
        let err = transport
            .send("alpha", "127.0.0.1", port, b"payload")
            .unwrap_err();
        let TransportError::RetriesExhausted { attempts, .. } = err else {
            panic!("expected RetriesExhausted, got {err:?}");
        };
        assert!(attempts >= 2, "the budget covers several fast attempts");

        let stats = transport.stats();
        assert_eq!(stats.frames_sent, 0);
        assert_eq!(stats.retry_timeouts, 1);
        // Every attempt after the first is a reconnect; one more may have
        // been in flight when the budget ran out.
        assert!(
            stats.reconnects + 1 >= u64::from(attempts),
            "{} reconnects for {attempts} attempts",
            stats.reconnects
        );
    }
}

/// Answers the handshake on a raw socket: read HELLO, send WELCOME.
fn serve_handshake(stream: &mut TcpStream) {
    let limits = FrameLimits::default();
    let hello = Frame::read_from(stream, &limits).unwrap();
    assert_eq!(hello.kind, FrameKind::Hello);
    Frame::new(FrameKind::Welcome, build_welcome("beta"))
        .write_to(stream)
        .unwrap();
}

/// A peer that handshakes, accepts the briefcase frame, then slams the
/// connection shut *before* acking. The buffered TCP write succeeded, so
/// only the ack protocol detects the loss; the transport must treat the
/// connection as dead, back off, reconnect, re-send the unacked frame,
/// and succeed on the healthy second connection.
#[test]
fn half_close_before_ack_reconnects_and_delivers() {
    for window in WINDOWS {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();

        let server = thread::spawn(move || {
            // Connection 1: swallow the payload, never ack.
            let (mut stream, _) = listener.accept().unwrap();
            serve_handshake(&mut stream);
            let frame = Frame::read_from(&mut stream, &FrameLimits::default()).unwrap();
            assert_eq!(frame.kind, FrameKind::BriefcaseSeq);
            drop(stream);

            // Connection 2: behave.
            let (mut stream, _) = listener.accept().unwrap();
            serve_handshake(&mut stream);
            let frame = Frame::read_from(&mut stream, &FrameLimits::default()).unwrap();
            assert_eq!(frame.kind, FrameKind::BriefcaseSeq);
            let (seq, payload) = split_seq(&frame.payload).unwrap();
            Frame::new(FrameKind::AckSeq, seq.to_le_bytes().to_vec())
                .write_to(&mut stream)
                .unwrap();
            payload.to_vec()
        });

        let transport = fast_reactor("alpha", window);
        transport
            .send("alpha", "127.0.0.1", port, b"survives the fault")
            .expect("retry should deliver on the second connection");

        assert_eq!(&server.join().unwrap()[..], b"survives the fault");
        let stats = transport.stats();
        assert_eq!(stats.frames_sent, 1, "counted once despite the retry");
        assert_eq!(stats.connects, 2, "re-sent on a fresh connection");
        assert!(stats.reconnects >= 1, "the half-close forced a reconnect");
        assert_eq!(stats.retry_timeouts, 0, "the message was never given up on");
    }
}

/// A listener that requires signed HELLOs refuses an unsigned client —
/// and the client fails *fast*: retrying the same credentials cannot
/// succeed, so no reconnect attempts are burned.
#[test]
fn handshake_rejection_fails_without_retries() {
    for window in WINDOWS {
        let mut config = ListenerConfig::trusting("beta");
        config.require_signed = true;
        let listener = TransportListener::bind("127.0.0.1:0", config).unwrap();
        let port = listener.local_addr().port();

        let transport = fast_reactor("alpha", window);
        let err = transport
            .send("alpha", "127.0.0.1", port, b"unsigned")
            .unwrap_err();
        assert!(
            matches!(err, TransportError::HandshakeFailed { .. }),
            "got {err:?}"
        );

        let stats = transport.stats();
        assert_eq!(stats.reconnects, 0, "no pointless retries after a reject");
        assert_eq!(stats.handshake_failures, 1);
        assert_eq!(listener.stats().handshake_failures, 1);
    }
}

/// Sanity: against a healthy `TransportListener`, payloads arrive tagged
/// with the announced peer and the connection is kept (one connect for
/// many sends).
#[test]
fn healthy_listener_receives_over_one_connection() {
    for window in WINDOWS {
        let listener =
            TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("beta")).unwrap();
        let port = listener.local_addr().port();

        let transport = fast_reactor("alpha", window);
        for i in 0..3u8 {
            transport.send("alpha", "127.0.0.1", port, &[i]).unwrap();
        }
        let mut payloads = Vec::new();
        for _ in 0..3 {
            let inbound = listener
                .incoming()
                .recv_timeout(Duration::from_secs(5))
                .unwrap();
            assert_eq!(inbound.from_host, "alpha");
            payloads.extend_from_slice(&inbound.payload);
        }
        assert_eq!(payloads, vec![0, 1, 2], "in order on one connection");
        let stats = transport.stats();
        assert_eq!(stats.connects, 1, "connection reused");
        assert_eq!(stats.frames_sent, 3);
    }
}
