//! One established, handshaken TCP connection to a peer firewall.

use std::net::TcpStream;
use std::time::Duration;

use tacoma_security::Keyring;

use crate::{build_hello, parse_welcome, Frame, FrameKind, FrameLimits, TransportError};

/// Client-side connection settings.
#[derive(Debug, Clone)]
pub struct ConnectConfig {
    /// Host name this side speaks as (`HELLO:HOST`).
    pub local_host: String,
    /// Signs the HELLO when present; unsigned otherwise.
    pub keyring: Option<Keyring>,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-frame read/write timeout once connected.
    pub io_timeout: Duration,
}

impl Default for ConnectConfig {
    fn default() -> Self {
        ConnectConfig {
            local_host: "client".to_owned(),
            keyring: None,
            connect_timeout: Duration::from_secs(3),
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// A live connection that has completed the HELLO exchange.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    peer_host: String,
}

impl Connection {
    /// Connects to `addr`, performs the HELLO exchange, and returns the
    /// ready connection.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`TransportError::HandshakeFailed`] when the peer
    /// rejects us.
    pub fn establish(
        addr: &str,
        nonce: u64,
        config: &ConnectConfig,
    ) -> Result<Self, TransportError> {
        use std::net::ToSocketAddrs;
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| TransportError::Unreachable {
                host: addr.to_owned(),
                detail: e.to_string(),
            })?
            .next()
            .ok_or_else(|| TransportError::Unreachable {
                host: addr.to_owned(),
                detail: "no address resolved".to_owned(),
            })?;
        let stream = TcpStream::connect_timeout(&resolved, config.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.io_timeout))?;
        stream.set_write_timeout(Some(config.io_timeout))?;

        let mut conn = Connection {
            stream,
            peer_host: String::new(),
        };
        let hello = build_hello(&config.local_host, config.keyring.as_ref(), nonce);
        conn.write(&Frame::new(FrameKind::Hello, hello))?;
        let reply = conn.read()?;
        match reply.kind {
            FrameKind::Welcome => {
                conn.peer_host = parse_welcome(&reply.payload)?;
                Ok(conn)
            }
            FrameKind::Reject => Err(TransportError::HandshakeFailed {
                reason: String::from_utf8_lossy(&reply.payload).into_owned(),
            }),
            other => Err(TransportError::BadFrame {
                detail: format!("expected Welcome/Reject, got {other:?}"),
            }),
        }
    }

    /// The host name the peer announced in its WELCOME.
    pub fn peer_host(&self) -> &str {
        &self.peer_host
    }

    /// Consumes the connection and hands back the underlying stream.
    ///
    /// The reactor uses this: connector threads run the blocking
    /// handshake through [`Connection::establish`], then the shard takes
    /// over the socket in nonblocking mode.
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }

    /// Ships one Briefcase frame and waits for the peer's Ack.
    ///
    /// The payload is written with vectored I/O directly from the
    /// caller's buffer — a briefcase's cached `wire_bytes()` reaches the
    /// socket without being copied into a frame-encode buffer first.
    ///
    /// # Errors
    ///
    /// I/O errors (including ack timeout) or a protocol violation.
    pub fn send_payload(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        crate::frame::write_frame_vectored(&mut self.stream, FrameKind::Briefcase, payload)?;
        let reply = self.read()?;
        match reply.kind {
            FrameKind::Ack => Ok(()),
            FrameKind::Bye => Err(TransportError::Io {
                detail: "peer said goodbye instead of acking".to_owned(),
            }),
            other => Err(TransportError::BadFrame {
                detail: format!("expected Ack, got {other:?}"),
            }),
        }
    }

    /// Asks the peer for its stats line.
    ///
    /// # Errors
    ///
    /// I/O errors or a protocol violation.
    pub fn query_stats(&mut self) -> Result<String, TransportError> {
        self.write(&Frame::bare(FrameKind::Stats))?;
        let reply = self.read()?;
        match reply.kind {
            FrameKind::StatsReply => Ok(String::from_utf8_lossy(&reply.payload).into_owned()),
            other => Err(TransportError::BadFrame {
                detail: format!("expected StatsReply, got {other:?}"),
            }),
        }
    }

    /// Sends an orderly goodbye; errors are ignored (we are leaving).
    pub fn goodbye(mut self) {
        let _ = self.write(&Frame::bare(FrameKind::Bye));
    }

    fn write(&mut self, frame: &Frame) -> Result<(), TransportError> {
        frame.write_to(&mut self.stream)
    }

    fn read(&mut self) -> Result<Frame, TransportError> {
        Frame::read_from(&mut self.stream, &FrameLimits::default())
    }
}
