//! [`TransportError`]: what can go wrong on the wire.

use std::fmt;

use tacoma_simnet::NetError;

/// Errors from the wire transport.
///
/// Io errors are carried as rendered strings so the type stays `Clone` +
/// `PartialEq` and can travel inside firewall errors and test assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportError {
    /// A socket operation failed.
    Io {
        /// Rendered `std::io::Error`.
        detail: String,
    },
    /// The destination could not be reached at all (no route, refused,
    /// crashed simulated host, unknown peer).
    Unreachable {
        /// The destination host.
        host: String,
        /// What went wrong.
        detail: String,
    },
    /// The HELLO exchange failed: the peer rejected us, or an arriving
    /// peer failed authentication.
    HandshakeFailed {
        /// The rejection reason.
        reason: String,
    },
    /// A frame declared a payload larger than the configured limit.
    FrameTooLarge {
        /// Declared payload length.
        declared: u64,
        /// The limit in force.
        limit: u64,
    },
    /// The byte stream is not a valid TAX frame.
    BadFrame {
        /// What was malformed.
        detail: String,
    },
    /// The peer's bounded outbound queue is full — backpressure. The
    /// caller can retry later, fall back to a blocking send, or park the
    /// message; nothing was enqueued.
    QueueFull {
        /// The destination host.
        host: String,
        /// The queue's capacity.
        capacity: usize,
    },
    /// The transport has no nonblocking send path (the default
    /// [`Transport::send_nowait`](crate::Transport::send_nowait)): the
    /// caller takes the blocking send. It carries no data, so refusing a
    /// frame allocates nothing.
    NoNowaitPath,
    /// Every retry attempt failed; the caller should park the message.
    RetriesExhausted {
        /// The destination host.
        host: String,
        /// Attempts made (including the first).
        attempts: u32,
        /// The last error, rendered.
        last: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io { detail } => write!(f, "transport i/o error: {detail}"),
            TransportError::Unreachable { host, detail } => {
                write!(f, "host {host:?} unreachable: {detail}")
            }
            TransportError::HandshakeFailed { reason } => {
                write!(f, "handshake failed: {reason}")
            }
            TransportError::FrameTooLarge { declared, limit } => {
                write!(f, "frame of {declared} bytes exceeds limit {limit}")
            }
            TransportError::BadFrame { detail } => write!(f, "malformed frame: {detail}"),
            TransportError::QueueFull { host, capacity } => {
                write!(f, "outbound queue for {host:?} full ({capacity} entries)")
            }
            TransportError::NoNowaitPath => {
                write!(f, "transport has no nonblocking send path")
            }
            TransportError::RetriesExhausted {
                host,
                attempts,
                last,
            } => {
                write!(f, "gave up on {host:?} after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io {
            detail: e.to_string(),
        }
    }
}

impl From<NetError> for TransportError {
    /// Churn (crashed host, severed link, missing mailbox) is a distinct
    /// outcome from random loss: the named host is *unreachable*, not
    /// unlucky. Everything else the simulated network refuses is an I/O
    /// error.
    fn from(e: NetError) -> Self {
        let detail = e.to_string();
        match e {
            NetError::NoEndpoint { host }
            | NetError::EndpointClosed { host }
            | NetError::HostDown { host }
            | NetError::Partitioned { b: host, .. } => TransportError::Unreachable {
                host: host.to_string(),
                detail,
            },
            _ => TransportError::Io { detail },
        }
    }
}

#[cfg(test)]
mod tests {
    use tacoma_simnet::HostId;

    use super::*;

    #[test]
    fn churn_is_unreachable_and_loss_is_io() {
        let (a, b) = (HostId::new("a").unwrap(), HostId::new("b").unwrap());
        for churn in [
            NetError::NoEndpoint { host: b.clone() },
            NetError::EndpointClosed { host: b.clone() },
            NetError::HostDown { host: b.clone() },
            NetError::Partitioned {
                a: a.clone(),
                b: b.clone(),
            },
        ] {
            let detail = churn.to_string();
            assert_eq!(
                TransportError::from(churn),
                TransportError::Unreachable {
                    host: "b".to_owned(),
                    detail,
                }
            );
        }
        let lost = NetError::MessageLost { from: a, to: b };
        assert!(matches!(
            TransportError::from(lost),
            TransportError::Io { .. }
        ));
    }
}
