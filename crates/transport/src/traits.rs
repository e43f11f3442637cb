//! The [`Transport`] abstraction: how a firewall ships an encoded message
//! to a peer firewall, independent of whether the wire is a real TCP
//! socket or the in-process simulated network.

use std::fmt;

use bytes::Bytes;

use crate::{TransportError, TransportStats};

/// The outcome of one [`Transport::send_nowait`] call, reported later by
/// [`Transport::drain_completions`].
#[derive(Debug, Clone)]
pub struct Completion {
    /// The caller-chosen token passed to `send_nowait`.
    pub token: u64,
    /// `Ok(())` once the peer acknowledged the frame; an error after the
    /// transport's retry budget gave up on it.
    pub result: Result<(), TransportError>,
}

/// A delivery fabric between firewalls.
///
/// Implementations ship opaque payloads (encoded firewall messages) from
/// the firewall on `from` to the firewall serving `to_host:to_port`. The
/// call is synchronous: `Ok(())` means the peer acknowledged receipt (TCP)
/// or the simulated network accepted the envelope (simnet). Errors are
/// final from the transport's point of view — internal retry/backoff has
/// already run — so the caller decides whether to park the message.
pub trait Transport: Send + Sync + fmt::Debug {
    /// Ships `payload` to the firewall at `to_host:to_port`.
    ///
    /// # Errors
    ///
    /// A [`TransportError`] after the transport's own retry budget is
    /// exhausted (TCP) or the simulated network refuses the transfer.
    fn send(
        &self,
        from: &str,
        to_host: &str,
        to_port: u16,
        payload: &[u8],
    ) -> Result<(), TransportError>;

    /// Counter snapshot for this transport instance.
    fn stats(&self) -> TransportStats;

    /// Short backend name for logs and stats lines (`"reactor"`,
    /// `"simnet"`).
    fn kind(&self) -> &'static str;

    /// Enqueues `payload` for pipelined delivery to `to_host:to_port`
    /// without waiting for the peer's acknowledgement. The outcome
    /// arrives later through [`Transport::drain_completions`], tagged
    /// with `token`. A backend without a pipelined path (the simnet)
    /// keeps the default, which refuses every frame, so callers fall
    /// back to the blocking [`Transport::send`].
    ///
    /// The payload is taken as [`Bytes`] so a briefcase's cached wire
    /// encoding travels to the socket without being copied.
    ///
    /// # Errors
    ///
    /// [`TransportError::QueueFull`] when the peer's bounded outbound
    /// queue is at capacity (nothing was enqueued — backpressure),
    /// [`TransportError::NoNowaitPath`] from the default, or any
    /// immediate refusal. Wire failures are *not* reported here;
    /// they surface as failed completions.
    fn send_nowait(
        &self,
        from: &str,
        to_host: &str,
        to_port: u16,
        payload: Bytes,
        token: u64,
    ) -> Result<(), TransportError> {
        let _ = (from, to_host, to_port, payload, token);
        Err(TransportError::NoNowaitPath)
    }

    /// Collects every finished [`Transport::send_nowait`] outcome that
    /// has accumulated since the last drain. Never blocks.
    fn drain_completions(&self) -> Vec<Completion> {
        Vec::new()
    }
}
