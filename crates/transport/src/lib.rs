//! Real wire transport for TACOMA firewalls.
//!
//! TAX 2.0's firewalls mediate every agent transfer between hosts. This
//! crate is the wire they mediate it over: a length-prefixed frame codec
//! over TCP, an authenticated HELLO handshake tied into the security
//! layer's principals and trust store, and one socket client — the sharded
//! nonblocking [`ReactorTransport`] — behind the [`Transport`] trait. The
//! in-process simnet bus implements the same trait (in `tacoma-core`), so
//! the firewall routes identically whether its peers share a process or a
//! network; [`TransportError`]'s `From<NetError>` is the one place a
//! simulated-network refusal is translated.
//!
//! Layers, bottom up:
//!
//! - [`frame`]: the `TAXF` frame codec (magic, version, kind, u32-LE
//!   length, payload), with declared-length checks before allocation;
//!   pipelined frames carry an 8-byte seq and are acked cumulatively.
//! - [`handshake`]: the HELLO/WELCOME/REJECT exchange, optionally MAC-
//!   signed and verified against a [`tacoma_security::TrustStore`].
//! - [`conn`]: one handshaken blocking connection — the handshake
//!   primitive the reactor's connectors run, and the stop-and-wait tool
//!   client (`taxsh send`/`stats`): Briefcase frames are acked, Stats
//!   frames answered.
//! - [`window`]: the pipelined ack-window protocol state machines.
//! - [`reactor`]: the client backend — sharded, nonblocking, pipelined
//!   windows (`ack_window = 1` is stop-and-wait), zero-copy vectored
//!   writes, bounded backpressure.
//! - [`listener`]: the (sharded, nonblocking) server side.
//! - `poll`: the readiness wait both sides' shard threads block in — a
//!   `poll(2)` binding plus a wake pipe; the workspace's only `unsafe`.
//! - [`backoff`] / [`stats`]: retry pacing and shared counters.
//!
//! Unix only: the shards wait on file descriptors.

// `deny`, not `forbid`: the `poll` module's foreign call is the one
// allowed exception.
#![deny(unsafe_code)]

pub mod backoff;
pub mod conn;
pub mod doorbell;
pub mod error;
pub mod frame;
pub mod handshake;
pub mod listener;
mod poll;
pub mod reactor;
pub mod stats;
pub mod traits;
pub mod window;

pub use backoff::BackoffPolicy;
pub use conn::{ConnectConfig, Connection};
pub use doorbell::Doorbell;
pub use error::TransportError;
pub use frame::{
    frame_header, parse_ack_seq, split_seq, write_frame_vectored, Frame, FrameKind, FrameLimits,
    FRAME_HEADER_LEN, FRAME_MAGIC, FRAME_VERSION,
};
pub use handshake::{build_hello, build_welcome, parse_welcome, verify_hello, HelloInfo};
pub use listener::{Inbound, ListenerConfig, PreAckHook, TransportListener};
pub use reactor::{ReactorConfig, ReactorTransport};
pub use stats::{TransportCounters, TransportStats};
pub use traits::{Completion, Transport};
pub use window::{RecvWindow, SendWindow};
