//! The TAX **firewall**: the per-host reference monitor of §3.2.
//!
//! > "The firewall acts as a reference monitor and mediates all local
//! > communication between agents, and communication to remote firewalls
//! > and agents on remote machines."
//!
//! One firewall runs on every host. Its two most important tasks:
//!
//! 1. **Broker + authority** — it knows which agents run on which local
//!    virtual machine, authenticates arriving agents (signed agent core or
//!    trusted sender), and enforces access rights derived from the
//!    authenticated principal.
//! 2. **Dispatch + routing** — messages for absent agents are *queued with
//!    a timeout*; partial names are *matched* against the registry
//!    (§3.2's name/instance matching); messages for remote hosts are
//!    forwarded to the remote firewall; messages addressed to the firewall
//!    itself perform admin operations (list agents, run time, stop, kill).
//!
//! This crate is the *decision* layer: [`Firewall::route_outbound`] / [`Firewall::route_inbound`] return a
//! [`Decision`] describing what must happen; the kernel (`tacoma-core`)
//! owns the threads, VMs, and transport that carry decisions out. That
//! split keeps every policy rule synchronously testable.
//! Every remote send (mail, an agent transfer, or parked mail the
//! redelivery sweep retries) is handed to the transport in one place and
//! settled in one place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod error;
mod firewall;
mod message;
mod pending;
mod registry;
mod stats;

pub use admission::{AdmissionError, AdmissionPolicy, AdmissionVerdict};
pub use error::FirewallError;
pub use firewall::{
    ControlAction, ControlKind, Decision, Firewall, TransferVerdict, FIREWALL_AGENT_NAME,
};
pub use message::{Message, MessageKind};
pub use pending::{PendingQueue, DEFAULT_QUEUE_TIMEOUT};
pub use registry::{AgentStatus, Registration, Registry};
pub use stats::FirewallStats;
