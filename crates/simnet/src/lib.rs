//! Virtual-time network simulation for the TAX reproduction.
//!
//! The paper's experiment (§5) compares a Webbot scan executed *at* the web
//! server against the same scan pulling pages across a 100 Mbit LAN, and
//! conjectures how the comparison shifts on a WAN. Reproducing that needs a
//! network whose *costs* are realistic and controllable, not a real socket
//! stack. This crate provides:
//!
//! * [`SimTime`] / [`SimClock`] — a virtual clock in nanoseconds; transfers
//!   advance virtual time, so experiments are deterministic and complete in
//!   microseconds of wall time regardless of the simulated volume.
//! * [`LinkSpec`] — latency + bandwidth + loss, with presets for the
//!   paper's environments ([`LinkSpec::lan_100mbit`], [`LinkSpec::wan`], …).
//! * [`Topology`] — named hosts, per-pair links, host crashes, partitions.
//! * [`Network`] — cost accounting: every transfer advances the clock and
//!   is tallied in [`TrafficStats`] (bytes and messages per host pair).
//! * [`MessageBus`] — a real (crossbeam-channel) delivery fabric: one
//!   mailbox per host, into which the kernel's simnet transport delivers
//!   envelopes it has already charged to the [`Network`].
//!
//! # Example
//!
//! ```
//! use tacoma_simnet::{HostId, LinkSpec, Network, Topology};
//!
//! let mut topo = Topology::new(LinkSpec::lan_100mbit());
//! topo.add_host(HostId::new("client").unwrap());
//! topo.add_host(HostId::new("server").unwrap());
//!
//! let net = Network::new(topo, 7);
//! let out = net
//!     .transfer(&HostId::new("client").unwrap(), &HostId::new("server").unwrap(), 3_000_000)
//!     .unwrap();
//! // 3 MB over 100 Mbit/s ≈ 240 ms + latency.
//! assert!(out.cost.as_millis() >= 240);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod error;
mod link;
mod network;
mod stats;
mod time;
mod topology;

pub use bus::{Envelope, MessageBus};
pub use error::NetError;
pub use link::LinkSpec;
pub use network::{Network, TransferOutcome};
pub use stats::{PairStats, TrafficStats};
pub use time::{SimClock, SimTime};
pub use topology::{HostId, Topology};
