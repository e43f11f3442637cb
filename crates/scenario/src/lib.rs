//! Hostile-network scenarios and itinerary planning for the TAX
//! reproduction.
//!
//! The paper's §5 experiment runs on one friendly LAN and *conjectures*
//! what happens on worse networks. This crate makes the conjecture
//! testable at scale:
//!
//! * [`gen`] — a deterministic seeded generator producing 100–1000-host
//!   topologies with heterogeneous link tiers ([`model::LinkTier`]),
//!   zipfian hub connectivity, lossy links, and a scheduled track of
//!   crashes, partitions, and route degradations.
//! * [`model`] — the serializable [`model::Scenario`] the generator
//!   emits; [`json`] is its wire format (hand-rolled — the workspace's
//!   `serde` is an offline no-op stand-in).
//! * [`track`] / [`system`] — replaying the event track against a live
//!   network from a scheduler step hook, so hostility unfolds in virtual
//!   time and the same seed replays the same trace.
//! * [`plan`] — a makespan-minimizing itinerary planner (nearest-neighbor
//!   seed + 2-opt refinement) for multi-hop webbot tours, with the
//!   paper-order baseline ([`plan::naive_order`]) it is benchmarked
//!   against in experiment E11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod json;
pub mod model;
pub mod plan;
pub mod system;
pub mod track;

pub use gen::{generate, ScenarioSpec, MAX_HOSTS};
pub use json::{decode, encode, DecodeError};
pub use model::{EventKind, LinkDef, LinkTier, Scenario, ScenarioEvent};
pub use plan::{naive_order, plan, predicted_makespan, Itinerary};
pub use system::{build_system, install_track};
pub use track::{ScenarioTrack, TrackHandle};
