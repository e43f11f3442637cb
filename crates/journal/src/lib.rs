//! Durable write-ahead journal for TAX firewalls.
//!
//! A `taxd` restart used to silently drop every parked message and
//! in-flight migration: the firewall's pending queue and hop handoff
//! state lived only in memory. This crate is the reliability substrate
//! that fixes that — an append-only, CRC-framed, fsync-batched log with
//! segment rotation and checkpoint/compaction, plus a boot-time replay
//! that reconstructs exactly the state a crashed daemon must resume.
//!
//! The typed record API mirrors the firewall's externally visible
//! transitions:
//!
//! - [`Record::MailParked`] / [`Record::MailDelivered`] — the pending
//!   queue's admissions and departures;
//! - [`Record::HopBegin`] / [`Record::HopCommitted`] /
//!   [`Record::HopAborted`] — agent migrations, journaled write-ahead on
//!   both the sending side (before the wire send) and the receiving side
//!   (before the transfer ack), keyed by a content-derived dedup key so
//!   that sender retries plus receiver dedup yield *effectively-once*
//!   hop execution;
//! - [`Record::Checkpoint`] — a full live-state snapshot that lets all
//!   earlier segments be deleted.
//!
//! See `docs/journal.md` for the on-disk format and the recovery
//! protocol, including the parent-subsumption rule that keeps replay
//! duplicate-free at every crash point.

#![forbid(unsafe_code)]

mod crc;
mod error;
mod journal;
mod record;
mod segment;

pub use crc::crc32;
pub use error::JournalError;
pub use journal::{CrashPoint, Journal, JournalConfig, JournalStats, Replay};
pub use record::{CheckpointState, OpenHop, ParkedMail, Record, RecordKind};
pub use segment::{
    frame_into, list_segments, parse_segment_name, scan_segment, segment_path, SegmentScan,
    FRAME_OVERHEAD, MAX_RECORD_BYTES, SEGMENT_MAGIC,
};
