//! The layer benchmarks' harness (`exp_layers`'s argument parser,
//! repetition estimator, gate table, JSON writer and text table), plus
//! two workload models: the §4 data-mining scenario (a record store
//! service and an itinerant mining agent) and the briefcase-migration
//! hop. The E1–E8 paper claims are tests in `tests/paper_reproduction.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod migrate;
pub mod mining;

pub use harness::{header, row};
