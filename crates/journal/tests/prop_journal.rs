//! Property-based tests for the journal: record codec round-trips,
//! torn-tail recovery at *every* byte-level truncation offset,
//! checkpoint-then-replay equivalence, and the compact dedup set's
//! lossless round trip.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use tacoma_journal::{
    frame_into, list_segments, scan_segment, segment_path, CheckpointState, Journal, JournalConfig,
    OpenHop, ParkedMail, Record, Replay, SEGMENT_MAGIC,
};

/// A unique, self-cleaning journal directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "tacoma_prop_journal_{tag}_{}_{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn arb_wire() -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), 0..48).prop_map(Bytes::from)
}

/// Hop keys from a small pool so begins/commits/aborts actually collide.
fn arb_hop_key() -> impl Strategy<Value = String> {
    (0u8..6).prop_map(|i| format!("h{i}"))
}

fn arb_parked() -> impl Strategy<Value = ParkedMail> {
    (any::<u64>(), any::<u64>(), arb_wire()).prop_map(|(key, timeout_nanos, wire)| ParkedMail {
        key,
        timeout_nanos,
        wire,
    })
}

fn arb_open_hop() -> impl Strategy<Value = OpenHop> {
    (
        arb_hop_key(),
        prop::option::of(arb_hop_key()),
        any::<bool>(),
        "[a-z]{0,8}",
        arb_wire(),
    )
        .prop_map(|(key, parent, inbound, to, wire)| OpenHop {
            key,
            parent,
            inbound,
            to,
            wire,
        })
}

fn arb_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), arb_wire()).prop_map(|(key, timeout_nanos, wire)| {
            Record::MailParked {
                key,
                timeout_nanos,
                wire,
            }
        }),
        any::<u64>().prop_map(|key| Record::MailDelivered { key }),
        (
            arb_hop_key(),
            prop::option::of(arb_hop_key()),
            any::<bool>(),
            "[a-z]{0,8}",
            arb_wire(),
        )
            .prop_map(|(key, parent, inbound, to, wire)| Record::HopBegin {
                key,
                parent,
                inbound,
                to,
                wire,
            }),
        arb_hop_key().prop_map(|key| Record::HopCommitted { key }),
        arb_hop_key().prop_map(|key| Record::HopAborted { key }),
        (
            any::<u64>(),
            prop::collection::vec(arb_parked(), 0..4),
            prop::collection::vec(arb_open_hop(), 0..4),
            prop::collection::vec(arb_hop_key(), 0..4),
        )
            .prop_map(|(next_mail_key, parked, open_hops, committed)| {
                Record::Checkpoint(CheckpointState {
                    next_mail_key,
                    parked,
                    open_hops,
                    committed,
                })
            }),
    ]
}

proptest! {
    /// encode → decode is the identity for every record shape.
    #[test]
    fn record_roundtrip(record in arb_record()) {
        let wire = record.encode();
        let back = Record::decode(&wire).unwrap();
        prop_assert_eq!(record, back);
    }

    /// The decoder consumes the whole buffer: any trailing byte is
    /// corruption, never silently ignored.
    #[test]
    fn record_rejects_trailing_bytes(record in arb_record(), extra in any::<u8>()) {
        let mut wire = record.encode();
        wire.push(extra);
        prop_assert!(Record::decode(&wire).is_err());
    }
}

/// Byte offsets at which a truncated segment is *clean* (ends exactly on
/// a frame boundary): the magic, then the end of each frame.
fn frame_boundaries(records: &[Record]) -> Vec<usize> {
    let mut boundaries = vec![SEGMENT_MAGIC.len()];
    let mut pos = SEGMENT_MAGIC.len();
    for record in records {
        let mut framed = Vec::new();
        frame_into(&mut framed, record);
        pos += framed.len();
        boundaries.push(pos);
    }
    boundaries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Torn-tail recovery, exhaustively: a segment truncated at EVERY
    /// byte offset reopens cleanly, yields exactly the records whose
    /// frames survived whole, flags the tear iff the cut missed a frame
    /// boundary, and — because open() truncates the tear away — reopens
    /// a second time with no tear and accepts new appends.
    #[test]
    fn torn_tail_recovers_at_every_truncation_offset(
        records in prop::collection::vec(arb_record(), 1..5),
    ) {
        // Build the intact segment image once.
        let mut image = SEGMENT_MAGIC.to_vec();
        for record in &records {
            frame_into(&mut image, record);
        }
        let boundaries = frame_boundaries(&records);

        for cut in 0..=image.len() {
            let dir = TempDir::new("torn");
            fs::create_dir_all(dir.path()).unwrap();
            fs::write(segment_path(dir.path(), 0), &image[..cut]).unwrap();

            let expected = boundaries.iter().filter(|&&b| b <= cut).count().max(1) - 1;
            let clean = boundaries.contains(&cut);

            let (journal, replay) = Journal::open(dir.path(), JournalConfig::default()).unwrap();
            prop_assert_eq!(
                replay.records_scanned as usize, expected,
                "cut={} of {}", cut, image.len()
            );
            prop_assert_eq!(replay.torn_tail, !clean, "cut={}", cut);

            // The tear is gone: appends land after the last intact record
            // and a second open sees a clean stream one record longer.
            journal.hop_committed("resumed").unwrap();
            journal.sync().unwrap();
            drop(journal);
            let (_, again) = Journal::open(dir.path(), JournalConfig::default()).unwrap();
            prop_assert!(!again.torn_tail, "cut={}", cut);
            prop_assert_eq!(again.records_scanned as usize, expected + 1, "cut={}", cut);
            prop_assert!(again.committed.iter().any(|k| k == "resumed"));
        }
    }
}

/// One random journal operation, expressed over the public API.
#[derive(Debug, Clone)]
enum Op {
    Park {
        timeout_nanos: u64,
        wire: Bytes,
    },
    Deliver {
        pick: usize,
    },
    Begin {
        key: String,
        parent: Option<String>,
        inbound: bool,
        to: String,
        wire: Bytes,
    },
    Commit {
        key: String,
    },
    Abort {
        key: String,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u64>(), arb_wire()).prop_map(|(timeout_nanos, wire)| Op::Park {
            timeout_nanos,
            wire
        }),
        any::<u16>().prop_map(|pick| Op::Deliver {
            pick: pick as usize
        }),
        (
            arb_hop_key(),
            prop::option::of(arb_hop_key()),
            any::<bool>(),
            "[a-z]{0,8}",
            arb_wire(),
        )
            .prop_map(|(key, parent, inbound, to, wire)| Op::Begin {
                key,
                parent,
                inbound,
                to,
                wire,
            }),
        arb_hop_key().prop_map(|key| Op::Commit { key }),
        arb_hop_key().prop_map(|key| Op::Abort { key }),
    ]
}

/// Replays `ops` against a fresh journal in `dir`; `Deliver` picks among
/// the keys `Park` minted so far so deliveries actually hit.
fn run_ops(dir: &Path, ops: &[Op]) {
    let (journal, _) = Journal::open(dir, JournalConfig::default()).unwrap();
    let mut minted = Vec::new();
    for op in ops {
        match op {
            Op::Park {
                timeout_nanos,
                wire,
            } => {
                minted.push(
                    journal
                        .mail_parked(Duration::from_nanos(*timeout_nanos), wire)
                        .unwrap(),
                );
            }
            Op::Deliver { pick } => {
                if !minted.is_empty() {
                    journal.mail_delivered(minted[pick % minted.len()]).unwrap();
                }
            }
            Op::Begin {
                key,
                parent,
                inbound,
                to,
                wire,
            } => {
                journal
                    .hop_begin(key, parent.as_deref(), *inbound, to, wire)
                    .unwrap();
            }
            Op::Commit { key } => journal.hop_committed(key).unwrap(),
            Op::Abort { key } => journal.hop_aborted(key).unwrap(),
        }
    }
    journal.sync().unwrap();
}

/// The replay's logical content, order-normalised for comparison.
fn normalise(replay: &Replay) -> (Vec<ParkedMail>, Vec<OpenHop>, Vec<String>) {
    let mut parked = replay.parked.clone();
    parked.sort_by_key(|m| m.key);
    let mut hops = replay.open_hops.clone();
    hops.sort_by(|a, b| a.key.cmp(&b.key));
    let mut committed = replay.committed.clone();
    committed.sort();
    (parked, hops, committed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Compaction changes the bytes on disk, never the meaning: replaying
    /// a raw op stream and replaying its checkpointed form recover the
    /// identical live state (parked mail, open hops, dedup set).
    #[test]
    fn checkpoint_then_replay_is_equivalent(
        ops in prop::collection::vec(arb_op(), 0..24),
    ) {
        let raw_dir = TempDir::new("ckpt_raw");
        let ckpt_dir = TempDir::new("ckpt_compact");

        run_ops(raw_dir.path(), &ops);
        run_ops(ckpt_dir.path(), &ops);
        {
            let (journal, _) = Journal::open(ckpt_dir.path(), JournalConfig::default()).unwrap();
            journal.checkpoint().unwrap();
        }

        let (_, raw) = Journal::open(raw_dir.path(), JournalConfig::default()).unwrap();
        let (_, compacted) = Journal::open(ckpt_dir.path(), JournalConfig::default()).unwrap();

        prop_assert!(!raw.torn_tail);
        prop_assert!(!compacted.torn_tail);
        prop_assert_eq!(normalise(&raw), normalise(&compacted));
    }
}

/// Dedup keys of every shape: what `hop_key` mints (16 lowercase hex
/// digits, stored packed) and everything that must stay text.
fn arb_dedup_key() -> impl Strategy<Value = String> {
    prop_oneof![
        "[0-9a-f]{16}",
        "[0-9A-F]{16}",
        "[0-9a-fA-F]{16}",
        "[0-9a-f]{15}",
        "[0-9a-f]{17}",
        "[0-9a-z:_-]{0,20}",
        Just(String::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// The dedup set packs hop-key-shaped keys, but whatever the key it
    /// answers membership exactly as a plain string set would, and comes
    /// back byte-identical through commit → checkpoint → replay, in that
    /// set's sorted order — on disk and in `Replay::committed`.
    #[test]
    fn dedup_keys_round_trip_through_checkpoint_and_replay(
        keys in prop::collection::vec(arb_dedup_key(), 0..32),
        probes in prop::collection::vec(arb_dedup_key(), 0..16),
    ) {
        let dir = TempDir::new("dedup_keys");
        let oracle: BTreeSet<String> = keys.iter().cloned().collect();
        let expected: Vec<String> = oracle.iter().cloned().collect();
        {
            let (journal, _) = Journal::open(dir.path(), JournalConfig::default()).unwrap();
            for key in &keys {
                journal.hop_committed(key).unwrap();
            }
            for key in keys.iter().chain(&probes) {
                prop_assert_eq!(journal.hop_seen(key), oracle.contains(key));
            }
            prop_assert_eq!(journal.stats().committed_hops, oracle.len() as u64);
            journal.checkpoint().unwrap();
        }

        let segments = list_segments(dir.path()).unwrap();
        prop_assert_eq!(segments.len(), 1);
        let scan = scan_segment(&segments[0].1).unwrap();
        match scan.records.as_slice() {
            [Record::Checkpoint(state)] => prop_assert_eq!(&state.committed, &expected),
            other => prop_assert!(false, "expected one checkpoint, got {other:?}"),
        }

        let (journal, replay) = Journal::open(dir.path(), JournalConfig::default()).unwrap();
        prop_assert_eq!(&replay.committed, &expected);
        for key in keys.iter().chain(&probes) {
            prop_assert_eq!(journal.hop_seen(key), oracle.contains(key));
        }
    }
}
