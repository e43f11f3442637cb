//! The journal proper: append API, fsync batching, rotation, checkpoint
//! and compaction, and boot-time replay.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::record::{CheckpointState, OpenHop, ParkedMail, Record, RecordKind};
use crate::segment::{frame_into, list_segments, scan_segment, segment_path, SEGMENT_MAGIC};
use crate::JournalError;

/// A deterministic crash point for fault-injection tests: after the `nth`
/// append of `kind` is durably on disk, the process aborts — equivalent to
/// a SIGKILL landing right after that record's fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Which record kind triggers the crash.
    pub kind: RecordKind,
    /// 1-based count of appends of `kind` before aborting.
    pub nth: u64,
}

impl CrashPoint {
    /// Parses `kind` or `kind:N` (e.g. `hop-begin:2`).
    pub fn parse(spec: &str) -> Option<CrashPoint> {
        let (kind, nth) = match spec.split_once(':') {
            Some((kind, nth)) => (kind, nth.parse().ok()?),
            None => (spec, 1),
        };
        if nth == 0 {
            return None;
        }
        Some(CrashPoint {
            kind: RecordKind::parse(kind)?,
            nth,
        })
    }
}

/// Journal tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// How many records may sit unsynced before a sync is forced (the
    /// backstop bounding completion-record loss). Write-ahead records
    /// (`mail-parked`, `hop-begin`, `checkpoint`) are always durable
    /// before their append returns, via group commit — a leader's fsync covers every
    /// record appended before it, so this knob also sets how large those
    /// shared flushes are allowed to grow.
    pub fsync_batch: usize,
    /// Rotate to a fresh segment once the tail reaches this many bytes.
    pub segment_bytes: u64,
    /// Optional fault-injection crash point.
    pub crash_after: Option<CrashPoint>,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            fsync_batch: 8,
            segment_bytes: 4 * 1024 * 1024,
            crash_after: None,
        }
    }
}

/// Counters and gauges describing one journal. All counters are since
/// open; gauges reflect the current directory state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended since open.
    pub records: u64,
    /// Framed bytes appended since open.
    pub bytes: u64,
    /// `fsync` calls issued since open.
    pub fsyncs: u64,
    /// Segment files currently on disk.
    pub segments: u64,
    /// Total bytes across all current segment files.
    pub live_bytes: u64,
    /// Checkpoints written since open.
    pub checkpoints: u64,
    /// Sequence number of the segment holding the latest checkpoint
    /// (meaningful when `checkpoints > 0` or the directory was opened
    /// with one on disk).
    pub last_checkpoint_seq: u64,
    /// Parked messages currently live in journal state.
    pub parked: u64,
    /// Hops begun but not yet committed or aborted.
    pub open_hops: u64,
    /// Terminal hop keys retained for deduplication.
    pub committed_hops: u64,
}

impl fmt::Display for JournalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "records={} bytes={} fsyncs={} segments={} live-bytes={} checkpoints={} \
             last-checkpoint-seg={} parked={} open-hops={} committed-hops={}",
            self.records,
            self.bytes,
            self.fsyncs,
            self.segments,
            self.live_bytes,
            self.checkpoints,
            self.last_checkpoint_seq,
            self.parked,
            self.open_hops,
            self.committed_hops,
        )
    }
}

/// What a boot-time replay recovered. The caller re-parks `parked`
/// (recomputing deadlines from the stored relative timeouts), re-installs
/// or re-ships `open_hops`, and seeds its hop-dedup set with `committed`
/// plus every open hop key.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Intact records scanned across all segments.
    pub records_scanned: u64,
    /// Segment files visited.
    pub segments_scanned: u64,
    /// Whether a torn tail was truncated away.
    pub torn_tail: bool,
    /// Parked-and-undelivered messages to restore.
    pub parked: Vec<ParkedMail>,
    /// Begun-but-unfinished hops to resume (inbound) or re-ship
    /// (outbound). Hops subsumed by a journaled continuation (their key
    /// appears as another hop's parent) are already excluded.
    pub open_hops: Vec<OpenHop>,
    /// Terminal hop keys (committed, aborted, or subsumed) for dedup.
    pub committed: Vec<String>,
}

impl Replay {
    /// Every hop key the journal has seen, terminal or open — the seed
    /// for the receiver-side dedup set.
    pub fn seen_hops(&self) -> impl Iterator<Item = &str> {
        self.committed
            .iter()
            .map(String::as_str)
            .chain(self.open_hops.iter().map(|h| h.key.as_str()))
    }
}

/// The terminal hop keys a journal keeps forever for dedup, stored
/// compactly. Every key `hop_key` mints is 16 lowercase hex digits — a
/// `u64` spelled out — and is kept as that `u64`: 8 bytes in a B-tree
/// node instead of a 24-byte `String` in the node plus a heap block for
/// its digits. A daemon visit adds two keys, so this is the set's growth
/// per hop. Any other key (a harness's root tour ids, uppercase or
/// odd-length hex) is kept verbatim. Lossless: a packed key formats back
/// to exactly the digits it came from. If hop keys widen (a longer
/// digest), the packed type must widen with them, or every key falls
/// back to text.
#[derive(Default)]
struct KeySet {
    packed: BTreeSet<u64>,
    text: BTreeSet<String>,
}

impl KeySet {
    fn pack(key: &str) -> Option<u64> {
        let hex = key.len() == 16
            && key
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
        hex.then(|| u64::from_str_radix(key, 16).expect("16 hex digits fit a u64"))
    }

    fn insert(&mut self, key: &str) {
        match KeySet::pack(key) {
            Some(packed) => {
                self.packed.insert(packed);
            }
            None => {
                self.text.insert(key.to_owned());
            }
        }
    }

    fn contains(&self, key: &str) -> bool {
        match KeySet::pack(key) {
            Some(packed) => self.packed.contains(&packed),
            None => self.text.contains(key),
        }
    }

    fn len(&self) -> usize {
        self.packed.len() + self.text.len()
    }

    /// Every key as text, in the byte order a `BTreeSet<String>` keeps.
    fn to_sorted_vec(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .packed
            .iter()
            .map(|k| format!("{k:016x}"))
            .chain(self.text.iter().cloned())
            .collect();
        keys.sort_unstable();
        keys
    }
}

/// The fold of all journal records: what must survive into a checkpoint.
#[derive(Default)]
struct LiveState {
    next_mail_key: u64,
    parked: BTreeMap<u64, (u64, Bytes)>,
    open_hops: BTreeMap<String, OpenHop>,
    committed: KeySet,
}

impl LiveState {
    fn finish_hop(&mut self, key: &str) {
        self.open_hops.remove(key);
        self.committed.insert(key);
    }

    /// Applies one record. The one subtlety is parent subsumption: a
    /// `HopBegin` whose `parent` names an earlier inbound hop proves that
    /// hop's task progressed past its own send, so the parent must never
    /// be re-run even though its `HopCommitted` (written only when the
    /// task finishes) may be missing. Marking the parent terminal here
    /// makes every crash point between the child's begin and the parent's
    /// commit replay duplicate-free.
    fn apply(&mut self, record: &Record) {
        match record {
            Record::MailParked {
                key,
                timeout_nanos,
                wire,
            } => {
                self.parked.insert(*key, (*timeout_nanos, wire.clone()));
                self.next_mail_key = self.next_mail_key.max(key + 1);
            }
            Record::MailDelivered { key } => {
                self.parked.remove(key);
            }
            Record::HopBegin {
                key,
                parent,
                inbound,
                to,
                wire,
            } => {
                if self.committed.contains(key) {
                    // A re-journaled begin for a hop that already reached a
                    // terminal state (e.g. a sender retry raced the first
                    // arrival's commit) must not reopen it.
                    return;
                }
                self.open_hops.insert(
                    key.clone(),
                    OpenHop {
                        key: key.clone(),
                        parent: parent.clone(),
                        inbound: *inbound,
                        to: to.clone(),
                        wire: wire.clone(),
                    },
                );
                if let Some(parent) = parent {
                    self.finish_hop(&parent.clone());
                }
            }
            Record::HopCommitted { key } | Record::HopAborted { key } => {
                self.finish_hop(&key.clone());
            }
            Record::Checkpoint(state) => {
                self.next_mail_key = state.next_mail_key;
                self.parked = state
                    .parked
                    .iter()
                    .map(|m| (m.key, (m.timeout_nanos, m.wire.clone())))
                    .collect();
                self.open_hops = state
                    .open_hops
                    .iter()
                    .map(|h| (h.key.clone(), h.clone()))
                    .collect();
                self.committed = KeySet::default();
                for key in &state.committed {
                    self.committed.insert(key);
                }
            }
        }
    }

    fn to_checkpoint(&self) -> CheckpointState {
        CheckpointState {
            next_mail_key: self.next_mail_key,
            parked: self
                .parked
                .iter()
                .map(|(&key, (timeout_nanos, wire))| ParkedMail {
                    key,
                    timeout_nanos: *timeout_nanos,
                    wire: wire.clone(),
                })
                .collect(),
            open_hops: self.open_hops.values().cloned().collect(),
            committed: self.committed.to_sorted_vec(),
        }
    }
}

struct Inner {
    dir: PathBuf,
    config: JournalConfig,
    seq: u64,
    file: Arc<fs::File>,
    seg_len: u64,
    unsynced: usize,
    /// While a [`GroupScope`] is live, frames accumulate here and reach
    /// the file as one `write(2)` when the group ends — a burst of
    /// records costs one syscall instead of one each.
    group_buf: Vec<u8>,
    grouping: bool,
    /// Shared with [`Journal::synced`]: the durable LSN horizon, published
    /// by every sync path so [`Journal::ensure_synced`] can fast-path.
    synced: Arc<AtomicU64>,
    state: LiveState,
    stats: JournalStats,
    appended: [u64; 6],
    frame: Vec<u8>,
}

/// A durable, append-only journal of firewall state transitions.
///
/// Thread-safe behind an internal mutex; cheap to share as
/// `Arc<Journal>`. All append methods return only after the record is at
/// least buffered in the OS; write-ahead kinds return only after fsync.
///
/// Syncs group-commit: a write-ahead append releases the append lock
/// before fsyncing, and one fsync covers every record appended before
/// it. Under concurrency (listener connection threads, the scheduler)
/// the fsync rate decouples from the append rate — callers that arrive
/// while a leader is syncing either find their record already covered or
/// elect the next leader, so a burst of N write-ahead appends pays for a
/// handful of fsyncs instead of N.
pub struct Journal {
    inner: Mutex<Inner>,
    /// Serializes fsync leaders (never held while `inner` is held first —
    /// lock order is `sync_lock` then `inner`).
    sync_lock: Mutex<()>,
    /// Highest record LSN (`stats.records` at append time) known durable.
    synced: Arc<AtomicU64>,
}

/// Appender passed to [`Journal::with_group`]: records written through
/// it are made durable by one shared fsync when the closure returns.
pub struct GroupScope<'a> {
    inner: &'a mut Inner,
}

impl GroupScope<'_> {
    /// Journals a parked message; see [`Journal::mail_parked`].
    ///
    /// # Errors
    ///
    /// I/O failure on write or rotation.
    pub fn mail_parked(&mut self, timeout: Duration, wire: &Bytes) -> Result<u64, JournalError> {
        let key = self.inner.state.next_mail_key;
        self.inner.append(&Record::MailParked {
            key,
            timeout_nanos: timeout.as_nanos() as u64,
            wire: wire.clone(),
        })?;
        Ok(key)
    }

    /// Journals a delivery; see [`Journal::mail_delivered`].
    ///
    /// # Errors
    ///
    /// I/O failure on write or rotation.
    pub fn mail_delivered(&mut self, key: u64) -> Result<(), JournalError> {
        self.inner
            .append(&Record::MailDelivered { key })
            .map(|_| ())
    }

    /// Journals a hop begin; see [`Journal::hop_begin`].
    ///
    /// # Errors
    ///
    /// I/O failure on write or rotation.
    pub fn hop_begin(
        &mut self,
        key: &str,
        parent: Option<&str>,
        inbound: bool,
        to: &str,
        wire: &Bytes,
    ) -> Result<(), JournalError> {
        self.inner
            .append(&Record::HopBegin {
                key: key.to_owned(),
                parent: parent.map(str::to_owned),
                inbound,
                to: to.to_owned(),
                wire: wire.clone(),
            })
            .map(|_| ())
    }

    /// Journals hop completion; see [`Journal::hop_committed`].
    ///
    /// # Errors
    ///
    /// I/O failure on write or rotation.
    pub fn hop_committed(&mut self, key: &str) -> Result<(), JournalError> {
        self.inner
            .append(&Record::HopCommitted {
                key: key.to_owned(),
            })
            .map(|_| ())
    }

    /// Journals hop abandonment; see [`Journal::hop_aborted`].
    ///
    /// # Errors
    ///
    /// I/O failure on write or rotation.
    pub fn hop_aborted(&mut self, key: &str) -> Result<(), JournalError> {
        self.inner
            .append(&Record::HopAborted {
                key: key.to_owned(),
            })
            .map(|_| ())
    }
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Journal")
            .field("dir", &inner.dir)
            .field("seq", &inner.seq)
            .field("stats", &inner.stats)
            .finish()
    }
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`, replaying any
    /// existing segments. Torn tails are truncated to the last intact
    /// record so subsequent appends extend a clean stream.
    ///
    /// # Errors
    ///
    /// I/O failures opening, scanning, or truncating segment files.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: JournalConfig,
    ) -> Result<(Journal, Replay), JournalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let segments = list_segments(&dir)?;

        let mut replay = Replay::default();
        let mut state = LiveState::default();
        let mut live_bytes = 0u64;
        let mut last_checkpoint_seq = 0u64;
        let mut had_checkpoint = false;
        let mut tail: Option<(u64, PathBuf, u64)> = None; // (seq, path, valid_len)
        for (idx, (seq, path)) in segments.iter().enumerate() {
            let scan = scan_segment(path)?;
            replay.segments_scanned += 1;
            replay.records_scanned += scan.records.len() as u64;
            for record in &scan.records {
                if record.kind() == RecordKind::Checkpoint {
                    last_checkpoint_seq = *seq;
                    had_checkpoint = true;
                }
                state.apply(record);
            }
            live_bytes += scan.valid_len;
            tail = Some((*seq, path.clone(), scan.valid_len));
            if scan.torn {
                replay.torn_tail = true;
                // Records past a torn point are unreachable on the next
                // scan too; drop any higher-numbered segments so appends
                // resume directly after the last intact record.
                for (_, stale) in &segments[idx + 1..] {
                    fs::remove_file(stale)?;
                }
                break;
            }
        }

        let (seq, file, seg_len) = match tail {
            Some((seq, path, valid_len)) => {
                let file = fs::OpenOptions::new().write(true).open(&path)?;
                if valid_len < SEGMENT_MAGIC.len() as u64 {
                    // The magic itself was torn; rebuild an empty segment.
                    file.set_len(0)?;
                    let mut file = file;
                    file.write_all(SEGMENT_MAGIC)?;
                    file.sync_data()?;
                    live_bytes += SEGMENT_MAGIC.len() as u64;
                    (seq, file, SEGMENT_MAGIC.len() as u64)
                } else {
                    file.set_len(valid_len)?;
                    let file = fs::OpenOptions::new().append(true).open(&path)?;
                    (seq, file, valid_len)
                }
            }
            None => {
                let (file, len) = create_segment(&dir, 0)?;
                live_bytes = len;
                (0, file, len)
            }
        };

        replay.parked = state
            .parked
            .iter()
            .map(|(&key, (timeout_nanos, wire))| ParkedMail {
                key,
                timeout_nanos: *timeout_nanos,
                wire: wire.clone(),
            })
            .collect();
        replay.open_hops = state.open_hops.values().cloned().collect();
        replay.committed = state.committed.to_sorted_vec();

        let segment_count = if replay.segments_scanned == 0 {
            1
        } else {
            replay.segments_scanned
        };
        let stats = JournalStats {
            segments: segment_count,
            live_bytes,
            last_checkpoint_seq: if had_checkpoint {
                last_checkpoint_seq
            } else {
                0
            },
            parked: state.parked.len() as u64,
            open_hops: state.open_hops.len() as u64,
            committed_hops: state.committed.len() as u64,
            ..JournalStats::default()
        };

        let synced = Arc::new(AtomicU64::new(0));
        Ok((
            Journal {
                inner: Mutex::new(Inner {
                    dir,
                    config,
                    seq,
                    file: Arc::new(file),
                    seg_len,
                    unsynced: 0,
                    group_buf: Vec::new(),
                    grouping: false,
                    synced: Arc::clone(&synced),
                    state,
                    stats,
                    appended: [0; 6],
                    frame: Vec::new(),
                }),
                sync_lock: Mutex::new(()),
                synced,
            },
            replay,
        ))
    }

    /// Journals a parked message and returns its sequence key. Synced
    /// before returning (write-ahead: the park must survive a crash that
    /// the sender believes was an accepted delivery).
    ///
    /// # Errors
    ///
    /// I/O failure on write, rotation, or fsync.
    pub fn mail_parked(&self, timeout: Duration, wire: &Bytes) -> Result<u64, JournalError> {
        let (key, lsn) = {
            let mut inner = self.inner.lock();
            let key = inner.state.next_mail_key;
            let lsn = inner.append(&Record::MailParked {
                key,
                timeout_nanos: timeout.as_nanos() as u64,
                wire: wire.clone(),
            })?;
            (key, lsn)
        };
        self.ensure_synced(lsn)?;
        Ok(key)
    }

    /// Journals that the parked message `key` left the queue (delivered
    /// to its agent or expired). Fsync-batched.
    ///
    /// # Errors
    ///
    /// I/O failure on write, rotation, or fsync.
    pub fn mail_delivered(&self, key: u64) -> Result<(), JournalError> {
        let due = {
            let mut inner = self.inner.lock();
            let lsn = inner.append(&Record::MailDelivered { key })?;
            inner.sync_due().then_some(lsn)
        };
        due.map_or(Ok(()), |lsn| self.ensure_synced(lsn))
    }

    /// Makes every record appended at or before `lsn` durable, joining or
    /// leading a group commit. Fast path: a concurrent leader's fsync
    /// already covered `lsn`. Slow path: take the sync lock, snapshot the
    /// current tail file and tip LSN under the append lock, fsync with
    /// *neither* append nor state blocked, then publish the new horizon.
    ///
    /// Rotation safety: `rotate()` fsyncs the outgoing file while holding
    /// the append lock, so any record at or below the snapshot tip is
    /// either in the snapshot file or already durable in an earlier one.
    ///
    /// # Errors
    ///
    /// I/O failure on fsync.
    pub fn ensure_synced(&self, lsn: u64) -> Result<(), JournalError> {
        if self.synced.load(Ordering::Acquire) >= lsn {
            return Ok(());
        }
        let _leader = self.sync_lock.lock();
        if self.synced.load(Ordering::Acquire) >= lsn {
            return Ok(());
        }
        // Commit window: give concurrently-appending threads one
        // scheduling slot to land their records before the tip is
        // snapshotted, so this fsync covers them too and their own
        // `ensure_synced` takes the fast path instead of another flush.
        std::thread::yield_now();
        let (file, tip) = {
            let inner = self.inner.lock();
            (Arc::clone(&inner.file), inner.stats.records)
        };
        file.sync_data()?;
        self.synced.fetch_max(tip, Ordering::Release);
        let mut inner = self.inner.lock();
        inner.stats.fsyncs += 1;
        // Exactly the records appended while the flush ran remain unsynced.
        inner.unsynced = usize::try_from(inner.stats.records - tip).unwrap_or(usize::MAX);
        Ok(())
    }

    /// Runs `f` with a [`GroupScope`] appender under the append lock, then
    /// makes everything it wrote durable with one shared group-commit
    /// fsync before returning. This is the bulk write-ahead path: a burst
    /// of parks/begins journaled through one `with_group` costs one fsync
    /// (often zero, when a concurrent leader's sync already covers it)
    /// instead of one per record.
    ///
    /// # Errors
    ///
    /// I/O failure on write, rotation, or fsync; errors from `f`.
    pub fn with_group<R>(
        &self,
        f: impl FnOnce(&mut GroupScope<'_>) -> Result<R, JournalError>,
    ) -> Result<R, JournalError> {
        let (result, lsn) = {
            let mut inner = self.inner.lock();
            inner.grouping = true;
            let result = f(&mut GroupScope { inner: &mut inner });
            inner.grouping = false;
            // Even on a closure error the frames already appended have
            // been counted and applied, so they must reach the file.
            let flush = inner.flush_group_buf();
            let result = result?;
            flush?;
            (result, inner.stats.records)
        };
        self.ensure_synced(lsn)?;
        Ok(result)
    }

    /// Journals a hop begin. Synced before returning (write-ahead: the
    /// sender must not transmit, and the receiver must not ack, a hop
    /// that a crash would forget).
    ///
    /// # Errors
    ///
    /// I/O failure on write, rotation, or fsync.
    pub fn hop_begin(
        &self,
        key: &str,
        parent: Option<&str>,
        inbound: bool,
        to: &str,
        wire: &Bytes,
    ) -> Result<(), JournalError> {
        let lsn = self.append_hop_begin(key, parent, inbound, to, wire)?;
        self.ensure_synced(lsn)
    }

    /// Appends a hop begin *without* syncing it and returns its LSN: the
    /// write-ahead barrier's half of [`Journal::hop_begin`]. The caller
    /// holds the frame back until [`Journal::ensure_synced`] has covered
    /// the LSN, so one fsync can make a whole turn's begins durable.
    ///
    /// # Errors
    ///
    /// I/O failure on write or rotation.
    pub fn append_hop_begin(
        &self,
        key: &str,
        parent: Option<&str>,
        inbound: bool,
        to: &str,
        wire: &Bytes,
    ) -> Result<u64, JournalError> {
        self.inner.lock().append(&Record::HopBegin {
            key: key.to_owned(),
            parent: parent.map(str::to_owned),
            inbound,
            to: to.to_owned(),
            wire: wire.clone(),
        })
    }

    /// The receiver's door: journals an inbound hop begin *unless* the key
    /// has already been seen (open or terminal), making this the dedup
    /// point for sender retries and replayed re-ships. Returns `true` when
    /// the hop is fresh and was journaled (synced before returning, so an
    /// ack sent afterwards never outlives the record), `false` when the
    /// arrival is a duplicate that should be acked but not executed.
    ///
    /// # Errors
    ///
    /// I/O failure on write, rotation, or fsync.
    pub fn begin_inbound_hop(
        &self,
        key: &str,
        parent: Option<&str>,
        wire: &Bytes,
    ) -> Result<bool, JournalError> {
        let lsn = {
            let mut inner = self.inner.lock();
            if inner.state.committed.contains(key) || inner.state.open_hops.contains_key(key) {
                return Ok(false);
            }
            inner.append(&Record::HopBegin {
                key: key.to_owned(),
                parent: parent.map(str::to_owned),
                inbound: true,
                to: String::new(),
                wire: wire.clone(),
            })?
        };
        self.ensure_synced(lsn)?;
        Ok(true)
    }

    /// Whether `key` is known to the journal, open or terminal.
    pub fn hop_seen(&self, key: &str) -> bool {
        let inner = self.inner.lock();
        inner.state.committed.contains(key) || inner.state.open_hops.contains_key(key)
    }

    /// Journals hop completion. Fsync-batched: losing this record only
    /// causes a deduplicated retry on replay, never a duplicate run.
    ///
    /// # Errors
    ///
    /// I/O failure on write, rotation, or fsync.
    pub fn hop_committed(&self, key: &str) -> Result<(), JournalError> {
        let due = {
            let mut inner = self.inner.lock();
            let lsn = inner.append(&Record::HopCommitted {
                key: key.to_owned(),
            })?;
            inner.sync_due().then_some(lsn)
        };
        due.map_or(Ok(()), |lsn| self.ensure_synced(lsn))
    }

    /// Journals hop abandonment (retry budget exhausted). Fsync-batched.
    ///
    /// # Errors
    ///
    /// I/O failure on write, rotation, or fsync.
    pub fn hop_aborted(&self, key: &str) -> Result<(), JournalError> {
        let due = {
            let mut inner = self.inner.lock();
            let lsn = inner.append(&Record::HopAborted {
                key: key.to_owned(),
            })?;
            inner.sync_due().then_some(lsn)
        };
        due.map_or(Ok(()), |lsn| self.ensure_synced(lsn))
    }

    /// Forces any batched records to disk.
    ///
    /// # Errors
    ///
    /// I/O failure on fsync.
    pub fn sync(&self) -> Result<(), JournalError> {
        self.inner.lock().sync_locked()
    }

    /// Writes a checkpoint carrying the full live state into a fresh
    /// segment, then deletes every older segment. After this, replay
    /// cost is proportional to live state, not journal history.
    ///
    /// # Errors
    ///
    /// I/O failure writing the checkpoint or removing old segments.
    pub fn checkpoint(&self) -> Result<(), JournalError> {
        let mut inner = self.inner.lock();
        inner.rotate()?;
        let checkpoint = Record::Checkpoint(inner.state.to_checkpoint());
        inner.append(&checkpoint)?;
        inner.sync_locked()?;
        let keep = inner.seq;
        for (seq, path) in list_segments(&inner.dir)? {
            if seq < keep {
                fs::remove_file(path)?;
            }
        }
        sync_dir(&inner.dir)?;
        inner.stats.checkpoints += 1;
        inner.stats.last_checkpoint_seq = keep;
        inner.stats.segments = 1;
        inner.stats.live_bytes = inner.seg_len;
        Ok(())
    }

    /// Current counters and gauges.
    pub fn stats(&self) -> JournalStats {
        let inner = self.inner.lock();
        let mut stats = inner.stats;
        stats.parked = inner.state.parked.len() as u64;
        stats.open_hops = inner.state.open_hops.len() as u64;
        stats.committed_hops = inner.state.committed.len() as u64;
        stats
    }
}

impl Inner {
    /// Whether the fsync-batch backstop requires a sync now.
    fn sync_due(&self) -> bool {
        self.unsynced >= self.config.fsync_batch.max(1)
    }

    /// Writes any group-buffered frames through to the file. Must run
    /// before anything syncs or swaps the file, and before the append
    /// lock is released at the end of a group.
    fn flush_group_buf(&mut self) -> Result<(), JournalError> {
        if !self.group_buf.is_empty() {
            (&*self.file).write_all(&self.group_buf)?;
            self.group_buf.clear();
        }
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), JournalError> {
        // Make the outgoing segment durable before any append lands in
        // the next one — this is what lets `ensure_synced` reason about a
        // single tail file: records at or below a snapshot tip are either
        // in that file or already synced here.
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        self.unsynced = 0;
        self.synced.fetch_max(self.stats.records, Ordering::Release);
        self.seq += 1;
        let (file, len) = create_segment(&self.dir, self.seq)?;
        self.file = Arc::new(file);
        self.seg_len = len;
        self.stats.segments += 1;
        self.stats.live_bytes += len;
        Ok(())
    }

    fn sync_locked(&mut self) -> Result<(), JournalError> {
        self.flush_group_buf()?;
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
            self.stats.fsyncs += 1;
            self.synced.fetch_max(self.stats.records, Ordering::Release);
        }
        Ok(())
    }

    /// Appends one record and returns its LSN (the running record count).
    ///
    /// Never fsyncs — durability is the caller's job via
    /// [`Journal::ensure_synced`], *after* releasing the append lock, so
    /// that one fsync can cover every record appended before it and other
    /// threads keep appending while the disk flushes. Even the
    /// `fsync_batch` backstop for completion records is enforced by the
    /// public append methods through `ensure_synced`, never in here.
    fn append(&mut self, record: &Record) -> Result<u64, JournalError> {
        if self.seg_len >= self.config.segment_bytes {
            self.flush_group_buf()?;
            self.rotate()?;
        }
        let frame_len = if self.grouping {
            // Frame straight into the group buffer; the whole group
            // reaches the file as one write when the scope ends.
            let start = self.group_buf.len();
            frame_into(&mut self.group_buf, record);
            (self.group_buf.len() - start) as u64
        } else {
            let mut frame = std::mem::take(&mut self.frame);
            frame.clear();
            frame_into(&mut frame, record);
            let result = (&*self.file).write_all(&frame);
            let frame_len = frame.len() as u64;
            self.frame = frame;
            result?;
            frame_len
        };
        self.seg_len += frame_len;
        self.stats.records += 1;
        self.stats.bytes += frame_len;
        self.stats.live_bytes += frame_len;
        self.state.apply(record);
        let kind = record.kind();
        self.appended[kind.index()] += 1;
        self.unsynced += 1;
        if let Some(crash) = self.config.crash_after {
            if crash.kind == kind && self.appended[kind.index()] == crash.nth {
                // The record that triggers the crash must be durable first:
                // the scenario modelled is "SIGKILL right after the fsync".
                let _ = self.flush_group_buf();
                let _ = self.file.sync_data();
                eprintln!(
                    "journal: crash injection after {} #{}",
                    kind.name(),
                    crash.nth
                );
                std::process::abort();
            }
        }
        Ok(self.stats.records)
    }
}

fn create_segment(dir: &Path, seq: u64) -> Result<(fs::File, u64), JournalError> {
    let path = segment_path(dir, seq);
    let mut file = fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)?;
    file.write_all(SEGMENT_MAGIC)?;
    file.sync_data()?;
    sync_dir(dir)?;
    Ok((file, SEGMENT_MAGIC.len() as u64))
}

/// Persists directory entries (new/removed segment files) themselves.
fn sync_dir(dir: &Path) -> Result<(), JournalError> {
    // Directory fsync is best-effort: some filesystems refuse to sync a
    // directory handle, and losing a whole just-created segment is
    // recoverable (it is replayed as absent).
    if let Ok(handle) = fs::File::open(dir) {
        let _ = handle.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "taxj-{}-{}-{tag}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-")
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn wire(tag: &[u8]) -> Bytes {
        Bytes::copy_from_slice(tag)
    }

    #[test]
    fn park_deliver_replay() {
        let dir = tmp_dir("park");
        {
            let (journal, replay) = Journal::open(&dir, JournalConfig::default()).unwrap();
            assert_eq!(replay.records_scanned, 0);
            let k1 = journal
                .mail_parked(Duration::from_secs(30), &wire(b"m1"))
                .unwrap();
            let k2 = journal
                .mail_parked(Duration::from_secs(5), &wire(b"m2"))
                .unwrap();
            assert_ne!(k1, k2);
            journal.mail_delivered(k1).unwrap();
            journal.sync().unwrap();
        }
        let (journal, replay) = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(replay.parked.len(), 1);
        assert_eq!(replay.parked[0].wire.as_ref(), b"m2");
        assert_eq!(replay.parked[0].timeout_nanos, 5_000_000_000);
        assert!(!replay.torn_tail);
        // A new park after replay gets a fresh key.
        let k3 = journal
            .mail_parked(Duration::from_secs(1), &wire(b"m3"))
            .unwrap();
        assert!(k3 > replay.parked[0].key);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hop_lifecycle_and_parent_subsumption() {
        let dir = tmp_dir("hops");
        {
            let (journal, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
            // Inbound hop k1 runs; its task ships child hop k2; the
            // daemon dies before k1's commit is written.
            journal
                .hop_begin("k1", None, true, "", &wire(b"h1"))
                .unwrap();
            journal
                .hop_begin("k2", Some("k1"), false, "beta", &wire(b"h2"))
                .unwrap();
            journal.hop_committed("k2").unwrap();
        }
        let (_, replay) = Journal::open(&dir, JournalConfig::default()).unwrap();
        // k1 is subsumed by k2's begin: nothing to resume, both deduped.
        assert!(replay.open_hops.is_empty());
        let mut committed = replay.committed.clone();
        committed.sort();
        assert_eq!(committed, vec!["k1".to_owned(), "k2".to_owned()]);
        let seen: Vec<&str> = replay.seen_hops().collect();
        assert_eq!(seen.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_inbound_hop_is_resumed() {
        let dir = tmp_dir("resume");
        {
            let (journal, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
            journal
                .hop_begin("k9", None, true, "", &wire(b"agent"))
                .unwrap();
        }
        let (_, replay) = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(replay.open_hops.len(), 1);
        assert!(replay.open_hops[0].inbound);
        assert_eq!(replay.open_hops[0].wire.as_ref(), b"agent");
        assert!(replay.seen_hops().any(|k| k == "k9"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_preserves_state() {
        let dir = tmp_dir("ckpt");
        let config = JournalConfig {
            segment_bytes: 128,
            ..JournalConfig::default()
        };
        {
            let (journal, _) = Journal::open(&dir, config).unwrap();
            for i in 0..20 {
                let key = journal
                    .mail_parked(Duration::from_secs(30), &wire(b"bulk-message"))
                    .unwrap();
                if i % 2 == 0 {
                    journal.mail_delivered(key).unwrap();
                }
            }
            journal.hop_begin("h", None, true, "", &wire(b"a")).unwrap();
            assert!(journal.stats().segments > 1);
            journal.checkpoint().unwrap();
            let stats = journal.stats();
            assert_eq!(stats.segments, 1);
            assert_eq!(stats.parked, 10);
        }
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        let (_, replay) = Journal::open(&dir, config).unwrap();
        assert_eq!(replay.parked.len(), 10);
        assert_eq!(replay.open_hops.len(), 1);
        // Only the checkpoint record remains to scan.
        assert_eq!(replay.records_scanned, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncated_then_appendable() {
        let dir = tmp_dir("torn");
        {
            let (journal, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
            journal.hop_committed("a").unwrap();
            journal.hop_committed("b").unwrap();
            journal.sync().unwrap();
        }
        // Tear the tail mid-frame.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 3]).unwrap();

        let (journal, replay) = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.records_scanned, 1);
        journal.hop_committed("c").unwrap();
        journal.sync().unwrap();
        drop(journal);

        let (_, replay) = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.records_scanned, 2);
        let mut committed = replay.committed;
        committed.sort();
        assert_eq!(committed, vec!["a".to_owned(), "c".to_owned()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_batching_policy() {
        let dir = tmp_dir("fsync");
        let config = JournalConfig {
            fsync_batch: 4,
            ..JournalConfig::default()
        };
        let (journal, _) = Journal::open(&dir, config).unwrap();
        let base = journal.stats().fsyncs;
        // Write-ahead records sync every time.
        journal
            .hop_begin("w", None, false, "beta", &wire(b"x"))
            .unwrap();
        assert_eq!(journal.stats().fsyncs, base + 1);
        // Batched records sync once per `fsync_batch`.
        for _ in 0..3 {
            journal.hop_committed("w").unwrap();
        }
        assert_eq!(journal.stats().fsyncs, base + 1);
        journal.hop_committed("w").unwrap();
        assert_eq!(journal.stats().fsyncs, base + 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inbound_door_dedups_retries_and_committed_hops() {
        let dir = tmp_dir("door");
        let (journal, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert!(journal.begin_inbound_hop("k1", None, &wire(b"a")).unwrap());
        // A sender retry of an open hop is suppressed.
        assert!(!journal.begin_inbound_hop("k1", None, &wire(b"a")).unwrap());
        assert!(journal.hop_seen("k1"));
        journal.hop_committed("k1").unwrap();
        // And a retry after commit stays suppressed, without reopening.
        assert!(!journal.begin_inbound_hop("k1", None, &wire(b"a")).unwrap());
        assert_eq!(journal.stats().open_hops, 0);
        assert_eq!(journal.stats().committed_hops, 1);
        drop(journal);

        // The dedup survives a restart via replay.
        let (journal, replay) = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert!(replay.seen_hops().any(|k| k == "k1"));
        assert!(!journal.begin_inbound_hop("k1", None, &wire(b"a")).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn late_begin_does_not_reopen_committed_hop() {
        let dir = tmp_dir("reopen");
        {
            let (journal, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
            // Raw hop_begin (the sender-side path) after a commit of the
            // same key: replay must still see the hop as terminal.
            journal.hop_committed("k").unwrap();
            journal.hop_begin("k", None, true, "", &wire(b"x")).unwrap();
        }
        let (_, replay) = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert!(replay.open_hops.is_empty());
        assert_eq!(replay.committed, vec!["k".to_owned()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dedup_set_packs_only_minted_hop_keys() {
        let mut keys = KeySet::default();
        for key in ["0123456789abcdef", "ffffffffffffffff", "0000000000000000"] {
            keys.insert(key);
        }
        for key in ["0123456789ABCDEF", "0123456789abcde", "bench-7", ""] {
            keys.insert(key);
        }
        assert_eq!((keys.packed.len(), keys.text.len()), (3, 4));
        assert!(keys.contains("0000000000000000") && !keys.contains("0000000000000001"));
        assert!(keys.contains("0123456789ABCDEF") && !keys.contains("0123456789aBcdef"));
    }

    #[test]
    fn crash_point_parse() {
        let point = CrashPoint::parse("hop-begin:2").unwrap();
        assert_eq!(point.kind, RecordKind::HopBegin);
        assert_eq!(point.nth, 2);
        let point = CrashPoint::parse("mail-parked").unwrap();
        assert_eq!(point.nth, 1);
        assert!(CrashPoint::parse("hop-begin:0").is_none());
        assert!(CrashPoint::parse("nope").is_none());
    }
}
