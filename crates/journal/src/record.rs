//! Typed journal records and their byte-level encoding.
//!
//! Every record is encoded as a tag byte followed by fixed-order fields
//! (little-endian integers, `u32`-length-prefixed strings and byte
//! buffers). The encoding is deliberately manual and deterministic: the
//! journal's torn-tail recovery and checkpoint-equivalence proptests
//! compare byte streams, so there must be exactly one encoding per record.

use bytes::Bytes;

use crate::JournalError;

/// The discriminant of a [`Record`], used for fsync policy, per-kind append
/// counters, and crash-point injection (`taxd --crash-after-record`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// A message was parked in the pending queue.
    MailParked,
    /// A previously parked message left the queue (delivered or expired).
    MailDelivered,
    /// An agent hop (migration) started: journaled by the sender before
    /// the wire send, and by the receiver before the transfer is acked.
    HopBegin,
    /// A hop finished: the sender saw the ack, or the receiver ran the
    /// agent's task to completion.
    HopCommitted,
    /// A hop was abandoned after exhausting its retry budget.
    HopAborted,
    /// A compaction point carrying the full live state; resets replay.
    Checkpoint,
}

impl RecordKind {
    /// All kinds, in tag order.
    pub const ALL: [RecordKind; 6] = [
        RecordKind::MailParked,
        RecordKind::MailDelivered,
        RecordKind::HopBegin,
        RecordKind::HopCommitted,
        RecordKind::HopAborted,
        RecordKind::Checkpoint,
    ];

    /// Stable kebab-case name (used by `--crash-after-record` and stats).
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::MailParked => "mail-parked",
            RecordKind::MailDelivered => "mail-delivered",
            RecordKind::HopBegin => "hop-begin",
            RecordKind::HopCommitted => "hop-committed",
            RecordKind::HopAborted => "hop-aborted",
            RecordKind::Checkpoint => "checkpoint",
        }
    }

    /// Parses the kebab-case form produced by [`RecordKind::name`].
    pub fn parse(name: &str) -> Option<RecordKind> {
        RecordKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Index into per-kind counter arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            RecordKind::MailParked => 0,
            RecordKind::MailDelivered => 1,
            RecordKind::HopBegin => 2,
            RecordKind::HopCommitted => 3,
            RecordKind::HopAborted => 4,
            RecordKind::Checkpoint => 5,
        }
    }
}

/// A hop that has begun but not yet committed, as carried in checkpoints
/// and replay output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenHop {
    /// Content-derived dedup key of the hop.
    pub key: String,
    /// Key of the inbound hop whose task issued this one, if any.
    pub parent: Option<String>,
    /// `true` if this host received the hop (replay re-installs the
    /// agent); `false` if this host sent it (replay re-ships the frame).
    pub inbound: bool,
    /// Destination host of an outbound hop (empty for inbound).
    pub to: String,
    /// The full message wire encoding, enough to re-ship or re-install.
    pub wire: Bytes,
}

/// A parked message, as carried in checkpoints and replay output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParkedMail {
    /// Journal-assigned sequence key.
    pub key: u64,
    /// The park's *relative* timeout in nanoseconds. Deadlines are never
    /// persisted as absolute instants: the scheduler clock restarts at
    /// zero on every boot, so replay recomputes `deadline = now + timeout`.
    pub timeout_nanos: u64,
    /// The parked message's wire encoding.
    pub wire: Bytes,
}

/// The full live state embedded in a [`Record::Checkpoint`]: everything a
/// replay needs so that all earlier segments can be deleted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointState {
    /// Next mail sequence key to hand out.
    pub next_mail_key: u64,
    /// Messages parked and not yet delivered.
    pub parked: Vec<ParkedMail>,
    /// Hops begun and not yet committed or aborted.
    pub open_hops: Vec<OpenHop>,
    /// Terminal hop keys retained for deduplication of late retries.
    pub committed: Vec<String>,
}

/// One journal record. See [`RecordKind`] for the semantics of each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A message entered the pending queue.
    MailParked {
        /// Journal-assigned sequence key.
        key: u64,
        /// Relative timeout in nanoseconds (see [`ParkedMail`]).
        timeout_nanos: u64,
        /// Message wire encoding.
        wire: Bytes,
    },
    /// The parked message with `key` left the queue.
    MailDelivered {
        /// Key assigned by the matching [`Record::MailParked`].
        key: u64,
    },
    /// A hop began (see [`OpenHop`] for field meanings).
    HopBegin {
        /// Content-derived dedup key.
        key: String,
        /// Inbound hop whose task issued this one, if any.
        parent: Option<String>,
        /// Receiver side (`true`) or sender side (`false`).
        inbound: bool,
        /// Destination host for outbound hops (empty for inbound).
        to: String,
        /// Message wire encoding.
        wire: Bytes,
    },
    /// The hop with `key` finished.
    HopCommitted {
        /// The hop's dedup key.
        key: String,
    },
    /// The hop with `key` was abandoned.
    HopAborted {
        /// The hop's dedup key.
        key: String,
    },
    /// Compaction point; resets replay state to the embedded snapshot.
    Checkpoint(CheckpointState),
}

impl Record {
    /// This record's kind.
    pub fn kind(&self) -> RecordKind {
        match self {
            Record::MailParked { .. } => RecordKind::MailParked,
            Record::MailDelivered { .. } => RecordKind::MailDelivered,
            Record::HopBegin { .. } => RecordKind::HopBegin,
            Record::HopCommitted { .. } => RecordKind::HopCommitted,
            Record::HopAborted { .. } => RecordKind::HopAborted,
            Record::Checkpoint(_) => RecordKind::Checkpoint,
        }
    }

    /// Appends the encoding of `self` to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Record::MailParked {
                key,
                timeout_nanos,
                wire,
            } => {
                out.push(1);
                put_u64(out, *key);
                put_u64(out, *timeout_nanos);
                put_bytes(out, wire);
            }
            Record::MailDelivered { key } => {
                out.push(2);
                put_u64(out, *key);
            }
            Record::HopBegin {
                key,
                parent,
                inbound,
                to,
                wire,
            } => {
                out.push(3);
                put_str(out, key);
                put_opt_str(out, parent.as_deref());
                out.push(u8::from(*inbound));
                put_str(out, to);
                put_bytes(out, wire);
            }
            Record::HopCommitted { key } => {
                out.push(4);
                put_str(out, key);
            }
            Record::HopAborted { key } => {
                out.push(5);
                put_str(out, key);
            }
            Record::Checkpoint(state) => {
                out.push(6);
                put_u64(out, state.next_mail_key);
                put_u32(out, state.parked.len() as u32);
                for mail in &state.parked {
                    put_u64(out, mail.key);
                    put_u64(out, mail.timeout_nanos);
                    put_bytes(out, &mail.wire);
                }
                put_u32(out, state.open_hops.len() as u32);
                for hop in &state.open_hops {
                    put_str(out, &hop.key);
                    put_opt_str(out, hop.parent.as_deref());
                    out.push(u8::from(hop.inbound));
                    put_str(out, &hop.to);
                    put_bytes(out, &hop.wire);
                }
                put_u32(out, state.committed.len() as u32);
                for key in &state.committed {
                    put_str(out, key);
                }
            }
        }
    }

    /// The encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes one record, consuming the whole buffer.
    ///
    /// # Errors
    ///
    /// [`JournalError::Corrupt`] if the tag is unknown, a field is
    /// truncated, or trailing bytes remain.
    pub fn decode(buf: &[u8]) -> Result<Record, JournalError> {
        let mut cur = Cursor { buf, pos: 0 };
        let tag = cur.u8()?;
        let record = match tag {
            1 => Record::MailParked {
                key: cur.u64()?,
                timeout_nanos: cur.u64()?,
                wire: cur.bytes()?,
            },
            2 => Record::MailDelivered { key: cur.u64()? },
            3 => Record::HopBegin {
                key: cur.str()?,
                parent: cur.opt_str()?,
                inbound: cur.u8()? != 0,
                to: cur.str()?,
                wire: cur.bytes()?,
            },
            4 => Record::HopCommitted { key: cur.str()? },
            5 => Record::HopAborted { key: cur.str()? },
            6 => {
                let next_mail_key = cur.u64()?;
                let parked_len = cur.u32()? as usize;
                let mut parked = Vec::new();
                for _ in 0..parked_len {
                    parked.push(ParkedMail {
                        key: cur.u64()?,
                        timeout_nanos: cur.u64()?,
                        wire: cur.bytes()?,
                    });
                }
                let hops_len = cur.u32()? as usize;
                let mut open_hops = Vec::new();
                for _ in 0..hops_len {
                    open_hops.push(OpenHop {
                        key: cur.str()?,
                        parent: cur.opt_str()?,
                        inbound: cur.u8()? != 0,
                        to: cur.str()?,
                        wire: cur.bytes()?,
                    });
                }
                let committed_len = cur.u32()? as usize;
                let mut committed = Vec::new();
                for _ in 0..committed_len {
                    committed.push(cur.str()?);
                }
                Record::Checkpoint(CheckpointState {
                    next_mail_key,
                    parked,
                    open_hops,
                    committed,
                })
            }
            other => return Err(JournalError::corrupt(format!("unknown record tag {other}"))),
        };
        if cur.pos != buf.len() {
            return Err(JournalError::corrupt(format!(
                "{} trailing bytes after record",
                buf.len() - cur.pos
            )));
        }
        Ok(record)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &Bytes) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], JournalError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| JournalError::corrupt("record field truncated"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, JournalError> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
    }

    fn u64(&mut self) -> Result<u64, JournalError> {
        let raw = self.take(8)?;
        let mut le = [0u8; 8];
        le.copy_from_slice(raw);
        Ok(u64::from_le_bytes(le))
    }

    fn str(&mut self) -> Result<String, JournalError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| JournalError::corrupt("record string not UTF-8"))
    }

    fn opt_str(&mut self) -> Result<Option<String>, JournalError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            _ => Err(JournalError::corrupt("bad option flag")),
        }
    }

    fn bytes(&mut self) -> Result<Bytes, JournalError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        Ok(Bytes::copy_from_slice(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::MailParked {
                key: 7,
                timeout_nanos: 30_000_000_000,
                wire: Bytes::copy_from_slice(b"TAXB-mail"),
            },
            Record::MailDelivered { key: 7 },
            Record::HopBegin {
                key: "a1b2".into(),
                parent: Some("9f00".into()),
                inbound: true,
                to: String::new(),
                wire: Bytes::copy_from_slice(b"TAXB-hop"),
            },
            Record::HopCommitted { key: "a1b2".into() },
            Record::HopAborted { key: "dead".into() },
            Record::Checkpoint(CheckpointState {
                next_mail_key: 8,
                parked: vec![ParkedMail {
                    key: 3,
                    timeout_nanos: 1,
                    wire: Bytes::copy_from_slice(b"p"),
                }],
                open_hops: vec![OpenHop {
                    key: "k".into(),
                    parent: None,
                    inbound: false,
                    to: "beta".into(),
                    wire: Bytes::copy_from_slice(b"w"),
                }],
                committed: vec!["a1b2".into()],
            }),
        ]
    }

    #[test]
    fn roundtrip_all_kinds() {
        for record in sample_records() {
            let encoded = record.encode();
            let decoded = Record::decode(&encoded).expect("decode");
            assert_eq!(decoded, record);
            assert_eq!(decoded.kind(), record.kind());
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        for record in sample_records() {
            let encoded = record.encode();
            for cut in 0..encoded.len() {
                assert!(Record::decode(&encoded[..cut]).is_err());
            }
        }
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in RecordKind::ALL {
            assert_eq!(RecordKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(RecordKind::parse("bogus"), None);
    }
}
