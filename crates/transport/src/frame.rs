//! The length-prefixed frame layer: everything two firewalls exchange
//! over a TCP connection is one of these frames.
//!
//! ```text
//! offset  size  field
//! 0       4     MAGIC "TAXF"
//! 4       1     frame version (currently 1)
//! 5       1     kind (see FrameKind)
//! 6       4     payload length, u32 little-endian
//! 10      n     payload bytes
//! ```
//!
//! Payload length is checked against [`FrameLimits::max_frame`] *before*
//! any allocation, so a hostile peer cannot make a receiver reserve
//! absurd buffers by declaring an absurd length.

use std::io::{Read, Write};

use bytes::Bytes;

use crate::TransportError;

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"TAXF";

/// Current frame version. Receivers reject other versions.
pub const FRAME_VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const FRAME_HEADER_LEN: usize = 10;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client→server greeting; payload is the HELLO briefcase.
    Hello = 1,
    /// Server→client handshake acceptance; payload names the server host.
    Welcome = 2,
    /// Server→client handshake rejection; payload is a UTF-8 reason.
    Reject = 3,
    /// An encoded firewall [`Message`](tacoma_briefcase::Briefcase) frame.
    Briefcase = 4,
    /// Server→client receipt for one Briefcase frame.
    Ack = 5,
    /// Client→server request for the peer's mediation statistics.
    Stats = 6,
    /// Server→client stats answer; payload is UTF-8 text.
    StatsReply = 7,
    /// Orderly goodbye; either side may send before closing.
    Bye = 8,
    /// A pipelined briefcase frame: payload is an 8-byte little-endian
    /// per-connection sequence number followed by the encoded message.
    /// Acknowledged cumulatively with [`FrameKind::AckSeq`] instead of
    /// one [`FrameKind::Ack`] per frame.
    BriefcaseSeq = 9,
    /// Cumulative receipt: payload is the highest 8-byte little-endian
    /// sequence number the receiver has accepted; it covers every
    /// [`FrameKind::BriefcaseSeq`] frame up to and including that seq.
    AckSeq = 10,
}

impl FrameKind {
    /// Parses a kind byte.
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Welcome),
            3 => Some(FrameKind::Reject),
            4 => Some(FrameKind::Briefcase),
            5 => Some(FrameKind::Ack),
            6 => Some(FrameKind::Stats),
            7 => Some(FrameKind::StatsReply),
            8 => Some(FrameKind::Bye),
            9 => Some(FrameKind::BriefcaseSeq),
            10 => Some(FrameKind::AckSeq),
            _ => None,
        }
    }
}

/// Receiver-side size limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLimits {
    /// Largest accepted payload, in bytes.
    pub max_frame: u64,
}

impl Default for FrameLimits {
    fn default() -> Self {
        // The briefcase codec caps one element at 64 MiB; allow one such
        // element plus generous framing.
        FrameLimits {
            max_frame: (64 << 20) + (1 << 20),
        }
    }
}

/// One frame on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// The payload bytes — a shared buffer, so decoding can hand out
    /// zero-copy views of the read allocation.
    pub payload: Bytes,
}

/// Builds the 10-byte frame header for a payload of `payload_len` bytes.
///
/// The reactor's vectored write path ships `[header, payload]` (or
/// `[header, seq, payload]` for [`FrameKind::BriefcaseSeq`]) as separate
/// `IoSlice`s, so the payload `Bytes` is never copied into a contiguous
/// encode buffer.
pub fn frame_header(kind: FrameKind, payload_len: u32) -> [u8; FRAME_HEADER_LEN] {
    let len = payload_len.to_le_bytes();
    [
        FRAME_MAGIC[0],
        FRAME_MAGIC[1],
        FRAME_MAGIC[2],
        FRAME_MAGIC[3],
        FRAME_VERSION,
        kind as u8,
        len[0],
        len[1],
        len[2],
        len[3],
    ]
}

/// Splits a [`FrameKind::BriefcaseSeq`] payload into its sequence number
/// and the message bytes (a zero-copy slice of the frame payload).
///
/// # Errors
///
/// [`TransportError::BadFrame`] when the payload is shorter than the
/// 8-byte sequence prefix.
pub fn split_seq(payload: &Bytes) -> Result<(u64, Bytes), TransportError> {
    if payload.len() < 8 {
        return Err(TransportError::BadFrame {
            detail: format!("seq frame payload too short: {} bytes", payload.len()),
        });
    }
    let mut seq = [0u8; 8];
    seq.copy_from_slice(&payload[..8]);
    Ok((u64::from_le_bytes(seq), payload.slice(8..)))
}

/// Parses a [`FrameKind::AckSeq`] payload: the cumulative acked sequence.
///
/// # Errors
///
/// [`TransportError::BadFrame`] unless the payload is exactly 8 bytes.
pub fn parse_ack_seq(payload: &Bytes) -> Result<u64, TransportError> {
    if payload.len() != 8 {
        return Err(TransportError::BadFrame {
            detail: format!("ack-seq payload must be 8 bytes, got {}", payload.len()),
        });
    }
    let mut seq = [0u8; 8];
    seq.copy_from_slice(payload);
    Ok(u64::from_le_bytes(seq))
}

impl Frame {
    /// A frame of the given kind and payload.
    pub fn new(kind: FrameKind, payload: impl Into<Bytes>) -> Self {
        Frame {
            kind,
            payload: payload.into(),
        }
    }

    /// An empty frame of the given kind (Ack, Bye, Stats).
    pub fn bare(kind: FrameKind) -> Self {
        Frame {
            kind,
            payload: Bytes::new(),
        }
    }

    /// Encodes the frame: header + payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + self.payload.len());
        out.extend_from_slice(&FRAME_MAGIC);
        out.push(FRAME_VERSION);
        out.push(self.kind as u8);
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes one frame from the front of a shared buffer, zero-copy:
    /// the payload is a [`Bytes::slice`] of `buf`'s backing allocation, so
    /// a briefcase frame read into one buffer flows to the firewall and VM
    /// without the payload ever being copied.
    ///
    /// Returns the frame and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// [`TransportError::BadFrame`] on malformation,
    /// [`TransportError::FrameTooLarge`] when the declared payload
    /// exceeds `limits`.
    pub fn decode_bytes(
        buf: &Bytes,
        limits: &FrameLimits,
    ) -> Result<(Frame, usize), TransportError> {
        if buf.len() < FRAME_HEADER_LEN {
            return Err(TransportError::BadFrame {
                detail: format!("short header: {} bytes", buf.len()),
            });
        }
        let header = parse_header(&buf[..FRAME_HEADER_LEN], limits)?;
        let total = FRAME_HEADER_LEN + header.len as usize;
        if buf.len() < total {
            return Err(TransportError::BadFrame {
                detail: format!("payload truncated: want {total} bytes, have {}", buf.len()),
            });
        }
        Ok((
            Frame {
                kind: header.kind,
                payload: buf.slice(FRAME_HEADER_LEN..total),
            },
            total,
        ))
    }

    /// Reads one frame from a blocking stream.
    ///
    /// # Errors
    ///
    /// I/O errors (including clean EOF, surfaced as `Io`), malformed
    /// headers, or an over-limit declared length — checked before the
    /// payload buffer is allocated.
    pub fn read_from(r: &mut impl Read, limits: &FrameLimits) -> Result<Frame, TransportError> {
        let mut header = [0u8; FRAME_HEADER_LEN];
        r.read_exact(&mut header)?;
        let parsed = parse_header(&header, limits)?;
        let mut payload = vec![0u8; parsed.len as usize];
        r.read_exact(&mut payload)?;
        Ok(Frame {
            kind: parsed.kind,
            // The one unavoidable copy off the socket; everything after
            // shares this allocation.
            payload: Bytes::from(payload),
        })
    }

    /// Writes the frame to a blocking stream and flushes it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), TransportError> {
        w.write_all(&self.encode())?;
        w.flush()?;
        Ok(())
    }
}

/// Writes one frame as `[header, payload]` via vectored I/O and flushes,
/// without ever building a contiguous `header+payload` buffer — the
/// caller's payload (typically a briefcase's cached `wire_bytes()`) goes
/// to the socket uncopied.
///
/// # Errors
///
/// Propagates I/O errors, including a zero-length write (peer gone).
pub fn write_frame_vectored(
    w: &mut impl Write,
    kind: FrameKind,
    payload: &[u8],
) -> Result<(), TransportError> {
    let header = frame_header(kind, payload.len() as u32);
    let total = header.len() + payload.len();
    let mut written = 0usize;
    while written < total {
        let n = if written < header.len() {
            w.write_vectored(&[
                std::io::IoSlice::new(&header[written..]),
                std::io::IoSlice::new(payload),
            ])?
        } else {
            w.write(&payload[written - header.len()..])?
        };
        if n == 0 {
            return Err(TransportError::Io {
                detail: "socket write returned 0 bytes".to_owned(),
            });
        }
        written += n;
    }
    w.flush()?;
    Ok(())
}

pub(crate) struct ParsedHeader {
    pub(crate) kind: FrameKind,
    pub(crate) len: u64,
}

pub(crate) fn parse_header(
    header: &[u8],
    limits: &FrameLimits,
) -> Result<ParsedHeader, TransportError> {
    if header[..4] != FRAME_MAGIC {
        return Err(TransportError::BadFrame {
            detail: format!("bad magic {:02x?}", &header[..4]),
        });
    }
    if header[4] != FRAME_VERSION {
        return Err(TransportError::BadFrame {
            detail: format!("unsupported frame version {}", header[4]),
        });
    }
    let kind = FrameKind::from_u8(header[5]).ok_or_else(|| TransportError::BadFrame {
        detail: format!("unknown frame kind {}", header[5]),
    })?;
    let len = u64::from(u32::from_le_bytes([
        header[6], header[7], header[8], header[9],
    ]));
    if len > limits.max_frame {
        return Err(TransportError::FrameTooLarge {
            declared: len,
            limit: limits.max_frame,
        });
    }
    Ok(ParsedHeader { kind, len })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        let limits = FrameLimits::default();
        for kind in [
            FrameKind::Hello,
            FrameKind::Welcome,
            FrameKind::Reject,
            FrameKind::Briefcase,
            FrameKind::Ack,
            FrameKind::Stats,
            FrameKind::StatsReply,
            FrameKind::Bye,
            FrameKind::BriefcaseSeq,
            FrameKind::AckSeq,
        ] {
            let f = Frame::new(kind, vec![1, 2, 3]);
            let wire = Bytes::from(f.encode());
            let (back, used) = Frame::decode_bytes(&wire, &limits).unwrap();
            assert_eq!(back, f);
            assert_eq!(used, wire.len());
        }
    }

    #[test]
    fn read_write_stream_roundtrip() {
        let f = Frame::new(FrameKind::Briefcase, vec![9u8; 1000]);
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        let back = Frame::read_from(&mut buf.as_slice(), &FrameLimits::default()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn vectored_write_matches_encode() {
        let f = Frame::new(FrameKind::Briefcase, vec![3u8; 777]);
        let mut vectored = Vec::new();
        write_frame_vectored(&mut vectored, f.kind, &f.payload).unwrap();
        assert_eq!(vectored, f.encode());
        let back = Frame::read_from(&mut vectored.as_slice(), &FrameLimits::default()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn oversize_declared_length_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC);
        wire.push(FRAME_VERSION);
        wire.push(FrameKind::Briefcase as u8);
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        // No payload present at all — the length check must fire first.
        let err =
            Frame::read_from(&mut wire.as_slice(), &FrameLimits { max_frame: 1024 }).unwrap_err();
        assert!(matches!(err, TransportError::FrameTooLarge { .. }));
    }

    #[test]
    fn decode_bytes_is_zero_copy() {
        let f = Frame::new(FrameKind::Briefcase, vec![5u8; 256]);
        let wire = Bytes::from(f.encode());
        let (sliced, used) = Frame::decode_bytes(&wire, &FrameLimits::default()).unwrap();
        assert_eq!(sliced, f);
        assert_eq!(used, wire.len());
        // The sliced payload points inside the wire allocation.
        let base = wire.as_ptr() as usize;
        let p = sliced.payload.as_ptr() as usize;
        assert!(p >= base && p + sliced.payload.len() <= base + wire.len());
    }

    #[test]
    fn header_builder_matches_encode() {
        let f = Frame::new(FrameKind::BriefcaseSeq, vec![1u8, 2, 3]);
        let wire = f.encode();
        assert_eq!(
            frame_header(FrameKind::BriefcaseSeq, 3),
            wire[..FRAME_HEADER_LEN]
        );
    }

    #[test]
    fn seq_payload_splits_zero_copy() {
        let mut payload = 42u64.to_le_bytes().to_vec();
        payload.extend_from_slice(b"agent-bytes");
        let payload = Bytes::from(payload);
        let (seq, rest) = split_seq(&payload).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(&rest[..], b"agent-bytes");
        // The message view points inside the frame payload's allocation.
        assert_eq!(rest.as_ptr(), std::ptr::from_ref(&payload[8]));
        assert!(split_seq(&Bytes::copy_from_slice(&[0; 7])).is_err());
    }

    #[test]
    fn ack_seq_roundtrip() {
        let payload = Bytes::from(7u64.to_le_bytes().to_vec());
        assert_eq!(parse_ack_seq(&payload).unwrap(), 7);
        assert!(parse_ack_seq(&Bytes::copy_from_slice(&[0; 9])).is_err());
    }

    #[test]
    fn garbage_is_bad_frame() {
        let err = Frame::decode_bytes(&Bytes::from_static(b"NOTAFRAME!"), &FrameLimits::default())
            .unwrap_err();
        assert!(matches!(err, TransportError::BadFrame { .. }));
        let err = Frame::read_from(
            &mut b"TAXF\x02\x04\0\0\0\0".as_slice(),
            &FrameLimits::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TransportError::BadFrame { .. }));
    }

    #[test]
    fn eof_mid_payload_is_io() {
        let f = Frame::new(FrameKind::Briefcase, vec![7u8; 64]);
        let wire = f.encode();
        let err = Frame::read_from(&mut wire[..20].as_ref(), &FrameLimits::default()).unwrap_err();
        assert!(matches!(err, TransportError::Io { .. }));
    }
}
