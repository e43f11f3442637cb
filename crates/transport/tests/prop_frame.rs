//! Property-based tests for the frame codec: roundtrip identity, limit
//! enforcement, and totality on hostile input.

use bytes::Bytes;
use proptest::prelude::*;
use tacoma_transport::{Frame, FrameKind, FrameLimits, TransportError, FRAME_HEADER_LEN};

fn decode(wire: Vec<u8>, limits: &FrameLimits) -> Result<(Frame, usize), TransportError> {
    Frame::decode_bytes(&Bytes::from(wire), limits)
}

fn arb_kind() -> impl Strategy<Value = FrameKind> {
    (1u8..9).prop_map(|b| FrameKind::from_u8(b).expect("1..=8 are all valid kinds"))
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (arb_kind(), prop::collection::vec(any::<u8>(), 0..2048))
        .prop_map(|(kind, payload)| Frame::new(kind, payload))
}

proptest! {
    /// encode → decode is the identity and consumes exactly the encoding.
    #[test]
    fn roundtrip(frame in arb_frame()) {
        let wire = frame.encode();
        let len = wire.len();
        let (back, used) = decode(wire, &FrameLimits::default()).unwrap();
        prop_assert_eq!(back, frame);
        prop_assert_eq!(used, len);
    }

    /// Stream read/write agrees with the buffer codec.
    #[test]
    fn stream_roundtrip(frame in arb_frame()) {
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        let back = Frame::read_from(&mut buf.as_slice(), &FrameLimits::default()).unwrap();
        prop_assert_eq!(back, frame);
    }

    /// Two frames back-to-back decode in order from one buffer.
    #[test]
    fn frames_are_self_delimiting(a in arb_frame(), b in arb_frame()) {
        let mut wire = a.encode();
        wire.extend_from_slice(&b.encode());
        let wire = Bytes::from(wire);
        let limits = FrameLimits::default();
        let (first, used) = Frame::decode_bytes(&wire, &limits).unwrap();
        let (second, rest) = Frame::decode_bytes(&wire.slice(used..), &limits).unwrap();
        prop_assert_eq!(first, a);
        prop_assert_eq!(second, b);
        prop_assert_eq!(used + rest, wire.len());
    }

    /// Any payload larger than the limit is refused with `FrameTooLarge`,
    /// regardless of how much of it is actually present.
    #[test]
    fn over_limit_is_rejected(
        kind in arb_kind(),
        limit in 0u64..512,
        excess in 1u64..512,
        present in 0usize..64,
    ) {
        let declared = limit + excess;
        let mut wire = Frame::new(kind, Vec::new()).encode();
        wire[6..10].copy_from_slice(&(declared as u32).to_le_bytes());
        wire.truncate(FRAME_HEADER_LEN);
        wire.extend(std::iter::repeat_n(0u8, present));
        let err = decode(wire, &FrameLimits { max_frame: limit }).unwrap_err();
        prop_assert!(matches!(err, TransportError::FrameTooLarge { .. }));
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn decoder_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Frame::read_from(&mut bytes.as_slice(), &FrameLimits::default());
        let _ = decode(bytes, &FrameLimits::default());
    }

    /// Corrupting any single header byte of a valid frame either still
    /// decodes (length-compatible payload flip) or yields a structured
    /// error — never a panic or an over-read.
    #[test]
    fn header_corruption_is_contained(frame in arb_frame(), idx in 0usize..FRAME_HEADER_LEN, xor in 1u8..) {
        let mut wire = frame.encode();
        wire[idx] ^= xor;
        let _ = decode(wire, &FrameLimits::default());
    }
}
