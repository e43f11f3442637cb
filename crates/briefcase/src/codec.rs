//! The TAX briefcase wire format.
//!
//! Briefcases are "the TACOMA data structure that is language and
//! architecture independent" (§3.3); this module defines the concrete byte
//! layout used by every firewall and VM in this implementation:
//!
//! ```text
//! header:  MAGIC "TAXB" (4) | version u8 (1) | folder count u32-LE (4)
//! folder:  name len u16-LE | name bytes (UTF-8) | element count u32-LE
//! element: data len u32-LE | data bytes
//! ```
//!
//! All integers are little-endian. Lengths are bounded by sanity limits so a
//! hostile peer cannot make the decoder allocate absurd amounts up front.

use bytes::Bytes;

use crate::{Briefcase, BriefcaseError, Element, Folder};

/// Magic bytes opening every encoded briefcase.
pub const MAGIC: [u8; 4] = *b"TAXB";

/// Current codec version. Decoders reject other versions.
pub const CODEC_VERSION: u8 = 1;

/// Upper bound on a single element's declared length (64 MiB). Larger
/// payloads should be chunked across elements.
const MAX_ELEMENT_LEN: u64 = 64 << 20;

/// Upper bound on declared counts, to bound eager allocation.
const MAX_COUNT: u64 = 1 << 24;

/// Upper bound on the whole wire image: one max-size element plus
/// generous framing; matches the transport layer's frame ceiling.
const MAX_FRAME_LEN: u64 = MAX_ELEMENT_LEN + (1 << 20);

/// Exact length in bytes of [`encode_briefcase`]'s output.
pub(crate) fn encoded_len(bc: &Briefcase) -> usize {
    let mut len = 4 + 1 + 4;
    for folder in bc.iter() {
        len += 2 + folder.name().len() + 4;
        for element in folder {
            len += 4 + element.len();
        }
    }
    len
}

/// Encodes a briefcase into the TAX wire format.
pub fn encode_briefcase(bc: &Briefcase) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(bc));
    encode_briefcase_into(bc, &mut out);
    out
}

/// Encodes a briefcase into a caller-provided buffer, appending to it.
///
/// This is the allocation-reuse path: a sender that encodes many
/// briefcases (a connection's write loop, the simulated transport) can
/// `clear()` and reuse one buffer instead of allocating a fresh `Vec`
/// per message. The buffer is reserved up front to the exact encoded
/// length, so encoding appends without reallocating.
pub fn encode_briefcase_into(bc: &Briefcase, out: &mut Vec<u8>) {
    out.reserve(encoded_len(bc));
    out.extend_from_slice(&MAGIC);
    out.push(CODEC_VERSION);
    out.extend_from_slice(&(bc.folder_count() as u32).to_le_bytes());
    for folder in bc.iter() {
        let name = folder.name().as_bytes();
        debug_assert!(u16::try_from(name.len()).is_ok());
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&(folder.len() as u32).to_le_bytes());
        for element in folder {
            out.extend_from_slice(&(element.len() as u32).to_le_bytes());
            out.extend_from_slice(element.data());
        }
    }
}

/// Decodes a briefcase from a shared [`Bytes`] buffer **without copying
/// element data**: each element is a [`Bytes::slice`] view into `wire`'s
/// backing allocation.
///
/// This is the only briefcase decoder. A transport frame read into one
/// allocation decodes into a briefcase whose elements all share that
/// allocation, so page bodies and agent binaries are never copied between
/// the socket buffer and the VM. A caller holding a `&[u8]` wraps it in a
/// `Bytes` first.
///
/// Every declared length and count is checked against the codec's bounds
/// *and* against the bytes actually remaining in `wire` before anything is
/// allocated, so a hostile peer cannot reserve memory by lying about
/// sizes. A folder name's bound is its `u16` length field.
///
/// # Errors
///
/// Returns a [`BriefcaseError`] describing the first malformation
/// encountered; never panics on arbitrary input.
pub fn decode_briefcase_bytes(wire: &Bytes) -> Result<Briefcase, BriefcaseError> {
    if wire.len() as u64 > MAX_FRAME_LEN {
        return Err(BriefcaseError::LengthOverflow {
            declared: wire.len() as u64,
            context: "briefcase frame",
        });
    }
    let mut r = Reader { buf: wire, pos: 0 };

    let magic = r.take(4, "magic")?;
    if magic != MAGIC {
        let mut found = [0u8; 4];
        found[..magic.len()].copy_from_slice(magic);
        return Err(BriefcaseError::BadMagic { found });
    }
    let version = r.take(1, "version")?[0];
    if version != CODEC_VERSION {
        return Err(BriefcaseError::UnsupportedVersion { found: version });
    }

    let folder_count = r.u32("folder count")? as u64;
    if folder_count > MAX_COUNT {
        return Err(BriefcaseError::LengthOverflow {
            declared: folder_count,
            context: "folder count",
        });
    }
    // Each folder needs at least 6 bytes (name len u16 + element count
    // u32), so a count the remaining bytes cannot possibly hold is proven
    // bogus here, before the decode loop runs at all.
    r.fits(folder_count.saturating_mul(6), "folder count")?;

    let mut bc = Briefcase::new();
    for _ in 0..folder_count {
        let name_len = r.u16("folder name length")? as u64;
        r.fits(name_len, "folder name")?;
        let name_bytes = r.take(name_len as usize, "folder name")?;
        let name = std::str::from_utf8(name_bytes).map_err(|_| BriefcaseError::BadFolderName)?;
        if bc.contains_folder(name) {
            return Err(BriefcaseError::DuplicateFolder {
                name: name.to_owned(),
            });
        }
        let mut folder = Folder::new(name);

        let element_count = r.u32("element count")? as u64;
        if element_count > MAX_COUNT {
            return Err(BriefcaseError::LengthOverflow {
                declared: element_count,
                context: "element count",
            });
        }
        // Each element needs at least its 4-byte length prefix.
        r.fits(element_count.saturating_mul(4), "element count")?;
        for _ in 0..element_count {
            let len = r.u32("element length")? as u64;
            if len > MAX_ELEMENT_LEN {
                return Err(BriefcaseError::LengthOverflow {
                    declared: len,
                    context: "element",
                });
            }
            r.fits(len, "element data")?;
            let start = r.pos;
            r.take(len as usize, "element data")?;
            folder.append(Element::from_bytes(wire.slice(start..r.pos)));
        }
        bc.insert_folder(folder);
    }

    if r.pos != wire.len() {
        return Err(BriefcaseError::TrailingBytes {
            remaining: wire.len() - r.pos,
        });
    }
    Ok(bc)
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> u64 {
        (self.buf.len() - self.pos) as u64
    }

    /// Rejects a declared size the remaining input cannot possibly hold,
    /// before any buffer for it is reserved.
    fn fits(&self, declared: u64, context: &'static str) -> Result<(), BriefcaseError> {
        if declared > self.remaining() {
            return Err(BriefcaseError::Truncated {
                offset: self.pos,
                context,
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], BriefcaseError> {
        if self.buf.len() - self.pos < n {
            // Report what little remains so BadMagic can show partial bytes.
            if context == "magic" {
                return Ok(&self.buf[self.pos..]);
            }
            return Err(BriefcaseError::Truncated {
                offset: self.pos,
                context,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, BriefcaseError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, BriefcaseError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::folders;

    fn decode(wire: &[u8]) -> Result<Briefcase, BriefcaseError> {
        decode_briefcase_bytes(&Bytes::copy_from_slice(wire))
    }

    /// A header declaring one folder `F` holding `elements` elements,
    /// followed by nothing.
    fn one_folder_declaring(elements: u64) -> Vec<u8> {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(CODEC_VERSION);
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&1u16.to_le_bytes());
        wire.push(b'F');
        wire.extend_from_slice(&(elements as u32).to_le_bytes());
        wire
    }

    fn sample() -> Briefcase {
        let mut bc = Briefcase::new();
        bc.append(folders::HOSTS, "tacoma://h1/vm_script")
            .append(folders::HOSTS, "tacoma://h2/vm_script")
            .append(folders::CODE, vec![0u8, 1, 2, 255])
            .set_single(folders::CODE_TYPE, "taxscript-bytecode");
        bc.ensure_folder("EMPTY");
        bc
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let bc = sample();
        let wire = bc.encode();
        assert_eq!(wire.len(), bc.encoded_len());
        let back = decode(&wire).unwrap();
        assert_eq!(bc, back);
        assert!(back.contains_folder("EMPTY"));
        assert!(back.folder("EMPTY").unwrap().is_empty());
    }

    #[test]
    fn empty_briefcase_roundtrips() {
        let bc = Briefcase::new();
        let wire = bc.encode();
        assert_eq!(wire.len(), 9);
        assert_eq!(decode(&wire).unwrap(), bc);
    }

    #[test]
    fn bad_magic_is_reported() {
        let err = decode(b"NOPE\x01\x00\x00\x00\x00").unwrap_err();
        assert!(matches!(err, BriefcaseError::BadMagic { found } if &found == b"NOPE"));
    }

    #[test]
    fn short_input_is_bad_magic_not_panic() {
        assert!(matches!(
            decode(b"TA"),
            Err(BriefcaseError::BadMagic { .. })
        ));
        assert!(matches!(decode(b""), Err(BriefcaseError::BadMagic { .. })));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut wire = sample().encode();
        wire[4] = 99;
        assert_eq!(
            decode(&wire).unwrap_err(),
            BriefcaseError::UnsupportedVersion { found: 99 }
        );
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let wire = sample().encode();
        for cut in 5..wire.len() {
            let err = decode(&wire[..cut]).unwrap_err();
            assert!(
                matches!(err, BriefcaseError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut wire = sample().encode();
        wire.push(0);
        assert_eq!(
            decode(&wire).unwrap_err(),
            BriefcaseError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn hostile_length_is_bounded() {
        // Header claiming u32::MAX folders must fail fast, not allocate.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(CODEC_VERSION);
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&wire).unwrap_err();
        assert!(matches!(
            err,
            BriefcaseError::LengthOverflow {
                context: "folder count",
                ..
            }
        ));
    }

    #[test]
    fn duplicate_folder_on_wire_is_rejected() {
        // Hand-craft: two folders both named "X" with zero elements.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(CODEC_VERSION);
        wire.extend_from_slice(&2u32.to_le_bytes());
        for _ in 0..2 {
            wire.extend_from_slice(&1u16.to_le_bytes());
            wire.push(b'X');
            wire.extend_from_slice(&0u32.to_le_bytes());
        }
        assert_eq!(
            decode(&wire).unwrap_err(),
            BriefcaseError::DuplicateFolder { name: "X".into() }
        );
    }

    #[test]
    fn non_utf8_folder_name_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(CODEC_VERSION);
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&2u16.to_le_bytes());
        wire.extend_from_slice(&[0xff, 0xfe]);
        wire.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode(&wire).unwrap_err(), BriefcaseError::BadFolderName);
    }

    // One test per bound constant: a short input declaring one more than
    // the bound is refused as an overflow, before anything is allocated
    // and before the remaining-bytes check could call it truncation. At
    // the bound itself the same input is only truncated.

    #[test]
    fn frame_limit_rejects_oversize_input_up_front() {
        // Zeroed pages are mapped lazily; the length check fires before
        // the decoder reads a byte, so none become resident.
        let wire = Bytes::from(vec![0u8; MAX_FRAME_LEN as usize + 1]);
        assert_eq!(
            decode_briefcase_bytes(&wire).unwrap_err(),
            BriefcaseError::LengthOverflow {
                declared: MAX_FRAME_LEN + 1,
                context: "briefcase frame",
            }
        );
    }

    #[test]
    fn folder_count_one_past_the_bound_overflows() {
        let header = |count: u64| {
            let mut wire = MAGIC.to_vec();
            wire.push(CODEC_VERSION);
            wire.extend_from_slice(&(count as u32).to_le_bytes());
            wire
        };
        assert_eq!(
            decode(&header(MAX_COUNT + 1)).unwrap_err(),
            BriefcaseError::LengthOverflow {
                declared: MAX_COUNT + 1,
                context: "folder count",
            }
        );
        assert!(matches!(
            decode(&header(MAX_COUNT)).unwrap_err(),
            BriefcaseError::Truncated { .. }
        ));
    }

    #[test]
    fn element_count_one_past_the_bound_overflows() {
        assert_eq!(
            decode(&one_folder_declaring(MAX_COUNT + 1)).unwrap_err(),
            BriefcaseError::LengthOverflow {
                declared: MAX_COUNT + 1,
                context: "element count",
            }
        );
        assert!(matches!(
            decode(&one_folder_declaring(MAX_COUNT)).unwrap_err(),
            BriefcaseError::Truncated { .. }
        ));
    }

    #[test]
    fn element_length_one_past_the_bound_overflows() {
        let declaring = |len: u64| {
            let mut wire = one_folder_declaring(1);
            wire.extend_from_slice(&(len as u32).to_le_bytes());
            wire
        };
        assert_eq!(
            decode(&declaring(MAX_ELEMENT_LEN + 1)).unwrap_err(),
            BriefcaseError::LengthOverflow {
                declared: MAX_ELEMENT_LEN + 1,
                context: "element",
            }
        );
        assert!(matches!(
            decode(&declaring(MAX_ELEMENT_LEN)).unwrap_err(),
            BriefcaseError::Truncated { .. }
        ));
    }

    #[test]
    fn declared_lengths_beyond_remaining_fail_before_allocating() {
        // A within-limits element length the buffer cannot hold: the
        // `fits` check must refuse it as truncation, not try to read.
        let mut wire = one_folder_declaring(1);
        wire.extend_from_slice(&(MAX_ELEMENT_LEN as u32).to_le_bytes()); // lies
        let err = decode(&wire).unwrap_err();
        assert!(matches!(
            err,
            BriefcaseError::Truncated {
                context: "element data",
                ..
            }
        ));

        // An element count the remaining four bytes cannot hold.
        // 1000 elements, 0 bytes.
        assert!(matches!(
            decode(&one_folder_declaring(1000)).unwrap_err(),
            BriefcaseError::Truncated {
                context: "element count",
                ..
            }
        ));
    }

    #[test]
    fn encoded_len_matches_for_binary_payloads() {
        let mut bc = Briefcase::new();
        bc.append("BIN", vec![0u8; 100_000]);
        assert_eq!(bc.encode().len(), bc.encoded_len());
    }

    #[test]
    fn zero_copy_elements_share_the_wire_allocation() {
        let mut bc = Briefcase::new();
        bc.append("BIN", vec![7u8; 10_000]);
        bc.append("TXT", "hello");
        let wire = Bytes::from(bc.encode());
        let decoded = decode_briefcase_bytes(&wire).unwrap();

        let base = wire.as_ptr() as usize;
        let end = base + wire.len();
        for folder in decoded.iter() {
            for element in folder {
                let p = element.bytes().as_ptr() as usize;
                assert!(
                    p >= base && p + element.len() <= end,
                    "element not sliced from the wire buffer"
                );
            }
        }
    }

    #[test]
    fn encode_into_reuses_the_buffer() {
        let bc = sample();
        let mut buf = Vec::new();
        encode_briefcase_into(&bc, &mut buf);
        assert_eq!(buf, bc.encode());
        let cap = buf.capacity();
        buf.clear();
        encode_briefcase_into(&bc, &mut buf);
        assert_eq!(buf, bc.encode());
        assert_eq!(buf.capacity(), cap, "reuse must not reallocate");
    }
}
