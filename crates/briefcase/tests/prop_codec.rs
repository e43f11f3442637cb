//! Property-based tests for the briefcase wire codec.

use proptest::prelude::*;
use tacoma_briefcase::{Briefcase, BriefcaseError, Bytes, Element, Folder};

/// Strategy for an arbitrary element payload (bounded for test speed).
fn arb_element() -> impl Strategy<Value = Element> {
    prop::collection::vec(any::<u8>(), 0..256).prop_map(Element::from)
}

/// Strategy for a folder name: non-degenerate UTF-8 up to 40 chars.
fn arb_name() -> impl Strategy<Value = String> {
    "[A-Za-z0-9:_.@ -]{1,40}"
}

fn arb_briefcase() -> impl Strategy<Value = Briefcase> {
    prop::collection::btree_map(
        arb_name(),
        prop::collection::vec(arb_element(), 0..12),
        0..12,
    )
    .prop_map(|map| {
        map.into_iter()
            .map(|(name, elements)| {
                let mut f = Folder::new(name);
                f.extend(elements);
                f
            })
            .collect()
    })
}

fn decode(wire: &[u8]) -> Result<Briefcase, BriefcaseError> {
    Briefcase::decode_bytes(&Bytes::copy_from_slice(wire))
}

proptest! {
    /// encode → decode is the identity.
    #[test]
    fn roundtrip(bc in arb_briefcase()) {
        let back = decode(&bc.encode()).unwrap();
        prop_assert_eq!(bc, back);
    }

    /// encoded_len exactly predicts the encoding's size.
    #[test]
    fn encoded_len_exact(bc in arb_briefcase()) {
        prop_assert_eq!(bc.encode().len(), bc.encoded_len());
    }

    /// Encoding is deterministic: the same logical briefcase always encodes
    /// to identical bytes regardless of insertion order.
    #[test]
    fn deterministic_encoding(bc in arb_briefcase()) {
        let mut reversed = Briefcase::new();
        let folders: Vec<Folder> = bc.clone().into_iter().collect();
        for f in folders.into_iter().rev() {
            reversed.insert_folder(f);
        }
        prop_assert_eq!(bc.encode(), reversed.encode());
    }

    /// The decoder never panics on arbitrary bytes — it returns Ok or a
    /// structured error.
    #[test]
    fn decoder_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes);
    }

    /// Corrupting any single byte of a valid encoding either still decodes
    /// (payload byte flipped) or yields a structured error — never a panic.
    #[test]
    fn single_byte_corruption_is_contained(bc in arb_briefcase(), idx in any::<prop::sample::Index>(), xor in 1u8..) {
        let mut wire = bc.encode();
        if !wire.is_empty() {
            let i = idx.index(wire.len());
            wire[i] ^= xor;
            let _ = decode(&wire);
        }
    }

    /// merge() unions folder names and sums element counts for shared ones.
    #[test]
    fn merge_counts(a in arb_briefcase(), b in arb_briefcase()) {
        let mut merged = a.clone();
        merged.merge(b.clone());
        for name in a.names().chain(b.names()) {
            let expect = a.folder(name).map_or(0, tacoma_briefcase::Folder::len) + b.folder(name).map_or(0, tacoma_briefcase::Folder::len);
            prop_assert_eq!(merged.folder(name).unwrap().len(), expect);
        }
    }
}
