//! Property-based tests for the copy-on-write briefcase representation
//! and the encode-once wire cache.
//!
//! The CoW contract: a clone is a pointer bump that behaves exactly like
//! a deep copy — mutating either side is never observable from the other.
//! The cache contract: `wire_bytes`/`encode` after any mutation sequence
//! equal an eager re-encode of the same logical state, byte for byte.

use proptest::prelude::*;
use tacoma_briefcase::{Briefcase, Bytes, Element, Folder};

/// Strategy for an arbitrary element payload (bounded for test speed).
fn arb_element() -> impl Strategy<Value = Element> {
    prop::collection::vec(any::<u8>(), 0..256).prop_map(Element::from)
}

/// Strategy for a folder name: non-degenerate UTF-8 up to 40 chars.
fn arb_name() -> impl Strategy<Value = String> {
    "[A-Za-z0-9:_.@ -]{1,40}"
}

fn arb_briefcase() -> impl Strategy<Value = Briefcase> {
    prop::collection::btree_map(arb_name(), prop::collection::vec(arb_element(), 0..8), 0..8)
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

/// One mutation drawn from the briefcase API surface.
#[derive(Debug, Clone)]
enum Mutation {
    Append(String, Vec<u8>),
    SetSingle(String, Vec<u8>),
    RemoveFolder(usize),
    RemoveFront(usize),
    ClearFolder(usize),
    Merge(Vec<(String, Vec<u8>)>),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (arb_name(), prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(n, d)| Mutation::Append(n, d)),
        (arb_name(), prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(n, d)| Mutation::SetSingle(n, d)),
        (0usize..8).prop_map(Mutation::RemoveFolder),
        (0usize..8).prop_map(Mutation::RemoveFront),
        (0usize..8).prop_map(Mutation::ClearFolder),
        prop::collection::vec(
            (arb_name(), prop::collection::vec(any::<u8>(), 0..32)),
            0..4
        )
        .prop_map(Mutation::Merge),
    ]
}

fn nth_folder_name(bc: &Briefcase, idx: usize) -> Option<String> {
    bc.names()
        .nth(idx % bc.folder_count().max(1))
        .map(str::to_owned)
}

/// Applies one mutation; returns whether any `&mut self` briefcase API
/// was actually invoked (a folder-targeting op on an empty briefcase is a
/// no-op that legitimately leaves the encode cache warm).
fn apply(bc: &mut Briefcase, m: &Mutation) -> bool {
    match m {
        Mutation::Append(name, data) => {
            bc.append(name, data.clone());
            true
        }
        Mutation::SetSingle(name, data) => {
            bc.set_single(name, data.clone());
            true
        }
        Mutation::RemoveFolder(idx) => match nth_folder_name(bc, *idx) {
            Some(name) => {
                bc.remove_folder(&name);
                true
            }
            None => false,
        },
        Mutation::RemoveFront(idx) => match nth_folder_name(bc, *idx) {
            Some(name) => {
                if let Some(f) = bc.folder_mut(&name) {
                    f.remove_front();
                }
                true
            }
            None => false,
        },
        Mutation::ClearFolder(idx) => match nth_folder_name(bc, *idx) {
            Some(name) => {
                if let Some(f) = bc.folder_mut(&name) {
                    f.clear();
                }
                true
            }
            None => false,
        },
        Mutation::Merge(folders) => {
            let mut other = Briefcase::new();
            for (name, data) in folders {
                other.append(name, data.clone());
            }
            bc.merge(other);
            true
        }
    }
}

/// The deep-copy oracle: rebuilds `bc` from owned `Vec<u8>` copies of
/// every element, so the copy shares no buffer, history or cache with it.
fn deep_copy(bc: &Briefcase) -> Briefcase {
    bc.iter()
        .map(|folder| {
            let mut copy = Folder::new(folder.name());
            copy.extend(folder.iter().map(|e| Element::from(e.data().to_vec())));
            copy
        })
        .collect()
}

/// The expected encoding, from a briefcase with no shared history and no
/// cache.
fn eager_reencode(bc: &Briefcase) -> Vec<u8> {
    deep_copy(bc).encode()
}

proptest! {
    /// Mutating a cloned briefcase never observes or perturbs the other
    /// copy, in either direction, for any sequence of mutations.
    #[test]
    fn cloned_briefcase_mutation_is_isolated(
        bc in arb_briefcase(),
        muts in prop::collection::vec(arb_mutation(), 1..8),
    ) {
        let pristine = bc.clone();
        let snapshot_wire = bc.encode();

        let mut mutated = bc.clone();
        for m in &muts {
            apply(&mut mutated, m);
        }

        // The untouched clones still hold the original logical state.
        prop_assert_eq!(&bc, &pristine);
        prop_assert_eq!(bc.encode(), snapshot_wire.clone());
        prop_assert_eq!(pristine.encode(), snapshot_wire);

        // And the mutated copy is internally consistent on the wire.
        let wire = Bytes::from(mutated.encode());
        prop_assert_eq!(Briefcase::decode_bytes(&wire).unwrap(), mutated);
    }

    /// Cache invalidation matches an eager re-encode byte for byte: after
    /// any interleaving of `wire_bytes` calls and mutations, the cached
    /// encoding equals that of a briefcase rebuilt from scratch.
    #[test]
    fn cache_invalidation_matches_eager_reencode(
        bc in arb_briefcase(),
        muts in prop::collection::vec(arb_mutation(), 1..8),
    ) {
        let mut bc = bc;
        // Populate the cache, mutate, re-check — every round.
        for m in &muts {
            let cached = bc.wire_bytes();
            prop_assert_eq!(cached.as_ref(), eager_reencode(&bc).as_slice());
            let touched = apply(&mut bc, m);
            // Any `&mut` access must have dropped the cache (conservative
            // invalidation); a no-op that never borrowed may keep it.
            prop_assert_eq!(bc.has_cached_wire(), !touched);
            prop_assert_eq!(bc.wire_bytes().as_ref(), eager_reencode(&bc).as_slice());
        }
        // encode(), encode_into(), and wire_bytes() agree when cached.
        let via_bytes = bc.wire_bytes().to_vec();
        let via_encode = bc.encode();
        let mut via_into = Vec::new();
        bc.encode_into(&mut via_into);
        prop_assert_eq!(&via_bytes, &via_encode);
        prop_assert_eq!(&via_bytes, &via_into);
        prop_assert_eq!(via_bytes.len(), bc.encoded_len());
    }

    /// Zero-copy decode → mutate → encode round-trips: slices aliasing the
    /// original wire buffer survive CoW mutation of the decoded briefcase.
    #[test]
    fn decode_bytes_mutate_encode_roundtrips(
        bc in arb_briefcase(),
        muts in prop::collection::vec(arb_mutation(), 0..8),
    ) {
        let wire = Bytes::from(bc.encode());
        let mut decoded = Briefcase::decode_bytes(&wire).unwrap();
        let mut copied = deep_copy(&decoded);
        for m in &muts {
            apply(&mut decoded, m);
            apply(&mut copied, m);
        }
        // The zero-copy lineage and the deep-copy lineage stay equal...
        prop_assert_eq!(&decoded, &copied);
        // ...and the mutated zero-copy briefcase re-encodes faithfully.
        let reencoded = Bytes::from(decoded.encode());
        prop_assert_eq!(Briefcase::decode_bytes(&reencoded).unwrap(), decoded);
    }

    /// Clones of a briefcase share one cached encoding (encode-once across
    /// fan-out), and each clone's cache stays correct after it diverges.
    #[test]
    fn fanout_clones_share_then_diverge(
        bc in arb_briefcase(),
        m in arb_mutation(),
    ) {
        let wire = bc.wire_bytes();
        let clones: Vec<Briefcase> = (0..4).map(|_| bc.clone()).collect();
        for c in &clones {
            // Same allocation: the fan-out serialized exactly once.
            prop_assert_eq!(c.wire_bytes().as_ptr(), wire.as_ptr());
        }
        let mut diverged = clones[0].clone();
        apply(&mut diverged, &m);
        prop_assert_eq!(diverged.wire_bytes().as_ref(), eager_reencode(&diverged).as_slice());
        // The siblings still serve the original bytes.
        prop_assert_eq!(clones[1].wire_bytes().as_ptr(), wire.as_ptr());
    }
}
