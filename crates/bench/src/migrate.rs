//! Shared workload for the briefcase-migration benchmarks: a synthetic
//! agent state plus a faithful simulation of the pre-CoW representation.
//!
//! The `exp_e9` bench's `briefcase_migrate` section compares one *hop* of
//! a clone-heavy itinerary two ways:
//!
//! * **legacy** — how migration cost looked before the copy-on-write
//!   rebuild: every fan-out destination paid a deep clone (folder map,
//!   name strings, and every element buffer rebuilt) plus a full encode.
//! * **cow** — the current representation: clones are pointer bumps and
//!   the encode-once wire cache serializes the state a single time per
//!   mutation, however many peers it ships to.

use tacoma_briefcase::{Briefcase, Folder};

/// Builds the agent state under test: `folders` folders of `elements`
/// elements, each `element_bytes` long — the shape of a Webbot hauling
/// page snapshots home.
pub fn build_state(folders: usize, elements: usize, element_bytes: usize) -> Briefcase {
    let mut bc = Briefcase::new();
    for f in 0..folders {
        let name = format!("PAGES-{f:03}");
        for e in 0..elements {
            bc.append(&name, vec![(f ^ e) as u8; element_bytes]);
        }
    }
    bc
}

/// A deep clone with the pre-PR cost model: rebuilds the folder map, the
/// name strings, and every element's byte buffer — O(bytes), exactly what
/// `Briefcase::clone` used to cost when folders held plain `Vec`s.
pub fn legacy_clone(bc: &Briefcase) -> Briefcase {
    let mut out = Briefcase::new();
    for folder in bc.iter() {
        let mut f = Folder::new(folder.name().to_owned());
        for e in folder {
            f.append(e.data().to_vec());
        }
        out.insert_folder(f);
    }
    out
}

/// One itinerary hop, legacy cost model: mutate one folder, then ship to
/// `fanout` peers, each paying a deep clone plus a full encode.
pub fn hop_legacy(bc: &mut Briefcase, hop: usize, fanout: usize) {
    bc.append("RESULTS", format!("hop-{hop}"));
    for _ in 0..fanout {
        let clone = legacy_clone(bc);
        std::hint::black_box(clone.encode());
    }
}

/// One itinerary hop, CoW cost model: the same mutation, then `fanout`
/// pointer-bump clones sharing one cached encoding.
pub fn hop_cow(bc: &mut Briefcase, hop: usize, fanout: usize) {
    bc.append("RESULTS", format!("hop-{hop}"));
    for _ in 0..fanout {
        let clone = bc.clone();
        std::hint::black_box(clone.wire_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_clone_is_deep_but_equal() {
        let bc = build_state(4, 3, 64);
        let copy = legacy_clone(&bc);
        assert_eq!(bc, copy);
        assert!(!bc.shares_storage_with(&copy));
        let (a, b) = (
            bc.folder("PAGES-000").unwrap(),
            copy.folder("PAGES-000").unwrap(),
        );
        assert!(!a.shares_storage_with(b));
    }

    #[test]
    fn both_hop_models_produce_identical_wire() {
        let mut legacy = build_state(3, 2, 32);
        let mut cow = legacy_clone(&legacy);
        hop_legacy(&mut legacy, 0, 2);
        hop_cow(&mut cow, 0, 2);
        assert_eq!(legacy.encode(), cow.encode());
    }
}
