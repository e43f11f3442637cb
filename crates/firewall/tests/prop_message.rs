//! Property tests for the inter-firewall wire format.

use proptest::prelude::*;
use tacoma_briefcase::{Briefcase, Bytes, Folder};
use tacoma_firewall::{Message, MessageKind};
use tacoma_security::Principal;
use tacoma_uri::{AgentAddress, Instance};

fn arb_briefcase() -> impl Strategy<Value = Briefcase> {
    prop::collection::btree_map(
        "[A-Za-z0-9:-]{1,16}",
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..4),
        0..5,
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

fn arb_message() -> impl Strategy<Value = Message> {
    (
        prop_oneof![
            Just(MessageKind::Deliver),
            Just(MessageKind::AgentTransfer { spawned: false }),
            Just(MessageKind::AgentTransfer { spawned: true }),
        ],
        "[a-z][a-z0-9.]{0,12}",
        "[a-z][a-z0-9@.]{0,12}",
        prop::option::of(("[a-z][a-z0-9]{0,8}", "[a-z][a-z0-9_]{0,8}", any::<u64>())),
        "[a-z][a-z0-9_]{0,10}",
        arb_briefcase(),
        prop::option::of("[a-f0-9]{16}"),
        prop::option::of("[a-f0-9]{16}"),
    )
        .prop_map(
            |(kind, from_host, principal, agent, to_name, briefcase, hop, hop_parent)| {
                let from_agent =
                    agent.map(|(p, n, i)| AgentAddress::new(p, n, Instance::from_u64(i)));
                Message {
                    kind,
                    from_host,
                    from_principal: Principal::new(principal).expect("generated principal valid"),
                    from_agent,
                    to: tacoma_uri::AgentUri::local(to_name).expect("generated name valid"),
                    briefcase,
                    hop,
                    hop_parent,
                }
            },
        )
}

proptest! {
    /// encode → decode is the identity on every constructible message.
    #[test]
    fn roundtrip(message in arb_message()) {
        let wire = Bytes::from(message.encode());
        prop_assert_eq!(wire.len(), message.encoded_len());
        let back = Message::decode_bytes(&wire).unwrap();
        prop_assert_eq!(message, back);
    }

    /// The decoder `taxd` runs is total on arbitrary bytes.
    #[test]
    fn decode_total(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = Message::decode_bytes(&Bytes::from(bytes));
    }

    /// Flipping one byte of a valid frame never panics, and either fails
    /// to decode or decodes to *some* well-formed message.
    #[test]
    fn corruption_contained(message in arb_message(), idx in any::<prop::sample::Index>(), xor in 1u8..) {
        let mut wire = message.encode();
        let i = idx.index(wire.len());
        wire[i] ^= xor;
        let _ = Message::decode_bytes(&Bytes::from(wire));
    }
}
