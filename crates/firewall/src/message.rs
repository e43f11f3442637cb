//! The inter-firewall message: everything on the wire is a briefcase.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use tacoma_briefcase::{Briefcase, Element};
use tacoma_security::Principal;
use tacoma_uri::{AgentAddress, AgentUri};

use crate::FirewallError;

/// What a message *is*, from the firewall's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MessageKind {
    /// An ordinary briefcase exchange between agents (`activate`, `meet`,
    /// `await` replies — the kernel layers RPC correlation on top).
    Deliver,
    /// A moving agent (`go`): the briefcase carries the agent itself; on
    /// arrival the firewall authenticates it and installs it on a VM
    /// instead of delivering it to a running agent.
    AgentTransfer {
        /// `true` for `spawn` (fresh instance, origin keeps running),
        /// `false` for `go` (origin instance terminated).
        spawned: bool,
    },
}

/// A mediated message: sender identity, target pattern, and payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// What kind of delivery this is.
    pub kind: MessageKind,
    /// The host the message was sent from.
    pub from_host: String,
    /// The principal on whose behalf the sender acts.
    pub from_principal: Principal,
    /// The sending agent, when the sender is an agent (admin tools and the
    /// kernel itself send agent-less messages).
    pub from_agent: Option<AgentAddress>,
    /// The target pattern (Figure 2 URI).
    pub to: AgentUri,
    /// The payload.
    pub briefcase: Briefcase,
    /// The content-derived dedup key of this hop, set on agent transfers
    /// when the sending kernel journals migrations. Receivers use it for
    /// effectively-once installation: a retried transfer with an
    /// already-seen key is acknowledged but not re-executed.
    pub hop: Option<String>,
    /// The hop key of the inbound hop whose task issued this transfer, if
    /// any. Replay treats a parent with a journaled child as committed
    /// (the child's begin proves the parent progressed past its send).
    pub hop_parent: Option<String>,
}

/// Well-known system folders used to frame a [`Message`] on the wire. The
/// payload briefcase is nested whole, so application folders can never
/// collide with framing.
mod wire {
    pub const KIND: &str = "SYS:KIND";
    pub const FROM_HOST: &str = "SYS:FROM-HOST";
    pub const FROM_PRINCIPAL: &str = "SYS:FROM-PRINCIPAL";
    pub const FROM_AGENT: &str = "SYS:FROM-AGENT";
    pub const TO: &str = "SYS:TO";
    pub const PAYLOAD: &str = "SYS:PAYLOAD";
    pub const HOP: &str = "SYS:HOP";
    pub const HOP_PARENT: &str = "SYS:HOP-PARENT";
}

impl Message {
    /// A plain delivery from an agent.
    pub fn deliver(
        from_host: impl Into<String>,
        from_principal: Principal,
        from_agent: Option<AgentAddress>,
        to: AgentUri,
        briefcase: Briefcase,
    ) -> Self {
        Message {
            kind: MessageKind::Deliver,
            from_host: from_host.into(),
            from_principal,
            from_agent,
            to,
            briefcase,
            hop: None,
            hop_parent: None,
        }
    }

    /// An agent transfer (`go` when `spawned` is false, `spawn` otherwise).
    pub fn transfer(
        from_host: impl Into<String>,
        from_principal: Principal,
        to: AgentUri,
        briefcase: Briefcase,
        spawned: bool,
    ) -> Self {
        Message {
            kind: MessageKind::AgentTransfer { spawned },
            from_host: from_host.into(),
            from_principal,
            from_agent: None,
            to,
            briefcase,
            hop: None,
            hop_parent: None,
        }
    }

    /// Attaches a hop dedup key (and optionally its parent hop) to a
    /// transfer. Builder-style so the kernel's `go`/`spawn` paths stay a
    /// single expression.
    #[must_use]
    pub fn with_hop(mut self, hop: impl Into<String>, parent: Option<String>) -> Self {
        self.hop = Some(hop.into());
        self.hop_parent = parent;
        self
    }

    /// Frames the message as a single briefcase and encodes it for the
    /// network. This is the only wire format between firewalls —
    /// briefcases all the way down (§3.3: a VM's sole obligation is to
    /// "issue briefcases for communication").
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encodes into a caller-provided buffer, appending — senders with a
    /// write loop (connections, the simulated transport) reuse one buffer
    /// across messages instead of allocating per message.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut frame = Briefcase::new();
        let kind = match self.kind {
            MessageKind::Deliver => "deliver".to_owned(),
            MessageKind::AgentTransfer { spawned: false } => "go".to_owned(),
            MessageKind::AgentTransfer { spawned: true } => "spawn".to_owned(),
        };
        frame.set_single(wire::KIND, kind);
        frame.set_single(wire::FROM_HOST, self.from_host.as_str());
        frame.set_single(wire::FROM_PRINCIPAL, self.from_principal.as_str());
        if let Some(agent) = &self.from_agent {
            frame.set_single(wire::FROM_AGENT, agent.to_string());
        }
        frame.set_single(wire::TO, self.to.to_string());
        if let Some(hop) = &self.hop {
            frame.set_single(wire::HOP, hop.as_str());
        }
        if let Some(parent) = &self.hop_parent {
            frame.set_single(wire::HOP_PARENT, parent.as_str());
        }
        // The payload rides as a shared handle to the briefcase's cached
        // encoding: retries and multi-peer fan-out over clones of the same
        // briefcase serialize the payload once, and the frame element is a
        // pointer bump rather than a copy of the payload bytes.
        frame.set_single(wire::PAYLOAD, Element::from(self.briefcase.wire_bytes()));
        frame.encode_into(out);
    }

    /// Decodes a message from a shared buffer, zero-copy: the message
    /// frame and its nested payload briefcase are both sliced out of
    /// `bytes`' allocation, so element data (page bodies, agent binaries)
    /// is never copied off the wire buffer.
    ///
    /// # Errors
    ///
    /// [`FirewallError::BadWire`] on any malformation; hostile input
    /// cannot panic the firewall.
    pub fn decode_bytes(bytes: &Bytes) -> Result<Self, FirewallError> {
        let frame = Briefcase::decode_bytes(bytes).map_err(bad)?;
        let kind = match frame.single_str(wire::KIND).map_err(bad)? {
            "deliver" => MessageKind::Deliver,
            "go" => MessageKind::AgentTransfer { spawned: false },
            "spawn" => MessageKind::AgentTransfer { spawned: true },
            other => {
                return Err(FirewallError::BadWire {
                    detail: format!("unknown kind {other:?}"),
                })
            }
        };
        let from_host = frame.single_str(wire::FROM_HOST).map_err(bad)?.to_owned();
        let from_principal =
            Principal::new(frame.single_str(wire::FROM_PRINCIPAL).map_err(bad)?).map_err(bad)?;
        let from_agent = match frame.single_str(wire::FROM_AGENT) {
            Ok(text) => Some(parse_address(text)?),
            Err(_) => None,
        };
        let to: AgentUri = frame
            .single_str(wire::TO)
            .map_err(bad)?
            .parse()
            .map_err(bad)?;
        let hop = frame.single_str(wire::HOP).ok().map(str::to_owned);
        let hop_parent = frame.single_str(wire::HOP_PARENT).ok().map(str::to_owned);
        let payload = frame.element(wire::PAYLOAD, 0).map_err(bad)?;
        let briefcase = Briefcase::decode_bytes(payload.bytes()).map_err(bad)?;
        Ok(Message {
            kind,
            from_host,
            from_principal,
            from_agent,
            to,
            briefcase,
            hop,
            hop_parent,
        })
    }

    /// Copies `bytes` into a shared buffer and decodes it with
    /// [`Message::decode_bytes`]. It exists only for hopbench
    /// (`benchmark/`), which decodes frames it holds as `Vec<u8>`.
    ///
    /// # Errors
    ///
    /// Exactly as [`Message::decode_bytes`].
    pub fn decode(bytes: &[u8]) -> Result<Self, FirewallError> {
        Message::decode_bytes(&Bytes::copy_from_slice(bytes))
    }

    /// The exact encoded size, for transfer-cost accounting — computed
    /// arithmetically, *without* serializing the payload. Every `meet`
    /// used to pay a full encode of the reply just to price the transfer;
    /// this makes cost accounting O(folders) instead of O(bytes).
    pub fn encoded_len(&self) -> usize {
        // One framing folder holding a single element of `data_len` bytes.
        fn folder(name: &str, data_len: usize) -> usize {
            2 + name.len() + 4 + 4 + data_len
        }
        let kind_len = match self.kind {
            MessageKind::Deliver => "deliver".len(),
            MessageKind::AgentTransfer { spawned: false } => "go".len(),
            MessageKind::AgentTransfer { spawned: true } => "spawn".len(),
        };
        let mut len = 4 + 1 + 4; // magic + version + folder count
        len += folder(wire::KIND, kind_len);
        len += folder(wire::FROM_HOST, self.from_host.len());
        len += folder(wire::FROM_PRINCIPAL, self.from_principal.as_str().len());
        if let Some(agent) = &self.from_agent {
            len += folder(wire::FROM_AGENT, agent.to_string().len());
        }
        len += folder(wire::TO, self.to.to_string().len());
        if let Some(hop) = &self.hop {
            len += folder(wire::HOP, hop.len());
        }
        if let Some(parent) = &self.hop_parent {
            len += folder(wire::HOP_PARENT, parent.len());
        }
        len += folder(wire::PAYLOAD, self.briefcase.encoded_len());
        len
    }
}

fn bad(e: impl std::fmt::Display) -> FirewallError {
    FirewallError::BadWire {
        detail: e.to_string(),
    }
}

/// Parses the `principal/name:instance` rendering of [`AgentAddress`].
fn parse_address(text: &str) -> Result<AgentAddress, FirewallError> {
    let (principal, id) = text
        .rsplit_once('/')
        .ok_or_else(|| FirewallError::BadWire {
            detail: format!("bad agent address {text:?}"),
        })?;
    let (name, instance) = id.split_once(':').ok_or_else(|| FirewallError::BadWire {
        detail: format!("bad agent id {id:?}"),
    })?;
    let instance = instance.parse().map_err(bad)?;
    Ok(AgentAddress::new(principal, name, instance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_uri::Instance;

    fn sample() -> Message {
        let mut payload = Briefcase::new();
        payload.append("RESULTS", "found 3 dead links");
        Message::deliver(
            "h1.cs.uit.no",
            Principal::new("alice@h1").unwrap(),
            Some(AgentAddress::new(
                "alice@h1",
                "webbot",
                Instance::from_u64(9),
            )),
            "tacoma://h2.cs.uit.no/ag_fs".parse().unwrap(),
            payload,
        )
    }

    #[test]
    fn roundtrip_deliver() {
        let m = sample();
        let back = Message::decode(&m.encode()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn roundtrip_transfers() {
        for spawned in [false, true] {
            let m = Message::transfer(
                "h1",
                Principal::new("p").unwrap(),
                "tacoma://h2/vm_script".parse().unwrap(),
                Briefcase::new(),
                spawned,
            );
            let back = Message::decode(&m.encode()).unwrap();
            assert_eq!(back.kind, MessageKind::AgentTransfer { spawned });
            assert_eq!(back.hop, None);
            assert_eq!(back.hop_parent, None);
        }
    }

    #[test]
    fn roundtrip_hop_keys() {
        let rooted = Message::transfer(
            "h1",
            Principal::new("p").unwrap(),
            "tacoma://h2/vm_script".parse().unwrap(),
            Briefcase::new(),
            false,
        )
        .with_hop("aabbccdd00112233", None);
        let back = Message::decode(&rooted.encode()).unwrap();
        assert_eq!(back, rooted);
        assert_eq!(back.hop.as_deref(), Some("aabbccdd00112233"));
        assert_eq!(back.hop_parent, None);

        let chained = Message::transfer(
            "h2",
            Principal::new("p").unwrap(),
            "tacoma://h3/vm_script".parse().unwrap(),
            Briefcase::new(),
            true,
        )
        .with_hop("ffee001122334455", Some("aabbccdd00112233".to_owned()));
        let back = Message::decode(&chained.encode()).unwrap();
        assert_eq!(back, chained);
        assert_eq!(back.hop_parent.as_deref(), Some("aabbccdd00112233"));
    }

    #[test]
    fn roundtrip_without_agent() {
        let m = Message::deliver(
            "h1",
            Principal::new("p").unwrap(),
            None,
            "ag_fs".parse().unwrap(),
            Briefcase::new(),
        );
        let back = Message::decode(&m.encode()).unwrap();
        assert_eq!(back.from_agent, None);
    }

    #[test]
    fn payload_folders_cannot_collide_with_framing() {
        let mut payload = Briefcase::new();
        payload.set_single("SYS:KIND", "spoofed");
        payload.set_single("SYS:TO", "spoofed");
        let m = Message::deliver(
            "h1",
            Principal::new("p").unwrap(),
            None,
            "ag_fs".parse().unwrap(),
            payload.clone(),
        );
        let back = Message::decode(&m.encode()).unwrap();
        assert_eq!(back.kind, MessageKind::Deliver);
        assert_eq!(back.briefcase, payload);
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        assert!(matches!(
            Message::decode(b"junk"),
            Err(FirewallError::BadWire { .. })
        ));
        assert!(matches!(
            Message::decode(&[]),
            Err(FirewallError::BadWire { .. })
        ));
        // A valid briefcase that is not a message frame:
        let empty = Briefcase::new().encode();
        assert!(matches!(
            Message::decode(&empty),
            Err(FirewallError::BadWire { .. })
        ));
    }

    #[test]
    fn encoded_len_matches_encode() {
        let m = sample();
        assert_eq!(m.encoded_len(), m.encode().len());

        // Agent-less and transfer variants hit the other arithmetic arms.
        let plain = Message::deliver(
            "h1",
            Principal::new("p").unwrap(),
            None,
            "ag_fs".parse().unwrap(),
            Briefcase::new(),
        );
        assert_eq!(plain.encoded_len(), plain.encode().len());
        for spawned in [false, true] {
            let t = Message::transfer(
                "h1",
                Principal::new("p").unwrap(),
                "tacoma://h2/vm_script".parse().unwrap(),
                Briefcase::new(),
                spawned,
            );
            assert_eq!(t.encoded_len(), t.encode().len());

            // Hop keys participate in the arithmetic too.
            let keyed = t.with_hop("0123456789abcdef", Some("fedcba9876543210".to_owned()));
            assert_eq!(keyed.encoded_len(), keyed.encode().len());
        }
    }

    #[test]
    fn encode_serializes_the_payload_once_across_attempts() {
        let m = sample();
        assert!(!m.briefcase.has_cached_wire());
        let first = m.encode();
        // The first encode populated the payload cache; retries (ship
        // backoff, pending-queue redelivery) reuse it.
        assert!(m.briefcase.has_cached_wire());
        assert_eq!(m.encode(), first);

        // A pointer-bump clone (multi-destination fan-out) shares the cache.
        let clone = m.clone();
        assert!(clone.briefcase.has_cached_wire());
        assert_eq!(clone.encode(), first);
    }

    #[test]
    fn decode_bytes_matches_decode_and_shares_the_wire() {
        // `decode` is the copying adapter hopbench calls.
        let m = sample();
        let wire = Bytes::from(m.encode());
        let copied = Message::decode(&wire).unwrap();
        let sliced = Message::decode_bytes(&wire).unwrap();
        assert_eq!(copied, sliced);
        assert_eq!(sliced, m);

        // The nested payload's elements live inside the wire allocation.
        let base = wire.as_ptr() as usize;
        let end = base + wire.len();
        let e = sliced.briefcase.element("RESULTS", 0).unwrap();
        let p = e.bytes().as_ptr() as usize;
        assert!(p >= base && p + e.len() <= end);

        assert!(Message::decode(b"junk").is_err());
    }
}
