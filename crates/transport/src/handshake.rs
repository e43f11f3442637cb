//! The HELLO exchange: the first frames on every connection.
//!
//! The client opens with a `Hello` frame whose payload is a briefcase —
//! briefcases all the way down, like every other TAX wire structure:
//!
//! | folder            | contents                                        |
//! |-------------------|--------------------------------------------------|
//! | `HELLO:HOST`      | the connecting firewall's host name              |
//! | `HELLO:PRINCIPAL` | principal the connection acts as (when signed)   |
//! | `HELLO:NONCE`     | decimal nonce, fresh per connection              |
//! | `HELLO:SIG`       | hex MAC over `hello:{host}:{nonce}` (when signed)|
//!
//! The server verifies the signature against its [`TrustStore`] (the same
//! store the firewall uses for agent cores) and answers `Welcome` with its
//! own host name, or `Reject` with a UTF-8 reason. A deployment may allow
//! unsigned peers (`require_signed = false`, the paper's single-domain
//! trust model of §2) — the peer is then treated as unauthenticated and
//! the firewall's unauthenticated-rights policy applies downstream.

use bytes::Bytes;
use tacoma_briefcase::Briefcase;
use tacoma_security::{Digest, Keyring, Principal, Signature, TrustStore};

use crate::TransportError;

const HOST: &str = "HELLO:HOST";
const PRINCIPAL: &str = "HELLO:PRINCIPAL";
const NONCE: &str = "HELLO:NONCE";
const SIG: &str = "HELLO:SIG";

/// What the server learned from a verified HELLO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloInfo {
    /// The connecting firewall's host name.
    pub host: String,
    /// The authenticated principal, when the HELLO was signed and
    /// verified; `None` for an accepted unsigned peer.
    pub principal: Option<Principal>,
}

/// The bytes a HELLO signature covers.
fn signed_bytes(host: &str, nonce: u64) -> Vec<u8> {
    format!("hello:{host}:{nonce}").into_bytes()
}

/// Builds a HELLO payload for `host`, signed with `keyring` when given.
pub fn build_hello(host: &str, keyring: Option<&Keyring>, nonce: u64) -> Vec<u8> {
    let mut bc = Briefcase::new();
    bc.set_single(HOST, host);
    bc.set_single(NONCE, format!("{nonce}"));
    if let Some(keys) = keyring {
        bc.set_single(PRINCIPAL, keys.principal().as_str());
        bc.set_single(SIG, keys.sign(&signed_bytes(host, nonce)).digest().to_hex());
    }
    bc.encode()
}

/// Builds the WELCOME payload naming the accepting server.
pub fn build_welcome(host: &str) -> Vec<u8> {
    let mut bc = Briefcase::new();
    bc.set_single(HOST, host);
    bc.encode()
}

/// Reads the server host name out of a WELCOME payload.
///
/// # Errors
///
/// [`TransportError::BadFrame`] when the payload is not a WELCOME
/// briefcase.
pub fn parse_welcome(payload: &Bytes) -> Result<String, TransportError> {
    let bc = Briefcase::decode_bytes(payload).map_err(|e| TransportError::BadFrame {
        detail: format!("welcome payload: {e}"),
    })?;
    Ok(bc
        .single_str(HOST)
        .map_err(|e| TransportError::BadFrame {
            detail: format!("welcome payload: {e}"),
        })?
        .to_owned())
}

/// Verifies a HELLO payload against `trust`.
///
/// # Errors
///
/// [`TransportError::HandshakeFailed`] when the payload is malformed,
/// unsigned while `require_signed`, signed by an untrusted principal, or
/// carries a bad signature.
pub fn verify_hello(
    payload: &Bytes,
    trust: &TrustStore,
    require_signed: bool,
) -> Result<HelloInfo, TransportError> {
    let rejected = |reason: String| TransportError::HandshakeFailed { reason };
    let bc = Briefcase::decode_bytes(payload)
        .map_err(|e| rejected(format!("hello is not a briefcase: {e}")))?;
    let host = bc
        .single_str(HOST)
        .map_err(|_| rejected("hello names no host".into()))?
        .to_owned();
    let nonce: u64 = bc
        .single_str(NONCE)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| rejected("hello carries no usable nonce".into()))?;

    let signed = bc.single_str(PRINCIPAL).is_ok() || bc.single_str(SIG).is_ok();
    if !signed {
        if require_signed {
            return Err(rejected(format!("unsigned hello from {host:?} refused")));
        }
        return Ok(HelloInfo {
            host,
            principal: None,
        });
    }

    let principal_name = bc
        .single_str(PRINCIPAL)
        .map_err(|_| rejected("signed hello names no principal".into()))?;
    let principal = Principal::new(principal_name)
        .map_err(|e| rejected(format!("bad hello principal: {e}")))?;
    let sig_hex = bc
        .single_str(SIG)
        .map_err(|_| rejected("signed hello carries no signature".into()))?;
    let digest = Digest::from_hex(sig_hex)
        .map_err(|_| rejected("hello signature is not valid hex".into()))?;
    trust
        .verify(
            &principal,
            &signed_bytes(&host, nonce),
            &Signature::from_digest(digest),
        )
        .map_err(|e| rejected(format!("hello signature refused: {e}")))?;
    Ok(HelloInfo {
        host,
        principal: Some(principal),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trusted() -> (Keyring, TrustStore) {
        let sys = Principal::local_system("h1");
        let keys = Keyring::generate(&sys, 11);
        let mut trust = TrustStore::new();
        trust.trust(keys.public());
        (keys, trust)
    }

    #[test]
    fn signed_hello_verifies_and_names_principal() {
        let (keys, trust) = trusted();
        let payload = Bytes::from(build_hello("h1", Some(&keys), 77));
        let info = verify_hello(&payload, &trust, true).unwrap();
        assert_eq!(info.host, "h1");
        assert_eq!(info.principal.unwrap().as_str(), "system@h1");
    }

    #[test]
    fn unsigned_hello_needs_permissive_server() {
        let (_keys, trust) = trusted();
        let payload = Bytes::from(build_hello("h9", None, 1));
        assert!(verify_hello(&payload, &trust, true).is_err());
        let info = verify_hello(&payload, &trust, false).unwrap();
        assert_eq!(info.host, "h9");
        assert_eq!(info.principal, None);
    }

    #[test]
    fn untrusted_signer_is_refused_even_when_permissive() {
        let (_keys, trust) = trusted();
        let rogue = Keyring::generate(&Principal::local_system("evil"), 3);
        let payload = Bytes::from(build_hello("evil", Some(&rogue), 5));
        assert!(matches!(
            verify_hello(&payload, &trust, false),
            Err(TransportError::HandshakeFailed { .. })
        ));
    }

    #[test]
    fn tampered_host_breaks_signature() {
        let (keys, trust) = trusted();
        // Sign as h1 but claim to be h2: the MAC covers the host name.
        let mut bc =
            Briefcase::decode_bytes(&Bytes::from(build_hello("h1", Some(&keys), 9))).unwrap();
        bc.set_single(HOST, "h2");
        assert!(verify_hello(&bc.wire_bytes(), &trust, false).is_err());
    }

    #[test]
    fn welcome_roundtrips() {
        assert_eq!(
            parse_welcome(&Bytes::from(build_welcome("srv"))).unwrap(),
            "srv"
        );
        assert!(parse_welcome(&Bytes::from_static(b"junk")).is_err());
    }
}
