//! Replay: boot-time recovery of parked mail and open outbound hops.

use std::time::Duration;

use tacoma_journal::OpenHop;
use tacoma_simnet::SimTime;

use super::shipping::ShipTicket;
use super::Firewall;
use crate::{FirewallError, Message};

impl Firewall {
    /// Re-parks a message recovered from the journal at boot, *without*
    /// writing a new record (the replayed `MailParked` already covers
    /// it). The deadline is recomputed from the journal's relative
    /// timeout against the current clock — absolute deadlines from the
    /// previous boot's clock would be meaningless here.
    pub fn replay_park(
        &mut self,
        message: Message,
        now: SimTime,
        timeout: Duration,
        journal_key: u64,
    ) {
        self.pending
            .enqueue_keyed(message, now, timeout, Some(journal_key));
        self.stats.queued += 1;
        self.stats.journal_reparked += 1;
    }

    /// Re-ships an open outbound hop recovered from the journal at boot:
    /// the journaled frame is handed over verbatim like any send, so a
    /// dead peer does not hold up the boot (the receiver's dedup set
    /// suppresses it if the original send actually arrived). On ack the
    /// hop is committed; on loss it stays open so a later restart
    /// retries — unlike a live send, there is no agent waiting to hear
    /// about the failure, so aborting would lose the agent.
    ///
    /// # Errors
    ///
    /// [`FirewallError::Transport`] when a transport without a
    /// nonblocking path fails the send (hop left open),
    /// [`FirewallError::BadWire`] if the journaled frame does not decode.
    pub fn replay_ship_hop(
        &mut self,
        hop: &OpenHop,
        now: SimTime,
        transport: &dyn tacoma_transport::Transport,
    ) -> Result<(), FirewallError> {
        let message = Message::decode_bytes(&hop.wire)?;
        let (host, port) = match (message.to.host(), message.to.location()) {
            (Some(h), Some(loc)) => (h.to_owned(), loc.effective_port()),
            _ => {
                return Err(FirewallError::BadWire {
                    detail: format!("journaled hop {} has no remote target", hop.key),
                })
            }
        };
        let (token, ticket) = (self.next_token(), ShipTicket::Replay(hop.key.clone()));
        let wire = hop.wire.clone();
        let settled = self.hand_over(token, (&host, port), wire, ticket, now, transport);
        settled.unwrap_or(Ok(()))
    }
}
