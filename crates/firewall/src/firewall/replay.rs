//! Replay: boot-time recovery of parked mail and open outbound hops.

use std::time::Duration;

use tacoma_journal::OpenHop;
use tacoma_simnet::SimTime;

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
    /// the journaled frame goes out verbatim (the receiver's dedup set
    /// suppresses it if the original send actually arrived). On success
    /// the hop is committed; on failure it stays open so a later restart
    /// retries — unlike a live send, there is no agent waiting to hear
    /// about the failure, so aborting would lose the agent.
    ///
    /// # Errors
    ///
    /// [`FirewallError::Transport`] when the send fails (hop left open),
    /// [`FirewallError::BadWire`] if the journaled frame does not decode.
    pub fn replay_ship_hop(
        &mut self,
        hop: &OpenHop,
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
        let sent = transport.send(&self.host, &host, port, &hop.wire);
        self.book(hop.wire.len(), sent.is_ok());
        sent.map_err(FirewallError::Transport)?;
        self.stats.journal_resumed += 1;
        if let Some(journal) = &self.journal {
            let _ = journal.hop_committed(&hop.key);
        }
        Ok(())
    }
}
