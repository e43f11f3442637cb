//! Shipping and parking: every remote send is handed to the transport
//! in one place ([`Firewall::hand_over`]) and settled in one place
//! ([`Firewall::settle`]); what could not be sent is parked.

use bytes::Bytes;
use tacoma_simnet::SimTime;
use tacoma_transport::{Completion, Transport};

use super::{Decision, Firewall, TransferVerdict};
use crate::pending::TakenMail;
use crate::{FirewallError, Message, MessageKind};

/// What a frame handed to the transport (or held for it) carries, which
/// decides how it settles.
// Unboxed: a ticket lives in the in-flight map for one round trip, and
// boxing the mail would cost an allocation per send.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(super) enum ShipTicket {
    /// Fresh mail: parked when lost.
    Mail(Message),
    /// Parked mail the sweep retries: closed with `mail-delivered` on
    /// ack, re-parked under its deadline and journal key when lost again.
    Redelivery(TakenMail),
    /// An agent transfer and its hop key: a journaled hop commits on ack
    /// and aborts when lost.
    Transfer(Option<String>),
    /// An open outbound hop re-shipped at boot: committed (and counted
    /// in `jr-resumed`) on ack, left open for the next boot when lost.
    Replay(String),
}

/// An outbound transfer frame held back until the journal record that
/// begins its hop is durable (see [`Firewall::release_held`]).
#[derive(Debug)]
pub(super) struct HeldFrame {
    token: u64,
    host: String,
    port: u16,
    wire: Bytes,
    hop: Option<String>,
}

impl Firewall {
    /// Drops expired queued messages; to be called periodically.
    pub fn expire_pending(&mut self, now: SimTime) -> usize {
        let expired = self.pending.expire(now);
        self.stats.expired += expired.count as u64;
        if let Some(journal) = &self.journal {
            // An expired park is as terminal as a delivery: replay must
            // not resurrect mail whose timeout already fired.
            for key in &expired.journal_keys {
                let _ = journal.mail_delivered(*key);
            }
        }
        expired.count
    }

    /// Number of messages currently queued.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Routes an outbound message *and* carries out any remote forward on
    /// `transport`, so callers never see [`Decision::ForwardRemote`].
    ///
    /// Undeliverable messages are never silently lost: a failed `Deliver`
    /// is parked in the pending queue with the usual timeout (a later
    /// [`Firewall::redeliver_remote_pending`] sweep retries it); a failed
    /// agent transfer is reported to the caller so the agent's
    /// unreachable branch can run.
    ///
    /// # Errors
    ///
    /// Everything [`Firewall::route_outbound`] raises, plus
    /// [`FirewallError::Transport`] when an agent transfer exhausts the
    /// transport's retry budget.
    pub fn dispatch_outbound(
        &mut self,
        message: Message,
        now: SimTime,
        transport: &dyn Transport,
    ) -> Result<Decision, FirewallError> {
        match self.route_outbound(message, now)? {
            Decision::ForwardRemote {
                host,
                port,
                message,
            } => self.ship(message, &host, port, now, transport),
            other => Ok(other),
        }
    }

    /// Routes an agent transfer like [`Firewall::dispatch_outbound`], but
    /// a remote hop on a nonblocking transport does not wait for its
    /// verdict: it returns [`Decision::InFlight`], and the verdict comes
    /// back through [`Firewall::take_verdicts`]. With a journal, the
    /// hop's begin record is appended unsynced and the frame is held
    /// until [`Firewall::release_held`] makes the records durable — one
    /// fsync for every transfer of a scheduler turn. Without a journal, a
    /// transport that refuses the nonblocking path (the simnet) takes the
    /// blocking send, and the verdict is synchronous.
    ///
    /// # Errors
    ///
    /// As [`Firewall::dispatch_outbound`].
    pub fn dispatch_transfer(
        &mut self,
        message: Message,
        now: SimTime,
        transport: &dyn Transport,
    ) -> Result<Decision, FirewallError> {
        match self.route_outbound(message, now)? {
            Decision::ForwardRemote {
                host,
                port,
                message,
            } => self.ship_in_flight(message, &host, port, now, transport),
            other => Ok(other),
        }
    }

    /// Hands one already-routed message to the transport, parking or
    /// reporting failures per message kind (the second half of
    /// [`Firewall::dispatch_outbound`], exposed for callers that routed
    /// separately). Mail is `Forwarded` once the nonblocking path takes
    /// it (a loss settles later and parks it), or `Queued` when the
    /// blocking fallback lost it. A transfer reaching this method wants
    /// its verdict now (a native program's `go`), so it is sent blocking;
    /// a suspendable agent's goes through [`Firewall::dispatch_transfer`].
    ///
    /// # Errors
    ///
    /// [`FirewallError::Transport`] when an agent transfer exhausts the
    /// transport's retry budget; failed `Deliver` messages are parked
    /// instead.
    pub fn ship(
        &mut self,
        message: Message,
        host: &str,
        port: u16,
        now: SimTime,
        transport: &dyn Transport,
    ) -> Result<Decision, FirewallError> {
        let wire = encode_frame(&message);
        let forwarded = Decision::Forwarded {
            host: host.to_owned(),
            bytes: wire.len(),
        };
        if let MessageKind::Deliver = message.kind {
            let (token, mail) = (self.next_token(), ShipTicket::Mail(message));
            let settled = self.hand_over(token, (host, port), wire, mail, now, transport);
            return Ok(match settled {
                Some(Err(_)) => Decision::Queued,
                _ => forwarded,
            });
        }
        // Write-ahead: a migration must be durable *before* the first
        // transmission attempt, so a crash between send and ack resumes
        // the hop instead of losing the agent. The journaled wire is the
        // ready-to-send frame (payload bytes from the encode-once cache),
        // so this is one buffer append, not a re-encode.
        let hop = match (&self.journal, message.hop) {
            (Some(journal), Some(key)) => {
                journal.hop_begin(&key, message.hop_parent.as_deref(), false, host, &wire)?;
                Some(key)
            }
            _ => None,
        };
        let sent = transport.send(&self.host, host, port, &wire);
        let transfer = ShipTicket::Transfer(hop);
        self.settle(&wire, transfer, sent.map_err(FirewallError::Transport), now)?;
        Ok(forwarded)
    }

    /// The in-flight half of [`Firewall::dispatch_transfer`].
    fn ship_in_flight(
        &mut self,
        message: Message,
        host: &str,
        port: u16,
        now: SimTime,
        transport: &dyn Transport,
    ) -> Result<Decision, FirewallError> {
        let wire = encode_frame(&message);
        let bytes = wire.len();
        let token = self.next_token();
        if let (Some(journal), Some(key)) = (&self.journal, &message.hop) {
            // Write-ahead, batched: append now, hand over only once
            // `release_held`'s fsync covers the record.
            let parent = message.hop_parent.as_deref();
            let lsn = journal.append_hop_begin(key, parent, false, host, &wire)?;
            self.held_lsn = self.held_lsn.max(lsn);
            let (host, hop) = (host.to_owned(), message.hop);
            self.held.push(HeldFrame {
                token,
                host,
                port,
                wire,
                hop,
            });
            return Ok(Decision::InFlight { token });
        }
        // Nothing to make durable first. A frame the transport refuses
        // gets its verdict from the blocking send, synchronously.
        let transfer = ShipTicket::Transfer(None);
        match self.hand_over(token, (host, port), wire, transfer, now, transport) {
            None => Ok(Decision::InFlight { token }),
            Some(verdict) => verdict.map(|()| Decision::Forwarded {
                host: host.to_owned(),
                bytes,
            }),
        }
    }

    /// The write-ahead barrier: one fsync makes every hop begin that
    /// [`Firewall::dispatch_transfer`] appended since the last call
    /// durable, and only then are the held frames handed over — no
    /// transfer frame reaches the transport before its record is on
    /// disk. If the fsync fails, every held transfer fails unsent. A
    /// verdict settled here (a refused frame's blocking send, or the
    /// fsync failure) goes to [`Firewall::take_verdicts`]. Returns the
    /// number of frames released. Daemons call this when the scheduler
    /// goes quiet.
    pub fn release_held(&mut self, now: SimTime, transport: &dyn Transport) -> usize {
        if self.held.is_empty() {
            return 0;
        }
        let held = std::mem::take(&mut self.held);
        let released = held.len();
        let durable = match &self.journal {
            Some(journal) => journal
                .ensure_synced(self.held_lsn)
                .map_err(FirewallError::from),
            None => Ok(()),
        };
        for frame in held {
            let transfer = ShipTicket::Transfer(frame.hop);
            let verdict = match &durable {
                Ok(()) => {
                    let to = (frame.host.as_str(), frame.port);
                    self.hand_over(frame.token, to, frame.wire, transfer, now, transport)
                }
                Err(e) => Some(self.settle(&frame.wire, transfer, Err(e.clone()), now)),
            };
            if let Some(verdict) = verdict {
                self.verdicts.push((frame.token, verdict));
            }
        }
        released
    }

    /// Every transfer verdict settled since the last call, in settling
    /// order. The kernel resumes each suspended sender with its verdict.
    pub fn take_verdicts(&mut self) -> Vec<TransferVerdict> {
        std::mem::take(&mut self.verdicts)
    }

    /// The one hand-over: `wire` goes to the transport's nonblocking path
    /// under `token`, and [`Firewall::pump_transport`] settles it later
    /// (returns `None`). When the transport refuses it (a full peer
    /// queue, or no nonblocking path, as on the simnet), it takes the
    /// blocking send, which on a full queue waits for room within its
    /// retry budget rather than drop it, and the ticket is settled at
    /// once (returns the outcome).
    pub(super) fn hand_over(
        &mut self,
        token: u64,
        (host, port): (&str, u16),
        wire: Bytes,
        ticket: ShipTicket,
        now: SimTime,
        transport: &dyn Transport,
    ) -> Option<Result<(), FirewallError>> {
        let queued = transport.send_nowait(&self.host, host, port, wire.clone(), token);
        if queued.is_ok() {
            self.inflight.insert(token, (wire, ticket));
            return None;
        }
        let sent = transport.send(&self.host, host, port, &wire);
        Some(self.settle(&wire, ticket, sent.map_err(FirewallError::Transport), now))
    }

    /// The one settle: counts the send through [`Firewall::book`] and
    /// closes what the frame carried (see [`ShipTicket`]). A hop commits
    /// on ack because the receiver now owns it (batched: losing the
    /// record only re-ships a frame its dedup set suppresses), and aborts
    /// on loss because the sender learns of the failure, so replay must
    /// not retry it. A redelivery lost again keeps its `mail-parked`
    /// record. Returns `sent`.
    fn settle(
        &mut self,
        wire: &Bytes,
        ticket: ShipTicket,
        sent: Result<(), FirewallError>,
        now: SimTime,
    ) -> Result<(), FirewallError> {
        let delivered = sent.is_ok();
        self.book(wire.len(), delivered);
        let journal = self.journal.as_ref();
        match ticket {
            ShipTicket::Mail(message) if !delivered => self.park(message, now, Some(wire)),
            ShipTicket::Redelivery(mail) if !delivered => {
                self.pending
                    .enqueue_until_keyed(mail.message, mail.deadline, mail.journal_key);
            }
            ShipTicket::Redelivery(TakenMail {
                journal_key: Some(key),
                ..
            }) => {
                let _ = journal.map(|journal| journal.mail_delivered(key));
            }
            ShipTicket::Transfer(Some(key)) if delivered => {
                let _ = journal.map(|journal| journal.hop_committed(&key));
            }
            ShipTicket::Transfer(Some(key)) => {
                let _ = journal.map(|journal| journal.hop_aborted(&key));
            }
            ShipTicket::Replay(key) if delivered => {
                self.stats.journal_resumed += 1;
                let _ = journal.map(|journal| journal.hop_committed(&key));
            }
            _ => {}
        }
        sent
    }

    /// Counts one settled send: the only writer of the sent and
    /// retry-timeout counters.
    fn book(&mut self, bytes: usize, delivered: bool) {
        if delivered {
            self.stats.frames_sent += 1;
            self.stats.bytes_sent += bytes as u64;
        } else {
            self.stats.retry_timeouts += 1;
        }
    }

    pub(super) fn next_token(&mut self) -> u64 {
        let token = self.next_ship_token;
        self.next_ship_token += 1;
        token
    }

    /// Drains the nonblocking transport's completion queue and settles
    /// each in-flight ticket; a transfer's verdict goes to
    /// [`Firewall::take_verdicts`]. Returns the number of completions that
    /// made progress: all but the redeliveries lost again, which are back
    /// where they were. Call this from the daemon loop whenever the
    /// transport may have made progress.
    pub fn pump_transport(&mut self, now: SimTime, transport: &dyn Transport) -> usize {
        let mut settled = 0;
        for Completion { token, result } in transport.drain_completions() {
            let Some((wire, ticket)) = self.inflight.remove(&token) else {
                continue; // Not ours (or already settled).
            };
            let transfer = matches!(ticket, ShipTicket::Transfer(_));
            let retry = matches!(ticket, ShipTicket::Redelivery(_));
            let result = self.settle(&wire, ticket, result.map_err(FirewallError::Transport), now);
            if transfer {
                self.verdicts.push((token, result));
            } else if retry && result.is_err() {
                continue;
            }
            settled += 1;
        }
        settled
    }

    /// Frames handed to a nonblocking transport (or held for it) whose
    /// completion has not been pumped yet, except the redelivery sweep's:
    /// parked mail on another try is still covered by its park (and its
    /// `mail-parked` record), so nothing waits for it. Daemons drain this
    /// to zero (or a deadline) before reporting final stats.
    pub fn transport_inflight(&self) -> usize {
        let tickets = self.inflight.values();
        let fresh = tickets.filter(|(_, t)| !matches!(t, ShipTicket::Redelivery(_)));
        self.held.len() + fresh.count()
    }

    /// Parks a message in the pending queue with the usual timeout,
    /// journaled write-ahead (reusing its encoded frame when there is
    /// one). A failed journal append costs the park its durability, not
    /// the message.
    pub(super) fn park(&mut self, message: Message, now: SimTime, wire: Option<&Bytes>) {
        let key = self.journal.as_ref().and_then(|journal| {
            let wire = wire
                .cloned()
                .unwrap_or_else(|| Bytes::from(message.encode()));
            journal.mail_parked(self.queue_timeout, &wire).ok()
        });
        self.pending
            .enqueue_keyed(message, now, self.queue_timeout, key);
        self.stats.queued += 1;
    }

    /// Hands every parked remote-bound message that has not expired back
    /// to the transport, as a [`ShipTicket::Redelivery`] that keeps its
    /// deadline and journal key. The sweep does not wait for the peer:
    /// [`Firewall::pump_transport`] settles what the nonblocking path
    /// took. Returns how many messages were handed over.
    pub fn redeliver_remote_pending(&mut self, now: SimTime, transport: &dyn Transport) -> usize {
        let parked = self.pending.take_remote(&self.host, now);
        let retried = parked.len();
        for mail in parked {
            let to = &mail.message.to;
            let (Some(host), Some(location)) = (to.host(), to.location()) else {
                continue; // Cannot happen: take_remote selected on host.
            };
            let (host, port) = (host.to_owned(), location.effective_port());
            let (token, wire) = (self.next_token(), encode_frame(&mail.message));
            let retry = ShipTicket::Redelivery(mail);
            self.hand_over(token, (&host, port), wire, retry, now, transport);
        }
        retried
    }
}

/// Encodes `message` as one shared frame buffer. `encoded_len` is
/// O(folders) arithmetic, so the buffer is sized exactly once; the
/// payload bytes inside come from the briefcase's encode-once cache, not
/// a fresh serialization. The journal record, the transport queue, and
/// any park all reference the same heap allocation.
fn encode_frame(message: &Message) -> Bytes {
    let mut buf = Vec::with_capacity(message.encoded_len());
    message.encode_into(&mut buf);
    Bytes::from(buf)
}
