//! The pending-message queue.
//!
//! "Messages passing through the firewall are queued with a timeout value
//! if the receiving agent is not ready to receive, or has not yet arrived
//! at the site" (§3.2).
//!
//! Deadlines are absolute [`SimTime`] instants and therefore only valid
//! within one boot of the scheduler clock (which restarts at zero every
//! boot). Durable parking must never persist them: the journal stores the
//! *relative* timeout, and replay re-parks through
//! [`PendingQueue::enqueue_keyed`] so the deadline is recomputed against
//! the current clock instead of drifting stale (or, worse, landing in the
//! apparent past and expiring everything on arrival).

use std::time::Duration;

use tacoma_simnet::SimTime;
use tacoma_uri::AgentAddress;

use crate::Message;

/// Default time a message may wait for its receiver.
pub const DEFAULT_QUEUE_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone)]
struct PendingEntry {
    message: Message,
    deadline: SimTime,
    journal_key: Option<u64>,
}

/// A message removed from the queue, carrying the bookkeeping the
/// firewall needs to journal its departure: the absolute deadline (so
/// redelivery failures can re-park without extending the timeout) and the
/// journal key it was parked under, if the firewall is journaling.
#[derive(Debug, Clone)]
pub struct TakenMail {
    /// The parked message.
    pub message: Message,
    /// The absolute deadline the entry was parked until.
    pub deadline: SimTime,
    /// The `MailParked` journal key recorded at park time, if any.
    pub journal_key: Option<u64>,
}

/// The result of sweeping expired entries out of the queue.
#[derive(Debug, Clone, Default)]
pub struct ExpiredMail {
    /// How many entries expired.
    pub count: usize,
    /// Journal keys of the expired entries that were journaled at park
    /// time; each needs a `MailDelivered` record so replay does not
    /// resurrect mail whose timeout already fired.
    pub journal_keys: Vec<u64>,
}

impl ExpiredMail {
    fn absorb(&mut self, entry: &PendingEntry) {
        self.count += 1;
        if let Some(key) = entry.journal_key {
            self.journal_keys.push(key);
        }
    }
}

/// Messages waiting for their receiver to arrive or become ready.
#[derive(Debug, Clone, Default)]
pub struct PendingQueue {
    entries: Vec<PendingEntry>,
}

impl PendingQueue {
    /// An empty queue.
    pub fn new() -> Self {
        PendingQueue::default()
    }

    /// Queues a message until `now + timeout`.
    pub fn enqueue(&mut self, message: Message, now: SimTime, timeout: Duration) {
        self.enqueue_keyed(message, now, timeout, None);
    }

    /// Queues a message until `now + timeout`, remembering the journal key
    /// it was parked under. This is also the replay re-park path: the
    /// journal stores the relative timeout, so a re-park after restart
    /// recomputes the deadline against the *current* clock rather than
    /// trusting an absolute instant from a previous boot.
    pub fn enqueue_keyed(
        &mut self,
        message: Message,
        now: SimTime,
        timeout: Duration,
        journal_key: Option<u64>,
    ) {
        self.entries.push(PendingEntry {
            message,
            deadline: now + timeout,
            journal_key,
        });
    }

    /// Removes and returns every queued message whose target matches the
    /// newly available agent (same matching rules the live path uses).
    /// Expired entries encountered on the way are dropped and reported.
    pub fn take_matching(
        &mut self,
        agent: &AgentAddress,
        local_system: &str,
        now: SimTime,
    ) -> (Vec<TakenMail>, ExpiredMail) {
        let mut matched = Vec::new();
        let mut expired = ExpiredMail::default();
        self.entries.retain(|entry| {
            if entry.deadline < now {
                expired.absorb(entry);
                return false;
            }
            let sender = entry.message.from_principal.as_str();
            if agent
                .matches(&entry.message.to, local_system, sender)
                .is_match()
            {
                matched.push(TakenMail {
                    message: entry.message.clone(),
                    deadline: entry.deadline,
                    journal_key: entry.journal_key,
                });
                false
            } else {
                true
            }
        });
        (matched, expired)
    }

    /// Queues a message until an absolute `deadline`, under the journal
    /// key it was parked with: a redelivery lost again keeps its original
    /// timeout *within one boot* (across boots, deadlines are recomputed
    /// via [`PendingQueue::enqueue_keyed`]) and does not orphan its
    /// original `MailParked` record.
    pub fn enqueue_until_keyed(
        &mut self,
        message: Message,
        deadline: SimTime,
        journal_key: Option<u64>,
    ) {
        self.entries.push(PendingEntry {
            message,
            deadline,
            journal_key,
        });
    }

    /// Removes and returns every queued message bound for a host other
    /// than `local_host` that has not yet expired, with its deadline.
    /// These are messages the transport could not deliver; a daemon
    /// sweeps them out periodically to retry (re-parking failures via
    /// [`PendingQueue::enqueue_until_keyed`] so the original timeout and
    /// journal key survive), and entries past their deadline stay behind
    /// for [`PendingQueue::expire`] to count.
    pub fn take_remote(&mut self, local_host: &str, now: SimTime) -> Vec<TakenMail> {
        let mut taken = Vec::new();
        self.entries.retain(|entry| {
            let remote = entry.message.to.host().is_some_and(|h| h != local_host);
            if remote && entry.deadline >= now {
                taken.push(TakenMail {
                    message: entry.message.clone(),
                    deadline: entry.deadline,
                    journal_key: entry.journal_key,
                });
                false
            } else {
                true
            }
        });
        taken
    }

    /// Drops every entry whose deadline has passed.
    pub fn expire(&mut self, now: SimTime) -> ExpiredMail {
        let mut expired = ExpiredMail::default();
        self.entries.retain(|entry| {
            if entry.deadline < now {
                expired.absorb(entry);
                false
            } else {
                true
            }
        });
        expired
    }

    /// Number of messages currently waiting.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_briefcase::Briefcase;
    use tacoma_security::Principal;
    use tacoma_uri::Instance;

    fn msg(to: &str, from: &str) -> Message {
        Message::deliver(
            "h1",
            Principal::new(from).unwrap(),
            None,
            to.parse().unwrap(),
            Briefcase::new(),
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn arriving_agent_collects_its_mail() {
        let mut q = PendingQueue::new();
        q.enqueue(msg("alice/webbot", "alice"), t(0), DEFAULT_QUEUE_TIMEOUT);
        q.enqueue(msg("bob/other", "bob"), t(0), DEFAULT_QUEUE_TIMEOUT);

        let agent = AgentAddress::new("alice", "webbot", Instance::from_u64(7));
        let (mail, expired) = q.take_matching(&agent, "system@h1", t(10));
        assert_eq!(mail.len(), 1);
        assert_eq!(expired.count, 0);
        assert_eq!(q.len(), 1, "unrelated mail stays queued");
    }

    #[test]
    fn expired_mail_is_dropped_on_expire() {
        let mut q = PendingQueue::new();
        q.enqueue(
            msg("alice/webbot", "alice"),
            t(0),
            Duration::from_millis(100),
        );
        q.enqueue(
            msg("alice/webbot", "alice"),
            t(0),
            Duration::from_millis(900),
        );
        assert_eq!(q.expire(t(500)).count, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn expired_mail_not_delivered_to_late_arrival() {
        let mut q = PendingQueue::new();
        q.enqueue(
            msg("alice/webbot", "alice"),
            t(0),
            Duration::from_millis(100),
        );
        let agent = AgentAddress::new("alice", "webbot", Instance::from_u64(1));
        let (mail, expired) = q.take_matching(&agent, "system@h1", t(5000));
        assert!(mail.is_empty());
        assert_eq!(expired.count, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn name_only_target_matches_any_instance_on_arrival() {
        let mut q = PendingQueue::new();
        q.enqueue(msg("alice/webbot", "alice"), t(0), DEFAULT_QUEUE_TIMEOUT);
        let agent = AgentAddress::new("alice", "webbot", Instance::from_u64(12345));
        let (mail, _) = q.take_matching(&agent, "system@h1", t(1));
        assert_eq!(mail.len(), 1);
    }

    #[test]
    fn multiple_matching_messages_all_flush_in_order() {
        let mut q = PendingQueue::new();
        for i in 0..3 {
            let mut m = msg("alice/webbot", "alice");
            m.briefcase.set_single("SEQ", i as i64);
            q.enqueue(m, t(i), DEFAULT_QUEUE_TIMEOUT);
        }
        let agent = AgentAddress::new("alice", "webbot", Instance::from_u64(1));
        let (mail, _) = q.take_matching(&agent, "system@h1", t(10));
        let seqs: Vec<i64> = mail
            .iter()
            .map(|m| m.message.briefcase.single_i64("SEQ").unwrap())
            .collect();
        assert_eq!(seqs, [0, 1, 2]);
    }

    #[test]
    fn journal_keys_ride_through_take_and_expire() {
        let mut q = PendingQueue::new();
        q.enqueue_keyed(
            msg("alice/webbot", "alice"),
            t(0),
            DEFAULT_QUEUE_TIMEOUT,
            Some(7),
        );
        q.enqueue_keyed(
            msg("bob/other", "bob"),
            t(0),
            Duration::from_millis(100),
            Some(8),
        );
        q.enqueue(
            msg("carol/other", "carol"),
            t(0),
            Duration::from_millis(100),
        );

        let agent = AgentAddress::new("alice", "webbot", Instance::from_u64(1));
        let (mail, _) = q.take_matching(&agent, "system@h1", t(10));
        assert_eq!(mail.len(), 1);
        assert_eq!(mail[0].journal_key, Some(7));

        // Expiry reports journaled keys only (the unkeyed entry still counts).
        let expired = q.expire(t(500));
        assert_eq!(expired.count, 2);
        assert_eq!(expired.journal_keys, [8]);
    }

    #[test]
    fn replayed_park_recomputes_deadline_from_relative_timeout() {
        // First boot: parked at t=900s with a 30s timeout — absolute
        // deadline 930s on that boot's clock.
        let mut before = PendingQueue::new();
        before.enqueue_keyed(
            msg("alice/webbot", "alice"),
            t(900_000),
            DEFAULT_QUEUE_TIMEOUT,
            Some(1),
        );

        // Second boot: the scheduler clock restarts at zero. Replay must
        // re-park with the *relative* timeout (what the journal stores),
        // not the stale absolute instant — had the absolute deadline been
        // reused, `930s < now` could never hold and the entry would wait
        // here, while a crash later than 930s into the first boot would
        // have made the mail expire instantly.
        let mut after = PendingQueue::new();
        after.enqueue_keyed(
            msg("alice/webbot", "alice"),
            t(0),
            DEFAULT_QUEUE_TIMEOUT,
            Some(1),
        );
        assert_eq!(after.expire(t(10)).count, 0, "fresh deadline, not stale");
        let agent = AgentAddress::new("alice", "webbot", Instance::from_u64(1));
        let (mail, _) = after.take_matching(&agent, "system@h1", t(10));
        assert_eq!(mail.len(), 1);
        assert_eq!(mail[0].journal_key, Some(1));
        assert_eq!(mail[0].deadline, t(0) + DEFAULT_QUEUE_TIMEOUT);
    }
}
