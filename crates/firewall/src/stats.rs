use std::fmt;

use serde::{Deserialize, Serialize};
use tacoma_taxscript::analysis::CacheStats;

/// Counters for firewall mediation, used by tests and the architecture
/// benchmarks (every briefcase that crosses a VM boundary shows up here —
/// the Figure-1 mediation property).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FirewallStats {
    /// Messages delivered to a local agent.
    pub delivered_local: u64,
    /// Messages forwarded to a remote firewall.
    pub forwarded_remote: u64,
    /// Messages queued for an absent receiver.
    pub queued: u64,
    /// Queued messages that timed out.
    pub expired: u64,
    /// Messages rejected by access control or authentication.
    pub denied: u64,
    /// Agents installed from arriving transfers (`go`/`spawn`).
    pub agents_installed: u64,
    /// Admin operations served.
    pub admin_ops: u64,
    /// Arriving agent code that passed bytecode verification and the
    /// capability-vs-rights admission check.
    pub code_verified: u64,
    /// Arriving agent code refused at admission (unverifiable bytecode or
    /// capabilities exceeding the principal's rights). Each such event
    /// also counts as `denied`.
    pub code_rejected: u64,
    /// Admissions answered from the host's verified-script cache.
    pub analysis_cache_hits: u64,
    /// Admissions that ran the cold analysis pipeline.
    pub analysis_cache_misses: u64,
    /// Entries the host's cache evicted to stay within capacity (gauge,
    /// absorbed from the cache when stats are read).
    pub analysis_cache_evictions: u64,
    /// Wire frames shipped to remote firewalls (transport acknowledged).
    pub frames_sent: u64,
    /// Payload bytes in those frames.
    pub bytes_sent: u64,
    /// Wire frames received from remote firewalls.
    pub frames_received: u64,
    /// Payload bytes in received frames.
    pub bytes_received: u64,
    /// Transport reconnect attempts (gauge, absorbed from the transport).
    pub reconnects: u64,
    /// Failed HELLO handshakes (gauge, absorbed from the transport).
    pub handshake_failures: u64,
    /// Outbound messages whose transport retry budget ran out; Deliver
    /// messages are parked in the pending queue, agent transfers are
    /// reported to the sending agent.
    pub retry_timeouts: u64,
    /// Cumulative acks the pipelined transport received (gauge, absorbed).
    pub acks_received: u64,
    /// Frames the pipelined transport retransmitted after an ack timeout
    /// (gauge, absorbed).
    pub retransmits: u64,
    /// Frames currently queued in the transport's bounded per-peer
    /// outbound queues (gauge, absorbed).
    pub queue_depth: u64,
    /// The deepest any outbound queue has been (gauge, absorbed).
    pub queue_high_water: u64,
    /// Sends refused because a peer's outbound queue was full (gauge,
    /// absorbed).
    pub queue_drops: u64,
    /// Wake-ups of the outbound transport's shard threads (gauge,
    /// absorbed): with readiness waits, about one per socket event plus
    /// an idle shard's 20 housekeeping ticks a second.
    pub wakes: u64,
    /// Records appended to the durable journal (gauge, absorbed from the
    /// journal when stats are read).
    pub journal_records: u64,
    /// Framed bytes appended to the journal (gauge, absorbed).
    pub journal_bytes: u64,
    /// Journal `fsync` calls (gauge, absorbed).
    pub journal_fsyncs: u64,
    /// Journal records scanned during boot-time replay.
    pub journal_replayed: u64,
    /// Parked messages restored into the pending queue at boot.
    pub journal_reparked: u64,
    /// Open hops resumed at boot (inbound re-installs plus outbound
    /// re-ships).
    pub journal_resumed: u64,
    /// Duplicate hop arrivals suppressed by the journal's dedup set
    /// (sender retries and replayed re-ships of already-executed hops).
    pub hops_deduped: u64,
    /// Arriving hops the door forwarded although journaling them failed:
    /// each ran without a durable record (degraded durability).
    pub door_journal_errors: u64,
    /// `vm_bin` launches answered from the host's compiled-program cache
    /// (gauge, absorbed from the cache when stats are read).
    pub program_cache_hits: u64,
    /// `vm_bin` launches that paid the cold decode + lowering (gauge,
    /// absorbed).
    pub program_cache_misses: u64,
    /// Programs the host's cache evicted to stay within capacity (gauge,
    /// absorbed).
    pub program_cache_evictions: u64,
    /// VM launches served a warm pooled scratch (gauge, absorbed from
    /// the host's pool when stats are read).
    pub vm_pool_hits: u64,
    /// VM launches that allocated a cold scratch (gauge, absorbed).
    pub vm_pool_misses: u64,
    /// Scratches dropped because the pool was full (gauge, absorbed).
    pub vm_pool_evictions: u64,
}

impl FirewallStats {
    /// Total mediation events.
    pub fn total(&self) -> u64 {
        self.delivered_local
            + self.forwarded_remote
            + self.queued
            + self.denied
            + self.agents_installed
            + self.admin_ops
    }
}

impl FirewallStats {
    /// Overwrites the transport gauge fields from a transport snapshot.
    /// Connection-level events (reconnects, handshake failures) are
    /// counted inside the transport; the firewall mirrors them so one
    /// stats line tells the whole story.
    pub fn absorb_transport(&mut self, t: &tacoma_transport::TransportStats) {
        self.reconnects = t.reconnects;
        self.handshake_failures = t.handshake_failures;
        self.acks_received = t.acks_received;
        self.retransmits = t.retransmits;
        self.queue_depth = t.queue_depth;
        self.queue_high_water = t.queue_high_water;
        self.queue_drops = t.queue_drops;
        self.wakes = t.wakes;
    }

    /// Overwrites the journal gauge fields from a journal snapshot, for
    /// the same one-line-tells-the-whole-story reason.
    pub fn absorb_journal(&mut self, j: &tacoma_journal::JournalStats) {
        self.journal_records = j.records;
        self.journal_bytes = j.bytes;
        self.journal_fsyncs = j.fsyncs;
    }

    /// Overwrites the warm-launch gauge fields from the host's
    /// compiled-program cache and VM pool snapshots.
    pub fn absorb_vm(&mut self, cache: &CacheStats, pool: &CacheStats) {
        self.program_cache_hits = cache.hits;
        self.program_cache_misses = cache.misses;
        self.program_cache_evictions = cache.evictions;
        self.vm_pool_hits = pool.hits;
        self.vm_pool_misses = pool.misses;
        self.vm_pool_evictions = pool.evictions;
    }
}

impl fmt::Display for FirewallStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "local={} remote={} queued={} expired={} denied={} installed={} admin={} verified={} code-rejected={} \
             cache-hits={} cache-misses={} cache-evictions={} \
             tx-frames={} tx-bytes={} rx-frames={} rx-bytes={} reconnects={} handshake-fail={} retry-timeouts={} \
             acks={} retransmits={} q-depth={} q-high={} q-drops={} wakes={} \
             jr-records={} jr-bytes={} jr-fsyncs={} jr-replayed={} jr-reparked={} jr-resumed={} hop-dedup={} door-journal-errors={} \
             prog-hits={} prog-misses={} prog-evictions={} pool-hits={} pool-misses={} pool-evictions={}",
            self.delivered_local,
            self.forwarded_remote,
            self.queued,
            self.expired,
            self.denied,
            self.agents_installed,
            self.admin_ops,
            self.code_verified,
            self.code_rejected,
            self.analysis_cache_hits,
            self.analysis_cache_misses,
            self.analysis_cache_evictions,
            self.frames_sent,
            self.bytes_sent,
            self.frames_received,
            self.bytes_received,
            self.reconnects,
            self.handshake_failures,
            self.retry_timeouts,
            self.acks_received,
            self.retransmits,
            self.queue_depth,
            self.queue_high_water,
            self.queue_drops,
            self.wakes,
            self.journal_records,
            self.journal_bytes,
            self.journal_fsyncs,
            self.journal_replayed,
            self.journal_reparked,
            self.journal_resumed,
            self.hops_deduped,
            self.door_journal_errors,
            self.program_cache_hits,
            self.program_cache_misses,
            self.program_cache_evictions,
            self.vm_pool_hits,
            self.vm_pool_misses,
            self.vm_pool_evictions
        )
    }
}
