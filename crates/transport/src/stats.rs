//! Transport counters, shared between the reactor, listeners, and
//! the firewall's stats surface.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point-in-time snapshot of transport activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Payload bytes shipped in Briefcase frames.
    pub bytes_sent: u64,
    /// Payload bytes received in Briefcase frames.
    pub bytes_received: u64,
    /// Briefcase frames shipped (acked by the peer).
    pub frames_sent: u64,
    /// Briefcase frames received.
    pub frames_received: u64,
    /// Successful connection establishments (including the first).
    pub connects: u64,
    /// Connections re-established after a failure.
    pub reconnects: u64,
    /// HELLO exchanges that failed (either side).
    pub handshake_failures: u64,
    /// Sends abandoned after the full retry budget.
    pub retry_timeouts: u64,
    /// Cumulative-ack frames received on the pipelined path.
    pub acks_received: u64,
    /// Frames re-sent after an ack-window timeout or a reconnect.
    pub retransmits: u64,
    /// Current total depth of all bounded per-peer outbound queues.
    pub queue_depth: u64,
    /// Highest queue depth ever observed on any single peer queue.
    pub queue_high_water: u64,
    /// Enqueue attempts refused because a peer queue was at capacity.
    pub queue_drops: u64,
    /// Returns from a shard's readiness wait: a socket was ready, a
    /// producer woke it, or a timer (at most the 50 ms housekeeping tick)
    /// came due. An idle shard wakes about 20 times a second.
    pub wakes: u64,
}

impl fmt::Display for TransportStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tx-frames={} tx-bytes={} rx-frames={} rx-bytes={} connects={} reconnects={} handshake-fail={} retry-timeouts={} acks={} retransmits={} queue-depth={} queue-high-water={} queue-drops={} wakes={}",
            self.frames_sent,
            self.bytes_sent,
            self.frames_received,
            self.bytes_received,
            self.connects,
            self.reconnects,
            self.handshake_failures,
            self.retry_timeouts,
            self.acks_received,
            self.retransmits,
            self.queue_depth,
            self.queue_high_water,
            self.queue_drops,
            self.wakes
        )
    }
}

#[derive(Debug, Default)]
struct Inner {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    connects: AtomicU64,
    reconnects: AtomicU64,
    handshake_failures: AtomicU64,
    retry_timeouts: AtomicU64,
    acks_received: AtomicU64,
    retransmits: AtomicU64,
    queue_depth: AtomicU64,
    queue_high_water: AtomicU64,
    queue_drops: AtomicU64,
    wakes: AtomicU64,
}

/// Shared, thread-safe counters; cloning shares the underlying cells.
#[derive(Debug, Clone, Default)]
pub struct TransportCounters {
    inner: Arc<Inner>,
}

impl TransportCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        TransportCounters::default()
    }

    /// Counts one shipped frame of `bytes` payload bytes. Public so
    /// out-of-crate [`Transport`](crate::Transport) implementations can
    /// keep the same books.
    pub fn add_sent(&self, bytes: u64) {
        self.inner.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn add_received(&self, bytes: u64) {
        self.inner.frames_received.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_received
            .fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn add_connect(&self) {
        self.inner.connects.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_reconnect(&self) {
        self.inner.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_handshake_failure(&self) {
        self.inner
            .handshake_failures
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one send abandoned after its full retry budget. Public for
    /// the same reason as [`TransportCounters::add_sent`].
    pub fn add_retry_timeout(&self) {
        self.inner.retry_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_ack_received(&self) {
        self.inner.acks_received.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_retransmits(&self, n: u64) {
        self.inner.retransmits.fetch_add(n, Ordering::Relaxed);
    }

    /// Tracks a queue growing to `depth` entries: bumps the global depth
    /// gauge and raises the high-water mark when exceeded.
    pub(crate) fn queue_grew(&self, depth: u64) {
        self.inner.queue_depth.fetch_add(1, Ordering::Relaxed);
        self.inner
            .queue_high_water
            .fetch_max(depth, Ordering::Relaxed);
    }

    pub(crate) fn queue_shrank(&self, by: u64) {
        // Saturating: a racing snapshot may observe a transient dip, but
        // the gauge never wraps.
        let mut current = self.inner.queue_depth.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(by);
            match self.inner.queue_depth.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    pub(crate) fn add_queue_drop(&self) {
        self.inner.queue_drops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_wake(&self) {
        self.inner.wakes.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            bytes_sent: self.inner.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.inner.bytes_received.load(Ordering::Relaxed),
            frames_sent: self.inner.frames_sent.load(Ordering::Relaxed),
            frames_received: self.inner.frames_received.load(Ordering::Relaxed),
            connects: self.inner.connects.load(Ordering::Relaxed),
            reconnects: self.inner.reconnects.load(Ordering::Relaxed),
            handshake_failures: self.inner.handshake_failures.load(Ordering::Relaxed),
            retry_timeouts: self.inner.retry_timeouts.load(Ordering::Relaxed),
            acks_received: self.inner.acks_received.load(Ordering::Relaxed),
            retransmits: self.inner.retransmits.load(Ordering::Relaxed),
            queue_depth: self.inner.queue_depth.load(Ordering::Relaxed),
            queue_high_water: self.inner.queue_high_water.load(Ordering::Relaxed),
            queue_drops: self.inner.queue_drops.load(Ordering::Relaxed),
            wakes: self.inner.wakes.load(Ordering::Relaxed),
        }
    }
}
