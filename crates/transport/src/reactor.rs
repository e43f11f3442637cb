//! [`ReactorTransport`]: the sharded nonblocking TCP backend.
//!
//! A blocking stop-and-wait client ships one briefcase per round trip,
//! which caps per-peer throughput at `1/RTT` and makes every concurrent
//! peer cost a blocked thread. This backend instead runs a small, fixed
//! set of **shard threads** (peers assigned by host hash), each owning
//! many *nonblocking* sockets and looping:
//!
//! 1. drain the shard's command channel (new sends, shutdown),
//! 2. apply finished connector handshakes,
//! 3. for each peer that got a command, a socket event or a due timer:
//!    refill the pipelined [`SendWindow`], flush pending vectored writes,
//!    read acks, retransmit or reconnect on timeout,
//! 4. block in one `poll(2)` ([`crate::poll`]) on every socket — `POLLIN`
//!    always, `POLLOUT` only while its write queue holds bytes — plus
//!    the shard's wake pipe, until something is ready or the nearest
//!    timer (ack timeout, backoff, retry budget) is due, at most 50 ms.
//!
//! Every producer (a send, a connector outcome, shutdown) writes to the
//! wake pipe after publishing its work, so an ack or a command is
//! handled the moment it lands, and a thousand idle peers cost one
//! blocked thread per shard.
//!
//! Writes are **zero-copy and vectored**: a frame is `[header(+seq)
//! prefix, payload Bytes]` and multiple frames are coalesced into one
//! `write_vectored` syscall; the payload (typically a briefcase's cached
//! `wire_bytes()`) is never copied into an encode buffer.
//!
//! Backpressure is explicit: each peer has a **bounded outbound queue**
//! whose depth is checked synchronously at
//! [`Transport::send_nowait`] — a full queue refuses the enqueue with
//! [`TransportError::QueueFull`] rather than buffering without limit.
//! Depth, high-water mark, and drops surface in [`TransportStats`].
//!
//! `std::net` has no nonblocking connect, so connection establishment
//! (TCP connect + blocking HELLO handshake) runs on short-lived
//! **connector threads** — capped per shard — that hand the established
//! socket to the shard, which flips it nonblocking and takes over.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;

use crate::frame::{parse_header, ParsedHeader};
use crate::poll::{self, PollFd, WakeReader, Waker, POLLIN, POLLOUT};
use crate::traits::Completion;
use crate::window::SendWindow;
use crate::{
    frame_header, parse_ack_seq, BackoffPolicy, ConnectConfig, Connection, Doorbell, Frame,
    FrameKind, FrameLimits, Transport, TransportCounters, TransportError, TransportStats,
    FRAME_HEADER_LEN,
};

/// How many frames one `write_vectored` call may coalesce.
const MAX_COALESCED_FRAMES: usize = 32;

/// The longest a shard waits with no socket event, wake or due timer:
/// the housekeeping tick (shared with the listener).
pub(crate) const HOUSEKEEPING_TICK: Duration = Duration::from_millis(50);

/// FNV-1a over a host name: the shard assignment and jitter seed hash.
pub(crate) fn host_hash(host: &str) -> u64 {
    host.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// ---------------------------------------------------------------------
// Incremental nonblocking frame reader (shared with the listener).
// ---------------------------------------------------------------------

/// Decodes frames from a nonblocking stream across partial reads: bytes
/// accumulate in a header buffer, then a payload `Vec` sized from the
/// declared length (bounds-checked first), which is adopted into
/// [`Bytes`] without copying when the frame completes.
#[derive(Debug)]
pub(crate) struct FrameReader {
    limits: FrameLimits,
    header: [u8; FRAME_HEADER_LEN],
    header_have: usize,
    partial: Option<PartialPayload>,
}

#[derive(Debug)]
struct PartialPayload {
    kind: FrameKind,
    buf: Vec<u8>,
    have: usize,
}

/// What [`FrameReader::pump`] saw on the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadStatus {
    /// The stream is still open (it may simply have nothing to read).
    Open,
    /// The peer closed the stream.
    Closed,
}

impl FrameReader {
    pub(crate) fn new(limits: FrameLimits) -> Self {
        FrameReader {
            limits,
            header: [0u8; FRAME_HEADER_LEN],
            header_have: 0,
            partial: None,
        }
    }

    /// Reads as much as the socket will give without blocking,
    /// appending every completed frame to `out`.
    ///
    /// # Errors
    ///
    /// Fatal I/O errors and malformed/oversized headers; `WouldBlock`
    /// is not an error (it ends the pump with [`ReadStatus::Open`]).
    pub(crate) fn pump(
        &mut self,
        stream: &mut impl Read,
        out: &mut Vec<Frame>,
    ) -> Result<ReadStatus, TransportError> {
        loop {
            if let Some(partial) = &mut self.partial {
                if partial.have < partial.buf.len() {
                    match stream.read(&mut partial.buf[partial.have..]) {
                        Ok(0) => return Ok(ReadStatus::Closed),
                        Ok(n) => partial.have += n,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(ReadStatus::Open),
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(e.into()),
                    }
                }
                if self.partial.as_ref().is_some_and(|p| p.have == p.buf.len()) {
                    let done = self.partial.take().expect("checked above");
                    self.header_have = 0;
                    out.push(Frame {
                        kind: done.kind,
                        // Adopted, not copied: the read buffer becomes
                        // the payload allocation.
                        payload: Bytes::from(done.buf),
                    });
                }
            } else {
                match stream.read(&mut self.header[self.header_have..]) {
                    Ok(0) => return Ok(ReadStatus::Closed),
                    Ok(n) => self.header_have += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(ReadStatus::Open),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
                if self.header_have == FRAME_HEADER_LEN {
                    let ParsedHeader { kind, len } = parse_header(&self.header, &self.limits)?;
                    self.partial = Some(PartialPayload {
                        kind,
                        buf: vec![0u8; len as usize],
                        have: 0,
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Vectored write queue (shared with the listener).
// ---------------------------------------------------------------------

/// Outbound frames awaiting socket room. Each entry keeps its wire
/// prefix (`header`, plus the 8-byte seq for `BriefcaseSeq`) on the
/// stack and the payload as shared [`Bytes`]; flushing builds an
/// `IoSlice` batch over up to [`MAX_COALESCED_FRAMES`] frames so one
/// syscall carries many frames and zero payload copies.
#[derive(Debug, Default)]
pub(crate) struct WriteQueue {
    frames: VecDeque<PendingFrame>,
    /// Bytes of the front frame already written (partial-write cursor).
    cursor: usize,
}

#[derive(Debug)]
struct PendingFrame {
    prefix: [u8; FRAME_HEADER_LEN + 8],
    prefix_len: usize,
    payload: Bytes,
}

impl PendingFrame {
    fn wire_len(&self) -> usize {
        self.prefix_len + self.payload.len()
    }
}

impl WriteQueue {
    pub(crate) fn new() -> Self {
        WriteQueue::default()
    }

    /// Queues an ordinary frame.
    pub(crate) fn push_frame(&mut self, kind: FrameKind, payload: Bytes) {
        let mut prefix = [0u8; FRAME_HEADER_LEN + 8];
        prefix[..FRAME_HEADER_LEN].copy_from_slice(&frame_header(kind, payload.len() as u32));
        self.frames.push_back(PendingFrame {
            prefix,
            prefix_len: FRAME_HEADER_LEN,
            payload,
        });
    }

    /// Queues a `BriefcaseSeq` frame: the 8-byte seq lives in the wire
    /// prefix, so the message payload is shipped unmodified.
    pub(crate) fn push_seq_frame(&mut self, seq: u64, payload: Bytes) {
        let mut prefix = [0u8; FRAME_HEADER_LEN + 8];
        prefix[..FRAME_HEADER_LEN].copy_from_slice(&frame_header(
            FrameKind::BriefcaseSeq,
            (payload.len() + 8) as u32,
        ));
        prefix[FRAME_HEADER_LEN..].copy_from_slice(&seq.to_le_bytes());
        self.frames.push_back(PendingFrame {
            prefix,
            prefix_len: FRAME_HEADER_LEN + 8,
            payload,
        });
    }

    /// Queues an `AckSeq` frame for cumulative ack `seq`.
    pub(crate) fn push_ack_seq(&mut self, seq: u64) {
        self.push_frame(FrameKind::AckSeq, Bytes::from(seq.to_le_bytes().to_vec()));
    }

    pub(crate) fn has_pending(&self) -> bool {
        !self.frames.is_empty()
    }

    /// Writes as much as the socket will take without blocking.
    ///
    /// # Errors
    ///
    /// Fatal I/O errors (`WouldBlock` simply leaves the rest queued).
    pub(crate) fn flush(&mut self, stream: &mut impl Write) -> Result<(), TransportError> {
        while !self.frames.is_empty() {
            let written = {
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_COALESCED_FRAMES * 2);
                for (i, frame) in self.frames.iter().take(MAX_COALESCED_FRAMES).enumerate() {
                    let mut skip = if i == 0 { self.cursor } else { 0 };
                    if skip < frame.prefix_len {
                        slices.push(IoSlice::new(&frame.prefix[skip..frame.prefix_len]));
                        skip = 0;
                    } else {
                        skip -= frame.prefix_len;
                    }
                    if skip < frame.payload.len() {
                        slices.push(IoSlice::new(&frame.payload[skip..]));
                    }
                }
                match stream.write_vectored(&slices) {
                    Ok(0) => {
                        return Err(TransportError::Io {
                            detail: "socket write returned 0 bytes".to_owned(),
                        })
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                }
            };
            self.advance(written);
        }
        Ok(())
    }

    fn advance(&mut self, mut n: usize) {
        n += self.cursor;
        self.cursor = 0;
        while let Some(front) = self.frames.front() {
            let len = front.wire_len();
            if n >= len {
                n -= len;
                self.frames.pop_front();
            } else {
                self.cursor = n;
                return;
            }
        }
        debug_assert_eq!(n, 0, "advanced past the queued bytes");
    }
}

// ---------------------------------------------------------------------
// Reactor configuration.
// ---------------------------------------------------------------------

/// Cap on concurrent connector (blocking handshake) threads per shard.
const MAX_CONNECTORS: usize = 64;

/// Tunables for a [`ReactorTransport`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Connection-level settings (local host name, keyring,
    /// connect/handshake timeouts) — shared with [`Connection`]. Every
    /// inbound frame is held to [`FrameLimits::default`].
    pub connect: ConnectConfig,
    /// Shard thread count. Defaults to `available_parallelism`
    /// (clamped to 8): shards are about socket fan-out, not CPU.
    pub shards: usize,
    /// Pipelined ack window per peer: how many briefcases may be in
    /// flight before the sender waits for a cumulative ack.
    pub ack_window: usize,
    /// Bounded per-peer outbound queue capacity; a full queue refuses
    /// enqueues with [`TransportError::QueueFull`].
    pub queue_capacity: usize,
    /// With no ack progress for this long, the in-flight window is
    /// retransmitted from the last acked seq; a second silent interval
    /// tears the connection down for a reconnect.
    pub ack_timeout: Duration,
    /// Total time budget per frame, from enqueue to giving up
    /// ([`TransportError::RetriesExhausted`] completion).
    pub retry_budget: Duration,
    /// Reconnect pacing after connection failures.
    pub backoff: BackoffPolicy,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        let shards = thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
        ReactorConfig {
            connect: ConnectConfig::default(),
            shards: shards.clamp(1, 8),
            ack_window: 32,
            queue_capacity: 1024,
            ack_timeout: Duration::from_secs(2),
            retry_budget: Duration::from_secs(8),
            backoff: BackoffPolicy::default(),
        }
    }
}

// ---------------------------------------------------------------------
// Shard plumbing.
// ---------------------------------------------------------------------

/// One queued send, from enqueue to completion.
#[derive(Debug)]
struct Outbound {
    host: String,
    addr: String,
    payload: Bytes,
    token: u64,
    /// Present for blocking sends: woken directly instead of (and in
    /// addition to) the completion channel.
    notify: Option<Sender<Result<(), TransportError>>>,
    enqueued_at: Instant,
    depth: Arc<AtomicUsize>,
}

enum Command {
    Send(Outbound),
    Shutdown,
}

/// A connector thread's verdict for the peer at index `peer`.
enum ConnectOutcome {
    Connected { peer: usize, stream: TcpStream },
    Failed { peer: usize, error: TransportError },
}

struct Established {
    stream: TcpStream,
    reader: FrameReader,
    writeq: WriteQueue,
}

struct PeerState {
    addr: String,
    queue: VecDeque<Outbound>,
    window: SendWindow<Outbound>,
    conn: Option<Established>,
    connecting: bool,
    had_connection: bool,
    attempt: u32,
    backoff_until: Option<Instant>,
    last_progress: Instant,
    retransmitted: bool,
    /// A command, connector outcome or socket event arrived since the
    /// peer's last pass.
    ready: bool,
}

impl PeerState {
    fn new(out: &Outbound, ack_window: usize) -> Self {
        PeerState {
            addr: out.addr.clone(),
            queue: VecDeque::new(),
            window: SendWindow::new(ack_window),
            conn: None,
            connecting: false,
            had_connection: false,
            attempt: 0,
            backoff_until: None,
            last_progress: Instant::now(),
            retransmitted: false,
            ready: false,
        }
    }

    /// When the peer next needs a pass that no socket event or command
    /// will trigger: its oldest queued frame running out of budget, a
    /// silent window reaching `ack_timeout`, or a (re)connect coming due —
    /// which only a free connector slot can start.
    fn next_timer(
        &self,
        config: &ReactorConfig,
        can_connect: bool,
        now: Instant,
    ) -> Option<Instant> {
        let expiry = self
            .queue
            .front()
            .map(|out| out.enqueued_at + config.retry_budget);
        let timer = if self.conn.is_some() {
            (!self.window.is_empty()).then(|| self.last_progress + config.ack_timeout)
        } else if can_connect && !self.connecting && !self.queue.is_empty() {
            Some(self.backoff_until.unwrap_or(now))
        } else {
            None
        };
        expiry.into_iter().chain(timer).min()
    }
}

struct Shard {
    commands: Receiver<Command>,
    wake: WakeReader,
    /// Handed to connector threads, so an outcome wakes the shard.
    waker: Arc<Waker>,
    connect_results: Receiver<ConnectOutcome>,
    connect_tx: Sender<ConnectOutcome>,
    completions: Sender<Completion>,
    /// Rung after every completion, once set ([`ReactorTransport::ring_on_completion`]).
    doorbell: Arc<OnceLock<Arc<Doorbell>>>,
    counters: TransportCounters,
    config: ReactorConfig,
    nonce: Arc<AtomicU64>,
    /// Peers are never removed, so an index names one for the shard's
    /// lifetime (connector outcomes carry it).
    peers: Vec<PeerState>,
    by_host: HashMap<String, usize>,
    connectors_out: usize,
    frames_scratch: Vec<Frame>,
    /// `poll` entries: the wake pipe, then the connected peers in order.
    fds: Vec<PollFd>,
}

impl Shard {
    fn run(mut self) {
        loop {
            self.wake.drain();
            let mut open = true;
            // 1. Drain queued commands.
            loop {
                match self.commands.try_recv() {
                    Ok(Command::Send(out)) => self.admit(out),
                    Ok(Command::Shutdown) | Err(TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                    Err(TryRecvError::Empty) => break,
                }
            }
            // 2. Fold in finished connector handshakes.
            while let Ok(outcome) = self.connect_results.try_recv() {
                self.connectors_out = self.connectors_out.saturating_sub(1);
                self.apply_connect(outcome);
            }
            if !open {
                self.shutdown();
                return;
            }
            // 3. Progress the peers something happened to.
            let now = Instant::now();
            let can_connect = self.connectors_out < MAX_CONNECTORS;
            for i in 0..self.peers.len() {
                let peer = &self.peers[i];
                if peer.ready
                    || peer
                        .next_timer(&self.config, can_connect, now)
                        .is_some_and(|due| due <= now)
                {
                    self.progress_peer(i, now);
                }
            }
            // 4. Sleep until a socket, a producer or a timer needs us.
            self.wait();
        }
    }

    /// Blocks in `poll` until a socket or the wake pipe is ready or the
    /// nearest timer is due (at most [`HOUSEKEEPING_TICK`]), then marks the
    /// peers whose sockets it reported.
    fn wait(&mut self) {
        let now = Instant::now();
        let can_connect = self.connectors_out < MAX_CONNECTORS;
        let mut timeout = HOUSEKEEPING_TICK;
        self.fds.clear();
        self.fds.push(self.wake.poll_fd());
        for peer in &self.peers {
            if let Some(due) = peer.next_timer(&self.config, can_connect, now) {
                timeout = timeout.min(due.saturating_duration_since(now));
            }
            if let Some(conn) = &peer.conn {
                let events = if conn.writeq.has_pending() {
                    POLLIN | POLLOUT
                } else {
                    POLLIN
                };
                self.fds.push(PollFd::new(&conn.stream, events));
            }
        }
        poll::wait(&mut self.fds, Some(timeout));
        self.counters.add_wake();
        let connected = self.peers.iter_mut().filter(|p| p.conn.is_some());
        for (peer, fd) in connected.zip(&self.fds[1..]) {
            peer.ready |= fd.ready();
        }
    }

    fn admit(&mut self, out: Outbound) {
        let next = self.peers.len();
        let i = *self.by_host.entry(out.host.clone()).or_insert(next);
        if i == next {
            self.peers
                .push(PeerState::new(&out, self.config.ack_window));
        }
        let peer = &mut self.peers[i];
        peer.addr.clone_from(&out.addr);
        peer.queue.push_back(out);
        peer.ready = true;
    }

    // By value: completing a send ends the `Outbound`'s life — it must
    // not be requeued after its depth slot is released.
    #[allow(clippy::needless_pass_by_value)]
    fn complete(&self, out: Outbound, result: Result<(), TransportError>) {
        out.depth.fetch_sub(1, Ordering::Relaxed);
        self.counters.queue_shrank(1);
        if let Err(e) = &result {
            if matches!(e, TransportError::RetriesExhausted { .. }) {
                self.counters.add_retry_timeout();
            }
        } else {
            self.counters.add_sent(out.payload.len() as u64);
        }
        if let Some(notify) = &out.notify {
            let _ = notify.send(result.clone());
        }
        let _ = self.completions.send(Completion {
            token: out.token,
            result,
        });
        if let Some(doorbell) = self.doorbell.get() {
            doorbell.ring();
        }
    }

    fn apply_connect(&mut self, outcome: ConnectOutcome) {
        match outcome {
            ConnectOutcome::Connected { peer: i, stream } => {
                self.peers[i].connecting = false;
                if stream.set_nonblocking(true).is_err() {
                    self.fail_connect_attempt(i, None);
                    return;
                }
                let _ = stream.set_read_timeout(None);
                let _ = stream.set_write_timeout(None);
                self.counters.add_connect();
                let peer = &mut self.peers[i];
                peer.had_connection = true;
                peer.attempt = 0;
                peer.backoff_until = None;
                peer.retransmitted = false;
                peer.last_progress = Instant::now();
                peer.ready = true;
                peer.conn = Some(Established {
                    stream,
                    reader: FrameReader::new(FrameLimits::default()),
                    writeq: WriteQueue::new(),
                });
            }
            ConnectOutcome::Failed { peer, error } => {
                self.fail_connect_attempt(peer, Some(&error));
            }
        }
    }

    fn fail_connect_attempt(&mut self, i: usize, error: Option<&TransportError>) {
        let peer = &mut self.peers[i];
        peer.connecting = false;
        peer.attempt += 1;
        let delay = self
            .config
            .backoff
            .delay(peer.attempt, host_hash(&peer.addr));
        peer.backoff_until = Some(Instant::now() + delay);
        if let Some(TransportError::HandshakeFailed { reason }) = error {
            // The peer will keep refusing these credentials; retrying
            // cannot help. Fail everything queued, fast.
            self.counters.add_handshake_failure();
            let drained: Vec<Outbound> = peer.queue.drain(..).collect();
            for out in drained {
                self.complete(
                    out,
                    Err(TransportError::HandshakeFailed {
                        reason: reason.clone(),
                    }),
                );
            }
        }
    }

    fn progress_peer(&mut self, i: usize, now: Instant) {
        self.peers[i].ready = false;
        // Expire queued frames past their budget (oldest first — the
        // queue is FIFO by enqueue time).
        let budget = self.config.retry_budget;
        while self.peers[i]
            .queue
            .front()
            .is_some_and(|o| now.duration_since(o.enqueued_at) > budget)
        {
            let out = self.peers[i].queue.pop_front().expect("front checked");
            let attempts = self.peers[i].attempt.max(1);
            let host = out.host.clone();
            self.complete(
                out,
                Err(TransportError::RetriesExhausted {
                    host,
                    attempts,
                    last: "retry budget exhausted".to_owned(),
                }),
            );
        }

        let peer = &mut self.peers[i];
        if peer.conn.is_none() {
            // Nothing to do unless there is work; otherwise start a
            // connector when the backoff window has passed.
            if peer.queue.is_empty() || peer.connecting {
                return;
            }
            if peer.backoff_until.is_some_and(|until| now < until) {
                return;
            }
            if self.connectors_out >= MAX_CONNECTORS {
                return;
            }
            peer.connecting = true;
            if peer.attempt > 0 || peer.had_connection {
                // Every attempt after the first — whether the peer was
                // never up or a live connection died — is a reconnect.
                self.counters.add_reconnect();
            }
            self.connectors_out += 1;
            let addr = peer.addr.clone();
            let connect = self.config.connect.clone();
            let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
            let tx = self.connect_tx.clone();
            let waker = Arc::clone(&self.waker);
            thread::spawn(move || {
                let outcome = match Connection::establish(&addr, nonce, &connect) {
                    Ok(conn) => ConnectOutcome::Connected {
                        peer: i,
                        stream: conn.into_stream(),
                    },
                    Err(error) => ConnectOutcome::Failed { peer: i, error },
                };
                if tx.send(outcome).is_ok() {
                    waker.wake();
                }
            });
            return;
        }

        // Fill the window from the queue, flush, read acks — and go round
        // again while acks free window room for queued frames: nothing
        // else would wake the shard to send them.
        let mut disconnect = false;
        let mut released: Vec<Outbound> = Vec::new();
        {
            let Some(conn) = peer.conn.as_mut() else {
                return;
            };
            loop {
                while peer.window.has_room() && !peer.queue.is_empty() {
                    let out = peer.queue.pop_front().expect("checked non-empty");
                    let payload = out.payload.clone();
                    conn.writeq.push_seq_frame(peer.window.push(out), payload);
                }
                if conn.writeq.flush(&mut conn.stream).is_err() {
                    disconnect = true;
                    break;
                }
                let acked = released.len();
                self.frames_scratch.clear();
                match conn.reader.pump(&mut conn.stream, &mut self.frames_scratch) {
                    Ok(ReadStatus::Open) => {}
                    Ok(ReadStatus::Closed) | Err(_) => disconnect = true,
                }
                for frame in self.frames_scratch.drain(..) {
                    match frame.kind {
                        FrameKind::AckSeq => {
                            if let Ok(seq) = parse_ack_seq(&frame.payload) {
                                self.counters.add_ack_received();
                                released.extend(peer.window.ack(seq));
                                peer.last_progress = now;
                                peer.retransmitted = false;
                            } else {
                                disconnect = true;
                            }
                        }
                        FrameKind::Bye => disconnect = true,
                        // Anything else from a server is a protocol
                        // violation on this pipelined connection.
                        _ => disconnect = true,
                    }
                }
                if disconnect || released.len() == acked || peer.queue.is_empty() {
                    break;
                }
            }
            // Ack-timeout handling: retransmit once from the last acked
            // seq, then tear down and reconnect if still silent.
            if !disconnect
                && !peer.window.is_empty()
                && now.duration_since(peer.last_progress) > self.config.ack_timeout
            {
                if peer.retransmitted {
                    disconnect = true;
                } else {
                    let mut n = 0u64;
                    for (seq, out) in peer.window.unacked() {
                        conn.writeq.push_seq_frame(seq, out.payload.clone());
                        n += 1;
                    }
                    self.counters.add_retransmits(n);
                    peer.retransmitted = true;
                    peer.last_progress = now;
                }
            }
        }
        for out in released {
            self.complete(out, Ok(()));
        }
        if disconnect {
            self.disconnect_peer(i, now);
        }
    }

    /// Drops the peer's connection, requeues its in-flight frames ahead
    /// of newer work, and arms the reconnect backoff.
    fn disconnect_peer(&mut self, i: usize, now: Instant) {
        let peer = &mut self.peers[i];
        peer.conn = None;
        peer.retransmitted = false;
        let inflight = peer.window.reset();
        for out in inflight.into_iter().rev() {
            peer.queue.push_front(out);
        }
        peer.attempt += 1;
        let delay = self
            .config
            .backoff
            .delay(peer.attempt, host_hash(&peer.addr));
        peer.backoff_until = Some(now + delay);
    }

    fn shutdown(&mut self) {
        for mut peer in std::mem::take(&mut self.peers) {
            let mut pending: Vec<Outbound> = peer.window.reset();
            pending.extend(peer.queue.drain(..));
            for out in pending {
                self.complete(
                    out,
                    Err(TransportError::Io {
                        detail: "transport shut down".to_owned(),
                    }),
                );
            }
        }
    }
}

/// The transport's handle on one shard: its command channel and the
/// waker that follows every command.
#[derive(Debug)]
struct ShardHandle {
    commands: Sender<Command>,
    waker: Arc<Waker>,
}

impl ShardHandle {
    /// Queues `command` and wakes the shard; `false` when the shard is
    /// gone.
    fn send(&self, command: Command) -> bool {
        let sent = self.commands.send(command).is_ok();
        self.waker.wake();
        sent
    }
}

// ---------------------------------------------------------------------
// The public transport.
// ---------------------------------------------------------------------

/// The sharded nonblocking reactor backend (see the module docs).
///
/// Implements both [`Transport`] paths: the blocking [`Transport::send`]
/// enqueues and waits for its own completion, and the pipelined
/// [`Transport::send_nowait`] / [`Transport::drain_completions`] pair is
/// the fast path the firewall uses.
#[derive(Debug)]
pub struct ReactorTransport {
    config: ReactorConfig,
    shards: Vec<ShardHandle>,
    shard_threads: Mutex<Vec<JoinHandle<()>>>,
    completions_rx: Receiver<Completion>,
    doorbell: Arc<OnceLock<Arc<Doorbell>>>,
    counters: TransportCounters,
    /// Host name → socket address overrides ([`ReactorTransport::add_peer`]).
    peers: Mutex<HashMap<String, String>>,
    /// Per-peer queue depth gauges, shared with the owning shard so
    /// [`Transport::send_nowait`] can refuse synchronously at capacity.
    depths: Mutex<HashMap<String, Arc<AtomicUsize>>>,
}

impl ReactorTransport {
    /// Starts the shard threads and returns the ready transport.
    ///
    /// # Panics
    ///
    /// When the process cannot create a shard's wake pipe (out of file
    /// descriptors) — as `thread::spawn` panics when it cannot start one.
    pub fn new(config: ReactorConfig) -> Self {
        let shard_count = config.shards.max(1);
        let (completions_tx, completions_rx) = unbounded();
        let doorbell = Arc::new(OnceLock::new());
        let counters = TransportCounters::new();
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(1, |d| d.as_nanos() as u64);
        let nonce = Arc::new(AtomicU64::new(seed | 1));
        let mut shards = Vec::with_capacity(shard_count);
        let mut shard_threads = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (tx, rx) = unbounded();
            let (connect_tx, connect_results) = unbounded();
            let (waker, wake) = poll::wake_pipe().expect("creating a shard's wake pipe");
            let shard = Shard {
                commands: rx,
                wake,
                waker: Arc::clone(&waker),
                connect_results,
                connect_tx,
                completions: completions_tx.clone(),
                doorbell: Arc::clone(&doorbell),
                counters: counters.clone(),
                config: config.clone(),
                nonce: Arc::clone(&nonce),
                peers: Vec::new(),
                by_host: HashMap::new(),
                connectors_out: 0,
                frames_scratch: Vec::new(),
                fds: Vec::new(),
            };
            shards.push(ShardHandle {
                commands: tx,
                waker,
            });
            shard_threads.push(thread::spawn(move || shard.run()));
        }
        ReactorTransport {
            config,
            shards,
            shard_threads: Mutex::new(shard_threads),
            completions_rx,
            doorbell,
            counters,
            peers: Mutex::new(HashMap::new()),
            depths: Mutex::new(HashMap::new()),
        }
    }

    /// Rings `doorbell` after every completion from here on, so a loop
    /// waiting on it learns of acks and failures at once rather than on
    /// its next poll. Set once; later calls are ignored.
    pub fn ring_on_completion(&self, doorbell: Arc<Doorbell>) {
        let _ = self.doorbell.set(doorbell);
    }

    /// Maps a firewall host name to a socket address
    /// (`"127.0.0.1:7001"`); unmapped hosts resolve as `host:port`.
    pub fn add_peer(&self, host: impl Into<String>, addr: impl Into<String>) {
        self.peers.lock().insert(host.into(), addr.into());
    }

    fn resolve(&self, to_host: &str, to_port: u16) -> String {
        self.peers
            .lock()
            .get(to_host)
            .cloned()
            .unwrap_or_else(|| format!("{to_host}:{to_port}"))
    }

    fn depth_gauge(&self, host: &str) -> Arc<AtomicUsize> {
        Arc::clone(
            self.depths
                .lock()
                .entry(host.to_owned())
                .or_insert_with(|| Arc::new(AtomicUsize::new(0))),
        )
    }

    /// Reserves one slot in the peer's bounded queue, or refuses.
    fn reserve_slot(&self, host: &str, depth: &AtomicUsize) -> Result<usize, TransportError> {
        let capacity = self.config.queue_capacity;
        let mut current = depth.load(Ordering::Relaxed);
        loop {
            if current >= capacity {
                self.counters.add_queue_drop();
                return Err(TransportError::QueueFull {
                    host: host.to_owned(),
                    capacity,
                });
            }
            match depth.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(current + 1),
                Err(seen) => current = seen,
            }
        }
    }

    fn enqueue(
        &self,
        to_host: &str,
        to_port: u16,
        payload: Bytes,
        token: u64,
        notify: Option<Sender<Result<(), TransportError>>>,
    ) -> Result<(), TransportError> {
        let depth = self.depth_gauge(to_host);
        let new_depth = self.reserve_slot(to_host, &depth)?;
        self.counters.queue_grew(new_depth as u64);
        let addr = self.resolve(to_host, to_port);
        let shard = (host_hash(to_host) as usize) % self.shards.len();
        let out = Outbound {
            host: to_host.to_owned(),
            addr,
            payload,
            token,
            notify,
            enqueued_at: Instant::now(),
            depth: Arc::clone(&depth),
        };
        if !self.shards[shard].send(Command::Send(out)) {
            depth.fetch_sub(1, Ordering::Relaxed);
            self.counters.queue_shrank(1);
            return Err(TransportError::Io {
                detail: "transport shut down".to_owned(),
            });
        }
        Ok(())
    }
}

impl Transport for ReactorTransport {
    fn send(
        &self,
        _from: &str,
        to_host: &str,
        to_port: u16,
        payload: &[u8],
    ) -> Result<(), TransportError> {
        let (tx, rx) = unbounded();
        let payload = Bytes::copy_from_slice(payload);
        // A full queue is backpressure, not failure: wait for room
        // within the budget.
        let room_deadline = Instant::now() + self.config.retry_budget;
        loop {
            match self.enqueue(to_host, to_port, payload.clone(), 0, Some(tx.clone())) {
                Ok(()) => break,
                Err(TransportError::QueueFull { .. }) if Instant::now() < room_deadline => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
        // The shard settles every frame it admitted: acked, or failed once
        // the frame's own budget (counted from the enqueue above) runs out
        // — at the latest one retransmit-and-teardown cycle later when the
        // frame was in flight at that moment. Giving up any earlier would
        // report failure for a frame the shard may still deliver, and the
        // caller's retry would then deliver it twice.
        let patience =
            self.config.retry_budget + 2 * self.config.ack_timeout + Duration::from_secs(1);
        match rx.recv_timeout(patience) {
            Ok(result) => result,
            Err(_) => Err(TransportError::RetriesExhausted {
                host: to_host.to_owned(),
                attempts: 1,
                last: "timed out waiting for completion".to_owned(),
            }),
        }
    }

    fn stats(&self) -> TransportStats {
        self.counters.snapshot()
    }

    fn kind(&self) -> &'static str {
        "reactor"
    }

    fn send_nowait(
        &self,
        _from: &str,
        to_host: &str,
        to_port: u16,
        payload: Bytes,
        token: u64,
    ) -> Result<(), TransportError> {
        self.enqueue(to_host, to_port, payload, token, None)
    }

    fn drain_completions(&self) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Ok(c) = self.completions_rx.try_recv() {
            out.push(c);
        }
        out
    }
}

impl Drop for ReactorTransport {
    fn drop(&mut self) {
        for shard in &self.shards {
            shard.send(Command::Shutdown);
        }
        for handle in self.shard_threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_queue_coalesces_and_survives_partial_writes() {
        let mut q = WriteQueue::new();
        q.push_seq_frame(1, Bytes::from(vec![0xAA; 100]));
        q.push_frame(FrameKind::Briefcase, Bytes::from(vec![0xBB; 50]));
        q.push_ack_seq(7);

        // A writer that accepts 13 bytes at a time forces partial-write
        // cursor handling across prefix and payload boundaries.
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(13);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut sink = Dribble(Vec::new());
        q.flush(&mut sink).unwrap();
        assert!(!q.has_pending());

        // The byte stream decodes back into the three frames.
        let limits = FrameLimits::default();
        let mut rest = Bytes::from(sink.0);
        let (f1, used) = Frame::decode_bytes(&rest, &limits).unwrap();
        rest = rest.slice(used..);
        let (f2, used) = Frame::decode_bytes(&rest, &limits).unwrap();
        rest = rest.slice(used..);
        let (f3, used) = Frame::decode_bytes(&rest, &limits).unwrap();
        assert_eq!(used, rest.len());
        assert_eq!(f1.kind, FrameKind::BriefcaseSeq);
        let (seq, body) = crate::split_seq(&f1.payload).unwrap();
        assert_eq!((seq, body.len()), (1, 100));
        assert_eq!(f2.kind, FrameKind::Briefcase);
        assert_eq!(f2.payload.len(), 50);
        assert_eq!(f3.kind, FrameKind::AckSeq);
        assert_eq!(parse_ack_seq(&f3.payload).unwrap(), 7);
    }

    #[test]
    fn frame_reader_reassembles_across_partial_reads() {
        let a = Frame::new(FrameKind::BriefcaseSeq, vec![1u8; 300]);
        let b = Frame::new(FrameKind::AckSeq, 9u64.to_le_bytes().to_vec());
        let mut wire = a.encode();
        wire.extend_from_slice(&b.encode());

        // A reader that yields 7 bytes per call, with a WouldBlock
        // between chunks, models a nonblocking socket.
        struct Chunky {
            data: Vec<u8>,
            pos: usize,
            hungry: bool,
        }
        impl Read for Chunky {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.hungry {
                    self.hungry = false;
                    return Err(std::io::Error::from(ErrorKind::WouldBlock));
                }
                self.hungry = true;
                let n = buf.len().min(7).min(self.data.len() - self.pos);
                if n == 0 {
                    return Ok(0);
                }
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }

        let mut reader = FrameReader::new(FrameLimits::default());
        let mut src = Chunky {
            data: wire,
            pos: 0,
            hungry: false,
        };
        let mut frames = Vec::new();
        loop {
            match reader.pump(&mut src, &mut frames).unwrap() {
                ReadStatus::Open if frames.len() < 2 => {}
                _ => break,
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], a);
        assert_eq!(frames[1], b);
    }

    #[test]
    fn shard_assignment_is_stable() {
        assert_eq!(host_hash("beta"), host_hash("beta"));
        assert_ne!(host_hash("beta"), host_hash("gamma"));
    }
}
