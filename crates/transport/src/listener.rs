//! [`TransportListener`]: the accepting side of the TCP transport — the
//! socket a `taxd` firewall daemon answers on.
//!
//! Rewritten on the reactor's shard machinery: instead of one blocking
//! thread per connection (which caps concurrent peers at the thread
//! budget), a small set of shard threads each own many *nonblocking*
//! sockets, reassembling frames with the incremental
//! [`FrameReader`](crate::reactor) and answering through the vectored
//! [`WriteQueue`](crate::reactor). Each shard blocks in one `poll(2)` on
//! its sockets and a wake pipe (which the accept thread and shutdown
//! write to), and progresses only the connections `poll` reported or
//! whose owed ack or idle reaping came due — so a frame is read, handed
//! inward and acked the moment it lands, and a thousand mostly-idle
//! peers cost a thousand sockets and a few blocked threads. The accept
//! thread blocks the same way on the listening socket.
//!
//! Both wire dialects are served on the same port:
//!
//! - stop-and-wait (`Briefcase` → bare `Ack`), spoken by
//!   [`Connection::send_payload`](crate::Connection::send_payload)
//!   (`taxsh send` and other tools);
//! - the pipelined window (`BriefcaseSeq` → cumulative `AckSeq`),
//!   spoken by [`ReactorTransport`](crate::ReactorTransport). Per
//!   connection, a [`RecvWindow`] suppresses retransmitted seqs (the
//!   frame is re-acked but not re-forwarded); *cross*-connection dedup
//!   stays where it always was, in the `pre_ack` hop-key hook.
//!
//! [`ListenerConfig::ack_delay`] delays (and therefore coalesces)
//! acknowledgements — the bench's WAN-RTT knob: one late cumulative ack
//! covers a whole pipelined window, while a stop-and-wait sender eats
//! the full delay on every frame.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use tacoma_security::TrustStore;

use crate::poll::{self, PollFd, WakeReader, Waker, POLLIN, POLLOUT};
use crate::reactor::{FrameReader, ReadStatus, WriteQueue, HOUSEKEEPING_TICK};
use crate::window::RecvWindow;
use crate::{
    build_welcome, split_seq, verify_hello, Doorbell, Frame, FrameKind, FrameLimits,
    TransportCounters, TransportStats,
};

/// How long an accepted connection may stay silent before it is dropped
/// (the client reconnects transparently). Every inbound frame is held to
/// [`FrameLimits::default`].
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Server-side configuration.
#[derive(Clone)]
pub struct ListenerConfig {
    /// Host name announced in WELCOME frames.
    pub local_host: String,
    /// Keys of peers whose signed HELLOs we accept.
    pub trust: TrustStore,
    /// Refuse unsigned HELLOs when set (hostile-network deployment).
    pub require_signed: bool,
    /// Shard threads sharing the accepted sockets. Connections are
    /// dealt round-robin. Defaults to `available_parallelism` clamped
    /// to 4 — shards exist for socket fan-out, not CPU.
    pub shards: usize,
    /// Artificial delay before acknowledgements go out, simulating a
    /// WAN round trip. Delayed acks coalesce: one cumulative `AckSeq`
    /// covers every seq frame that arrived while it was pending. `None`
    /// (the default) acks as fast as the poll loop turns.
    pub ack_delay: Option<Duration>,
    /// Answers `Stats` frames when present (e.g. `taxd` exposes its
    /// firewall's counters here for `taxsh stats --connect`).
    pub stats_provider: Option<Arc<dyn Fn() -> String + Send + Sync>>,
    /// Inspects each briefcase payload before it is acknowledged and
    /// forwarded inward. Returning `false` suppresses the forward but
    /// still acks the frame — the door-side dedup point: `taxd` journals
    /// arriving agent hops here, and a retry of an already-seen hop must
    /// be confirmed to the sender (so it stops retrying) without running
    /// the agent twice. Runs on the shard thread *before* the ack is
    /// scheduled, so a write-ahead record is durable by the time the
    /// sender hears success.
    pub pre_ack: Option<PreAckHook>,
}

/// The [`ListenerConfig::pre_ack`] inspection hook: runs on the shard
/// thread with the raw message payload; returning `false` acks the
/// frame but suppresses the inward forward.
pub type PreAckHook = Arc<dyn Fn(&bytes::Bytes) -> bool + Send + Sync>;

impl std::fmt::Debug for ListenerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListenerConfig")
            .field("local_host", &self.local_host)
            .field("require_signed", &self.require_signed)
            .field("shards", &self.shards)
            .field("ack_delay", &self.ack_delay)
            .finish_non_exhaustive()
    }
}

impl ListenerConfig {
    /// A permissive config for `local_host`: unsigned peers accepted.
    pub fn trusting(local_host: impl Into<String>) -> Self {
        let shards = thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
        ListenerConfig {
            local_host: local_host.into(),
            trust: TrustStore::new(),
            require_signed: false,
            shards: shards.clamp(1, 4),
            ack_delay: None,
            stats_provider: None,
            pre_ack: None,
        }
    }
}

/// One payload that arrived over the wire, tagged with the (possibly
/// authenticated) peer that sent it.
#[derive(Debug, Clone)]
pub struct Inbound {
    /// The peer's announced host name.
    pub from_host: String,
    /// The peer's authenticated principal, if its HELLO was signed.
    pub from_principal: Option<String>,
    /// The encoded firewall message, sharing the read buffer's
    /// allocation so the firewall can decode it zero-copy.
    pub payload: bytes::Bytes,
}

/// A bound, accepting TCP endpoint delivering [`Inbound`] payloads.
#[derive(Debug)]
pub struct TransportListener {
    addr: SocketAddr,
    rx: Receiver<Inbound>,
    doorbell: Arc<Doorbell>,
    shutdown: Arc<AtomicBool>,
    /// The accept thread's and every shard's waker, so shutdown is seen
    /// at once.
    wakers: Vec<Arc<Waker>>,
    counters: TransportCounters,
    accept_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
}

impl TransportListener {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    // By value: each shard clones its own copy; a constructor taking a
    // reference would just force every caller to write `&config`.
    #[allow(clippy::needless_pass_by_value)]
    pub fn bind(addr: &str, config: ListenerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = TransportCounters::new();
        let (tx, rx) = unbounded();
        let doorbell = Arc::new(Doorbell::new());

        let shard_count = config.shards.max(1);
        let mut intakes: Vec<(Sender<TcpStream>, Arc<Waker>)> = Vec::with_capacity(shard_count);
        let mut wakers = Vec::with_capacity(shard_count + 1);
        let mut shard_threads = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (intake_tx, intake_rx) = unbounded();
            let (waker, wake) = poll::wake_pipe()?;
            intakes.push((intake_tx, Arc::clone(&waker)));
            wakers.push(waker);
            let shard = ListenerShard {
                intake: intake_rx,
                wake,
                config: config.clone(),
                tx: tx.clone(),
                doorbell: Arc::clone(&doorbell),
                counters: counters.clone(),
                shutdown: Arc::clone(&shutdown),
                conns: Vec::new(),
                frames_scratch: Vec::new(),
                fds: Vec::new(),
            };
            shard_threads.push(thread::spawn(move || shard.run()));
        }

        let (accept_waker, accept_wake) = poll::wake_pipe()?;
        wakers.push(accept_waker);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = thread::spawn(move || {
            accept_loop(&listener, &intakes, &accept_wake, &accept_shutdown);
        });

        Ok(TransportListener {
            addr: local,
            rx,
            doorbell,
            shutdown,
            wakers,
            counters,
            accept_thread: Some(accept_thread),
            shard_threads,
        })
    }

    /// The actually bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The channel inbound payloads arrive on.
    pub fn incoming(&self) -> &Receiver<Inbound> {
        &self.rx
    }

    /// The doorbell rung after every payload enters
    /// [`TransportListener::incoming`]. Hand it to
    /// [`ReactorTransport::ring_on_completion`](crate::ReactorTransport::ring_on_completion)
    /// too, and one wait covers inbound frames and send completions.
    pub fn doorbell(&self) -> Arc<Doorbell> {
        Arc::clone(&self.doorbell)
    }

    /// Counter snapshot for the inbound side.
    pub fn stats(&self) -> TransportStats {
        self.counters.snapshot()
    }

    /// Stops accepting, closes every live connection, and joins the
    /// accept and shard threads.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for handle in self.shard_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for TransportListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    intakes: &[(Sender<TcpStream>, Arc<Waker>)],
    wake: &WakeReader,
    shutdown: &AtomicBool,
) {
    let mut next = 0usize;
    loop {
        wake.drain();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Round-robin deal to the shards; a dead shard (only
                // during teardown) just drops the socket.
                let (intake, waker) = &intakes[next % intakes.len()];
                if intake.send(stream).is_ok() {
                    waker.wake();
                }
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                // Block until a connection is pending or shutdown wakes us.
                poll::wait(&mut [PollFd::new(listener, POLLIN), wake.poll_fd()], None);
            }
            // Out of descriptors and the like: the pending connection
            // stays readable, so back off instead of spinning on it.
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

// ---------------------------------------------------------------------
// Shards.
// ---------------------------------------------------------------------

enum Phase {
    /// The first frame must be a HELLO we accept.
    AwaitingHello,
    /// Handshake done; briefcases flow.
    Open {
        host: String,
        principal: Option<String>,
        recv: RecvWindow,
    },
}

struct ConnState {
    stream: TcpStream,
    reader: FrameReader,
    writeq: WriteQueue,
    phase: Phase,
    last_activity: Instant,
    /// Due times for owed legacy (stop-and-wait) acks, oldest first.
    legacy_acks: VecDeque<Instant>,
    /// The owed cumulative ack and when it is due. Seq frames arriving
    /// while one is pending fold into it — that is the coalescing.
    seq_ack: Option<(u64, Instant)>,
    /// Flush what is queued, then close.
    closing: bool,
    /// Just adopted, or `poll` reported the socket since the last pass.
    ready: bool,
}

impl ConnState {
    fn new(stream: TcpStream) -> Self {
        ConnState {
            stream,
            reader: FrameReader::new(FrameLimits::default()),
            writeq: WriteQueue::new(),
            phase: Phase::AwaitingHello,
            last_activity: Instant::now(),
            legacy_acks: VecDeque::new(),
            seq_ack: None,
            closing: false,
            ready: true,
        }
    }

    /// When the connection next needs a pass that no socket event will
    /// trigger: an owed ack coming due, or idle reaping.
    fn next_timer(&self, read_timeout: Duration) -> Instant {
        self.legacy_acks
            .front()
            .copied()
            .into_iter()
            .chain(self.seq_ack.map(|(_, due)| due))
            .fold(self.last_activity + read_timeout, Instant::min)
    }

    /// What to poll the socket for: input until the peer is done sending
    /// (a socket at EOF would report readable forever), output while
    /// bytes are queued.
    fn poll_events(&self) -> i16 {
        let input = if self.closing { 0 } else { POLLIN };
        if self.writeq.has_pending() {
            input | POLLOUT
        } else {
            input
        }
    }
}

struct ListenerShard {
    intake: Receiver<TcpStream>,
    wake: WakeReader,
    config: ListenerConfig,
    tx: Sender<Inbound>,
    doorbell: Arc<Doorbell>,
    counters: TransportCounters,
    shutdown: Arc<AtomicBool>,
    conns: Vec<ConnState>,
    frames_scratch: Vec<Frame>,
    /// `poll` entries: the wake pipe, then `conns` in order.
    fds: Vec<PollFd>,
}

impl ListenerShard {
    fn run(mut self) {
        loop {
            self.wake.drain();
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // 1. Adopt newly accepted sockets. A gone accept thread means
            //    shutdown, or a `bind` that failed after starting us.
            loop {
                match self.intake.try_recv() {
                    Ok(stream) => {
                        if stream.set_nonblocking(true).is_ok() {
                            let _ = stream.set_nodelay(true);
                            self.conns.push(ConnState::new(stream));
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                }
            }
            // 2. Progress the connections something happened to; drop
            //    the dead.
            let now = Instant::now();
            let mut i = 0;
            while i < self.conns.len() {
                let conn = &mut self.conns[i];
                let due = conn.ready || conn.next_timer(READ_TIMEOUT) <= now;
                conn.ready = false;
                if !due || self.progress(i, now) {
                    i += 1;
                } else {
                    self.conns.swap_remove(i);
                }
            }
            // 3. Sleep until a socket, the accept thread, shutdown or the
            //    nearest owed ack or reaping needs us.
            self.wait();
        }
    }

    /// Blocks in `poll` until a socket or the wake pipe is ready or the
    /// nearest timer is due (at most [`HOUSEKEEPING_TICK`]), then marks the
    /// connections whose sockets it reported.
    fn wait(&mut self) {
        let now = Instant::now();
        let mut timeout = HOUSEKEEPING_TICK;
        self.fds.clear();
        self.fds.push(self.wake.poll_fd());
        for conn in &self.conns {
            let due = conn.next_timer(READ_TIMEOUT);
            timeout = timeout.min(due.saturating_duration_since(now));
            self.fds.push(PollFd::new(&conn.stream, conn.poll_events()));
        }
        poll::wait(&mut self.fds, Some(timeout));
        self.counters.add_wake();
        for (conn, fd) in self.conns.iter_mut().zip(&self.fds[1..]) {
            conn.ready = fd.ready();
        }
    }

    /// One pass over connection `i`. Returns `false` when the
    /// connection should be dropped.
    fn progress(&mut self, i: usize, now: Instant) -> bool {
        // Read whatever the socket has. Frames that arrived before an
        // EOF are still processed — a peer may half-close its write
        // side and legitimately wait for our acks.
        self.frames_scratch.clear();
        let eof = {
            let conn = &mut self.conns[i];
            match conn.reader.pump(&mut conn.stream, &mut self.frames_scratch) {
                Ok(ReadStatus::Open) => false,
                Ok(ReadStatus::Closed) | Err(_) => true,
            }
        };
        let frames: Vec<Frame> = self.frames_scratch.drain(..).collect();
        if !frames.is_empty() {
            self.conns[i].last_activity = now;
        }
        for frame in frames {
            if !self.handle_frame(i, frame, now) {
                return false;
            }
        }

        let conn = &mut self.conns[i];
        if eof {
            conn.closing = true;
        }
        // Emit acks that have come due — or everything owed, when the
        // peer is done sending and just waits for confirmations.
        while conn
            .legacy_acks
            .front()
            .is_some_and(|due| conn.closing || *due <= now)
        {
            conn.legacy_acks.pop_front();
            conn.writeq.push_frame(FrameKind::Ack, bytes::Bytes::new());
        }
        if conn
            .seq_ack
            .is_some_and(|(_, due)| conn.closing || due <= now)
        {
            let (seq, _) = conn.seq_ack.take().expect("checked above");
            conn.writeq.push_ack_seq(seq);
        }
        if conn.writeq.flush(&mut conn.stream).is_err() {
            return false;
        }
        if conn.closing && !conn.writeq.has_pending() {
            return false;
        }
        // Idle reaping.
        if now.duration_since(conn.last_activity) > READ_TIMEOUT {
            return false;
        }
        true
    }

    /// Applies one inbound frame. Returns `false` to hang up.
    fn handle_frame(&mut self, i: usize, frame: Frame, now: Instant) -> bool {
        let delay = self.config.ack_delay.unwrap_or(Duration::ZERO);
        match &self.conns[i].phase {
            Phase::AwaitingHello => {
                if frame.kind != FrameKind::Hello {
                    self.counters.add_handshake_failure();
                    return false;
                }
                match verify_hello(
                    &frame.payload,
                    &self.config.trust,
                    self.config.require_signed,
                ) {
                    Ok(info) => {
                        self.counters.add_connect();
                        let conn = &mut self.conns[i];
                        conn.writeq.push_frame(
                            FrameKind::Welcome,
                            bytes::Bytes::from(build_welcome(&self.config.local_host)),
                        );
                        conn.phase = Phase::Open {
                            host: info.host,
                            principal: info.principal.map(|p| p.as_str().to_owned()),
                            recv: RecvWindow::new(),
                        };
                    }
                    Err(e) => {
                        self.counters.add_handshake_failure();
                        let conn = &mut self.conns[i];
                        conn.writeq.push_frame(
                            FrameKind::Reject,
                            bytes::Bytes::from(e.to_string().into_bytes()),
                        );
                        conn.closing = true;
                    }
                }
                true
            }
            Phase::Open { .. } => match frame.kind {
                FrameKind::Briefcase => {
                    self.counters.add_received(frame.payload.len() as u64);
                    let forward = self
                        .config
                        .pre_ack
                        .as_ref()
                        .is_none_or(|hook| hook(&frame.payload));
                    if forward && !self.forward(i, frame.payload) {
                        return false;
                    }
                    self.conns[i].legacy_acks.push_back(now + delay);
                    true
                }
                FrameKind::BriefcaseSeq => {
                    let Ok((seq, body)) = split_seq(&frame.payload) else {
                        return false;
                    };
                    self.counters.add_received(body.len() as u64);
                    let fresh = match &mut self.conns[i].phase {
                        Phase::Open { recv, .. } => recv.accept(seq),
                        Phase::AwaitingHello => unreachable!("phase checked"),
                    };
                    // A retransmit is re-acked but never re-forwarded.
                    if fresh {
                        let forward = self.config.pre_ack.as_ref().is_none_or(|hook| hook(&body));
                        if forward && !self.forward(i, body) {
                            return false;
                        }
                    }
                    let ack = match &self.conns[i].phase {
                        Phase::Open { recv, .. } => recv.ack_seq(),
                        Phase::AwaitingHello => unreachable!("phase checked"),
                    };
                    let conn = &mut self.conns[i];
                    // Coalesce: raise a pending ack's horizon in place,
                    // keeping its original due time.
                    conn.seq_ack = Some(match conn.seq_ack {
                        Some((_, due)) => (ack, due),
                        None => (ack, now + delay),
                    });
                    true
                }
                FrameKind::Stats => {
                    let text = self
                        .config
                        .stats_provider
                        .as_ref()
                        .map_or_else(|| "no stats available".to_owned(), |f| f());
                    self.conns[i]
                        .writeq
                        .push_frame(FrameKind::StatsReply, bytes::Bytes::from(text.into_bytes()));
                    true
                }
                FrameKind::Bye => {
                    self.conns[i].closing = true;
                    true
                }
                // Protocol violation: hang up.
                _ => false,
            },
        }
    }

    /// Forwards a payload inward. Returns `false` when the daemon side
    /// has hung up the inbound channel.
    fn forward(&mut self, i: usize, payload: bytes::Bytes) -> bool {
        let Phase::Open {
            host, principal, ..
        } = &self.conns[i].phase
        else {
            return false;
        };
        let sent = self
            .tx
            .send(Inbound {
                from_host: host.clone(),
                from_principal: principal.clone(),
                payload,
            })
            .is_ok();
        self.doorbell.ring();
        sent
    }
}
