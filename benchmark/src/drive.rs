//! The closed-loop load generator: plays the paper's *home* host against
//! a [`Pair`], keeping `clients` tours in flight.
//!
//! Closed loop because an agent is a caller that waits for its hop: each
//! returning tour immediately injects a fresh one. One injecting thread
//! with one outbound connection; arrivals are stamped on a second thread
//! reading the library listener — two generator threads, the machine's
//! core count.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tacoma::briefcase::Bytes;
use tacoma::firewall::{Message, MessageKind};
use tacoma::transport::{Connection, ListenerConfig, TransportListener};

use crate::pair::{query, Pair, ProcSample};
use crate::workload::{Agent, Inputs, Workload, ID_FOLDER, STOPS};

/// A tour that has not returned this long after the window is lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// Length of the alternating untraced/traced slices of a traced window.
pub const SLICE_S: f64 = 1.0;

/// Whether the `n`-th slice of a traced window traces. The pattern is
/// off-on-on-off, so a throughput that drifts linearly over the window
/// (the daemons slow as their event logs grow) weighs on both sides
/// of the traced/untraced comparison equally.
pub fn slice_is_traced(n: u64) -> bool {
    matches!(n % 4, 1 | 2)
}

/// The harness's own endpoint: the listener tours return to, with a
/// thread stamping each arrival the moment it is dequeued.
pub struct Home {
    listener: TransportListener,
    arrivals: mpsc::Receiver<(Instant, Bytes)>,
    stop: Arc<AtomicBool>,
    stamper: Option<std::thread::JoinHandle<()>>,
}

impl Home {
    /// Binds `127.0.0.1:0` as host `home`.
    ///
    /// # Errors
    ///
    /// Bind failure.
    pub fn bind() -> Result<Home, String> {
        let listener = TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("home"))
            .map_err(|e| format!("home listener: {e}"))?;
        let incoming = listener.incoming().clone();
        let (tx, arrivals) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let stamper = std::thread::spawn(move || {
            while !stopped.load(Ordering::SeqCst) {
                if let Ok(inbound) = incoming.recv_timeout(Duration::from_millis(20)) {
                    if tx.send((Instant::now(), inbound.payload)).is_err() {
                        return;
                    }
                }
            }
        });
        Ok(Home {
            listener,
            arrivals,
            stop,
            stamper: Some(stamper),
        })
    }

    pub fn addr(&self) -> String {
        self.listener.local_addr().to_string()
    }
}

impl Drop for Home {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.stamper.take() {
            let _ = handle.join();
        }
        self.listener.shutdown();
    }
}

/// What became of one injected tour. Times are seconds since the pair's
/// first spawn.
#[derive(Debug, Clone)]
pub struct TourRecord {
    pub id: String,
    pub injected_at: f64,
    /// One `send_payload`: frame → alpha's door journal → ack.
    pub inject_ack_us: f64,
    pub done_at: Option<f64>,
    /// The returned briefcase equalled the oracle's.
    pub intact: bool,
    /// The id (or one of its reports) was seen more than once.
    pub duplicate: bool,
    /// Arrival of the stop report from each of the four stops.
    pub reports: [Option<f64>; 4],
    /// Injected during a traced slice of a traced run.
    pub traced: bool,
}

impl TourRecord {
    /// Returned intact, exactly once, with every expected report.
    pub fn ok(&self, expect_reports: bool) -> bool {
        self.done_at.is_some()
            && self.intact
            && !self.duplicate
            && (!expect_reports || self.reports.iter().all(Option::is_some))
    }
}

/// Both daemons' counters at one instant.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub at: f64,
    pub proc_: [ProcSample; 2],
    pub stats: [BTreeMap<String, u64>; 2],
}

/// Everything one run against a pair observed.
#[derive(Debug, Default)]
pub struct RunLog {
    /// First spawn → first warm-up tour returned.
    pub setup_s: f64,
    pub tours: Vec<TourRecord>,
    pub window_start: Snapshot,
    pub window_end: Snapshot,
    /// After the drain, before the daemons idle-exit.
    pub settled: Snapshot,
    /// 1 Hz samples taken in the traced slices.
    pub series: Vec<Snapshot>,
    /// Message payloads home received in traced slices.
    pub captured: Vec<Bytes>,
    /// Frames home could not attribute to a tour.
    pub strays: u64,
    /// Stop reports still outstanding (`tour_report` only).
    pub reports_due: usize,
}

/// How one run is paced.
#[derive(Debug, Clone, Copy)]
pub struct Pacing {
    pub warmup: Duration,
    pub window: Duration,
    pub trace: bool,
}

/// A brought-up pair: both daemons answering, one tour already home.
pub struct Live {
    pub pair: Pair,
    epoch: Instant,
    alpha: Connection,
    beta: Connection,
    log: RunLog,
    index: HashMap<String, usize>,
    in_flight: usize,
}

/// Spawns a pair under `dir`, connects, and sends one tour round: the
/// work `setup_s` times (spawn, journal open, bind, handshakes, first
/// launch on both daemons). `epoch` is when set-up began; every time in
/// the run's log is measured from it.
///
/// # Errors
///
/// Spawn/connect failure, or the first tour not returning in 10 s.
pub fn bring_up(
    taxd: &Path,
    dir: &Path,
    home: &Home,
    workload: &Workload,
    inputs: &mut Inputs,
    epoch: Instant,
) -> Result<Live, String> {
    let mut pair = Pair::spawn(taxd, dir, &home.addr(), workload.journal)
        .map_err(|e| format!("spawning taxd pair: {e}"))?;
    let deadline = epoch + Duration::from_secs(10);
    let alpha = pair.alpha.connect(deadline)?;
    let beta = pair.beta.connect(deadline)?;
    let mut live = Live {
        pair,
        epoch,
        alpha,
        beta,
        log: RunLog::default(),
        index: HashMap::new(),
        in_flight: 0,
    };
    live.inject(inputs, workload, false)?;
    while live.in_flight > 0 {
        let wait = deadline.saturating_duration_since(Instant::now());
        match home.arrivals.recv_timeout(wait) {
            Ok((at, payload)) => live.arrived(at, &payload, inputs, false),
            Err(_) => return Err("first tour did not return within 10 s".to_owned()),
        }
    }
    live.log.setup_s = live.now();
    Ok(live)
}

impl Live {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn since_epoch(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64()
    }

    fn inject(
        &mut self,
        inputs: &mut Inputs,
        workload: &Workload,
        traced: bool,
    ) -> Result<(), String> {
        let tour = inputs.next_tour();
        let start = Instant::now();
        self.alpha
            .send_payload(&tour.wire)
            .map_err(|e| format!("inject into alpha: {e}"))?;
        let acked = start.elapsed();
        self.index.insert(tour.id.clone(), self.log.tours.len());
        self.log.tours.push(TourRecord {
            id: tour.id,
            injected_at: self.since_epoch(start),
            inject_ack_us: acked.as_secs_f64() * 1e6,
            done_at: None,
            intact: false,
            duplicate: false,
            reports: [None; 4],
            traced,
        });
        self.in_flight += 1;
        if workload.agent == Agent::Report {
            self.log.reports_due += STOPS.len();
        }
        Ok(())
    }

    /// Books one frame home received: a returning tour, or a stop report.
    fn arrived(&mut self, at: Instant, payload: &Bytes, inputs: &Inputs, capture: bool) {
        let at_s = self.since_epoch(at);
        let Ok(message) = Message::decode_bytes(payload) else {
            self.log.strays += 1;
            return;
        };
        let tour = message
            .briefcase
            .single_str(ID_FOLDER)
            .ok()
            .and_then(|id| self.index.get(id))
            .map(|&i| &mut self.log.tours[i]);
        let Some(tour) = tour else {
            self.log.strays += 1;
            return;
        };
        match message.kind {
            MessageKind::AgentTransfer { .. } => {
                if tour.done_at.is_some() {
                    tour.duplicate = true;
                    return;
                }
                tour.done_at = Some(at_s);
                tour.intact = inputs.intact(&tour.id, &message.briefcase);
                self.in_flight -= 1;
                if capture {
                    self.log.captured.push(payload.clone());
                }
            }
            MessageKind::Deliver => {
                let stop = message.briefcase.folder("TRAIL").map_or(0, |f| f.len());
                match stop.checked_sub(1).and_then(|i| tour.reports.get_mut(i)) {
                    Some(slot) if slot.is_none() => {
                        *slot = Some(at_s);
                        self.log.reports_due -= 1;
                    }
                    _ => tour.duplicate = true,
                }
            }
        }
    }

    fn snapshot(&mut self) -> Result<Snapshot, String> {
        Ok(Snapshot {
            at: self.now(),
            proc_: self.pair.sample(),
            stats: [query(&mut self.alpha)?, query(&mut self.beta)?],
        })
    }

    /// Warm-up, measured window, drain. Hands back the pair with its
    /// connections closed, so the daemons go idle: the caller reaps it
    /// with [`Pair::finish`] once they have had time to idle-exit.
    ///
    /// # Errors
    ///
    /// An inject or stats exchange failing, or the listener going away.
    pub fn run(
        mut self,
        home: &Home,
        workload: &Workload,
        inputs: &mut Inputs,
        pacing: Pacing,
    ) -> Result<(RunLog, Pair), String> {
        #[derive(PartialEq)]
        enum Phase {
            Warmup,
            Window,
            Drain,
        }
        let mut phase = Phase::Warmup;
        let mut until = Instant::now() + pacing.warmup;
        let mut slice = 0u64;
        loop {
            let now = Instant::now();
            match phase {
                Phase::Warmup if now >= until => {
                    self.log.window_start = self.snapshot()?;
                    phase = Phase::Window;
                    until = Instant::now() + pacing.window;
                }
                Phase::Window if now >= until => {
                    self.log.window_end = self.snapshot()?;
                    phase = Phase::Drain;
                    until = Instant::now() + DRAIN_LIMIT;
                }
                Phase::Drain
                    if (self.in_flight == 0 && self.log.reports_due == 0) || now >= until =>
                {
                    break;
                }
                _ => {}
            }
            // A traced window alternates untraced and traced slices, so
            // one run yields both sides of `trace.overhead_ratio`.
            let mut tracing = false;
            if pacing.trace && phase == Phase::Window {
                let into = ((self.now() - self.log.window_start.at) / SLICE_S) as u64;
                tracing = slice_is_traced(into);
                if tracing && into != slice {
                    let sample = self.snapshot()?;
                    self.log.series.push(sample);
                }
                slice = into;
            }
            if phase != Phase::Drain {
                while self.in_flight < workload.clients {
                    self.inject(inputs, workload, tracing)?;
                }
            }
            let wait = until
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(50));
            match home.arrivals.recv_timeout(wait) {
                Ok((at, payload)) => self.arrived(at, &payload, inputs, tracing),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("home listener thread ended".to_owned())
                }
            }
        }
        self.log.settled = self.snapshot()?;
        let Live {
            pair,
            alpha,
            beta,
            log,
            ..
        } = self;
        alpha.goodbye();
        beta.goodbye();
        Ok((log, pair))
    }
}
