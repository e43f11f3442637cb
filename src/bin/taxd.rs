//! `taxd` — the TAX firewall daemon: one host's firewall and VMs behind a
//! real TCP socket, so agents jump between OS processes instead of
//! between in-process simulated hosts.
//!
//! ```text
//! taxd --host alpha --listen 127.0.0.1:7001 --peer beta=127.0.0.1:7002 \
//!      [--launch file.tax]... [--itinerary beta,alpha] \
//!      [--journal-dir DIR] [--crash-after-record KIND[:N]] \
//!      [--idle-exit-ms 2000] [--require-signed]
//! ```
//!
//! The daemon binds a [`TransportListener`], routes every arriving frame
//! through its firewall exactly as a simulated envelope would be, and
//! ships outbound decisions over a sharded nonblocking
//! [`ReactorTransport`]: frames enter a bounded per-peer queue, ride a
//! pipelined ack window (acked cumulatively), and complete asynchronously
//! — the main loop pumps completions back into the firewall, which parks
//! any frame whose retry budget ran out for the periodic redelivery sweep.
//! `--launch` may repeat to start several agents on the same itinerary.
//! With `--idle-exit-ms` the process exits once nothing has happened for
//! that long — the mode the loopback integration test uses.
//!
//! With `--journal-dir` every park, delivery, and migration hop is
//! write-ahead logged to an on-disk journal; restarting the daemon with
//! the same directory replays undelivered mail and unfinished hops, and
//! the listener's pre-ack hook deduplicates hop retries, so a crashed
//! itinerary resumes with every hop executed effectively once (see
//! `docs/journal.md`). `--crash-after-record` is the fault-injection
//! switch the crash-recovery tests use: the process aborts right after
//! the Nth durable record of the named kind.
//!
//! [`TransportListener`]: tacoma::transport::TransportListener
//! [`ReactorTransport`]: tacoma::transport::ReactorTransport

use std::env;
use std::fs;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::TryRecvError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tacoma::core::{AgentSpec, SystemBuilder, TaxHost, TaxSystem};
use tacoma::journal::JournalError;
use tacoma::transport::{
    ListenerConfig, ReactorConfig, ReactorTransport, Transport, TransportListener,
};

/// How often the pending-queue sweep retries parked remote mail.
const SWEEP_EVERY: Duration = Duration::from_millis(250);

/// The longest one doorbell wait blocks: the housekeeping tick for the
/// redelivery sweep and the idle exit. Frames and completions ring the
/// doorbell and end the wait at once.
const POLL_EVERY: Duration = Duration::from_millis(50);

struct Options {
    host: String,
    listen: String,
    peers: Vec<(String, String)>,
    launches: Vec<String>,
    itinerary: Vec<String>,
    idle_exit: Option<Duration>,
    require_signed: bool,
    journal_dir: Option<String>,
    crash_after: Option<tacoma::journal::CrashPoint>,
}

fn usage() -> String {
    "usage: taxd --host NAME --listen ADDR [--peer HOST=ADDR]... \
     [--launch FILE.tax]... [--itinerary H1,H2,...] [--idle-exit-ms N] [--require-signed] \
     [--journal-dir DIR] [--crash-after-record KIND[:N]]"
        .to_owned()
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut host = None;
    let mut listen = None;
    let mut peers = Vec::new();
    let mut launches = Vec::new();
    let mut itinerary = Vec::new();
    let mut idle_exit = None;
    let mut require_signed = false;
    let mut journal_dir = None;
    let mut crash_after = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--host" => host = Some(value("--host")?),
            "--listen" => listen = Some(value("--listen")?),
            "--peer" => {
                let spec = value("--peer")?;
                let (name, addr) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--peer wants HOST=ADDR, got {spec:?}"))?;
                peers.push((name.to_owned(), addr.to_owned()));
            }
            "--launch" => launches.push(value("--launch")?),
            "--itinerary" => {
                itinerary = value("--itinerary")?
                    .split(',')
                    .map(str::to_owned)
                    .collect();
            }
            "--idle-exit-ms" => {
                let ms: u64 = value("--idle-exit-ms")?
                    .parse()
                    .map_err(|_| "--idle-exit-ms wants a number".to_owned())?;
                idle_exit = Some(Duration::from_millis(ms));
            }
            "--require-signed" => require_signed = true,
            "--journal-dir" => journal_dir = Some(value("--journal-dir")?),
            "--crash-after-record" => {
                let spec = value("--crash-after-record")?;
                crash_after = Some(tacoma::journal::CrashPoint::parse(&spec).ok_or_else(|| {
                    format!("--crash-after-record wants KIND[:N] (N >= 1), got {spec:?}")
                })?);
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(Options {
        host: host.ok_or_else(usage)?,
        listen: listen.ok_or_else(usage)?,
        peers,
        launches,
        itinerary,
        idle_exit,
        require_signed,
        journal_dir,
        crash_after,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let result = parse(&args).and_then(|opts| run(&opts));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("taxd: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &Options) -> Result<(), String> {
    // Outbound: the sharded nonblocking reactor, peer table from --peer.
    // Frames queue per peer with bounded backpressure and ride a
    // pipelined ack window; the loop below pumps completions.
    let mut config = ReactorConfig::default();
    config.connect.local_host.clone_from(&opts.host);
    // One loop turn takes at most one ack window of inbound frames.
    let batch = config.ack_window.max(1);
    let transport = Arc::new(ReactorTransport::new(config));
    for (name, addr) in &opts.peers {
        transport.add_peer(name.clone(), addr.clone());
    }

    // One host, same kernel as the simulation, shipping over the socket.
    let mut system = SystemBuilder::new()
        .host(&opts.host)
        .map_err(|e| e.to_string())?
        .transport(Arc::clone(&transport) as Arc<dyn tacoma::transport::Transport>)
        .build();
    let host = system
        .host(&opts.host)
        .ok_or_else(|| format!("host {} did not build", opts.host))?;

    // Durability: open (or re-open) the write-ahead journal and replay
    // whatever a previous incarnation left unfinished — parked mail
    // re-enters the pending queue, arrived-but-unfinished agents are
    // re-installed, sent-but-unconfirmed hops are re-shipped. This runs
    // before the listener binds so the very first inbound frame already
    // journals through the same handle.
    let journal_handle = match &opts.journal_dir {
        Some(dir) => {
            let config = tacoma::journal::JournalConfig {
                crash_after: opts.crash_after,
                ..tacoma::journal::JournalConfig::default()
            };
            let (journal, replay) =
                tacoma::journal::Journal::open(dir, config).map_err(|e| format!("{dir}: {e}"))?;
            let journal = Arc::new(journal);
            let summary = system
                .recover_journal(&opts.host, &journal, &replay)
                .map_err(|e| e.to_string())?;
            println!(
                "taxd: journal replay records={} torn-tail={} reparked={} \
                 resumed-in={} resumed-out={} failed={}",
                summary.records_scanned,
                summary.torn_tail,
                summary.reparked,
                summary.resumed_inbound,
                summary.resumed_outbound,
                summary.failed
            );
            Some(journal)
        }
        None => None,
    };

    // Inbound: the listener answers HELLOs and hands frames to the loop
    // below; `taxsh stats --connect` is served straight off the firewall.
    let mut listener_config = ListenerConfig::trusting(&opts.host);
    listener_config.require_signed = opts.require_signed;
    let door = Arc::new(DoorCounters::default());
    let stats_host = host.clone();
    let stats_transport = Arc::clone(&transport);
    let stats_journal = journal_handle.clone();
    let stats_door = Arc::clone(&door);
    listener_config.stats_provider = Some(Arc::new(move || {
        let mut text = stats_line(&stats_host, &stats_transport, &stats_door);
        if let Some(journal) = &stats_journal {
            text.push_str(&format!("\njournal: {}", journal.stats()));
        }
        text
    }));
    if let Some(journal) = &journal_handle {
        // The door-side dedup point: journal each arriving keyed hop
        // *before* it is acked.
        let journal = Arc::clone(journal);
        let door = Arc::clone(&door);
        listener_config.pre_ack = Some(Arc::new(move |payload| {
            let Ok(message) = tacoma::firewall::Message::decode_bytes(payload) else {
                return true; // Let the firewall reject malformed frames.
            };
            let (tacoma::firewall::MessageKind::AgentTransfer { .. }, Some(key)) =
                (&message.kind, &message.hop)
            else {
                return true; // Unkeyed traffic is not journaled at the door.
            };
            let begun = journal.begin_inbound_hop(key, message.hop_parent.as_deref(), payload);
            admit_at_door(&begun, &door)
        }));
    }
    let mut listener =
        TransportListener::bind(&opts.listen, listener_config).map_err(|e| e.to_string())?;
    println!("taxd: {} listening on {}", opts.host, listener.local_addr());
    let _ = std::io::stdout().flush();

    let itinerary: Vec<String> = opts
        .itinerary
        .iter()
        .map(|h| format!("tacoma://{h}/vm_script"))
        .collect();
    for path in &opts.launches {
        let source = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let spec = AgentSpec::script("taxd", source).itinerary(itinerary.clone());
        system.launch(&opts.host, spec).map_err(|e| e.to_string())?;
    }

    // One wait covers both sources: the listener and the reactor ring the
    // same doorbell when a frame arrives or a send completes.
    let doorbell = listener.doorbell();
    transport.ring_on_completion(Arc::clone(&doorbell));
    let mut last_activity = Instant::now();
    let mut last_sweep = Instant::now();
    'serve: loop {
        // Settle acked/failed nonblocking sends: commits hops, parks
        // failed mail, and queues every agent suspended on a settled
        // transfer to resume with its verdict in this turn.
        let settled = system
            .pump_transport(&opts.host)
            .map_err(|e| e.to_string())?;
        // Batch drain: every frame the listener holds, up to one ack
        // window, joins this turn — so the turn's agents suspend on their
        // transfers together and one journal fsync covers all their hops.
        let mut injected = 0;
        while injected < batch {
            match listener.incoming().try_recv() {
                Ok(inbound) => {
                    system
                        .inject_wire_bytes(&opts.host, &inbound.payload)
                        .map_err(|e| e.to_string())?;
                    injected += 1;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'serve,
            }
        }
        let ran = system.run_until_quiet().steps();
        print_new_events(&mut system);
        if settled + injected + ran > 0 {
            last_activity = Instant::now();
        }
        if injected == batch {
            continue; // More may wait: their ring was spent on an earlier wait.
        }

        doorbell.wait(POLL_EVERY);
        if last_sweep.elapsed() >= SWEEP_EVERY {
            last_sweep = Instant::now();
            // Parked mail rides the reactor again and settles in a later
            // pump: a delivery is activity there, a repeated loss is not.
            system
                .redeliver_remote_pending(&opts.host)
                .map_err(|e| e.to_string())?;
        }
        // The sweep's frames are not counted in flight: parked mail on
        // another try never keeps the daemon up.
        if let Some(limit) = opts.idle_exit {
            if last_activity.elapsed() >= limit
                && system
                    .transport_inflight(&opts.host)
                    .map_err(|e| e.to_string())?
                    == 0
            {
                break;
            }
        }
    }
    // Settle whatever is still riding the reactor, and run the agents its
    // verdicts resume (they may send again), so the final stats and
    // journal checkpoint reflect settled sends, not frames in limbo.
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let left = system.settle(drain_deadline, Some(&doorbell));
        if left > 0 || system.run_until_quiet().steps() == 0 {
            break;
        }
    }
    listener.shutdown();

    print_new_events(&mut system);
    if let Some(journal) = &journal_handle {
        // Fold the tail into a checkpoint so the next boot replays only
        // genuinely unfinished work.
        let _ = journal.checkpoint();
        println!("taxd: journal {}", journal.stats());
    }
    println!("taxd: stats {}", stats_line(&host, &transport, &door));
    Ok(())
}

/// What the door's pre-ack journaling did, for the stats line.
#[derive(Debug, Default)]
struct DoorCounters {
    /// Retries of already-journaled hops, acked but suppressed.
    deduped: AtomicU64,
    /// Hops forwarded although journaling them failed.
    journal_errors: AtomicU64,
}

/// The pre-ack verdict for one arriving keyed hop, given what journaling
/// it returned. A fresh hop is forwarded. A hop the journal has already
/// seen is acked but suppressed, so the sender stops retrying without
/// the agent running twice. A journal failure forwards anyway — degraded
/// durability must not lose the agent — and is counted, so the stats
/// line shows the degradation.
fn admit_at_door(begun: &Result<bool, JournalError>, door: &DoorCounters) -> bool {
    match *begun {
        Ok(fresh) => {
            if !fresh {
                door.deduped.fetch_add(1, Ordering::Relaxed);
            }
            fresh
        }
        Err(_) => {
            door.journal_errors.fetch_add(1, Ordering::Relaxed);
            true
        }
    }
}

/// The firewall's counter line with the reactor's transport counters and
/// the door's counts folded in: the live `taxsh stats` answer and the
/// exit line both print it, and hopbench parses both.
fn stats_line(host: &TaxHost, transport: &ReactorTransport, door: &DoorCounters) -> String {
    host.with_firewall(|fw| {
        fw.stats_mut().absorb_transport(&transport.stats());
        fw.stats_mut().hops_deduped = door.deduped.load(Ordering::Relaxed);
        fw.stats_mut().door_journal_errors = door.journal_errors.load(Ordering::Relaxed);
        fw.stats().to_string()
    })
}

/// Prints the events recorded since the last call and drops them: a
/// long-running daemon keeps no event history.
fn print_new_events(system: &mut TaxSystem) {
    for (host, event) in &system.drain_events() {
        println!("{host:>12}  {event}");
    }
    let _ = std::io::stdout().flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn door_forwards_fresh_hops_and_suppresses_duplicates() {
        let door = DoorCounters::default();
        assert!(admit_at_door(&Ok(true), &door));
        assert!(!admit_at_door(&Ok(false), &door));
        assert_eq!(door.deduped.load(Ordering::Relaxed), 1);
        assert_eq!(door.journal_errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn door_journal_failure_forwards_and_is_counted() {
        let door = DoorCounters::default();
        let failed = Err(JournalError::Io(std::io::Error::other("disk full")));
        assert!(admit_at_door(&failed, &door), "the agent must not be lost");
        assert_eq!(door.journal_errors.load(Ordering::Relaxed), 1);
        assert_eq!(door.deduped.load(Ordering::Relaxed), 0);
    }
}
