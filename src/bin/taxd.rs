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
use std::sync::Arc;
use std::time::{Duration, Instant};

use tacoma::core::{AgentSpec, SystemBuilder, TaxSystem};
use tacoma::transport::{
    ListenerConfig, ReactorConfig, ReactorTransport, Transport, TransportListener,
};

/// How often the pending-queue sweep retries parked remote mail.
const SWEEP_EVERY: Duration = Duration::from_millis(250);

/// How long one `recv_timeout` on the inbound channel blocks.
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
    let deduped = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let stats_host = host.clone();
    let stats_transport = Arc::clone(&transport);
    let stats_journal = journal_handle.clone();
    let stats_deduped = Arc::clone(&deduped);
    listener_config.stats_provider = Some(Arc::new(move || {
        let mut text = stats_host.with_firewall(|fw| {
            fw.stats_mut().absorb_transport(&stats_transport.stats());
            fw.stats_mut().hops_deduped = stats_deduped.load(std::sync::atomic::Ordering::Relaxed);
            fw.stats().to_string()
        });
        if let Some(journal) = &stats_journal {
            text.push_str(&format!("\njournal: {}", journal.stats()));
        }
        text
    }));
    if let Some(journal) = &journal_handle {
        // The door-side dedup point: journal each arriving keyed hop
        // *before* it is acked, and suppress (but still ack) retries of
        // hops this journal has already seen — the sender stops retrying
        // without the agent running twice.
        let journal = Arc::clone(journal);
        let counter = Arc::clone(&deduped);
        listener_config.pre_ack = Some(Arc::new(move |payload| {
            let Ok(message) = tacoma::firewall::Message::decode_bytes(payload) else {
                return true; // Let the firewall reject malformed frames.
            };
            let (tacoma::firewall::MessageKind::AgentTransfer { .. }, Some(key)) =
                (&message.kind, &message.hop)
            else {
                return true; // Unkeyed traffic is not journaled at the door.
            };
            match journal.begin_inbound_hop(key, message.hop_parent.as_deref(), payload) {
                Ok(true) => true,
                Ok(false) => {
                    counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    false
                }
                // Journal failure: forward anyway — degraded durability
                // must not lose the agent.
                Err(_) => true,
            }
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

    let mut last_activity = Instant::now();
    let mut last_sweep = Instant::now();
    loop {
        if system.run_until_quiet().steps() > 0 {
            last_activity = Instant::now();
        }
        // Settle acked/failed nonblocking sends: commits hops, parks
        // frames whose retry budget ran out.
        if system
            .pump_transport(&opts.host)
            .map_err(|e| e.to_string())?
            > 0
        {
            last_activity = Instant::now();
        }
        print_new_events(&mut system);

        match listener.incoming().recv_timeout(POLL_EVERY) {
            Ok(inbound) => {
                last_activity = Instant::now();
                system
                    .inject_wire_bytes(&opts.host, &inbound.payload)
                    .map_err(|e| e.to_string())?;
                continue; // Run the scheduler before blocking again.
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {} // Housekeeping below.
        }

        if last_sweep.elapsed() >= SWEEP_EVERY {
            last_sweep = Instant::now();
            let (delivered, _reparked) = system
                .redeliver_remote_pending(&opts.host)
                .map_err(|e| e.to_string())?;
            if delivered > 0 {
                last_activity = Instant::now();
            }
        }
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
    // Drain whatever is still riding the reactor so the final stats and
    // journal checkpoint reflect settled sends, not frames in limbo.
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    while system
        .transport_inflight(&opts.host)
        .map_err(|e| e.to_string())?
        > 0
        && Instant::now() < drain_deadline
    {
        if system
            .pump_transport(&opts.host)
            .map_err(|e| e.to_string())?
            == 0
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        system.run_until_quiet();
    }
    listener.shutdown();

    print_new_events(&mut system);
    if let Some(journal) = &journal_handle {
        // Fold the tail into a checkpoint so the next boot replays only
        // genuinely unfinished work.
        let _ = journal.checkpoint();
        println!("taxd: journal {}", journal.stats());
    }
    let line = host.with_firewall(|fw| {
        fw.stats_mut().absorb_transport(&transport.stats());
        fw.stats_mut().hops_deduped = deduped.load(std::sync::atomic::Ordering::Relaxed);
        fw.stats().to_string()
    });
    println!("taxd: stats {line}");
    Ok(())
}

/// Prints the events recorded since the last call and drops them: a
/// long-running daemon keeps no event history.
fn print_new_events(system: &mut TaxSystem) {
    for (host, event) in &system.drain_events() {
        println!("{host:>12}  {event}");
    }
    let _ = std::io::stdout().flush();
}
