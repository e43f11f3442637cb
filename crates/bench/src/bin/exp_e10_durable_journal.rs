//! **E10 — durability tax of the journal on the park/ship pipeline.**
//!
//! Runs the same park → deliver → ship cycle a journaling `taxd` performs
//! for every hop — decode the arriving message, park it in the pending
//! queue, drain it, then ship a hop over a real loopback TCP connection
//! and wait for the ack — with no journal (the in-memory baseline) and
//! with a durable journal at several fsync-batch settings.
//!
//! The pipeline runs on a small fleet of sender threads sharing one
//! journal and one [`ReactorTransport`], the shape of a real daemon
//! (listener connection threads plus the scheduler all appending to the
//! same log and shipping through the same reactor). Each ship is the
//! blocking `send` the firewall uses for agent transfers: it rides the
//! reactor's pipelined window and waits for its own ack. Write-ahead
//! records for a burst of `fsync_batch` cycles are journaled through one
//! [`tacoma_journal::Journal::with_group`] group commit, and — because
//! syncs are leader/follower — concurrent bursts from different threads
//! share fsyncs instead of queueing behind each other. At batch 1 every
//! write-ahead record pays for its own durability before the cycle can
//! proceed: the worst case group commit exists to avoid.
//!
//! Also reports the raw write-ahead amortization curve: microseconds per
//! durable `hop-begin` record as the group-commit burst grows.
//!
//! With `--json` the results are emitted as a JSON object (the format
//! checked in as `BENCH_7.json`); `--smoke` shrinks the workload for CI;
//! `--check` exits non-zero if the best journaled throughput at
//! fsync-batch >= 8 falls below half the in-memory baseline, or if group
//! commit stops amortizing (batch-32 write-ahead latency not below
//! batch-1).

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use tacoma_bench::{fmt_duration, header, row};
use tacoma_briefcase::Briefcase;
use tacoma_firewall::{Message, PendingQueue};
use tacoma_journal::{Journal, JournalConfig, OpenHop};
use tacoma_security::Principal;
use tacoma_simnet::SimTime;
use tacoma_transport::{
    ListenerConfig, ReactorConfig, ReactorTransport, Transport, TransportListener,
};

/// Sender threads sharing the journal — the daemon's listener/scheduler
/// concurrency, and what lets group commit amortize fsyncs across hops.
const THREADS: usize = 4;

/// Group-commit burst sizes swept by both the pipeline and the latency
/// microbench. The CI gate reads the entries at or above 8.
const BATCHES: [usize; 3] = [1, 8, 32];

/// The CI gate: the best journaled throughput at fsync-batch >= 8 must be
/// at least this fraction of the in-memory baseline.
const THROUGHPUT_GATE: f64 = 0.5;

/// The sink's address comes from the reactor's peer table; the port in
/// each `send` is only the fallback for unmapped hosts.
const SINK_PORT: u16 = 0;

/// A unique scratch journal directory.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tacoma_e10_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The message every cycle ships: an agent transfer carrying a
/// survey-sized briefcase (a few KB of folders, the shape a mobilized
/// Webbot accumulates per site).
fn build_transfer_wire(smoke: bool) -> Bytes {
    let mut bc = Briefcase::new();
    let folders = if smoke { 3 } else { 5 };
    for f in 0..folders {
        for e in 0..8u8 {
            bc.append(&format!("RESULTS-{f}"), vec![e; 64]);
        }
    }
    let message = Message::transfer(
        "bench",
        Principal::local_system("bench"),
        "tacoma://sink/vm_script".parse().expect("valid uri"),
        bc,
        false,
    );
    Bytes::from(message.encode())
}

/// The message every cycle parks: a small meet/activation delivery — what
/// the firewall actually holds for an absent agent — not the multi-KB
/// transfer, which never sits in the pending queue.
fn build_park_wire() -> Bytes {
    let mut bc = Briefcase::new();
    bc.append("CONTACT", b"activate probe".to_vec());
    let message = Message::deliver(
        "bench",
        Principal::local_system("bench"),
        None,
        "tacoma://sink/probe".parse().expect("valid uri"),
        bc,
    );
    Bytes::from(message.encode())
}

/// A loopback sink: accepts connections, acks briefcase frames, and
/// discards the payloads on a drain thread.
struct Sink {
    listener: TransportListener,
    stop: Arc<AtomicBool>,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Sink {
    fn start() -> Sink {
        let listener = TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("sink"))
            .expect("bind loopback sink");
        let rx = listener.incoming().clone();
        let stop = Arc::new(AtomicBool::new(false));
        let drain_stop = Arc::clone(&stop);
        let drain = std::thread::spawn(move || {
            while !drain_stop.load(Ordering::Relaxed) {
                let _ = rx.recv_timeout(Duration::from_millis(50));
            }
        });
        Sink {
            listener,
            stop,
            drain: Some(drain),
        }
    }

    fn port(&self) -> u16 {
        self.listener.local_addr().port()
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.drain.take() {
            let _ = handle.join();
        }
    }
}

struct PipelineRun {
    label: String,
    fsync_batch: usize,
    wall: Duration,
    ops_per_sec: f64,
    fsyncs: u64,
}

/// One sender thread's share of the pipeline: `cycles` park/deliver/ship
/// cycles in bursts of `burst`. With a journal, each burst journals its
/// write-ahead parks in one group commit, then its deliveries and hop
/// begins in a second, then ships each hop over the wire and journals
/// the (backstop-batched) commit.
#[allow(clippy::too_many_arguments)]
fn sender_thread(
    label: &str,
    thread: usize,
    cycles: usize,
    burst: usize,
    park_wire: &Bytes,
    wire: &Bytes,
    transport: &ReactorTransport,
    journal: Option<&Journal>,
    start: &Barrier,
) {
    let mut queue = PendingQueue::new();
    let now = SimTime::from_nanos(0);
    let drain_at = SimTime::from_nanos(u64::MAX);
    let timeout = Duration::from_secs(30);
    start.wait();

    let mut cycle = 0usize;
    let mut shipped: Vec<String> = Vec::new();
    // Stagger each thread's first burst so burst-end sync points spread
    // out instead of convoying: released by one barrier with identical
    // burst sizes, every thread would otherwise reach its group commit at
    // the same instant and the whole fleet would sit in the same fsync
    // I/O wait with no runnable thread left to ship hops.
    let mut next = burst + thread * burst / THREADS;
    while cycle < cycles {
        let chunk = next.min(cycles - cycle);
        next = burst;

        // Park: decode each arriving activation and queue it, then drain
        // the burst back out of the queue.
        for _ in 0..chunk {
            let message = Message::decode_bytes(park_wire).expect("valid wire");
            queue.enqueue(message, now, timeout);
        }
        let expired = queue.expire(drain_at);
        assert_eq!(expired.count, chunk, "drain must empty the burst");

        // Journal the burst in ONE group commit: the previous burst's hop
        // commits (completion records need no sync of their own — they
        // ride along), then this burst's write-ahead parks, deliveries,
        // and outbound hop begins. One blocking sync per burst, shared
        // with whatever the other sender threads have appended.
        if let Some(j) = journal {
            let commits = std::mem::take(&mut shipped);
            j.with_group(|group| {
                for key in &commits {
                    group.hop_committed(key)?;
                }
                for _ in 0..chunk {
                    let key = group.mail_parked(timeout, park_wire)?;
                    group.mail_delivered(key)?;
                }
                for i in 0..chunk {
                    group.hop_begin(
                        &format!("{label}-t{thread}-{:08x}", cycle + i),
                        None,
                        false,
                        "sink",
                        wire,
                    )?;
                }
                Ok(())
            })
            .expect("journal burst");
        }

        // Ship: each begun hop crosses the real loopback wire; its commit
        // record is journaled with the next burst's group.
        for i in 0..chunk {
            transport
                .send("bench", "sink", SINK_PORT, wire)
                .expect("loopback send");
            if journal.is_some() {
                shipped.push(format!("{label}-t{thread}-{:08x}", cycle + i));
            }
        }
        cycle += chunk;
    }
    // Commit the final burst's hops.
    if let Some(j) = journal {
        j.with_group(|group| {
            for key in &shipped {
                group.hop_committed(key)?;
            }
            Ok(())
        })
        .expect("journal final commits");
    }
}

/// Timed repetitions per configuration; the median is reported. On a
/// small shared VM a single run is hostage to scheduler noise in both
/// directions — the median damps outlier-slow and outlier-fast reps
/// alike, which matters because the gate is a ratio of two such walls.
const REPS: usize = 3;

/// Runs `cycles` total cycles across [`THREADS`] sender threads, each
/// with its own pending queue, sharing the reactor and the journal (when
/// present) exactly as a daemon's threads share its transport and log.
/// Repeats [`REPS`] times and keeps the median run by wall clock.
fn run_pipeline(
    label: &str,
    cycles: usize,
    burst: usize,
    park_wire: &Bytes,
    wire: &Bytes,
    transport: &ReactorTransport,
    journal: Option<&Journal>,
) -> PipelineRun {
    let mut reps: Vec<PipelineRun> = (0..REPS)
        .map(|_| run_pipeline_once(label, cycles, burst, park_wire, wire, transport, journal))
        .collect();
    reps.sort_by(|a, b| a.wall.cmp(&b.wall));
    reps.into_iter().nth(REPS / 2).expect("at least one rep")
}

/// One timed run of the fleet pipeline.
#[allow(clippy::cast_precision_loss, clippy::too_many_arguments)]
fn run_pipeline_once(
    label: &str,
    cycles: usize,
    burst: usize,
    park_wire: &Bytes,
    wire: &Bytes,
    transport: &ReactorTransport,
    journal: Option<&Journal>,
) -> PipelineRun {
    let fsyncs_before = journal.map_or(0, |j| j.stats().fsyncs);
    let per_thread = cycles / THREADS;
    let start = Barrier::new(THREADS + 1);

    let wall = std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let start = &start;
            scope.spawn(move || {
                sender_thread(
                    label, thread, per_thread, burst, park_wire, wire, transport, journal, start,
                );
            });
        }
        start.wait();
        Instant::now()
    })
    .elapsed();
    let ran = per_thread * THREADS;

    PipelineRun {
        label: label.to_owned(),
        fsync_batch: burst,
        wall,
        ops_per_sec: ran as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE),
        fsyncs: journal.map_or(0, |j| j.stats().fsyncs - fsyncs_before),
    }
}

/// Amortized write-ahead latency: µs per durable `hop-begin` when bursts
/// of `batch` records share one group-commit fsync (single-threaded, so
/// the curve isolates amortization from cross-thread fsync sharing).
#[allow(clippy::cast_precision_loss)]
fn write_ahead_latency(records: usize, batch: usize, wire: &Bytes) -> f64 {
    let dir = scratch_dir(&format!("latency_{batch}"));
    let (journal, _) = Journal::open(&dir, JournalConfig::default()).expect("open scratch journal");
    let started = Instant::now();
    let mut written = 0usize;
    while written < records {
        let chunk = batch.min(records - written);
        let hops: Vec<OpenHop> = (0..chunk)
            .map(|i| OpenHop {
                key: format!("lat-{:08x}", written + i),
                parent: None,
                inbound: false,
                to: "sink".to_owned(),
                wire: wire.clone(),
            })
            .collect();
        journal.hop_begin_batch(&hops).expect("journal hop begin");
        written += chunk;
    }
    let wall = started.elapsed();
    drop(journal);
    let _ = fs::remove_dir_all(&dir);
    wall.as_secs_f64() * 1e6 / records as f64
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");

    let (cycles, latency_records) = if smoke { (384, 96) } else { (1920, 512) };
    let wire = build_transfer_wire(smoke);
    let park_wire = build_park_wire();
    let sink = Sink::start();
    let transport = ReactorTransport::new(ReactorConfig::default());
    transport.add_peer("sink", format!("127.0.0.1:{}", sink.port()));
    // Open the connection outside the timed region.
    transport
        .send("bench", "sink", SINK_PORT, &wire)
        .expect("loopback warmup");

    // The in-memory baseline runs the same fleet with the same burst
    // chunking as the gated batch-8 journal run — only the journal
    // appends and fsyncs differ between the two rows the gate compares.
    let mut runs = vec![run_pipeline(
        "in-memory",
        cycles,
        8,
        &park_wire,
        &wire,
        &transport,
        None,
    )];
    let mut journal_dirs = Vec::new();
    for batch in BATCHES {
        let dir = scratch_dir(&format!("pipeline_{batch}"));
        let config = JournalConfig {
            fsync_batch: batch,
            ..JournalConfig::default()
        };
        let (journal, _) = Journal::open(&dir, config).expect("open bench journal");
        runs.push(run_pipeline(
            &format!("journal, batch {batch}"),
            cycles,
            batch,
            &park_wire,
            &wire,
            &transport,
            Some(&journal),
        ));
        journal_dirs.push(dir);
    }
    for dir in journal_dirs {
        let _ = fs::remove_dir_all(&dir);
    }

    let latencies: Vec<(usize, f64)> = BATCHES
        .iter()
        .map(|&batch| {
            let best = (0..REPS)
                .map(|_| write_ahead_latency(latency_records, batch, &wire))
                .fold(f64::INFINITY, f64::min);
            (batch, best)
        })
        .collect();

    let inmem = runs[0].ops_per_sec;
    let batch8 = runs
        .iter()
        .find(|r| r.fsync_batch == 8 && r.label.starts_with("journal"))
        .expect("batch-8 run");
    let relative = batch8.ops_per_sec / inmem.max(f64::MIN_POSITIVE);
    // The gate reads the best journaled run at fsync-batch >= 8: the
    // acceptance target is that *some* batching level at or above 8 holds
    // the durability tax under 2x, not that every level does.
    let gated = runs
        .iter()
        .filter(|r| r.label.starts_with("journal") && r.fsync_batch >= 8)
        .map(|r| r.ops_per_sec / inmem.max(f64::MIN_POSITIVE))
        .fold(0.0_f64, f64::max);

    if json {
        println!("{{");
        println!("  \"bench\": \"durable_journal\",");
        println!("  \"cycles\": {cycles},");
        println!("  \"threads\": {THREADS},");
        println!("  \"wire_bytes\": {},", wire.len());
        println!("  \"smoke\": {smoke},");
        println!("  \"runs\": [");
        for (i, r) in runs.iter().enumerate() {
            let comma = if i + 1 < runs.len() { "," } else { "" };
            println!(
                "    {{ \"label\": \"{}\", \"fsync_batch\": {}, \"wall_ms\": {:.1}, \"ops_per_sec\": {:.0}, \"fsyncs\": {} }}{comma}",
                r.label,
                r.fsync_batch,
                r.wall.as_secs_f64() * 1e3,
                r.ops_per_sec,
                r.fsyncs,
            );
        }
        println!("  ],");
        println!("  \"journaled_batch8_vs_inmem\": {relative:.2},");
        println!("  \"journaled_best_batch_ge8_vs_inmem\": {gated:.2},");
        println!("  \"write_ahead_latency_us\": [");
        for (i, (batch, us)) in latencies.iter().enumerate() {
            let comma = if i + 1 < latencies.len() { "," } else { "" };
            println!("    {{ \"batch\": {batch}, \"us_per_record\": {us:.1} }}{comma}");
        }
        println!("  ]");
        println!("}}");
    } else {
        println!(
            "E10: durable journal vs in-memory park/ship, {cycles} cycles on {THREADS} threads over loopback TCP"
        );
        println!(
            "    {}-byte transfer message per cycle; journaled runs group-commit per batch\n",
            wire.len()
        );
        let widths = [18, 12, 10, 12, 8];
        header(
            &["pipeline", "fsync batch", "wall", "cycles/s", "fsyncs"],
            &widths,
        );
        for r in &runs {
            row(
                &[
                    r.label.clone(),
                    if r.label.starts_with("journal") {
                        r.fsync_batch.to_string()
                    } else {
                        "-".to_owned()
                    },
                    fmt_duration(r.wall),
                    format!("{:.0}", r.ops_per_sec),
                    r.fsyncs.to_string(),
                ],
                &widths,
            );
        }
        println!("\njournaled (batch 8) / in-memory throughput: {relative:.2}x");
        println!("journaled (best batch >= 8) / in-memory throughput: {gated:.2}x");
        print!("write-ahead latency:");
        for (batch, us) in &latencies {
            print!(" batch {batch} = {us:.1}us/record;");
        }
        println!();
    }

    if check {
        let mut failed = false;
        if gated < THROUGHPUT_GATE {
            eprintln!(
                "CHECK FAILED: journaled throughput at fsync-batch >= 8 is {gated:.2}x of in-memory, below the {THROUGHPUT_GATE}x gate",
            );
            failed = true;
        }
        let lat1 = latencies.iter().find(|(b, _)| *b == 1).expect("batch 1").1;
        let lat32 = latencies
            .iter()
            .find(|(b, _)| *b == 32)
            .expect("batch 32")
            .1;
        if lat32 >= lat1 {
            eprintln!(
                "CHECK FAILED: group commit not amortizing (batch-32 {lat32:.1}us/record >= batch-1 {lat1:.1}us/record)",
            );
            failed = true;
        }
        if failed {
            return ExitCode::FAILURE;
        }
        eprintln!(
            "check ok: journaled best batch >= 8 = {gated:.2}x in-memory, write-ahead {lat1:.1} -> {lat32:.1} us/record",
        );
    }
    ExitCode::SUCCESS
}
