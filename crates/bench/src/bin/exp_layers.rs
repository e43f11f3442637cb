//! **The layer benchmarks E9, E10, E12 and E13**, one report section
//! each, on the harness in `tacoma_bench::harness`.
//!
//! * **E9**: a mobilized-Webbot fleet under the tick scheduler at 1, 2
//!   and 4 workers, timing only the run to quiescence (paper scale in
//!   full mode: 8 pairs × 917 pages; the scheduler never runs more
//!   workers than there are cores), against its pairs run alone; the CoW
//!   briefcase hop vs the deep-clone model; cold vs warm admission.
//! * **E10**: the journal's tax on the park → deliver → ship cycle a
//!   journaling `taxd` runs per hop, on four sender threads sharing one
//!   journal and one reactor, at fsync batch 1, 8 and 32; and µs per
//!   durable `hop-begin` per group-commit batch.
//! * **E12**: the reactor at ack window 1 vs 32 over a delayed-ack (WAN
//!   RTT) link, an overdriven bounded queue that must refuse and not
//!   lose, and a fan-out to hundreds of peers with p50/p99 per frame.
//! * **E13**: legacy vs fused TaxScript dispatch, and cold vs warm
//!   `vm_script` launches.
//!
//! `--smoke` shrinks every workload, `--check` enforces `harness::GATES`
//! and each section's invariants, `--json` prints the report
//! `scripts/bench.sh` writes to `BENCH_LAYERS.json`.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use tacoma_bench::harness::{interleave, median, median_ratio, timed, Args, Json, Report};
use tacoma_bench::migrate;
use tacoma_briefcase::{folders, Briefcase};
use tacoma_firewall::{AdmissionPolicy, AdmissionVerdict, Message, PendingQueue};
use tacoma_journal::{Journal, JournalConfig};
use tacoma_security::{Principal, Rights, TrustStore};
use tacoma_simnet::SimTime;
use tacoma_taxscript::{compile_source, NullHooks, Program, Vm, DEFAULT_FUEL};
use tacoma_transport::{ListenerConfig, ReactorConfig, ReactorTransport, Transport};
use tacoma_transport::{TransportError, TransportListener};
use tacoma_vm::{code_types, ExecContext, LaunchCaches, NativeRegistry, VirtualMachine, VmScript};
use tacoma_webbot::fleet::{build_fleet, run_fleet, FleetParams, FleetPlan};
use tacoma_webbot::{mobile, WebbotConfig};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("exp_layers: {usage}; flags: --smoke --check --json");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(args.smoke);
    e9_parallel_fleet(&mut report, args.smoke);
    e10_durable_journal(&mut report, args.smoke);
    e12_reactor_transport(&mut report, args.smoke);
    e13_vm_dispatch(&mut report, args.smoke);
    report.finish(args)
}

/// The first field of each rep: its wall seconds.
fn walls<T>(reps: &[(f64, T)]) -> Vec<f64> {
    reps.iter().map(|r| r.0).collect()
}

fn bytecode_briefcase(wire: &[u8]) -> Briefcase {
    let mut bc = Briefcase::new();
    bc.append(folders::CODE, wire.to_vec());
    bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_BYTECODE);
    bc
}

// ------------------------------------------------------------------ E9

/// One fleet run with only the scheduler's run to quiescence inside the
/// timer: wall seconds and the virtual makespan.
fn execute_fleet(params: &FleetParams, threads: usize) -> (f64, Duration) {
    let mut system = build_fleet(params, threads);
    for pair in params.plan.pairs() {
        let mut config = WebbotConfig::scan_site(&pair.server);
        config.max_depth = params.max_depth;
        let spec = mobile::mw_webbot_spec(&pair.server, &pair.client, &config, false, None);
        system.launch(&pair.client, spec).expect("launch webbot");
    }
    let mut quiesced = false;
    let wall = timed(|| quiesced = system.run_until_quiet().quiesced());
    assert!(quiesced, "fleet did not quiesce");
    (wall, system.clock().now().since_epoch())
}

/// A generated agent of `blocks` stanzas of folder traffic and a travel
/// branch, so decode + verify + flow analysis have real work.
fn admission_agent(blocks: usize) -> Briefcase {
    let mut src = String::from("fn main() {\n");
    for b in 0..blocks {
        let _ = write!(
            src,
            "    bc_append(\"RESULTS-{b}\", host_name());\n    \
             let n{b} = bc_len(\"RESULTS-{b}\");\n    \
             if (n{b} > 100) {{ bc_remove(\"RESULTS-{b}\", 0); }}\n    \
             if (n{b} < 0) {{ if (go(\"tacoma://h{b}/vm_script\")) {{ display(\"x\"); }} }}\n"
        );
    }
    src.push_str("    exit(0);\n}\n");
    let program = compile_source(&src).expect("generated agent compiles");
    bytecode_briefcase(&program.encode())
}

fn e9_parallel_fleet(report: &mut Report, smoke: bool) {
    let (pairs, pages, total_bytes) = if smoke {
        (4, 10, 100_000)
    } else {
        (8, 917, 3_000_000)
    };
    let plan = FleetPlan::numbered(pairs);
    let params = FleetParams {
        plan,
        pages,
        total_bytes,
        ..FleetParams::default()
    };
    let [tick1, tick2, tick4] = interleave([
        &mut || execute_fleet(&params, 1),
        &mut || execute_fleet(&params, 2),
        &mut || execute_fleet(&params, 4),
    ]);
    let mut out = Json::obj();
    out.put("pairs", pairs);
    out.put("pages_per_server", pages);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    out.put("cores", cores);
    for (threads, runs) in [(1, &tick1), (2, &tick2), (4, &tick4)] {
        let mut put = |key: &str, value: f64| out.put(&format!("{key}.tick_{threads}"), value);
        put("execute_wall_ms", median(&walls(runs)) * 1e3);
        let speedup = median_ratio(&walls(&tick1), &walls(runs));
        put("wall_clock_speedup", speedup);
        put("virtual_makespan_ms", runs[0].1.as_secs_f64() * 1e3);
    }
    let alone = |i| run_fleet(&params.pair_alone(i), 1).virtual_makespan;
    let alone: Duration = (0..pairs).map(alone).sum();
    out.put("pair_alone_makespan_sum_ms", alone.as_secs_f64() * 1e3);
    let speedup = alone.as_secs_f64() / tick4[0].1.as_secs_f64();
    out.put("virtual_makespan_speedup", speedup);

    let (folders, elements, element_bytes, hops) = if smoke {
        (12, 4, 512, 20)
    } else {
        (24, 6, 2048, 50)
    };
    let base = migrate::build_state(folders, elements, element_bytes);
    let fanout = 8;
    let [legacy, cow] = interleave([
        &mut || {
            let mut bc = migrate::legacy_clone(&base);
            timed(|| (0..hops).for_each(|hop| migrate::hop_legacy(&mut bc, hop, fanout)))
        },
        &mut || {
            let mut bc = base.clone();
            timed(|| (0..hops).for_each(|hop| migrate::hop_cow(&mut bc, hop, fanout)))
        },
    ]);
    out.put("briefcase_migrate.hops", hops);
    out.put("briefcase_migrate.legacy_ms", median(&legacy) * 1e3);
    out.put("briefcase_migrate.cow_ms", median(&cow) * 1e3);
    out.put("briefcase_migrate.speedup", median_ratio(&legacy, &cow));

    let (blocks, iters) = if smoke { (12, 50usize) } else { (48, 200) };
    let agent = admission_agent(blocks);
    let admit = |policy: &AdmissionPolicy| {
        std::hint::black_box(policy.check(&agent, Rights::ALL).expect("agent admits"))
    };
    // A fresh policy per check is cold; one primed policy is warm.
    let warm_policy = AdmissionPolicy::default();
    assert!(matches!(
        admit(&warm_policy),
        AdmissionVerdict::Verified { .. }
    ));
    let mut cold = || timed(|| (0..iters).for_each(|_| drop(admit(&AdmissionPolicy::default()))));
    let mut warm = || timed(|| (0..iters).for_each(|_| drop(admit(&warm_policy))));
    let [cold, warm] = interleave([&mut cold, &mut warm]);
    out.put("admission_cache.iterations", iters);
    out.put("admission_cache.cold_ms", median(&cold) * 1e3);
    out.put("admission_cache.warm_ms", median(&warm) * 1e3);
    out.put("admission_cache.warm_speedup", median_ratio(&cold, &warm));
    report.put("e9_parallel_fleet", out);
}

// ------------------------------------------------------- the loopback sink

/// A loopback sink shared by E10 and E12: acks every briefcase frame
/// (after `ack_delay`, standing in for a WAN round trip) and counts it
/// on a drain thread, which ends when the listener's shards let go of
/// the channel.
struct Sink {
    listener: TransportListener,
    addr: String,
    received: Arc<AtomicU64>,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Sink {
    fn start(ack_delay: Option<Duration>) -> Sink {
        let mut config = ListenerConfig::trusting("sink");
        config.shards = 4;
        config.ack_delay = ack_delay;
        let listener = TransportListener::bind("127.0.0.1:0", config).expect("bind loopback sink");
        let addr = format!("127.0.0.1:{}", listener.local_addr().port());
        let (rx, received) = (listener.incoming().clone(), Arc::new(AtomicU64::new(0)));
        let count = Arc::clone(&received);
        let drain = Some(std::thread::spawn(move || {
            while rx.recv().is_ok() {
                count.fetch_add(1, Ordering::Relaxed);
            }
        }));
        Sink {
            listener,
            addr,
            received,
            drain,
        }
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        self.listener.shutdown();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// A small meet/activation delivery carrying `results` bytes: what the
/// firewall parks for an absent agent (E10), and the frame E12 ships.
fn deliver_wire(results: usize) -> Bytes {
    let mut bc = Briefcase::new();
    bc.append("CONTACT", b"activate probe".to_vec());
    if results > 0 {
        bc.append("RESULTS", vec![7u8; results]);
    }
    let to = "tacoma://sink/probe".parse().expect("valid uri");
    let principal = Principal::local_system("bench");
    Bytes::from(Message::deliver("bench", principal, None, to, bc).encode())
}

// ----------------------------------------------------------------- E10

/// Sender threads sharing the journal: the daemon's listener/scheduler
/// concurrency, and what lets group commit amortize fsyncs across hops.
const THREADS: usize = 4;

/// A unique scratch journal directory.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tacoma_e10_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The message every cycle ships: an agent transfer carrying a
/// survey-sized briefcase (a few KB of folders).
fn transfer_wire(smoke: bool) -> Bytes {
    let mut bc = Briefcase::new();
    for f in 0..if smoke { 3 } else { 5 } {
        for e in 0..8u8 {
            bc.append(&format!("RESULTS-{f}"), vec![e; 64]);
        }
    }
    let to = "tacoma://sink/vm_script".parse().expect("valid uri");
    let principal = Principal::local_system("bench");
    Bytes::from(Message::transfer("bench", principal, to, bc, false).encode())
}

/// One sender thread's share of the pipeline: `cycles` park/deliver/ship
/// cycles in bursts of `burst`. With a journal, each burst journals the
/// previous burst's hop commits, its write-ahead parks, deliveries and
/// hop begins in one group commit, then ships each hop over the wire.
fn sender_thread(
    (label, thread): (&str, usize),
    (cycles, burst): (usize, usize),
    (park_wire, wire): (&Bytes, &Bytes),
    transport: &ReactorTransport,
    journal: Option<&Journal>,
) {
    let mut queue = PendingQueue::new();
    let timeout = Duration::from_secs(30);
    let key = |n: usize| format!("{label}-t{thread}-{n:08x}");
    let mut shipped: Vec<String> = Vec::new();
    let mut cycle = 0usize;
    // Stagger each thread's first burst so the threads do not all reach
    // their group commit at once and sit in the same fsync wait.
    let mut next = burst + thread * burst / THREADS;
    while cycle < cycles {
        let chunk = next.min(cycles - cycle);
        next = burst;
        for _ in 0..chunk {
            let message = Message::decode_bytes(park_wire).expect("valid wire");
            queue.enqueue(message, SimTime::from_nanos(0), timeout);
        }
        let expired = queue.expire(SimTime::from_nanos(u64::MAX));
        assert_eq!(expired.count, chunk, "drain must empty the burst");
        if let Some(j) = journal {
            let commits = std::mem::take(&mut shipped);
            j.with_group(|group| {
                for key in &commits {
                    group.hop_committed(key)?;
                }
                for _ in 0..chunk {
                    let parked = group.mail_parked(timeout, park_wire)?;
                    group.mail_delivered(parked)?;
                }
                for i in cycle..cycle + chunk {
                    group.hop_begin(&key(i), None, false, "sink", wire)?;
                }
                Ok(())
            })
            .expect("journal burst");
        }
        for i in cycle..cycle + chunk {
            transport
                .send("bench", "sink", 0, wire)
                .expect("loopback send");
            if journal.is_some() {
                shipped.push(key(i));
            }
        }
        cycle += chunk;
    }
    if let Some(j) = journal {
        j.with_group(|group| shipped.iter().try_for_each(|key| group.hop_committed(key)))
            .expect("journal final commits");
    }
}

/// One timed run of the pipeline: `cycles` cycles across [`THREADS`]
/// sender threads sharing the reactor and the journal (if any). Returns
/// wall seconds and fsyncs.
fn run_pipeline(
    label: &str,
    (cycles, burst): (usize, usize),
    wires: (&Bytes, &Bytes),
    transport: &ReactorTransport,
    journal: Option<&Journal>,
) -> (f64, u64) {
    let fsyncs = || journal.map_or(0, |j| j.stats().fsyncs);
    let before = fsyncs();
    let start = Barrier::new(THREADS + 1);
    let wall = std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                let shape = (cycles / THREADS, burst);
                sender_thread((label, thread), shape, wires, transport, journal);
            });
        }
        start.wait();
        Instant::now()
    })
    .elapsed();
    (wall.as_secs_f64(), fsyncs() - before)
}

/// Seconds per durable `hop-begin` when bursts of `batch` records share
/// one group-commit fsync (single-threaded, so the curve isolates
/// amortization from cross-thread fsync sharing).
fn write_ahead_latency(records: usize, batch: usize, wire: &Bytes) -> f64 {
    let dir = scratch_dir(&format!("latency_{batch}"));
    let (journal, _) = Journal::open(&dir, JournalConfig::default()).expect("open journal");
    let wall = timed(|| {
        for first in (0..records).step_by(batch) {
            journal
                .with_group(|group| {
                    (first..(first + batch).min(records)).try_for_each(|i| {
                        group.hop_begin(&format!("lat-{i:08x}"), None, false, "sink", wire)
                    })
                })
                .expect("journal hop begin");
        }
    });
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    wall / records as f64
}

fn e10_durable_journal(report: &mut Report, smoke: bool) {
    let (cycles, latency_records) = if smoke { (384, 96) } else { (19200, 512) };
    let wire = transfer_wire(smoke);
    let park_wire = deliver_wire(0);
    let sink = Sink::start(None);
    let transport = ReactorTransport::new(ReactorConfig::default());
    transport.add_peer("sink", sink.addr.clone());
    // Open the connection outside the timed region.
    transport.send("bench", "sink", 0, &wire).expect("warmup");

    let journals: Vec<_> = [1, 8, 32]
        .into_iter()
        .map(|fsync_batch| {
            let dir = scratch_dir(&format!("pipeline_{fsync_batch}"));
            let config = JournalConfig {
                fsync_batch,
                ..JournalConfig::default()
            };
            (Journal::open(&dir, config).expect("open journal").0, dir)
        })
        .collect();
    // The in-memory baseline uses the gated batch-8 burst chunking, so
    // only the journal appends and fsyncs differ between the two.
    let wires = (&park_wire, &wire);
    let run =
        |label, burst, journal| run_pipeline(label, (cycles, burst), wires, &transport, journal);
    let [inmem, batch1, batch8, batch32] = interleave([
        &mut || run("in-memory", 8, None),
        &mut || run("journal-1", 1, Some(&journals[0].0)),
        &mut || run("journal-8", 8, Some(&journals[1].0)),
        &mut || run("journal-32", 32, Some(&journals[2].0)),
    ]);
    for (journal, dir) in journals {
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let mut out = Json::obj();
    out.put("cycles", cycles);
    out.put("wire_bytes", wire.len());
    let ran = (cycles / THREADS * THREADS) as f64;
    for (label, runs) in [
        ("in_memory", &inmem),
        ("batch_1", &batch1),
        ("batch_8", &batch8),
    ]
    .into_iter()
    .chain([("batch_32", &batch32)])
    {
        let fsyncs: Vec<f64> = runs.iter().map(|r| r.1 as f64).collect();
        let mut put = |key: &str, value: f64| out.put(&format!("runs.{label}.{key}"), value);
        put("ops_per_sec", ran / median(&walls(runs)));
        put("fsyncs", median(&fsyncs));
    }
    // Journaled over in-memory throughput is in-memory over journaled wall.
    let vs_inmem = |runs: &[(f64, u64)]| median_ratio(&walls(&inmem), &walls(runs));
    out.put("journaled_batch8_vs_inmem", vs_inmem(&batch8));
    let gated = vs_inmem(&batch8).max(vs_inmem(&batch32));
    out.put("journaled_best_batch_ge8_vs_inmem", gated);

    let [lat1, lat8, lat32] = interleave([
        &mut || write_ahead_latency(latency_records, 1, &wire),
        &mut || write_ahead_latency(latency_records, 8, &wire),
        &mut || write_ahead_latency(latency_records, 32, &wire),
    ]);
    for (batch, lat) in [(1, &lat1), (8, &lat8), (32, &lat32)] {
        let us = median(lat) * 1e6;
        out.put(&format!("write_ahead_us_per_record.batch_{batch}"), us);
    }
    let amortizes = median(&lat32) < median(&lat1);
    report.require(amortizes, "write-ahead batch 32 not below batch 1");
    report.put("e10_durable_journal", out);
}

// ----------------------------------------------------------------- E12

/// One drive of a reactor: wall seconds, frames lost, and each acked
/// frame's enqueue → ack latency.
struct Drive {
    wall: f64,
    lost: usize,
    latencies: Vec<Duration>,
}

/// Enqueues `frames` nowait sends to each host, round-robin across `hosts`,
/// draining completions whenever a bounded queue refuses (the
/// backpressure protocol every caller follows), then waits until every
/// frame settles.
fn drive(transport: &ReactorTransport, hosts: &[String], frames: usize, wire: &Bytes) -> Drive {
    let total = hosts.len() * frames;
    let mut enqueued_at: Vec<Instant> = Vec::with_capacity(total);
    let mut latencies: Vec<Duration> = Vec::with_capacity(total);
    let mut lost = 0usize;
    let mut settle = |enqueued_at: &[Instant]| {
        let completions = transport.drain_completions();
        for c in &completions {
            match c.result {
                Ok(()) => latencies.push(enqueued_at[(c.token - 1) as usize].elapsed()),
                Err(_) => lost += 1,
            }
        }
        completions.len()
    };
    let started = Instant::now();
    let mut done = 0usize;
    for host in (0..frames).flat_map(|_| hosts) {
        let token = enqueued_at.len() as u64 + 1;
        loop {
            match transport.send_nowait("bench", host, 0, wire.clone(), token) {
                Ok(()) => break enqueued_at.push(Instant::now()),
                Err(TransportError::QueueFull { .. }) => {
                    done += settle(&enqueued_at);
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => panic!("enqueue failed: {e}"),
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(180);
    while done < total && Instant::now() < deadline {
        match settle(&enqueued_at) {
            0 => std::thread::sleep(Duration::from_micros(500)),
            n => done += n,
        }
    }
    let wall = started.elapsed().as_secs_f64();
    Drive {
        wall,
        lost: lost + total - done,
        latencies,
    }
}

/// A reactor aimed at one sink, with the given window and queue bound.
fn reactor(sink: &Sink, hosts: &[String], ack_window: usize, queue: usize) -> ReactorTransport {
    let mut config = ReactorConfig::default();
    config.connect.local_host = "bench".to_owned();
    config.shards = 4;
    config.ack_window = ack_window;
    config.queue_capacity = queue;
    // A thousand-peer connect storm through the capped connector pool
    // can outlast the default per-frame budget on one core; the budget
    // is a tunable, not the thing under test.
    config.retry_budget = Duration::from_secs(60);
    let transport = ReactorTransport::new(config);
    for host in hosts {
        transport.add_peer(host.clone(), sink.addr.clone());
    }
    transport
}

/// The soft fd limit from `/proc/self/limits`, or `None` off Linux.
fn fd_limit() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = text.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

fn e12_reactor_transport(report: &mut Report, smoke: bool) {
    let (wan_frames, rtt_ms, requested_peers, frames_per_peer, bp_frames) = if smoke {
        (48, 10, 256, 2, 256)
    } else {
        (256, 15, 1024, 4, 512)
    };
    let wire = deliver_wire(256);
    let mut out = Json::obj();
    out.put("wire_bytes", wire.len());

    // Pipelined acks vs stop-and-wait over a WAN-RTT link, a fresh
    // transport per rep so no rep inherits a warm connection.
    let wan_sink = Sink::start(Some(Duration::from_millis(rtt_ms)));
    let wan_hosts = vec!["wan-sink".to_owned()];
    let windowed = |window| {
        let transport = reactor(&wan_sink, &wan_hosts, window, 1024);
        let run = drive(&transport, &wan_hosts, wan_frames, &wire);
        (run.wall, run.lost)
    };
    let [stop_and_wait, pipelined] = interleave([&mut || windowed(1), &mut || windowed(32)]);
    drop(wan_sink);
    let wan_lost: usize = stop_and_wait.iter().chain(&pipelined).map(|r| r.1).sum();
    let wan_msg = format!("delayed-ack link lost {wan_lost} frames");
    report.require(wan_lost == 0, wan_msg);
    let mut put = |key: &str, value: f64| out.put(&format!("pipelining.{key}"), value);
    put("rtt_ms", rtt_ms as f64);
    put("frames", wan_frames as f64);
    let (stop_and_wait, pipelined) = (walls(&stop_and_wait), walls(&pipelined));
    put("stop_and_wait_wall_ms", median(&stop_and_wait) * 1e3);
    put("window_32_wall_ms", median(&pipelined) * 1e3);
    put("speedup", median_ratio(&stop_and_wait, &pipelined));

    // Bounded backpressure: overdrive a capacity-64 queue.
    let bp_sink = Sink::start(Some(Duration::from_millis(5)));
    let bp_hosts = vec!["bp-sink".to_owned()];
    let bp_transport = reactor(&bp_sink, &bp_hosts, 32, 64);
    let bp_lost = drive(&bp_transport, &bp_hosts, bp_frames, &wire).lost;
    let bp = bp_transport.stats();
    drop((bp_transport, bp_sink));
    let refused = bp.queue_drops > 0;
    report.require(refused, "overdriven queue never refused an enqueue");
    out.put("backpressure.frames", bp_frames);
    out.put("backpressure.queue_drops", bp.queue_drops);
    out.put("backpressure.queue_high_water", bp.queue_high_water);
    out.put("backpressure.lost", bp_lost);

    // Peer scale, clamped to the fd limit: two sockets per peer, the
    // connector side and the accepted side, live in this one process,
    // and 64 are held back for pipes, the listener and stdio.
    let limit = fd_limit().unwrap_or(4096);
    let peers = requested_peers.min(limit.saturating_sub(64) / 2);
    let sink = Sink::start(None);
    let hosts: Vec<String> = (0..peers).map(|p| format!("peer-{p:05}")).collect();
    let transport = reactor(&sink, &hosts, 32, 1024);
    let mut scale = drive(&transport, &hosts, frames_per_peer, &wire);
    let sent = peers * frames_per_peer;
    // Acks race the inward forward by design; give the sink a beat to
    // drain before comparing counts.
    let received = || sink.received.load(Ordering::Relaxed) as usize;
    let wait_until = Instant::now() + Duration::from_secs(5);
    while received() < sent && Instant::now() < wait_until {
        std::thread::sleep(Duration::from_millis(5));
    }
    let lost = scale.lost + sent.saturating_sub(received());
    drop(transport);
    scale.latencies.sort();
    let percentile_ms = |pct: usize| {
        let at = scale.latencies.len().saturating_sub(1) * pct / 100;
        scale
            .latencies
            .get(at)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
    };
    let lost_msg = format!("lost briefcases (peer scale {lost}, backpressure {bp_lost})");
    report.require(lost == 0 && bp_lost == 0, lost_msg);
    report.require(percentile_ms(99) > 0.0, "no p99 latency recorded");
    out.put("peer_scale.fd_limit", limit);
    out.put("peer_scale.peers", peers);
    out.put("peer_scale.frames", sent);
    out.put("peer_scale.lost", lost);
    out.put("peer_scale.wall_ms", scale.wall * 1e3);
    out.put("peer_scale.p50_ms", percentile_ms(50));
    out.put("peer_scale.p99_ms", percentile_ms(99));
    report.put("e12_reactor_transport", out);
}

// ----------------------------------------------------------------- E13

/// Links the mine-shaped agent scans per run, as on `tour_mine`.
const MINE_LINKS: usize = 512;

/// A counter loop of `iters` iterations around `body`: over local
/// arithmetic (loop-heavy, the shape superinstructions were built for)
/// or briefcase builtins (builtin-heavy, where dispatch is a thin slice
/// of each instruction, so it bounds the worst-case speedup).
fn counter_loop(iters: u64, body: &str) -> Program {
    let src = format!(
        "fn main() {{ let i = 0; let acc = 0; while (i < {iters}) {{ {body} i = i + 1; }} exit(0); }}"
    );
    compile_source(&src).expect("counter loop compiles")
}

/// The `tour_mine` agent verbatim (hopbench, `benchmark/src/workload.rs:142`,
/// at its `MINE_ITERATIONS` of 20 000), copied because this crate cannot
/// depend on the benchmark package. Keep the two in step.
fn mine_shaped() -> Program {
    compile_source(
        r#"
fn main() {
    let n = bc_len("LINKS");
    let i = 0;
    let secure = 0;
    let dead = 0;
    while (i < n) {
        let url = bc_get("LINKS", i);
        if (starts_with(url, "https://")) { secure = secure + 1; }
        if (contains(url, "/dead/")) { dead = dead + 1; }
        i = i + 1;
    }
    let sum = 0;
    let k = 0;
    while (k < 20000) {
        sum = (sum * 31 + k) % 1000003;
        k = k + 1;
    }
    bc_append("REPORT", host_name() + " links=" + str(n) + " secure=" + str(secure)
        + " dead=" + str(dead) + " sum=" + str(sum));
    bc_append("TRAIL", host_name());
    let next = bc_remove("HOSTS", 0);
    if (next == nil) { exit(0); }
    go(next);
}
"#,
    )
    .expect("mine-shaped source compiles")
}

/// A briefcase of [`MINE_LINKS`] §5-shaped links — mostly http, some
/// https, some under `/dead/` — drawn as hopbench's `seeded_url` draws
/// them (SplitMix64).
fn mine_links() -> Briefcase {
    let mut state = 0x5EED_u64;
    let mut bc = Briefcase::new();
    for _ in 0..MINE_LINKS {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut r = state;
        r = (r ^ (r >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        r = (r ^ (r >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        r ^= r >> 31;
        let scheme = if r % 3 == 0 { "https" } else { "http" };
        let dir = if (r >> 8) % 5 == 0 { "dead" } else { "docs" };
        let (host, page) = ((r >> 16) % 8, (r >> 24) % 100_000);
        let url = format!("{scheme}://www{host}.cs.uit.no/{dir}/page{page:05}.html");
        bc.append("LINKS", url);
    }
    bc
}

/// `runs` runs of `program` on one tier, each on a fresh copy of
/// `briefcase`, with only the runs inside the timer: wall seconds and
/// the wire instructions one run executes (the fuel it consumed; both
/// tiers charge one per wire instruction).
fn dispatch(program: &Program, briefcase: &Briefcase, runs: u32, legacy: bool) -> (f64, u64) {
    let mut wall = 0.0;
    let mut wire_ops = 0;
    for _ in 0..runs {
        let mut bc = briefcase.clone();
        let mut vm = Vm::new(program, NullHooks::default()).with_fuel(DEFAULT_FUEL);
        let started = Instant::now();
        let outcome = if legacy {
            vm.run_legacy(&mut bc)
        } else {
            vm.run(&mut bc)
        };
        wall += started.elapsed().as_secs_f64();
        outcome.expect("bench program terminates cleanly");
        wire_ops = DEFAULT_FUEL - vm.fuel_remaining();
    }
    (wall, wire_ops)
}

/// A realistic itinerant agent: it carries a dozen task routines to
/// every host but runs a small slice per hop, so a cold launch is
/// dominated by decode + verify + lower, exactly what the caches elide.
fn launch_agent() -> Vec<u8> {
    let mut source = String::new();
    for t in 0..12 {
        let _ = writeln!(
            source,
            "fn task{t}(x) {{ let acc = x; let i = 0; while (i < 10) {{ acc = acc + i * {t}; \
             bc_append(\"T{t}\", str(acc)); i = i + 1; }} return acc; }}"
        );
    }
    source.push_str(
        "fn main() { let step = bc_get(\"STEP\", 0); if (step == 3) { task3(7); } \
         bc_append(\"RESULTS\", host_name()); exit(0); }\n",
    );
    compile_source(&source).expect("agent compiles").encode()
}

fn e13_vm_dispatch(report: &mut Report, smoke: bool) {
    let (loop_iters, builtin_iters, mine_runs, launches) = if smoke {
        (200_000, 20_000, 10, 300)
    } else {
        (2_000_000, 200_000, 50, 2_000)
    };
    let empty = Briefcase::new();
    let arithmetic = counter_loop(loop_iters, "acc = acc + 3; acc = acc + i;");
    let builtins = "bc_set(\"K\", i); bc_append(\"LOG\", \"x\"); bc_clear(\"LOG\");";
    let builtins = counter_loop(builtin_iters, builtins);
    let workloads = [
        ("loop_heavy", arithmetic, &empty, 1),
        ("builtin_heavy", builtins, &empty, 1),
        ("mine_shaped", mine_shaped(), &mine_links(), mine_runs),
    ];
    let mut out = Json::obj();
    for (name, program, bc, runs) in &workloads {
        program.prepare();
        let [legacy, fused] = interleave([&mut || dispatch(program, bc, *runs, true), &mut || {
            dispatch(program, bc, *runs, false)
        }]);
        let ops = (legacy[0].1 * u64::from(*runs)) as f64;
        let (legacy, fused) = (walls(&legacy), walls(&fused));
        let mut put = |key: &str, value: f64| out.put(&format!("dispatch.{name}.{key}"), value);
        put("wire_ops", ops / f64::from(*runs));
        put("legacy_ops_per_sec", ops / median(&legacy));
        put("fused_ops_per_sec", ops / median(&fused));
        put("fused_us_per_run", median(&fused) * 1e6 / f64::from(*runs));
        put("speedup", median_ratio(&legacy, &fused));
    }

    // Cold: a fresh vm_script with empty caches per launch. Warm: one
    // vm_script whose caches were primed by one launch.
    let wire = launch_agent();
    let (trust, natives) = (TrustStore::new(), NativeRegistry::new());
    let ctx = ExecContext::new(&trust, &natives);
    let caches = Arc::new(LaunchCaches::new());
    let warm_vm = VmScript::sharing("vm_script", Arc::clone(&caches));
    let launch = |vm: &VmScript| {
        let mut bc = bytecode_briefcase(&wire);
        let outcome = vm.execute(&mut bc, &mut NullHooks::default(), &ctx);
        outcome.expect("bench launch succeeds");
    };
    launch(&warm_vm);
    let cold_launches = launches / 10;
    // Seconds per launch, each way.
    let [cold, warm] = interleave([
        &mut || {
            timed(|| (0..cold_launches).for_each(|_| launch(&VmScript::new())))
                / cold_launches as f64
        },
        &mut || timed(|| (0..launches).for_each(|_| launch(&warm_vm))) / launches as f64,
    ]);
    let pool = caches.pool().stats();
    out.put("launch.agent_wire_bytes", wire.len());
    out.put("launch.cold_launches_per_sec", 1.0 / median(&cold));
    out.put("launch.warm_launches_per_sec", 1.0 / median(&warm));
    out.put("launch.speedup", median_ratio(&cold, &warm));
    out.put("launch.vm_pool_hits", pool.hits);
    out.put("launch.vm_pool_misses", pool.misses);
    report.put("e13_vm_dispatch", out);
}
