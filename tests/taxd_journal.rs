//! Crash-recovery integration: `taxd` processes with a durable journal
//! are killed (via `--crash-after-record` fault injection, equivalent to
//! SIGKILL right after a record's fsync) at each journaled state of an
//! itinerary, restarted on the same journal directory, and checked for
//! effectively-once hop semantics — every hop executes exactly once and
//! no parked mail is lost.
//!
//! One logging caveat shapes the assertions: a display that executed
//! right before a crash is recorded in the in-memory event log but may
//! never reach stdout (events print between scheduler runs). So a
//! crashed process's log can *under*-report executions, never
//! over-report them. The exactly-once claims below therefore combine
//! "the itinerary completed exactly once downstream" with "no display
//! appears more often than in the reference run".

use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The E6 TRAIL-accumulating hello agent, as in the loopback test.
const HELLO: &str = r#"
    fn main() {
        display("visiting " + host_name());
        bc_append("TRAIL", host_name());
        let next = bc_remove("HOSTS", 0);
        if (next == nil) { display("done"); exit(0); }
        go(next);
    }
"#;

fn taxd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_taxd"))
}

fn free_ports() -> (u16, u16) {
    let a = TcpListener::bind("127.0.0.1:0").unwrap();
    let b = TcpListener::bind("127.0.0.1:0").unwrap();
    (
        a.local_addr().unwrap().port(),
        b.local_addr().unwrap().port(),
    )
}

fn script_file(tag: &str, source: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("taxd_journal_{tag}_{}.tax", std::process::id()));
    fs::write(&path, source).unwrap();
    path
}

/// A fresh journal directory for this test run.
fn journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("taxd_jrnl_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

struct Daemon {
    child: Child,
    reader: BufReader<std::process::ChildStdout>,
    first_line: String,
}

/// Spawns a taxd and blocks until it reports its listening address.
fn spawn_daemon(args: &[String]) -> Daemon {
    let mut child = taxd()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn taxd");
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    // A journaling daemon prints its replay summary before the listening
    // line; keep everything read so far as log preamble.
    let mut first_line = String::new();
    loop {
        let start = first_line.len();
        if reader.read_line(&mut first_line).unwrap() == 0 {
            panic!("taxd exited before listening:\n{first_line}");
        }
        if first_line[start..].contains("listening on") {
            break;
        }
    }
    Daemon {
        child,
        reader,
        first_line,
    }
}

impl Daemon {
    /// Waits for a clean idle-exit and returns the full stdout.
    fn finish(mut self) -> String {
        let status = self.child.wait().expect("taxd wait");
        assert!(status.success(), "taxd exited with {status}");
        let mut rest = String::new();
        self.reader.read_to_string(&mut rest).unwrap();
        format!("{}{rest}", self.first_line)
    }

    /// Waits for the injected crash (abort) and returns whatever stdout
    /// made it out before the process died.
    fn crash_finish(mut self) -> String {
        let status = self.child.wait().expect("taxd wait");
        assert!(
            !status.success(),
            "expected a crash-injected abort, got clean exit:\n{}",
            self.first_line
        );
        let mut rest = String::new();
        self.reader.read_to_string(&mut rest).unwrap();
        format!("{}{rest}", self.first_line)
    }
}

/// Every `display "…"` payload in a taxd log, in order.
fn displays(log: &str) -> Vec<String> {
    log.lines()
        .filter_map(|line| line.split("display \"").nth(1))
        .map(|tail| tail.trim_end().trim_end_matches('"').to_owned())
        .collect()
}

/// The stats counter line a taxd prints at exit.
fn stats_field(log: &str, key: &str) -> u64 {
    let line = log
        .lines()
        .find(|l| l.starts_with("taxd: stats "))
        .unwrap_or_else(|| panic!("no stats line in:\n{log}"));
    field_of(line, key)
}

/// The journal replay summary line a journaling taxd prints at boot.
fn replay_field(log: &str, key: &str) -> u64 {
    let line = log
        .lines()
        .find(|l| l.starts_with("taxd: journal replay "))
        .unwrap_or_else(|| panic!("no replay line in:\n{log}"));
    field_of(line, key)
}

fn field_of(line: &str, key: &str) -> u64 {
    let needle = format!("{key}=");
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&needle))
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        .parse()
        .unwrap()
}

/// Common argv for a journaling daemon.
#[allow(clippy::needless_pass_by_value)]
fn daemon_args(
    host: &str,
    listen: &str,
    peer: Option<(&str, &str)>,
    journal: &Path,
    idle_ms: u64,
    extra: Vec<String>,
) -> Vec<String> {
    let mut args = vec![
        "--host".into(),
        host.into(),
        "--listen".into(),
        listen.into(),
        "--journal-dir".into(),
        journal.to_string_lossy().into_owned(),
        "--idle-exit-ms".into(),
        idle_ms.to_string(),
    ];
    if let Some((name, addr)) = peer {
        args.push("--peer".into());
        args.push(format!("{name}={addr}"));
    }
    args.extend(extra);
    args
}

/// Crash the *sender* right after its outbound `hop-begin` fsyncs, before
/// the frame is transmitted. Restarting on the same journal re-ships the
/// preserved frame and the itinerary completes with every hop exactly
/// once.
#[test]
fn sender_crash_after_hop_begin_reships_and_completes_once() {
    let script = script_file("sender_begin", HELLO);
    let alpha_journal = journal_dir("sender_begin_alpha");
    let beta_journal = journal_dir("sender_begin_beta");
    let (alpha_port, beta_port) = free_ports();
    let alpha_addr = format!("127.0.0.1:{alpha_port}");
    let beta_addr = format!("127.0.0.1:{beta_port}");

    let beta = spawn_daemon(&daemon_args(
        "beta",
        &beta_addr,
        Some(("alpha", &alpha_addr)),
        &beta_journal,
        6000,
        vec![],
    ));
    let alpha1 = spawn_daemon(&daemon_args(
        "alpha",
        &alpha_addr,
        Some(("beta", &beta_addr)),
        &alpha_journal,
        4000,
        vec![
            "--launch".into(),
            script.to_string_lossy().into_owned(),
            "--itinerary".into(),
            "beta,alpha".into(),
            "--crash-after-record".into(),
            "hop-begin:1".into(),
        ],
    ));

    let alpha1_log = alpha1.crash_finish();
    // Same journal directory, no --launch: a fresh identical launch would
    // be a *different* agent; recovery must come from the journal alone.
    let alpha2 = spawn_daemon(&daemon_args(
        "alpha",
        &alpha_addr,
        Some(("beta", &beta_addr)),
        &alpha_journal,
        4000,
        vec![],
    ));

    let alpha2_log = alpha2.finish();
    let beta_log = beta.finish();
    let _ = fs::remove_file(&script);

    // The restart found exactly one open outbound hop and re-shipped it.
    assert_eq!(replay_field(&alpha2_log, "resumed-out"), 1, "{alpha2_log}");
    assert_eq!(replay_field(&alpha2_log, "resumed-in"), 0, "{alpha2_log}");

    // The itinerary completed exactly once after the re-ship: beta ran the
    // agent once, the final leg came home to the restarted alpha.
    assert_eq!(displays(&beta_log), ["visiting beta"], "{beta_log}");
    assert_eq!(
        displays(&alpha2_log),
        ["visiting alpha", "done"],
        "{alpha2_log}"
    );
    // The crashed incarnation executed the first visit (its print may be
    // lost to the crash but must never appear twice).
    assert!(displays(&alpha1_log).len() <= 1, "{alpha1_log}");
    assert_eq!(stats_field(&beta_log, "hop-dedup"), 0, "{beta_log}");

    let _ = fs::remove_dir_all(&alpha_journal);
    let _ = fs::remove_dir_all(&beta_journal);
}

/// The same sender crash, restarted while its peer is down: the open hop
/// is handed to the transport like any send, so the daemon listens at
/// once instead of after a retry budget per open hop, the loss settles
/// in the background as one retry timeout, and the hop stays open for
/// the next boot.
#[test]
fn boot_replay_to_a_dead_peer_does_not_delay_listening() {
    let script = script_file("replay_dead_peer", HELLO);
    let alpha_journal = journal_dir("replay_dead_peer_alpha");
    // Nothing ever listens on beta's address.
    let (alpha_port, beta_port) = free_ports();
    let alpha_addr = format!("127.0.0.1:{alpha_port}");
    let beta_addr = format!("127.0.0.1:{beta_port}");
    let beta_peer = Some(("beta", beta_addr.as_str()));

    let alpha1 = spawn_daemon(&daemon_args(
        "alpha",
        &alpha_addr,
        beta_peer,
        &alpha_journal,
        4000,
        vec![
            "--launch".into(),
            script.to_string_lossy().into_owned(),
            "--itinerary".into(),
            "beta,alpha".into(),
            "--crash-after-record".into(),
            "hop-begin:1".into(),
        ],
    ));
    let _ = alpha1.crash_finish();

    let booted = Instant::now();
    let alpha2 = spawn_daemon(&daemon_args(
        "alpha",
        &alpha_addr,
        beta_peer,
        &alpha_journal,
        500,
        vec![],
    ));
    let to_listening = booted.elapsed();
    let alpha2_log = alpha2.finish();
    let _ = fs::remove_file(&script);

    assert!(
        to_listening < Duration::from_secs(2),
        "listening after {to_listening:?}:\n{alpha2_log}"
    );
    assert_eq!(replay_field(&alpha2_log, "resumed-out"), 1, "{alpha2_log}");
    assert_eq!(
        stats_field(&alpha2_log, "retry-timeouts"),
        1,
        "{alpha2_log}"
    );
    assert_eq!(stats_field(&alpha2_log, "jr-resumed"), 0, "{alpha2_log}");
    let journal_line = alpha2_log
        .lines()
        .find(|l| l.starts_with("taxd: journal records="))
        .unwrap_or_else(|| panic!("no exit journal line in:\n{alpha2_log}"));
    assert_eq!(field_of(journal_line, "open-hops"), 1, "{alpha2_log}");

    let _ = fs::remove_dir_all(&alpha_journal);
}

/// Crash the *receiver* right after its door-side inbound `hop-begin`
/// fsyncs — the agent is durably accepted but never ran, and the sender
/// never got the ack. Restarting replays the preserved frame and installs
/// the agent; the sender's retry is deduplicated at the door.
#[test]
fn receiver_crash_after_inbound_begin_replays_agent_once_and_dedups_retry() {
    let script = script_file("recv_begin", HELLO);
    let alpha_journal = journal_dir("recv_begin_alpha");
    let beta_journal = journal_dir("recv_begin_beta");
    let (alpha_port, beta_port) = free_ports();
    let alpha_addr = format!("127.0.0.1:{alpha_port}");
    let beta_addr = format!("127.0.0.1:{beta_port}");

    let beta1 = spawn_daemon(&daemon_args(
        "beta",
        &beta_addr,
        Some(("alpha", &alpha_addr)),
        &beta_journal,
        4000,
        vec!["--crash-after-record".into(), "hop-begin:1".into()],
    ));
    let alpha = spawn_daemon(&daemon_args(
        "alpha",
        &alpha_addr,
        Some(("beta", &beta_addr)),
        &alpha_journal,
        4000,
        vec![
            "--launch".into(),
            script.to_string_lossy().into_owned(),
            "--itinerary".into(),
            "beta,alpha".into(),
        ],
    ));

    // Beta aborts before acking; alpha's transport is now inside its
    // retry/backoff budget (~5s). Restart beta on the same journal while
    // the sender is still retrying.
    let beta1_log = beta1.crash_finish();
    let beta2 = spawn_daemon(&daemon_args(
        "beta",
        &beta_addr,
        Some(("alpha", &alpha_addr)),
        &beta_journal,
        3000,
        vec![],
    ));

    let alpha_log = alpha.finish();
    let beta2_log = beta2.finish();
    let _ = fs::remove_file(&script);

    // The restart re-installed the journaled arrival...
    assert_eq!(replay_field(&beta2_log, "resumed-in"), 1, "{beta2_log}");
    // ...and the sender's retry of the same hop was acked-but-suppressed.
    assert!(
        stats_field(&beta2_log, "hop-dedup") >= 1,
        "expected the sender retry to be deduplicated:\n{beta2_log}"
    );

    // Exactly-once, end to end: the full reference display multiset, with
    // the beta visit appearing exactly once across both beta incarnations.
    assert_eq!(displays(&beta1_log), Vec::<String>::new(), "{beta1_log}");
    assert_eq!(displays(&beta2_log), ["visiting beta"], "{beta2_log}");
    assert_eq!(
        displays(&alpha_log),
        ["visiting alpha", "visiting alpha", "done"],
        "{alpha_log}"
    );
    // The transfer was never given up on.
    assert_eq!(stats_field(&alpha_log, "retry-timeouts"), 0, "{alpha_log}");

    let _ = fs::remove_dir_all(&alpha_journal);
    let _ = fs::remove_dir_all(&beta_journal);
}

/// Crash the receiver after the agent already ran and its *next* hop
/// committed. The crashed host's restart must find nothing to resume —
/// the inbound hop is subsumed by its child's journaled begin — and the
/// rest of the itinerary is untouched.
#[test]
fn receiver_crash_after_commit_resumes_nothing() {
    let script = script_file("recv_commit", HELLO);
    let alpha_journal = journal_dir("recv_commit_alpha");
    let beta_journal = journal_dir("recv_commit_beta");
    let (alpha_port, beta_port) = free_ports();
    let alpha_addr = format!("127.0.0.1:{alpha_port}");
    let beta_addr = format!("127.0.0.1:{beta_port}");

    let beta1 = spawn_daemon(&daemon_args(
        "beta",
        &beta_addr,
        Some(("alpha", &alpha_addr)),
        &beta_journal,
        4000,
        // The first hop-committed at beta is the outbound return hop's
        // commit, written right after alpha acks it: the agent has
        // executed here and moved on.
        vec!["--crash-after-record".into(), "hop-committed:1".into()],
    ));
    let alpha = spawn_daemon(&daemon_args(
        "alpha",
        &alpha_addr,
        Some(("beta", &beta_addr)),
        &alpha_journal,
        4000,
        vec![
            "--launch".into(),
            script.to_string_lossy().into_owned(),
            "--itinerary".into(),
            "beta,alpha".into(),
        ],
    ));

    let beta1_log = beta1.crash_finish();
    let beta2 = spawn_daemon(&daemon_args(
        "beta",
        &beta_addr,
        Some(("alpha", &alpha_addr)),
        &beta_journal,
        2000,
        vec![],
    ));

    let alpha_log = alpha.finish();
    let beta2_log = beta2.finish();
    let _ = fs::remove_file(&script);

    // Nothing to resume: the inbound hop was subsumed by the journaled
    // begin of the hop it sent onward, and that hop committed.
    assert!(replay_field(&beta2_log, "records") >= 3, "{beta2_log}");
    assert_eq!(replay_field(&beta2_log, "resumed-in"), 0, "{beta2_log}");
    assert_eq!(replay_field(&beta2_log, "resumed-out"), 0, "{beta2_log}");
    assert_eq!(replay_field(&beta2_log, "reparked"), 0, "{beta2_log}");

    // The agent must not run at beta a second time; downstream the
    // itinerary completed exactly once. (Beta's own "visiting beta" print
    // was lost to the crash — execution is proven by alpha receiving the
    // return hop.)
    assert_eq!(displays(&beta2_log), Vec::<String>::new(), "{beta2_log}");
    assert_eq!(
        displays(&alpha_log),
        ["visiting alpha", "visiting alpha", "done"],
        "{alpha_log}\nbeta1:\n{beta1_log}"
    );

    let _ = fs::remove_dir_all(&alpha_journal);
    let _ = fs::remove_dir_all(&beta_journal);
}

/// A round-trip agent with a per-agent marker baked into the source, so
/// each agent's displays can be counted apart.
fn marked_hello(tag: &str) -> String {
    format!(
        r#"
    fn main() {{
        display("visiting {tag} " + host_name());
        let next = bc_remove("HOSTS", 0);
        if (next == nil) {{ display("home {tag}"); exit(0); }}
        go(next);
    }}
"#
    )
}

/// Kill the receiver mid-stream while several pipelined hops are in
/// various stages — durably accepted but unexecuted, executed but with
/// the return hop uncommitted, or still unacknowledged on the wire.
/// Three agents are launched back to back on the same itinerary; beta
/// aborts after its third `hop-begin` fsync, which lands while earlier
/// arrivals are still queued and the latest frame is unacked. After the
/// restart every hop must execute exactly once: the journal replays
/// accepted-but-open hops, the sender's retransmits are deduplicated at
/// the door, and all three agents come home exactly once.
#[test]
fn receiver_crash_mid_window_executes_every_hop_exactly_once() {
    let tags = ["one", "two", "three"];
    let scripts: Vec<PathBuf> = tags
        .iter()
        .map(|tag| script_file(&format!("midwin_{tag}"), &marked_hello(tag)))
        .collect();
    let alpha_journal = journal_dir("midwin_alpha");
    let beta_journal = journal_dir("midwin_beta");
    let (alpha_port, beta_port) = free_ports();
    let alpha_addr = format!("127.0.0.1:{alpha_port}");
    let beta_addr = format!("127.0.0.1:{beta_port}");

    let beta1 = spawn_daemon(&daemon_args(
        "beta",
        &beta_addr,
        Some(("alpha", &alpha_addr)),
        &beta_journal,
        6000,
        // The third hop-begin at beta lands mid-stream: depending on how
        // the door thread interleaves with the scheduler it is the third
        // arrival, or an arrival racing an outbound return hop. Either
        // way at least one accepted hop is still open and the newest
        // frame is never acked.
        vec!["--crash-after-record".into(), "hop-begin:3".into()],
    ));
    let mut alpha_extra = Vec::new();
    for script in &scripts {
        alpha_extra.push("--launch".into());
        alpha_extra.push(script.to_string_lossy().into_owned());
    }
    alpha_extra.push("--itinerary".into());
    alpha_extra.push("beta,alpha".into());
    let alpha = spawn_daemon(&daemon_args(
        "alpha",
        &alpha_addr,
        Some(("beta", &beta_addr)),
        &alpha_journal,
        6000,
        alpha_extra,
    ));

    // Beta aborts before acking the newest frame; alpha's transport is
    // retrying inside its budget. Restart beta on the same journal.
    let beta1_log = beta1.crash_finish();
    let beta2 = spawn_daemon(&daemon_args(
        "beta",
        &beta_addr,
        Some(("alpha", &alpha_addr)),
        &beta_journal,
        4000,
        vec![],
    ));

    let alpha_log = alpha.finish();
    let beta2_log = beta2.finish();
    for script in &scripts {
        let _ = fs::remove_file(script);
    }

    // Exactly-once, proven downstream: alpha never crashed, so its log is
    // complete. Every agent visited alpha twice (launch leg and return
    // leg) and came home exactly once — no lost hop, no doubled hop.
    let mut got = displays(&alpha_log);
    got.sort();
    let mut want: Vec<String> = tags
        .iter()
        .flat_map(|tag| {
            [
                format!("visiting {tag} alpha"),
                format!("visiting {tag} alpha"),
                format!("home {tag}"),
            ]
        })
        .collect();
    want.sort();
    assert_eq!(got, want, "{alpha_log}\nbeta1:\n{beta1_log}");
    // No transfer was ever given up on.
    assert_eq!(stats_field(&alpha_log, "retry-timeouts"), 0, "{alpha_log}");

    // The restart found journaled work to resume: at least one accepted
    // inbound hop or uncommitted return hop was open at the crash.
    let resumed = replay_field(&beta2_log, "resumed-in") + replay_field(&beta2_log, "resumed-out");
    assert!(resumed >= 1, "expected open hops at restart:\n{beta2_log}");

    // The agents each ran at beta at most once across both incarnations
    // (a print can be lost to the crash, never duplicated — execution is
    // proven by the completed round trips above).
    let beta2_displays = displays(&beta2_log);
    for tag in tags {
        let marker = format!("visiting {tag} beta");
        let count = displays(&beta1_log)
            .iter()
            .chain(beta2_displays.iter())
            .filter(|d| **d == marker)
            .count();
        assert!(
            count <= 1,
            "{marker} ran {count} times:\nbeta1:\n{beta1_log}\nbeta2:\n{beta2_log}"
        );
    }

    let _ = fs::remove_dir_all(&alpha_journal);
    let _ = fs::remove_dir_all(&beta_journal);
}

/// The hello agent, busy for a while at `beta` before it heads home, so
/// its return leg trails beta's acks by far more than an fsync.
const SLOW_AT_BETA: &str = r#"
    fn main() {
        display("visiting " + host_name());
        if (host_name() == "beta") {
            let i = 0;
            while (i < 2000000) { i = i + 1; }
        }
        let next = bc_remove("HOSTS", 0);
        if (next == nil) { display("done"); exit(0); }
        go(next);
    }
"#;

/// Kill the *sender* while agents are suspended with their transfers in
/// flight. Three byte-identical agents are launched — distinct launches,
/// so distinct root hops. They run in one turn, each suspends at its
/// `go`, one fsync covers the three hop begins, and the frames go out
/// together. Alpha aborts at the first `hop-committed`, written when it
/// settles the first ack (the agents stay busy at beta long enough that
/// no return leg can be first): the other two agents are still
/// suspended on frames beta may or may not have. The restart re-ships
/// both open hops from the journal, beta's door suppresses any it
/// already has, and every agent completes its itinerary exactly once.
#[test]
fn sender_crash_with_agents_suspended_in_flight_completes_each_once() {
    let script = script_file("inflight", SLOW_AT_BETA);
    let alpha_journal = journal_dir("inflight_alpha");
    let beta_journal = journal_dir("inflight_beta");
    let (alpha_port, beta_port) = free_ports();
    let alpha_addr = format!("127.0.0.1:{alpha_port}");
    let beta_addr = format!("127.0.0.1:{beta_port}");

    let beta = spawn_daemon(&daemon_args(
        "beta",
        &beta_addr,
        Some(("alpha", &alpha_addr)),
        &beta_journal,
        6000,
        vec![],
    ));
    let mut alpha_extra = Vec::new();
    for _ in 0..3 {
        alpha_extra.push("--launch".into());
        alpha_extra.push(script.to_string_lossy().into_owned());
    }
    alpha_extra.extend([
        "--itinerary".into(),
        "beta,alpha".into(),
        "--crash-after-record".into(),
        "hop-committed:1".into(),
    ]);
    let alpha1 = spawn_daemon(&daemon_args(
        "alpha",
        &alpha_addr,
        Some(("beta", &beta_addr)),
        &alpha_journal,
        4000,
        alpha_extra,
    ));
    let alpha1_log = alpha1.crash_finish();
    let alpha2 = spawn_daemon(&daemon_args(
        "alpha",
        &alpha_addr,
        Some(("beta", &beta_addr)),
        &alpha_journal,
        4000,
        vec![],
    ));

    let alpha2_log = alpha2.finish();
    let beta_log = beta.finish();
    let _ = fs::remove_file(&script);

    // Exactly the two suspended agents' hops were open at the crash.
    assert_eq!(replay_field(&alpha2_log, "resumed-out"), 2, "{alpha2_log}");
    assert_eq!(replay_field(&alpha2_log, "resumed-in"), 0, "{alpha2_log}");
    // Each agent ran at beta once — a re-shipped frame beta already had
    // was deduplicated at the door — and came home once.
    assert_eq!(
        displays(&beta_log),
        ["visiting beta", "visiting beta", "visiting beta"],
        "{beta_log}\nalpha1:\n{alpha1_log}"
    );
    assert!(stats_field(&beta_log, "hop-dedup") <= 2, "{beta_log}");
    let mut home = displays(&alpha2_log);
    home.sort();
    assert_eq!(
        home,
        [
            "done",
            "done",
            "done",
            "visiting alpha",
            "visiting alpha",
            "visiting alpha"
        ],
        "{alpha2_log}"
    );
    // The launch leg ran in the crashed incarnation, at most once each.
    assert!(displays(&alpha1_log).len() <= 3, "{alpha1_log}");

    let _ = fs::remove_dir_all(&alpha_journal);
    let _ = fs::remove_dir_all(&beta_journal);
}

/// Crash right after a `mail-parked` record fsyncs (a send to an absent
/// local agent parks). The restart re-parks the message with its deadline
/// recomputed against the fresh scheduler clock — no mail lost, no stale
/// deadline.
#[test]
fn parked_mail_survives_crash_and_is_reparked() {
    let script = script_file(
        "park",
        r#"
        fn main() {
            activate("probe");
            display("sent");
        }
    "#,
    );
    let gamma_journal = journal_dir("park_gamma");
    let (gamma_port, _) = free_ports();
    let gamma_addr = format!("127.0.0.1:{gamma_port}");

    let gamma1 = spawn_daemon(&daemon_args(
        "gamma",
        &gamma_addr,
        None,
        &gamma_journal,
        3000,
        vec![
            "--launch".into(),
            script.to_string_lossy().into_owned(),
            "--crash-after-record".into(),
            "mail-parked:1".into(),
        ],
    ));
    let gamma1_log = gamma1.crash_finish();

    let gamma2 = spawn_daemon(&daemon_args(
        "gamma",
        &gamma_addr,
        None,
        &gamma_journal,
        1500,
        vec![],
    ));
    let gamma2_log = gamma2.finish();
    let _ = fs::remove_file(&script);

    assert_eq!(replay_field(&gamma2_log, "reparked"), 1, "{gamma2_log}");
    assert_eq!(stats_field(&gamma2_log, "jr-reparked"), 1, "{gamma2_log}");
    // The parked message is still live in the journal's exit checkpoint.
    let journal_line = gamma2_log
        .lines()
        .find(|l| l.starts_with("taxd: journal records="))
        .unwrap_or_else(|| panic!("no exit journal line in:\n{gamma2_log}"));
    assert_eq!(field_of(journal_line, "parked"), 1, "{gamma2_log}");
    let _ = gamma1_log;

    let _ = fs::remove_dir_all(&gamma_journal);
}

/// A rebooted sender that relaunches the same script starts its instance
/// counter over, so it relaunches the first boot's `name:instance`. Its
/// root hop keys must still be fresh: the receiver keeps the journal that
/// committed the first boot's hops, and a repeated key would make its
/// door suppress the second agent as a duplicate.
#[test]
fn relaunch_after_sender_reboot_is_not_deduplicated() {
    let script = script_file("relaunch", HELLO);
    let alpha_journal = journal_dir("relaunch_alpha");
    let beta_journal = journal_dir("relaunch_beta");
    let (alpha_port, beta_port) = free_ports();
    let alpha_addr = format!("127.0.0.1:{alpha_port}");
    let beta_addr = format!("127.0.0.1:{beta_port}");
    let launch = || {
        vec![
            "--launch".into(),
            script.to_string_lossy().into_owned(),
            "--itinerary".into(),
            "beta,alpha".into(),
        ]
    };

    let beta = spawn_daemon(&daemon_args(
        "beta",
        &beta_addr,
        Some(("alpha", &alpha_addr)),
        &beta_journal,
        6000,
        vec![],
    ));
    let mut alpha_logs = Vec::new();
    for _boot in 0..2 {
        let alpha = spawn_daemon(&daemon_args(
            "alpha",
            &alpha_addr,
            Some(("beta", &beta_addr)),
            &alpha_journal,
            1500,
            launch(),
        ));
        alpha_logs.push(alpha.finish());
    }
    let beta_log = beta.finish();
    let _ = fs::remove_file(&script);

    for log in &alpha_logs {
        assert_eq!(
            displays(log),
            ["visiting alpha", "visiting alpha", "done"],
            "{log}"
        );
    }
    assert_eq!(
        displays(&beta_log),
        ["visiting beta", "visiting beta"],
        "{beta_log}"
    );
    assert_eq!(stats_field(&beta_log, "hop-dedup"), 0, "{beta_log}");

    let _ = fs::remove_dir_all(&alpha_journal);
    let _ = fs::remove_dir_all(&beta_journal);
}
