//! Loopback integration: two real `taxd` OS processes on localhost, an
//! agent hopping between them over TCP, checked against the same script
//! run on the in-process simulated network.

use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use tacoma::core::{AgentSpec, SystemBuilder};

/// The TRAIL-accumulating hello agent (Experiment E6's shape): announce
/// the host, pop the next stop, move or finish.
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

/// Two ports that were free a moment ago.
fn free_ports() -> (u16, u16) {
    let a = TcpListener::bind("127.0.0.1:0").unwrap();
    let b = TcpListener::bind("127.0.0.1:0").unwrap();
    (
        a.local_addr().unwrap().port(),
        b.local_addr().unwrap().port(),
    )
}

fn script_file(tag: &str, source: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("taxd_loopback_{tag}_{}.tax", std::process::id()));
    fs::write(&path, source).unwrap();
    path
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
    let mut first_line = String::new();
    reader.read_line(&mut first_line).unwrap();
    assert!(
        first_line.contains("listening on"),
        "unexpected first line: {first_line:?}"
    );
    Daemon {
        child,
        reader,
        first_line,
    }
}

impl Daemon {
    /// Waits for idle-exit and returns the full stdout.
    fn finish(mut self) -> String {
        let status = self.child.wait().expect("taxd wait");
        assert!(status.success(), "taxd exited with {status}");
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
    let needle = format!("{key}=");
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&needle))
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        .parse()
        .unwrap()
}

/// The tentpole acceptance: the E6 hello itinerary crosses two `taxd`
/// processes over real TCP and produces the same agent output as the
/// in-process simulated network.
#[test]
fn e6_hello_itinerary_across_two_processes_matches_simnet() {
    let script = script_file("e6", HELLO);
    let (alpha_port, beta_port) = free_ports();
    let alpha_addr = format!("127.0.0.1:{alpha_port}");
    let beta_addr = format!("127.0.0.1:{beta_port}");

    let beta = spawn_daemon(&[
        "--host".into(),
        "beta".into(),
        "--listen".into(),
        beta_addr.clone(),
        "--peer".into(),
        format!("alpha={alpha_addr}"),
        "--idle-exit-ms".into(),
        "2000".into(),
    ]);
    let alpha = spawn_daemon(&[
        "--host".into(),
        "alpha".into(),
        "--listen".into(),
        alpha_addr,
        "--peer".into(),
        format!("beta={beta_addr}"),
        "--launch".into(),
        script.to_string_lossy().into_owned(),
        "--itinerary".into(),
        "beta,alpha".into(),
        "--idle-exit-ms".into(),
        "2000".into(),
    ]);

    let alpha_log = alpha.finish();
    let beta_log = beta.finish();
    let _ = fs::remove_file(&script);

    // Reference: the identical script and itinerary on the simnet bus.
    let mut reference = SystemBuilder::new()
        .host("alpha")
        .unwrap()
        .host("beta")
        .unwrap()
        .build();
    reference
        .launch(
            "alpha",
            AgentSpec::script("taxd", HELLO).itinerary([
                "tacoma://beta/vm_script".to_owned(),
                "tacoma://alpha/vm_script".to_owned(),
            ]),
        )
        .unwrap();
    reference.run_until_quiet();
    let expected = reference.agent_outputs();
    assert_eq!(
        expected,
        ["visiting alpha", "visiting beta", "visiting alpha", "done"],
        "reference run surprised us"
    );

    // The TCP run's combined displays are the same multiset; per-process
    // ordering is preserved.
    assert_eq!(
        displays(&alpha_log),
        ["visiting alpha", "visiting alpha", "done"],
        "alpha log:\n{alpha_log}"
    );
    assert_eq!(
        displays(&beta_log),
        ["visiting beta"],
        "beta log:\n{beta_log}"
    );
    let mut combined = displays(&alpha_log);
    combined.extend(displays(&beta_log));
    combined.sort();
    let mut expected_sorted = expected;
    expected_sorted.sort();
    assert_eq!(combined, expected_sorted);

    // Wire accounting: each side shipped and received at least one frame.
    for log in [&alpha_log, &beta_log] {
        assert!(stats_field(log, "tx-frames") >= 1, "{log}");
        assert!(stats_field(log, "rx-frames") >= 1, "{log}");
        assert_eq!(stats_field(log, "retry-timeouts"), 0, "{log}");
    }
}

/// Starting the destination daemon *after* the agent departs exercises
/// the retry/backoff loop: the transfer survives on a later attempt and
/// the reconnect counter shows the recovery.
#[test]
fn late_starting_peer_is_reached_via_backoff() {
    let script = script_file(
        "late",
        r#"
        fn main() {
            let next = bc_remove("HOSTS", 0);
            if (next == nil) { display("landed on " + host_name()); exit(0); }
            go(next);
        }
    "#,
    );
    let (alpha_port, beta_port) = free_ports();
    let beta_addr = format!("127.0.0.1:{beta_port}");

    let alpha = spawn_daemon(&[
        "--host".into(),
        "alpha".into(),
        "--listen".into(),
        format!("127.0.0.1:{alpha_port}"),
        "--peer".into(),
        format!("beta={beta_addr}"),
        "--launch".into(),
        script.to_string_lossy().into_owned(),
        "--itinerary".into(),
        "beta".into(),
        "--idle-exit-ms".into(),
        "2500".into(),
    ]);

    // Let alpha burn a few backoff attempts against the closed port.
    thread::sleep(Duration::from_millis(700));
    let beta = spawn_daemon(&[
        "--host".into(),
        "beta".into(),
        "--listen".into(),
        beta_addr,
        "--idle-exit-ms".into(),
        "2500".into(),
    ]);

    let alpha_log = alpha.finish();
    let beta_log = beta.finish();
    let _ = fs::remove_file(&script);

    assert_eq!(
        displays(&beta_log),
        ["landed on beta"],
        "beta log:\n{beta_log}\nalpha log:\n{alpha_log}"
    );
    assert_eq!(stats_field(&alpha_log, "tx-frames"), 1, "{alpha_log}");
    assert!(
        stats_field(&alpha_log, "reconnects") >= 1,
        "expected retries against the closed port:\n{alpha_log}"
    );
    assert!(
        !alpha_log.contains("unreachable"),
        "the transfer must not be given up on:\n{alpha_log}"
    );
}

/// Mail for a peer that never comes up: the activation is parked after
/// one retry budget (8 s, the reactor's default), and from then on the
/// redelivery sweep hands it back to the reactor every 250 ms. Neither a
/// redelivery lost again nor one still riding the reactor counts as
/// activity, so the daemon still idle-exits one `--idle-exit-ms` after
/// the park. The idle limit is longer than one retry budget, so a lost
/// redelivery happens before the exit.
#[test]
fn mail_for_a_dead_peer_does_not_keep_the_daemon_up() {
    const IDLE_MS: u64 = 10_000;
    const RETRY_BUDGET: Duration = Duration::from_secs(8);
    let script = script_file(
        "dead_peer",
        r#"
        fn main() {
            activate("tacoma://beta/worker");
            exit(0);
        }
    "#,
    );
    let (alpha_port, dead_port) = free_ports();
    let started = Instant::now();
    let mut alpha = spawn_daemon(&[
        "--host".into(),
        "alpha".into(),
        "--listen".into(),
        format!("127.0.0.1:{alpha_port}"),
        "--peer".into(),
        format!("beta=127.0.0.1:{dead_port}"),
        "--launch".into(),
        script.to_string_lossy().into_owned(),
        "--idle-exit-ms".into(),
        IDLE_MS.to_string(),
    ]);

    let limit = Duration::from_millis(IDLE_MS) + RETRY_BUDGET + Duration::from_secs(4);
    while alpha.child.try_wait().unwrap().is_none() {
        if started.elapsed() > limit + Duration::from_secs(20) {
            let _ = alpha.child.kill();
            panic!("taxd never idle-exited with mail parked for a dead peer");
        }
        thread::sleep(Duration::from_millis(50));
    }
    let elapsed = started.elapsed();
    let log = alpha.finish();
    let _ = fs::remove_file(&script);

    assert!(
        elapsed < limit,
        "idle exit took {elapsed:?}, past {limit:?}:\n{log}"
    );
    assert_eq!(stats_field(&log, "queued"), 1, "{log}");
    assert_eq!(stats_field(&log, "tx-frames"), 0, "{log}");
    assert!(
        stats_field(&log, "retry-timeouts") >= 2,
        "a redelivery was lost before the exit:\n{log}"
    );
}
