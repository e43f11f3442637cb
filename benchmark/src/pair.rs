//! The system under test: two real `taxd` OS processes, `alpha` and
//! `beta`, on loopback — spawned, sampled through `/proc`, queried over
//! their stats frame, and reaped.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tacoma::transport::{ConnectConfig, Connection};

use crate::stats::parse_stats;

/// `USER_HZ`: the unit of `/proc/<pid>/stat` CPU times. 100 on every
/// Linux ABI; reading it properly needs `sysconf`, which std lacks.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// How long the daemons wait with nothing to do before exiting cleanly.
const IDLE_EXIT_MS: u64 = 1000;

/// A scratch directory removed on drop — on success, error, and panic.
#[derive(Debug)]
pub struct RunDir(pub PathBuf);

impl RunDir {
    /// Creates `parent/<tag>-<pid>` afresh.
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory.
    pub fn create(parent: &Path, tag: &str) -> io::Result<RunDir> {
        let path = parent.join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(RunDir(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One running `taxd`.
#[derive(Debug)]
pub struct Daemon {
    pub host: &'static str,
    pub addr: String,
    child: Child,
    log: PathBuf,
}

/// CPU, memory, and scheduling counters of one process at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub user_s: f64,
    pub sys_s: f64,
    /// Peak resident set (`VmHWM`), MB.
    pub rss_peak_mb: f64,
    /// Voluntary context switches summed over the live threads.
    pub vol_ctx: u64,
    pub stdout_bytes: u64,
}

impl Daemon {
    /// Reads the daemon's `/proc` counters and its stdout size.
    pub fn sample(&self) -> ProcSample {
        let pid = self.child.id();
        let mut out = ProcSample::default();
        if let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th of the whole line.
            if let Some((_, rest)) = stat.rsplit_once(')') {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
                out.user_s = ticks(11).unwrap_or(0.0) / CLOCK_TICKS_PER_S;
                out.sys_s = ticks(12).unwrap_or(0.0) / CLOCK_TICKS_PER_S;
            }
        }
        if let Ok(status) = fs::read_to_string(format!("/proc/{pid}/status")) {
            out.rss_peak_mb = status_field(&status, "VmHWM:") as f64 / 1024.0;
        }
        if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
            for task in tasks.flatten() {
                if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                    out.vol_ctx += status_field(&status, "voluntary_ctxt_switches:");
                }
            }
        }
        out.stdout_bytes = fs::metadata(&self.log).map_or(0, |m| m.len());
        out
    }

    /// Opens a handshaken connection to this daemon speaking as `home`,
    /// retrying while the listener is still coming up.
    ///
    /// # Errors
    ///
    /// The last connect error once `deadline` passes, or early if the
    /// daemon has already died.
    pub fn connect(&mut self, deadline: Instant) -> Result<Connection, String> {
        let config = ConnectConfig {
            local_host: "home".to_owned(),
            ..ConnectConfig::default()
        };
        loop {
            match Connection::establish(&self.addr, 1, &config) {
                Ok(conn) => return Ok(conn),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!(
                            "{} exited early ({status}): {}",
                            self.host,
                            self.log_tail()
                        ));
                    }
                    if Instant::now() >= deadline {
                        return Err(format!("{} at {}: {e}", self.host, self.addr));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    fn log_tail(&self) -> String {
        let text = fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }

    /// Waits for the daemon to idle-exit. A non-zero status, or no exit
    /// before `deadline`, is an error (and the process is killed).
    fn finish(&mut self, deadline: Instant) -> Result<(), String> {
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!(
                        "{} exited with {status}: {}",
                        self.host,
                        self.log_tail()
                    ))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(None) => {
                    self.kill();
                    return Err(format!("{} did not idle-exit", self.host));
                }
                Err(e) => return Err(format!("{}: {e}", self.host)),
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .unwrap_or(0)
}

/// The `alpha`/`beta` daemon pair. Dropping it kills both processes, so
/// no exit path — error return or panic — leaves a daemon behind.
#[derive(Debug)]
pub struct Pair {
    pub alpha: Daemon,
    pub beta: Daemon,
}

impl Pair {
    /// Spawns both daemons with default shard/window/thread settings,
    /// each peered with the other and with the harness at `home_addr`.
    /// Journals (when `journal`) and stdout logs live under `dir`.
    ///
    /// # Errors
    ///
    /// I/O failure picking ports, creating files, or spawning `taxd`.
    pub fn spawn(taxd: &Path, dir: &Path, home_addr: &str, journal: bool) -> io::Result<Pair> {
        let (alpha_addr, beta_addr) = free_addrs()?;
        // Beta first: it is alpha's first forwarding target.
        let beta = spawn_daemon(
            taxd,
            dir,
            "beta",
            &beta_addr,
            ("alpha", &alpha_addr),
            home_addr,
            journal,
        )?;
        let alpha = spawn_daemon(
            taxd,
            dir,
            "alpha",
            &alpha_addr,
            ("beta", &beta_addr),
            home_addr,
            journal,
        );
        match alpha {
            Ok(alpha) => Ok(Pair { alpha, beta }),
            Err(e) => {
                let mut beta = beta;
                beta.kill();
                Err(e)
            }
        }
    }

    /// Both daemons' samples, alpha first.
    pub fn sample(&self) -> [ProcSample; 2] {
        [self.alpha.sample(), self.beta.sample()]
    }

    /// Lets both daemons idle-exit and checks their exit status.
    ///
    /// # Errors
    ///
    /// The first daemon that exited non-zero or had to be killed.
    pub fn finish(mut self) -> Result<(), String> {
        let deadline =
            Instant::now() + Duration::from_millis(IDLE_EXIT_MS) + Duration::from_secs(10);
        let alpha = self.alpha.finish(deadline);
        let beta = self.beta.finish(deadline);
        alpha.and(beta)
    }
}

impl Drop for Pair {
    fn drop(&mut self) {
        self.alpha.kill();
        self.beta.kill();
    }
}

/// Two loopback addresses whose ports were free a moment ago.
fn free_addrs() -> io::Result<(String, String)> {
    let a = TcpListener::bind("127.0.0.1:0")?;
    let b = TcpListener::bind("127.0.0.1:0")?;
    Ok((a.local_addr()?.to_string(), b.local_addr()?.to_string()))
}

fn spawn_daemon(
    taxd: &Path,
    dir: &Path,
    host: &'static str,
    addr: &str,
    peer: (&str, &str),
    home_addr: &str,
    journal: bool,
) -> io::Result<Daemon> {
    let log = dir.join(format!("{host}.out"));
    let stdout = fs::File::create(&log)?;
    let stderr = stdout.try_clone()?;
    let mut command = Command::new(taxd);
    command
        .args(["--host", host, "--listen", addr])
        .args(["--peer", &format!("{}={}", peer.0, peer.1)])
        .args(["--peer", &format!("home={home_addr}")])
        .args(["--idle-exit-ms", &IDLE_EXIT_MS.to_string()]);
    if journal {
        command
            .arg("--journal-dir")
            .arg(dir.join(format!("j-{host}")));
    }
    let child = command
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()?;
    Ok(Daemon {
        host,
        addr: addr.to_owned(),
        child,
        log,
    })
}

/// Asks a daemon for its stats reply and parses the counters.
///
/// # Errors
///
/// Transport failure on the stats exchange.
pub fn query(conn: &mut Connection) -> Result<BTreeMap<String, u64>, String> {
    conn.query_stats()
        .map(|text| parse_stats(&text))
        .map_err(|e| format!("stats query to {}: {e}", conn.peer_host()))
}

/// The filesystem type holding `path`, from `/proc/mounts` (longest
/// mount-point prefix wins). fsync on tmpfs is free, which would flatter
/// every journal number — so the result records what it ran on.
pub fn filesystem_of(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fstype)| fstype)
}
