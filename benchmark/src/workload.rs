//! The five workloads: what agent tours, how many at once, with what
//! cargo — and the oracle each returned briefcase is checked against.
//!
//! Everything here is derived from `--seed`; the daemons only ever see
//! the generated frames.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use tacoma::briefcase::{Briefcase, Bytes, Element};
use tacoma::core::{AgentSpec, Principal, SystemBuilder};
use tacoma::firewall::{Message, MessageKind};
use tacoma::taxscript::compile_source;
use tacoma::transport::{Transport, TransportError, TransportStats};

/// Folder carrying each tour's unique id. Hop keys are content-derived,
/// so byte-identical agents would be acked-and-dropped by door dedup.
pub const ID_FOLDER: &str = "BENCH:ID";

/// Daemon stops of one tour, in order; the fifth hop returns home.
pub const STOPS: [&str; 4] = ["alpha", "beta", "alpha", "beta"];

/// Hops per completed tour: home→alpha→beta→alpha→beta→home.
pub const HOPS_PER_TOUR: u64 = 5;

/// The per-stop work of the agent a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agent {
    /// Bytecode on `vm_bin`: append the host to `TRAIL`, pop `HOSTS`, go.
    Tour,
    /// [`Agent::Tour`] plus `activate("tacoma://home/monitor")` at every
    /// stop — the paper's `rwWebbot` monitoring wrapper.
    Report,
    /// Source on `vm_script`: scan `LINKS`, run a checksum loop, append a
    /// condensed line to `REPORT`.
    Mine,
}

impl Agent {
    /// The VM the agent's code form runs on at every stop.
    pub fn vm(self) -> &'static str {
        match self {
            Agent::Mine => "vm_script",
            Agent::Tour | Agent::Report => "vm_bin",
        }
    }
}

/// One benchmark workload. Names are stable across commits.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Tours in flight (closed loop: a return injects the next tour).
    pub clients: usize,
    /// Whether the daemons run with `--journal-dir`.
    pub journal: bool,
    pub agent: Agent,
    /// 1 KiB seeded elements carried in `RESULTS`.
    pub cargo_kib: usize,
    /// Seeded URLs carried in `LINKS`.
    pub links: usize,
    pub why: &'static str,
}

/// Checksum-loop iterations of the `tour_mine` agent, frozen at the value
/// that put `vm.execute_us` above 40 % of `core.hop_inproc_us` on the
/// seed commit (see README.md).
pub const MINE_ITERATIONS: u32 = 20_000;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "tour_solo",
        clients: 1,
        journal: true,
        agent: Agent::Tour,
        cargo_kib: 0,
        links: 0,
        why: "N=1 tour in flight, 0.5 KB bytecode agent, journal on: latency-bound, the per-hop critical path (ack RTT, reactor park, fsync per record, loop poll) with no queueing",
    },
    Workload {
        name: "tour_fleet",
        clients: 16,
        journal: true,
        agent: Agent::Tour,
        cargo_kib: 0,
        links: 0,
        why: "N=16 tours in flight, same agent, journal on: the headline, throughput-bound; where batch-drain, group commit and pipelined transfers can show",
    },
    Workload {
        name: "tour_cargo",
        clients: 4,
        journal: true,
        agent: Agent::Tour,
        cargo_kib: 32,
        links: 0,
        why: "N=4 tours carrying a 32 KiB RESULTS folder, journal on: bytes-bound; briefcase codec, journal bytes and vectored writes do the work, taxscript almost none",
    },
    Workload {
        name: "tour_mine",
        clients: 4,
        journal: false,
        agent: Agent::Mine,
        cargo_kib: 0,
        links: 512,
        why: "N=4 source-form agents on vm_script, 512 links scanned and a 20000-iteration checksum loop per stop, journal off: compute-bound; journal work must read zero",
    },
    Workload {
        name: "tour_report",
        clients: 8,
        journal: true,
        agent: Agent::Report,
        cargo_kib: 0,
        links: 0,
        why: "N=8 tours that activate a report to home at every stop, journal on: nowait pipelined mail beside blocking transfers; all 4 reports must arrive exactly once",
    },
];

/// Looks a workload up by its stable name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const TOUR_SOURCE: &str = r#"
fn main() {
    bc_append("TRAIL", host_name());
    let next = bc_remove("HOSTS", 0);
    if (next == nil) { exit(0); }
    go(next);
}
"#;

const REPORT_SOURCE: &str = r#"
fn main() {
    bc_append("TRAIL", host_name());
    activate("tacoma://home/monitor");
    let next = bc_remove("HOSTS", 0);
    if (next == nil) { exit(0); }
    go(next);
}
"#;

fn mine_source() -> String {
    format!(
        r#"
fn main() {{
    let n = bc_len("LINKS");
    let i = 0;
    let secure = 0;
    let dead = 0;
    while (i < n) {{
        let url = bc_get("LINKS", i);
        if (starts_with(url, "https://")) {{ secure = secure + 1; }}
        if (contains(url, "/dead/")) {{ dead = dead + 1; }}
        i = i + 1;
    }}
    let sum = 0;
    let k = 0;
    while (k < {MINE_ITERATIONS}) {{
        sum = (sum * 31 + k) % 1000003;
        k = k + 1;
    }}
    bc_append("REPORT", host_name() + " links=" + str(n) + " secure=" + str(secure)
        + " dead=" + str(dead) + " sum=" + str(sum));
    bc_append("TRAIL", host_name());
    let next = bc_remove("HOSTS", 0);
    if (next == nil) {{ exit(0); }}
    go(next);
}}
"#
    )
}

/// SplitMix64: the seed stream every id, cargo byte, and link comes from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One workload's generated inputs: the tour template, the expected
/// briefcase on return, and the id stream.
#[derive(Debug)]
pub struct Inputs {
    template: Message,
    /// The briefcase as it must arrive at home (ids aside), computed on
    /// the in-process simnet.
    oracle: Briefcase,
    ids: Rng,
    /// Mean briefcase payload bytes per hop, for `goodput_mb_s`.
    pub payload_bytes_per_hop: f64,
}

/// What the in-process run of one tour sent home.
#[derive(Debug, Default)]
struct Oracle {
    returned: Option<Briefcase>,
    /// Briefcase payload bytes of each hop, the injected one first.
    hop_bytes: Vec<usize>,
    reports: usize,
}

/// A transport that hands every outbound message back to the oracle
/// loop, which re-injects it or, for home, keeps it.
#[derive(Debug, Default)]
struct Relay {
    sent: Mutex<VecDeque<(String, Vec<u8>)>>,
}

impl Relay {
    fn pop(&self) -> Option<(String, Vec<u8>)> {
        self.sent.lock().expect("relay lock poisoned").pop_front()
    }
}

impl Transport for Relay {
    fn send(
        &self,
        _from: &str,
        to_host: &str,
        _to_port: u16,
        payload: &[u8],
    ) -> Result<(), TransportError> {
        self.sent
            .lock()
            .expect("relay lock poisoned")
            .push_back((to_host.to_owned(), payload.to_vec()));
        Ok(())
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    fn kind(&self) -> &'static str {
        "relay"
    }
}

/// A tour ready to inject.
#[derive(Debug)]
pub struct Tour {
    pub id: String,
    /// The encoded `AgentTransfer` message for alpha.
    pub wire: Bytes,
}

impl Inputs {
    /// Generates the workload's agent, cargo, and oracle from `seed`.
    ///
    /// # Errors
    ///
    /// A description of whichever stage failed (compile, spec, oracle).
    pub fn generate(workload: &Workload, seed: u64) -> Result<Inputs, String> {
        let mut rng = Rng::new(seed ^ fnv(workload.name));
        let vm = workload.agent.vm();
        let mut spec = match workload.agent {
            Agent::Tour => AgentSpec::bytecode("tour", compile(TOUR_SOURCE)?),
            Agent::Report => AgentSpec::bytecode("tour", compile(REPORT_SOURCE)?),
            Agent::Mine => AgentSpec::script("miner", mine_source()),
        };
        spec = spec.folder(ID_FOLDER, ["oracle"]);
        if workload.cargo_kib > 0 {
            let cargo: Vec<Element> = (0..workload.cargo_kib)
                .map(|_| Element::from_bytes(seeded_bytes(&mut rng, 1024)))
                .collect();
            spec = spec.folder("RESULTS", cargo);
        }
        if workload.links > 0 {
            let links: Vec<String> = (0..workload.links).map(|_| seeded_url(&mut rng)).collect();
            spec = spec.folder("LINKS", links);
        }
        let itinerary: Vec<String> = STOPS[1..]
            .iter()
            .chain(std::iter::once(&"home"))
            .map(|host| format!("tacoma://{host}/{vm}"))
            .collect();
        spec = spec.itinerary(itinerary);

        let principal = Principal::new("bench@home").map_err(|e| e.to_string())?;
        let wire = spec
            .wire_transfer("home", &principal, &format!("tacoma://alpha/{vm}"))
            .map_err(|e| e.to_string())?;
        let template = Message::decode(&wire).map_err(|e| e.to_string())?;

        let mut inputs = Inputs {
            template,
            oracle: Briefcase::new(),
            ids: rng,
            payload_bytes_per_hop: 0.0,
        };
        let oracle = inputs.run_oracle()?;
        inputs.oracle = oracle.returned.ok_or("oracle: nothing returned")?;
        let trail: Vec<&str> = inputs
            .oracle
            .folder("TRAIL")
            .map(|f| f.iter().filter_map(|e| e.as_str().ok()).collect())
            .unwrap_or_default();
        if trail != STOPS {
            return Err(format!("oracle TRAIL is {trail:?}, expected {STOPS:?}"));
        }
        let expected_reports = if workload.agent == Agent::Report {
            STOPS.len()
        } else {
            0
        };
        if oracle.hop_bytes.len() as u64 != HOPS_PER_TOUR || oracle.reports != expected_reports {
            return Err(format!(
                "oracle saw {} hops and {} reports, expected {HOPS_PER_TOUR} and {expected_reports}",
                oracle.hop_bytes.len(),
                oracle.reports
            ));
        }
        inputs.payload_bytes_per_hop =
            oracle.hop_bytes.iter().sum::<usize>() as f64 / oracle.hop_bytes.len() as f64;
        Ok(inputs)
    }

    /// The next tour: the template under a fresh seeded id, keyed so
    /// alpha's door journal sees a hop like any daemon-emitted one.
    pub fn next_tour(&mut self) -> Tour {
        let id = format!("{:016x}", self.ids.next_u64());
        Tour {
            wire: Bytes::from(self.frame(&id)),
            id,
        }
    }

    fn frame(&self, id: &str) -> Vec<u8> {
        let mut message = self.template.clone();
        message.briefcase.set_single(ID_FOLDER, id);
        message.with_hop(id, None).encode()
    }

    /// Runs the tour in-process — the same kernel, hosts alpha and beta
    /// in one `TaxSystem`, home played by a capturing transport as the
    /// harness plays it for the real pair — and returns what home must
    /// receive: the briefcase, every hop's payload size, the reports.
    fn run_oracle(&self) -> Result<Oracle, String> {
        let relay = Arc::new(Relay::default());
        let mut system = SystemBuilder::new()
            .host("alpha")
            .and_then(|b| b.host("beta"))
            .map_err(|e| e.to_string())?
            .transport(Arc::clone(&relay) as Arc<dyn Transport>)
            .build();
        let mut oracle = Oracle {
            hop_bytes: vec![self.template.briefcase.encoded_len()],
            ..Oracle::default()
        };
        system
            .inject_wire("alpha", &self.frame("oracle"))
            .map_err(|e| e.to_string())?;
        loop {
            system.run_until_quiet();
            let Some((host, payload)) = relay.pop() else {
                break;
            };
            let message = Message::decode(&payload).map_err(|e| e.to_string())?;
            let transfer = matches!(message.kind, MessageKind::AgentTransfer { .. });
            if transfer {
                oracle.hop_bytes.push(message.briefcase.encoded_len());
            }
            match (host.as_str(), transfer) {
                ("home", true) => oracle.returned = Some(message.briefcase),
                ("home", false) => oracle.reports += 1,
                _ => system
                    .inject_wire(&host, &payload)
                    .map_err(|e| e.to_string())?,
            }
        }
        if oracle.returned.is_none() {
            let events: Vec<String> = system
                .events()
                .iter()
                .map(|(host, event)| format!("{host}: {event}"))
                .collect();
            return Err(format!(
                "oracle: agent never reached home; events: {events:?}"
            ));
        }
        Ok(oracle)
    }

    /// Whether `returned` is exactly the oracle's briefcase under `id`.
    pub fn intact(&self, id: &str, returned: &Briefcase) -> bool {
        let mut expected = self.oracle.clone();
        expected.set_single(ID_FOLDER, id);
        expected == *returned
    }
}

fn compile(source: &str) -> Result<tacoma::taxscript::Program, String> {
    compile_source(source).map_err(|e| e.to_string())
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn seeded_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A §5-shaped link: mostly http, some https, some under `/dead/`.
fn seeded_url(rng: &mut Rng) -> String {
    let r = rng.next_u64();
    let scheme = if r % 3 == 0 { "https" } else { "http" };
    let dir = if (r >> 8) % 5 == 0 { "dead" } else { "docs" };
    format!(
        "{scheme}://www{}.cs.uit.no/{dir}/page{:05}.html",
        (r >> 16) % 8,
        (r >> 24) % 100_000
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_ids_are_unique() {
        let w = by_name("tour_cargo").unwrap();
        let mut a = Inputs::generate(w, 7).unwrap();
        let mut b = Inputs::generate(w, 7).unwrap();
        let mut c = Inputs::generate(w, 8).unwrap();
        let (ta, tb, tc) = (a.next_tour(), b.next_tour(), c.next_tour());
        assert_eq!(ta.wire, tb.wire);
        assert_ne!(ta.wire, tc.wire);
        assert_ne!(ta.id, a.next_tour().id);
        assert!(ta.wire.len() > 32 * 1024);
    }

    #[test]
    fn oracle_matches_every_workload() {
        for w in &WORKLOADS {
            let inputs = Inputs::generate(w, 1).unwrap();
            let mut good = inputs.oracle.clone();
            good.set_single(ID_FOLDER, "x");
            assert!(inputs.intact("x", &good), "{}", w.name);
            good.append("TRAIL", "alpha");
            assert!(!inputs.intact("x", &good), "{}", w.name);
            if w.agent == Agent::Mine {
                assert_eq!(inputs.oracle.folder("REPORT").unwrap().len(), 4);
            }
        }
    }
}
