//! The paper's claims as tests: one test per EXPERIMENTS.md section
//! (E1–E8), each at paper scale, each pinning every number its section
//! prints at the precision it prints it. The simulator runs in virtual
//! time, so the paper-scale runs are deterministic and cheap. Wall-clock
//! columns (E3's µs/event, E5's latencies) are printed, never asserted.
//!
//! Print one experiment's table:
//! `cargo test --test paper_reproduction e1_ -- --nocapture`.

use std::time::{Duration, Instant};

use tacoma::briefcase::folders;
use tacoma::core::{AgentSpec, Briefcase, EventKind, LinkSpec, Principal, SystemBuilder};
use tacoma::firewall::FirewallStats;
use tacoma::uri::{AgentAddress, AgentUri, Instance, MatchOutcome};
use tacoma::web::SiteSpec;
use tacoma::webbot::experiment::{
    build_system, run_mobile, run_stationary, speedup, CaseStudyParams, CLIENT, SERVER,
};
use tacoma::webbot::mobile::{mw_webbot_bundle, mw_webbot_spec, webbot_bundle, REPORT_DRAWER};
use tacoma::webbot::{WebbotConfig, WebbotReport};
use tacoma_bench::mining::{run_client_pull, run_mobile_agent, MiningParams};
use tacoma_bench::{header, row};

/// Bytes as the tables print them: kilobytes to one decimal.
fn kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1e3)
}

/// A fraction as the tables print it: percent to one decimal.
fn pct(fraction: f64) -> String {
    format!("{:.1}", 100.0 * fraction)
}

/// Virtual seconds to the millisecond, as the tables print them.
fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// E1 — §5's result: the same robot scans 917 pages / 3 MB 16 % faster at
/// the server than across the 100 Mbit LAN, finds the same dead links
/// either way, and moves 5× fewer bytes over the link.
#[test]
fn e1_local_scan_is_16_percent_faster() {
    let params = CaseStudyParams::paper();
    assert_eq!(
        (params.pages, params.total_bytes, params.max_depth),
        (917, 3_000_000, 4)
    );
    // The calibration, chosen once and shared by E2 and E8.
    assert_eq!(params.server_work_ns, 1_500_000);
    let robot = WebbotConfig::scan_site(SERVER);
    assert_eq!((robot.page_work_ns, robot.byte_work_ns), (500_000, 300));
    assert_eq!(
        params.link,
        LinkSpec::new(Duration::from_micros(150), 100_000_000)
    );
    // What the mobile run ships besides the briefcase: the two-architecture
    // Webbot plus the mwWebbot wrapper.
    let binaries = webbot_bundle().encode().len() + mw_webbot_bundle().encode().len();
    assert_eq!(format!("{:.0}", binaries as f64 / 1e3), "560");

    let stationary = run_stationary(&params);
    let mobile = run_mobile(&params);

    let widths = [24, 7, 11, 11, 11];
    header(
        &["configuration", "pages", "scan s", "journey s", "LAN KB"],
        &widths,
    );
    for (name, out) in [
        ("stationary (remote)", &stationary),
        ("mobile (local)", &mobile),
    ] {
        row(
            &[
                name.to_owned(),
                out.report.pages_scanned.to_string(),
                secs(out.scan_time),
                secs(out.total_time),
                kb(out.link_bytes),
            ],
            &widths,
        );
    }
    let scan_speedup = pct(speedup(stationary.scan_time, mobile.scan_time));
    let saved = format!(
        "{:.1}",
        stationary.link_bytes as f64 / mobile.link_bytes as f64
    );
    let report = &mobile.report;
    println!("local scan faster by {scan_speedup} %   (paper: 16 %)");
    println!("bytes on the LAN: {saved}x fewer");
    println!(
        "findings: {} dead links among {} checked, {} redirects followed, {} bytes",
        report.invalid.len(),
        report.links_checked,
        report.redirects,
        report.bytes_fetched
    );

    // The robot is the same binary either way, so the findings are too.
    assert_eq!(stationary.report, mobile.report);
    assert_eq!(report.pages_scanned, 917);
    assert_eq!(report.bytes_fetched, 3_000_000);
    assert_eq!(scan_speedup, "16.4");
    assert_eq!(
        [stationary.scan_time, mobile.scan_time].map(secs),
        ["3.359", "2.809"]
    );
    assert_eq!(
        [stationary.total_time, mobile.total_time].map(secs),
        ["3.359", "2.864"]
    );
    assert_eq!(
        [stationary.link_bytes, mobile.link_bytes].map(kb),
        ["3461.2", "685.9"]
    );
    assert_eq!(saved, "5.0");
    assert_eq!(
        (report.invalid.len(), report.links_checked, report.redirects),
        (38, 958, 3)
    );
}

/// A 150-page / 900 KB site under another seed: E1's qualitative claims
/// must not depend on the paper site's calibration.
fn reduced() -> CaseStudyParams {
    CaseStudyParams {
        pages: 150,
        total_bytes: 900_000,
        seed: 42,
        ..CaseStudyParams::paper()
    }
}

/// §5: the same robot finds the same dead links whether it runs at the
/// client or at the server — mobility added without modifying it.
#[test]
fn webbot_findings_are_location_independent() {
    let stationary = run_stationary(&reduced());
    let mobile = run_mobile(&reduced());
    assert_eq!(stationary.report.pages_scanned, mobile.report.pages_scanned);
    assert_eq!(stationary.report.bytes_fetched, mobile.report.bytes_fetched);
    assert_eq!(stationary.report.invalid, mobile.report.invalid);
    assert_eq!(
        stationary.report.rejected.len(),
        mobile.report.rejected.len()
    );
    assert!(stationary.report.pages_scanned >= 150);
}

/// §5: on the 100 Mbit LAN the local scan wins by a modest margin (the
/// paper's 16 %; a band, since the site is reduced).
#[test]
fn local_scan_beats_remote_by_a_modest_margin() {
    let stationary = run_stationary(&reduced());
    let mobile = run_mobile(&reduced());
    let s = speedup(stationary.scan_time, mobile.scan_time);
    assert!(
        (0.05..0.40).contains(&s),
        "speedup {s:.3} outside the plausible LAN band; stationary {:?} mobile {:?}",
        stationary.scan_time,
        mobile.scan_time
    );
}

/// §5: the mobile design preserves bandwidth — only agent + report cross
/// the link, not the site.
#[test]
fn mobile_design_preserves_bandwidth() {
    let stationary = run_stationary(&reduced());
    let mobile = run_mobile(&reduced());
    // At this reduced scale the agent's ~0.6 MB of binaries still crosses
    // the link, so the margin is modest; at paper scale it is 5x (E1).
    assert!(mobile.link_bytes < stationary.link_bytes);
}

/// E2 — §5's conjecture: on slower links and larger sites the mobile
/// advantage grows. It grows with link slowness at every volume; it grows
/// with volume only on the LAN rows — on the WAN the stationary scan is
/// latency-bound and the mobile advantage shrinks slightly as volume grows.
#[test]
fn e2_wan_and_volume_sweep() {
    let links = [
        ("100 Mbit LAN 0.15 ms", LinkSpec::lan_100mbit()),
        ("10 Mbit LAN 0.8 ms", LinkSpec::lan_10mbit()),
        (
            "2 Mbit WAN 25 ms",
            LinkSpec::wan(2_000_000, Duration::from_millis(25)),
        ),
        (
            "512 kbit WAN 75 ms",
            LinkSpec::wan(512_000, Duration::from_millis(75)),
        ),
    ];
    let volumes = [3_000_000, 12_000_000, 30_000_000];
    let expected_speedup = [
        ["16.4", "18.6", "19.7"],
        ["60.4", "67.5", "70.3"],
        ["95.6", "94.7", "93.9"],
        ["98.6", "98.4", "98.3"],
    ];
    let expected_stationary_s = [
        ["3.359", "6.779", "13.619"],
        ["7.097", "16.997", "36.797"],
        ["64.540", "103.242", "180.643"],
        ["200.576", "343.911", "630.565"],
    ];
    // The mobile robot scans over loopback, so the link does not matter.
    let expected_mobile_s = ["2.809", "5.518", "10.936"];

    let widths = [20, 8, 14, 10, 9];
    header(
        &["link", "MB", "stationary s", "mobile s", "speedup"],
        &widths,
    );
    let mut surface = [[0.0f64; 3]; 4];
    let mut stationary_s: [[String; 3]; 4] = Default::default();
    let mut mobile_s = stationary_s.clone();
    for (li, (name, link)) in links.iter().enumerate() {
        for (vi, volume) in volumes.iter().enumerate() {
            let params = CaseStudyParams::paper()
                .with_link(*link)
                .with_volume(*volume);
            let stationary = run_stationary(&params);
            let mobile = run_mobile(&params);
            surface[li][vi] = speedup(stationary.scan_time, mobile.scan_time);
            stationary_s[li][vi] = secs(stationary.scan_time);
            mobile_s[li][vi] = secs(mobile.scan_time);
            row(
                &[
                    (*name).to_owned(),
                    (volume / 1_000_000).to_string(),
                    stationary_s[li][vi].clone(),
                    mobile_s[li][vi].clone(),
                    format!("{} %", pct(surface[li][vi])),
                ],
                &widths,
            );
        }
    }

    assert_eq!(surface.map(|r| r.map(pct)), expected_speedup);
    assert_eq!(stationary_s, expected_stationary_s);
    assert_eq!(mobile_s, [expected_mobile_s; 4]);
    for vi in 0..volumes.len() {
        for li in 1..links.len() {
            assert!(
                surface[li][vi] > surface[li - 1][vi],
                "a slower link must widen the gap: {surface:?}"
            );
        }
    }
    for lan in &surface[..2] {
        assert!(
            lan[0] < lan[1] && lan[1] < lan[2],
            "on a LAN a larger site must widen the gap: {lan:?}"
        );
    }
}

/// E3 — Figure 1: the firewall mediates every exchange. 200 local and 200
/// remote RPCs from one agent each show up once in the firewall counters,
/// and each reaches the log service exactly once, so none bypassed it.
#[test]
fn e3_firewall_mediates_every_exchange() {
    const MESSAGES: usize = 200;
    let mut system = SystemBuilder::new()
        .host("alpha")
        .unwrap()
        .host("beta")
        .unwrap()
        .trust_all()
        .build();
    let source = format!(
        r#"
        fn main() {{
            let i = 0;
            while (i < {MESSAGES}) {{
                bc_set("CMD", "append");
                bc_set("ARGS", "local ping " + str(i));
                meet("ag_log");
                bc_set("ARGS", "remote ping " + str(i));
                meet("tacoma://beta/ag_log");
                i = i + 1;
            }}
            exit(0);
        }}
        "#
    );
    let started = Instant::now();
    system
        .launch("alpha", AgentSpec::script("pinger", source))
        .unwrap();
    system.run_until_quiet();
    let elapsed = started.elapsed();

    let stats = ["alpha", "beta"].map(|h| system.host(h).unwrap().with_firewall(|fw| fw.stats()));
    let widths = [8, 13, 11, 7, 7, 10];
    header(
        &[
            "firewall",
            "local deliv.",
            "fwd remote",
            "queued",
            "denied",
            "installed",
        ],
        &widths,
    );
    for (name, s) in ["alpha", "beta"].iter().zip(&stats) {
        row(
            &[
                (*name).to_owned(),
                s.delivered_local.to_string(),
                s.forwarded_remote.to_string(),
                s.queued.to_string(),
                s.denied.to_string(),
                s.agents_installed.to_string(),
            ],
            &widths,
        );
    }
    let mediated: u64 = stats.iter().map(FirewallStats::total).sum();
    println!(
        "mediation cost: {:.1} µs/event wall clock (not asserted)",
        elapsed.as_secs_f64() * 1e6 / mediated as f64
    );

    let [alpha, beta] = stats;
    let counters = |s: &FirewallStats| (s.delivered_local, s.forwarded_remote, s.queued, s.denied);
    assert_eq!(counters(&alpha), (200, 200, 0, 0));
    assert_eq!(counters(&beta), (200, 0, 0, 0));

    for (host, prefix) in [("alpha", "local ping "), ("beta", "remote ping ")] {
        let mut read = Briefcase::new();
        read.set_single(folders::COMMAND, "read");
        let log = system
            .call_service(host, "ag_log", &Principal::local_system(host), read)
            .unwrap();
        let lines = log.folder("LINES").map_or(0, |f| {
            f.iter()
                .filter(|l| l.as_str().is_ok_and(|l| l.contains(prefix)))
                .count()
        });
        assert_eq!(lines, MESSAGES, "{host}'s log saw every {prefix:?} once");
    }
}

/// E4 — Figure 2: the agent-URI grammar. The figure's three examples parse
/// to their documented parts, the 15-entry corpus covers every production
/// and malformed form, and §3.2's matching rules hold.
#[test]
fn e4_agent_uri_grammar() {
    fn parts(uri: &AgentUri) -> String {
        let opt = |s: Option<&str>| s.unwrap_or("-").to_owned();
        format!(
            "host={} port={} principal={} name={} inst={}",
            opt(uri.host()),
            uri.port().map_or_else(|| "-".to_owned(), |p| p.to_string()),
            opt(uri.principal()),
            opt(uri.name()),
            uri.instance()
                .map_or_else(|| "-".to_owned(), ToString::to_string)
        )
    }
    let corpus: [(&str, Option<&str>); 15] = [
        // The figure's own examples.
        (
            "tacoma://cl2.cs.uit.no:27017//vm_c:933821661",
            Some("host=cl2.cs.uit.no port=27017 principal=- name=vm_c inst=933821661"),
        ),
        (
            "tacoma://cl2.cs.uit.no/tacoma@cl2.cs.uit.no/ag_cron",
            Some("host=cl2.cs.uit.no port=- principal=tacoma@cl2.cs.uit.no name=ag_cron inst=-"),
        ),
        (
            "tacomaproject/:933821661",
            Some("host=- port=- principal=tacomaproject name=- inst=933821661"),
        ),
        // Each production exercised.
        ("ag_fs", Some("host=- port=- principal=- name=ag_fs inst=-")),
        (
            ":deadbeef",
            Some("host=- port=- principal=- name=- inst=deadbeef"),
        ),
        (
            "webbot:42",
            Some("host=- port=- principal=- name=webbot inst=42"),
        ),
        (
            "tacoma://h1/ag_exec",
            Some("host=h1 port=- principal=- name=ag_exec inst=-"),
        ),
        (
            "tacoma://h1:1234/p/a:1",
            Some("host=h1 port=1234 principal=p name=a inst=1"),
        ),
        // Malformed forms.
        ("", None),
        ("tacoma://h1", None),
        ("tacoma://h1/", None),
        ("tacoma://h1:999999/x", None),
        ("name:xyz", None),
        ("a/b/c/d", None),
        ("bad name", None),
    ];

    let widths = [52, 70];
    header(&["input", "parsed parts"], &widths);
    for (input, expected) in corpus {
        let parsed = input.parse::<AgentUri>();
        row(
            &[
                format!("{input:?}"),
                match &parsed {
                    Ok(uri) => parts(uri),
                    Err(e) => format!("({e})"),
                },
            ],
            &widths,
        );
        assert_eq!(
            parsed.as_ref().ok().map(parts).as_deref(),
            expected,
            "{input:?}"
        );
    }

    // §3.2 matching, for a registered agent alice/webbot:2a.
    let agent = AgentAddress::new("alice", "webbot", Instance::from_u64(0x2a));
    let as_sender = |target: &str, sender: &str| {
        let uri: AgentUri = target.parse().unwrap();
        agent.matches(&uri, "system@h1", sender)
    };
    for target in ["alice/webbot:2a", "alice/webbot", "alice/:2a", "webbot"] {
        assert_eq!(as_sender(target, "alice"), MatchOutcome::Match, "{target}");
    }
    assert_eq!(
        as_sender("webbot", "mallory"),
        MatchOutcome::PrincipalDenied
    );
}

/// E5 — Figure 3: the vm_c pipeline. The seven numbered steps appear in
/// the trace in order and the compiled agent runs. The latency of the
/// three execution paths is printed, not asserted.
#[test]
fn e5_vm_c_pipeline_runs_seven_steps_in_order() {
    const SOURCE: &str = r#"
        fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
        fn main() {
            display("fib(18) = " + str(fib(18)));
            exit(0);
        }
    "#;
    let single_host = || {
        SystemBuilder::new()
            .host("alpha")
            .unwrap()
            .trust_all()
            .build()
    };

    let mut system = single_host();
    system
        .launch("alpha", AgentSpec::script("csource", SOURCE).on_vm("vm_c"))
        .unwrap();
    system.run_until_quiet();
    let trace = system
        .host("alpha")
        .unwrap()
        .events()
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::ExecutionTrace(lines) => Some(lines.clone()),
            _ => None,
        })
        .expect("vm_c leaves a trace");
    for line in &trace {
        println!("  {line}");
    }
    let steps: Vec<&str> = trace
        .iter()
        .filter_map(|l| l.split_once(':').map(|(n, _)| n))
        .filter(|n| n.parse::<u32>().is_ok())
        .collect();
    assert_eq!(steps, ["1", "2", "3", "4", "5", "6", "7"]);
    assert_eq!(system.agent_outputs(), ["fib(18) = 2584"]);

    const RUNS: u32 = 10;
    let mean_latency = |spec: &dyn Fn() -> AgentSpec| {
        let started = Instant::now();
        for _ in 0..RUNS {
            let mut system = single_host();
            system.launch("alpha", spec()).unwrap();
            system.run_until_quiet();
        }
        started.elapsed() / RUNS
    };
    let program = tacoma::taxscript::compile_source(SOURCE).unwrap();
    let widths = [32, 14];
    header(
        &["path (wall clock, not asserted)", "mean latency"],
        &widths,
    );
    for (path, latency) in [
        (
            "vm_c (compile at destination)",
            mean_latency(&|| AgentSpec::script("src", SOURCE).on_vm("vm_c")),
        ),
        (
            "vm_script (interpret source)",
            mean_latency(&|| AgentSpec::script("scr", SOURCE).on_vm("vm_script")),
        ),
        (
            "vm_bin (pre-compiled binary)",
            mean_latency(&|| AgentSpec::bytecode("bin", program.clone()).on_vm("vm_bin")),
        ),
    ] {
        row(&[path.to_owned(), format!("{latency:?}")], &widths);
    }
}

/// E6 — Figure 4: the hello-world itinerary agent on five hosts with h3
/// down. Five greetings (four hosts plus the retry iteration after the
/// failed hop), one "Unable to reach", and termination on the drained
/// `HOSTS` folder at h5.
#[test]
fn e6_hello_itinerary_survives_a_dead_host() {
    let hosts = ["h1", "h2", "h3", "h4", "h5"];
    let mut builder = SystemBuilder::new();
    for h in hosts {
        builder = builder.host(h).unwrap();
    }
    let mut system = builder.trust_all().build();
    system.network().with_topology(|t| {
        t.crash_host(&"h3".parse().unwrap());
    });

    // Figure 4, line for line.
    let agent = AgentSpec::script(
        "hello",
        r#"
        fn main() {
            while (1) {
                display("Hello world");
                let e = bc_remove("HOSTS", 0);
                if (e == nil) { exit(0); }
                if (go(e)) { display("Unable to reach " + e); }
            }
        }
        "#,
    )
    .itinerary(hosts[1..].iter().map(|h| format!("tacoma://{h}/vm_script")));
    system.launch("h1", agent).unwrap();
    system.run_until_quiet();

    let outputs = system.agent_outputs();
    for line in &outputs {
        println!("  {line}");
    }
    assert_eq!(
        outputs,
        [
            "Hello world",
            "Hello world",
            "Unable to reach tacoma://h3/vm_script",
            "Hello world",
            "Hello world",
            "Hello world",
        ]
    );

    let widths = [4, 10, 9, 10];
    header(&["host", "installed", "departed", "completed"], &widths);
    let mut lifecycle = Vec::new();
    for h in hosts {
        let events = system.host(h).unwrap().events();
        let count = |pred: fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count();
        let counts = [
            count(|k| matches!(k, EventKind::Installed { .. })),
            count(|k| matches!(k, EventKind::Departed { .. })),
            count(|k| matches!(k, EventKind::Completed(_))),
        ];
        let mut cells = vec![h.to_owned()];
        cells.extend(counts.map(|c| c.to_string()));
        row(&cells, &widths);
        lifecycle.push(counts);
    }
    assert_eq!(
        lifecycle,
        [[1, 1, 0], [1, 1, 0], [0, 0, 0], [1, 1, 0], [1, 0, 1]]
    );
}

/// E7 — Figure 5: `rwWebbot(mwWebbot(Webbot))` on the paper site with the
/// second step on. The monitor logs both hops, step one finds the dead
/// internal links, step two re-checks the prefix-rejected external URIs
/// at the server, and only the combined report comes back over the LAN.
#[test]
fn e7_wrapper_stack_reports_both_steps() {
    let params = CaseStudyParams::paper().with_external_checks();
    let mut system = build_system(&params);
    let monitor = format!("tacoma://{CLIENT}/ag_log");
    let spec = mw_webbot_spec(
        SERVER,
        CLIENT,
        &WebbotConfig::scan_site(SERVER),
        true,
        Some(&monitor),
    );
    system.launch(CLIENT, spec).unwrap();
    system.run_until_quiet();
    let principal = Principal::local_system(CLIENT);

    // The rwWebbot layer: what the monitoring tool saw.
    let mut read = Briefcase::new();
    read.set_single(folders::COMMAND, "read");
    let log = system
        .call_service(CLIENT, "ag_log", &principal, read)
        .unwrap();
    let hops: Vec<&str> = log
        .folder("LINES")
        .map(|f| f.iter().filter_map(|l| l.as_str().ok()).collect())
        .unwrap_or_default();
    for hop in &hops {
        println!("  {hop}");
    }
    assert_eq!(hops.len(), 2, "outbound and homebound hops reported");
    assert!(hops[0].contains(&format!("{CLIENT} -> tacoma://{SERVER}/")));
    assert!(hops[1].contains(&format!("{SERVER} -> tacoma://{CLIENT}/")));

    // The mwWebbot layer: the combined report that came home.
    let mut fetch = Briefcase::new();
    fetch.set_single(folders::COMMAND, "fetch");
    fetch.append(folders::ARGS, REPORT_DRAWER);
    let reply = system
        .call_service(CLIENT, "ag_cabinet", &principal, fetch)
        .unwrap();
    let parked = reply.element("CABINET-DATA", 0).unwrap();
    let report = WebbotReport::read_from(&Briefcase::decode_bytes(parked.bytes()).unwrap());
    let internal_prefix = format!("http://{SERVER}/");
    let (internal, external): (Vec<_>, Vec<_>) = report
        .invalid
        .iter()
        .partition(|i| i.url.starts_with(&internal_prefix));
    let rejected: std::collections::BTreeSet<&str> =
        report.prefix_rejected().map(|r| r.url.as_str()).collect();

    let stats = system.network().stats();
    let [client, server] = [CLIENT, SERVER].map(|h| h.parse::<tacoma::core::HostId>().unwrap());
    let (out, home) = (stats.pair(&client, &server), stats.pair(&server, &client));

    let widths = [34, 10];
    header(&["finding", "count"], &widths);
    for (name, count) in [
        ("pages scanned", report.pages_scanned.to_string()),
        ("invalid internal links", internal.len().to_string()),
        (
            "prefix-rejected (external) URIs",
            rejected.len().to_string(),
        ),
        ("invalid external links", external.len().to_string()),
        ("KB scanned at the server", kb(report.bytes_fetched)),
        ("messages server -> client", home.messages.to_string()),
        ("KB server -> client", kb(home.bytes)),
        ("KB client -> server", kb(out.bytes)),
        ("KB of parked report", kb(parked.len() as u64)),
    ] {
        row(&[name.to_owned(), count], &widths);
    }

    assert_eq!(report.pages_scanned, 917);
    assert_eq!(
        (internal.len(), rejected.len(), external.len()),
        (38, 67, 65)
    );
    // A quarter of the external links are broken, but the live ones all
    // reuse the two hosts' index pages: of the 67 distinct rejected URIs,
    // exactly those two are alive.
    assert_eq!(SiteSpec::paper_site(SERVER).broken_external_rate, 0.25);
    assert_eq!(params.external_hosts, 2);
    assert_eq!(rejected.len() - external.len(), 2);
    // Out went the agent and its binaries; home came the agent carrying
    // the combined report, plus rwWebbot's log line. No page crossed.
    assert_eq!(kb(out.bytes), "560.7");
    assert_eq!(home.messages, 2);
    assert_eq!(
        [home.bytes, parked.len() as u64].map(kb),
        ["129.4", "128.9"]
    );
}

/// E8 — §4's data-mining example: an itinerant mining agent against the
/// client pull over 4 servers × 200 records × 4 KB. Both find the same
/// matches; the agent wins while mining condenses the data and loses once
/// it drags its growing results across the remaining hops.
#[test]
fn e8_mining_crossover() {
    let base = MiningParams::default();
    assert_eq!(
        (base.servers, base.records_per_server, base.record_bytes),
        (4, 200, 4_096)
    );
    // selectivity %, agent KB, agent ms, winner; the pull moves 3,281 KB
    // in 305 ms whatever the selectivity.
    let expected = [
        (1, "251", 65, "agent"),
        (5, "587", 92, "agent"),
        (10, "1042", 129, "agent"),
        (25, "2326", 231, "agent"),
        (50, "4335", 392, "pull"),
        (90, "7619", 655, "pull"),
    ];

    let widths = [12, 10, 11, 10, 11, 7];
    header(
        &[
            "selectivity",
            "pull KB",
            "agent KB",
            "pull ms",
            "agent ms",
            "winner",
        ],
        &widths,
    );
    for (percent, agent_kb, agent_ms, winner) in expected {
        let params = MiningParams {
            selectivity: f64::from(percent) / 100.0,
            ..base.clone()
        };
        let pull = run_client_pull(&params);
        let agent = run_mobile_agent(&params);
        let measured_winner = if agent.network_bytes < pull.network_bytes {
            "agent"
        } else {
            "pull"
        };
        let whole_kb = |b: u64| format!("{:.0}", b as f64 / 1e3);
        row(
            &[
                format!("{percent} %"),
                whole_kb(pull.network_bytes),
                whole_kb(agent.network_bytes),
                pull.elapsed.as_millis().to_string(),
                agent.elapsed.as_millis().to_string(),
                measured_winner.to_owned(),
            ],
            &widths,
        );
        assert_eq!(
            pull.matches, agent.matches,
            "both designs find the same set"
        );
        assert_eq!(
            (whole_kb(pull.network_bytes), pull.elapsed.as_millis()),
            ("3281".to_owned(), 305)
        );
        assert_eq!(
            (
                whole_kb(agent.network_bytes),
                agent.elapsed.as_millis(),
                measured_winner
            ),
            (agent_kb.to_owned(), agent_ms, winner),
            "selectivity {percent} %"
        );
    }
}

/// The facade crate exposes every subsystem.
#[test]
fn facade_reexports() {
    let _ = tacoma::briefcase::Briefcase::new();
    let _ = tacoma::uri::AgentUri::local("ag_fs").unwrap();
    let _ = tacoma::simnet::LinkSpec::lan_100mbit();
    let _ = tacoma::security::hash_bytes(b"x");
    let _ = tacoma::taxscript::compile_source("fn main() { }").unwrap();
    let _ = tacoma::vm::Architecture::simulated();
    let _ = tacoma::web::WebUrl::new("h", "/");
    let _ = tacoma::webbot::Webbot::new();
    let _ = tacoma::core::SystemBuilder::new();
    let _ = tacoma::firewall::FIREWALL_AGENT_NAME;
}

/// The sample script shipped for `taxsh run` stays valid.
#[test]
fn shipped_sample_script_compiles_and_runs() {
    let source = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/hello.tax"))
        .expect("scripts/hello.tax exists");
    tacoma::taxscript::compile_source(&source).expect("sample script compiles");

    let mut system = tacoma::core::SystemBuilder::new()
        .host("a")
        .unwrap()
        .host("b")
        .unwrap()
        .trust_all()
        .build();
    let spec = tacoma::core::AgentSpec::script("hello", source).itinerary(["tacoma://b/vm_script"]);
    system.launch("a", spec).unwrap();
    system.run_until_quiet();
    assert_eq!(
        system
            .agent_outputs()
            .iter()
            .filter(|l| l.as_str() == "Hello world")
            .count(),
        2
    );
}
