//! **E4 — Figure 2, the agent-URI grammar.**
//!
//! Parses the paper's own examples and a corpus covering every production
//! of the EBNF, then demonstrates the §3.2 matching semantics.

use tacoma_bench::{header, row};
use tacoma_uri::{AgentAddress, AgentUri, Instance};

fn main() {
    println!("E4: the Figure-2 agent-URI grammar\n");

    let corpus: &[(&str, bool)] = &[
        // The figure's own examples.
        ("tacoma://cl2.cs.uit.no:27017//vm_c:933821661", true),
        ("tacoma://cl2.cs.uit.no/tacoma@cl2.cs.uit.no/ag_cron", true),
        ("tacomaproject/:933821661", true),
        // Each production exercised.
        ("ag_fs", true),
        (":deadbeef", true),
        ("webbot:42", true),
        ("tacoma://h1/ag_exec", true),
        ("tacoma://h1:1234/p/a:1", true),
        // Malformed forms.
        ("", false),
        ("tacoma://h1", false),
        ("tacoma://h1/", false),
        ("tacoma://h1:999999/x", false),
        ("name:xyz", false),
        ("a/b/c/d", false),
        ("bad name", false),
    ];

    let widths = [48, 10, 26];
    header(&["input", "parses?", "parsed parts"], &widths);
    let mut all_ok = true;
    for (input, expected) in corpus {
        let parsed = input.parse::<AgentUri>();
        let ok = parsed.is_ok() == *expected;
        all_ok &= ok;
        let parts = match &parsed {
            Ok(uri) => format!(
                "host={} name={} inst={}",
                uri.host().unwrap_or("-"),
                uri.name().unwrap_or("-"),
                uri.instance()
                    .map_or_else(|| "-".into(), std::string::ToString::to_string)
            ),
            Err(e) => format!("({e})"),
        };
        row(
            &[
                format!("{input:?}"),
                format!(
                    "{}{}",
                    if parsed.is_ok() { "yes" } else { "no" },
                    if ok { "" } else { " !!" }
                ),
                parts,
            ],
            &widths,
        );
    }
    assert!(all_ok, "corpus expectations violated");

    println!("\nmatching semantics (§3.2): registered agent alice/webbot:2a");
    let agent = AgentAddress::new("alice", "webbot", Instance::from_u64(0x2a));
    let cases = [
        ("alice/webbot:2a", "exact match"),
        ("alice/webbot", "name only — any instance"),
        ("alice/:2a", "instance only — any name"),
        (
            "webbot",
            "no principal — sender must own it or be the system",
        ),
    ];
    let widths = [24, 18, 44];
    header(&["target", "match (as alice)?", "rule"], &widths);
    for (target, rule) in cases {
        let uri: AgentUri = target.parse().unwrap();
        let outcome = agent.matches(&uri, "system@h1", "alice");
        row(
            &[
                target.to_owned(),
                format!("{:?}", outcome.is_match()),
                rule.to_owned(),
            ],
            &widths,
        );
        assert!(outcome.is_match());
    }
    let uri: AgentUri = "webbot".parse().unwrap();
    let denied = agent.matches(&uri, "system@h1", "mallory");
    println!(
        "\nas mallory, bare \"webbot\" resolves: {:?} (expected PrincipalDenied)",
        denied
    );
    assert!(!denied.is_match());
}
