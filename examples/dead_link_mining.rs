//! The §5 case study, end to end: mining for dead links with a mobilized
//! Webbot (Figure 5: `rwWebbot(mwWebbot(Webbot))`), compared against the
//! stationary robot.
//!
//! ```sh
//! cargo run --release --example dead_link_mining
//! ```

use tacoma::webbot::experiment::{run_mobile, run_stationary, speedup, CaseStudyParams};

fn main() {
    // A mid-size site with the §5 second step on; the paper-scale run is
    // `cargo test --test paper_reproduction e1_ -- --nocapture`.
    let params = CaseStudyParams {
        pages: 300,
        total_bytes: 1_500_000,
        ..CaseStudyParams::paper()
    }
    .with_external_checks();

    println!("scanning a {}-page site two ways...\n", params.pages);
    let stationary = run_stationary(&params);
    let mobile = run_mobile(&params);

    println!("stationary (robot at the client, pages over the LAN):");
    println!("  {}", stationary.report.summary());
    println!(
        "  scan {:?}, {} bytes over the link",
        stationary.scan_time, stationary.link_bytes
    );

    println!("\nmobile (mwWebbot carries the robot to the server):");
    println!("  {}", mobile.report.summary());
    println!(
        "  scan {:?}, {} bytes over the link",
        mobile.scan_time, mobile.link_bytes
    );

    println!(
        "\nthe local scan is {:.1}% faster and moves {:.1}x fewer bytes.",
        100.0 * speedup(stationary.scan_time, mobile.scan_time),
        stationary.link_bytes as f64 / mobile.link_bytes.max(1) as f64,
    );

    println!("\ndead links found (first five):");
    for issue in mobile.report.invalid.iter().take(5) {
        println!("  [{}] {} -> {}", issue.status, issue.referrer, issue.url);
    }
    assert!(
        stationary.report.invalid.len() >= mobile.report.invalid.len().min(1),
        "both robots find dead links"
    );
}
