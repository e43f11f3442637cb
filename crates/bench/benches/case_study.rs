//! Criterion form of E1: the §5 Webbot comparison on a reduced site, so
//! `cargo bench` exercises the full stack in seconds. The full-scale
//! numbers come from `cargo run --bin exp_e1_webbot_local_vs_remote`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tacoma_bench::mining::{run_client_pull, run_mobile_agent, MiningParams};
use tacoma_webbot::experiment::{run_mobile, run_stationary, CaseStudyParams};

fn reduced() -> CaseStudyParams {
    CaseStudyParams {
        pages: 120,
        total_bytes: 600_000,
        seed: 5,
        ..CaseStudyParams::default()
    }
}

fn bench_webbot(c: &mut Criterion) {
    let mut group = c.benchmark_group("webbot_case_study");
    group.sample_size(10);
    group.bench_function("stationary_120_pages", |b| {
        b.iter(|| black_box(run_stationary(&reduced()).report.pages_scanned));
    });
    group.bench_function("mobile_120_pages", |b| {
        b.iter(|| black_box(run_mobile(&reduced()).report.pages_scanned));
    });
    group.finish();
}

fn bench_mining(c: &mut Criterion) {
    let mut group = c.benchmark_group("mining_itinerary");
    group.sample_size(10);
    let params = MiningParams {
        servers: 3,
        records_per_server: 100,
        record_bytes: 2_048,
        selectivity: 0.05,
        ..MiningParams::default()
    };
    group.bench_function("client_pull", |b| {
        b.iter(|| black_box(run_client_pull(&params).matches));
    });
    group.bench_function("mobile_agent", |b| {
        b.iter(|| black_box(run_mobile_agent(&params).matches));
    });
    group.finish();
}

criterion_group!(benches, bench_webbot, bench_mining);
criterion_main!(benches);
