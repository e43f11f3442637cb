//! Criterion micro-benchmarks (E9): the per-operation costs behind the
//! paper's design claims — briefcase codec, URI grammar, signatures,
//! the TaxScript toolchain, agent migration, library primitives, wrapper
//! stacking depth, and group-ordering buffers.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tacoma_briefcase::{Briefcase, Folder};
use tacoma_core::{AgentSpec, SystemBuilder};
use tacoma_security::{hash_bytes, Keyring, Principal};
use tacoma_taxscript::{compile_source, NullHooks, Program, Vm};
use tacoma_uri::AgentUri;

fn briefcase_of(payload_bytes: usize, elements: usize) -> Briefcase {
    let mut bc = Briefcase::new();
    let per = (payload_bytes / elements.max(1)).max(1);
    let mut folder = Folder::new("DATA");
    for _ in 0..elements {
        folder.append(vec![0xABu8; per]);
    }
    bc.insert_folder(folder);
    bc.set_single("AGENT-NAME", "bench");
    bc
}

/// Briefcase wire codec throughput across payload sizes.
fn bench_briefcase_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("briefcase_codec");
    for size in [1_000usize, 64_000, 1_000_000] {
        let bc = briefcase_of(size, 16);
        let wire = bc.encode();
        group.bench_with_input(BenchmarkId::new("encode", size), &bc, |b, bc| {
            b.iter(|| black_box(bc.encode()));
        });
        group.bench_with_input(BenchmarkId::new("decode", size), &wire, |b, wire| {
            b.iter(|| black_box(Briefcase::decode(wire).unwrap()));
        });
    }
    group.finish();
}

/// Figure-2 grammar: parse + format.
fn bench_uri(c: &mut Criterion) {
    let text = "tacoma://cl2.cs.uit.no:27017/tacoma@cl2.cs.uit.no/vm_c:933821661";
    c.bench_function("uri_parse", |b| {
        b.iter(|| black_box(text.parse::<AgentUri>().unwrap()));
    });
    let uri: AgentUri = text.parse().unwrap();
    c.bench_function("uri_display", |b| b.iter(|| black_box(uri.to_string())));
}

/// The signature scheme on agent-core-sized payloads (what the firewall
/// pays to authenticate an arriving Webbot).
fn bench_security(c: &mut Criterion) {
    let keys = Keyring::generate(&Principal::new("bench").unwrap(), 1);
    let core = vec![0x5Au8; 250_000];
    c.bench_function("hash_250k", |b| b.iter(|| black_box(hash_bytes(&core))));
    c.bench_function("sign_250k", |b| b.iter(|| black_box(keys.sign(&core))));
    let sig = keys.sign(&core);
    let public = keys.public();
    c.bench_function("verify_250k", |b| {
        b.iter(|| black_box(public.verify(&core, &sig)));
    });
}

const FIB_SRC: &str = r#"
    fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
    fn main() { exit(fib(15)); }
"#;

/// The TaxScript toolchain: the costs inside the Figure-3 pipeline.
fn bench_taxscript(c: &mut Criterion) {
    c.bench_function("taxscript_compile", |b| {
        b.iter(|| black_box(compile_source(FIB_SRC).unwrap()));
    });
    let program = compile_source(FIB_SRC).unwrap();
    let wire = program.encode();
    c.bench_function("taxscript_decode_binary", |b| {
        b.iter(|| black_box(Program::decode(&wire).unwrap()));
    });
    c.bench_function("taxscript_run_fib15", |b| {
        b.iter(|| {
            let mut bc = Briefcase::new();
            let mut vm = Vm::new(&program, NullHooks::default());
            black_box(vm.run(&mut bc).unwrap())
        });
    });
}

/// The firewall's admission tax: bytecode verification throughput in
/// wire bytes per second, across program sizes. Programs are synthesized
/// as chains of small functions so size grows without changing shape.
fn bench_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify");
    for n_fns in [4usize, 32, 256] {
        let mut src = String::new();
        for i in 0..n_fns {
            let callee = if i + 1 < n_fns {
                format!("f{}(a + 1)", i + 1)
            } else {
                "a".into()
            };
            src.push_str(&format!(
                "fn f{i}(a) {{ if (a < 0) {{ return 0; }} return {callee}; }}\n"
            ));
        }
        src.push_str("fn main() { exit(f0(1)); }\n");
        let program = compile_source(&src).unwrap();
        let wire_len = program.encode().len() as u64;
        group.throughput(Throughput::Bytes(wire_len));
        group.bench_with_input(BenchmarkId::from_parameter(wire_len), &program, |b, p| {
            b.iter(|| black_box(tacoma_taxscript::analysis::verify(p).unwrap()));
        });
    }
    group.finish();
}

/// Agent migration cost as the carried state grows (§3.1's argument for
/// dropping state before `go`).
fn bench_migration(c: &mut Criterion) {
    let mut group = c.benchmark_group("migration_go");
    group.sample_size(20);
    for payload in [0usize, 100_000, 1_000_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(payload),
            &payload,
            |b, &payload| {
                b.iter(|| {
                    let mut system = SystemBuilder::new()
                        .host("a")
                        .unwrap()
                        .host("b")
                        .unwrap()
                        .trust_all()
                        .build();
                    let spec = AgentSpec::script(
                        "mover",
                        r#"fn main() {
                        if (host_name() == "b") { exit(0); }
                        go("tacoma://b/vm_script");
                    }"#,
                    )
                    .folder("BULK", [vec![0u8; payload]]);
                    system.launch("a", spec).unwrap();
                    black_box(system.run_until_quiet())
                });
            },
        );
    }
    group.finish();
}

/// Library primitives: meet (synchronous RPC) vs activate (async send),
/// local vs remote.
fn bench_rpc(c: &mut Criterion) {
    let mut group = c.benchmark_group("library_primitives");
    group.sample_size(20);
    for (name, body) in [
        (
            "meet_local_service",
            r#"bc_set("CMD", "append"); bc_set("ARGS", "x"); meet("ag_log");"#,
        ),
        (
            "activate_local_service",
            r#"bc_set("CMD", "append"); bc_set("ARGS", "x"); activate("ag_log");"#,
        ),
        (
            "meet_remote_service",
            r#"bc_set("CMD", "append"); bc_set("ARGS", "x"); meet("tacoma://b/ag_log");"#,
        ),
    ] {
        let source =
            format!("fn main() {{ let i = 0; while (i < 50) {{ {body} i = i + 1; }} exit(0); }}");
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut system = SystemBuilder::new()
                    .host("a")
                    .unwrap()
                    .host("b")
                    .unwrap()
                    .trust_all()
                    .build();
                system
                    .launch("a", AgentSpec::script("caller", source.clone()))
                    .unwrap();
                black_box(system.run_until_quiet())
            });
        });
    }
    group.finish();
}

/// Wrapper stacking depth: the §4 mechanism's per-layer overhead
/// ("wrappers may be stacked in arbitrary depth").
fn bench_wrapper_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("wrapper_depth");
    group.sample_size(20);
    for depth in [0usize, 1, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            b.iter(|| {
                let mut system = SystemBuilder::new().host("a").unwrap().trust_all().build();
                let mut spec = AgentSpec::script(
                    "wrapped",
                    r#"fn main() {
                        let i = 0;
                        while (i < 20) {
                            bc_set("CMD", "append"); bc_set("ARGS", "x");
                            activate("ag_log");
                            i = i + 1;
                        }
                        exit(0);
                    }"#,
                );
                for _ in 0..depth {
                    spec = spec.wrap("logging");
                }
                system.launch("a", spec).unwrap();
                black_box(system.run_until_quiet())
            });
        });
    }
    group.finish();
}

/// Group-ordering buffers under worst-case (reversed) arrival.
fn bench_group_ordering(c: &mut Criterion) {
    use tacoma_core::wrappers::ordering::{CausalBuffer, FifoBuffer, TotalBuffer, VectorClock};
    const N: u64 = 100;

    c.bench_function("ordering_fifo_reversed_100", |b| {
        b.iter(|| {
            let mut buf = FifoBuffer::new();
            let mut delivered = 0;
            for seq in (1..=N).rev() {
                delivered += buf.offer("s", seq, seq).len();
            }
            assert_eq!(delivered as u64, N);
            black_box(delivered)
        });
    });
    c.bench_function("ordering_total_reversed_100", |b| {
        b.iter(|| {
            let mut buf = TotalBuffer::new();
            let mut delivered = 0;
            for seq in (1..=N).rev() {
                delivered += buf.offer(seq, seq).len();
            }
            assert_eq!(delivered as u64, N);
            black_box(delivered)
        });
    });
    c.bench_function("ordering_causal_chain_100", |b| {
        let mut stamps = Vec::new();
        let mut clock = VectorClock::new();
        for _ in 0..N {
            clock.tick("p");
            stamps.push(clock.clone());
        }
        b.iter(|| {
            let mut buf = CausalBuffer::new();
            let mut delivered = 0;
            for stamp in stamps.iter().rev() {
                delivered += buf.offer("p", stamp.clone(), ()).len();
            }
            assert_eq!(delivered as u64, N);
            black_box(delivered)
        });
    });
}

criterion_group!(
    benches,
    bench_briefcase_codec,
    bench_uri,
    bench_security,
    bench_taxscript,
    bench_verify,
    bench_migration,
    bench_rpc,
    bench_wrapper_depth,
    bench_group_ordering
);
criterion_main!(benches);
