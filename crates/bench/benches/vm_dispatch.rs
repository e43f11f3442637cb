//! Criterion micro-benchmarks for the TaxScript execution tiers (E13):
//! the legacy per-instruction interpreter vs the fused superinstruction
//! dispatcher, and the launch cost with and without a warm scratch.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tacoma_briefcase::Briefcase;
use tacoma_taxscript::{compile_source, ExecScratch, NullHooks, Program, Vm};

fn counter_loop(iters: u64) -> Program {
    let program = compile_source(&format!(
        "fn main() {{
            let i = 0;
            let acc = 0;
            while (i < {iters}) {{
                acc = acc + 3;
                i = i + 1;
            }}
            exit(0);
        }}"
    ))
    .expect("bench source compiles");
    program.prepare();
    program
}

fn call_tree(depth: u64) -> Program {
    let program = compile_source(&format!(
        "fn dive(n) {{
            if (n == 0) {{ return 0; }}
            return dive(n - 1) + 1;
        }}
        fn main() {{
            let i = 0;
            while (i < 64) {{
                dive({depth});
                i = i + 1;
            }}
            exit(0);
        }}"
    ))
    .expect("bench source compiles");
    program.prepare();
    program
}

/// The loop-heavy fusion sweet spot: counter bumps and loop headers.
fn bench_dispatch(c: &mut Criterion) {
    let iters = 10_000u64;
    let program = counter_loop(iters);
    // ~7 wire ops per iteration; throughput in wire-instructions.
    let mut group = c.benchmark_group("vm_dispatch");
    group.throughput(Throughput::Elements(iters * 7));
    group.bench_function("legacy_counter_loop", |b| {
        b.iter(|| {
            let mut bc = Briefcase::new();
            let mut vm = Vm::new(&program, NullHooks::default());
            black_box(vm.run_legacy(&mut bc).unwrap())
        });
    });
    group.bench_function("fused_counter_loop", |b| {
        b.iter(|| {
            let mut bc = Briefcase::new();
            let mut vm = Vm::new(&program, NullHooks::default());
            black_box(vm.run(&mut bc).unwrap())
        });
    });
    group.finish();
}

/// Call/Return frame traffic — the locals-arena path.
fn bench_calls(c: &mut Criterion) {
    let program = call_tree(100);
    c.bench_function("vm_dispatch/fused_call_tree", |b| {
        b.iter(|| {
            let mut bc = Briefcase::new();
            let mut vm = Vm::new(&program, NullHooks::default());
            black_box(vm.run(&mut bc).unwrap())
        });
    });
}

/// Launch cost with a cold scratch vs a reused (pool-style) scratch.
fn bench_scratch(c: &mut Criterion) {
    let program = counter_loop(50);
    c.bench_function("vm_launch/cold_scratch", |b| {
        b.iter(|| {
            let mut bc = Briefcase::new();
            let mut vm = Vm::new(&program, NullHooks::default());
            black_box(vm.run(&mut bc).unwrap())
        });
    });
    c.bench_function("vm_launch/warm_scratch", |b| {
        let mut scratch = ExecScratch::new();
        b.iter(|| {
            let mut bc = Briefcase::new();
            let mut vm = Vm::new(&program, NullHooks::default());
            black_box(vm.run_with_scratch(&mut bc, &mut scratch).unwrap())
        });
    });
}

criterion_group!(benches, bench_dispatch, bench_calls, bench_scratch);
criterion_main!(benches);
