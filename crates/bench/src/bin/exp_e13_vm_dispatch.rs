//! **E13 — the TaxScript compile tier: fused dispatch and warm launches.**
//!
//! Two measurements of the execution tier that replaced the per-op
//! interpreter:
//!
//! 1. **Dispatch throughput.** The same program runs under the legacy
//!    per-instruction interpreter (`Vm::run_legacy`) and the fused
//!    superinstruction dispatcher (`Vm::run`); throughput is reported
//!    in wire-instructions/sec, counted exactly via the fuel the run
//!    consumed (both tiers charge one fuel per wire instruction).
//!    Two workloads bracket the design space: *loop-heavy* (counter
//!    loops and local arithmetic — the fusion sweet spot) and
//!    *builtin-heavy* (dominated by briefcase builtin calls, where
//!    dispatch is a smaller slice of each instruction).
//!
//! 2. **Launch throughput, cold vs warm.** The same bytecode briefcase
//!    is launched through a fresh `vm_script` with empty launch caches
//!    at each iteration (cold: decode + verify + lower + allocate per
//!    hop) and through one `vm_script` whose caches are primed (warm:
//!    content-hash hit on the verified-script cache, pooled scratch from
//!    the `VmPool`). This is the per-hop cost a mobile agent actually
//!    pays.
//!
//! With `--json` the results are emitted as the `BENCH_10.json` format;
//! `--smoke` shrinks the workload for CI; `--check` exits non-zero if
//! the fused tier is less than 2x the legacy tier on the loop-heavy
//! workload or warm launches are less than 5x cold launches.

use std::env;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tacoma_bench::{header, row};
use tacoma_briefcase::{folders, Briefcase};
use tacoma_security::TrustStore;
use tacoma_taxscript::analysis::CacheStats;
use tacoma_taxscript::{compile_source, NullHooks, Program, Vm, DEFAULT_FUEL};
use tacoma_vm::{code_types, ExecContext, LaunchCaches, NativeRegistry, VirtualMachine, VmScript};

/// Timed repetitions; the best rep damps scheduler noise.
const REPS: usize = 3;

/// The CI gate: fused over legacy on the loop-heavy workload.
const DISPATCH_GATE: f64 = 2.0;

/// The CI gate: warm over cold launches.
const LAUNCH_GATE: f64 = 5.0;

/// Counter loops over local arithmetic: every iteration is a fused
/// loop header (`Load+Const+Lt+JumpIfFalse`) plus fused counter bumps
/// (`Load+Const+Add+Store`) — the workload the superinstruction pass
/// was built for.
fn loop_heavy(iters: u64) -> Program {
    compile_source(&format!(
        "fn main() {{
            let i = 0;
            let acc = 0;
            while (i < {iters}) {{
                acc = acc + 3;
                acc = acc + i;
                i = i + 1;
            }}
            exit(0);
        }}"
    ))
    .expect("loop-heavy source compiles")
}

/// Briefcase-builtin calls dominate: dispatch overhead is a thin slice
/// of each instruction, so the fused tier's edge here bounds the
/// *worst-case* speedup an agent should expect.
fn builtin_heavy(iters: u64) -> Program {
    compile_source(&format!(
        "fn main() {{
            let i = 0;
            while (i < {iters}) {{
                bc_set(\"K\", i);
                bc_append(\"LOG\", \"x\");
                bc_clear(\"LOG\");
                i = i + 1;
            }}
            exit(0);
        }}"
    ))
    .expect("builtin-heavy source compiles")
}

/// One tier's throughput on `program`: best-of-[`REPS`]
/// wire-instructions/sec, with the instruction count taken from the
/// fuel the run consumed.
#[allow(clippy::cast_precision_loss)]
fn dispatch_ops_per_sec(program: &Program, legacy: bool) -> (f64, u64) {
    program.prepare();
    let mut best = f64::MIN;
    let mut executed = 0u64;
    for _ in 0..REPS {
        let mut bc = Briefcase::new();
        let mut vm = Vm::new(program, NullHooks::default()).with_fuel(DEFAULT_FUEL);
        let started = Instant::now();
        let outcome = if legacy {
            vm.run_legacy(&mut bc)
        } else {
            vm.run(&mut bc)
        };
        let wall = started.elapsed();
        outcome.expect("bench program terminates cleanly");
        executed = DEFAULT_FUEL - vm.fuel_remaining();
        best = best.max(executed as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE));
    }
    (best, executed)
}

/// Launches/sec for the bytecode briefcase through `vm_script`, and the
/// VM pool counters of the warm run. `cold` launches each time on a fresh
/// VM with empty caches, charging the full decode + verify + lower +
/// allocate pipeline per hop.
#[allow(clippy::cast_precision_loss)]
fn launches_per_sec(wire: &[u8], launches: usize, cold: bool) -> (f64, Duration, CacheStats) {
    let trust = TrustStore::new();
    let natives = NativeRegistry::new();
    let ctx = ExecContext::new(&trust, &natives);
    let caches = Arc::new(LaunchCaches::new());
    let warm_vm = VmScript::sharing("vm_script", Arc::clone(&caches));
    let launch = |vm: &VmScript| {
        let mut bc = briefcase_with(wire);
        let mut hooks = NullHooks::default();
        vm.execute(&mut bc, &mut hooks, &ctx)
            .expect("bench launch succeeds");
    };
    // Prime the caches for the warm variant so iteration one is warm too.
    if !cold {
        launch(&warm_vm);
    }
    let started = Instant::now();
    for _ in 0..launches {
        if cold {
            launch(&VmScript::new());
        } else {
            launch(&warm_vm);
        }
    }
    let wall = started.elapsed();
    (
        launches as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE),
        wall,
        caches.pool().stats(),
    )
}

fn briefcase_with(wire: &[u8]) -> Briefcase {
    let mut bc = Briefcase::new();
    bc.append(folders::CODE, wire.to_vec());
    bc.set_single(folders::CODE_TYPE, code_types::TAXSCRIPT_BYTECODE);
    bc
}

#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");

    let (loop_iters, builtin_iters, launches) = if smoke {
        (200_000u64, 20_000u64, 300usize)
    } else {
        (2_000_000, 200_000, 2_000)
    };

    // ---- 1. dispatch throughput, legacy vs fused. ----
    let loops = loop_heavy(loop_iters);
    let builtins = builtin_heavy(builtin_iters);
    let (loop_legacy, loop_ops) = dispatch_ops_per_sec(&loops, true);
    let (loop_fused, _) = dispatch_ops_per_sec(&loops, false);
    let (builtin_legacy, builtin_ops) = dispatch_ops_per_sec(&builtins, true);
    let (builtin_fused, _) = dispatch_ops_per_sec(&builtins, false);
    let loop_speedup = loop_fused / loop_legacy.max(f64::MIN_POSITIVE);
    let builtin_speedup = builtin_fused / builtin_legacy.max(f64::MIN_POSITIVE);

    // ---- 2. launch throughput, cold vs warm. ----
    // A realistic itinerant agent: it carries its whole program to
    // every host (a dozen task routines the itinerary dispatches among)
    // but executes only a small slice per hop — so the per-hop cost is
    // dominated by decode + verify + lower, exactly what the caches
    // elide.
    let mut source = String::new();
    for t in 0..12 {
        source.push_str(&format!(
            "fn task{t}(x) {{
                let acc = x;
                let i = 0;
                while (i < 10) {{
                    acc = acc + i * {t};
                    bc_append(\"T{t}\", str(acc));
                    i = i + 1;
                }}
                return acc;
            }}\n"
        ));
    }
    source.push_str(
        "fn main() {
            let step = bc_get(\"STEP\", 0);
            if (step == 3) { task3(7); }
            bc_append(\"RESULTS\", host_name());
            exit(0);
        }\n",
    );
    let agent = compile_source(&source).expect("agent source compiles");
    let wire = agent.encode();
    let cold_launches = launches / 10;
    let (cold_rate, cold_wall, _) = launches_per_sec(&wire, cold_launches, true);
    let (warm_rate, warm_wall, pool) = launches_per_sec(&wire, launches, false);
    let launch_speedup = warm_rate / cold_rate.max(f64::MIN_POSITIVE);

    if json {
        println!("{{");
        println!("  \"bench\": \"vm_dispatch\",");
        println!("  \"smoke\": {smoke},");
        println!("  \"dispatch\": {{");
        println!("    \"loop_heavy\": {{");
        println!("      \"wire_ops\": {loop_ops},");
        println!("      \"legacy_ops_per_sec\": {loop_legacy:.0},");
        println!("      \"fused_ops_per_sec\": {loop_fused:.0},");
        println!("      \"speedup\": {loop_speedup:.2}");
        println!("    }},");
        println!("    \"builtin_heavy\": {{");
        println!("      \"wire_ops\": {builtin_ops},");
        println!("      \"legacy_ops_per_sec\": {builtin_legacy:.0},");
        println!("      \"fused_ops_per_sec\": {builtin_fused:.0},");
        println!("      \"speedup\": {builtin_speedup:.2}");
        println!("    }}");
        println!("  }},");
        println!("  \"launch\": {{");
        println!("    \"agent_wire_bytes\": {},", wire.len());
        println!("    \"cold\": {{ \"launches\": {cold_launches}, \"wall_ms\": {:.1}, \"launches_per_sec\": {cold_rate:.0} }},",
            cold_wall.as_secs_f64() * 1e3);
        println!("    \"warm\": {{ \"launches\": {launches}, \"wall_ms\": {:.1}, \"launches_per_sec\": {warm_rate:.0} }},",
            warm_wall.as_secs_f64() * 1e3);
        println!("    \"speedup\": {launch_speedup:.1},");
        println!(
            "    \"vm_pool\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {} }}",
            pool.hits, pool.misses, pool.evictions
        );
        println!("  }}");
        println!("}}");
    } else {
        println!("E13: TaxScript compile tier — fused dispatch and warm launches\n");
        let widths = [20, 14, 14, 14, 9];
        header(
            &[
                "workload",
                "wire ops",
                "legacy op/s",
                "fused op/s",
                "speedup",
            ],
            &widths,
        );
        row(
            &[
                "loop-heavy".to_owned(),
                loop_ops.to_string(),
                format!("{loop_legacy:.0}"),
                format!("{loop_fused:.0}"),
                format!("{loop_speedup:.2}x"),
            ],
            &widths,
        );
        row(
            &[
                "builtin-heavy".to_owned(),
                builtin_ops.to_string(),
                format!("{builtin_legacy:.0}"),
                format!("{builtin_fused:.0}"),
                format!("{builtin_speedup:.2}x"),
            ],
            &widths,
        );
        println!(
            "\nlaunches: cold {cold_rate:.0}/s ({cold_launches} runs), \
             warm {warm_rate:.0}/s ({launches} runs), speedup {launch_speedup:.1}x"
        );
        println!(
            "vm pool: {} hits, {} misses, {} evictions",
            pool.hits, pool.misses, pool.evictions
        );
    }

    if check {
        let mut failed = false;
        if loop_speedup < DISPATCH_GATE {
            eprintln!(
                "CHECK FAILED: loop-heavy fused speedup {loop_speedup:.2}x below the \
                 {DISPATCH_GATE}x gate"
            );
            failed = true;
        }
        if launch_speedup < LAUNCH_GATE {
            eprintln!(
                "CHECK FAILED: warm launch speedup {launch_speedup:.1}x below the \
                 {LAUNCH_GATE}x gate"
            );
            failed = true;
        }
        if failed {
            return ExitCode::FAILURE;
        }
        eprintln!(
            "check ok: loop-heavy {loop_speedup:.2}x, builtin-heavy {builtin_speedup:.2}x, \
             warm launches {launch_speedup:.1}x"
        );
    }
    ExitCode::SUCCESS
}
