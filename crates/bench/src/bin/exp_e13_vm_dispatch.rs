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
//!    dispatch is a smaller slice of each instruction). A third,
//!    *mine-shaped*, is what the daemon actually runs on hopbench's
//!    `tour_mine`: that agent verbatim, over 512 seeded §5-shaped
//!    links, so its fused µs per run is comparable with hopbench's
//!    `taxscript.dispatch_us`.
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
//! workload or 2.2x on the mine-shaped one, or warm launches are less
//! than 5x cold launches.

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

/// The CI gate: fused over legacy on the mine-shaped workload.
const MINE_GATE: f64 = 2.2;

/// The CI gate: warm over cold launches.
const LAUNCH_GATE: f64 = 5.0;

/// Links the mine-shaped agent scans per run, as on `tour_mine`.
const MINE_LINKS: usize = 512;

/// Counter loops over local arithmetic: every iteration is a fused
/// loop header (`BinLKJf`, from `Load+Const+Lt+JumpIfFalse`) plus fused
/// stores (`BinLKStore` and `BinLLStore`, from `Load+Const|Load+Add+Store`)
/// — the shape the first superinstructions were built for.
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

/// The `tour_mine` agent verbatim (hopbench, `benchmark/src/workload.rs:142`,
/// at its `MINE_ITERATIONS` of 20 000), copied because this crate cannot
/// depend on the benchmark package. Keep the two in step.
fn mine_shaped() -> Program {
    compile_source(
        r#"
fn main() {
    let n = bc_len("LINKS");
    let i = 0;
    let secure = 0;
    let dead = 0;
    while (i < n) {
        let url = bc_get("LINKS", i);
        if (starts_with(url, "https://")) { secure = secure + 1; }
        if (contains(url, "/dead/")) { dead = dead + 1; }
        i = i + 1;
    }
    let sum = 0;
    let k = 0;
    while (k < 20000) {
        sum = (sum * 31 + k) % 1000003;
        k = k + 1;
    }
    bc_append("REPORT", host_name() + " links=" + str(n) + " secure=" + str(secure)
        + " dead=" + str(dead) + " sum=" + str(sum));
    bc_append("TRAIL", host_name());
    let next = bc_remove("HOSTS", 0);
    if (next == nil) { exit(0); }
    go(next);
}
"#,
    )
    .expect("mine-shaped source compiles")
}

/// A briefcase of [`MINE_LINKS`] §5-shaped links — mostly http, some
/// https, some under `/dead/` — drawn as hopbench's `seeded_url` draws
/// them (SplitMix64).
fn mine_links() -> Briefcase {
    let mut state = 0x5EED_u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut bc = Briefcase::new();
    for _ in 0..MINE_LINKS {
        let r = next();
        let scheme = if r % 3 == 0 { "https" } else { "http" };
        let dir = if (r >> 8) % 5 == 0 { "dead" } else { "docs" };
        bc.append(
            "LINKS",
            format!(
                "{scheme}://www{}.cs.uit.no/{dir}/page{:05}.html",
                (r >> 16) % 8,
                (r >> 24) % 100_000
            ),
        );
    }
    bc
}

/// One tier on one workload: `runs` back-to-back runs of `program`,
/// each on a fresh copy of `briefcase`, timed together; the best of
/// [`REPS`] such batches.
struct Dispatch {
    /// Wire instructions one run executes (the fuel it consumed).
    wire_ops: u64,
    ops_per_sec: f64,
    us_per_run: f64,
}

#[allow(clippy::cast_precision_loss)]
fn dispatch(program: &Program, briefcase: &Briefcase, runs: u32, legacy: bool) -> Dispatch {
    program.prepare();
    let mut best = Duration::MAX;
    let mut wire_ops = 0u64;
    for _ in 0..REPS {
        let mut wall = Duration::ZERO;
        for _ in 0..runs {
            let mut bc = briefcase.clone();
            let mut vm = Vm::new(program, NullHooks::default()).with_fuel(DEFAULT_FUEL);
            let started = Instant::now();
            let outcome = if legacy {
                vm.run_legacy(&mut bc)
            } else {
                vm.run(&mut bc)
            };
            wall += started.elapsed();
            outcome.expect("bench program terminates cleanly");
            wire_ops = DEFAULT_FUEL - vm.fuel_remaining();
        }
        best = best.min(wall);
    }
    let secs = best.as_secs_f64().max(f64::MIN_POSITIVE);
    Dispatch {
        wire_ops,
        ops_per_sec: (wire_ops * u64::from(runs)) as f64 / secs,
        us_per_run: secs * 1e6 / f64::from(runs),
    }
}

/// One workload measured on both tiers.
struct Row {
    /// The `BENCH_10.json` key.
    key: &'static str,
    legacy: Dispatch,
    fused: Dispatch,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.fused.ops_per_sec / self.legacy.ops_per_sec.max(f64::MIN_POSITIVE)
    }
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

    let (loop_iters, builtin_iters, mine_runs, launches) = if smoke {
        (200_000u64, 20_000u64, 10u32, 300usize)
    } else {
        (2_000_000, 200_000, 50, 2_000)
    };

    // ---- 1. dispatch throughput, legacy vs fused. ----
    let empty = Briefcase::new();
    let workloads = [
        ("loop_heavy", loop_heavy(loop_iters), empty.clone(), 1),
        ("builtin_heavy", builtin_heavy(builtin_iters), empty, 1),
        ("mine_shaped", mine_shaped(), mine_links(), mine_runs),
    ];
    let rows: Vec<Row> = workloads
        .iter()
        .map(|(key, program, bc, runs)| Row {
            key,
            legacy: dispatch(program, bc, *runs, true),
            fused: dispatch(program, bc, *runs, false),
        })
        .collect();
    let [loop_speedup, builtin_speedup, mine_speedup] =
        [&rows[0], &rows[1], &rows[2]].map(Row::speedup);

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
        for (i, row) in rows.iter().enumerate() {
            println!("    \"{}\": {{", row.key);
            println!("      \"wire_ops\": {},", row.legacy.wire_ops);
            println!(
                "      \"legacy_ops_per_sec\": {:.0},",
                row.legacy.ops_per_sec
            );
            println!("      \"fused_ops_per_sec\": {:.0},", row.fused.ops_per_sec);
            println!("      \"legacy_us_per_run\": {:.1},", row.legacy.us_per_run);
            println!("      \"fused_us_per_run\": {:.1},", row.fused.us_per_run);
            println!("      \"speedup\": {:.2}", row.speedup());
            let comma = if i + 1 < rows.len() { "," } else { "" };
            println!("    }}{comma}");
        }
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
        let widths = [16, 12, 14, 14, 12, 9];
        header(
            &[
                "workload",
                "wire ops",
                "legacy op/s",
                "fused op/s",
                "fused µs",
                "speedup",
            ],
            &widths,
        );
        for r in &rows {
            row(
                &[
                    r.key.replace('_', "-"),
                    r.legacy.wire_ops.to_string(),
                    format!("{:.0}", r.legacy.ops_per_sec),
                    format!("{:.0}", r.fused.ops_per_sec),
                    format!("{:.1}", r.fused.us_per_run),
                    format!("{:.2}x", r.speedup()),
                ],
                &widths,
            );
        }
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
        if mine_speedup < MINE_GATE {
            eprintln!(
                "CHECK FAILED: mine-shaped fused speedup {mine_speedup:.2}x below the \
                 {MINE_GATE}x gate"
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
             mine-shaped {mine_speedup:.2}x, warm launches {launch_speedup:.1}x"
        );
    }
    ExitCode::SUCCESS
}
