//! Differential properties: the fused compile-tier dispatcher
//! ([`Vm::run`]) must be observationally identical to the legacy
//! per-instruction interpreter ([`Vm::run_legacy`]) — same outcomes,
//! same `display` trace, same briefcase mutations, same error classes —
//! on generated programs covering loops, conditionals, arithmetic
//! faults, string work, briefcase builtins, and calls.
//!
//! Fuel is the one documented divergence: the fused tier charges per
//! basic block, so under a too-small budget it may report out-of-fuel
//! up to [`Program::max_block_cost`] units before the legacy point —
//! never after, and with *equal* totals on every run that terminates
//! (normally or via `exit`/`go`). Those bounds are asserted here too.

use std::task::Poll;

use proptest::prelude::*;
use tacoma_briefcase::Briefcase;
use tacoma_taxscript::{
    compile_source, Builtin, ExecScratch, GoDecision, HostHooks, NullHooks, Op, Outcome, Program,
    RuntimeError, Vm, DEFAULT_FUEL,
};

/// A small statement AST rendered to TaxScript source. Loops always
/// bump a dedicated counter the body never reassigns, so every
/// generated program terminates under generous fuel.
#[derive(Debug, Clone)]
enum Stmt {
    /// `vN = <int expr>;`
    Assign(usize, IntExpr),
    /// `sN = <str expr>;`
    AssignStr(usize, StrExpr),
    Display(IntExpr),
    DisplayStr(StrExpr),
    BcAppend(StrExpr),
    BcSetInt(IntExpr),
    If(Cond, Vec<Stmt>, Vec<Stmt>),
    /// `while (wD < bound) { body; wD = wD + 1; }` where `wD` is the
    /// reserved counter for nesting depth D — no generated statement
    /// can assign a `w` variable, so every loop terminates.
    While(i64, Vec<Stmt>),
    /// `if (bc_len("LOG") > t) { exit(code); }` — exercises terminal
    /// builtins on data-dependent paths.
    MaybeExit(i64, i64),
    /// `go("…")` — NullHooks refuse the move, so this exercises the
    /// non-terminal branch of `go`.
    Go,
    /// `v0 = hop("…");` — a `go` one call frame down, so a suspension
    /// must restore a callee's frame.
    GoInHelper,
    /// `display(spawn("…"));` — the child's instance, or nil.
    Spawn,
    /// `if (await_bc(50)) { … }` — merged mail feeds `bc_len("LOG")`,
    /// so what an `await` received steers the rest of the run.
    Await,
    /// `vN = helper(vM);` — exercises Call/Return frames.
    CallHelper(usize, usize),
}

#[derive(Debug, Clone)]
enum IntExpr {
    Lit(i64),
    Var(usize),
    Add(Box<IntExpr>, Box<IntExpr>),
    Sub(Box<IntExpr>, Box<IntExpr>),
    Mul(Box<IntExpr>, Box<IntExpr>),
    /// May fault with DivisionByZero — error parity is part of the
    /// property.
    Div(Box<IntExpr>, Box<IntExpr>),
    Mod(Box<IntExpr>, Box<IntExpr>),
    BcLen,
}

#[derive(Debug, Clone)]
enum StrExpr {
    Lit(String),
    Var(usize),
    /// String + int renders the int — the mixed-type `Add` path.
    ConcatInt(Box<StrExpr>, IntExpr),
    Concat(Box<StrExpr>, Box<StrExpr>),
}

/// Every comparison operator, so each meets every operand form the
/// lowering has (local, constant, stack top).
const COMPARISONS: [&str; 6] = ["<", "<=", ">", ">=", "==", "!="];

#[derive(Debug, Clone)]
enum Cond {
    Int(&'static str, IntExpr, IntExpr),
    Str(&'static str, StrExpr, StrExpr),
}

const N_INT_VARS: usize = 3;
const N_STR_VARS: usize = 2;

impl IntExpr {
    fn render(&self) -> String {
        match self {
            IntExpr::Lit(v) => {
                if *v < 0 {
                    format!("(0 - {})", v.unsigned_abs())
                } else {
                    v.to_string()
                }
            }
            IntExpr::Var(i) => format!("v{i}"),
            IntExpr::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            IntExpr::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            IntExpr::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            IntExpr::Div(a, b) => format!("({} / {})", a.render(), b.render()),
            IntExpr::Mod(a, b) => format!("({} % {})", a.render(), b.render()),
            IntExpr::BcLen => "bc_len(\"LOG\")".to_owned(),
        }
    }
}

impl StrExpr {
    fn render(&self) -> String {
        match self {
            StrExpr::Lit(s) => format!("{s:?}"),
            StrExpr::Var(i) => format!("s{i}"),
            StrExpr::ConcatInt(a, b) => format!("({} + {})", a.render(), b.render()),
            StrExpr::Concat(a, b) => format!("({} + {})", a.render(), b.render()),
        }
    }
}

impl Cond {
    fn render(&self) -> String {
        match self {
            Cond::Int(op, a, b) => format!("({} {op} {})", a.render(), b.render()),
            Cond::Str(op, a, b) => format!("({} {op} {})", a.render(), b.render()),
        }
    }
}

/// Reserved `w` counters to declare — comfortably above the deepest
/// loop nesting the generator can produce (`prop_recursive` depth 3),
/// so distinct nesting levels never share a counter.
const MAX_LOOP_DEPTH: usize = 8;

fn render_block(stmts: &[Stmt], depth: usize, out: &mut String) {
    for s in stmts {
        match s {
            Stmt::Assign(i, e) => out.push_str(&format!("v{i} = {};\n", e.render())),
            Stmt::AssignStr(i, e) => out.push_str(&format!("s{i} = {};\n", e.render())),
            Stmt::Display(e) => out.push_str(&format!("display({});\n", e.render())),
            Stmt::DisplayStr(e) => out.push_str(&format!("display({});\n", e.render())),
            Stmt::BcAppend(e) => out.push_str(&format!("bc_append(\"LOG\", {});\n", e.render())),
            Stmt::BcSetInt(e) => out.push_str(&format!("bc_set(\"SUM\", {});\n", e.render())),
            Stmt::If(c, then, els) => {
                out.push_str(&format!("if {} {{\n", c.render()));
                render_block(then, depth, out);
                if els.is_empty() {
                    out.push_str("}\n");
                } else {
                    out.push_str("} else {\n");
                    render_block(els, depth, out);
                    out.push_str("}\n");
                }
            }
            Stmt::While(bound, body) => {
                assert!(
                    depth < MAX_LOOP_DEPTH,
                    "generator nested deeper than declared counters"
                );
                out.push_str(&format!("w{depth} = 0;\nwhile (w{depth} < {bound}) {{\n"));
                render_block(body, depth + 1, out);
                out.push_str(&format!("w{depth} = w{depth} + 1;\n}}\n"));
            }
            Stmt::MaybeExit(threshold, code) => out.push_str(&format!(
                "if (bc_len(\"LOG\") > {threshold}) {{ exit({code}); }}\n"
            )),
            Stmt::Go => out.push_str("if (go(\"tacoma://h1/vm_script\")) { display(\"miss\"); }\n"),
            Stmt::GoInHelper => out.push_str("v0 = hop(\"tacoma://h2/vm_script\");\n"),
            Stmt::Spawn => out.push_str("display(spawn(\"tacoma://h3/vm_script\"));\n"),
            Stmt::Await => out.push_str(
                "if (await_bc(50)) { display(\"mail \" + bc_len(\"LOG\")); } else { display(\"no mail\"); }\n",
            ),
            Stmt::CallHelper(dst, src) => out.push_str(&format!("v{dst} = helper(v{src});\n")),
        }
    }
}

fn render_program(stmts: &[Stmt]) -> String {
    let mut body = String::new();
    for i in 0..N_INT_VARS {
        body.push_str(&format!("let v{i} = {i};\n"));
    }
    for i in 0..N_STR_VARS {
        body.push_str(&format!("let s{i} = \"s{i}\";\n"));
    }
    for i in 0..MAX_LOOP_DEPTH {
        body.push_str(&format!("let w{i} = 0;\n"));
    }
    render_block(stmts, 0, &mut body);
    body.push_str("display(v0, v1, v2, s0, s1);\n");
    format!(
        "fn helper(x) {{ if (x < 0) {{ return 0 - x; }} return x * 2 + 1; }}\n\
         fn hop(u) {{ let t = 7; if (go(u)) {{ return t + 1; }} return t; }}\n\
         fn main() {{\n{body}}}\n"
    )
}

fn arb_int_expr() -> impl Strategy<Value = IntExpr> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(IntExpr::Lit),
        (0..N_INT_VARS).prop_map(IntExpr::Var),
        Just(IntExpr::BcLen),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| IntExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| IntExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| IntExpr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| IntExpr::Div(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| IntExpr::Mod(Box::new(a), Box::new(b))),
        ]
    })
}

fn arb_str_expr() -> impl Strategy<Value = StrExpr> {
    let leaf = prop_oneof![
        "[a-z]{0,6}".prop_map(StrExpr::Lit),
        (0..N_STR_VARS).prop_map(StrExpr::Var),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), arb_int_expr()).prop_map(|(a, b)| StrExpr::ConcatInt(Box::new(a), b)),
            (inner.clone(), inner).prop_map(|(a, b)| StrExpr::Concat(Box::new(a), Box::new(b))),
        ]
    })
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    let op = || (0..COMPARISONS.len()).prop_map(|i| COMPARISONS[i]);
    // Int conditions twice as often: the stand-in proptest has no weights.
    prop_oneof![
        (op(), arb_int_expr(), arb_int_expr()).prop_map(|(o, a, b)| Cond::Int(o, a, b)),
        (op(), arb_int_expr(), arb_int_expr()).prop_map(|(o, a, b)| Cond::Int(o, a, b)),
        (op(), arb_str_expr(), arb_str_expr()).prop_map(|(o, a, b)| Cond::Str(o, a, b)),
    ]
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        ((0..N_INT_VARS), arb_int_expr()).prop_map(|(i, e)| Stmt::Assign(i, e)),
        ((0..N_STR_VARS), arb_str_expr()).prop_map(|(i, e)| Stmt::AssignStr(i, e)),
        arb_int_expr().prop_map(Stmt::Display),
        arb_str_expr().prop_map(Stmt::DisplayStr),
        arb_str_expr().prop_map(Stmt::BcAppend),
        arb_int_expr().prop_map(Stmt::BcSetInt),
        ((2i64..12), (0i64..50)).prop_map(|(t, c)| Stmt::MaybeExit(t, c)),
        Just(Stmt::Go),
        Just(Stmt::GoInHelper),
        Just(Stmt::Spawn),
        Just(Stmt::Await),
        ((0..N_INT_VARS), (0..N_INT_VARS)).prop_map(|(d, s)| Stmt::CallHelper(d, s)),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                arb_cond(),
                prop::collection::vec(inner.clone(), 0..4),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(c, t, e)| Stmt::If(c, t, e)),
            ((1i64..6), prop::collection::vec(inner, 0..4))
                .prop_map(|(b, body)| Stmt::While(b, body)),
        ]
    })
}

fn arb_program() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_stmt(), 1..8).prop_map(|stmts| render_program(&stmts))
}

/// Everything one run can observe from the outside.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<Outcome, RuntimeError>,
    displayed: Vec<String>,
    briefcase: Briefcase,
}

fn seeded_briefcase() -> Briefcase {
    let mut bc = Briefcase::new();
    bc.append("LOG", "seed");
    bc
}

fn run_tier(program: &Program, fuel: u64, legacy: bool) -> (Observed, u64) {
    let mut bc = seeded_briefcase();
    let mut vm = Vm::new(program, NullHooks::default()).with_fuel(fuel);
    let result = if legacy {
        vm.run_legacy(&mut bc)
    } else {
        vm.run(&mut bc)
    };
    let used = fuel - vm.fuel_remaining();
    (
        Observed {
            result,
            displayed: vm.into_hooks().displayed,
            briefcase: bc,
        },
        used,
    )
}

fn assert_parity(program: &Program, src: &str) {
    let (legacy, used_legacy) = run_tier(program, DEFAULT_FUEL, true);
    let (fused, used_fused) = run_tier(program, DEFAULT_FUEL, false);

    assert_eq!(legacy, fused, "tiers diverged on:\n{src}");
    assert_eq!(
        legacy.briefcase.encode(),
        fused.briefcase.encode(),
        "briefcase wire images diverged on:\n{src}"
    );

    // Fuel: equal totals whenever the run terminated (normally, exit,
    // or go) — terminators end blocks, so fused charges catch up
    // exactly. Errors may leave the fused tier up to one block ahead.
    let max_block = program.max_block_cost();
    match &legacy.result {
        Ok(_) => assert_eq!(
            used_legacy, used_fused,
            "fuel totals diverged on a terminating run:\n{src}"
        ),
        Err(_) => {
            assert!(
                used_fused >= used_legacy && used_fused - used_legacy <= max_block,
                "fused used {used_fused}, legacy used {used_legacy}, \
                 max block {max_block}:\n{src}"
            );
        }
    }
}

/// A host that settles every `go`, `spawn` and `await_bc` from a verdict
/// script: bit `i` of `bits` decides the `i`-th such call (set: moved,
/// the child `child-i` spawned, or mail `mail-i` already queued; clear:
/// unreachable, nil, or an empty mailbox).
#[derive(Debug, Default)]
struct Verdicts {
    bits: u64,
    next: u32,
    displayed: Vec<String>,
}

impl Verdicts {
    fn new(bits: u64) -> Self {
        Verdicts {
            bits,
            ..Verdicts::default()
        }
    }

    fn take(&mut self) -> (bool, u32) {
        let i = self.next;
        self.next += 1;
        (self.bits >> (i % 64) & 1 == 1, i)
    }
}

impl HostHooks for Verdicts {
    fn display(&mut self, text: &str) {
        self.displayed.push(text.to_owned());
    }
    fn go(&mut self, _uri: &str, _bc: &Briefcase) -> GoDecision {
        match self.take() {
            (true, _) => GoDecision::Moved,
            (false, _) => GoDecision::Unreachable,
        }
    }
    fn spawn(&mut self, _uri: &str, _bc: &Briefcase) -> Option<String> {
        match self.take() {
            (true, i) => Some(format!("child-{i}")),
            (false, _) => None,
        }
    }
    fn activate(&mut self, _uri: &str, _bc: &Briefcase) -> bool {
        false
    }
    fn meet(&mut self, _uri: &str, _bc: &Briefcase) -> Option<Briefcase> {
        None
    }
    fn await_bc(&mut self, _timeout_ms: i64) -> Option<Briefcase> {
        match self.take() {
            (true, i) => {
                let mut mail = Briefcase::new();
                mail.append("LOG", format!("mail-{i}"));
                Some(mail)
            }
            (false, _) => None,
        }
    }
    fn now_ms(&mut self) -> i64 {
        0
    }
    fn host_name(&mut self) -> String {
        "localhost".to_owned()
    }
}

/// Leaves every `go`, `spawn` and `await_bc` unanswered once: the first
/// poll answers pending, the poll at resume answers through the inner
/// host — a transfer's verdict, or an `await_bc`'s mail (the wake) or
/// none (the deadline).
#[derive(Debug)]
struct Deferring {
    inner: Verdicts,
    pending: bool,
    suspensions: usize,
}

impl Deferring {
    fn defer(&mut self) -> bool {
        self.pending = !self.pending;
        self.suspensions += usize::from(self.pending);
        self.pending
    }
}

impl HostHooks for Deferring {
    fn display(&mut self, text: &str) {
        self.inner.display(text);
    }
    fn go(&mut self, uri: &str, bc: &Briefcase) -> GoDecision {
        self.inner.go(uri, bc)
    }
    fn spawn(&mut self, uri: &str, bc: &Briefcase) -> Option<String> {
        self.inner.spawn(uri, bc)
    }
    fn activate(&mut self, uri: &str, bc: &Briefcase) -> bool {
        self.inner.activate(uri, bc)
    }
    fn meet(&mut self, uri: &str, bc: &Briefcase) -> Option<Briefcase> {
        self.inner.meet(uri, bc)
    }
    fn await_bc(&mut self, timeout_ms: i64) -> Option<Briefcase> {
        self.inner.await_bc(timeout_ms)
    }
    fn now_ms(&mut self) -> i64 {
        self.inner.now_ms()
    }
    fn host_name(&mut self) -> String {
        self.inner.host_name()
    }
    fn poll_go(&mut self, uri: &str, bc: &Briefcase) -> Poll<GoDecision> {
        if self.defer() {
            Poll::Pending
        } else {
            Poll::Ready(self.inner.go(uri, bc))
        }
    }
    fn poll_spawn(&mut self, uri: &str, bc: &Briefcase) -> Poll<Option<String>> {
        if self.defer() {
            Poll::Pending
        } else {
            Poll::Ready(self.inner.spawn(uri, bc))
        }
    }
    fn poll_await(&mut self, timeout_ms: i64) -> Poll<Option<Briefcase>> {
        if self.defer() {
            Poll::Pending
        } else {
            Poll::Ready(self.inner.await_bc(timeout_ms))
        }
    }
}

/// One tier run straight through against `Verdicts(bits)`: every
/// `await_bc` finds its mail already queued, or the mailbox empty.
/// Returns the number of transfers and awaits it asked for too.
fn run_uninterrupted(program: &Program, bits: u64, legacy: bool) -> (Observed, u64, usize) {
    let mut bc = seeded_briefcase();
    let mut vm = Vm::new(program, Verdicts::new(bits));
    let result = if legacy {
        vm.run_legacy(&mut bc)
    } else {
        vm.run(&mut bc)
    };
    let used = DEFAULT_FUEL - vm.fuel_remaining();
    let hooks = vm.into_hooks();
    let observed = Observed {
        result,
        displayed: hooks.displayed,
        briefcase: bc,
    };
    (observed, used, hooks.next as usize)
}

/// The fused run with every transfer left in flight and every mailbox
/// empty once: it suspends at each `go`/`spawn`/`await_bc` and is
/// resumed from its scratch. Returns the number of suspensions too.
fn run_suspending(program: &Program, bits: u64) -> (Observed, u64, usize) {
    let mut bc = seeded_briefcase();
    let hooks = Deferring {
        inner: Verdicts::new(bits),
        pending: false,
        suspensions: 0,
    };
    let mut vm = Vm::new(program, hooks);
    let mut scratch = ExecScratch::new();
    let mut result = vm.run_with_scratch(&mut bc, &mut scratch);
    let mut fuel = vm.fuel_remaining();
    while let Ok(Outcome::Suspended) = result {
        assert!(scratch.is_suspended());
        result = scratch.resume(vm.hooks_mut(), &mut bc);
        fuel = scratch.fuel_remaining();
    }
    assert!(!scratch.is_suspended());
    let hooks = vm.into_hooks();
    let observed = Observed {
        result,
        displayed: hooks.inner.displayed,
        briefcase: bc,
    };
    (observed, DEFAULT_FUEL - fuel, hooks.suspensions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A run that suspends at every `go`, `spawn` and `await_bc` and is
    /// resumed with the answer equals the uninterrupted run on either
    /// tier: outcome, display trace, briefcase bytes and fuel. The
    /// verdict script covers both answers — moved (the run ends there)
    /// and unreachable (the script carries on from the call), both for
    /// `spawn` — and both for `await_bc`: woken with mail equals a legacy
    /// run with that mail already queued, resumed at the deadline with
    /// none equals a run against an empty mailbox.
    #[test]
    fn suspended_run_matches_uninterrupted(src in arb_program(), bits in any::<u64>()) {
        let program = compile_source(&src).expect("generated source compiles");
        let (straight, used_straight, calls) = run_uninterrupted(&program, bits, false);
        let (legacy, used_legacy, _) = run_uninterrupted(&program, bits, true);
        let (resumed, used_resumed, suspensions) = run_suspending(&program, bits);
        prop_assert_eq!(&straight, &resumed, "suspension changed the run of:\n{}", src);
        prop_assert_eq!(&legacy, &resumed, "suspension diverged from legacy on:\n{}", src);
        prop_assert_eq!(legacy.briefcase.encode(), resumed.briefcase.encode());
        prop_assert_eq!(used_straight, used_resumed, "fuel diverged on:\n{}", src);
        // As in `fused_matches_legacy`: equal totals on every run that
        // terminates; a fault may leave the fused tier one block ahead.
        if legacy.result.is_ok() {
            prop_assert_eq!(used_legacy, used_resumed, "legacy fuel diverged on:\n{}", src);
        }
        prop_assert_eq!(calls, suspensions, "every transfer and await suspends once");
    }

    /// With generous fuel both tiers agree on outcome, display trace,
    /// briefcase mutations, error class, and (for terminating runs)
    /// exact fuel totals.
    #[test]
    fn fused_matches_legacy(src in arb_program()) {
        let program = compile_source(&src).expect("generated source compiles");
        assert_parity(&program, &src);
    }

    /// Out-of-fuel parity at every budget below the full cost of a
    /// cleanly terminating run: legacy out-of-fuel implies fused
    /// out-of-fuel at the same budget (fused never runs *longer*), and
    /// the fused tier never fires more than one basic block early.
    #[test]
    fn out_of_fuel_fires_within_one_block(src in arb_program(), frac_pct in 0u64..100) {
        let program = compile_source(&src).expect("generated source compiles");
        let (legacy_full, used_legacy) = run_tier(&program, DEFAULT_FUEL, true);
        // Only cleanly terminating programs have a well-defined "full
        // cost"; faulting samples are covered by `fused_matches_legacy`.
        if legacy_full.result.is_ok() && used_legacy > 0 {
            let (_, used_fused) = run_tier(&program, DEFAULT_FUEL, false);
            prop_assert_eq!(used_legacy, used_fused);

            // Sample a budget below the requirement: both tiers must
            // report OutOfFuel — the fused tier can fire early (at the
            // failing block's fence) but never late.
            let budget = (used_legacy * frac_pct / 100).min(used_legacy - 1);
            let (legacy_short, _) = run_tier(&program, budget, true);
            let (fused_short, _) = run_tier(&program, budget, false);
            prop_assert_eq!(legacy_short.result, Err(RuntimeError::OutOfFuel));
            prop_assert_eq!(fused_short.result, Err(RuntimeError::OutOfFuel));

            // And at exactly the required budget, both complete.
            let (legacy_exact, _) = run_tier(&program, used_legacy, true);
            let (fused_exact, _) = run_tier(&program, used_legacy, false);
            prop_assert!(legacy_exact.result.is_ok());
            prop_assert!(fused_exact.result.is_ok());
        }
    }
}

/// The golden Figure-4 itinerary agent behaves identically on both
/// tiers, including its display trace and drained HOSTS folder.
#[test]
fn figure4_agent_parity() {
    let src = r#"fn main() {
        while (1) {
            display("Hello world");
            let e = bc_remove("HOSTS", 0);
            if (e == nil) { exit(0); }
            if (go(e)) { display("Unable to reach " + e); }
        }
    }"#;
    let program = compile_source(src).unwrap();
    let run = |legacy: bool| {
        let mut bc = Briefcase::new();
        bc.append("HOSTS", "tacoma://h1/vm")
            .append("HOSTS", "tacoma://h2/vm");
        let mut vm = Vm::new(&program, NullHooks::default());
        let result = if legacy {
            vm.run_legacy(&mut bc)
        } else {
            vm.run(&mut bc)
        };
        (result, vm.into_hooks().displayed, bc)
    };
    assert_eq!(run(true), run(false));
}

/// Known error shapes survive lowering with identical classes.
#[test]
fn error_classes_match() {
    for src in [
        "fn main() { let x = 1 / 0; }",
        "fn main() { let x = 1 % 0; }",
        r#"fn main() { let x = 1 - "a"; }"#,
        r#"fn main() { let x = nil < 1; }"#,
        "fn f() { return f(); } fn main() { f(); }",
        "fn main() { let i = 0; while (i < 10) { i = i + nil; } }",
    ] {
        let program = compile_source(src).unwrap();
        let (legacy, _) = run_tier(&program, DEFAULT_FUEL, true);
        let (fused, _) = run_tier(&program, DEFAULT_FUEL, false);
        assert_eq!(legacy, fused, "on {src}");
        assert!(legacy.result.is_err(), "on {src}");
    }
}

/// The eleven binary operators, as TaxScript source.
const OPERATORS: [&str; 11] = ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">="];

/// An operand's source literal, and whether a constant can hold it.
const OPERANDS: [(&str, bool); 5] = [
    ("7", true),
    ("\"s\"", true),
    ("nil", false),
    ("[1]", false),
    ("0", true),
];

fn type_name(literal: &str) -> &'static str {
    match literal.as_bytes()[0] {
        b'"' => "string",
        b'n' => "nil",
        b'[' => "list",
        _ => "int",
    }
}

/// What the legacy interpreter's semantics say `l op r` does: `None`
/// when it yields a value, the exact fault otherwise.
fn expected_fault(op: &'static str, l: &str, r: &str) -> Option<RuntimeError> {
    let (tl, tr) = (type_name(l), type_name(r));
    let type_error = |verb| {
        Some(RuntimeError::TypeError {
            op: verb,
            got: format!("{tl} and {tr}"),
        })
    };
    match op {
        "==" | "!=" => None,
        "+" => match (tl, tr) {
            ("int", "int") | ("list", "list") => None,
            _ if tl == "string" || tr == "string" => None,
            _ => type_error("add"),
        },
        "-" | "*" | "/" | "%" => {
            let verb = match op {
                "-" => "subtract",
                "*" => "multiply",
                "/" => "divide",
                _ => "modulo",
            };
            match (tl, tr) {
                ("int", "int") if r == "0" && matches!(op, "/" | "%") => {
                    Some(RuntimeError::DivisionByZero)
                }
                ("int", "int") => None,
                _ => type_error(verb),
            }
        }
        _ => match (tl, tr) {
            ("int", "int") | ("string", "string") => None,
            _ => type_error(op),
        },
    }
}

/// Every operator in every operand form the lowering has — local∘const,
/// local∘local, expr∘local, expr∘const, expr∘expr, each with its result
/// stored, pushed, or branched on — over ints, strings, `nil`, lists and
/// a zero divisor. Both tiers must give the exact `Result` the legacy
/// semantics predict (the `got` text included), the same display trace
/// and briefcase bytes, and the same fuel under the block rule.
#[test]
fn operand_forms_fault_like_legacy() {
    let mut cases = 0;
    for op in OPERATORS {
        for (l, _) in OPERANDS {
            for (r, r_is_const) in OPERANDS {
                let shapes = [
                    ("local∘const", format!("a {op} {r}"), r_is_const),
                    ("local∘local", format!("a {op} b"), true),
                    ("expr∘local", format!("id(a) {op} b"), true),
                    ("expr∘const", format!("id(a) {op} {r}"), r_is_const),
                    ("expr∘expr", format!("id(a) {op} id(b)"), true),
                ];
                for (shape, expr, applies) in shapes {
                    if !applies {
                        continue;
                    }
                    for stmt in [
                        format!("r = {expr}; display(r);"),
                        format!("display({expr});"),
                        format!("if ({expr}) {{ display(\"yes\"); }} else {{ display(\"no\"); }}"),
                    ] {
                        let src = format!(
                            "fn id(x) {{ return x; }}\n\
                             fn main() {{\n\
                                 let a = {l}; let b = {r}; let r = nil;\n\
                                 display(\"before\"); bc_append(\"LOG\", \"before\");\n\
                                 {stmt}\n\
                                 bc_append(\"LOG\", \"after\");\n\
                             }}\n"
                        );
                        let program = compile_source(&src).expect("table source compiles");
                        assert_parity(&program, &src);
                        let (legacy, _) = run_tier(&program, DEFAULT_FUEL, true);
                        let expected = match expected_fault(op, l, r) {
                            Some(fault) => Err(fault),
                            None => Ok(Outcome::Finished),
                        };
                        assert_eq!(legacy.result, expected, "{shape}:\n{src}");
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 11 * (3 * 25 + 2 * 15) * 3);
}

/// A wire `Const` whose index is out of range faults "bad constant
/// index" on both tiers, wherever it sits — including inside every
/// fusable window (operand forms, folding, constant builtin calls) and
/// at the first index past the wire pool, which in the lowered pool
/// would name a folded constant.
#[test]
fn bad_constant_in_a_fusable_window_faults_on_both_tiers() {
    let src = r#"fn main() {
        let a = 1; let r = 0;
        display("start");
        r = a + 5;
        display(a * 6);
        r = 2 + 3;
        r = 4 / 2 == 1;
        r = id(a) - 7;
        display(8);
        exit(0);
    }
    fn id(x) { return x; }"#;
    let program = compile_source(src).unwrap();
    let main = program.main_index();
    let n_consts = program.constants().len() as u16;
    let const_pcs: Vec<usize> = program.functions()[main]
        .code
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Const(_)))
        .map(|(pc, _)| pc)
        .collect();
    assert!(const_pcs.len() >= 8, "{const_pcs:?}");
    for pc in const_pcs {
        for bad in [n_consts, u16::MAX] {
            let mut broken = program.clone();
            broken.functions_mut()[main].code[pc] = Op::Const(bad);
            let (legacy, _) = run_tier(&broken, DEFAULT_FUEL, true);
            assert_eq!(
                legacy.result,
                Err(RuntimeError::CorruptProgram {
                    detail: "bad constant index"
                }),
                "pc {pc}, index {bad}"
            );
            assert_parity(&broken, &format!("{src}\n(pc {pc} -> Const({bad}))"));
        }
    }
}

/// Expression temporaries live in frame slots past the wire locals. A
/// wire `Load` or `Store` of slot `n_locals` — where the function's first
/// temp lives — still faults "bad local slot" on both tiers.
#[test]
fn a_bad_slot_never_reaches_a_temp() {
    let src = r#"fn main() {
        let sum = 5; let k = 3;
        display("start");
        sum = (sum * 31 + k) % 1000003;
        display(sum);
    }"#;
    let program = compile_source(src).unwrap();
    let main = program.main_index();
    let n = program.functions()[main].n_locals;
    for (at, planted) in [
        (0, vec![Op::Load(n), Op::Pop]),
        (0, vec![Op::Const(0), Op::Store(n)]),
        (8, vec![Op::Load(n), Op::Pop]),
    ] {
        let mut broken = program.clone();
        let code = &mut broken.functions_mut()[main].code;
        code.splice(at..at, planted.iter().copied());
        let (legacy, _) = run_tier(&broken, DEFAULT_FUEL, true);
        assert_eq!(
            legacy.result,
            Err(RuntimeError::CorruptProgram {
                detail: "bad local slot"
            }),
            "{planted:?} at {at}"
        );
        assert_parity(&broken, &format!("{src}\n({planted:?} at {at})"));
    }
}

/// Operator chains whose intermediate values sit in temps: a store target
/// read inside its own expression, two temps at once, a zero divisor at
/// the end of a chain, and a recursive function whose frames each hold
/// a temp.
#[test]
fn operator_chains_through_temps_keep_parity() {
    for src in [
        "fn main() { let a = 3; let b = 4; a = b + a * 2; display(a); }",
        "fn main() { let a = 2; let b = 3; let c = 5; let d = 7; let x = 0;
            x = (a * b) + (c * d); display(x); }",
        "fn main() { let v = 9; let z = 0; display(\"before\"); v = (v + 1) / z; display(v); }",
        "fn f(x) { if (x == 0) { return 0; } return (x * 2 + f(x - 1)) % 7; }
         fn main() { display(f(6)); display(f(20)); }",
    ] {
        let program = compile_source(src).unwrap();
        assert_parity(&program, src);
        let (legacy, _) = run_tier(&program, DEFAULT_FUEL, true);
        if src.contains("/ z") {
            assert_eq!(legacy.result, Err(RuntimeError::DivisionByZero), "{src}");
        } else {
            assert_eq!(legacy.result, Ok(Outcome::Finished), "{src}");
        }
    }
}

/// The wire locals of [`arb_wire_main`]'s `main`; slot `WIRE_LOCALS` is
/// out of range, where the first expression temporary lives.
const WIRE_LOCALS: u16 = 2;

/// A `main` of raw wire ops rather than compiled source: locals seeded
/// with ints and a string, then `body` (loads and stores of every slot
/// and one past the end, constants in and out of range, every operator,
/// stack shuffles and forward branches, in any order the strategy picks),
/// then each local displayed. Compiled code never stores into a local an
/// unfinished expression has loaded, nor underflows the stack; this does.
fn arb_wire_main() -> impl Strategy<Value = Program> {
    const BINARY: [Op; 11] = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::Mod,
        Op::Eq,
        Op::Ne,
        Op::Lt,
        Op::Le,
        Op::Gt,
        Op::Ge,
    ];
    let base = compile_source(
        r#"fn main() { let a = 0; let b = 1; let c = 7; let d = "s"; display(d); }"#,
    )
    .expect("seed source compiles");
    let n_consts = base.constants().len() as u16;
    // Weighted by the pick's range: loads, constants, operators,
    // stores, then the rest once each. One slot or constant index in
    // sixteen is out of range.
    let op = (0u16..22, 0u16..64).prop_map(move |(pick, n)| {
        let slot = if n % 16 == 0 {
            WIRE_LOCALS
        } else {
            n % WIRE_LOCALS
        };
        let konst = if n % 16 == 0 { n_consts } else { n % n_consts };
        match pick {
            0..=4 => Op::Load(slot),
            5..=7 => Op::Const(konst),
            8..=11 => BINARY[usize::from(n) % BINARY.len()],
            12..=14 => Op::Store(slot),
            15 => Op::Dup,
            16 => Op::Pop,
            17 => Op::Neg,
            18 => Op::Not,
            19 => Op::Nil,
            20 => Op::JumpIfFalse(1 + u32::from(n % 5)),
            _ => Op::Jump(1 + u32::from(n % 5)),
        }
    });
    prop::collection::vec(op, 1..32).prop_map(move |picked| {
        // Mostly no underflow on the straight-line path: an op that
        // would pop more than is there becomes a load.
        let mut depth = 0usize;
        let mut body = Vec::with_capacity(picked.len());
        for op in picked {
            let (pops, pushes) = match op {
                Op::Load(_) | Op::Const(_) | Op::Nil => (0, 1),
                Op::Dup => (1, 2),
                Op::Store(_) | Op::Pop | Op::JumpIfFalse(_) => (1, 0),
                Op::Neg | Op::Not => (1, 1),
                Op::Jump(_) => (0, 0),
                _ => (2, 1),
            };
            if pops > depth {
                body.push(Op::Load(depth as u16 % WIRE_LOCALS));
                depth += 1;
            } else {
                body.push(op);
                depth = depth - pops + pushes;
            }
        }
        let mut program = base.clone();
        let main = program.main_index();
        let mut code = Vec::new();
        for slot in 0..WIRE_LOCALS {
            code.extend([Op::Const(slot + 1), Op::Store(slot)]);
        }
        let start = code.len() as u32;
        let end = start + body.len() as u32;
        for (i, op) in body.into_iter().enumerate() {
            // Branches jump forward by `skip`, at most to the tail.
            let to = |skip: u32| (start + i as u32 + skip).min(end);
            code.push(match op {
                Op::JumpIfFalse(skip) => Op::JumpIfFalse(to(skip)),
                Op::Jump(skip) => Op::Jump(to(skip)),
                op => op,
            });
        }
        for slot in 0..WIRE_LOCALS {
            code.extend([
                Op::Load(slot),
                Op::CallBuiltin {
                    builtin: Builtin::Display,
                    argc: 1,
                },
                Op::Pop,
            ]);
        }
        code.extend([Op::Nil, Op::Return]);
        let f = &mut program.functions_mut()[main];
        f.n_locals = WIRE_LOCALS;
        f.code = code;
        program
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    /// Raw wire blocks — stores into locals an operator chain has loaded,
    /// underflows, bad slots and constants beside temps — run the same on
    /// both tiers: outcome, fault text, display trace and fuel.
    #[test]
    fn wire_blocks_match_legacy(program in arb_wire_main()) {
        let listing = format!("{:?}", program.functions()[program.main_index()].code);
        assert_parity(&program, &listing);
    }
}
