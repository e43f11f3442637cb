//! The compile tier: lowering wire [`Op`] programs into the dense
//! internal [`ExecOp`] form the fused dispatcher runs.
//!
//! The wire `Op` enum stays the stable interchange format — the
//! analyzer, golden corpus, and briefcase encoding never see `ExecOp`.
//! Lowering happens lazily (and exactly once) per [`Program`] via
//! [`Program::exec`](crate::Program), and performs three rewrites:
//!
//! 1. **Constant folding** — `Const a; Const b; <op>` with statically
//!    known operands collapses to a single push (or `True`/`False` for
//!    comparisons) wherever the operator cannot fault. A zero divisor or
//!    a type error is left in place so it faults at run time exactly
//!    like the legacy interpreter.
//! 2. **Operand addressing** — every binary operator lowers to one of a
//!    small family of [`BinOp`] forms that read their operands where
//!    they live: a local, a constant, or the stack top. `Load; Const;
//!    op` becomes `BinLK`, `Load; Load; op` `BinLL`, `Load; op` and
//!    `Const; op` rewrite the stack top in place (`BinSL`, `BinSK`), as
//!    does a bare operator (`Bin`) after popping its right operand,
//!    and a trailing `Store` or `JumpIfFalse` folds into the two-operand
//!    forms (`BinLLStore`, `BinLKStore`, `BinLKJf`). `Const+CallBuiltin`
//!    also becomes one `ExecOp`. None of this is keyed to an operator:
//!    every form takes every `BinOp`.
//! 3. **Basic-block fuel accounting** — every block begins with an
//!    [`ExecOp::Fence`] carrying the block's *wire* instruction count.
//!    The dispatcher charges the whole block at entry instead of
//!    checking fuel per instruction, so a fused op's cost is exactly
//!    the number of wire ops it replaced and totals agree with the
//!    legacy interpreter at every block boundary.
//!
//! Fusion never crosses a block boundary: a window is only fused when
//! none of its interior instructions is a jump target, so every wire
//! jump target maps 1:1 onto a lowered block entry.

use std::collections::BTreeSet;

use crate::dispatch::binop;
use crate::program::{Const, FnProto};
use crate::{Builtin, Op, Program, Value};

/// Straight-line runs longer than this are split into multiple blocks,
/// bounding how far the fused tier's fuel and stack checks can drift
/// from the legacy per-instruction points.
pub(crate) const MAX_BLOCK_WIRE_OPS: usize = 64;

/// The eleven wire binary operators, as one operand of the
/// operand-addressed [`ExecOp`] forms. The dispatcher's one kernel
/// ([`binop`]) evaluates all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// The operator a wire op applies, if it is a binary operator —
    /// exactly the ops [`mirror`] lowers to [`ExecOp::Bin`].
    fn of(op: Op) -> Option<BinOp> {
        match mirror(op, 0) {
            ExecOp::Bin(op) => Some(op),
            _ => None,
        }
    }
}

/// One lowered instruction. Unlike the wire [`Op`], constant indices
/// are `u32` (folding can grow the pool past `u16`) and the fused
/// variants carry several operands, so `ExecOp` is allowed to be wider
/// than `Op` — 16 bytes instead of 8 (asserted by `exec_ops_are_small`).
///
/// The `Bin*` forms name where their operands come from: `L` a local
/// slot, `K` a constant, `S` the stack top (`a` is the left operand).
/// The `S` forms overwrite the top in place rather than popping and
/// pushing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ExecOp {
    /// Block prologue: charge `cost` fuel (the wire instruction count of
    /// the block) and bounds-check the value stack.
    Fence(u32),
    /// Push `consts[idx]`.
    Const(u32),
    /// A wire `Const` whose pool index was out of range; faults with the
    /// same error the legacy interpreter raises when it executes.
    BadConst,
    Nil,
    True,
    False,
    Load(u16),
    Store(u16),
    Pop,
    Dup,
    Neg,
    Not,
    /// A bare wire operator (1 wire op): pop `b`, then top ∘= `b`.
    Bin(BinOp),
    /// `Load slot; op` (2 wire ops): top ∘= local.
    BinSL {
        op: BinOp,
        slot: u16,
    },
    /// `Const cidx; op` (2 wire ops): top ∘= constant.
    BinSK {
        op: BinOp,
        cidx: u32,
    },
    /// `Load a; Load b; op` (3 wire ops): push `a ∘ b`.
    BinLL {
        op: BinOp,
        a: u16,
        b: u16,
    },
    /// `Load slot; Const cidx; op` (3 wire ops): push local ∘ constant.
    BinLK {
        op: BinOp,
        slot: u16,
        cidx: u32,
    },
    /// `Load a; Load b; op; Store dst` (4 wire ops).
    BinLLStore {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `Load slot; Const cidx; op; Store dst` (4 wire ops) — e.g. the
    /// `i = i + 1` counter bump.
    BinLKStore {
        op: BinOp,
        slot: u16,
        cidx: u32,
        dst: u16,
    },
    /// `Load slot; Const cidx; op; JumpIfFalse target` (4 wire ops) —
    /// e.g. the `while (i < n)` loop header. Jumps when the result is
    /// falsy.
    BinLKJf {
        op: BinOp,
        slot: u16,
        cidx: u32,
        target: u32,
    },
    Jump(u32),
    JumpIfFalse(u32),
    JumpIfTrue(u32),
    MakeList(u16),
    Index,
    Call {
        fn_idx: u16,
        argc: u8,
    },
    CallBuiltin {
        builtin: Builtin,
        argc: u8,
    },
    Return,
    /// `Const cidx; CallBuiltin` (2 wire ops) — e.g. `exit(0)`,
    /// `display("…")`, `bc_len("HOSTS")`.
    ConstCallBuiltin {
        cidx: u32,
        builtin: Builtin,
        argc: u8,
    },
}

/// One lowered function body.
#[derive(Debug)]
pub(crate) struct ExecFn {
    pub(crate) code: Vec<ExecOp>,
    pub(crate) n_locals: u16,
}

/// A lowered program: the constant pool pre-converted to [`Value`]s
/// (plus any constants materialized by folding) and one [`ExecFn`] per
/// wire function.
#[derive(Debug)]
pub(crate) struct ExecProgram {
    pub(crate) consts: Vec<Value>,
    pub(crate) fns: Vec<ExecFn>,
    pub(crate) main_idx: u16,
    /// The largest single block charge in the program — the bound on
    /// how much earlier (in fuel units) the fused tier can report
    /// out-of-fuel relative to the legacy interpreter.
    pub(crate) max_block_cost: u32,
}

impl ExecProgram {
    /// Lowers a wire program. Never fails: statically malformed
    /// references become runtime-faulting ops with the same error the
    /// legacy interpreter raises, so lowering needs no `Result` and the
    /// fused tier accepts exactly the programs the legacy tier accepts.
    pub(crate) fn lower(program: &Program) -> ExecProgram {
        let mut consts: Vec<Value> = program
            .constants()
            .iter()
            .map(|c| match c {
                Const::Int(v) => Value::Int(*v),
                Const::Str(s) => Value::Str(s.clone()),
            })
            .collect();
        let n_wire_consts = consts.len();
        let mut max_block_cost = 0u32;
        let fns = program
            .functions()
            .iter()
            .map(|f| lower_fn(f, n_wire_consts, &mut consts, &mut max_block_cost))
            .collect();
        ExecProgram {
            consts,
            fns,
            main_idx: program.main_index() as u16,
            max_block_cost,
        }
    }
}

/// Ops that end a basic block: control transfers plus builtin calls
/// (builtins can terminate the run, so ending the block there keeps
/// fused and legacy fuel totals equal at every termination point).
fn is_terminator(op: Op) -> bool {
    matches!(
        op,
        Op::Jump(_)
            | Op::JumpIfFalse(_)
            | Op::JumpIfTrue(_)
            | Op::Call { .. }
            | Op::CallBuiltin { .. }
            | Op::Return
    )
}

fn lower_fn(
    f: &FnProto,
    n_wire_consts: usize,
    consts: &mut Vec<Value>,
    max_block_cost: &mut u32,
) -> ExecFn {
    let len = f.code.len();

    // Pass 1: basic-block boundaries — function entry, every jump
    // target, every post-terminator position, and cap-splits of long
    // straight-line runs.
    let mut starts = BTreeSet::new();
    starts.insert(0);
    starts.insert(len);
    for (i, &op) in f.code.iter().enumerate() {
        if is_terminator(op) {
            starts.insert(i + 1);
        }
        match op {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfTrue(t) => {
                let t = t as usize;
                if t <= len {
                    starts.insert(t);
                }
            }
            _ => {}
        }
    }
    let natural: Vec<usize> = starts.iter().copied().collect();
    for w in natural.windows(2) {
        let mut at = w[0] + MAX_BLOCK_WIRE_OPS;
        while at < w[1] {
            starts.insert(at);
            at += MAX_BLOCK_WIRE_OPS;
        }
    }
    let starts: Vec<usize> = starts.iter().copied().collect();

    // Pass 2: emit, fusing within blocks; `map[wire_pc] -> lowered pc`.
    let mut code: Vec<ExecOp> = Vec::with_capacity(len + starts.len());
    let mut map = vec![0u32; len + 1];
    for w in starts.windows(2) {
        let (start, end) = (w[0], w[1]);
        let cost = (end - start) as u32;
        *max_block_cost = (*max_block_cost).max(cost);
        let fence_at = code.len() as u32;
        code.push(ExecOp::Fence(cost));
        let mut pc = start;
        while pc < end {
            let at = code.len() as u32;
            let (op, used) = fuse_at(&f.code[pc..end], n_wire_consts, consts);
            code.push(op);
            for k in 0..used {
                map[pc + k] = at;
            }
            pc += used;
        }
        // A jump to the block start must land on the Fence (charging the
        // block), not on its first instruction.
        map[start] = fence_at;
    }
    map[len] = code.len() as u32;

    // Pass 3: retarget jumps into the lowered index space. In-range
    // targets are always block starts, so they land on a Fence;
    // off-the-end targets (legal per `Program::validate`) map past the
    // lowered code and fault as "pc ran off the end", like the legacy
    // interpreter.
    let off_end = code.len() as u32;
    for op in &mut code {
        match op {
            ExecOp::Jump(t)
            | ExecOp::JumpIfFalse(t)
            | ExecOp::JumpIfTrue(t)
            | ExecOp::BinLKJf { target: t, .. } => {
                let wire_t = *t as usize;
                *t = if wire_t <= len { map[wire_t] } else { off_end };
            }
            _ => {}
        }
    }

    ExecFn {
        code,
        n_locals: f.n_locals,
    }
}

/// Where an operand-addressed form reads an operand: a local slot or an
/// in-range wire constant.
#[derive(Clone, Copy)]
enum Operand {
    Local(u16),
    Konst(u32),
}

/// Tries each fusion window (longest first) at the head of `w`, which
/// never extends past the current block. Returns the lowered op and how
/// many wire ops it consumed.
fn fuse_at(w: &[Op], n_wire_consts: usize, consts: &mut Vec<Value>) -> (ExecOp, usize) {
    // An out-of-range `Const` is no operand: its window is not fused and
    // it lowers through `mirror` to `BadConst`.
    let operand = |i: usize| match w.get(i) {
        Some(&Op::Load(slot)) => Some(Operand::Local(slot)),
        Some(&Op::Const(c)) if (c as usize) < n_wire_consts => Some(Operand::Konst(c.into())),
        _ => None,
    };
    let bin = |i: usize| w.get(i).copied().and_then(BinOp::of);

    if let (Some(Operand::Konst(i)), Some(Operand::Konst(j)), Some(op)) =
        (operand(0), operand(1), bin(2))
    {
        if let Some(folded) = fold_consts(i, j, op, consts) {
            return (folded, 3);
        }
    }
    if let (Some(Operand::Local(a)), Some(b), Some(op)) = (operand(0), operand(1), bin(2)) {
        return match (b, w.get(3)) {
            (Operand::Local(b), Some(&Op::Store(dst))) => (ExecOp::BinLLStore { op, a, b, dst }, 4),
            (Operand::Konst(cidx), Some(&Op::Store(dst))) => (
                ExecOp::BinLKStore {
                    op,
                    slot: a,
                    cidx,
                    dst,
                },
                4,
            ),
            (Operand::Konst(cidx), Some(&Op::JumpIfFalse(target))) => (
                ExecOp::BinLKJf {
                    op,
                    slot: a,
                    cidx,
                    target,
                },
                4,
            ),
            (Operand::Local(b), _) => (ExecOp::BinLL { op, a, b }, 3),
            (Operand::Konst(cidx), _) => (ExecOp::BinLK { op, slot: a, cidx }, 3),
        };
    }
    if let (Some(b), Some(op)) = (operand(0), bin(1)) {
        let fused = match b {
            Operand::Local(slot) => ExecOp::BinSL { op, slot },
            Operand::Konst(cidx) => ExecOp::BinSK { op, cidx },
        };
        return (fused, 2);
    }
    if let (Some(Operand::Konst(cidx)), Some(&Op::CallBuiltin { builtin, argc })) =
        (operand(0), w.get(1))
    {
        return (
            ExecOp::ConstCallBuiltin {
                cidx,
                builtin,
                argc,
            },
            2,
        );
    }
    (mirror(w[0], n_wire_consts), 1)
}

/// Folds `Const i; Const j; op` (both wire constants) when the legacy
/// interpreter could not fault on it — exactly when the kernel returns
/// `Ok`. A zero divisor or a type error is left to run time.
fn fold_consts(i: u32, j: u32, op: BinOp, consts: &mut Vec<Value>) -> Option<ExecOp> {
    match binop(op, &consts[i as usize], &consts[j as usize]).ok()? {
        Value::Bool(true) => Some(ExecOp::True),
        Value::Bool(false) => Some(ExecOp::False),
        v => Some(push_const(consts, v)),
    }
}

/// Interns `v` in the lowered constant pool, reusing an equal entry.
fn push_const(consts: &mut Vec<Value>, v: Value) -> ExecOp {
    if let Some(i) = consts.iter().position(|c| *c == v) {
        return ExecOp::Const(i as u32);
    }
    consts.push(v);
    ExecOp::Const((consts.len() - 1) as u32)
}

/// 1:1 lowering for everything outside a fusion window.
fn mirror(op: Op, n_wire_consts: usize) -> ExecOp {
    match op {
        // Wire constant indices are validated at decode, but programs
        // built in memory can carry bad ones. The lowered pool is the
        // wire pool *plus folded extras*, so an out-of-range wire index
        // must not be allowed to alias a folded constant — it lowers to
        // the op that raises the legacy "bad constant index" fault.
        Op::Const(i) if (i as usize) >= n_wire_consts => ExecOp::BadConst,
        Op::Const(i) => ExecOp::Const(u32::from(i)),
        Op::Nil => ExecOp::Nil,
        Op::True => ExecOp::True,
        Op::False => ExecOp::False,
        Op::Load(s) => ExecOp::Load(s),
        Op::Store(s) => ExecOp::Store(s),
        Op::Pop => ExecOp::Pop,
        Op::Dup => ExecOp::Dup,
        Op::Add => ExecOp::Bin(BinOp::Add),
        Op::Sub => ExecOp::Bin(BinOp::Sub),
        Op::Mul => ExecOp::Bin(BinOp::Mul),
        Op::Div => ExecOp::Bin(BinOp::Div),
        Op::Mod => ExecOp::Bin(BinOp::Mod),
        Op::Neg => ExecOp::Neg,
        Op::Not => ExecOp::Not,
        Op::Eq => ExecOp::Bin(BinOp::Eq),
        Op::Ne => ExecOp::Bin(BinOp::Ne),
        Op::Lt => ExecOp::Bin(BinOp::Lt),
        Op::Le => ExecOp::Bin(BinOp::Le),
        Op::Gt => ExecOp::Bin(BinOp::Gt),
        Op::Ge => ExecOp::Bin(BinOp::Ge),
        Op::Jump(t) => ExecOp::Jump(t),
        Op::JumpIfFalse(t) => ExecOp::JumpIfFalse(t),
        Op::JumpIfTrue(t) => ExecOp::JumpIfTrue(t),
        Op::MakeList(n) => ExecOp::MakeList(n),
        Op::Index => ExecOp::Index,
        Op::Call { fn_idx, argc } => ExecOp::Call { fn_idx, argc },
        Op::CallBuiltin { builtin, argc } => ExecOp::CallBuiltin { builtin, argc },
        Op::Return => ExecOp::Return,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_source;

    #[test]
    fn exec_ops_are_small() {
        // The wire `Op` must stay register-sized (≤ 8 bytes, asserted
        // in bytecode.rs) because it is the interchange format copied
        // into encode buffers and analysis tables. `ExecOp` trades that
        // for wider operands — u32 constant indices and three-operand
        // fused forms — and is allowed up to one cache-line half.
        assert!(
            std::mem::size_of::<ExecOp>() <= 16,
            "{}",
            std::mem::size_of::<ExecOp>()
        );
    }

    fn lowered_main(src: &str) -> (ExecProgram, usize) {
        let p = compile_source(src).unwrap();
        let main = p.main_index();
        (ExecProgram::lower(&p), main)
    }

    /// The operand form and operator of a lowered binary op, if any.
    fn bin_form(op: &ExecOp) -> Option<(&'static str, BinOp)> {
        Some(match *op {
            ExecOp::Bin(op) => ("Bin", op),
            ExecOp::BinSL { op, .. } => ("BinSL", op),
            ExecOp::BinSK { op, .. } => ("BinSK", op),
            ExecOp::BinLL { op, .. } => ("BinLL", op),
            ExecOp::BinLK { op, .. } => ("BinLK", op),
            ExecOp::BinLLStore { op, .. } => ("BinLLStore", op),
            ExecOp::BinLKStore { op, .. } => ("BinLKStore", op),
            ExecOp::BinLKJf { op, .. } => ("BinLKJf", op),
            _ => return None,
        })
    }

    fn forms(src: &str) -> Vec<(&'static str, BinOp)> {
        let (exec, main) = lowered_main(src);
        exec.fns[main].code.iter().filter_map(bin_form).collect()
    }

    const OPERATORS: [(&str, BinOp); 11] = [
        ("+", BinOp::Add),
        ("-", BinOp::Sub),
        ("*", BinOp::Mul),
        ("/", BinOp::Div),
        ("%", BinOp::Mod),
        ("==", BinOp::Eq),
        ("!=", BinOp::Ne),
        ("<", BinOp::Lt),
        ("<=", BinOp::Le),
        (">", BinOp::Gt),
        (">=", BinOp::Ge),
    ];

    #[test]
    fn loop_header_and_counter_bump_fuse() {
        let found = forms("fn main() { let i = 0; while (i < 10) { i = i + 1; } }");
        assert_eq!(
            found,
            [("BinLKJf", BinOp::Lt), ("BinLKStore", BinOp::Add)],
            "{found:?}"
        );
    }

    #[test]
    fn local_sum_fuses() {
        let found = forms("fn main() { let a = 1; let b = 2; let c = 0; c = a + b; }");
        assert_eq!(found, [("BinLLStore", BinOp::Add)]);
    }

    #[test]
    fn every_operand_form_takes_every_operator() {
        for (sym, op) in OPERATORS {
            let found = forms(&format!(
                "fn main() {{
                    let a = 1; let b = 2; let c = 0;
                    c = a {sym} b;
                    c = a {sym} 3;
                    display(a {sym} b);
                    display(a {sym} 3);
                    display((a {sym} b) {sym} a);
                    display((a {sym} b) {sym} 3);
                    display((a {sym} b) {sym} (a {sym} b));
                    while (a {sym} 3) {{ }}
                }}"
            ));
            for form in [
                "Bin",
                "BinSL",
                "BinSK",
                "BinLL",
                "BinLK",
                "BinLLStore",
                "BinLKStore",
                "BinLKJf",
            ] {
                assert!(found.contains(&(form, op)), "{sym}: no {form} in {found:?}");
            }
            assert!(found.iter().all(|&(_, o)| o == op), "{sym}: {found:?}");
        }
    }

    #[test]
    fn checksum_statement_lowers_to_four_ops() {
        // `sum = (sum * 31 + k) % 1000003;` is 8 wire ops: Load, Const,
        // Mul, Load, Add, Const, Mod, Store. It lowers to BinLK, BinSL,
        // BinSK and Store — nothing in the lowering knows this shape.
        let non_fence = |src: &str| {
            let (exec, main) = lowered_main(src);
            exec.fns[main]
                .code
                .iter()
                .filter(|op| !matches!(op, ExecOp::Fence(_)))
                .count()
        };
        let prelude = "let sum = 0; let k = 0;";
        let with = non_fence(&format!(
            "fn main() {{ {prelude} sum = (sum * 31 + k) % 1000003; }}"
        ));
        let without = non_fence(&format!("fn main() {{ {prelude} }}"));
        assert!(with - without <= 4, "{} ExecOps", with - without);
        let found = forms(&format!(
            "fn main() {{ {prelude} sum = (sum * 31 + k) % 1000003; }}"
        ));
        assert_eq!(
            found,
            [
                ("BinLK", BinOp::Mul),
                ("BinSL", BinOp::Add),
                ("BinSK", BinOp::Mod)
            ]
        );
    }

    #[test]
    fn const_builtin_fuses() {
        let (exec, main) = lowered_main(r#"fn main() { exit(0); }"#);
        assert!(
            exec.fns[main]
                .code
                .iter()
                .any(|op| matches!(op, ExecOp::ConstCallBuiltin { .. })),
            "{:?}",
            exec.fns[main].code
        );
    }

    #[test]
    fn constants_fold() {
        let (exec, main) = lowered_main("fn main() { let x = 2 + 3; let y = 7 / 2; }");
        let code = &exec.fns[main].code;
        assert!(!code.iter().any(|op| bin_form(op).is_some()), "{code:?}");
        assert!(exec.consts.contains(&Value::Int(5)), "{:?}", exec.consts);
        assert!(exec.consts.contains(&Value::Int(3)), "{:?}", exec.consts);
    }

    #[test]
    fn division_by_constant_zero_is_not_folded() {
        for src in [
            "fn main() { let x = 1 / 0; }",
            "fn main() { let x = 1 % 0; }",
        ] {
            let found = forms(src);
            assert!(
                found
                    .iter()
                    .any(|&(_, op)| matches!(op, BinOp::Div | BinOp::Mod)),
                "{src}: {found:?}"
            );
        }
    }

    #[test]
    fn every_block_starts_with_a_fence_and_costs_cover_the_wire() {
        // Total fuel charged on a straight-line path equals the wire
        // instruction count: the sum of all fence costs equals the
        // function's wire length.
        let p = compile_source(
            r#"
            fn helper(x) { return x * 2; }
            fn main() {
                let total = 0;
                let i = 0;
                while (i < 10) { total = total + helper(i); i = i + 1; }
                display("total " + str(total));
                exit(0);
            }
            "#,
        )
        .unwrap();
        let exec = ExecProgram::lower(&p);
        for (f, wire) in exec.fns.iter().zip(p.functions()) {
            assert!(matches!(f.code[0], ExecOp::Fence(_)), "{:?}", f.code);
            let fenced: u32 = f
                .code
                .iter()
                .filter_map(|op| match op {
                    ExecOp::Fence(c) => Some(*c),
                    _ => None,
                })
                .sum();
            assert_eq!(fenced as usize, wire.code.len());
        }
        assert!(exec.max_block_cost >= 1);
    }

    #[test]
    fn long_straightline_blocks_are_capped() {
        let body: String = (0..200).map(|i| format!("let x{i} = {i};")).collect();
        let (exec, main) = lowered_main(&format!("fn main() {{ {body} }}"));
        for op in &exec.fns[main].code {
            if let ExecOp::Fence(c) = op {
                assert!(*c as usize <= MAX_BLOCK_WIRE_OPS, "block cost {c}");
            }
        }
    }

    #[test]
    fn jump_targets_land_on_fences() {
        let (exec, main) = lowered_main(
            r#"fn main() {
                let i = 0;
                while (i < 3) { if (i == 1) { display("mid"); } i = i + 1; }
            }"#,
        );
        let code = &exec.fns[main].code;
        for op in code {
            let t = match op {
                ExecOp::Jump(t)
                | ExecOp::JumpIfFalse(t)
                | ExecOp::JumpIfTrue(t)
                | ExecOp::BinLKJf { target: t, .. } => *t as usize,
                _ => continue,
            };
            assert!(
                t == code.len() || matches!(code[t], ExecOp::Fence(_)),
                "target {t} in {code:?}"
            );
        }
    }
}
