//! The compile tier: lowering wire [`Op`] programs into the dense
//! internal [`ExecOp`] form the fused dispatcher runs.
//!
//! The wire `Op` enum stays the stable interchange format — the
//! analyzer, golden corpus, and briefcase encoding never see `ExecOp`.
//! Lowering happens lazily (and exactly once) per [`Program`] via
//! [`Program::exec`](crate::Program), and performs three rewrites:
//!
//! 1. **Constant folding** — `Const a; Const b; <op>` with statically
//!    known operands collapses to one constant (or `True`/`False` for
//!    comparisons) wherever the operator cannot fault. A zero divisor or
//!    a type error is left in place so it faults at run time exactly
//!    like the legacy interpreter.
//! 2. **Operand addressing with temps in the frame** — within a block,
//!    lowering simulates the wire value stack ([`FnLowering`]): `Load`s
//!    of locals and `Const`s emit nothing, and the operator that
//!    consumes them reads them where they live, through one of a small
//!    family of [`BinOp`] forms named for their operands — `L` a frame
//!    slot, `K` a constant, `S` the stack top. An operator writes its
//!    result where its consumer wants it: the local a following `Store`
//!    names (`BinLLStore`, `BinLKStore`), the branch of a following
//!    `JumpIfFalse` (`BinLKJf`), an expression temporary — a frame slot
//!    past the wire locals — when another operator consumes it, or the
//!    stack (`BinLL`, `BinLK`). Operands already on the stack keep the
//!    in-place forms (`BinSL`, `BinSK`, `Bin`). Every other op, and the
//!    block's end, pushes whatever is still deferred first, so the stack
//!    holds what the legacy tier's holds at every fence, call, builtin
//!    and return. `Const+CallBuiltin` also becomes one `ExecOp`. None of
//!    this is keyed to an operator: every form takes every `BinOp`.
//! 3. **Basic-block fuel accounting** — every block begins with an
//!    [`ExecOp::Fence`] carrying the block's *wire* instruction count.
//!    The dispatcher charges the whole block at entry instead of
//!    checking fuel per instruction, so a fused op's cost is exactly
//!    the number of wire ops it replaced and totals agree with the
//!    legacy interpreter at every block boundary.
//!
//! Nothing is carried across a block boundary, so every wire jump
//! target maps 1:1 onto a lowered block entry.

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
        match mirror(op, 0, 0) {
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
/// The `Bin*` forms name where their operands come from: `L` a frame
/// slot (a wire local or an expression temporary), `K` a constant, `S`
/// the stack top (`a` is the left operand). The `S` forms overwrite the
/// top in place rather than popping and pushing.
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
    /// Both operands on the stack: pop `b`, then top ∘= `b`.
    Bin(BinOp),
    /// top ∘= slot.
    BinSL {
        op: BinOp,
        slot: u16,
    },
    /// top ∘= constant.
    BinSK {
        op: BinOp,
        cidx: u32,
    },
    /// Push slot `a` ∘ slot `b`.
    BinLL {
        op: BinOp,
        a: u16,
        b: u16,
    },
    /// Push slot ∘ constant.
    BinLK {
        op: BinOp,
        slot: u16,
        cidx: u32,
    },
    /// `dst = a ∘ b`, all frame slots — e.g. `c = a + b`, or one step
    /// of a chain through temps.
    BinLLStore {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `dst = slot ∘ constant` — e.g. the `i = i + 1` counter bump.
    BinLKStore {
        op: BinOp,
        slot: u16,
        cidx: u32,
        dst: u16,
    },
    /// Branch on slot ∘ constant — e.g. the `while (i < n)` loop header.
    /// Jumps when the result is falsy.
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
    /// The wire function's local slots; `Call` copies arguments into
    /// these only.
    pub(crate) n_locals: u16,
    /// Expression temporaries: frame slots `n_locals..n_locals +
    /// n_temps`, which no wire op can name.
    pub(crate) n_temps: u16,
}

impl ExecFn {
    /// The slots one frame of this function takes in the locals arena.
    pub(crate) fn frame_len(&self) -> usize {
        usize::from(self.n_locals) + usize::from(self.n_temps)
    }
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

    // Pass 2: emit block by block; `map[start]` is the lowered pc of the
    // block's Fence, so a jump to the block start charges the block.
    let mut lowering = FnLowering {
        n_locals: f.n_locals,
        n_wire_consts,
        consts,
        code: Vec::with_capacity(len + starts.len()),
        deferred: Vec::new(),
        n_temps: 0,
    };
    let mut map = vec![0u32; len + 1];
    for w in starts.windows(2) {
        let (start, end) = (w[0], w[1]);
        let cost = (end - start) as u32;
        *max_block_cost = (*max_block_cost).max(cost);
        map[start] = lowering.code.len() as u32;
        lowering.code.push(ExecOp::Fence(cost));
        let mut pc = start;
        while pc < end {
            pc += lowering.step(&f.code[pc..end]);
        }
        lowering.flush();
    }
    let FnLowering {
        mut code, n_temps, ..
    } = lowering;
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
        n_temps,
    }
}

/// The slot a wire `Load` or `Store` past the function's locals lowers
/// to. A frame never reaches it — temps are handed out below it — so it
/// faults "bad local slot" like the wire slot does in the legacy
/// interpreter, and a bad wire slot can never alias a temp.
const BAD_SLOT: u16 = u16::MAX;

/// A value the wire program has pushed but the lowered code has not:
/// where an operator finds it instead of on the value stack.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Operand {
    /// Frame slot `slot`: an in-range wire local, or (at `n_locals` and
    /// up) a temp holding an operator's result. A local is read where it
    /// is consumed, and nothing writes it before then: a `Store` flushes
    /// first, and an operator does not store into a local that is still
    /// deferred. `producer` is the lowered pc of a temp's operator when
    /// nothing was deferred below it: flushing the temp then turns that
    /// operator into its pushing form instead of loading the temp.
    Slot { slot: u16, producer: Option<usize> },
    /// An in-range constant of the lowered pool.
    Konst(u32),
}

/// Where a two-operand form writes its result: a frame slot (a local or
/// a temp), a branch, or the stack.
#[derive(Clone, Copy)]
enum Dest {
    Slot(u16),
    Branch(u32),
    Push,
}

/// One function's lowering state. Within a block, `deferred` simulates
/// the top of the wire value stack: the values pushed by `Load`s,
/// `Const`s and operators that the lowered code keeps in slots or the
/// constant pool. Everything below them is on the real stack, so a value
/// on the real stack is never above a deferred one. The block ends with
/// a flush, and so does every op but a `Load`, a `Const` and an
/// operator: the real stack then holds exactly what the wire program's
/// does.
struct FnLowering<'a> {
    n_locals: u16,
    n_wire_consts: usize,
    consts: &'a mut Vec<Value>,
    code: Vec<ExecOp>,
    deferred: Vec<Operand>,
    n_temps: u16,
}

impl FnLowering<'_> {
    /// The operand a wire `Load` or `Const` defers, if it can: a bad
    /// slot or constant index is no operand, and lowers through
    /// [`mirror`] to an op that faults where the wire op does.
    fn operand(&self, op: Op) -> Option<Operand> {
        match op {
            Op::Load(slot) if slot < self.n_locals => Some(Operand::Slot {
                slot,
                producer: None,
            }),
            Op::Const(c) if usize::from(c) < self.n_wire_consts => Some(Operand::Konst(c.into())),
            _ => None,
        }
    }

    /// Lowers the head of `w` (which never extends past the current
    /// block) and returns how many wire ops it consumed.
    fn step(&mut self, w: &[Op]) -> usize {
        let op = w[0];
        if let Some(operand) = self.operand(op) {
            self.deferred.push(operand);
            return 1;
        }
        if let Some(bin) = BinOp::of(op) {
            return self.binary(bin, w.get(1).copied());
        }
        if let (&Op::CallBuiltin { builtin, argc }, Some(&Operand::Konst(cidx))) =
            (&op, self.deferred.last())
        {
            self.deferred.pop();
            self.flush();
            self.code.push(ExecOp::ConstCallBuiltin {
                cidx,
                builtin,
                argc,
            });
            return 1;
        }
        self.flush();
        self.code
            .push(mirror(op, self.n_locals, self.n_wire_consts));
        1
    }

    /// Lowers a wire operator, given the wire op after it in the block.
    fn binary(&mut self, op: BinOp, next: Option<Op>) -> usize {
        // `None` is a value on the stack; nothing deferred is below one.
        let b = self.deferred.pop();
        let a = self.deferred.pop();
        for operand in [a, b].into_iter().flatten() {
            self.keep(operand);
        }
        if let (Some(Operand::Konst(i)), Some(Operand::Konst(j))) = (a, b) {
            match fold_consts(i, j, op, self.consts) {
                Some(Value::Bool(t)) => {
                    self.flush();
                    self.code.push(if t { ExecOp::True } else { ExecOp::False });
                    return 1;
                }
                Some(v) => {
                    let cidx = intern(self.consts, v);
                    self.deferred.push(Operand::Konst(cidx));
                    return 1;
                }
                None => {}
            }
        }
        let a = match a {
            Some(Operand::Slot { slot, .. }) => slot,
            // No form reads a constant on the left: push it, then take
            // the stack form.
            Some(Operand::Konst(i)) => {
                self.flush();
                self.code.push(ExecOp::Const(i));
                return self.on_stack(op, b);
            }
            None => return self.on_stack(op, b),
        };
        let b = b.expect("a value on the stack is below every deferred one");
        let dest = match next {
            Some(Op::Store(d)) if d < self.n_locals && !self.is_deferred(d) => Dest::Slot(d),
            Some(Op::JumpIfFalse(t)) if matches!(b, Operand::Konst(_)) => Dest::Branch(t),
            // More of the expression follows: keep the value in a temp.
            Some(next) if BinOp::of(next).is_some() || self.operand(next).is_some() => {
                match u16::try_from(usize::from(self.n_locals) + self.deferred.len()) {
                    Ok(slot) if slot < BAD_SLOT => Dest::Slot(slot),
                    _ => Dest::Push,
                }
            }
            _ => Dest::Push,
        };
        if !matches!(dest, Dest::Slot(_)) {
            self.flush();
        }
        let at = self.code.len();
        self.code.push(match (dest, b) {
            (Dest::Slot(dst), Operand::Konst(cidx)) => ExecOp::BinLKStore {
                op,
                slot: a,
                cidx,
                dst,
            },
            (Dest::Slot(dst), Operand::Slot { slot: b, .. }) => {
                ExecOp::BinLLStore { op, a, b, dst }
            }
            (Dest::Branch(target), Operand::Konst(cidx)) => ExecOp::BinLKJf {
                op,
                slot: a,
                cidx,
                target,
            },
            (_, Operand::Konst(cidx)) => ExecOp::BinLK { op, slot: a, cidx },
            (_, Operand::Slot { slot: b, .. }) => ExecOp::BinLL { op, a, b },
        });
        match dest {
            Dest::Slot(slot) if slot >= self.n_locals => {
                let producer = self.deferred.is_empty().then_some(at);
                self.deferred.push(Operand::Slot { slot, producer });
                1
            }
            Dest::Slot(_) | Dest::Branch(_) => 2,
            Dest::Push => 1,
        }
    }

    /// Lowers an operator whose left operand is on the stack: it
    /// rewrites the top in place.
    fn on_stack(&mut self, op: BinOp, b: Option<Operand>) -> usize {
        self.code.push(match b {
            None => ExecOp::Bin(op),
            Some(Operand::Konst(cidx)) => ExecOp::BinSK { op, cidx },
            Some(Operand::Slot { slot, .. }) => ExecOp::BinSL { op, slot },
        });
        1
    }

    /// Whether a load of local `slot` is deferred.
    fn is_deferred(&self, slot: u16) -> bool {
        self.deferred
            .iter()
            .any(|o| matches!(*o, Operand::Slot { slot: s, .. } if s == slot))
    }

    /// Counts `operand`'s temp in the frame: a temp takes a slot only
    /// once something reads it.
    fn keep(&mut self, operand: Operand) {
        if let Operand::Slot { slot, .. } = operand {
            if slot >= self.n_locals {
                self.n_temps = self.n_temps.max(slot - self.n_locals + 1);
            }
        }
    }

    /// Pushes every deferred value, bottom first. A temp whose operator
    /// had nothing deferred below it is pushed by that operator instead:
    /// nothing has touched the real stack since it ran.
    fn flush(&mut self) {
        let mut deferred = std::mem::take(&mut self.deferred);
        for operand in deferred.drain(..) {
            let op = match operand {
                Operand::Slot {
                    producer: Some(at), ..
                } => {
                    self.code[at] = pushing(self.code[at]);
                    continue;
                }
                Operand::Slot { slot, .. } => ExecOp::Load(slot),
                Operand::Konst(cidx) => ExecOp::Const(cidx),
            };
            self.keep(operand);
            self.code.push(op);
        }
        self.deferred = deferred;
    }
}

/// The pushing form of a two-operand store.
fn pushing(op: ExecOp) -> ExecOp {
    match op {
        ExecOp::BinLLStore { op, a, b, .. } => ExecOp::BinLL { op, a, b },
        ExecOp::BinLKStore { op, slot, cidx, .. } => ExecOp::BinLK { op, slot, cidx },
        other => other,
    }
}

/// Folds `Const i; Const j; op` when the legacy interpreter could not
/// fault on it — exactly when the kernel returns `Ok`. A zero divisor or
/// a type error is left to run time.
fn fold_consts(i: u32, j: u32, op: BinOp, consts: &[Value]) -> Option<Value> {
    binop(op, &consts[i as usize], &consts[j as usize]).ok()
}

/// Interns `v` in the lowered constant pool, reusing an equal entry.
fn intern(consts: &mut Vec<Value>, v: Value) -> u32 {
    if let Some(i) = consts.iter().position(|c| *c == v) {
        return i as u32;
    }
    consts.push(v);
    (consts.len() - 1) as u32
}

/// 1:1 lowering for every op the operand forms do not absorb.
fn mirror(op: Op, n_locals: u16, n_wire_consts: usize) -> ExecOp {
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
        Op::Load(s) if s >= n_locals => ExecOp::Load(BAD_SLOT),
        Op::Store(s) if s >= n_locals => ExecOp::Store(BAD_SLOT),
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
            // A call's result is on the stack, so only an operand that
            // is one reaches the stack forms.
            let found = forms(&format!(
                "fn id(x) {{ return x; }}
                fn main() {{
                    let a = 1; let b = 2; let c = 0;
                    c = a {sym} b;
                    c = a {sym} 3;
                    display(a {sym} b);
                    display(a {sym} 3);
                    display((a {sym} b) {sym} a);
                    display((a {sym} b) {sym} 3);
                    display((a {sym} b) {sym} (a {sym} b));
                    display(id(a) {sym} b);
                    display(id(a) {sym} 3);
                    display(id(a) {sym} id(b));
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
    fn checksum_statement_lowers_to_three_store_forms() {
        // `sum = (sum * 31 + k) % 1000003;` is 8 wire ops: Load, Const,
        // Mul, Load, Add, Const, Mod, Store. Its intermediate values stay
        // in one temp (T0, the first slot past the wire locals), so it
        // lowers to three stores and no stack form — nothing in the
        // lowering knows this shape.
        let prelude = "let sum = 0; let k = 0;";
        let (exec, main) = lowered_main(&format!(
            "fn main() {{ {prelude} sum = (sum * 31 + k) % 1000003; }}"
        ));
        let (without, _) = lowered_main(&format!("fn main() {{ {prelude} }}"));
        let (f, bare) = (&exec.fns[main], &without.fns[main]);
        let non_fence = |f: &ExecFn| {
            f.code
                .iter()
                .filter(|op| !matches!(op, ExecOp::Fence(_)))
                .count()
        };
        assert_eq!(non_fence(f) - non_fence(bare), 3, "{:?}", f.code);
        assert_eq!((f.n_locals, f.n_temps), (2, 1));
        let (sum, k, t0) = (0, 1, 2);
        let chain: Vec<(BinOp, u16, u16)> = f
            .code
            .iter()
            .filter_map(|op| match *op {
                ExecOp::BinLKStore { op, slot, dst, .. } => Some((op, slot, dst)),
                ExecOp::BinLLStore { op, a, b, dst } => {
                    assert_eq!(b, k, "{:?}", f.code);
                    Some((op, a, dst))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            chain,
            [
                (BinOp::Mul, sum, t0),
                (BinOp::Add, t0, t0),
                (BinOp::Mod, t0, sum)
            ],
            "{:?}",
            f.code
        );
        assert!(
            !f.code.iter().any(|op| matches!(
                op,
                ExecOp::Bin(_) | ExecOp::BinSL { .. } | ExecOp::BinSK { .. }
            )),
            "{:?}",
            f.code
        );
    }

    #[test]
    fn temps_are_handed_out_by_depth() {
        let (exec, main) =
            lowered_main("fn main() { let a = 1; let b = 2; let c = 3; let d = 4; let x = 0; x = (a * b) + (c * d); }");
        let f = &exec.fns[main];
        assert_eq!(f.n_temps, 2, "{:?}", f.code);
        assert_eq!(
            forms("fn main() { let a = 1; let b = 2; let c = 3; let d = 4; let x = 0; x = (a * b) + (c * d); }"),
            [
                ("BinLLStore", BinOp::Mul),
                ("BinLLStore", BinOp::Mul),
                ("BinLLStore", BinOp::Add)
            ]
        );
    }

    #[test]
    fn an_expression_without_an_operator_consumer_lowers_as_before() {
        // A value a call or builtin consumes is pushed by its operator,
        // as it was before temps: `f(a * b, c)` and `display(...)`.
        let src = "fn f(x, y) { return x; }
            fn main() { let a = 1; let b = 2; let c = 3; f(a * b, c); display(a * b, c); }";
        let (exec, main) = lowered_main(src);
        let f = &exec.fns[main];
        assert_eq!(f.n_temps, 0, "{:?}", f.code);
        assert_eq!(
            forms(src),
            [("BinLL", BinOp::Mul), ("BinLL", BinOp::Mul)],
            "{:?}",
            f.code
        );
    }

    #[test]
    fn a_store_never_overwrites_a_deferred_local() {
        // The wire stack form of `d + (d = a + b)`: the first `Load d`
        // must read `d` before the inner `Store d` writes it.
        let mut p = compile_source("fn main() { let d = 1; let a = 2; let b = 3; }").unwrap();
        let main = p.main_index();
        let (d, a, b) = (0, 1, 2);
        p.functions_mut()[main].code = vec![
            Op::Load(d),
            Op::Load(a),
            Op::Load(b),
            Op::Add,
            Op::Store(d),
            Op::Load(d),
            Op::Add,
            Op::Return,
        ];
        let exec = ExecProgram::lower(&p);
        let code = &exec.fns[main].code;
        let store_at = code
            .iter()
            .position(|op| matches!(op, ExecOp::Store(s) if *s == d))
            .unwrap_or_else(|| panic!("no plain Store of d in {code:?}"));
        let first_load = code
            .iter()
            .position(|op| matches!(op, ExecOp::Load(s) if *s == d))
            .unwrap_or_else(|| panic!("no Load of d in {code:?}"));
        assert!(first_load < store_at, "{code:?}");
    }

    #[test]
    fn bad_wire_slots_lower_past_every_frame() {
        // Slot `n_locals` is where the function's first temp lives; a
        // wire op naming it must not reach the temp.
        let mut p =
            compile_source("fn main() { let sum = 0; let k = 0; sum = (sum * 31 + k) % 7; }")
                .unwrap();
        let main = p.main_index();
        let n = p.functions()[main].n_locals;
        let code = &mut p.functions_mut()[main].code;
        code.insert(0, Op::Load(n));
        code.insert(1, Op::Pop);
        code.insert(2, Op::Const(0));
        code.insert(3, Op::Store(n));
        let exec = ExecProgram::lower(&p);
        let f = &exec.fns[main];
        assert_eq!(f.n_temps, 1, "{:?}", f.code);
        assert!(f.frame_len() < usize::from(BAD_SLOT));
        assert!(f.code.contains(&ExecOp::Load(BAD_SLOT)), "{:?}", f.code);
        assert!(f.code.contains(&ExecOp::Store(BAD_SLOT)), "{:?}", f.code);
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
