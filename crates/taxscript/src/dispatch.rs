//! The fused dispatcher — the execution half of the compile tier.
//!
//! Runs the lowered [`ExecOp`] form produced by [`crate::opt`] with the
//! interpreter state the legacy loop kept re-deriving held in locals:
//! `pc` is a plain integer, the current function's code slice is
//! re-borrowed only at calls and returns (not per instruction), locals
//! live in one contiguous arena indexed by per-frame bases (no per-call
//! `Vec` allocation), and fuel is charged per basic block at each
//! [`ExecOp::Fence`] instead of per instruction.
//!
//! Observable behavior is identical to [`Vm::run_legacy`]
//! (`crate::Vm::run_legacy`) — same outcomes, same `display` output,
//! same briefcase mutations, same error classes — proven by the
//! `prop_differential` suite. The one documented divergence is fuel
//! *granularity*: out-of-fuel (and the value-stack bound) is detected
//! at block entry, so under a budget too small to finish, the fused
//! tier reports [`RuntimeError::OutOfFuel`] at the start of the block
//! in which the legacy interpreter would have died — never more than
//! [`Program::max_block_cost`](crate::Program::max_block_cost) fuel
//! units early, and with identical totals at every block boundary and
//! every termination point.

use std::cmp::Ordering;
use std::sync::Arc;
use std::task::Poll;

use tacoma_briefcase::Briefcase;

use crate::opt::{BinOp, ExecOp, ExecProgram};
use crate::vm::{
    add_values, await_value, call_builtin, compare_values, go_result, index_value, pop, pop2,
    spawn_value, BuiltinResult, MAX_CALL_DEPTH, MAX_VALUE_STACK,
};
use crate::{Builtin, HostHooks, Outcome, RuntimeError, Value};

/// One call-stack entry. Unlike the legacy `Frame`, locals are slices
/// of the shared arena, not an owned `Vec`.
#[derive(Debug, Clone, Copy)]
struct ExecFrame {
    fn_idx: u32,
    /// Where to resume in the *caller* once this frame returns.
    ret_pc: u32,
    stack_base: u32,
    locals_base: u32,
}

/// Where a suspended run stopped: the lowered program it runs, the
/// instruction after the `go`/`spawn`/`await_bc` call, and the builtin
/// to poll again (its arguments stay in the scratch's argument buffer).
#[derive(Debug)]
struct Suspended {
    exec: Arc<ExecProgram>,
    pc: u32,
    builtin: Builtin,
}

/// Reusable interpreter state: the value stack, the locals arena, the
/// frame stack, and a builtin-argument buffer.
///
/// A fresh launch's dominant allocations are exactly these vectors;
/// checking a warm `ExecScratch` out of a pool (see `tacoma-vm`'s
/// `VmPool`) lets an agent hop reuse the previous launch's capacity.
/// The scratch is cleared on entry to every run, and a pool clears it
/// again when it is returned, so reuse never leaks values between
/// agents.
///
/// A run that stops at a `go` or `spawn` whose verdict is in flight, or
/// at an `await_bc` with no mail yet ([`Outcome::Suspended`]), leaves
/// its whole state here — pc, fuel, frames, stack and locals: the
/// scratch is then a first-order continuation, and
/// [`ExecScratch::resume`] carries on from the call.
#[derive(Debug, Default)]
pub struct ExecScratch {
    stack: Vec<Value>,
    locals: Vec<Value>,
    frames: Vec<ExecFrame>,
    args: Vec<Value>,
    suspended: Option<Suspended>,
    fuel: u64,
}

impl ExecScratch {
    /// An empty scratch; capacity grows with use.
    pub fn new() -> Self {
        ExecScratch::default()
    }

    /// Combined capacity of the buffers, in values — a rough measure of
    /// how "warm" this scratch is (used by pool stats and tests).
    pub fn capacity(&self) -> usize {
        self.stack.capacity() + self.locals.capacity() + self.args.capacity()
    }

    /// Whether the buffers hold no values. A finished, faulted or moved
    /// run leaves its stack, locals and builtin arguments behind until
    /// [`ExecScratch::clear`].
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
            && self.locals.is_empty()
            && self.args.is_empty()
            && self.suspended.is_none()
    }

    /// Drops every value and frame the last run left behind, keeping the
    /// buffers' capacity. A suspended run is abandoned.
    pub fn clear(&mut self) {
        self.stack.clear();
        self.locals.clear();
        self.frames.clear();
        self.args.clear();
        self.suspended = None;
    }

    /// Whether the last run stopped with [`Outcome::Suspended`] and has
    /// not been resumed to its end since.
    pub fn is_suspended(&self) -> bool {
        self.suspended.is_some()
    }

    /// The fuel the last suspended or resumed run had left when it
    /// stopped.
    pub fn fuel_remaining(&self) -> u64 {
        self.fuel
    }

    /// Carries on a suspended run: polls the `go`, `spawn` or `await_bc`
    /// it stopped at again, with the same arguments, and runs on from
    /// there on the fuel it had left. A host still without an answer
    /// suspends the run again. The outcome is the one an uninterrupted
    /// run would have reached — same trace, briefcase and fuel.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`] the rest of the run raises, and
    /// [`RuntimeError::CorruptProgram`] when nothing is suspended.
    pub fn resume<H: HostHooks>(
        &mut self,
        hooks: &mut H,
        briefcase: &mut Briefcase,
    ) -> Result<Outcome, RuntimeError> {
        let Some(suspended) = self.suspended.take() else {
            return Err(corrupt("no suspended run to resume"));
        };
        let mut fuel = self.fuel;
        let result = match poll_builtin(suspended.builtin, &self.args, hooks, briefcase) {
            Poll::Pending => {
                self.suspended = Some(suspended);
                return Ok(Outcome::Suspended);
            }
            Poll::Ready(Ok(BuiltinResult::Value(v))) => {
                self.stack.push(v);
                let pc = suspended.pc as usize;
                execute(&suspended.exec, pc, hooks, &mut fuel, self, briefcase)
            }
            Poll::Ready(Ok(BuiltinResult::Terminal(outcome))) => Ok(outcome),
            Poll::Ready(Err(e)) => Err(e),
        };
        self.fuel = fuel;
        result
    }
}

fn corrupt(detail: &'static str) -> RuntimeError {
    RuntimeError::CorruptProgram { detail }
}

/// Slot `slot` of the current frame, with the legacy interpreter's "bad
/// local slot" fault past the frame's end. The innermost frame owns the
/// tail of the locals arena from `base` on — its wire locals, then its
/// temps — so the arena's own bound is the frame's.
#[inline]
fn slot_ref(locals: &[Value], base: usize, slot: u16) -> Result<&Value, RuntimeError> {
    locals
        .get(base + usize::from(slot))
        .ok_or(corrupt("bad local slot"))
}

/// Slot `slot` of the current frame as a place to store into, with the
/// same fault.
#[inline]
fn slot_mut(locals: &mut [Value], base: usize, slot: u16) -> Result<&mut Value, RuntimeError> {
    locals
        .get_mut(base + usize::from(slot))
        .ok_or(corrupt("bad local slot"))
}

/// Constant `idx` of the lowered pool.
#[inline]
fn konst(consts: &[Value], idx: u32) -> Result<&Value, RuntimeError> {
    consts
        .get(idx as usize)
        .ok_or(corrupt("bad constant index"))
}

/// The stack top, which an in-place operator form overwrites; an empty
/// stack is the legacy `pop2`'s underflow.
#[inline]
fn top(stack: &mut [Value]) -> Result<&mut Value, RuntimeError> {
    stack.last_mut().ok_or(corrupt("value stack underflow"))
}

/// The binary-operator kernel. Every `Bin*` form and the lowering's
/// constant folder evaluate an operator through its two halves:
/// [`int_binop`], the int × int fast path, which decides the operand
/// types before the operator; and [`binop_slow`], the cold path for
/// every other operand pair, which reuses the legacy interpreter's
/// `add_values` and `compare_values`. This function is the two as one
/// `Value`; the dispatcher's forms use `binop_into!` and
/// [`binop_push`], which write an int result where it goes.
pub(crate) fn binop(op: BinOp, a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    match int_binop(op, a, b) {
        Some(r) => Ok(r.into_value()),
        None => binop_slow(op, a, b),
    }
}

/// An int × int result held as scalars. A `Value` built in each
/// operator arm and merged afterwards is not split into registers: it
/// takes two stack copies, the first a stalled load, on its way to its
/// slot. Held as scalars, the result is written where it goes.
#[derive(Clone, Copy)]
struct IntResult {
    n: i64,
    is_bool: bool,
}

impl IntResult {
    #[inline(always)]
    fn truthy(self) -> bool {
        self.n != 0
    }

    #[inline(always)]
    fn into_value(self) -> Value {
        if self.is_bool {
            Value::Bool(self.n != 0)
        } else {
            Value::Int(self.n)
        }
    }

    /// Writes the result over `dst`; an int over an int rewrites the
    /// payload alone.
    #[inline(always)]
    fn write(self, dst: &mut Value) {
        match dst {
            Value::Int(old) if !self.is_bool => *old = self.n,
            _ => *dst = self.into_value(),
        }
    }

    #[inline(always)]
    fn push(self, stack: &mut Vec<Value>) {
        if self.is_bool {
            stack.push(Value::Bool(self.n != 0));
        } else {
            stack.push(Value::Int(self.n));
        }
    }
}

/// The int × int half of [`binop`]: `None` unless both operands are
/// ints and the operator has a value on them (a zero divisor has none).
#[inline(always)]
fn int_binop(op: BinOp, a: &Value, b: &Value) -> Option<IntResult> {
    let (&Value::Int(x), &Value::Int(y)) = (a, b) else {
        return None;
    };
    let int = |n| Some(IntResult { n, is_bool: false });
    let bool = |t: bool| {
        Some(IntResult {
            n: i64::from(t),
            is_bool: true,
        })
    };
    match op {
        BinOp::Add => int(x.wrapping_add(y)),
        BinOp::Sub => int(x.wrapping_sub(y)),
        BinOp::Mul => int(x.wrapping_mul(y)),
        BinOp::Div | BinOp::Mod if y == 0 => None,
        BinOp::Div => int(x.wrapping_div(y)),
        BinOp::Mod => int(x.wrapping_rem(y)),
        BinOp::Eq => bool(x == y),
        BinOp::Ne => bool(x != y),
        BinOp::Lt => bool(x < y),
        BinOp::Le => bool(x <= y),
        BinOp::Gt => bool(x > y),
        BinOp::Ge => bool(x >= y),
    }
}

/// Every operand pair but int × int, with the legacy interpreter's
/// results and fault text.
#[cold]
#[inline(never)]
fn binop_slow(op: BinOp, a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    let ordered = |name, accept: fn(Ordering) -> bool| {
        compare_values(a, b, name).map(|ord| Value::Bool(accept(ord)))
    };
    let verb = match op {
        BinOp::Add => return add_values(a, b),
        BinOp::Eq => return Ok(Value::Bool(a == b)),
        BinOp::Ne => return Ok(Value::Bool(a != b)),
        BinOp::Lt => return ordered("<", Ordering::is_lt),
        BinOp::Le => return ordered("<=", Ordering::is_le),
        BinOp::Gt => return ordered(">", Ordering::is_gt),
        BinOp::Ge => return ordered(">=", Ordering::is_ge),
        BinOp::Div | BinOp::Mod if matches!((a, b), (Value::Int(_), Value::Int(0))) => {
            return Err(RuntimeError::DivisionByZero)
        }
        BinOp::Sub => "subtract",
        BinOp::Mul => "multiply",
        BinOp::Div => "divide",
        BinOp::Mod => "modulo",
    };
    Err(RuntimeError::TypeError {
        op: verb,
        got: format!("{} and {}", a.type_name(), b.type_name()),
    })
}

/// [`binop`] with its result written to the place `$dst`. The place is
/// evaluated (and so borrowed) only once the operands have been read,
/// which lets it alias them: `i = i + 1` and the in-place stack forms.
macro_rules! binop_into {
    ($op:expr, $a:expr, $b:expr, $dst:expr) => {
        match int_binop($op, $a, $b) {
            Some(r) => r.write($dst),
            None => {
                let v = binop_slow($op, $a, $b)?;
                *$dst = v;
            }
        }
    };
}

/// [`binop`] with its result pushed.
#[inline(always)]
fn binop_push(op: BinOp, a: &Value, b: &Value, stack: &mut Vec<Value>) -> Result<(), RuntimeError> {
    match int_binop(op, a, b) {
        Some(r) => r.push(stack),
        None => stack.push(binop_slow(op, a, b)?),
    }
    Ok(())
}

/// Runs a lowered program to completion or suspension. `fuel` is
/// decremented in place so callers can observe consumption afterwards.
pub(crate) fn run_fused<H: HostHooks>(
    exec: &Arc<ExecProgram>,
    hooks: &mut H,
    fuel: &mut u64,
    scratch: &mut ExecScratch,
    briefcase: &mut Briefcase,
) -> Result<Outcome, RuntimeError> {
    scratch.clear();
    let main_idx = exec.main_idx as usize;
    let Some(main) = exec.fns.get(main_idx) else {
        return Err(corrupt("bad call target"));
    };
    scratch.locals.resize(main.frame_len(), Value::Nil);
    scratch.frames.push(ExecFrame {
        fn_idx: main_idx as u32,
        ret_pc: 0,
        stack_base: 0,
        locals_base: 0,
    });
    execute(exec, 0, hooks, fuel, scratch, briefcase)
}

/// The dispatch loop, entered at `pc` of the innermost frame: at 0 of
/// `main` for a fresh run, just past the suspending call for a resumed
/// one.
fn execute<H: HostHooks>(
    program: &Arc<ExecProgram>,
    mut pc: usize,
    hooks: &mut H,
    fuel: &mut u64,
    scratch: &mut ExecScratch,
    briefcase: &mut Briefcase,
) -> Result<Outcome, RuntimeError> {
    let exec: &ExecProgram = program;
    let ExecScratch {
        stack,
        locals,
        frames,
        args,
        suspended,
        fuel: fuel_at_suspension,
    } = scratch;
    let Some(entry) = frames.last() else {
        return Err(corrupt("no frame to run"));
    };
    let mut cur = &exec.fns[entry.fn_idx as usize];
    let mut locals_base = entry.locals_base as usize;
    // Parks the run at the builtin just called: the continuation is
    // this scratch plus the pc after the call.
    macro_rules! suspend {
        ($builtin:expr) => {{
            *suspended = Some(Suspended {
                exec: Arc::clone(program),
                pc: pc as u32,
                builtin: $builtin,
            });
            *fuel_at_suspension = *fuel;
            return Ok(Outcome::Suspended);
        }};
    }

    loop {
        let Some(&op) = cur.code.get(pc) else {
            return Err(corrupt("pc ran off the end"));
        };
        pc += 1;

        match op {
            ExecOp::Fence(cost) => {
                let cost = u64::from(cost);
                if *fuel < cost {
                    return Err(RuntimeError::OutOfFuel);
                }
                *fuel -= cost;
                if stack.len() > MAX_VALUE_STACK {
                    return Err(RuntimeError::StackOverflow);
                }
            }
            ExecOp::Const(i) => {
                stack.push(konst(&exec.consts, i)?.clone());
            }
            ExecOp::BadConst => return Err(corrupt("bad constant index")),
            ExecOp::Nil => stack.push(Value::Nil),
            ExecOp::True => stack.push(Value::Bool(true)),
            ExecOp::False => stack.push(Value::Bool(false)),
            ExecOp::Load(slot) => {
                let v = slot_ref(locals, locals_base, slot)?.clone();
                stack.push(v);
            }
            ExecOp::Store(slot) => {
                let v = pop(stack)?;
                *slot_mut(locals, locals_base, slot)? = v;
            }
            ExecOp::Pop => {
                pop(stack)?;
            }
            ExecOp::Dup => {
                let v = stack.last().cloned().ok_or(corrupt("dup on empty stack"))?;
                stack.push(v);
            }
            ExecOp::Neg => {
                let v = pop(stack)?;
                match v {
                    Value::Int(i) => stack.push(Value::Int(i.wrapping_neg())),
                    other => {
                        return Err(RuntimeError::TypeError {
                            op: "negate",
                            got: other.type_name().to_owned(),
                        })
                    }
                }
            }
            ExecOp::Not => {
                let v = pop(stack)?;
                stack.push(Value::Bool(!v.truthy()));
            }
            ExecOp::Bin(op) => {
                let b = pop(stack)?;
                let a = top(stack)?;
                binop_into!(op, a, &b, a);
            }
            ExecOp::BinSL { op, slot } => {
                let b = slot_ref(locals, locals_base, slot)?;
                let a = top(stack)?;
                binop_into!(op, a, b, a);
            }
            ExecOp::BinSK { op, cidx } => {
                let b = konst(&exec.consts, cidx)?;
                let a = top(stack)?;
                binop_into!(op, a, b, a);
            }
            ExecOp::BinLL { op, a, b } => {
                let a = slot_ref(locals, locals_base, a)?;
                let b = slot_ref(locals, locals_base, b)?;
                binop_push(op, a, b, stack)?;
            }
            ExecOp::BinLK { op, slot, cidx } => {
                let a = slot_ref(locals, locals_base, slot)?;
                binop_push(op, a, konst(&exec.consts, cidx)?, stack)?;
            }
            ExecOp::BinLLStore { op, a, b, dst } => {
                let a = slot_ref(locals, locals_base, a)?;
                let b = slot_ref(locals, locals_base, b)?;
                binop_into!(op, a, b, slot_mut(locals, locals_base, dst)?);
            }
            ExecOp::BinLKStore {
                op,
                slot,
                cidx,
                dst,
            } => {
                let a = slot_ref(locals, locals_base, slot)?;
                let b = konst(&exec.consts, cidx)?;
                binop_into!(op, a, b, slot_mut(locals, locals_base, dst)?);
            }
            ExecOp::BinLKJf {
                op,
                slot,
                cidx,
                target,
            } => {
                let a = slot_ref(locals, locals_base, slot)?;
                let b = konst(&exec.consts, cidx)?;
                let truthy = match int_binop(op, a, b) {
                    Some(r) => r.truthy(),
                    None => binop_slow(op, a, b)?.truthy(),
                };
                if !truthy {
                    pc = target as usize;
                }
            }
            ExecOp::Jump(t) => pc = t as usize,
            ExecOp::JumpIfFalse(t) => {
                if !pop(stack)?.truthy() {
                    pc = t as usize;
                }
            }
            ExecOp::JumpIfTrue(t) => {
                if pop(stack)?.truthy() {
                    pc = t as usize;
                }
            }
            ExecOp::MakeList(n) => {
                let n = n as usize;
                if stack.len() < n {
                    return Err(corrupt("list underflow"));
                }
                let items = stack.split_off(stack.len() - n);
                stack.push(Value::List(items));
            }
            ExecOp::Index => {
                let (target, index) = pop2(stack)?;
                stack.push(index_value(&target, &index));
            }
            ExecOp::Call {
                fn_idx: callee,
                argc,
            } => {
                if frames.len() >= MAX_CALL_DEPTH {
                    return Err(RuntimeError::StackOverflow);
                }
                let Some(callee_fn) = exec.fns.get(callee as usize) else {
                    return Err(corrupt("bad call target"));
                };
                let argc = argc as usize;
                if stack.len() < argc {
                    return Err(corrupt("call underflow"));
                }
                let new_base = locals.len();
                locals.resize(new_base + callee_fn.frame_len(), Value::Nil);
                let split = stack.len() - argc;
                for (slot, arg) in stack.drain(split..).enumerate() {
                    if slot < usize::from(callee_fn.n_locals) {
                        locals[new_base + slot] = arg;
                    }
                }
                frames.push(ExecFrame {
                    fn_idx: u32::from(callee),
                    ret_pc: pc as u32,
                    stack_base: split as u32,
                    locals_base: new_base as u32,
                });
                cur = callee_fn;
                pc = 0;
                locals_base = new_base;
            }
            ExecOp::Return => {
                let ret = pop(stack)?;
                let done = frames.pop().expect("frame stack nonempty");
                stack.truncate(done.stack_base as usize);
                locals.truncate(done.locals_base as usize);
                let Some(top) = frames.last() else {
                    return Ok(Outcome::Finished);
                };
                stack.push(ret);
                cur = &exec.fns[top.fn_idx as usize];
                pc = done.ret_pc as usize;
                locals_base = top.locals_base as usize;
            }
            ExecOp::CallBuiltin { builtin, argc } => {
                match run_builtin(builtin, argc, stack, args, hooks, briefcase)? {
                    None => {}
                    Some(Outcome::Suspended) => suspend!(builtin),
                    Some(outcome) => return Ok(outcome),
                }
            }
            ExecOp::ConstCallBuiltin {
                cidx,
                builtin,
                argc,
            } => {
                stack.push(konst(&exec.consts, cidx)?.clone());
                match run_builtin(builtin, argc, stack, args, hooks, briefcase)? {
                    None => {}
                    Some(Outcome::Suspended) => suspend!(builtin),
                    Some(outcome) => return Ok(outcome),
                }
            }
        }
    }
}

/// Shared builtin tail for `CallBuiltin` and `ConstCallBuiltin`:
/// pops arguments into the reusable buffer and dispatches. Returns
/// `Some(outcome)` for terminal builtins (`exit`, accepted `go`) and
/// [`Outcome::Suspended`] for a `go`/`spawn`/`await_bc` the host cannot
/// answer yet (the arguments stay in the buffer for the poll at resume).
fn run_builtin<H: HostHooks>(
    builtin: Builtin,
    argc: u8,
    stack: &mut Vec<Value>,
    args: &mut Vec<Value>,
    hooks: &mut H,
    briefcase: &mut Briefcase,
) -> Result<Option<Outcome>, RuntimeError> {
    let argc = argc as usize;
    if stack.len() < argc {
        return Err(corrupt("builtin underflow"));
    }
    args.clear();
    args.extend(stack.drain(stack.len() - argc..));
    let result = match builtin {
        Builtin::Go | Builtin::Spawn | Builtin::AwaitBc => {
            match poll_builtin(builtin, args, hooks, briefcase) {
                Poll::Ready(result) => result?,
                Poll::Pending => return Ok(Some(Outcome::Suspended)),
            }
        }
        _ => call_builtin(hooks, builtin, args, briefcase)?,
    };
    match result {
        BuiltinResult::Value(v) => {
            stack.push(v);
            Ok(None)
        }
        BuiltinResult::Terminal(outcome) => Ok(Some(outcome)),
    }
}

/// Asks the host for an answer it may not have yet: a `go` or `spawn`
/// verdict, or mail for an `await_bc` — the fused tier's three
/// suspension points. A ready answer means exactly what the legacy
/// tier's synchronous call does.
fn poll_builtin<H: HostHooks>(
    builtin: Builtin,
    args: &[Value],
    hooks: &mut H,
    briefcase: &mut Briefcase,
) -> Poll<Result<BuiltinResult, RuntimeError>> {
    if builtin == Builtin::AwaitBc {
        return match args[0].expect_int("await_bc") {
            Ok(timeout) => hooks
                .poll_await(timeout)
                .map(|incoming| Ok(BuiltinResult::Value(await_value(briefcase, incoming)))),
            Err(e) => Poll::Ready(Err(e)),
        };
    }
    let go = builtin == Builtin::Go;
    let uri = match args[0].expect_str(if go { "go" } else { "spawn" }) {
        Ok(uri) => uri,
        Err(e) => return Poll::Ready(Err(e)),
    };
    if go {
        hooks.poll_go(uri, briefcase).map(|d| Ok(go_result(d, uri)))
    } else {
        hooks
            .poll_spawn(uri, briefcase)
            .map(|instance| Ok(BuiltinResult::Value(spawn_value(instance))))
    }
}
