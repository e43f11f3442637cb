//! The TaxScript stack VM — the execution engine behind `vm_script` and
//! `vm_bin`.
//!
//! The VM is the **safety mechanism** of its virtual machine in the TAX
//! sense (§3.3): agent code cannot panic the host, cannot touch anything
//! but its own briefcase and the [`HostHooks`], and runs under an
//! instruction budget (fuel) and bounded stacks.

use tacoma_briefcase::Briefcase;

use crate::dispatch::{run_fused, ExecScratch};
use crate::program::Const;
use crate::{Builtin, GoDecision, HostHooks, Op, Program, RuntimeError, Value};

/// Default instruction budget: generous for real agents, finite for
/// runaway ones.
pub const DEFAULT_FUEL: u64 = 50_000_000;

pub(crate) const MAX_CALL_DEPTH: usize = 200;
pub(crate) const MAX_VALUE_STACK: usize = 1 << 16;

/// How an agent run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// `main` returned normally.
    Finished,
    /// The agent called `exit(code)`.
    Exit(i64),
    /// The agent called `go(uri)` and the host accepted the move: this
    /// instance is terminated; the briefcase (as mutated so far) should be
    /// shipped to `to` and `main` re-entered there.
    Moved {
        /// Destination agent URI.
        to: String,
    },
    /// The run stopped at a `go` or `spawn` whose verdict is still in
    /// flight, or at an `await_bc` with no mail yet: the host's
    /// [`HostHooks::poll_go`], [`HostHooks::poll_spawn`] or
    /// [`HostHooks::poll_await`] answered pending. Only the fused tier
    /// suspends; the run's [`ExecScratch`] holds the continuation, and
    /// [`ExecScratch::resume`] carries on from the call.
    Suspended,
}

struct Frame {
    fn_idx: usize,
    pc: usize,
    locals: Vec<Value>,
    stack_base: usize,
}

/// A virtual machine executing one agent program.
#[derive(Debug)]
pub struct Vm<'p, H> {
    program: &'p Program,
    hooks: H,
    fuel: u64,
}

impl<'p, H: HostHooks> Vm<'p, H> {
    /// A VM over `program` with the [`DEFAULT_FUEL`] budget.
    pub fn new(program: &'p Program, hooks: H) -> Self {
        Vm {
            program,
            hooks,
            fuel: DEFAULT_FUEL,
        }
    }

    /// Overrides the instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// The host hooks (e.g. to read collected `display` output).
    pub fn hooks(&self) -> &H {
        &self.hooks
    }

    /// Mutable access to the host hooks.
    pub fn hooks_mut(&mut self) -> &mut H {
        &mut self.hooks
    }

    /// Consumes the VM, returning the hooks.
    pub fn into_hooks(self) -> H {
        self.hooks
    }

    /// Runs `main` against the agent's briefcase on the fused compile
    /// tier (the program is lowered on first use and the lowering is
    /// cached on the [`Program`], so repeat launches skip it).
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`]; the briefcase retains all mutations made up
    /// to the fault (consistent with an agent crashing mid-computation).
    pub fn run(&mut self, briefcase: &mut Briefcase) -> Result<Outcome, RuntimeError> {
        let mut scratch = ExecScratch::new();
        self.run_with_scratch(briefcase, &mut scratch)
    }

    /// Like [`Vm::run`], but reusing a caller-provided [`ExecScratch`]
    /// so warm launches skip the stack/locals/frame allocations. A run
    /// whose hooks answer a `go`, `spawn` or `await_bc` with
    /// [`Poll::Pending`](std::task::Poll::Pending) ends
    /// [`Outcome::Suspended`] and continues
    /// through [`ExecScratch::resume`]; [`Vm::run`]'s own scratch would
    /// drop that continuation.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`], as for [`Vm::run`].
    pub fn run_with_scratch(
        &mut self,
        briefcase: &mut Briefcase,
        scratch: &mut ExecScratch,
    ) -> Result<Outcome, RuntimeError> {
        let program = self.program;
        run_fused(
            program.exec(),
            &mut self.hooks,
            &mut self.fuel,
            scratch,
            briefcase,
        )
    }

    /// Fuel remaining after a run (both tiers decrement the budget in
    /// place); benchmarks use it to count executed wire instructions.
    pub fn fuel_remaining(&self) -> u64 {
        self.fuel
    }

    /// The legacy per-instruction interpreter, kept as the reference
    /// tier: the `prop_differential` suite proves the fused dispatcher
    /// matches it and `exp_layers`' E13 section measures the speedup
    /// against it.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`], as for [`Vm::run`].
    pub fn run_legacy(&mut self, briefcase: &mut Briefcase) -> Result<Outcome, RuntimeError> {
        let main_idx = self.program.main_index();
        let main = &self.program.functions[main_idx];
        let mut stack: Vec<Value> = Vec::with_capacity(64);
        let mut frames = vec![Frame {
            fn_idx: main_idx,
            pc: 0,
            locals: vec![Value::Nil; main.n_locals as usize],
            stack_base: 0,
        }];

        loop {
            // Charge one unit per instruction: a budget of N executes
            // exactly N instructions before running dry.
            if self.fuel == 0 {
                return Err(RuntimeError::OutOfFuel);
            }
            self.fuel -= 1;
            if stack.len() > MAX_VALUE_STACK {
                return Err(RuntimeError::StackOverflow);
            }

            let frame = frames.last_mut().expect("frame stack nonempty");
            let code = &self.program.functions[frame.fn_idx].code;
            let Some(&op) = code.get(frame.pc) else {
                return Err(RuntimeError::CorruptProgram {
                    detail: "pc ran off the end",
                });
            };
            frame.pc += 1;

            match op {
                Op::Const(idx) => {
                    let v = match self.program.constants.get(idx as usize) {
                        Some(Const::Int(v)) => Value::Int(*v),
                        Some(Const::Str(s)) => Value::Str(s.clone()),
                        None => {
                            return Err(RuntimeError::CorruptProgram {
                                detail: "bad constant index",
                            })
                        }
                    };
                    stack.push(v);
                }
                Op::Nil => stack.push(Value::Nil),
                Op::True => stack.push(Value::Bool(true)),
                Op::False => stack.push(Value::Bool(false)),
                Op::Load(slot) => {
                    let v = frame.locals.get(slot as usize).cloned().ok_or(
                        RuntimeError::CorruptProgram {
                            detail: "bad local slot",
                        },
                    )?;
                    stack.push(v);
                }
                Op::Store(slot) => {
                    let v = pop(&mut stack)?;
                    let dest = frame.locals.get_mut(slot as usize).ok_or(
                        RuntimeError::CorruptProgram {
                            detail: "bad local slot",
                        },
                    )?;
                    *dest = v;
                }
                Op::Pop => {
                    pop(&mut stack)?;
                }
                Op::Dup => {
                    let v = stack.last().cloned().ok_or(RuntimeError::CorruptProgram {
                        detail: "dup on empty stack",
                    })?;
                    stack.push(v);
                }
                Op::Add => binary_add(&mut stack)?,
                Op::Sub => int_binop(&mut stack, "subtract", |a, b| Ok(a.wrapping_sub(b)))?,
                Op::Mul => int_binop(&mut stack, "multiply", |a, b| Ok(a.wrapping_mul(b)))?,
                Op::Div => int_binop(&mut stack, "divide", |a, b| {
                    if b == 0 {
                        Err(RuntimeError::DivisionByZero)
                    } else {
                        Ok(a.wrapping_div(b))
                    }
                })?,
                Op::Mod => int_binop(&mut stack, "modulo", |a, b| {
                    if b == 0 {
                        Err(RuntimeError::DivisionByZero)
                    } else {
                        Ok(a.wrapping_rem(b))
                    }
                })?,
                Op::Neg => {
                    let v = pop(&mut stack)?;
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
                Op::Not => {
                    let v = pop(&mut stack)?;
                    stack.push(Value::Bool(!v.truthy()));
                }
                Op::Eq => {
                    let (a, b) = pop2(&mut stack)?;
                    stack.push(Value::Bool(a == b));
                }
                Op::Ne => {
                    let (a, b) = pop2(&mut stack)?;
                    stack.push(Value::Bool(a != b));
                }
                Op::Lt => compare(&mut stack, "<", std::cmp::Ordering::is_lt)?,
                Op::Le => compare(&mut stack, "<=", std::cmp::Ordering::is_le)?,
                Op::Gt => compare(&mut stack, ">", std::cmp::Ordering::is_gt)?,
                Op::Ge => compare(&mut stack, ">=", std::cmp::Ordering::is_ge)?,
                Op::Jump(target) => frame.pc = target as usize,
                Op::JumpIfFalse(target) => {
                    if !pop(&mut stack)?.truthy() {
                        let frame = frames.last_mut().expect("frame stack nonempty");
                        frame.pc = target as usize;
                    }
                }
                Op::JumpIfTrue(target) => {
                    if pop(&mut stack)?.truthy() {
                        let frame = frames.last_mut().expect("frame stack nonempty");
                        frame.pc = target as usize;
                    }
                }
                Op::MakeList(n) => {
                    let n = n as usize;
                    if stack.len() < n {
                        return Err(RuntimeError::CorruptProgram {
                            detail: "list underflow",
                        });
                    }
                    let items = stack.split_off(stack.len() - n);
                    stack.push(Value::List(items));
                }
                Op::Index => {
                    let (target, index) = pop2(&mut stack)?;
                    stack.push(index_value(&target, &index));
                }
                Op::Call { fn_idx, argc } => {
                    if frames.len() >= MAX_CALL_DEPTH {
                        return Err(RuntimeError::StackOverflow);
                    }
                    let callee = self.program.functions.get(fn_idx as usize).ok_or(
                        RuntimeError::CorruptProgram {
                            detail: "bad call target",
                        },
                    )?;
                    let argc = argc as usize;
                    if stack.len() < argc {
                        return Err(RuntimeError::CorruptProgram {
                            detail: "call underflow",
                        });
                    }
                    let mut locals = vec![Value::Nil; callee.n_locals as usize];
                    let args = stack.split_off(stack.len() - argc);
                    for (slot, arg) in args.into_iter().enumerate() {
                        if slot < locals.len() {
                            locals[slot] = arg;
                        }
                    }
                    frames.push(Frame {
                        fn_idx: fn_idx as usize,
                        pc: 0,
                        locals,
                        stack_base: stack.len(),
                    });
                }
                Op::Return => {
                    let ret = pop(&mut stack)?;
                    let done = frames.pop().expect("frame stack nonempty");
                    stack.truncate(done.stack_base);
                    if frames.is_empty() {
                        return Ok(Outcome::Finished);
                    }
                    stack.push(ret);
                }
                Op::CallBuiltin { builtin, argc } => {
                    let argc = argc as usize;
                    if stack.len() < argc {
                        return Err(RuntimeError::CorruptProgram {
                            detail: "builtin underflow",
                        });
                    }
                    let args = stack.split_off(stack.len() - argc);
                    match call_builtin(&mut self.hooks, builtin, &args, briefcase)? {
                        BuiltinResult::Value(v) => stack.push(v),
                        BuiltinResult::Terminal(outcome) => return Ok(outcome),
                    }
                }
            }
        }
    }
}

/// Executes one builtin against the hooks and briefcase. Shared by the
/// legacy interpreter and the fused dispatcher so host-visible behavior
/// cannot drift between tiers.
pub(crate) fn call_builtin<H: HostHooks>(
    hooks: &mut H,
    builtin: Builtin,
    args: &[Value],
    bc: &mut Briefcase,
) -> Result<BuiltinResult, RuntimeError> {
    use Builtin as B;
    let value = match builtin {
        B::Display => {
            let text: Vec<String> = args.iter().map(Value::render).collect();
            hooks.display(&text.join(" "));
            Value::Nil
        }
        B::Exit => {
            let code = args[0].expect_int("exit")?;
            return Ok(BuiltinResult::Terminal(Outcome::Exit(code)));
        }
        B::Go => {
            let uri = args[0].expect_str("go")?;
            return Ok(go_result(hooks.go(uri, bc), uri));
        }
        B::Spawn => {
            let uri = args[0].expect_str("spawn")?;
            spawn_value(hooks.spawn(uri, bc))
        }
        B::Activate => {
            let uri = args[0].expect_str("activate")?;
            Value::Int(hooks.activate(uri, bc) as i64)
        }
        B::Meet => {
            let uri = args[0].expect_str("meet")?;
            match hooks.meet(uri, bc) {
                Some(reply) => {
                    bc.merge(reply);
                    Value::Int(1)
                }
                None => Value::Int(0),
            }
        }
        B::AwaitBc => {
            let timeout = args[0].expect_int("await_bc")?;
            await_value(bc, hooks.await_bc(timeout))
        }
        B::BcGet => {
            let folder = args[0].expect_str("bc_get")?;
            let idx = args[1].expect_int("bc_get")?;
            element_at(bc, folder, idx)
        }
        B::BcRemove => {
            let folder = args[0].expect_str("bc_remove")?;
            let idx = args[1].expect_int("bc_remove")?;
            if idx < 0 {
                Value::Nil
            } else {
                match bc.folder_mut(folder).and_then(|f| f.remove(idx as usize)) {
                    Some(e) => Value::from_element(&e),
                    None => Value::Nil,
                }
            }
        }
        B::BcAppend => {
            let folder = args[0].expect_str("bc_append")?;
            bc.append(folder, args[1].to_element());
            Value::Nil
        }
        B::BcSet => {
            let folder = args[0].expect_str("bc_set")?;
            bc.set_single(folder, args[1].to_element());
            Value::Nil
        }
        B::BcLen => {
            let folder = args[0].expect_str("bc_len")?;
            Value::Int(bc.folder(folder).map_or(0, |f| f.len() as i64))
        }
        B::BcClear => {
            let folder = args[0].expect_str("bc_clear")?;
            bc.remove_folder(folder);
            Value::Nil
        }
        B::BcHas => {
            let folder = args[0].expect_str("bc_has")?;
            Value::Bool(bc.contains_folder(folder))
        }
        B::Str => Value::Str(args[0].render()),
        B::Int => match &args[0] {
            Value::Int(v) => Value::Int(*v),
            Value::Bool(b) => Value::Int(*b as i64),
            Value::Str(s) => match s.trim().parse::<i64>() {
                Ok(v) => Value::Int(v),
                Err(_) => Value::Nil,
            },
            _ => Value::Nil,
        },
        B::Len => match &args[0] {
            Value::Str(s) => Value::Int(s.len() as i64),
            Value::List(l) => Value::Int(l.len() as i64),
            _ => {
                return Err(RuntimeError::BuiltinType {
                    name: "len",
                    expected: "a string or list",
                })
            }
        },
        B::Substr => {
            let s = args[0].expect_str("substr")?;
            let start = args[1].expect_int("substr")?.max(0) as usize;
            let count = args[2].expect_int("substr")?.max(0) as usize;
            let start = start.min(s.len());
            let end = start.saturating_add(count).min(s.len());
            // Clamp to char boundaries so slicing can't fault.
            let start = floor_char_boundary(s, start);
            let end = floor_char_boundary(s, end).max(start);
            Value::Str(s[start..end].to_owned())
        }
        B::Find => {
            let s = args[0].expect_str("find")?;
            let needle = args[1].expect_str("find")?;
            Value::Int(s.find(needle).map_or(-1, |i| i as i64))
        }
        B::Split => {
            let s = args[0].expect_str("split")?;
            let sep = args[1].expect_str("split")?;
            let parts: Vec<Value> = if sep.is_empty() {
                s.chars().map(|c| Value::Str(c.to_string())).collect()
            } else {
                s.split(sep).map(|p| Value::Str(p.to_owned())).collect()
            };
            Value::List(parts)
        }
        B::Join => {
            let list = args[0].expect_list("join")?;
            let sep = args[1].expect_str("join")?;
            let parts: Vec<String> = list.iter().map(Value::render).collect();
            Value::Str(parts.join(sep))
        }
        B::StartsWith => {
            let s = args[0].expect_str("starts_with")?;
            let prefix = args[1].expect_str("starts_with")?;
            Value::Bool(s.starts_with(prefix))
        }
        B::Contains => {
            let s = args[0].expect_str("contains")?;
            let needle = args[1].expect_str("contains")?;
            Value::Bool(s.contains(needle))
        }
        B::Push => {
            let mut list = args[0].expect_list("push")?.to_vec();
            list.push(args[1].clone());
            Value::List(list)
        }
        B::Get => {
            let index = args[1].clone();
            index_value(&args[0], &index)
        }
        B::NowMs => Value::Int(hooks.now_ms()),
        B::HostName => Value::Str(hooks.host_name()),
    };
    Ok(BuiltinResult::Value(value))
}

pub(crate) enum BuiltinResult {
    Value(Value),
    Terminal(Outcome),
}

/// What a settled `go` verdict means to the script.
pub(crate) fn go_result(decision: GoDecision, uri: &str) -> BuiltinResult {
    match decision {
        GoDecision::Moved => BuiltinResult::Terminal(Outcome::Moved { to: uri.to_owned() }),
        // Figure 4: `if (go(next, bc)) { display("Unable…") }` — go
        // returns truthy exactly on failure.
        GoDecision::Unreachable => BuiltinResult::Value(Value::Int(1)),
    }
}

/// What a settled `spawn` verdict means to the script: the child's
/// instance, or nil.
pub(crate) fn spawn_value(instance: Option<String>) -> Value {
    instance.map_or(Value::Nil, Value::Str)
}

/// What a settled `await_bc` means to the script: received mail is
/// merged into the briefcase and reads 1; none reads 0.
pub(crate) fn await_value(bc: &mut Briefcase, incoming: Option<Briefcase>) -> Value {
    match incoming {
        Some(incoming) => {
            bc.merge(incoming);
            Value::Int(1)
        }
        None => Value::Int(0),
    }
}

pub(crate) fn pop(stack: &mut Vec<Value>) -> Result<Value, RuntimeError> {
    stack.pop().ok_or(RuntimeError::CorruptProgram {
        detail: "value stack underflow",
    })
}

pub(crate) fn pop2(stack: &mut Vec<Value>) -> Result<(Value, Value), RuntimeError> {
    let b = pop(stack)?;
    let a = pop(stack)?;
    Ok((a, b))
}

/// `Add` semantics on two values: wrapping integer addition, list
/// concatenation, string rendering when either side is a string.
/// Shared by both tiers and the lowering pass's constant folder.
pub(crate) fn add_values(a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_add(*y))),
        (Value::List(x), Value::List(y)) => {
            let mut joined = x.clone();
            joined.extend(y.iter().cloned());
            Ok(Value::List(joined))
        }
        (Value::Str(_), _) | (_, Value::Str(_)) => {
            Ok(Value::Str(format!("{}{}", a.render(), b.render())))
        }
        _ => Err(RuntimeError::TypeError {
            op: "add",
            got: format!("{} and {}", a.type_name(), b.type_name()),
        }),
    }
}

fn binary_add(stack: &mut Vec<Value>) -> Result<(), RuntimeError> {
    let (a, b) = pop2(stack)?;
    let result = add_values(&a, &b)?;
    stack.push(result);
    Ok(())
}

pub(crate) fn int_binop(
    stack: &mut Vec<Value>,
    op: &'static str,
    f: impl Fn(i64, i64) -> Result<i64, RuntimeError>,
) -> Result<(), RuntimeError> {
    let (a, b) = pop2(stack)?;
    match (&a, &b) {
        (Value::Int(x), Value::Int(y)) => {
            stack.push(Value::Int(f(*x, *y)?));
            Ok(())
        }
        _ => Err(RuntimeError::TypeError {
            op,
            got: format!("{} and {}", a.type_name(), b.type_name()),
        }),
    }
}

/// Comparison ordering for `<`/`<=`/`>`/`>=`: ints and strings only,
/// with the tier-shared type error for anything else.
pub(crate) fn compare_values(
    a: &Value,
    b: &Value,
    op: &'static str,
) -> Result<std::cmp::Ordering, RuntimeError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(x.cmp(y)),
        (Value::Str(x), Value::Str(y)) => Ok(x.cmp(y)),
        _ => Err(RuntimeError::TypeError {
            op,
            got: format!("{} and {}", a.type_name(), b.type_name()),
        }),
    }
}

fn compare(
    stack: &mut Vec<Value>,
    op: &'static str,
    accept: impl Fn(std::cmp::Ordering) -> bool,
) -> Result<(), RuntimeError> {
    let (a, b) = pop2(stack)?;
    let ordering = compare_values(&a, &b, op)?;
    stack.push(Value::Bool(accept(ordering)));
    Ok(())
}

pub(crate) fn index_value(target: &Value, index: &Value) -> Value {
    let Value::Int(i) = index else {
        return Value::Nil;
    };
    if *i < 0 {
        return Value::Nil;
    }
    let i = *i as usize;
    match target {
        Value::List(items) => items.get(i).cloned().unwrap_or(Value::Nil),
        Value::Str(s) => s
            .chars()
            .nth(i)
            .map_or(Value::Nil, |c| Value::Str(c.to_string())),
        _ => Value::Nil,
    }
}

fn element_at(bc: &Briefcase, folder: &str, idx: i64) -> Value {
    if idx < 0 {
        return Value::Nil;
    }
    match bc.folder(folder).and_then(|f| f.get(idx as usize)) {
        Some(e) => Value::from_element(e),
        None => Value::Nil,
    }
}

fn floor_char_boundary(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_source, NullHooks};

    fn run(src: &str) -> (Result<Outcome, RuntimeError>, Briefcase, Vec<String>) {
        let program = compile_source(src).unwrap();
        let mut bc = Briefcase::new();
        let mut vm = Vm::new(&program, NullHooks::default());
        let outcome = vm.run(&mut bc);
        let displayed = vm.into_hooks().displayed;
        (outcome, bc, displayed)
    }

    #[test]
    fn arithmetic_and_locals() {
        let (out, _, shown) = run("fn main() { let x = 2 + 3 * 4; display(x, x % 5, -x); }");
        assert_eq!(out.unwrap(), Outcome::Finished);
        assert_eq!(shown, vec!["14 4 -14"]);
    }

    #[test]
    fn string_concat_and_comparison() {
        let (out, _, shown) = run(r#"fn main() {
                display("a" + "b" + str(3));
                if ("abc" < "abd") { display("lt"); }
            }"#);
        assert_eq!(out.unwrap(), Outcome::Finished);
        assert_eq!(shown, vec!["ab3", "lt"]);
    }

    #[test]
    fn while_loop_with_break_continue() {
        let (out, _, shown) = run(r#"fn main() {
                let i = 0;
                while (1) {
                    i = i + 1;
                    if (i == 3) { continue; }
                    if (i > 5) { break; }
                    display(i);
                }
                display("done " + str(i));
            }"#);
        assert_eq!(out.unwrap(), Outcome::Finished);
        assert_eq!(shown, vec!["1", "2", "4", "5", "done 6"]);
    }

    #[test]
    fn recursion_fib() {
        let (out, _, shown) = run(r#"
            fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
            fn main() { display(fib(15)); }
            "#);
        assert_eq!(out.unwrap(), Outcome::Finished);
        assert_eq!(shown, vec!["610"]);
    }

    #[test]
    fn briefcase_builtins_mutate_state() {
        let (out, bc, _) = run(r#"fn main() {
                bc_append("RESULTS", "r1");
                bc_append("RESULTS", "r2");
                bc_set("STATUS", "done");
                if (bc_len("RESULTS") != 2) { exit(1); }
                if (!bc_has("STATUS")) { exit(2); }
                let first = bc_remove("RESULTS", 0);
                if (first != "r1") { exit(3); }
                exit(0);
            }"#);
        assert_eq!(out.unwrap(), Outcome::Exit(0));
        assert_eq!(bc.folder("RESULTS").unwrap().len(), 1);
        assert_eq!(bc.single_str("STATUS").unwrap(), "done");
    }

    #[test]
    fn figure4_agent_drains_hosts_under_null_hooks() {
        let program = compile_source(
            r#"fn main() {
                while (1) {
                    display("Hello world");
                    let e = bc_remove("HOSTS", 0);
                    if (e == nil) { exit(0); }
                    if (go(e)) { display("Unable to reach " + e); }
                }
            }"#,
        )
        .unwrap();
        let mut bc = Briefcase::new();
        bc.append("HOSTS", "tacoma://h1/vm")
            .append("HOSTS", "tacoma://h2/vm");
        let mut vm = Vm::new(&program, NullHooks::default());
        assert_eq!(vm.run(&mut bc).unwrap(), Outcome::Exit(0));
        let shown = &vm.hooks().displayed;
        assert_eq!(
            shown.as_slice(),
            [
                "Hello world",
                "Unable to reach tacoma://h1/vm",
                "Hello world",
                "Unable to reach tacoma://h2/vm",
                "Hello world",
            ]
        );
        assert!(bc.folder("HOSTS").unwrap().is_empty());
    }

    #[test]
    fn go_success_yields_moved() {
        struct AlwaysMove;
        impl HostHooks for AlwaysMove {
            fn display(&mut self, _: &str) {}
            fn go(&mut self, _: &str, _: &Briefcase) -> GoDecision {
                GoDecision::Moved
            }
            fn spawn(&mut self, _: &str, _: &Briefcase) -> Option<String> {
                None
            }
            fn activate(&mut self, _: &str, _: &Briefcase) -> bool {
                false
            }
            fn meet(&mut self, _: &str, _: &Briefcase) -> Option<Briefcase> {
                None
            }
            fn await_bc(&mut self, _: i64) -> Option<Briefcase> {
                None
            }
            fn now_ms(&mut self) -> i64 {
                0
            }
            fn host_name(&mut self) -> String {
                "x".into()
            }
        }
        let program =
            compile_source(r#"fn main() { go("tacoma://h1/vm"); display("unreachable"); }"#)
                .unwrap();
        let mut bc = Briefcase::new();
        let mut vm = Vm::new(&program, AlwaysMove);
        assert_eq!(
            vm.run(&mut bc).unwrap(),
            Outcome::Moved {
                to: "tacoma://h1/vm".into()
            }
        );
    }

    #[test]
    fn division_by_zero_is_an_error_not_a_panic() {
        let (out, _, _) = run("fn main() { let x = 1 / 0; }");
        assert_eq!(out.unwrap_err(), RuntimeError::DivisionByZero);
        let (out, _, _) = run("fn main() { let x = 1 % 0; }");
        assert_eq!(out.unwrap_err(), RuntimeError::DivisionByZero);
    }

    #[test]
    fn type_errors_are_contained() {
        let (out, _, _) = run(r#"fn main() { let x = 1 - "a"; }"#);
        assert!(matches!(
            out.unwrap_err(),
            RuntimeError::TypeError { op: "subtract", .. }
        ));
        let (out, _, _) = run(r#"fn main() { let x = nil < 1; }"#);
        assert!(matches!(out.unwrap_err(), RuntimeError::TypeError { .. }));
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let program = compile_source("fn main() { while (1) { } }").unwrap();
        let mut bc = Briefcase::new();
        let mut vm = Vm::new(&program, NullHooks::default()).with_fuel(10_000);
        assert_eq!(vm.run(&mut bc).unwrap_err(), RuntimeError::OutOfFuel);
    }

    #[test]
    fn fuel_budget_is_exact_at_the_boundary() {
        // `fn main() { exit(0); }` executes exactly two instructions:
        // Const(0) and the exit builtin. A budget of 2 must suffice; a
        // budget of 1 must run dry (regression: fuel was double-charged,
        // so budget N bought only N-1 instructions).
        let program = compile_source("fn main() { exit(0); }").unwrap();
        let mut bc = Briefcase::new();

        let mut vm = Vm::new(&program, NullHooks::default()).with_fuel(2);
        assert_eq!(vm.run(&mut bc).unwrap(), Outcome::Exit(0));

        let mut vm = Vm::new(&program, NullHooks::default()).with_fuel(1);
        assert_eq!(vm.run(&mut bc).unwrap_err(), RuntimeError::OutOfFuel);
    }

    #[test]
    fn zero_fuel_executes_nothing() {
        let program = compile_source("fn main() { exit(0); }").unwrap();
        let mut bc = Briefcase::new();
        let mut vm = Vm::new(&program, NullHooks::default()).with_fuel(0);
        assert_eq!(vm.run(&mut bc).unwrap_err(), RuntimeError::OutOfFuel);
    }

    #[test]
    fn unbounded_recursion_overflows_cleanly() {
        let program = compile_source("fn f() { return f(); } fn main() { f(); }").unwrap();
        let mut bc = Briefcase::new();
        let mut vm = Vm::new(&program, NullHooks::default());
        assert_eq!(vm.run(&mut bc).unwrap_err(), RuntimeError::StackOverflow);
    }

    #[test]
    fn lists_index_and_concat() {
        let (out, _, shown) = run(r#"fn main() {
                let l = [1, 2] + [3];
                display(len(l), l[0], l[2], l[9] == nil);
                let l2 = push(l, 4);
                display(len(l), len(l2), get(l2, 3));
            }"#);
        assert_eq!(out.unwrap(), Outcome::Finished);
        assert_eq!(shown, vec!["3 1 3 true", "3 4 4"]);
    }

    #[test]
    fn string_builtins() {
        let (out, _, shown) = run(r#"fn main() {
                let s = "tacoma://h1/vm_c:42";
                display(substr(s, 0, 6));
                display(find(s, "://"));
                display(starts_with(s, "tacoma"), contains(s, "vm_c"));
                display(join(split("a,b,c", ","), "-"));
                display(int("17") + 1, int("x") == nil);
            }"#);
        assert_eq!(out.unwrap(), Outcome::Finished);
        assert_eq!(shown, vec!["tacoma", "6", "true true", "a-b-c", "18 true"]);
    }

    #[test]
    fn substr_is_unicode_safe() {
        let (out, _, shown) = run(r#"fn main() { display(substr("æøå", 0, 1)); }"#);
        // 1 byte lands inside `æ`; clamped to the boundary → empty string.
        assert_eq!(out.unwrap(), Outcome::Finished);
        assert_eq!(shown, vec![""]);
    }

    #[test]
    fn meet_merges_reply_into_briefcase() {
        struct Replier;
        impl HostHooks for Replier {
            fn display(&mut self, _: &str) {}
            fn go(&mut self, _: &str, _: &Briefcase) -> GoDecision {
                GoDecision::Unreachable
            }
            fn spawn(&mut self, _: &str, _: &Briefcase) -> Option<String> {
                None
            }
            fn activate(&mut self, _: &str, _: &Briefcase) -> bool {
                true
            }
            fn meet(&mut self, _: &str, _: &Briefcase) -> Option<Briefcase> {
                let mut reply = Briefcase::new();
                reply.append("ANSWER", "42");
                Some(reply)
            }
            fn await_bc(&mut self, _: i64) -> Option<Briefcase> {
                None
            }
            fn now_ms(&mut self) -> i64 {
                7
            }
            fn host_name(&mut self) -> String {
                "srv".into()
            }
        }
        let program = compile_source(
            r#"fn main() {
                if (meet("ag_oracle")) { display(bc_get("ANSWER", 0)); }
                display(now_ms(), host_name());
            }"#,
        )
        .unwrap();
        let mut bc = Briefcase::new();
        let mut vm = Vm::new(&program, Replier);
        vm.run(&mut bc).unwrap();
        // Hooks are consumed; inspect via displayed? Replier doesn't record.
        assert_eq!(bc.single_str("ANSWER").unwrap(), "42");
    }

    #[test]
    fn exit_code_is_propagated() {
        let (out, _, _) = run("fn main() { exit(42); display(1); }");
        assert_eq!(out.unwrap(), Outcome::Exit(42));
    }
}
