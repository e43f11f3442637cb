//! The layer benchmarks' harness: one argument parser, one repetition
//! estimator, one gate table, one JSON writer and one text table, shared
//! by every experiment `exp_layers` runs.
//!
//! Every wall-clock figure is measured one way. The arms being compared
//! run [`REPS`] times each, taking turns, so a noisy stretch of a shared
//! machine lands on every arm rather than on the one a gate divides by. A
//! ratio is the median of the per-rep ratios; an absolute figure is the
//! median of its reps.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Timed repetitions of every arm.
pub const REPS: usize = 5;

/// Every wall-clock gate `--check` enforces, as (dotted path into the
/// report, least passing value): the CoW migration hop and warm
/// admission (E9), journaled ÷ in-memory throughput at the best fsync
/// batch ≥ 8 (E10), pipelined acks at WAN RTT and the peer count reached
/// (E12), fused dispatch on two workloads and warm launches (E13).
pub const GATES: [(&str, f64); 8] = [
    ("e9_parallel_fleet.briefcase_migrate.speedup", 5.0),
    ("e9_parallel_fleet.admission_cache.warm_speedup", 5.0),
    ("e10_durable_journal.journaled_best_batch_ge8_vs_inmem", 0.5),
    ("e12_reactor_transport.pipelining.speedup", 3.0),
    ("e12_reactor_transport.peer_scale.peers", 256.0),
    ("e13_vm_dispatch.dispatch.loop_heavy.speedup", 2.0),
    ("e13_vm_dispatch.dispatch.mine_shaped.speedup", 2.2),
    ("e13_vm_dispatch.launch.speedup", 5.0),
];

/// The command line: `--smoke` shrinks every workload, `--check`
/// enforces [`GATES`], `--json` prints JSON instead of the text table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Args {
    /// Small workloads (the CI mode).
    pub smoke: bool,
    /// Exit non-zero if a gate or an invariant fails.
    pub check: bool,
    /// Print the report as JSON.
    pub json: bool,
}

impl Args {
    /// Parses the flags; anything else is an error.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the first unknown argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        for arg in args {
            match arg.as_str() {
                "--smoke" => out.smoke = true,
                "--check" => out.check = true,
                "--json" => out.json = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(out)
    }
}

/// Runs each arm [`REPS`] times, the arms taking turns, and returns each
/// arm's samples in rep order.
pub fn interleave<T, const N: usize>(mut arms: [&mut dyn FnMut() -> T; N]) -> [Vec<T>; N] {
    let mut samples: [Vec<T>; N] = std::array::from_fn(|_| Vec::with_capacity(REPS));
    for _ in 0..REPS {
        for (arm, out) in arms.iter_mut().zip(&mut samples) {
            out.push(arm());
        }
    }
    samples
}

/// Seconds `f` takes.
pub fn timed(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

/// The median of `xs` (the upper middle for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The median over reps of `num[i] / den[i]`.
pub fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    let ratios = num
        .iter()
        .zip(den)
        .map(|(n, d)| n / d.max(f64::MIN_POSITIVE));
    median(&ratios.collect::<Vec<_>>())
}

/// A JSON value, as the report writes it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number, written rounded to three decimals.
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::Num(x as f64)
            }
        }
    )*};
}
json_from_number!(f64, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Sets `value` at a dotted path of object keys, creating objects on
    /// the way.
    ///
    /// # Panics
    ///
    /// Panics if the path runs through a number or a bool.
    pub fn put(&mut self, path: &str, value: impl Into<Json>) {
        let Json::Obj(fields) = self else {
            panic!("`{path}` runs through a scalar")
        };
        let (key, rest) = path.split_once('.').unwrap_or((path, ""));
        if !fields.iter().any(|(k, _)| k == key) {
            fields.push((key.to_owned(), Json::obj()));
        }
        let slot = &mut fields.iter_mut().find(|(k, _)| k == key).expect("pushed").1;
        if rest.is_empty() {
            *slot = value.into();
        } else {
            slot.put(rest, value);
        }
    }

    /// The value at a dotted path of object keys.
    pub fn get(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |node, key| match node {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        })
    }

    /// Two-space-indented JSON, with objects of scalars on one line.
    pub fn pretty(&self) -> String {
        self.indented(0)
    }

    fn indented(&self, indent: usize) -> String {
        let Json::Obj(fields) = self else {
            return match self {
                Json::Num(x) if x.is_finite() => format!("{}", (x * 1e3).round() / 1e3),
                Json::Bool(b) => b.to_string(),
                _ => "null".to_owned(),
            };
        };
        let flat = fields.iter().all(|(_, v)| !matches!(v, Json::Obj(_)));
        let pad = if flat { 0 } else { indent + 2 };
        let inner = fields
            .iter()
            .map(|(k, v)| format!("{:pad$}{k:?}: {}", "", v.indented(pad)));
        let inner: Vec<String> = inner.collect();
        if flat {
            format!("{{ {} }}", inner.join(", "))
        } else {
            format!("{{\n{}\n{:indent$}}}", inner.join(",\n"), "")
        }
    }

    /// `(dotted path, value)` for every scalar, in document order.
    fn leaves(&self, prefix: &str, out: &mut Vec<(String, String)>) {
        if let Json::Obj(fields) = self {
            for (k, v) in fields {
                let dot = if prefix.is_empty() { "" } else { "." };
                v.leaves(&format!("{prefix}{dot}{k}"), out);
            }
        } else {
            out.push((prefix.to_owned(), self.pretty()));
        }
    }
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        let _ = write!(line, "{cell:>width$}  ");
    }
    println!("{}", line.trim_end());
}

/// Prints a header row plus a rule.
pub fn header(cells: &[&str], widths: &[usize]) {
    row(
        &cells.iter().map(ToString::to_string).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
}

/// The whole run's results: one JSON section per experiment, plus the
/// invariants (non-ratio checks such as "no briefcase lost") they broke.
#[derive(Debug)]
pub struct Report {
    doc: Json,
    broken: Vec<String>,
}

impl Report {
    /// An empty report for a run in the given mode.
    pub fn new(smoke: bool) -> Report {
        let mut doc = Json::obj();
        doc.put("smoke", smoke);
        doc.put("reps", REPS);
        Report {
            doc,
            broken: Vec::new(),
        }
    }

    /// Sets `value` at a dotted path: an experiment's whole section, or
    /// one figure in it.
    pub fn put(&mut self, path: &str, value: impl Into<Json>) {
        self.doc.put(path, value);
    }

    /// Records an invariant; `--check` fails if `ok` is false.
    pub fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.broken.push(what.into());
        }
    }

    /// Every gate below its minimum (or missing) and every broken
    /// invariant, one message each.
    pub fn failures(&self) -> Vec<String> {
        let gates = GATES
            .iter()
            .filter_map(|&(key, min)| match self.doc.get(key) {
                Some(Json::Num(x)) if *x >= min => None,
                Some(Json::Num(x)) => Some(format!("{key} = {x:.3}, below its gate {min}")),
                _ => Some(format!("{key} missing (gate {min})")),
            });
        gates.chain(self.broken.iter().cloned()).collect()
    }

    /// Prints the report (JSON, or one text table with a gate column)
    /// and, under `--check`, every failure; the exit code is non-zero
    /// iff a check failed.
    pub fn finish(&self, args: Args) -> ExitCode {
        if args.json {
            println!("{}", self.doc.pretty());
        } else {
            let mut leaves = Vec::new();
            self.doc.leaves("", &mut leaves);
            let widths = [64, 16, 8];
            header(&["quantity", "value", "gate"], &widths);
            for (path, value) in leaves {
                let gate = GATES.iter().find(|(key, _)| *key == path);
                let gate = gate.map_or(String::new(), |(_, min)| format!(">= {min}"));
                row(&[path, value, gate], &widths);
            }
        }
        if !args.check {
            return ExitCode::SUCCESS;
        }
        let failures = self.failures();
        for failure in &failures {
            eprintln!("CHECK FAILED: {failure}");
        }
        if !failures.is_empty() {
            return ExitCode::FAILURE;
        }
        eprintln!("check ok: {} gates and every invariant hold", GATES.len());
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report holding every gated value, as `value` picks it.
    fn report_with(value: impl Fn(&str, f64) -> f64) -> Report {
        let mut report = Report::new(true);
        for (key, min) in GATES {
            report.put(key, value(key, min));
        }
        report
    }

    #[test]
    fn a_row_below_its_gate_fails_check_and_names_it() {
        let check = Args::parse(["--check".to_owned(), "--json".to_owned()]).unwrap();
        let passing = report_with(|_, min| min);
        assert!(passing.failures().is_empty(), "{:?}", passing.failures());
        assert_eq!(passing.finish(check), ExitCode::SUCCESS);

        let gate = "e10_durable_journal.journaled_best_batch_ge8_vs_inmem";
        let mut failing = report_with(|key, min| if key == gate { 0.45 } else { min });
        let failures = failing.failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains(gate) && failures[0].contains("gate 0.5"));
        assert_eq!(failing.finish(check), ExitCode::FAILURE);
        assert_eq!(failing.finish(Args::default()), ExitCode::SUCCESS);

        failing.put(gate, 0.5);
        failing.require(false, "lost briefcases");
        assert_eq!(failing.failures(), ["lost briefcases"]);
        assert_eq!(Report::new(false).failures().len(), GATES.len());
    }

    #[test]
    fn gates_hold_each_of_the_eight_values_once() {
        let expected = [
            ("e9_parallel_fleet.briefcase_migrate.speedup", 5.0),
            ("e9_parallel_fleet.admission_cache.warm_speedup", 5.0),
            ("e10_durable_journal.journaled_best_batch_ge8_vs_inmem", 0.5),
            ("e12_reactor_transport.pipelining.speedup", 3.0),
            ("e12_reactor_transport.peer_scale.peers", 256.0),
            ("e13_vm_dispatch.dispatch.loop_heavy.speedup", 2.0),
            ("e13_vm_dispatch.dispatch.mine_shaped.speedup", 2.2),
            ("e13_vm_dispatch.launch.speedup", 5.0),
        ];
        assert_eq!(GATES, expected);
        let mut keys = GATES.map(|(key, _)| key);
        keys.sort_unstable();
        let unique = keys.windows(2).all(|w| w[0] != w[1]);
        assert!(unique, "a gate appears twice");
    }

    #[test]
    fn args_take_only_the_three_flags() {
        let args = |xs: &[&str]| Args::parse(xs.iter().map(ToString::to_string));
        let parsed = args(&["--smoke", "--check"]).unwrap();
        assert!(parsed.smoke && parsed.check && !parsed.json);
        assert!(args(&["--reps", "3"]).unwrap_err().contains("--reps"));
    }

    #[test]
    fn json_is_written_compactly_and_read_back_by_path() {
        let mut doc = Json::obj();
        doc.put("a.x", 1.234_56);
        doc.put("a.n", 2usize);
        doc.put("b.c.ok", true);
        assert_eq!(doc.get("a.x"), Some(&Json::Num(1.234_56)));
        assert_eq!(doc.get("a.y"), None);
        let pretty = "{\n  \"a\": { \"x\": 1.235, \"n\": 2 },\n  \"b\": {\n    \"c\": { \"ok\": true }\n  }\n}";
        assert_eq!(doc.pretty(), pretty);
    }

    #[test]
    fn arms_take_turns_and_ratios_pair_their_reps() {
        let turns = std::cell::RefCell::new(Vec::new());
        let take = |arm| turns.borrow_mut().push(arm);
        let [a, b] = interleave([&mut || take('a'), &mut || take('b')]);
        assert_eq!((a.len(), b.len()), (REPS, REPS));
        assert_eq!(turns.borrow()[..4], ['a', 'b', 'a', 'b']);
        // Per-rep ratios 2, 4 and 1.
        assert!((median_ratio(&[2.0, 8.0, 1.0], &[1.0, 2.0, 1.0]) - 2.0).abs() < 1e-12);
    }
}
