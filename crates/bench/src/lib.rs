//! The gated benchmark binaries' shared machinery (table printing), plus
//! two workload models: the §4 data-mining scenario (a record store
//! service and an itinerant mining agent) and the briefcase-migration
//! hop. The E1–E8 paper claims are tests in `tests/paper_reproduction.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod migrate;
pub mod mining;

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>width$}  "));
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

/// Formats a `Duration` in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    if d.as_secs() >= 10 {
        format!("{:.1}s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.1}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{}µs", d.as_micros())
    }
}
