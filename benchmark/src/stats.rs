//! Small statistics and parsers: percentiles, quartile spread, window
//! trimming, and `key=value` stats-line deltas.

use std::collections::BTreeMap;

/// Nearest-rank percentile of `sorted` (ascending), `p` in `0..=100`.
/// Returns 0 for an empty slice so a metric nobody sampled prints as 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (NaN-free input assumed) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the acceptance check applies to repeated runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Window trimming: the values of the samples whose completion time lies
/// in `[start, end)`. Warm-up and drain completions fall outside.
pub fn trim_window(samples: &[(f64, f64)], start: f64, end: f64) -> Vec<f64> {
    samples
        .iter()
        .filter(|(done, _)| *done >= start && *done < end)
        .map(|(_, value)| *value)
        .collect()
}

/// Parses every `key=value` token with an unsigned value out of a taxd
/// stats reply (the firewall counter line; the `journal:` section's keys
/// are prefixed `journal.` so they cannot shadow firewall counters).
pub fn parse_stats(text: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let (prefix, rest) = match line.strip_prefix("journal:") {
            Some(rest) => ("journal.", rest),
            None => ("", line),
        };
        for token in rest.split_whitespace() {
            if let Some((key, value)) = token.split_once('=') {
                if let Ok(value) = value.parse::<u64>() {
                    out.insert(format!("{prefix}{key}"), value);
                }
            }
        }
    }
    out
}

/// `after[key] - before[key]`, treating a missing key as 0 and a counter
/// that went backwards (a gauge) as 0.
pub fn delta(after: &BTreeMap<String, u64>, before: &BTreeMap<String, u64>, key: &str) -> u64 {
    let a = after.get(key).copied().unwrap_or(0);
    let b = before.get(key).copied().unwrap_or(0);
    a.saturating_sub(b)
}

/// `hits / (hits + misses)`, or 0 when nothing was looked up.
pub fn ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // 20 samples: p95 is the 19th, leaving one beyond it.
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), 19.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((spread(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn window_trimming_is_half_open() {
        let samples = [(0.5, 1.0), (1.0, 2.0), (1.5, 3.0), (2.0, 4.0), (9.0, 5.0)];
        assert_eq!(trim_window(&samples, 1.0, 2.0), vec![2.0, 3.0]);
        assert!(trim_window(&samples, 3.0, 4.0).is_empty());
    }

    #[test]
    fn stats_line_deltas() {
        let before = parse_stats(
            "local=0 remote=4 denied=0 tx-frames=4 q-high=1 jr-fsyncs=6 hop-dedup=0\n\
             journal: records=12 bytes=4096 fsyncs=6 open-hops=0",
        );
        let after = parse_stats(
            "local=0 remote=10 denied=0 tx-frames=10 q-high=1 jr-fsyncs=15 hop-dedup=0 junk=x\n\
             journal: records=30 bytes=9000 fsyncs=15 open-hops=1",
        );
        assert_eq!(delta(&after, &before, "tx-frames"), 6);
        assert_eq!(delta(&after, &before, "jr-fsyncs"), 9);
        assert_eq!(delta(&after, &before, "journal.records"), 18);
        assert_eq!(delta(&after, &before, "absent"), 0);
        assert_eq!(delta(&before, &after, "remote"), 0);
        assert!(!after.contains_key("junk"));
        assert_eq!(ratio(3, 1), 0.75);
        assert_eq!(ratio(0, 0), 0.0);
    }
}
