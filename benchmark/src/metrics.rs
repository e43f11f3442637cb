//! The metric tables `BENCHMARK.json` declares, and how each value is
//! computed from what a run observed.

use std::collections::BTreeMap;

use crate::drive::{slice_is_traced, RunLog, Snapshot, TourRecord, SLICE_S};
use crate::pair::ProcSample;
use crate::stats::{delta, percentile, ratio, sorted, trim_window};
use crate::trace::Durations;
use crate::workload::{Agent, Inputs, Workload, HOPS_PER_TOUR};

/// A metric's stable name and unit.
pub type MetricDef = (&'static str, &'static str);

/// Computed metrics by name: value and the number of samples behind it.
pub type Measured = BTreeMap<&'static str, (f64, usize)>;

/// What a user of the system sees; printed by the timed (untraced) run.
/// Tours lost is not in this list because it is always 0 and a bound is
/// a share of the parent's value: it is the result line's `failed` count
/// (and `harness.tours_lost`), and any loss fails the run.
pub const END_TO_END: [MetricDef; 7] = [
    ("hops_per_s", "hops/s"),
    ("tour_ms_p50", "ms"),
    ("tour_ms_p95", "ms"),
    ("goodput_mb_s", "MB/s"),
    ("cpu_ms_per_hop", "ms"),
    ("rss_peak_mb", "MB"),
    ("setup_s", "s"),
];

/// Single-layer numbers, prefix = module; printed by the traced run.
pub const PER_LAYER: [MetricDef; 57] = [
    ("harness.tours_done", "count"),
    ("harness.hops_done", "count"),
    ("harness.tours_lost", "count"),
    ("harness.tour_ms_p99", "ms"),
    ("harness.tour_ms_max", "ms"),
    ("harness.inject_ack_us_p50", "us"),
    ("harness.report_gap_ms_p50", "ms"),
    ("harness.reports_missing", "count"),
    ("harness.hops_per_s_first_third", "hops/s"),
    ("harness.hops_per_s_last_third", "hops/s"),
    ("taxd.cpu_util", "ratio"),
    ("taxd.cpu_sys_ms_per_hop", "ms"),
    ("taxd.vol_ctx_switches_per_hop", "1/hop"),
    ("taxd.stdout_bytes_per_hop", "B/hop"),
    ("taxd.decay_ratio", "ratio"),
    ("taxd.loop_overhead_us", "us"),
    ("transport.tx_frames_per_hop", "1/hop"),
    ("transport.tx_bytes_per_hop", "B/hop"),
    ("transport.acks_per_hop", "1/hop"),
    ("transport.retransmits", "count"),
    ("transport.reconnects", "count"),
    ("transport.queue_high_water", "count"),
    ("transport.queue_drops", "count"),
    ("transport.frame_decode_us", "us"),
    ("transport.ship_ack_us", "us"),
    ("journal.records_per_hop", "1/hop"),
    ("journal.bytes_per_hop", "B/hop"),
    ("journal.fsyncs_per_hop", "1/hop"),
    ("journal.hops_deduped", "count"),
    ("journal.door_begin_us", "us"),
    ("journal.hop_begin_us", "us"),
    ("journal.hop_commit_us", "us"),
    ("firewall.installed_per_hop", "1/hop"),
    ("firewall.verified_per_hop", "1/hop"),
    ("firewall.denied", "count"),
    ("firewall.queued", "count"),
    ("firewall.expired", "count"),
    ("firewall.analysis_cache_hit_ratio", "ratio"),
    ("firewall.message_decode_us", "us"),
    ("firewall.message_encode_us", "us"),
    ("firewall.admission_us", "us"),
    ("vm.program_cache_hit_ratio", "ratio"),
    ("vm.pool_hit_ratio", "ratio"),
    ("vm.execute_us", "us"),
    ("vm.launch_us", "us"),
    ("taxscript.dispatch_us", "us"),
    ("briefcase.decode_us", "us"),
    ("briefcase.encode_us", "us"),
    ("core.inject_us", "us"),
    ("core.run_until_quiet_us", "us"),
    ("core.pump_us", "us"),
    ("core.hop_inproc_us", "us"),
    ("trace.stage_sum_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.replayed_hops", "count"),
    ("trace.spans", "count"),
];

/// Counters whose movement during a run is worth a warning line.
pub const WATCHED: [&str; 4] = ["denied", "expired", "hop-dedup", "retransmits"];

/// A counter's movement between two snapshots, summed over both daemons.
pub fn total_delta(after: &Snapshot, before: &Snapshot, key: &str) -> u64 {
    (0..2)
        .map(|i| delta(&after.stats[i], &before.stats[i], key))
        .sum()
}

/// A `/proc` quantity's movement over the window, summed over both daemons.
fn proc_delta(log: &RunLog, f: fn(&ProcSample) -> f64) -> f64 {
    (0..2)
        .map(|i| f(&log.window_end.proc_[i]) - f(&log.window_start.proc_[i]))
        .sum()
}

/// Tours of a run restricted to its measured window.
pub struct Window<'a> {
    start: f64,
    pub secs: f64,
    /// Tours that completed inside the window, intact and exactly once.
    pub done: Vec<&'a TourRecord>,
    /// Their latencies, ascending, in ms.
    pub tour_ms: Vec<f64>,
    /// Tours injected inside the window that never came back right.
    pub lost: usize,
}

impl<'a> Window<'a> {
    pub fn of(log: &'a RunLog, workload: &Workload) -> Window<'a> {
        let reports = workload.agent == Agent::Report;
        let (start, end) = (log.window_start.at, log.window_end.at);
        let inside = |t: f64| t >= start && t < end;
        let good = || log.tours.iter().filter(move |t| t.ok(reports));
        let samples: Vec<(f64, f64)> = good()
            .filter_map(|t| t.done_at.map(|d| (d, (d - t.injected_at) * 1e3)))
            .collect();
        Window {
            start,
            secs: end - start,
            done: good().filter(|t| t.done_at.is_some_and(inside)).collect(),
            tour_ms: sorted(trim_window(&samples, start, end)),
            lost: log
                .tours
                .iter()
                .filter(|t| inside(t.injected_at) && !t.ok(reports))
                .count(),
        }
    }

    pub fn hops(&self) -> f64 {
        (self.done.len() as u64 * HOPS_PER_TOUR) as f64
    }

    /// Hops per second over the `part`-th of `of` equal slices.
    fn hops_per_s_in(&self, part: usize, of: usize) -> f64 {
        let width = self.secs / of as f64;
        let from = self.start + width * part as f64;
        let count = self
            .done
            .iter()
            .filter(|t| t.done_at.is_some_and(|d| d >= from && d < from + width))
            .count();
        (count as u64 * HOPS_PER_TOUR) as f64 / width
    }
}

/// The end-to-end metrics of one round, in [`END_TO_END`] order.
pub fn end_to_end(log: &RunLog, window: &Window<'_>, inputs: &Inputs) -> [(&'static str, f64); 7] {
    let hops = window.hops();
    let cpu_s = proc_delta(log, |p| p.user_s + p.sys_s);
    let rss = log.window_end.proc_.iter().map(|p| p.rss_peak_mb);
    [
        ("hops_per_s", hops / window.secs),
        ("tour_ms_p50", percentile(&window.tour_ms, 50.0)),
        ("tour_ms_p95", percentile(&window.tour_ms, 95.0)),
        (
            "goodput_mb_s",
            hops * inputs.payload_bytes_per_hop / window.secs / 1e6,
        ),
        ("cpu_ms_per_hop", cpu_s * 1e3 / hops.max(1.0)),
        ("rss_peak_mb", rss.fold(0.0, f64::max)),
        ("setup_s", log.setup_s),
    ]
}

/// Per-layer metrics the real pair yields: the harness's own timings,
/// the daemons' `/proc` counters, and stats-frame deltas over the window.
pub fn pair_layers(log: &RunLog, window: &Window<'_>, m: &mut Measured) {
    let hops = window.hops().max(1.0);
    let n = window.tour_ms.len();

    m.insert("harness.tours_done", (window.done.len() as f64, n));
    m.insert("harness.hops_done", (window.hops(), n));
    m.insert("harness.tours_lost", (window.lost as f64, n));
    m.insert(
        "harness.tour_ms_p99",
        (percentile(&window.tour_ms, 99.0), n),
    );
    m.insert(
        "harness.tour_ms_max",
        (percentile(&window.tour_ms, 100.0), n),
    );
    let acks = sorted(window.done.iter().map(|t| t.inject_ack_us).collect());
    m.insert("harness.inject_ack_us_p50", (percentile(&acks, 50.0), n));
    // The gap between consecutive stop reports of one agent is a true
    // per-hop latency sample.
    let gaps = sorted(
        window
            .done
            .iter()
            .flat_map(|t| t.reports.windows(2))
            .filter_map(|w| Some((w[1]? - w[0]?) * 1e3))
            .collect(),
    );
    m.insert(
        "harness.report_gap_ms_p50",
        (percentile(&gaps, 50.0), gaps.len()),
    );
    let missing = log.reports_due;
    m.insert("harness.reports_missing", (missing as f64, log.tours.len()));
    let (first, last) = (window.hops_per_s_in(0, 3), window.hops_per_s_in(2, 3));
    m.insert("harness.hops_per_s_first_third", (first, n));
    m.insert("harness.hops_per_s_last_third", (last, n));

    let cpu_s = proc_delta(log, |p| p.user_s + p.sys_s);
    m.insert("taxd.cpu_util", (cpu_s / (2.0 * window.secs), 2));
    m.insert(
        "taxd.cpu_sys_ms_per_hop",
        (proc_delta(log, |p| p.sys_s) * 1e3 / hops, 2),
    );
    m.insert(
        "taxd.vol_ctx_switches_per_hop",
        (proc_delta(log, |p| p.vol_ctx as f64) / hops, 2),
    );
    m.insert(
        "taxd.stdout_bytes_per_hop",
        (proc_delta(log, |p| p.stdout_bytes as f64) / hops, 2),
    );
    let decay = if first > 0.0 { last / first } else { 0.0 };
    m.insert("taxd.decay_ratio", (decay, n));

    let (after, before) = (&log.window_end, &log.window_start);
    let per_hop = |key: &str| (total_delta(after, before, key) as f64 / hops, 2);
    // Whole-run totals for the counters that must stay 0.
    let total = |key: &str| {
        (
            total_delta(&log.settled, &Snapshot::default(), key) as f64,
            2,
        )
    };
    let hit_ratio = |hits: &str, misses: &str| {
        let (hits, misses) = (
            total_delta(after, before, hits),
            total_delta(after, before, misses),
        );
        (ratio(hits, misses), (hits + misses) as usize)
    };
    m.insert("transport.tx_frames_per_hop", per_hop("tx-frames"));
    m.insert("transport.tx_bytes_per_hop", per_hop("tx-bytes"));
    m.insert("transport.acks_per_hop", per_hop("acks"));
    m.insert("transport.retransmits", total("retransmits"));
    m.insert("transport.reconnects", total("reconnects"));
    let q_high = log
        .settled
        .stats
        .iter()
        .filter_map(|s| s.get("q-high"))
        .max();
    m.insert(
        "transport.queue_high_water",
        (q_high.copied().unwrap_or(0) as f64, 2),
    );
    m.insert("transport.queue_drops", total("q-drops"));
    m.insert("journal.records_per_hop", per_hop("jr-records"));
    m.insert("journal.bytes_per_hop", per_hop("jr-bytes"));
    m.insert("journal.fsyncs_per_hop", per_hop("jr-fsyncs"));
    m.insert("journal.hops_deduped", total("hop-dedup"));
    m.insert("firewall.installed_per_hop", per_hop("installed"));
    m.insert("firewall.verified_per_hop", per_hop("verified"));
    m.insert("firewall.denied", total("denied"));
    m.insert("firewall.queued", total("queued"));
    m.insert("firewall.expired", total("expired"));
    m.insert(
        "firewall.analysis_cache_hit_ratio",
        hit_ratio("cache-hits", "cache-misses"),
    );
    m.insert(
        "vm.program_cache_hit_ratio",
        hit_ratio("prog-hits", "prog-misses"),
    );
    m.insert("vm.pool_hit_ratio", hit_ratio("pool-hits", "pool-misses"));

    // Tracing cost: hops/s in the traced slices over the untraced ones
    // of the same window.
    let slices = (window.secs / SLICE_S).floor() as usize;
    let rate = |traced: bool| {
        let picked: Vec<f64> = (0..slices)
            .filter(|s| slice_is_traced(*s as u64) == traced)
            .map(|s| window.hops_per_s_in(s, slices))
            .collect();
        picked.iter().sum::<f64>() / picked.len().max(1) as f64
    };
    let (untraced, traced) = (rate(false), rate(true));
    let overhead = if untraced > 0.0 {
        traced / untraced
    } else {
        0.0
    };
    m.insert("trace.overhead_ratio", (overhead, slices));
}

/// Per-layer metrics the in-process replay yields: the p50 per call of
/// each stage, self times, and how well the stages add up. Returns
/// `trace.coverage`.
pub fn replay_layers(durations: &Durations, window: &Window<'_>, m: &mut Measured) -> f64 {
    let p50 = |span: &str| {
        durations
            .get(span)
            .map_or((0.0, 0), |v| (percentile(v, 50.0), v.len()))
    };
    let mut layer = |metric: &'static str, span: &str| {
        let (value, calls) = p50(span);
        m.insert(metric, (value, calls));
        value
    };
    let frame_decode = layer("transport.frame_decode_us", "transport.frame_decode");
    let ship_ack = layer("transport.ship_ack_us", "transport.ship_ack");
    let door_begin = layer("journal.door_begin_us", "journal.door_begin");
    let hop_begin = layer("journal.hop_begin_us", "journal.hop_begin");
    let hop_commit = layer("journal.hop_commit_us", "journal.hop_commit");
    let admission = layer("firewall.admission_us", "firewall.admission");
    let message_encode = layer("firewall.message_encode_us", "firewall.message_encode");
    let execute = layer("vm.execute_us", "vm.execute");
    let dispatch = layer("taxscript.dispatch_us", "taxscript.dispatch");
    let briefcase_decode = layer("briefcase.decode_us", "briefcase.decode");
    let briefcase_encode = layer("briefcase.encode_us", "briefcase.encode");
    layer("core.inject_us", "core.inject");
    layer("core.run_until_quiet_us", "core.run_until_quiet");
    layer("core.pump_us", "core.pump");
    let hop_inproc = layer("core.hop_inproc_us", "core.hop_inproc");

    // Self times: a span minus the child timed inside it.
    let (message_decode, calls) = p50("firewall.message_decode");
    m.insert(
        "firewall.message_decode_us",
        ((message_decode - briefcase_decode).max(0.0), calls),
    );
    m.insert("vm.launch_us", ((execute - dispatch).max(0.0), calls));

    let stage_sum = frame_decode
        + message_decode
        + door_begin
        + admission
        + execute
        + briefcase_encode
        + message_encode
        + hop_begin
        + ship_ack
        + hop_commit;
    m.insert("trace.stage_sum_us", (stage_sum, calls));
    let coverage = if hop_inproc > 0.0 {
        stage_sum / hop_inproc
    } else {
        0.0
    };
    m.insert("trace.coverage", (coverage, calls));
    // What a hop through the real pair costs beyond the in-process hop:
    // the daemon loop and the IPC. Negative when the pair overlaps work
    // (one daemon's ack wait with the other's execution) that the
    // in-process path serialises.
    let per_hop_us = percentile(&window.tour_ms, 50.0) * 1e3 / HOPS_PER_TOUR as f64;
    m.insert(
        "taxd.loop_overhead_us",
        (per_hop_us - hop_inproc, window.tour_ms.len()),
    );
    m.insert("trace.replayed_hops", (calls as f64, calls));
    coverage
}
