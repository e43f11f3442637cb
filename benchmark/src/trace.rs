//! Spans: recorded in memory around calls into each layer, written to
//! `trace-<workload>.json` once, when the traced run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::drive::RunLog;
use crate::json::{obj, Value};

/// One timed call. `parent` indexes into the same span list; times are
/// microseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// The `BENCH:ID` of the tour this span belongs to.
    pub tour: String,
}

/// Per span name: the durations of every call, ascending, in µs.
pub type Durations = BTreeMap<&'static str, Vec<f64>>;

/// In-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, tour: &str) -> usize {
        let now = self.now_us();
        self.add(name, now, now, parent, tour)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_us = self.now_us();
    }

    /// Times `f` as a child span of `parent`.
    pub fn timed<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let tour = self.spans[parent].tour.clone();
        let span = self.open(name, Some(parent), &tour);
        let result = f();
        self.close(span);
        result
    }

    /// Adds an already-measured span (a tour the driver timed).
    pub fn add(
        &mut self,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        tour: &str,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            tour: tour.to_owned(),
        });
        self.spans.len() - 1
    }

    pub fn durations(&self) -> Durations {
        let mut by_name = Durations::new();
        for span in &self.spans {
            by_name
                .entry(span.name)
                .or_default()
                .push(span.end_us - span.start_us);
        }
        for values in by_name.values_mut() {
            values.sort_by(f64::total_cmp);
        }
        by_name
    }

    /// Writes the spans, and the 1 Hz daemon samples of `log`, as JSON.
    ///
    /// # Errors
    ///
    /// I/O failure creating the directory or writing the file.
    pub fn write(
        &self,
        path: &Path,
        workload: &str,
        seed: u64,
        log: &RunLog,
    ) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj([
                    ("name", Value::Str(s.name.to_owned())),
                    ("start_us", Value::Num(s.start_us)),
                    ("end_us", Value::Num(s.end_us)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("tour", Value::Str(s.tour.clone())),
                ])
            })
            .collect();
        let samples = log
            .series
            .iter()
            .map(|snap| {
                let daemon = |i: usize| {
                    let p = &snap.proc_[i];
                    let mut members = vec![
                        ("cpu_user_s".to_owned(), Value::Num(p.user_s)),
                        ("cpu_sys_s".to_owned(), Value::Num(p.sys_s)),
                        ("rss_peak_mb".to_owned(), Value::Num(p.rss_peak_mb)),
                        ("vol_ctx".to_owned(), Value::Num(p.vol_ctx as f64)),
                    ];
                    members.extend(
                        snap.stats[i]
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Num(*v as f64))),
                    );
                    Value::Obj(members)
                };
                obj([
                    ("at_us", Value::Num(snap.at * 1e6)),
                    ("alpha", daemon(0)),
                    ("beta", daemon(1)),
                ])
            })
            .collect();
        let doc = obj([
            ("workload", Value::Str(workload.to_owned())),
            ("seed", Value::Num(seed as f64)),
            ("spans", Value::Arr(spans)),
            ("samples", Value::Arr(samples)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}
