//! The pieces every workload shares: the operation tally, the timed loop,
//! panic containment and the step clock that optionally records spans.

use crate::layers::{emit, END_TO_END};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{Metric, RunResult};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Operations attempted and operations whose output check failed (a panic
/// counts as a failure).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn finish(self, metrics: Vec<Metric>) -> RunResult {
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// Runs `f`, turning a panic into `None`.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Calls `f(i)` for `i = 0, 1, ...` until `budget` has elapsed and at
/// least `min_iters` calls were made.
pub fn timed_loop<T>(budget: Duration, min_iters: usize, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_iters || start.elapsed() < budget {
        out.push(f(out.len()));
    }
    out
}

/// Times the steps of one operation, and records each as a child span of
/// the operation's root span when a tracer is attached.
pub struct Steps<'a> {
    tracer: Option<&'a mut Tracer>,
    root: Option<SpanId>,
    op: u64,
}

impl<'a> Steps<'a> {
    pub fn new(mut tracer: Option<&'a mut Tracer>, root_name: &'static str, op: u64) -> Self {
        let root = tracer.as_mut().map(|t| t.begin(root_name, None, op));
        Steps { tracer, root, op }
    }

    /// Runs one step, returning its result and wall time in seconds.
    pub fn step<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self
            .tracer
            .as_mut()
            .map(|t| t.begin(name, self.root, self.op));
        let start = Instant::now();
        let out = f();
        let seconds = start.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.end(id);
        }
        (out, seconds)
    }

    /// [`step`](Self::step) whose span name is chosen from the result.
    pub fn step_as<T>(
        &mut self,
        classify: impl FnOnce(&T) -> &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self
            .tracer
            .as_mut()
            .map(|t| t.begin("", self.root, self.op));
        let start = Instant::now();
        let out = f();
        let seconds = start.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.end(id);
            t.rename(id, classify(&out));
        }
        (out, seconds)
    }
}

impl Drop for Steps<'_> {
    fn drop(&mut self) {
        if let (Some(t), Some(root)) = (self.tracer.as_mut(), self.root) {
            t.end(root);
        }
    }
}

/// Times `reps` samples of `batch` consecutive set-ups each and returns the
/// last set-up built plus the median time of one set-up. Batching lets a
/// set-up of a microsecond be timed without clock overhead.
pub fn measure_setup<T>(reps: usize, batch: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps.max(1) {
        // Only one set-up is ever alive, so peak memory reflects one.
        drop(built.take());
        let start = Instant::now();
        for _ in 1..batch.max(1) {
            drop(std::hint::black_box(build()));
        }
        let value = std::hint::black_box(build());
        times.push(start.elapsed().as_secs_f64() / batch.max(1) as f64);
        built = Some(value);
    }
    (built.expect("at least one set-up ran"), median(&times))
}

/// The end-to-end metric line of an untraced run. `peak_rss_mb` is read
/// by the caller after set-up and the warm-up operation, so it does not
/// depend on how many repetitions fit in the timed phase.
pub fn end_to_end(
    setup_s: f64,
    peak_rss_mb: f64,
    lookups_per_s: f64,
    time_to_landscape_s: f64,
) -> Vec<Metric> {
    let values: BTreeMap<&str, f64> = [
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb),
        ("lookups_per_s", lookups_per_s),
        ("time_to_landscape_s", time_to_landscape_s),
    ]
    .into();
    emit(END_TO_END, &values)
}

/// Median self time of the spans named `name`, in seconds.
pub fn self_p50(tracer: &Tracer, name: &str) -> f64 {
    tracer.self_seconds().get(name).map_or(0.0, |v| median(v))
}

/// The per-layer metric line of a traced run; also writes the trace report
/// (spans, self times, per-layer values, unmeasured metrics) under
/// `args.out`.
pub fn per_layer(
    args: &crate::Args,
    tracer: &Tracer,
    mut values: BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    use crate::layers::{PER_LAYER, UNMEASURED};
    values.insert("trace.spans", tracer.len() as f64);
    values.insert(
        "exec.available_cores",
        crate::stats::available_cores() as f64,
    );
    let metrics = emit(PER_LAYER, &values);
    let rows: Vec<(String, f64, &str)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.value, m.unit))
        .collect();
    let path = args
        .out
        .join(format!("{}-seed{}-trace.json", args.workload, args.seed));
    let header = [
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("smoke", args.smoke.to_string()),
    ];
    match tracer.write_report(&path, &header, &rows, UNMEASURED) {
        Ok(()) => eprintln!("perfbench: trace report written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    metrics
}
