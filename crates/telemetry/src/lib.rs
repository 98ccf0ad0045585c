//! Zero-dependency telemetry for the HELCFL workspace.
//!
//! Three pieces, matching the three questions a perf investigation
//! asks:
//!
//! * **Spans** ([`Span`], [`span!`]) — *where does the wall-clock go?*
//!   Hierarchical, monotonic-clock timed regions streamed to a sink as
//!   they complete.
//! * **Metrics** ([`MetricsRegistry`]) — *what did the run do?*
//!   Counters, gauges, and log-bucketed histograms, split into
//!   deterministic ([`Class::Sim`]) and wall-clock ([`Class::Runtime`])
//!   halves so the engine's bit-identical guarantee survives
//!   instrumentation.
//! * **Sinks** ([`Sink`]) — *where does the trace land?* The handle
//!   renders every record (span, point event, `run_manifest`, the
//!   final `metrics` line) into one JSONL line, once; a sink only
//!   takes the finished lines: [`JsonlSink`] (a file such as
//!   `results/trace_*.jsonl`) or [`StderrSink`], selected at runtime
//!   via the `HELCFL_TRACE` environment variable. A metrics-only
//!   handle holds no sink.
//!
//! A run is observed through its trace alone: `helcfl-trace watch`
//! tails a JSONL trace while the run writes it (`helcfl-trace tree`
//! renders a finished one), and the wall-clock resource gauges land in
//! the final metrics line.
//!
//! The [`Telemetry`] handle ties them together and is designed to be
//! passed by value everywhere: it is a clone-cheap
//! `Option<Arc<...>>`, and every operation on a
//! [`Telemetry::disabled`] handle is a single `Option` check — no
//! locks, no clocks, no allocation.
//!
//! # Example
//!
//! ```
//! use helcfl_telemetry::{span, Class, MemorySink, Telemetry};
//!
//! let sink = MemorySink::new();
//! let tele = Telemetry::with_sink(sink.clone());
//! {
//!     let round = span!(tele, "round", index = 0usize);
//!     let _work = round.child("local_update");
//!     tele.counter_add(Class::Sim, "selection.selected", 5);
//! }
//! tele.finish();
//! assert_eq!(sink.lines().len(), 3); // child span, round span, metrics
//! assert_eq!(tele.snapshot().counter("selection.selected"), 5);
//! ```

pub mod analyze;
pub mod audit;
pub mod diff;
pub mod json;
mod manifest;
mod metrics;
mod report;
pub mod resource;
mod sink;
mod span;

pub use manifest::{fnv1a_hex, RunIdentity, RunManifest, MANIFEST_SCHEMA_VERSION};
pub use metrics::{percentile_nearest_rank, Class, Histogram, Metric, MetricsRegistry};
pub use report::TelemetryReport;
pub use sink::{JsonlSink, MemorySink, Sink, StderrSink};
pub use span::{Span, Value};

use json::{JsonObject, ToJson};
use span::Record;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Environment variable selecting the trace sink for
/// [`Telemetry::from_env`]: `off`/empty → metrics only, `stderr`,
/// `jsonl`, or a file path.
pub const TRACE_ENV: &str = "HELCFL_TRACE";

pub(crate) struct Shared {
    pub(crate) epoch: Instant,
    /// The trace stream; `None` in metrics-only mode, where spans and
    /// events are inert.
    trace: Option<Mutex<TraceOut>>,
    metrics: Mutex<MetricsRegistry>,
    next_id: AtomicU64,
}

/// The sink and the buffer every record is rendered into, reused so a
/// record allocates nothing once warm.
struct TraceOut {
    sink: Box<dyn Sink>,
    line: String,
}

impl Shared {
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Renders one record into the line buffer and hands the finished
    /// line to the sink; a no-op in metrics-only mode.
    pub(crate) fn write(&self, render: impl FnOnce(&mut String)) {
        self.with_sink(|out| {
            out.line.clear();
            render(&mut out.line);
            out.line.push('\n');
            out.sink.write_line(&out.line);
        });
    }

    fn with_sink(&self, f: impl FnOnce(&mut TraceOut)) {
        if let Some(trace) = &self.trace {
            f(&mut trace.lock().expect("trace lock poisoned"));
        }
    }
}

/// Handle to a telemetry context; cheap to clone and pass by value.
#[derive(Clone, Default)]
pub struct Telemetry {
    shared: Option<Arc<Shared>>,
}

impl Telemetry {
    /// A fully disabled handle: every operation is a no-op.
    ///
    /// This is what the untraced entry points (`run_federated` etc.)
    /// use, so existing callers pay one branch per call site and
    /// nothing else.
    pub fn disabled() -> Self {
        Self { shared: None }
    }

    /// Collects metrics but emits no span/event stream.
    ///
    /// The default when `HELCFL_TRACE` is unset: the post-run
    /// [`TelemetryReport`] still works, but the hot path never touches
    /// a clock for span timing.
    pub fn metrics_only() -> Self {
        Self::build(None)
    }

    /// Collects metrics and streams every record to `sink`.
    pub fn with_sink(sink: impl Sink + 'static) -> Self {
        Self::build(Some(Box::new(sink)))
    }

    /// Streams JSONL trace events to the file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the trace file cannot be created.
    pub fn to_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Self::with_sink(JsonlSink::create(path)?))
    }

    /// Builds a handle from the `HELCFL_TRACE` environment variable.
    ///
    /// | value            | behaviour                                   |
    /// |------------------|---------------------------------------------|
    /// | unset, ``, `off` | metrics only, no trace stream               |
    /// | `stderr`         | JSONL stream on stderr                      |
    /// | `jsonl`          | JSONL stream at `results/trace_<name>.jsonl`|
    /// | anything else    | JSONL stream at that path                   |
    ///
    /// # Errors
    ///
    /// Refuses a trace file that cannot be created, naming
    /// `HELCFL_TRACE` and the path.
    pub fn from_env(name: &str) -> std::io::Result<Self> {
        let value = std::env::var(TRACE_ENV).unwrap_or_default();
        let path = match value.as_str() {
            "" | "off" => return Ok(Self::metrics_only()),
            "stderr" => return Ok(Self::with_sink(StderrSink)),
            "jsonl" => format!("results/trace_{name}.jsonl"),
            path => path.to_string(),
        };
        Self::to_file(&path).map_err(|e| {
            std::io::Error::new(e.kind(), format!("{TRACE_ENV}: cannot create '{path}': {e}"))
        })
    }

    fn build(sink: Option<Box<dyn Sink>>) -> Self {
        Self {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                trace: sink.map(|sink| Mutex::new(TraceOut { sink, line: String::new() })),
                metrics: Mutex::new(MetricsRegistry::new()),
                next_id: AtomicU64::new(1),
            })),
        }
    }

    /// True unless this is a [`Telemetry::disabled`] handle.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// True when spans and events reach a sink (not metrics-only).
    pub fn events_enabled(&self) -> bool {
        self.shared.as_ref().is_some_and(|s| s.trace.is_some())
    }

    /// Starts a root span. Inert when events are off.
    pub fn span(&self, name: &'static str) -> Span {
        match &self.shared {
            Some(shared) if shared.trace.is_some() => {
                Span::start(Arc::clone(shared), name, None)
            }
            _ => Span::noop(),
        }
    }

    /// Emits an instantaneous point event (e.g. pool resolution).
    ///
    /// Returns a builder; attributes are attached with
    /// [`EventBuilder::with`] and the event fires when the builder
    /// drops, so `tele.event("x").with("k", 1u64);` is a complete
    /// statement.
    pub fn event(&self, name: &'static str) -> EventBuilder {
        match &self.shared {
            Some(shared) if shared.trace.is_some() => EventBuilder {
                inner: Some(EventInner {
                    shared: Arc::clone(shared),
                    name,
                    attrs: Vec::new(),
                }),
            },
            _ => EventBuilder { inner: None },
        }
    }

    /// Adds `delta` to the named counter.
    pub fn counter_add(&self, class: Class, name: &str, delta: u64) {
        if let Some(shared) = &self.shared {
            shared.metrics.lock().expect("metrics lock poisoned").counter_add(
                class, name, delta,
            );
        }
    }

    /// Sets the named gauge.
    pub fn gauge_set(&self, class: Class, name: &str, value: f64) {
        if let Some(shared) = &self.shared {
            shared
                .metrics
                .lock()
                .expect("metrics lock poisoned")
                .gauge_set(class, name, value);
        }
    }

    /// Records a histogram sample.
    pub fn record(&self, class: Class, name: &str, sample: f64) {
        if let Some(shared) = &self.shared {
            shared.metrics.lock().expect("metrics lock poisoned").record(
                class, name, sample,
            );
        }
    }

    /// Runs `f` against the registry under a single lock acquisition —
    /// use for batches of related updates instead of N separate calls.
    pub fn with_metrics(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        if let Some(shared) = &self.shared {
            f(&mut shared.metrics.lock().expect("metrics lock poisoned"));
        }
    }

    /// Folds a detached registry (e.g. a worker-local one) into the
    /// shared registry. Callers merge per-worker registries in
    /// worker-index order so the result is reproducible.
    pub fn merge_registry(&self, other: &MetricsRegistry) {
        if other.is_empty() {
            return;
        }
        self.with_metrics(|m| m.merge_from(other));
    }

    /// Clones the current registry contents.
    pub fn snapshot(&self) -> MetricsRegistry {
        match &self.shared {
            Some(shared) => {
                shared.metrics.lock().expect("metrics lock poisoned").clone()
            }
            None => MetricsRegistry::new(),
        }
    }

    /// A renderable report over the current registry contents.
    pub fn report(&self) -> TelemetryReport {
        TelemetryReport::new(self.snapshot())
    }

    /// The id the next span or event will be assigned — captured at a
    /// round barrier by the checkpoint writer so a resumed run's trace
    /// tail continues the id sequence instead of restarting at 1.
    /// Returns 1 (the initial counter value) on a disabled handle.
    pub fn peek_next_span_id(&self) -> u64 {
        match &self.shared {
            Some(shared) => shared.next_id.load(Ordering::Relaxed),
            None => 1,
        }
    }

    /// Restores the span/event id counter — the resume path's pairing
    /// of [`Telemetry::peek_next_span_id`]. Call before the first span
    /// of the resumed run; a no-op on a disabled handle.
    pub fn restore_next_span_id(&self, next: u64) {
        if let Some(shared) = &self.shared {
            shared.next_id.store(next, Ordering::Relaxed);
        }
    }

    /// Stamps the run-provenance manifest at the head of the trace
    /// stream. The runner calls this once per traced run, before the
    /// first span; inert in metrics-only and disabled modes.
    pub fn emit_manifest(&self, manifest: &RunManifest) {
        if let Some(shared) = &self.shared {
            shared.write(|out| out.push_str(&manifest.to_json_line()));
        }
    }

    /// Emits the final metrics record to the sink and flushes it.
    ///
    /// Call once at the end of a run; safe to call on a disabled
    /// handle.
    pub fn finish(&self) {
        if let Some(shared) = &self.shared {
            if shared.trace.is_some() {
                let metrics = shared.metrics.lock().expect("metrics lock poisoned").to_json();
                let mut line = JsonObject::new();
                line.field("type", "metrics").object("metrics", metrics);
                shared.write(|out| line.write_json(out));
            }
            self.flush();
        }
    }

    /// Flushes the sink without emitting metrics — the round barrier a
    /// tailing reader (`helcfl-trace watch`) sees: the runner calls it
    /// after every round, so each finished round reaches the file
    /// before the next one starts. Cheap on non-buffering sinks; safe
    /// on a disabled handle.
    pub fn flush(&self) {
        if let Some(shared) = &self.shared {
            shared.with_sink(|out| out.sink.flush());
        }
    }

    /// Durable round-barrier flush: like [`Telemetry::flush`] but the
    /// sink also fsyncs its file (see [`Sink::flush_sync`]). The
    /// runner uses this instead of `flush` when checkpointing is
    /// active, so a SIGKILLed run's trace is replayable up to the last
    /// completed round. Safe on a disabled handle.
    pub fn sync_flush(&self) {
        if let Some(shared) = &self.shared {
            shared.with_sink(|out| out.sink.flush_sync());
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.shared {
            Some(shared) => f
                .debug_struct("Telemetry")
                .field("events", &shared.trace.is_some())
                .finish_non_exhaustive(),
            None => f.write_str("Telemetry(disabled)"),
        }
    }
}

struct EventInner {
    shared: Arc<Shared>,
    name: &'static str,
    attrs: Vec<(&'static str, Value)>,
}

/// Builder for a point event; fires when dropped.
pub struct EventBuilder {
    inner: Option<EventInner>,
}

impl EventBuilder {
    /// Attaches an attribute; returns `self` for chaining.
    #[must_use = "the event fires when the builder drops"]
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key, value.into()));
        }
        self
    }

    /// Fires the event now (equivalent to dropping the builder).
    pub fn emit(self) {}
}

impl Drop for EventBuilder {
    fn drop(&mut self) {
        let Some(EventInner { shared, name, attrs }) = self.inner.take() else {
            return;
        };
        let t_us =
            Instant::now().saturating_duration_since(shared.epoch).as_micros() as u64;
        let record =
            Record { name, id: shared.next_id(), parent: None, t_us, dur_us: None, attrs: &attrs };
        shared.write(|out| record.write_json_line(out));
    }
}

/// Starts a span with inline attributes:
/// `span!(tele, "round", index = j, scheme = "helcfl")`.
///
/// Expands to `tele.span("round").with("index", j).with(...)`; with a
/// disabled handle the whole chain is inert.
#[macro_export]
macro_rules! span {
    ($tele:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $tele.span($name)$(.with(stringify!($key), $value))*
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tele = Telemetry::disabled();
        assert!(!tele.is_enabled());
        assert!(!tele.events_enabled());
        let span = span!(tele, "round", index = 1usize);
        drop(span.child("inner"));
        drop(span);
        tele.counter_add(Class::Sim, "x", 1);
        tele.event("nothing").with("k", 1u64).emit();
        tele.finish();
        assert!(tele.snapshot().is_empty());
    }

    #[test]
    fn metrics_only_collects_without_emitting() {
        let tele = Telemetry::metrics_only();
        assert!(tele.is_enabled());
        assert!(!tele.events_enabled());
        tele.counter_add(Class::Sim, "x", 2);
        drop(tele.span("quiet"));
        assert_eq!(tele.snapshot().counter("x"), 2);
    }

    #[test]
    fn spans_record_parent_child_structure() {
        let sink = MemorySink::new();
        let tele = Telemetry::with_sink(sink.clone());
        {
            let round = span!(tele, "round", index = 3usize);
            round.child("selection").end();
            round.child("local_update").end();
        }
        tele.finish();
        let lines = sink.lines();
        assert_eq!(lines.len(), 4); // 2 children + round + metrics
        let parsed: Vec<_> =
            lines.iter().map(|l| json::parse(l).unwrap()).collect();
        // Children complete first; the round span is third.
        let round = &parsed[2];
        assert_eq!(round.get("name").and_then(|v| v.as_str()), Some("round"));
        let round_id = round.get("id").and_then(|v| v.as_f64()).unwrap();
        for child in &parsed[..2] {
            assert_eq!(
                child.get("parent").and_then(|v| v.as_f64()),
                Some(round_id)
            );
        }
        assert_eq!(
            parsed[3].get("type").and_then(|v| v.as_str()),
            Some("metrics")
        );
    }

    #[test]
    fn span_id_counter_survives_a_checkpoint_round_trip() {
        let sink = MemorySink::new();
        let tele = Telemetry::with_sink(sink.clone());
        drop(tele.span("a"));
        drop(tele.span("b"));
        let saved = tele.peek_next_span_id();
        assert_eq!(saved, 3, "two spans consumed ids 1 and 2");
        // A fresh handle (the resumed process) continues the sequence.
        let resumed_sink = MemorySink::new();
        let resumed = Telemetry::with_sink(resumed_sink.clone());
        resumed.restore_next_span_id(saved);
        drop(resumed.span("c"));
        let line = &resumed_sink.lines()[0];
        let v = json::parse(line).unwrap();
        assert_eq!(v.get("id").and_then(|x| x.as_f64()), Some(3.0));
        // Disabled handles stay inert.
        let off = Telemetry::disabled();
        off.restore_next_span_id(99);
        assert_eq!(off.peek_next_span_id(), 1);
    }

    #[test]
    fn from_env_defaults_to_metrics_only() {
        // The test runner may set HELCFL_TRACE; only assert the
        // unset/off behaviour when the variable is absent.
        if std::env::var(TRACE_ENV).unwrap_or_default().is_empty() {
            let tele = Telemetry::from_env("unit_test").unwrap();
            assert!(tele.is_enabled());
            assert!(!tele.events_enabled());
        }
    }

    #[test]
    fn every_record_reaches_the_sink_as_one_json_line() {
        let manifest = RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            identity: RunIdentity {
                seed: 1,
                scheme: "helcfl".to_string(),
                config_fingerprint: "00".to_string(),
                fleet_size: 3,
            },
            threads: 2,
            trace_mode: "full".to_string(),
            build_profile: "debug".to_string(),
            resumed_from: None,
            start_round: None,
        };
        let sink = MemorySink::new();
        let tele = Telemetry::with_sink(sink.clone());
        tele.emit_manifest(&manifest);
        tele.event("pool_resolved").with("workers", 4u64).emit();
        tele.counter_add(Class::Sim, "x", 2);
        tele.finish();
        let lines = sink.lines();
        assert_eq!(lines[0], manifest.to_json_line());
        assert!(lines[1].starts_with(r#"{"type":"event","name":"pool_resolved","id":1,"#), "{lines:?}");
        assert!(lines[1].ends_with(r#""dur_us":null,"attrs":{"workers":4}}"#), "{lines:?}");
        assert_eq!(
            lines[2],
            r#"{"type":"metrics","metrics":{"x":{"kind":"counter","class":"sim","value":2}}}"#
        );
        let trace = analyze::Trace::parse(&lines.join("\n")).unwrap();
        assert_eq!(trace.manifests, [manifest]);
        assert_eq!(trace.metrics.unwrap().counter("x"), 2);
    }
}
