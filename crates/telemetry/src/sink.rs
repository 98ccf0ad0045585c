//! Pluggable trace destinations.
//!
//! A [`Sink`] receives completed [`Event`]s — span ends and point
//! events — and serializes them however it likes. The simulator never
//! blocks on a sink beyond the sink's own lock; sinks that do I/O
//! buffer internally and flush on [`Sink::flush`].

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::json::{JsonObject, ToJson};
use crate::manifest::RunManifest;
use crate::metrics::MetricsRegistry;
use crate::span::Value;

/// What an [`Event`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span that has finished; `dur_us` is set.
    Span,
    /// An instantaneous point event; `dur_us` is `None`.
    Point,
}

/// One completed trace record handed to a sink.
#[derive(Debug)]
pub struct Event<'a> {
    /// Span end or point event.
    pub kind: EventKind,
    /// Static name, e.g. `"round"` or `"local_update"`.
    pub name: &'a str,
    /// Unique id within the run (monotonically assigned).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Start time in microseconds since the telemetry epoch.
    pub t_us: u64,
    /// Duration in microseconds (spans only).
    pub dur_us: Option<u64>,
    /// Attached key/value attributes.
    pub attrs: &'a [(&'static str, Value)],
}

impl Event<'_> {
    /// Renders the event as one JSONL object.
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        self.write_json_line(&mut out);
        out
    }

    /// Appends the event's JSONL object to `out`, member by member, so
    /// a sink can render every line into one reused buffer. The digest
    /// trace of a large cohort renders each round inside the timed
    /// round loop, where per-line allocations were most of its cost.
    pub fn write_json_line(&self, out: &mut String) {
        out.push_str(match self.kind {
            EventKind::Span => r#"{"type":"span","name":"#,
            EventKind::Point => r#"{"type":"event","name":"#,
        });
        self.name.write_json(out);
        out.push_str(r#","id":"#);
        self.id.write_json(out);
        out.push_str(r#","parent":"#);
        self.parent.write_json(out);
        out.push_str(r#","t_us":"#);
        self.t_us.write_json(out);
        out.push_str(r#","dur_us":"#);
        self.dur_us.write_json(out);
        if !self.attrs.is_empty() {
            out.push_str(r#","attrs":{"#);
            for (i, (key, value)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                key.write_json(out);
                out.push(':');
                value.write_json(out);
            }
            out.push('}');
        }
        out.push('}');
    }

    /// Renders the event as a one-line human-readable string.
    pub fn to_human_line(&self) -> String {
        use std::fmt::Write as _;
        let mut line = String::new();
        let _ = write!(line, "[{:>10.3}ms]", self.t_us as f64 / 1000.0);
        match self.dur_us {
            Some(d) => {
                let _ = write!(line, " {} took {:.3}ms", self.name, d as f64 / 1000.0);
            }
            None => {
                let _ = write!(line, " {}", self.name);
            }
        }
        for (key, value) in self.attrs {
            let _ = write!(line, " {key}={value}");
        }
        line
    }
}

/// A destination for trace events and the final metrics summary.
pub trait Sink: Send + Sync {
    /// Consumes one completed event.
    fn emit(&self, event: &Event<'_>);

    /// Consumes the run-provenance manifest the runner stamps at the
    /// top of a traced run. Defaults to a no-op for sinks with no
    /// durable stream to open.
    fn emit_manifest(&self, manifest: &RunManifest) {
        let _ = manifest;
    }

    /// Consumes the merged end-of-run metrics registry.
    fn emit_metrics(&self, registry: &MetricsRegistry) {
        let _ = registry;
    }

    /// Flushes any buffered output.
    fn flush(&self) {}

    /// Flushes and, where the sink owns a durable file, fsyncs it so
    /// the bytes survive a process kill. Called by the runner at round
    /// barriers **only when checkpointing is active** — a killed run's
    /// trace must be replayable up to the last completed round, which
    /// a page-cache-only flush cannot promise. Defaults to a plain
    /// [`Sink::flush`] for sinks with nothing durable to sync.
    fn flush_sync(&self) {
        self.flush();
    }
}

/// Discards everything. Used when metrics are wanted without a trace
/// stream; the [`crate::Telemetry`] handle skips event construction
/// entirely in that mode, so this sink's methods are rarely even
/// reached.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn emit(&self, _event: &Event<'_>) {}
}

/// Streams events as JSON Lines to a file.
///
/// Each event becomes one `{"type":"span"|"event",...}` object; the
/// end-of-run metrics registry is appended as a final
/// `{"type":"metrics",...}` line. Lines are buffered and flushed on
/// [`Sink::flush`] and on drop.
pub struct JsonlSink {
    path: PathBuf,
    out: Mutex<JsonlOut>,
}

/// The trace file and the buffer each event line is rendered into,
/// reused so emitting a line allocates nothing once warm.
struct JsonlOut {
    file: BufWriter<File>,
    line: String,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created
    /// (parent directories are created first).
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(&path)?;
        // 64 KiB: a digest-mode round is ~3 KiB of JSONL, so the
        // default 8 KiB buffer would syscall every couple of rounds
        // from inside the traced hot loop. Round barriers still make
        // whole rounds visible to tailing readers via `flush`.
        let file = BufWriter::with_capacity(64 * 1024, file);
        Ok(Self { path, out: Mutex::new(JsonlOut { file, line: String::new() }) })
    }

    /// The file this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().expect("trace file lock poisoned");
        // A full disk should not kill a simulation; drop the line.
        let _ = writeln!(out.file, "{line}");
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event<'_>) {
        let mut out = self.out.lock().expect("trace file lock poisoned");
        let JsonlOut { file, line } = &mut *out;
        line.clear();
        event.write_json_line(line);
        line.push('\n');
        let _ = file.write_all(line.as_bytes());
    }

    fn emit_manifest(&self, manifest: &RunManifest) {
        self.write_line(&manifest.to_json_line());
    }

    fn emit_metrics(&self, registry: &MetricsRegistry) {
        let mut o = JsonObject::new();
        o.field("type", "metrics").object("metrics", registry.to_json());
        self.write_line(&o.finish());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("trace file lock poisoned").file.flush();
    }

    fn flush_sync(&self) {
        let mut out = self.out.lock().expect("trace file lock poisoned");
        // Same error posture as write_line: a sick disk degrades the
        // trace, it does not kill the simulation.
        let _ = out.file.flush();
        let _ = out.file.get_ref().sync_data();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A [`Sink`] that can also accept pre-rendered JSONL lines.
///
/// [`ShardedSink`] buffers rendered lines per worker and replays them
/// into its inner sink at flush barriers; this trait is the replay
/// channel. Implemented by the sinks that store JSONL verbatim
/// ([`JsonlSink`], [`MemorySink`]).
pub trait LineSink: Sink {
    /// Appends one already-rendered JSONL line.
    fn write_jsonl_line(&self, line: &str);
}

impl LineSink for JsonlSink {
    fn write_jsonl_line(&self, line: &str) {
        self.write_line(line);
    }
}

thread_local! {
    /// Which [`ShardedSink`] shard the current thread writes into.
    /// Unregistered threads (including the main thread) share shard 0.
    static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Associates the calling thread with shard `shard` of every
/// [`ShardedSink`] it subsequently emits into. Worker `w` of an
/// `n`-worker pool registers shard `w`; the main thread stays on
/// shard 0.
pub fn register_shard(shard: usize) {
    SHARD.with(|s| s.set(shard));
}

/// Per-worker event buffers in front of a [`LineSink`].
///
/// `emit` renders the event and appends it to the calling thread's own
/// shard buffer — an uncontended lock per worker instead of one global
/// sink mutex on the pool's hot path. [`Sink::flush`] (called by the
/// runner at every round barrier) drains the shards **in fixed shard
/// order** into the inner sink, so the emitted JSONL is byte-identical
/// for any worker count: all of a barrier interval's shard-0 lines,
/// then shard 1's, and so on — the same bytes whether 1 or 8 workers
/// carried the round.
///
/// Today every span is emitted by the main thread (shard 0), so the
/// sharded stream is ordering-identical to the unsharded one; the
/// shards exist so worker-side emission never has to take a global
/// lock, and the byte-equality tests pin that contract.
pub struct ShardedSink<S: LineSink> {
    inner: S,
    shards: Vec<Mutex<Vec<String>>>,
}

impl<S: LineSink> ShardedSink<S> {
    /// Wraps `inner` with `shards` per-worker buffers (at least one).
    pub fn new(inner: S, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            inner,
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Drains every shard, in shard order, into the inner sink.
    fn drain(&self) {
        for shard in &self.shards {
            let mut lines = shard.lock().expect("shard lock poisoned");
            for line in lines.drain(..) {
                self.inner.write_jsonl_line(&line);
            }
        }
    }
}

impl<S: LineSink> Sink for ShardedSink<S> {
    fn emit(&self, event: &Event<'_>) {
        let shard = SHARD.with(std::cell::Cell::get) % self.shards.len();
        self.shards[shard]
            .lock()
            .expect("shard lock poisoned")
            .push(event.to_json_line());
    }

    fn emit_manifest(&self, manifest: &RunManifest) {
        // Manifests head the stream; drain anything already buffered
        // (e.g. a previous run on a reused handle) so ordering holds.
        self.drain();
        self.inner.write_jsonl_line(&manifest.to_json_line());
    }

    fn emit_metrics(&self, registry: &MetricsRegistry) {
        // The metrics line must land after every buffered event.
        self.drain();
        self.inner.emit_metrics(registry);
    }

    fn flush(&self) {
        self.drain();
        self.inner.flush();
    }

    fn flush_sync(&self) {
        self.drain();
        self.inner.flush_sync();
    }
}

impl<S: LineSink> Drop for ShardedSink<S> {
    fn drop(&mut self) {
        self.drain();
        self.inner.flush();
    }
}

/// Writes human-readable one-line events to stderr.
///
/// Selected with `HELCFL_TRACE=stderr`; useful for watching a run
/// live without post-processing a JSONL file.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrSink;

impl Sink for StderrSink {
    fn emit(&self, event: &Event<'_>) {
        eprintln!("trace: {}", event.to_human_line());
    }

    fn emit_manifest(&self, manifest: &RunManifest) {
        eprintln!("trace: {}", manifest.to_human_line());
    }

    fn emit_metrics(&self, registry: &MetricsRegistry) {
        eprintln!("trace: metrics {}", registry.to_json().finish());
    }
}

/// Captures rendered JSONL lines in memory; test-only convenience.
///
/// Clone the sink before handing it to [`crate::Telemetry::with_sink`]
/// — both clones share the same buffer, so the test keeps access to
/// what the run emitted.
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all lines emitted so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("memory sink lock poisoned").clone()
    }
}

impl Sink for MemorySink {
    fn emit(&self, event: &Event<'_>) {
        self.lines
            .lock()
            .expect("memory sink lock poisoned")
            .push(event.to_json_line());
    }

    fn emit_manifest(&self, manifest: &RunManifest) {
        self.lines
            .lock()
            .expect("memory sink lock poisoned")
            .push(manifest.to_json_line());
    }

    fn emit_metrics(&self, registry: &MetricsRegistry) {
        let mut o = JsonObject::new();
        o.field("type", "metrics").object("metrics", registry.to_json());
        self.lines.lock().expect("memory sink lock poisoned").push(o.finish());
    }
}

impl LineSink for MemorySink {
    fn write_jsonl_line(&self, line: &str) {
        self.lines.lock().expect("memory sink lock poisoned").push(line.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_parseable_json_lines() {
        let attrs = [("round", Value::U64(3)), ("scheme", Value::Str("helcfl".into()))];
        let event = Event {
            kind: EventKind::Span,
            name: "round",
            id: 7,
            parent: Some(1),
            t_us: 1500,
            dur_us: Some(250),
            attrs: &attrs,
        };
        let line = event.to_json_line();
        let parsed = crate::json::parse(&line).unwrap();
        assert_eq!(parsed.get("type").and_then(|v| v.as_str()), Some("span"));
        assert_eq!(parsed.get("dur_us").and_then(|v| v.as_f64()), Some(250.0));
        assert_eq!(
            parsed.get("attrs").and_then(|a| a.get("scheme")).and_then(|v| v.as_str()),
            Some("helcfl")
        );
    }

    #[test]
    fn json_lines_render_every_value_kind_byte_for_byte() {
        let attrs = [
            ("n", Value::U64(3)),
            ("d", Value::I64(-2)),
            ("x", Value::F64(0.1)),
            ("inf", Value::F64(f64::INFINITY)),
            ("ok", Value::Bool(true)),
            ("s", Value::Str("a\"b\\c\n".into())),
        ];
        let span = Event {
            kind: EventKind::Span,
            name: "round",
            id: 7,
            parent: Some(1),
            t_us: 1500,
            dur_us: Some(250),
            attrs: &attrs,
        };
        assert_eq!(
            span.to_json_line(),
            r#"{"type":"span","name":"round","id":7,"parent":1,"t_us":1500,"dur_us":250,"#
                .to_string()
                + r#""attrs":{"n":3,"d":-2,"x":0.1,"inf":null,"ok":true,"s":"a\"b\\c\n"}}"#
        );
        let point = Event { kind: EventKind::Point, parent: None, dur_us: None, attrs: &[], ..span };
        assert_eq!(
            point.to_json_line(),
            r#"{"type":"event","name":"round","id":7,"parent":null,"t_us":1500,"dur_us":null}"#
        );
    }

    #[test]
    fn human_line_includes_attrs() {
        let attrs = [("workers", Value::U64(4))];
        let event = Event {
            kind: EventKind::Point,
            name: "pool_resolved",
            id: 1,
            parent: None,
            t_us: 42,
            dur_us: None,
            attrs: &attrs,
        };
        let line = event.to_human_line();
        assert!(line.contains("pool_resolved"), "{line}");
        assert!(line.contains("workers=4"), "{line}");
    }

    fn point(name: &'static str, id: u64) -> Event<'static> {
        Event {
            kind: EventKind::Point,
            name,
            id,
            parent: None,
            t_us: 0,
            dur_us: None,
            attrs: &[],
        }
    }

    #[test]
    fn sharded_sink_holds_lines_until_flush_then_drains_in_shard_order() {
        let memory = MemorySink::new();
        let sharded = ShardedSink::new(memory.clone(), 4);
        sharded.emit(&point("a", 1));
        sharded.emit(&point("b", 2));
        assert!(memory.lines().is_empty(), "lines leaked before the barrier");
        sharded.flush();
        let lines = memory.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""name":"a""#));
        assert!(lines[1].contains(r#""name":"b""#));
    }

    #[test]
    fn sharded_sink_orders_worker_shards_deterministically() {
        // Emit from registered worker threads in scrambled wall-clock
        // order; the flushed stream is in shard order regardless.
        let run = |nshards: usize| -> Vec<String> {
            let memory = MemorySink::new();
            let sharded = std::sync::Arc::new(ShardedSink::new(memory.clone(), nshards));
            std::thread::scope(|scope| {
                for wid in (0..nshards).rev() {
                    let sharded = std::sync::Arc::clone(&sharded);
                    scope.spawn(move || {
                        register_shard(wid);
                        sharded.emit(&point("w", wid as u64));
                    });
                }
            });
            sharded.flush();
            memory.lines()
        };
        let lines = run(4);
        assert_eq!(lines.len(), 4);
        for (shard, line) in lines.iter().enumerate() {
            assert!(
                line.contains(&format!(r#""id":{shard}"#)),
                "shard {shard} out of order: {line}"
            );
        }
        // Repeatable: same bytes on a rerun.
        assert_eq!(lines, run(4));
    }

    #[test]
    fn sharded_sink_metrics_line_lands_after_buffered_events() {
        let memory = MemorySink::new();
        let sharded = ShardedSink::new(memory.clone(), 2);
        sharded.emit(&point("early", 1));
        sharded.emit_metrics(&MetricsRegistry::new());
        let lines = memory.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""name":"early""#), "{lines:?}");
        assert!(lines[1].contains(r#""type":"metrics""#), "{lines:?}");
    }

    #[test]
    fn sharded_sink_drop_drains_outstanding_lines() {
        let memory = MemorySink::new();
        {
            let sharded = ShardedSink::new(memory.clone(), 2);
            sharded.emit(&point("tail", 9));
        }
        assert_eq!(memory.lines().len(), 1, "drop lost a buffered line");
    }

    #[test]
    fn jsonl_sink_create_fails_cleanly_on_unwritable_path() {
        // The path is a directory, so File::create must fail — the
        // error surfaces instead of panicking.
        let dir = std::env::temp_dir().join(format!("jsonl_sink_dir_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(JsonlSink::create(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jsonl_sink_survives_write_errors_without_panicking() {
        // /dev/full accepts the open but fails every write with ENOSPC;
        // the sink's contract is to drop lines, not kill the run.
        if !Path::new("/dev/full").exists() {
            return; // non-Linux host
        }
        let sink = JsonlSink::create("/dev/full").unwrap();
        sink.emit(&point("lost", 1));
        sink.flush();
        sink.emit_metrics(&MetricsRegistry::new());
        // The durable round-barrier flush must also survive ENOSPC.
        sink.flush_sync();
        // Reaching here without a panic is the assertion.
    }

    #[test]
    fn flush_sync_persists_lines_and_keeps_the_sink_usable() {
        let path = std::env::temp_dir()
            .join(format!("jsonl_sink_sync_{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).unwrap();
        sink.emit(&point("round_one", 1));
        sink.flush_sync();
        // The line is on disk (not just buffered) while the sink is
        // still alive — what a SIGKILLed run's trace depends on.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#""name":"round_one""#), "{text}");
        sink.emit(&point("round_two", 2));
        sink.flush_sync();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#""name":"round_two""#), "{text}");
        drop(sink);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        let path = std::env::temp_dir()
            .join(format!("jsonl_sink_drop_{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.emit(&point("flushed", 1));
            // No explicit flush: drop must push the buffered line out.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#""name":"flushed""#), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_line_heads_a_sharded_stream() {
        let manifest = RunManifest {
            schema_version: crate::manifest::MANIFEST_SCHEMA_VERSION,
            seed: 1,
            scheme: "helcfl".to_string(),
            config_fingerprint: "00".to_string(),
            threads: 2,
            trace_mode: "full".to_string(),
            fleet_size: 3,
            build_profile: "debug".to_string(),
            resumed_from: None,
            start_round: None,
        };
        let memory = MemorySink::new();
        let sharded = ShardedSink::new(memory.clone(), 2);
        sharded.emit_manifest(&manifest);
        sharded.emit(&point("a", 1));
        sharded.flush();
        let lines = memory.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""type":"run_manifest""#), "{lines:?}");
        assert!(crate::json::validate(&lines[0]).is_ok(), "{lines:?}");
        assert!(lines[1].contains(r#""name":"a""#), "{lines:?}");
    }

    #[test]
    fn memory_sink_shares_buffer_across_clones() {
        let sink = MemorySink::new();
        let clone = sink.clone();
        clone.emit(&Event {
            kind: EventKind::Point,
            name: "x",
            id: 1,
            parent: None,
            t_us: 0,
            dur_us: None,
            attrs: &[],
        });
        assert_eq!(sink.lines().len(), 1);
    }
}
