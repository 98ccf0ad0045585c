//! Trace destinations.
//!
//! [`crate::Telemetry`] renders every trace record — span, point
//! event, `run_manifest` and the final `metrics` line — into JSONL
//! itself, once, into one reused buffer under one lock. A [`Sink`]
//! only takes the finished lines and flushes or fsyncs them, so every
//! destination receives the same bytes.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A destination for finished JSONL trace lines.
///
/// The handle calls a sink under its own lock, one line at a time.
pub trait Sink: Send {
    /// Takes one finished JSONL line, ending in its newline.
    fn write_line(&mut self, line: &str);

    /// Flushes any buffered output.
    fn flush(&mut self) {}

    /// Flushes and, where the sink owns a durable file, fsyncs it so
    /// the bytes survive a process kill. Called by the runner at round
    /// barriers **only when checkpointing is active** — a killed run's
    /// trace must be replayable up to the last completed round, which
    /// a page-cache-only flush cannot promise. Defaults to a plain
    /// [`Sink::flush`] for sinks with nothing durable to sync.
    fn flush_sync(&mut self) {
        self.flush();
    }
}

/// Streams lines to a JSONL file, buffered; flushed on
/// [`Sink::flush`] and on drop.
pub struct JsonlSink {
    file: BufWriter<File>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created
    /// (parent directories are created first).
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        // 64 KiB: a digest-mode round is ~3 KiB of JSONL, so the
        // default 8 KiB buffer would syscall every couple of rounds
        // from inside the traced hot loop. Round barriers still make
        // whole rounds visible to tailing readers via `flush`.
        Ok(Self { file: BufWriter::with_capacity(64 * 1024, File::create(path)?) })
    }
}

impl Sink for JsonlSink {
    fn write_line(&mut self, line: &str) {
        // A full disk should not kill a simulation; drop the line.
        let _ = self.file.write_all(line.as_bytes());
    }

    fn flush(&mut self) {
        let _ = self.file.flush();
    }

    fn flush_sync(&mut self) {
        // Same error posture as write_line: a sick disk degrades the
        // trace, it does not kill the simulation.
        let _ = self.file.flush();
        let _ = self.file.get_ref().sync_data();
    }
}

/// Streams lines to stderr (`HELCFL_TRACE=stderr`): the same JSONL a
/// trace file holds, for watching a run live. The process's own
/// progress and summary lines ([`note!`](crate::note!)) are then
/// dropped, so a captured stderr reads as a trace file does.
///
/// Buffered like [`JsonlSink`] and flushed at every round barrier: an
/// unbuffered write per line would land inside the round's span, where
/// `helcfl-trace check` counts its time against the round's coverage.
#[derive(Debug)]
pub struct StderrSink {
    out: BufWriter<std::io::Stderr>,
}

impl StderrSink {
    /// A sink on this process's stderr. From here on, for the rest of
    /// the process, [`note!`](crate::note!) prints nothing.
    pub fn new() -> Self {
        crate::STDERR_TRACED.store(true, std::sync::atomic::Ordering::Relaxed);
        Self { out: BufWriter::with_capacity(64 * 1024, std::io::stderr()) }
    }
}

impl Default for StderrSink {
    fn default() -> Self {
        Self::new()
    }
}

impl Sink for StderrSink {
    fn write_line(&mut self, line: &str) {
        // A closed stderr should not kill a simulation; drop the line.
        let _ = self.out.write_all(line.as_bytes());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Captures the lines in memory, without their newlines; test-only
/// convenience.
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
    fn write_line(&mut self, line: &str) {
        let line = line.strip_suffix('\n').unwrap_or(line);
        self.lines.lock().expect("memory sink lock poisoned").push(line.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut sink = JsonlSink::create("/dev/full").unwrap();
        sink.write_line("{\"type\":\"event\"}\n");
        sink.flush();
        // The durable round-barrier flush must also survive ENOSPC.
        sink.flush_sync();
        // Reaching here without a panic is the assertion.
    }

    #[test]
    fn flush_sync_persists_lines_and_keeps_the_sink_usable() {
        let path = std::env::temp_dir()
            .join(format!("jsonl_sink_sync_{}.jsonl", std::process::id()));
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.write_line("round_one\n");
        sink.flush_sync();
        // The line is on disk (not just buffered) while the sink is
        // still alive — what a SIGKILLed run's trace depends on.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "round_one\n");
        sink.write_line("round_two\n");
        sink.flush_sync();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "round_one\nround_two\n");
        drop(sink);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        let path = std::env::temp_dir()
            .join(format!("jsonl_sink_drop_{}.jsonl", std::process::id()));
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.write_line("flushed\n");
            // No explicit flush: drop must push the buffered line out.
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "flushed\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_sink_shares_buffer_across_clones() {
        let sink = MemorySink::new();
        sink.clone().write_line("x\n");
        assert_eq!(sink.lines(), ["x"]);
    }
}
