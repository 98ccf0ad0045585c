//! Bench-side spans around each layer call, and their reduction.
//!
//! The library is always handed `Telemetry::disabled()`; these spans
//! live on a separate handle with an in-memory sink. Each span also
//! carries its own duration in nanoseconds (`ns`), because the JSONL
//! `dur_us` field is whole microseconds — too coarse for the few-µs
//! selection and DVFS phases at Q = 100.

use std::collections::BTreeMap;
use std::error::Error;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use helcfl_bench::gate::percentile_nearest_rank;
use helcfl_telemetry::analyze::{phase_breakdown, SpanTree, Trace};
use helcfl_telemetry::{MemorySink, Span, Telemetry};

/// Ends `span` after stamping its duration in nanoseconds as `ns`.
/// Inert on a span from a disabled handle.
pub fn end(mut span: Span) {
    let ns = span.elapsed().as_nanos() as u64;
    span.set("ns", ns);
}

/// Runs `f` inside the child span `name` of `parent`, which `f` may
/// annotate with counts; the span ends, `ns`-stamped, when `f` returns.
pub fn phase<T>(parent: &Span, name: &'static str, f: impl FnOnce(&mut Span) -> T) -> T {
    let mut span = parent.child(name);
    let out = f(&mut span);
    end(span);
    out
}

/// The per-layer reduction of a layered run's spans.
#[derive(Debug, Default)]
pub struct Layered {
    /// `round` spans seen.
    pub rounds: usize,
    /// Summed `round` time in µs, as [`phase_breakdown`] counts it.
    rounds_total_us: u64,
    /// Phase name → summed time in µs, from [`phase_breakdown`] (the
    /// `helcfl-trace phases` reduction).
    phase_total_us: BTreeMap<String, u64>,
    /// Span name → `ns` durations, in trace order.
    ns: BTreeMap<String, Vec<u64>>,
    /// `(span name, attribute)` → sum of the numeric attribute.
    attr_sums: BTreeMap<(String, String), f64>,
}

impl Layered {
    /// Folds in one repetition's JSONL span lines.
    ///
    /// # Errors
    ///
    /// Returns the trace parser's message on malformed lines.
    fn add(&mut self, lines: &[String]) -> Result<(), String> {
        let trace = Trace::parse(&lines.join("\n"))?;
        let tree = SpanTree::build(&trace)?;
        let breakdown = phase_breakdown(&trace, &tree);
        self.rounds += breakdown.rounds;
        self.rounds_total_us += breakdown.rounds_total_us;
        for p in &breakdown.phases {
            *self.phase_total_us.entry(p.name.clone()).or_default() += p.total_us;
        }
        for span in &trace.spans {
            for (key, value) in &span.attrs {
                let Some(v) = value.as_f64() else { continue };
                if key == "ns" {
                    self.ns.entry(span.name.clone()).or_default().push(v as u64);
                } else {
                    *self
                        .attr_sums
                        .entry((span.name.clone(), key.clone()))
                        .or_default() += v;
                }
            }
        }
        Ok(())
    }

    /// Nearest-rank `q`-quantile of the span `name`'s durations in µs;
    /// `None` when no such span was recorded.
    pub fn quantile_us(&self, name: &str, q: f64) -> Option<f64> {
        let mut samples = self.ns.get(name)?.clone();
        samples.sort_unstable();
        Some(percentile_nearest_rank(&samples, q) as f64 / 1e3)
    }

    /// Summed duration of the span `name` in seconds (0 when absent).
    pub fn total_s(&self, name: &str) -> f64 {
        self.ns.get(name).map_or(0, |v| v.iter().sum::<u64>()) as f64 / 1e9
    }

    /// Sum of attribute `attr` over every span `name` (0 when absent).
    pub fn sum(&self, name: &str, attr: &str) -> f64 {
        self.attr_sums
            .get(&(name.to_string(), attr.to_string()))
            .copied()
            .unwrap_or(0.0)
    }

    /// Share of round time spent in phase `name` (0 when absent).
    pub fn share(&self, name: &str) -> f64 {
        let phase = self.phase_total_us.get(name).copied().unwrap_or(0);
        phase as f64 / self.rounds_total_us.max(1) as f64
    }
}

/// Collects the layered run's spans one repetition at a time: each
/// repetition gets a fresh in-memory sink that is reduced into
/// [`Layered`] as soon as it ends, so memory does not grow with the
/// number of repetitions. Span ids continue across repetitions, so the
/// optional JSONL file is one valid trace for `helcfl-trace`.
pub struct SpanLog {
    /// The reduction so far.
    pub layered: Layered,
    next_id: u64,
    file: Option<BufWriter<File>>,
}

impl SpanLog {
    /// A log that also writes every span to `path`, when given.
    ///
    /// # Errors
    ///
    /// Returns the error of creating the file.
    pub fn new(path: Option<&Path>) -> std::io::Result<Self> {
        let file = match path {
            Some(path) => {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                Some(BufWriter::new(File::create(path)?))
            }
            None => None,
        };
        Ok(Self {
            layered: Layered::default(),
            next_id: 1,
            file,
        })
    }

    /// Runs one repetition `f` with a span handle and folds its spans
    /// in.
    ///
    /// # Errors
    ///
    /// Returns `f`'s error, a malformed span line, or a write error.
    pub fn record<T, E: Into<Box<dyn Error>>>(
        &mut self,
        f: impl FnOnce(&Telemetry) -> Result<T, E>,
    ) -> Result<T, Box<dyn Error>> {
        let sink = MemorySink::new();
        let tele = Telemetry::with_sink(sink.clone());
        tele.restore_next_span_id(self.next_id);
        let out = f(&tele).map_err(Into::into)?;
        self.next_id = tele.peek_next_span_id();
        let lines = sink.lines();
        self.layered.add(&lines)?;
        if let Some(file) = &mut self.file {
            for line in &lines {
                writeln!(file, "{line}")?;
            }
        }
        Ok(out)
    }

    /// Flushes the trace file and returns the reduction.
    ///
    /// # Errors
    ///
    /// Returns the flush error.
    pub fn finish(mut self) -> std::io::Result<Layered> {
        if let Some(file) = &mut self.file {
            file.flush()?;
        }
        Ok(self.layered)
    }
}
