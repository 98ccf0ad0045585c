//! Hierarchical spans with monotonic timings.
//!
//! A [`Span`] measures one region of work against the telemetry
//! epoch's monotonic clock and reports itself to the active sink when
//! it ends (explicitly via [`Span::end`] or implicitly on drop).
//! Children created with [`Span::child`] record their parent's id, so
//! a trace consumer can rebuild the tree even though JSONL lines
//! appear in *completion* order (children before parents).
//!
//! When telemetry is disabled or running metrics-only, spans are inert
//! zero-allocation shells — the fast path is a single `Option` check.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::sink::{Event, EventKind};
use crate::Shared;

/// An attribute value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Owned string.
    Str(String),
}

impl crate::json::ToJson for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => v.write_json(out),
            Value::I64(v) => v.write_json(out),
            Value::F64(v) => v.write_json(out),
            Value::Bool(v) => v.write_json(out),
            Value::Str(v) => v.write_json(out),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

struct SpanInner {
    shared: Arc<Shared>,
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Instant,
    attrs: Vec<(&'static str, Value)>,
}

/// A live measurement of one region of work.
///
/// Ends (and reports to the sink) when dropped or when [`Span::end`]
/// is called. Inert when telemetry is disabled.
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// An inert span that measures and emits nothing.
    pub(crate) fn noop() -> Self {
        Self { inner: None }
    }

    pub(crate) fn start(
        shared: Arc<Shared>,
        name: &'static str,
        parent: Option<u64>,
    ) -> Self {
        let id = shared.next_id();
        Self {
            inner: Some(SpanInner {
                shared,
                name,
                id,
                parent,
                start: Instant::now(),
                attrs: Vec::new(),
            }),
        }
    }

    /// Attaches an attribute; returns `self` for chaining.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key, value.into()));
        }
        self
    }

    /// Attaches an attribute in place (for spans held in a variable).
    pub fn set(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key, value.into()));
        }
    }

    /// Starts a child span of this one.
    pub fn child(&self, name: &'static str) -> Span {
        match &self.inner {
            Some(inner) => Span::start(Arc::clone(&inner.shared), name, Some(inner.id)),
            None => Span::noop(),
        }
    }

    /// Elapsed time since the span started (zero when inert).
    pub fn elapsed(&self) -> std::time::Duration {
        match &self.inner {
            Some(inner) => inner.start.elapsed(),
            None => std::time::Duration::ZERO,
        }
    }

    /// Ends the span now, reporting it to the sink.
    ///
    /// Equivalent to dropping it, but reads better at the end of a
    /// block than a bare `drop(span)`.
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur = inner.start.elapsed();
        let t_us = inner
            .start
            .saturating_duration_since(inner.shared.epoch)
            .as_micros() as u64;
        inner.shared.sink.emit(&Event {
            kind: EventKind::Span,
            name: inner.name,
            id: inner.id,
            parent: inner.parent,
            t_us,
            dur_us: Some(dur.as_micros() as u64),
            attrs: &inner.attrs,
        });
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Span")
                .field("name", &inner.name)
                .field("id", &inner.id)
                .field("parent", &inner.parent)
                .finish_non_exhaustive(),
            None => f.write_str("Span(noop)"),
        }
    }
}
