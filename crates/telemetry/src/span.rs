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
//!
//! A finished span or point event is a [`Record`], which the handle
//! renders as its one JSONL line.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::json::ToJson;
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

impl ToJson for Value {
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

/// One finished span (`dur_us` set) or point event (`dur_us` `None`).
pub(crate) struct Record<'a> {
    /// Static name, e.g. `"round"` or `"local_update"`.
    pub(crate) name: &'a str,
    /// Unique id within the run (monotonically assigned).
    pub(crate) id: u64,
    /// Id of the enclosing span, if any.
    pub(crate) parent: Option<u64>,
    /// Start time in microseconds since the telemetry epoch.
    pub(crate) t_us: u64,
    /// Duration in microseconds; `None` for a point event.
    pub(crate) dur_us: Option<u64>,
    /// Attached key/value attributes.
    pub(crate) attrs: &'a [(&'static str, Value)],
}

impl Record<'_> {
    /// Appends the record's JSONL object to `out`, member by member,
    /// so every line renders into one reused buffer. The digest trace
    /// of a large cohort renders each round inside the timed round
    /// loop, where per-line allocations were most of its cost.
    pub(crate) fn write_json_line(&self, out: &mut String) {
        out.push_str(match self.dur_us {
            Some(_) => r#"{"type":"span","name":"#,
            None => r#"{"type":"event","name":"#,
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
        let record = Record {
            name: inner.name,
            id: inner.id,
            parent: inner.parent,
            t_us,
            dur_us: Some(dur.as_micros() as u64),
            attrs: &inner.attrs,
        };
        inner.shared.write(|out| record.write_json_line(out));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_render_every_value_kind_byte_for_byte() {
        let attrs = [
            ("n", Value::U64(3)),
            ("d", Value::I64(-2)),
            ("x", Value::F64(0.1)),
            ("inf", Value::F64(f64::INFINITY)),
            ("ok", Value::Bool(true)),
            ("s", Value::Str("a\"b\\c\n".into())),
        ];
        let span =
            Record { name: "round", id: 7, parent: Some(1), t_us: 1500, dur_us: Some(250), attrs: &attrs };
        let render = |record: &Record<'_>| {
            let mut line = String::new();
            record.write_json_line(&mut line);
            line
        };
        assert_eq!(
            render(&span),
            r#"{"type":"span","name":"round","id":7,"parent":1,"t_us":1500,"dur_us":250,"#
                .to_string()
                + r#""attrs":{"n":3,"d":-2,"x":0.1,"inf":null,"ok":true,"s":"a\"b\\c\n"}}"#
        );
        let point = Record { parent: None, dur_us: None, attrs: &[], ..span };
        assert_eq!(
            render(&point),
            r#"{"type":"event","name":"round","id":7,"parent":null,"t_us":1500,"dur_us":null}"#
        );
    }
}
