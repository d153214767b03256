//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into each crate's public functions.
//! Every span of one simulation point carries that point's id; a span's
//! parent is the span open around it when it started. Nothing is written
//! until the run ends ([`Tracer::write_json`]).

use flexvc_serde::{Map, Value};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id (index into the tracer's span list).
    pub id: u32,
    /// Enclosing span, `None` for a point's root span.
    pub parent: Option<u32>,
    /// Simulation point the span belongs to.
    pub point: u32,
    /// Layer-qualified name, e.g. `engine.step`.
    pub name: &'static str,
    /// Start, ns since the tracer started.
    pub start_ns: u64,
    /// End, ns since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    point: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes calls through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            point: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start or stop recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Set the point id carried by the spans opened from now on.
    pub fn set_point(&mut self, point: u32) {
        self.point = point;
    }

    /// Run `f` inside a span called `name`.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            point: self.point,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as one JSON array to `path` (parent directories
    /// are created).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(
                    Map::new()
                        .with("id", Value::Int(s.id.into()))
                        .with(
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Int(p.into())),
                        )
                        .with("point", Value::Int(s.point.into()))
                        .with("name", Value::Str(s.name.to_string()))
                        .with("start_ns", Value::Int(s.start_ns as i64))
                        .with("end_ns", Value::Int(s.end_ns as i64)),
                )
            })
            .collect();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(flexvc_serde::json::emit(&Value::Seq(spans)).as_bytes())?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children never overlap, since calls nest).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, &c)| s.dur_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_point_id() {
        let mut t = Tracer::new(true);
        t.set_point(7);
        t.span("point", |t| {
            t.span("a", |t| t.span("b", |_| ()));
            t.span("c", |_| ());
        });
        let s = t.spans();
        let names: Vec<_> = s.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("point", None),
                ("a", Some(0)),
                ("b", Some(1)),
                ("c", Some(0))
            ]
        );
        assert!(s.iter().all(|s| s.point == 7 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            point: 0,
            name: "x",
            start_ns,
            end_ns,
        };
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), [30, 20, 10, 40]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
