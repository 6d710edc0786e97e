//! The benchmark's own trace: spans recorded around calls into the layers
//! (name, start, end, parent, workload-run id), kept in memory and written
//! once at exit. Nothing inside the crates is instrumented by this — a
//! span measures a layer from outside.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    pub start: Instant,
    pub end: Instant,
}

/// All spans of one workload run, in creation order (a span's id is its
/// index, so parents always precede children).
#[derive(Clone, Debug)]
pub struct SpanLog {
    /// Identifier shared by every span of this run.
    pub run: String,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(run: impl Into<String>, origin: Instant) -> Self {
        SpanLog {
            run: run.into(),
            origin,
            spans: Vec::new(),
        }
    }

    pub fn push(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.into(),
            parent,
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    pub fn duration_s(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        (s.end - s.start).as_secs_f64()
    }

    pub fn children(&self, id: SpanId) -> impl Iterator<Item = SpanId> + '_ {
        (0..self.spans.len()).filter(move |&c| self.spans[c].parent == Some(id))
    }

    /// Seconds of `id`'s interval covered by its direct children (union
    /// of their intervals, clipped to the parent).
    pub fn child_coverage_s(&self, id: SpanId) -> f64 {
        let p = &self.spans[id];
        let mut iv: Vec<(Instant, Instant)> = self
            .children(id)
            .map(|c| {
                let s = &self.spans[c];
                (s.start.max(p.start), s.end.min(p.end))
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort();
        let mut covered = 0.0;
        let mut cursor = p.start;
        for (a, b) in iv {
            let a = a.max(cursor);
            if b > a {
                covered += (b - a).as_secs_f64();
                cursor = b;
            }
        }
        covered
    }

    /// Self time: the span's duration minus what its children cover.
    pub fn self_s(&self, id: SpanId) -> f64 {
        self.duration_s(id) - self.child_coverage_s(id)
    }

    pub fn find(&self, name: &str) -> Option<SpanId> {
        self.spans.iter().position(|s| s.name == name)
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.duration_s(i))
            .sum()
    }

    /// One JSON document: every span with microsecond offsets from the
    /// run's origin, its parent id and its self time.
    pub fn to_json(&self) -> String {
        let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
        let mut out = format!("{{\"run\":\"{}\",\"unit\":\"us\",\"spans\":[", self.run);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start\":{:.1},\"end\":{:.1},\"self\":{:.1}}}",
                s.name,
                us(s.start),
                us(s.end),
                self.self_s(i) * 1e6
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_child_union() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut log = SpanLog::new("r", t0);
        let root = log.push("root", None, at(0), at(100));
        log.push("a", Some(root), at(10), at(40));
        log.push("b", Some(root), at(30), at(60)); // overlaps a
        log.push("c", Some(root), at(90), at(120)); // clipped to root
        assert!((log.child_coverage_s(root) - 0.060).abs() < 1e-9);
        assert!((log.self_s(root) - 0.040).abs() < 1e-9);
        let json = log.to_json();
        assert!(ncd_simnet::parse_json(&json).is_ok(), "{json}");
    }
}
