//! Spans the benchmark records around its calls into the program.
//!
//! Each span has a name, start, end, parent and operation id (one operation
//! is one timed iteration or one ingest pass). Spans stay in memory and are
//! written out once, at the end of the traced run. A span's self time is its
//! duration minus the durations of its children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Renames a span once its outcome is known (e.g. which class of
    /// ingest call it turned out to be).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id].name = name;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self times in seconds, grouped by span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_ns()) {
            by_name.entry(span.name).or_default().push(ns as f64 / 1e9);
        }
        by_name
    }

    /// Writes every span plus the per-name self-time summary, the per-layer
    /// metrics and the list of metrics that cannot be measured from outside
    /// the program, as one JSON document.
    pub fn write_report(
        &self,
        path: &Path,
        header: &[(&str, String)],
        layers: &[(String, f64, &str)],
        unmeasured: &[(&str, &str)],
    ) -> std::io::Result<()> {
        let mut out = String::from("{\n");
        for (key, value) in header {
            let _ = writeln!(out, "  \"{key}\": {value},");
        }
        out.push_str("  \"self_time_s\": {");
        let summary: Vec<String> = self
            .self_seconds()
            .iter()
            .map(|(name, v)| {
                format!(
                    "\n    \"{name}\": {{\"count\": {}, \"total\": {}, \"p50\": {}, \"max\": {}}}",
                    v.len(),
                    v.iter().sum::<f64>(),
                    crate::stats::median(v),
                    v.iter().cloned().fold(0.0, f64::max)
                )
            })
            .collect();
        out.push_str(&summary.join(","));
        out.push_str("\n  },\n  \"per_layer\": {");
        let rows: Vec<String> = layers
            .iter()
            .map(|(name, value, unit)| {
                format!("\n    \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        out.push_str(&rows.join(","));
        out.push_str("\n  },\n  \"unmeasured\": {");
        let rows: Vec<String> = unmeasured
            .iter()
            .map(|(name, why)| format!("\n    \"{name}\": \"{why}\""))
            .collect();
        out.push_str(&rows.join(","));
        out.push_str("\n  },\n  \"spans\": [");
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "\n    {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"op\": {}, \
                     \"start_ns\": {}, \"end_ns\": {}}}",
                    s.name, s.op, s.start_ns, s.end_ns
                )
            })
            .collect();
        out.push_str(&rows.join(","));
        out.push_str("\n  ]\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin("root", None, 0);
        let child = t.begin("child", Some(root), 0);
        t.spans[child].end_ns = t.spans[child].start_ns + 250_000_000;
        t.spans[root].end_ns = t.spans[root].start_ns + 1_000_000_000;
        let self_s = t.self_seconds();
        assert!((self_s["root"][0] - 0.75).abs() < 1e-9);
        assert!((self_s["child"][0] - 0.25).abs() < 1e-9);
    }
}
