//! The traced run's span recorder: one span around every call into a
//! layer, kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug)]
struct Span {
    name: &'static str,
    start_us: u64,
    end_us: u64,
    parent: Option<usize>,
}

/// Identifies an open or closed span of one [`Spans`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// Spans of one traced run. All share the workload name as their
/// request identifier; a span's parent is the span open when it began.
pub struct Spans {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str) -> Self {
        Spans {
            workload: workload.to_owned(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` (and anything left open inside it); returns its
    /// duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end_us = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = end_us;
            if top == id.0 {
                break;
            }
        }
        self.seconds(id)
    }

    /// Runs `f` inside a span; returns its value and the span's seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let value = f();
        (value, self.end(id))
    }

    /// Duration of a closed span in seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        let s = &self.spans[id.0];
        (s.end_us - s.start_us) as f64 / 1e6
    }

    /// Seconds covered by the direct children of `id`; the span's self
    /// time is its duration minus this.
    pub fn children_seconds(&self, id: SpanId) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id.0))
            .map(|s| (s.end_us - s.start_us) as f64 / 1e6)
            .sum()
    }

    /// The most recent span called `name`.
    pub fn last(&self, name: &str) -> Option<SpanId> {
        self.spans.iter().rposition(|s| s.name == name).map(SpanId)
    }

    /// Seconds covered by the direct children of `id` called `name`.
    pub fn child_seconds(&self, id: SpanId, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id.0) && s.name == name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1e6)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a JSON array of `{id, name, start_us, end_us, parent,
    /// workload}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \
                 \"parent\": {parent}, \"workload\": \"{}\"}}",
                s.name, s.start_us, s.end_us, self.workload
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut sp = Spans::new("w");
        let root = sp.begin("root");
        let (v, child_s) = sp.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(v, 7);
        let inner = sp.begin("left-open");
        let root_s = sp.end(root);
        assert!(child_s >= 0.005 && root_s >= child_s);
        assert_eq!(sp.seconds(inner), sp.seconds(inner).max(0.0));
        let covered = sp.children_seconds(root);
        assert!(covered >= child_s && covered <= root_s);
        assert_eq!(sp.len(), 3);
        assert_eq!(sp.last("child"), Some(SpanId(1)));
        assert_eq!(sp.last("absent"), None);
        assert_eq!(sp.child_seconds(root, "child"), child_s);
        assert_eq!(sp.child_seconds(root, "absent"), 0.0);
        let json = sp.to_json();
        assert!(json.contains("\"name\": \"child\""), "{json}");
        assert!(json.contains("\"parent\": 0"), "{json}");
        assert!(json.contains("\"parent\": null"), "{json}");
        assert!(json.contains("\"workload\": \"w\""), "{json}");
    }
}
