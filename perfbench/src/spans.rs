//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public API; nothing inside the simulator is instrumented. A span has a
//! name, a start and an end (host nanoseconds since the recorder's epoch),
//! its parent span, and a request id shared by every span of one request.
//! A layer's self time is its span's duration minus the time its child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Workload and policy (or other context) the span belongs to.
    pub labels: [&'static str; 2],
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span recorder; the benchmark's timed work is single-threaded.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// A recorder made by [`Tracer::off`] records nothing.
    enabled: bool,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder whose `span` only runs its closure: the untraced runs go
    /// through the same code as the traced ones.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span. A `request` of 0 inherits the parent's id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        labels: [&'static str; 2],
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied();
        let request = match (request, parent) {
            (0, Some(p)) => self.spans[p].request,
            (id, _) => id,
        };
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            labels,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = out.entry(span.name).or_default();
            layer.count += 1;
            layer.total_ns += span.ns();
            layer.self_ns += span.ns().saturating_sub(children);
        }
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// For every span called `root`, the spans below it (at any depth).
    pub fn groups(&self, root: &str) -> Vec<Vec<&Span>> {
        let mut slot = vec![None; self.spans.len()];
        let mut groups = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            // Parents precede children, so each ancestor is resolved already.
            slot[i] = if span.name == root {
                groups.push(Vec::new());
                Some(groups.len() - 1)
            } else {
                span.parent.and_then(|p| slot[p])
            };
            if span.name != root {
                if let Some(g) = slot[i] {
                    groups[g].push(span);
                }
            }
        }
        groups
    }

    /// For every span called `root`, the summed duration (ns) of the spans
    /// called `name` below it.
    pub fn group_sums(&self, root: &str, name: &str) -> Vec<f64> {
        self.groups(root)
            .iter()
            .map(|g| {
                g.iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.ns() as f64)
                    .sum()
            })
            .collect()
    }

    /// The spans as Chrome trace-event JSON (viewable in Perfetto), at most
    /// `limit` of them.
    pub fn chrome_json(&self, limit: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}/{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{}}}}}",
                s.name,
                s.labels[0],
                s.labels[1],
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.request,
            )
            .expect("writing to a String never fails");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_requests_inherit() {
        let mut t = Tracer::new();
        t.span("outer", ["a", "b"], 7, |t| {
            t.span("inner", ["", ""], 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        let layers = t.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!(outer.total_ns - outer.self_ns, inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn groups_collect_descendants_per_root() {
        let mut t = Tracer::new();
        for _ in 0..2 {
            t.span("iteration", ["", ""], 1, |t| {
                t.span("a", ["", ""], 0, |t| t.span("b", ["", ""], 0, |_| ()));
                t.span("b", ["", ""], 0, |_| ());
            });
        }
        t.span("b", ["", ""], 9, |_| ());
        let groups = t.groups("iteration");
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.len() == 3));
        assert_eq!(t.group_sums("iteration", "b").len(), 2);
        assert_eq!(t.durations("b").len(), 5);
        assert!(t.chrome_json(2).matches("\"ph\":\"X\"").count() == 2);
    }

    #[test]
    fn an_off_recorder_runs_closures_and_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("outer", ["", ""], 1, |t| {
            t.span("inner", ["", ""], 0, |_| 5)
        });
        assert_eq!(v, 5);
        assert!(!t.enabled() && t.spans().is_empty());
    }
}
