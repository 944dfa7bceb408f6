//! Spans recorded by the harness around its calls into each layer, kept in
//! memory and written once at exit as Chrome trace-event JSON. Spans inside
//! the engine are a later change; these are timed from outside.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Statement id shared by all spans of one statement.
    pub stmt: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, stmt: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            stmt,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`; returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns()
    }

    /// Time one call into a layer as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, stmt: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.open(name, stmt);
        let out = f();
        (out, self.close(id))
    }

    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, chrome_json(&self.spans))
    }
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"stmt\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.stmt
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            stmt: 7,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("stmt", 0, 100, None),
            span("sql.lex", 0, 10, Some(0)),
            span("exec.run", 10, 90, Some(0)),
            span("replay", 20, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 50, 30]);
    }

    #[test]
    fn tracer_nests_by_open_order() {
        let mut t = Tracer::new();
        let root = t.open("stmt", 1);
        let ((), _) = t.leaf("sql.lex", 1, || ());
        let run = t.open("exec.run", 1);
        t.close(run);
        t.close(root);
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
        let json = chrome_json(&t.spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"name\":\"exec.run\"") && json.contains("\"stmt\":1"));
    }
}
