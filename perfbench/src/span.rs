//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing here reaches into the program: a span brackets one
//! public call, so its self time is the time that call spent outside
//! the calls the benchmark nested inside it.

use std::io::Write as _;
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root; ids start at 1.
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// The operation the span belongs to (a report, a world, a fuzz
    /// run, a fault), shared by every span of that operation.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Open span handle returned by [`Tracer::enter`].
#[must_use]
pub struct Open(usize);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns: start_ns });
        self.stack.push(id);
        Open(id as usize - 1)
    }

    /// Closes `open`, which must be the innermost open span. Returns its
    /// duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = self.now_ns();
        let popped = self.stack.pop().expect("exit without an open span");
        assert_eq!(popped as usize - 1, open.0, "spans must close innermost first");
        let s = &mut self.spans[open.0];
        s.end_ns = end;
        s.dur_ns() as f64 / 1e9
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name, op);
        let r = f();
        (r, self.exit(open))
    }

    /// Summed self time, in seconds, of every span named `name`: each
    /// span's duration minus the part its direct children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.dur_ns();
        }
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns().saturating_sub(child_ns[s.id as usize]))
            .sum();
        ns as f64 / 1e9
    }

    /// Summed duration, in seconds, of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum();
        ns as f64 / 1e9
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                f,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}
