//! In-memory span recorder for the traced run.
//!
//! A span covers one call from the benchmark into a layer's public API.
//! Spans nest (a pass is the root, layer calls are its children), carry
//! the id of the simulated run they belong to, and are kept in memory
//! until the run ends, when [`Tracer::write_jsonl`] writes them out.
//! A disabled tracer records nothing: [`Tracer::span`] then only calls
//! its closure, so traced and untraced passes run the same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    /// The layer a span belongs to: for a pipeline stage
    /// (`sdam::stage`'s `Stage::name`), the layer the stage calls into;
    /// otherwise the span's name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        match self.name {
            "profile" => "profiling",
            "alloc" => "materialize",
            "report" => "obs",
            name => name.split('.').next().unwrap_or(name),
        }
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str, run: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`]; spans close in LIFO order.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(&mut self, name: &'static str, run: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, run);
        let out = f();
        self.exit(open);
        out
    }

    /// Self time per layer, in seconds, over the spans recorded in
    /// `from..to`: each span's duration minus the time its direct
    /// children cover.
    pub fn self_seconds_by_layer(&self, from: usize, to: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; to];
        for s in &self.spans[from..to] {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().take(to).skip(from) {
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            *out.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line, after a header
    /// line describing the run.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.enter("pass", 0);
        t.span("execute", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(root);
        let by_layer = t.self_seconds_by_layer(0, t.len());
        assert!(by_layer["execute"] >= 0.005);
        assert!(by_layer["pass"] < by_layer["execute"]);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("execute", 0, || 7), 7);
        assert_eq!(t.len(), 0);
    }
}
