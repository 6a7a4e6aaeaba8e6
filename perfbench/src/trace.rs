//! The traced run's span recorder. Spans are recorded around calls into
//! each layer's public functions, kept in memory, and written out as JSON
//! lines when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use salsa_wire::Json;

/// One timed call: which layer, which job, and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sched.fds`; `job` for a job's root.
    pub name: &'static str,
    /// Request class on serve-mix (`hit`, `miss`, `realloc`, `verify`).
    pub tag: &'static str,
    /// The job (or request) the span belongs to.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log sharing one monotonic epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(4096),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index, to be passed to [`end`](Self::end).
    pub fn begin(
        &mut self,
        name: &'static str,
        tag: &'static str,
        job: u64,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag,
            job,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, index: usize) {
        self.spans[index].end_ns = self.now_ns();
    }

    /// Records `f` as a child span of `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let index = self.begin(name, "", job, Some(parent));
        let result = f();
        self.end(index);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends the spans of another recorder sharing this one's epoch,
    /// re-indexing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        debug_assert_eq!(
            self.epoch, other.epoch,
            "absorbed spans must share the epoch"
        );
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self time per span name in nanoseconds: each span's duration minus
    /// the part its direct children cover (children never overlap).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            *totals.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(covered);
        }
        totals
    }

    /// Total duration of every span named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let line = Json::obj(vec![
                ("name", Json::Str(span.name.into())),
                ("tag", Json::Str(span.tag.into())),
                ("job", Json::Int(span.job as i64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("start_ns", Json::Int(span.start_ns as i64)),
                ("end_ns", Json::Int(span.end_ns as i64)),
            ]);
            writeln!(out, "{}", line.to_string_compact())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tracer = Tracer::new(Instant::now());
        let root = tracer.begin("job", "", 0, None);
        tracer.span("sched.fds", 0, root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.end(root);
        let self_ns = tracer.self_ns();
        let root_total = tracer.total_ns("job");
        assert_eq!(self_ns["job"] + self_ns["sched.fds"], root_total);
        assert!(self_ns["sched.fds"] >= 2_000_000);
    }
}
