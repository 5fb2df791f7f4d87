//! In-memory spans around the benchmark's calls into each layer,
//! written out as JSON when the benchmark ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval: a call into a layer, or one request.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Microseconds since the tracer's origin.
    pub start_us: f64,
    pub end_us: f64,
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Collects spans. The reader and the updater keep their own tracers,
/// both with one origin; they are merged with [`absorb`](Tracer::absorb)
/// at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records an interval measured elsewhere; returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name: name.into(),
            parent,
            start_us: self.us(start),
            end_us: self.us(end),
            attrs: Vec::new(),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn attr(&mut self, id: usize, key: impl Into<String>, value: f64) {
        self.spans[id].attrs.push((key.into(), value));
    }

    /// Moves in the spans of a tracer with the same origin, keeping
    /// their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        debug_assert_eq!(self.origin, other.origin);
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans and the run's per-layer metrics as one JSON
    /// document.
    pub fn write(&self, path: &Path, header: &str, metrics_json: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 * self.spans.len() + 1024);
        let _ = write!(out, "{{{header},\"metrics\":{metrics_json},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"start_us\":{:.1},\"end_us\":{:.1}",
                s.name,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start_us,
                s.end_us
            );
            if !s.attrs.is_empty() {
                out.push_str(",\"attrs\":{");
                for (j, (k, v)) in s.attrs.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}\"{k}\":{}",
                        if j > 0 { "," } else { "" },
                        crate::report::number(*v)
                    );
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
