//! The traced runs' in-process passes: `perfbench-layers` (the package
//! in `layers/`), run as a child process. It links the paris library and
//! times each layer's public entry point; this side reads its spans and
//! values back. Only traced runs build and run it, so the end-to-end
//! figures depend on the `paris` binary and the HTTP API alone.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// The `perfbench-layers` binary.
pub struct Layers {
    pub bin: PathBuf,
}

/// What one `perfbench-layers` invocation reported.
#[derive(Debug, Default, PartialEq)]
pub struct LayerRun {
    /// `(name, start_us, end_us)`, µs since the child started.
    spans: Vec<(String, f64, f64)>,
    values: Vec<(String, f64)>,
    /// Wall time of the child process, start-up included.
    pub wall_s: f64,
}

impl Layers {
    /// Runs one verb to completion; fails on a non-zero exit or output
    /// that does not parse.
    pub fn run(&self, args: &[&str]) -> Result<(LayerRun, Instant), String> {
        let start = Instant::now();
        let output = Command::new(&self.bin)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("spawning {}: {e}", self.bin.display()))?;
        let wall_s = start.elapsed().as_secs_f64();
        if !output.status.success() {
            return Err(format!(
                "perfbench-layers {} failed ({}): {}",
                args.join(" "),
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        let mut run = parse(&String::from_utf8_lossy(&output.stdout))?;
        run.wall_s = wall_s;
        Ok((run, start))
    }
}

/// Parses `span <name> <start_us> <end_us>` and `value <key> <number>`
/// lines.
fn parse(stdout: &str) -> Result<LayerRun, String> {
    let mut run = LayerRun::default();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let number = |s: &str| {
            s.parse::<f64>()
                .map_err(|_| format!("perfbench-layers: bad number in {line:?}"))
        };
        match fields[..] {
            ["span", name, start, end] => {
                run.spans
                    .push((name.to_owned(), number(start)?, number(end)?))
            }
            ["value", key, value] => run.values.push((key.to_owned(), number(value)?)),
            _ => return Err(format!("perfbench-layers: unexpected line {line:?}")),
        }
    }
    Ok(run)
}

impl LayerRun {
    /// Seconds of the span `name`.
    pub fn seconds(&self, name: &str) -> Result<f64, String> {
        self.spans
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, start, end)| (end - start) / 1e6)
            .ok_or_else(|| format!("perfbench-layers reported no span {name}"))
    }

    pub fn value(&self, key: &str) -> Result<f64, String> {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("perfbench-layers reported no value {key}"))
    }

    /// Records the run as a span `name` over the child's lifetime, its
    /// spans as children placed from `start` (taken just before the
    /// spawn), and its values as the span's attributes. Returns the
    /// span's id.
    pub fn record(&self, tracer: &mut Tracer, name: &str, start: Instant) -> usize {
        let at = |us: f64| start + Duration::from_secs_f64(us.max(0.0) / 1e6);
        let root = tracer.record(name, start, at(self.wall_s * 1e6), None);
        for (span, begin, end) in &self.spans {
            tracer.record(span, at(*begin), at(*end), Some(root));
        }
        for (key, value) in &self.values {
            tracer.attr(root, key, *value);
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_spans_and_values() {
        let run = parse("span rdf.parse 10.5 2010.5\nvalue triples 445000\n").expect("parses");
        assert_eq!(run.seconds("rdf.parse"), Ok(0.002));
        assert_eq!(run.value("triples"), Ok(445_000.0));
        assert!(run.seconds("kb.build").is_err());
        assert!(parse("span rdf.parse ten 20\n").is_err());
        assert!(parse("progress 50%\n").is_err());
    }
}
