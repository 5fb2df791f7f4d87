//! End-to-end benchmark of PARIS through the surfaces users touch: the
//! `paris` CLI verbs and the `/v1` HTTP API.
//!
//! ```text
//! perfbench --paris <PARIS-BIN> [--layers <PERFBENCH-LAYERS-BIN>]
//!           --workload <align-movies|serve-read|serve-update>
//!           --seed <N> --seconds <S> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. Every workload reports the same metrics: with
//! `--trace 0` the end-to-end ones, each of the workload's own timed
//! operation, and with `--trace 1` the per-layer ones, from a traced
//! pass over every layer. See `perfbench/README.md`.

mod align;
mod delta;
mod host;
mod http;
mod layers;
mod mix;
mod nt;
mod proc;
mod report;
mod score;
mod serve;
mod stats;
mod trace;
mod update;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use layers::Layers;
use proc::Paris;
use report::Metrics;
use trace::Tracer;

/// Times each workload's set-up is repeated; `setup_s` is their median.
pub const SETUP_RUNS: usize = 3;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    paris: PathBuf,
    layers: Option<PathBuf>,
}

/// What a workload runs with.
pub struct Ctx {
    pub args: Args,
    pub paris: Paris,
    /// The in-process passes of traced runs; `None` when untraced.
    pub layers: Option<Layers>,
    /// Scratch directory of this run, removed at the end.
    pub work: PathBuf,
    /// Common origin of every span.
    pub origin: Instant,
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Adds another outcome's counts and notes.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    /// Counts one operation; a failed one keeps its message (the first
    /// few).
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("FAILED: {e}"));
            }
        }
    }
}

const WORKLOADS: [&str; 3] = ["align-movies", "serve-read", "serve-update"];

const USAGE: &str = "usage: perfbench --paris <PARIS-BIN> [--layers <PERFBENCH-LAYERS-BIN>] \
                     --workload <align-movies|serve-read|serve-update> \
                     --seed <N> --seconds <S> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut paris, mut layers) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, not {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--paris" => paris = Some(PathBuf::from(value)),
            "--layers" => layers = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        paris: paris.ok_or("missing --paris")?,
        layers,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.paris.is_file() {
        eprintln!("error: no paris binary at {}", args.paris.display());
        return ExitCode::FAILURE;
    }
    let layers = match (&args.layers, args.trace) {
        (_, false) => None,
        (Some(bin), true) if bin.is_file() => Some(Layers { bin: bin.clone() }),
        (_, true) => {
            eprintln!("error: a traced run needs the perfbench-layers binary (--layers)");
            return ExitCode::FAILURE;
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-seed{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        paris: Paris {
            bin: args.paris.clone(),
            log_dir: work.clone(),
        },
        layers,
        args,
        work,
        origin: Instant::now(),
    };
    let result = match ctx.args.workload.as_str() {
        w if !WORKLOADS.contains(&w) => Err(format!("unknown workload {w}\n{USAGE}")),
        _ if ctx.args.trace => traced(&ctx),
        "align-movies" => align::run(&ctx),
        "serve-read" => serve::run_read(&ctx),
        _ => update::run_update(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    finish(&ctx, outcome)
}

/// The traced run, the same on every workload so that each reports every
/// per-layer metric: the align part on the workload's own align input
/// (the movies pair on align-movies, the served pair otherwise), then
/// the read and update parts on a served encyclopedia pair, set up once.
fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let seconds = ctx.args.seconds;
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(ctx.origin);
    let (served, _) = serve::setup(ctx, true, 1)?;
    let align_dir = match ctx.args.workload.as_str() {
        "align-movies" => align::generate(ctx)?.0,
        _ => served.dir().to_path_buf(),
    };
    align::traced(ctx, &align_dir, seconds / 4.0, &mut out, &mut tracer)?;
    serve::traced(ctx, &served, seconds / 4.0, &mut out, &mut tracer)?;
    update::traced(ctx, &served, seconds / 2.0, &mut out, &mut tracer)?;
    out.tracer = Some(tracer);
    Ok(out)
}

fn finish(ctx: &Ctx, outcome: Outcome) -> ExitCode {
    let args = &ctx.args;
    println!(
        "perfbench {} seed {} ({} s{}, {} cores):",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    print!("{}", outcome.metrics.to_text());
    for note in &outcome.notes {
        println!("  {note}");
    }
    if let Some(tracer) = &outcome.tracer {
        let path = PathBuf::from(".bench_out")
            .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        let header = format!("\"workload\":\"{}\",\"seed\":{}", args.workload, args.seed);
        match tracer.write(&path, &header, &outcome.metrics.to_json()) {
            Ok(()) => println!(
                "  trace: {} ({} spans)",
                path.display(),
                tracer.spans().len()
            ),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{}",
        report::result_line(
            outcome.failed == 0,
            outcome.attempted.max(1),
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
