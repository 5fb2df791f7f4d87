//! `align-movies`: the paper's batch use. `paris align` over a generated
//! movies pair, scored against its gold standard; and the align part of
//! every traced run.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::score::{self, Score};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{nt, Ctx, Outcome, SETUP_RUNS};

/// Movies in the generated pair: 49k vs 90k instances, ~445k facts.
const SCALE: &str = "25600";
/// `paris align`'s default `--threshold`.
const THRESHOLD: f64 = 0.4;

/// What the checks compare `links.nt` against.
struct Reference {
    gold: HashMap<String, String>,
    left: HashSet<String>,
    right: HashSet<String>,
}

impl Reference {
    fn load(dir: &Path) -> Result<Reference, String> {
        let read = |name: &str| {
            let path = dir.join(name);
            std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
        };
        Ok(Reference {
            gold: score::read_gold(&read("gold.tsv")?)?,
            left: nt::iris(&read("left.nt")?),
            right: nt::iris(&read("right.nt")?),
        })
    }

    /// Scores a links file; a malformed or unknown link fails the check.
    fn check(&self, links: &Path) -> Result<Score, String> {
        let text = std::fs::read_to_string(links)
            .map_err(|e| format!("reading {}: {e}", links.display()))?;
        let s = score::score_links(&text, &self.gold, &self.left, &self.right);
        if s.bad_lines > 0 {
            return Err(format!(
                "{}: {} malformed or unknown links",
                links.display(),
                s.bad_lines
            ));
        }
        if s.links == 0 {
            return Err(format!("{}: no links", links.display()));
        }
        Ok(s)
    }
}

/// An align input on disk: `left.nt`, `right.nt`, `gold.tsv`, and where
/// the links go.
pub struct Input {
    reference: Reference,
    /// `left.nt`, `right.nt`, `links.nt`.
    paths: [String; 3],
}

impl Input {
    pub fn load(dir: &Path) -> Result<Input, String> {
        let path = |name: &str| {
            dir.join(name)
                .to_str()
                .map(str::to_owned)
                .ok_or_else(|| "non-UTF-8 work path".to_owned())
        };
        Ok(Input {
            reference: Reference::load(dir)?,
            paths: [path("left.nt")?, path("right.nt")?, path("links.nt")?],
        })
    }
}

/// Generates the movies pair into `<work>/movies`; returns the directory
/// and the wall time.
pub fn generate(ctx: &Ctx) -> Result<(PathBuf, f64), String> {
    let data = ctx.work.join("movies");
    let data_arg = data.to_str().ok_or("non-UTF-8 work path")?;
    let seed = ctx.args.seed.to_string();
    let run = ctx.paris.run(&[
        "generate", "movies", "--seed", &seed, "--scale", SCALE, "--out", data_arg,
    ])?;
    Ok((data, run.wall.as_secs_f64()))
}

/// One scored `paris align` process.
struct AlignRun {
    wall_s: f64,
    peak_mib: f64,
    score: Score,
}

/// Whole `paris align` processes, repeated while the next one still fits
/// in `window` seconds; at least one.
fn timed(ctx: &Ctx, input: &Input, window: f64, out: &mut Outcome) -> Vec<AlignRun> {
    let p = &input.paths;
    let links = Path::new(&p[2]);
    let mut runs: Vec<AlignRun> = Vec::new();
    let start = Instant::now();
    loop {
        let _ = std::fs::remove_file(links);
        let result = ctx
            .paris
            .run_polled(&["align", &p[0], &p[1], "--sameas", &p[2]])
            .and_then(|run| Ok((run, input.reference.check(links)?)));
        match result {
            Ok((run, score)) => {
                out.op(Ok(()));
                runs.push(AlignRun {
                    wall_s: run.wall.as_secs_f64(),
                    peak_mib: run.peak_kib as f64 / 1024.0,
                    score,
                });
            }
            Err(e) => out.op(Err(e)),
        }
        let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        if walls.is_empty() || start.elapsed().as_secs_f64() + median(&walls) > window {
            break;
        }
    }
    out.notes.push(format!(
        "{} align runs: {}",
        runs.len(),
        runs.iter()
            .map(|r| format!("{:.3}s", r.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    runs
}

/// The untraced workload: the end-to-end metrics of `paris align`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let mut data = None;
    for _ in 0..SETUP_RUNS {
        let (dir, wall_s) = generate(ctx)?;
        setup.push(wall_s);
        data = Some(dir);
    }
    let input = Input::load(&data.expect("at least one set-up"))?;
    let mut out = Outcome::default();
    let runs = timed(ctx, &input, ctx.args.seconds, &mut out);
    if runs.is_empty() {
        return Err("no align run succeeded".to_owned());
    }
    let of = |f: fn(&AlignRun) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let walls = of(|r| r.wall_s);
    let m = &mut out.metrics;
    m.add("setup_s", median(&setup), "s");
    m.add("op_p50_ms", median(&walls) * 1e3, "ms");
    m.add(
        "op_tail_ms",
        walls.iter().copied().fold(0.0, f64::max) * 1e3,
        "ms",
    );
    m.add(
        "ops_per_s",
        runs.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    m.add("peak_rss_mib", median(&of(|r| r.peak_mib)), "MiB");
    m.add("precision", median(&of(|r| r.score.precision())), "ratio");
    m.add("recall", median(&of(|r| r.score.recall())), "ratio");
    Ok(out)
}

/// The align part of a traced run, on the input in `dir`: untraced
/// `paris align` processes for `window` seconds, then one traced pass of
/// the same pipeline in process, where `perfbench-layers align` times
/// each layer's public entry point.
pub fn traced(
    ctx: &Ctx,
    dir: &Path,
    window: f64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let input = Input::load(dir)?;
    let walls: Vec<f64> = timed(ctx, &input, window, out)
        .iter()
        .map(|r| r.wall_s)
        .collect();
    if walls.is_empty() {
        return Err("no align run succeeded".to_owned());
    }
    let align_s = median(&walls);
    let layers = ctx
        .layers
        .as_ref()
        .ok_or("a traced run needs perfbench-layers")?;
    let paths = &input.paths;
    let _ = std::fs::remove_file(&paths[2]);
    let threshold = THRESHOLD.to_string();
    let (run, start) = layers.run(&["align", &paths[0], &paths[1], &paths[2], &threshold])?;
    out.op(input.reference.check(Path::new(&paths[2])).map(|_| ()));
    run.record(tracer, "align", start);
    let (parse_s, build_s, bridge_s, run_s, export_s) = (
        run.seconds("rdf.parse")?,
        run.seconds("kb.build")?,
        run.seconds("paris.literal_bridge")?,
        run.seconds("paris.fixpoint")?,
        run.seconds("paris.export")?,
    );
    let (instance_s, subrel_s, class_s) = (
        run.value("instance_s")?,
        run.value("subrel_s")?,
        run.value("class_s")?,
    );
    // The aligner rebuilds the literal bridge inside its run; the rest of
    // the run outside the three passes is fixpoint bookkeeping.
    let fixpoint_other_s = run_s - instance_s - subrel_s - class_s - bridge_s;
    let attributed = parse_s + build_s + run_s + export_s;
    let equivalences = run.value("instance_equivalences")?;
    let m = &mut out.metrics;
    m.add("rdf.parse_s", parse_s, "s");
    m.add("rdf.triples", run.value("triples")?, "count");
    m.add("kb.build_s", build_s, "s");
    m.add("kb.entities", run.value("entities")?, "count");
    m.add("kb.facts", run.value("facts")?, "count");
    m.add("paris.literal_bridge_s", bridge_s, "s");
    m.add("paris.literal_pairs", run.value("literal_pairs")?, "count");
    m.add("paris.instance_s", instance_s, "s");
    m.add("paris.subrel_s", subrel_s, "s");
    m.add("paris.class_s", class_s, "s");
    m.add("paris.fixpoint_other_s", fixpoint_other_s, "s");
    m.add("paris.export_s", export_s, "s");
    m.add("align.unattributed_s", align_s - attributed, "s");
    m.add("paris.iterations", run.value("iterations")?, "count");
    m.add("paris.instance_equivalences", equivalences, "count");
    m.add(
        "paris.subrel_entries",
        run.value("subrel_entries")?,
        "count",
    );
    m.add(
        "paris.equiv_per_instance",
        equivalences / run.value("kb1_instances")?.max(1.0),
        "ratio",
    );
    m.add("align.trace_overhead_s", run.wall_s - align_s, "s");
    Ok(())
}
