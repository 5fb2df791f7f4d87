//! In-process passes over the paris library, each layer's public entry
//! point timed from here, for the traced runs of `perfbench`. The
//! program itself carries no tracing for the benchmark.
//!
//! ```text
//! perfbench-layers align <LEFT.nt> <RIGHT.nt> <LINKS.nt> <THRESHOLD>
//! perfbench-layers update <SNAPSHOT> <ADD-LEFT> <REMOVE-LEFT> <ADD-RIGHT> <REMOVE-RIGHT>
//! ```
//!
//! `align` does what `paris align LEFT RIGHT --sameas LINKS` does;
//! `update` does what `paris delta SNAPSHOT … --out SNAPSHOT` does. Each
//! prints one line per timed call, `span <name> <start_us> <end_us>` in
//! µs since the process started, and one line per count,
//! `value <key> <number>`. Errors go to standard error with exit code 1.

use std::process::ExitCode;
use std::time::Instant;

use paris_core::{
    update_snapshot, Aligner, IncrementalOptions, LiteralBridge, PairImage, ParisConfig,
};
use paris_kb::{KbBuilder, KbDelta};

/// Prints spans and values in the protocol above.
struct Out {
    origin: Instant,
}

impl Out {
    /// Times `f` as the span `name`; returns its result and seconds.
    fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        println!(
            "span {name} {} {}",
            start.as_secs_f64() * 1e6,
            end.as_secs_f64() * 1e6
        );
        (out, (end - start).as_secs_f64())
    }

    fn value(&self, key: &str, value: f64) {
        println!("value {key} {value}");
    }
}

fn align(out: &Out, args: &[String]) -> Result<(), String> {
    let [left, right, links, threshold] = args else {
        return Err("align takes LEFT RIGHT LINKS THRESHOLD".to_owned());
    };
    let threshold: f64 = threshold
        .parse()
        .map_err(|_| format!("bad threshold {threshold}"))?;
    let ((t1, t2), _) = out.time("rdf.parse", || {
        (
            paris_rdf::ntriples::parse_file(left),
            paris_rdf::ntriples::parse_file(right),
        )
    });
    let t1 = t1.map_err(|e| format!("{left}: {e}"))?;
    let t2 = t2.map_err(|e| format!("{right}: {e}"))?;
    out.value("triples", (t1.len() + t2.len()) as f64);
    let ((kb1, kb2), _) = out.time("kb.build", || {
        let build = |name: &str, triples: &[paris_rdf::Triple]| {
            let mut b = KbBuilder::new(name);
            b.add_triples(triples);
            b.build()
        };
        (build("left", &t1), build("right", &t2))
    });
    drop((t1, t2));
    out.value("entities", (kb1.num_entities() + kb2.num_entities()) as f64);
    out.value("facts", (kb1.num_facts() + kb2.num_facts()) as f64);
    out.value("kb1_instances", kb1.num_instances() as f64);

    let config = ParisConfig::default();
    let (literal_pairs, _) = out.time("paris.literal_bridge", || {
        LiteralBridge::build(&kb1, &kb2, &config.literal_similarity).num_pairs()
    });
    out.value("literal_pairs", literal_pairs as f64);
    let (result, _) = out.time("paris.fixpoint", || Aligner::new(&kb1, &kb2, config).run());
    // The pass timings come back from the aligner itself, one entry per
    // iteration.
    let last = result
        .iterations
        .last()
        .ok_or("the aligner ran no iteration")?;
    for (key, value) in [
        (
            "instance_s",
            result.iterations.iter().map(|i| i.instance_seconds).sum(),
        ),
        (
            "subrel_s",
            result
                .iterations
                .iter()
                .map(|i| i.subrelation_seconds)
                .sum(),
        ),
        ("class_s", result.class_seconds),
        ("iterations", result.iterations.len() as f64),
        ("instance_equivalences", last.instance_equivalences as f64),
        ("subrel_entries", last.subrelation_entries as f64),
    ] {
        out.value(key, value);
    }
    let (written, _) = out.time("paris.export", || {
        let triples = result.sameas_triples(threshold);
        std::fs::write(links, paris_rdf::ntriples::to_string(&triples))
    });
    written.map_err(|e| format!("writing {links}: {e}"))
}

fn update(out: &Out, args: &[String]) -> Result<(), String> {
    let [snapshot, add_left, remove_left, add_right, remove_right] = args else {
        return Err("update takes SNAPSHOT ADD-LEFT REMOVE-LEFT ADD-RIGHT REMOVE-RIGHT".to_owned());
    };
    let (image, _) = out.time("paris.image.load", || PairImage::load(snapshot));
    let image = image.map_err(|e| format!("loading {snapshot}: {e}"))?;
    let (owned, _) = out.time("paris.image.hydrate", || image.into_decoded());
    let (deltas, _) = out.time("delta.assemble", || {
        let side = |add: &str, remove: &str| -> Result<KbDelta, String> {
            let mut delta = KbDelta::new("");
            for (path, removal) in [(add, false), (remove, true)] {
                let triples =
                    paris_rdf::ntriples::parse_file(path).map_err(|e| format!("{path}: {e}"))?;
                delta
                    .add_triples(&triples, removal)
                    .map_err(|e| format!("{path}: {e}"))?;
            }
            Ok(delta)
        };
        Ok::<_, String>((side(add_left, remove_left)?, side(add_right, remove_right)?))
    });
    let (d1, d2) = deltas?;
    let config = ParisConfig::default();
    let (updated, _) = out.time("paris.update_snapshot", || {
        update_snapshot(
            owned,
            Some(&d1),
            Some(&d2),
            &config,
            &IncrementalOptions::default(),
        )
    });
    let (updated, report) = updated.map_err(|e| e.to_string())?;
    let (saved, _) = out.time("kb.encode", || updated.save(snapshot));
    saved.map_err(|e| format!("writing {snapshot}: {e}"))?;
    out.value("iterations", report.iterations as f64);
    out.value("rescored_rows", report.incremental.rescored_rows as f64);
    out.value("total_instances", report.incremental.total_instances as f64);
    Ok(())
}

fn main() -> ExitCode {
    let out = Out {
        origin: Instant::now(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((verb, rest)) if verb == "align" => align(&out, rest),
        Some((verb, rest)) if verb == "update" => update(&out, rest),
        _ => Err("usage: perfbench-layers <align|update> ARGS…".to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
