//! `serve-update`: `paris delta` plus reload beside a reader, on the
//! daemon and pair of serve-read (see [`crate::serve`]); and the update
//! part of every traced run.

use std::time::{Duration, Instant};

use crate::http::{Conn, Request, Response};
use crate::layers::LayerRun;
use crate::serve::{
    account, layer_metrics, read_figures, run_reader, sameas_path, served_facts, server_requests,
    setup, Load, Reader, Served, PAIR,
};
use crate::stats::{median, tail, TAIL_BEYOND};
use crate::trace::Tracer;
use crate::{host, Ctx, Outcome, SETUP_RUNS};

/// One applied update.
struct Update {
    /// From the start of the delta to the reload acknowledgement.
    total_s: f64,
    delta_s: f64,
    /// Peak resident set of the `paris delta` process; NaN when traced.
    delta_peak_mib: f64,
    reload_s: f64,
    traced: bool,
    start: Instant,
    end: Instant,
}

/// The updater's side of serve-update: applies the delta sequence in
/// order until the deadline, checking the served pair after each.
struct Updater<'a> {
    ctx: &'a Ctx,
    served: &'a Served,
    facts: [i64; 2],
    /// HTTP requests the updater sent (for the server-count check).
    requests: u64,
    updates: Vec<Update>,
    /// What `perfbench-layers update` reported for each traced update,
    /// with the served file's size after it.
    layer_runs: Vec<(LayerRun, f64)>,
    out: Outcome,
    tracer: Tracer,
}

impl Updater<'_> {
    fn request(&mut self, req: &Request) -> Result<Response, String> {
        self.requests += 1;
        Conn::connect(self.served.server.addr)
            .and_then(|mut c| c.send(req))
            .map_err(|e| format!("{} {}: {e}", req.method, req.path))
    }

    fn run(&mut self, deadline: Instant, trace_until: Option<Instant>) {
        for k in 0..self.served.deltas.len() {
            let now = Instant::now();
            // Deltas come in rename/restore pairs: stop only after a
            // restore, so that the pair served at the end is the
            // generated one again.
            if k % 2 == 0 && now >= deadline {
                return;
            }
            let traced = trace_until.is_some_and(|t| now < t);
            let result = self.apply(k, traced);
            let failed = result.is_err();
            self.out.op(result);
            if failed {
                // Later deltas assume this one applied.
                return;
            }
        }
        self.out.notes.push(format!(
            "all {} deltas applied before the deadline",
            self.served.deltas.len()
        ));
    }

    fn apply(&mut self, k: usize, traced: bool) -> Result<(), String> {
        let d = &self.served.deltas[k];
        let snapshot = self.served.snapshot.to_str().ok_or("non-UTF-8 work path")?;
        let f = &d.files;
        let t0 = Instant::now();
        let mut delta_peak_mib = f64::NAN;
        if traced {
            // The same update as `paris delta`, through the library, each
            // layer timed.
            let layers = self
                .ctx
                .layers
                .as_ref()
                .ok_or("a traced run needs perfbench-layers")?;
            let (run, start) = layers.run(&["update", snapshot, &f[0], &f[1], &f[2], &f[3]])?;
            run.record(&mut self.tracer, "update", start);
            let bytes = std::fs::metadata(snapshot).map_or(f64::NAN, |m| m.len() as f64);
            self.layer_runs.push((run, bytes));
        } else {
            let run = self.ctx.paris.run_polled(&[
                "delta",
                snapshot,
                "--add-left",
                &f[0],
                "--remove-left",
                &f[1],
                "--add-right",
                &f[2],
                "--remove-right",
                &f[3],
                "--out",
                snapshot,
            ])?;
            delta_peak_mib = run.peak_kib as f64 / 1024.0;
        }
        let t1 = Instant::now();
        let r = self.request(&Request::post(
            format!("/v1/pairs/{PAIR}/reload"),
            Vec::new(),
        ))?;
        let t2 = Instant::now();
        if r.status != 200 {
            return Err(format!(
                "reload after delta {k}: status {} {}",
                r.status,
                r.text()
            ));
        }
        self.updates.push(Update {
            total_s: (t2 - t0).as_secs_f64(),
            delta_s: (t1 - t0).as_secs_f64(),
            delta_peak_mib,
            reload_s: (t2 - t1).as_secs_f64(),
            traced,
            start: t0,
            end: t2,
        });

        // The delta is served: its fresh entities resolve and the fact
        // counts moved by exactly its net change.
        for (iri, side) in [(&d.fresh[0], "left"), (&d.fresh[1], "right")] {
            let r = self.request(&Request::get(sameas_path(iri, side)))?;
            if r.status != 200 {
                return Err(format!(
                    "fresh {side} entity {iri} of delta {k}: status {}",
                    r.status
                ));
            }
        }
        self.facts[0] += d.net[0];
        self.facts[1] += d.net[1];
        let r = self.request(&Request::get(format!("/v1/pairs/{PAIR}/stats")))?;
        let served =
            served_facts(r.text()).ok_or_else(|| format!("unparsable stats {:?}", r.text()))?;
        if served != self.facts {
            return Err(format!(
                "after delta {k}: serving {served:?} facts, expected {:?}",
                self.facts
            ));
        }
        Ok(())
    }
}

/// What the updates beside a reader gave.
struct Beside {
    updates: Vec<Update>,
    /// What `perfbench-layers update` reported for each traced update,
    /// with the served file's size after it.
    layer_runs: Vec<(LayerRun, f64)>,
    reader: Reader,
    /// The traced updates' and the traced reads' spans.
    tracer: Tracer,
    elapsed: Duration,
    windows: Vec<host::Window>,
}

impl Beside {
    /// The updates traced (or not) and one figure of each.
    fn pick(&self, traced: bool, f: fn(&Update) -> f64) -> Vec<f64> {
        self.updates
            .iter()
            .filter(|u| u.traced == traced)
            .map(f)
            .collect()
    }
}

/// The updater beside one reader for `window` seconds, each update
/// checked; the first half of the updates traced when `traced`. Checks
/// the server's request count against what the benchmark sent.
fn updates_beside_reads(
    ctx: &Ctx,
    served: &Served,
    window: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<Beside, String> {
    let stats = Conn::connect(served.server.addr)
        .and_then(|mut c| c.send(&Request::get(format!("/v1/pairs/{PAIR}/stats"))))
        .map_err(|e| format!("reading stats: {e}"))?;
    let facts =
        served_facts(stats.text()).ok_or_else(|| format!("unparsable stats {:?}", stats.text()))?;
    let before = server_requests(served.server.addr)?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(window);
    let trace_until = traced.then(|| start + Duration::from_secs_f64(window / 2.0));
    let mut updater = Updater {
        ctx,
        served,
        facts,
        requests: 0,
        updates: Vec::new(),
        layer_runs: Vec::new(),
        out: Outcome::default(),
        tracer: Tracer::new(ctx.origin),
    };
    let load = Load {
        frozen: false,
        // A polling reader would hold a CPU the updater and the daemon
        // compete for, and so measure its own interference.
        spin: false,
        deadline,
        trace_until,
    };
    let (reader, read_tracer, (), elapsed, windows) =
        run_reader(ctx, served, &load, || updater.run(deadline, trace_until));
    let after = server_requests(served.server.addr)?;

    let Updater {
        updates,
        layer_runs,
        out: updater_out,
        mut tracer,
        requests,
        ..
    } = updater;
    out.absorb(updater_out);
    account(out, &reader);
    let sent = reader.attempted + requests;
    out.op(if after - before == sent + 1 {
        Ok(())
    } else {
        Err(format!(
            "server counted {} requests, the benchmark sent {sent}",
            after - before - 1
        ))
    });
    out.notes.push(format!(
        "{} updates applied ({} traced)",
        updates.len(),
        updates.iter().filter(|u| u.traced).count()
    ));
    tracer.absorb(read_tracer);
    Ok(Beside {
        updates,
        layer_runs,
        reader,
        tracer,
        elapsed,
        windows,
    })
}

/// The untraced serve-update workload.
pub fn run_update(ctx: &Ctx) -> Result<Outcome, String> {
    let (served, setup_s) = setup(ctx, true, SETUP_RUNS)?;
    let mut out = Outcome::default();
    let b = updates_beside_reads(ctx, &served, ctx.args.seconds, false, &mut out)?;
    // Like the reads, the update figures come from the updates that ran
    // under the least stolen CPU, ranked by stolen ticks per overlapped
    // window so that long updates are not dropped for being long: at
    // least four times the tail's ten, so that the tail lies at p75 or
    // above.
    let rates: Vec<f64> = b
        .updates
        .iter()
        .map(|u| host::steal_rate(&b.windows, u.start, u.end))
        .collect();
    let totals: Vec<f64> = host::least_stolen(&rates, 4 * TAIL_BEYOND)
        .into_iter()
        .map(|i| b.updates[i].total_s)
        .collect();
    let (tail_s, note) = match tail(&totals) {
        Some(t) => (
            t.value,
            format!(
                "op_tail_ms is p{:.1} of the {} updates with least stolen CPU",
                t.percentile, t.samples
            ),
        ),
        None => (
            totals.iter().copied().fold(f64::NAN, f64::max),
            format!("op_tail_ms is the maximum of only {} updates", totals.len()),
        ),
    };
    out.notes.push(note);
    let f = read_figures(&b.reader, &b.windows, b.elapsed, &mut out.notes);
    out.notes.push(format!(
        "reads beside the updates: p50 {:.1} us, p99 {:.1} us, {:.0}/s",
        f.p50_us, f.p99_us, f.rps
    ));
    out.notes.push(format!(
        "daemon peak RSS after the updates: {:.1} MiB",
        served.server.peak_rss_mib()?
    ));
    // The quality of the answers once the last delta (a restore) is
    // served: every pool IRI's best match, asked again.
    let score = served.score(&served.record_matches()?);
    let m = &mut out.metrics;
    m.add("setup_s", setup_s, "s");
    m.add("op_p50_ms", median(&totals) * 1e3, "ms");
    m.add("op_tail_ms", tail_s * 1e3, "ms");
    m.add(
        "ops_per_s",
        totals.len() as f64 / totals.iter().sum::<f64>(),
        "1/s",
    );
    m.add(
        "peak_rss_mib",
        median(&b.pick(false, |u| u.delta_peak_mib)),
        "MiB",
    );
    m.add("precision", score.precision(), "ratio");
    m.add("recall", score.recall(), "ratio");
    Ok(out)
}

/// The update part of a traced run: serve-update's updates beside a
/// reader for `window` seconds, the first half traced in process.
pub fn traced(
    ctx: &Ctx,
    served: &Served,
    window: f64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let b = updates_beside_reads(ctx, served, window, true, out)?;
    let mut notes = Vec::new();
    let f = read_figures(&b.reader, &b.windows, b.elapsed, &mut notes);
    out.notes.extend(notes);
    let untraced_totals = b.pick(false, |u| u.total_s);
    let m = &mut out.metrics;
    layer_metrics(m, "update", &b.reader, |_| true);
    m.add("update.read_p50_us", f.p50_us, "us");
    m.add("update.read_p99_us", f.p99_us, "us");
    m.add("update.read_rps", f.rps, "1/s");
    m.add(
        "update.delta_process_s",
        median(&b.pick(false, |u| u.delta_s)),
        "s",
    );
    m.add(
        "update.reload_ms",
        median(&b.pick(false, |u| u.reload_s * 1e3)),
        "ms",
    );
    // Medians over the traced updates of one reported figure each.
    let across = |f: &dyn Fn(&LayerRun) -> Result<f64, String>| -> Result<f64, String> {
        let v = b
            .layer_runs
            .iter()
            .map(|(run, _)| f(run))
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(median(&v))
    };
    m.add(
        "paris.image.load_s",
        across(&|r| r.seconds("paris.image.load"))?,
        "s",
    );
    // Only the first update reads the v2 image `paris snapshot` wrote
    // (later ones read the v1 file `paris delta` leaves), so only its
    // hydration does work; the traced half runs first to catch it.
    let (first, _) = b.layer_runs.first().ok_or("no traced update ran")?;
    m.add(
        "paris.image.hydrate_s",
        first.seconds("paris.image.hydrate")?,
        "s",
    );
    m.add(
        "paris.update_snapshot_s",
        across(&|r| r.seconds("paris.update_snapshot"))?,
        "s",
    );
    m.add("kb.encode_s", across(&|r| r.seconds("kb.encode"))?, "s");
    m.add(
        "paris.incremental.iterations",
        across(&|r| r.value("iterations"))?,
        "count",
    );
    m.add(
        "paris.incremental.rescored_rows",
        across(&|r| r.value("rescored_rows"))?,
        "count",
    );
    m.add(
        "paris.incremental.rescored_frac",
        across(&|r| {
            let scored = r.value("iterations")? * r.value("total_instances")?;
            Ok(r.value("rescored_rows")? / scored.max(1.0))
        })?,
        "ratio",
    );
    let bytes: Vec<f64> = b.layer_runs.iter().map(|&(_, b)| b).collect();
    m.add("kb.snapshot_bytes", median(&bytes), "B");
    m.add(
        "update.trace_overhead_s",
        median(&b.pick(true, |u| u.total_s)) - median(&untraced_totals),
        "s",
    );
    tracer.absorb(b.tracer);
    Ok(())
}
