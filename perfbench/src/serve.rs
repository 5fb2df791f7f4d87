//! `serve-read`: the `/v1` HTTP API of `paris serve` over a generated
//! encyclopedia pair, under a seeded closed-loop mix; the set-up, reader
//! and figures `serve-update` shares; and the read part of every traced
//! run.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::delta;
use crate::http::{self, Conn, Request, Response};
use crate::mix::{self, Op, Rng, Zipf};
use crate::proc::Server;
use crate::report::Metrics;
use crate::score::{self, Score};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::{host, nt, Ctx, Outcome, SETUP_RUNS};

/// People in the generated pair: ~10k instances a side.
const SCALE: &str = "8000";
/// The pair name `paris serve pair.snap` serves.
pub const PAIR: &str = "pair";
/// Deltas written at set-up; more than a run can apply.
const DELTAS: usize = 400;
/// Instances that are the object of more facts than this (cities,
/// countries) are hubs, ranked apart in the request pool (see
/// [`mix::rank`]).
const MAX_INCOMING: usize = 16;

/// The served pair and what the reads are checked against.
pub struct Served {
    pub server: Server,
    pub snapshot: PathBuf,
    /// Left instances in seeded Zipf-rank order.
    pool: Vec<String>,
    /// Each pool IRI's best match, as served at set-up.
    matches: Vec<Option<String>>,
    /// Ranks that have a best match (explain needs one).
    explainable: Vec<usize>,
    /// Delta files and their expectations (serve-update only).
    pub deltas: Vec<DeltaFiles>,
    /// The generated pair's gold standard.
    gold: HashMap<String, String>,
}

impl Served {
    /// The generated pair's directory.
    pub fn dir(&self) -> &Path {
        self.snapshot.parent().unwrap_or(Path::new("."))
    }

    /// Asks for the best match of every pool IRI, in pool order.
    pub fn record_matches(&self) -> Result<Vec<Option<String>>, String> {
        record_matches(self.server.addr, &self.pool)
    }

    /// Scores best matches, one per pool IRI, against the gold standard.
    pub fn score(&self, matches: &[Option<String>]) -> Score {
        let answers = self
            .pool
            .iter()
            .map(String::as_str)
            .zip(matches.iter().map(Option::as_deref));
        score::score_answers(answers, &self.gold)
    }
}

/// One delta of the update sequence, written to disk.
pub struct DeltaFiles {
    /// `--add-left`, `--remove-left`, `--add-right`, `--remove-right`.
    pub files: [String; 4],
    pub fresh: [String; 2],
    pub net: [i64; 2],
}

/// Set-up, repeated `runs` times: generate, snapshot (v2), write the
/// deltas when asked, start the daemon. Returns the last set-up and the
/// median set-up time.
pub fn setup(ctx: &Ctx, with_deltas: bool, runs: usize) -> Result<(Served, f64), String> {
    let seed = ctx.args.seed.to_string();
    let data = ctx.work.join("encyclopedia");
    let data_arg = data.to_str().ok_or("non-UTF-8 work path")?.to_owned();
    let snapshot = data.join("pair.snap");
    let snapshot_arg = snapshot.to_str().ok_or("non-UTF-8 work path")?.to_owned();
    let (left, right) = (
        format!("{data_arg}/left.nt"),
        format!("{data_arg}/right.nt"),
    );
    let mut times = Vec::new();
    let mut server = None;
    let mut deltas = Vec::new();
    for _ in 0..runs {
        drop(server.take());
        let t = Instant::now();
        ctx.paris.run(&[
            "generate",
            "encyclopedia",
            "--seed",
            &seed,
            "--scale",
            SCALE,
            "--out",
            &data_arg,
        ])?;
        ctx.paris.run(&[
            "snapshot",
            &left,
            &right,
            "--out",
            &snapshot_arg,
            "--format",
            "v2",
        ])?;
        if with_deltas {
            deltas = write_deltas(&data, ctx.args.seed)?;
        }
        server = Some(ctx.paris.serve(&snapshot)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");

    // Record what the checks expect: every instance's best match, as
    // served now.
    let text = std::fs::read_to_string(&left).map_err(|e| format!("reading {left}: {e}"))?;
    let (ordinary, hubs) = nt::instances(&text, MAX_INCOMING);
    let pool = mix::rank(ordinary, hubs, &mut Rng::new(ctx.args.seed, 1));
    let matches = record_matches(server.addr, &pool)?;
    let explainable = (0..pool.len()).filter(|&i| matches[i].is_some()).collect();
    let gold_path = data.join("gold.tsv");
    let gold = score::read_gold(
        &std::fs::read_to_string(&gold_path)
            .map_err(|e| format!("reading {}: {e}", gold_path.display()))?,
    )?;
    Ok((
        Served {
            server,
            snapshot,
            pool,
            matches,
            explainable,
            deltas,
            gold,
        },
        median(&times),
    ))
}

fn record_matches(addr: SocketAddr, pool: &[String]) -> Result<Vec<Option<String>>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let mut matches = Vec::with_capacity(pool.len());
    for iri in pool {
        let r = conn
            .send(&Request::get(sameas_path(iri, "left")))
            .map_err(|e| format!("recording sameas of {iri}: {e}"))?;
        if r.status != 200 {
            return Err(format!("recording sameas of {iri}: status {}", r.status));
        }
        matches.push(
            sameas_target(r.text())
                .ok_or_else(|| format!("unparsable sameas answer {:?}", r.text()))?,
        );
    }
    Ok(matches)
}

fn write_deltas(data: &Path, seed: u64) -> Result<Vec<DeltaFiles>, String> {
    let dir = data.join("deltas");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut sides = Vec::new();
    for side in ["left", "right"] {
        let path = data.join(format!("{side}.nt"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        sides.push(delta::plan(&text, seed, side, DELTAS)?);
    }
    let mut out = Vec::with_capacity(DELTAS);
    for (k, (l, r)) in sides[0].iter().zip(&sides[1]).enumerate() {
        let mut files: [String; 4] = Default::default();
        for (slot, (name, lines)) in [
            ("add-left", &l.add),
            ("remove-left", &l.remove),
            ("add-right", &r.add),
            ("remove-right", &r.remove),
        ]
        .into_iter()
        .enumerate()
        {
            let path = dir.join(format!("{k:03}-{name}.nt"));
            let mut body = lines.join("\n");
            body.push('\n');
            std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
            files[slot] = path.to_str().ok_or("non-UTF-8 work path")?.to_owned();
        }
        out.push(DeltaFiles {
            files,
            fresh: [l.fresh.clone(), r.fresh.clone()],
            net: [l.net_facts(), r.net_facts()],
        });
    }
    Ok(out)
}

pub fn sameas_path(iri: &str, side: &str) -> String {
    let side = if side == "right" { "&side=right" } else { "" };
    format!("/v1/pairs/{PAIR}/sameas?iri={}{side}", http::encode(iri))
}

/// The `sameas` field of a sameas answer: `Some(None)` for `null`.
fn sameas_target(body: &str) -> Option<Option<String>> {
    let rest = &body[body.find("\"sameas\":")? + "\"sameas\":".len()..];
    if rest.starts_with("null") {
        return Some(None);
    }
    let rest = rest.strip_prefix('"')?;
    Some(Some(rest[..rest.find('"')?].to_owned()))
}

/// The `facts` count of both KBs in a stats answer.
pub fn served_facts(body: &str) -> Option<[i64; 2]> {
    let facts = |kb: &str| -> Option<i64> {
        let rest = &body[body.find(&format!("\"{kb}\":"))?..];
        let rest = &rest[rest.find("\"facts\":")? + "\"facts\":".len()..];
        rest[..rest.find(|c: char| !c.is_ascii_digit())?]
            .parse()
            .ok()
    };
    Some([facts("kb1")?, facts("kb2")?])
}

/// `paris_requests_total` from `/v1/metrics?format=json`.
pub fn server_requests(addr: SocketAddr) -> Result<u64, String> {
    let r = Conn::connect(addr)
        .and_then(|mut c| c.send(&Request::get("/v1/metrics?format=json")))
        .map_err(|e| format!("scraping metrics: {e}"))?;
    let key = "\"name\":\"paris_requests_total\",\"labels\":{},\"value\":";
    let text = r.text();
    let rest = &text[text
        .find(key)
        .ok_or("no paris_requests_total in /v1/metrics")?
        + key.len()..];
    rest[..rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len())]
        .parse()
        .map_err(|_| "unparsable paris_requests_total".to_owned())
}

// ----------------------------------------------------------------------
// The read mix
// ----------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Route {
    Sameas,
    Neighbors,
    Explain,
    Query,
}

const ROUTES: [(Route, &str); 4] = [
    (Route::Sameas, "sameas"),
    (Route::Neighbors, "neighbors"),
    (Route::Explain, "explain"),
    (Route::Query, "query"),
];

/// One answered request.
pub struct Sample {
    latency_us: f64,
    /// From `Server-Timing`; NaN when absent.
    app_us: f64,
    /// NaN for keep-alive requests.
    connect_us: f64,
    route: Route,
    bytes: usize,
    /// Answered as expected.
    ok: bool,
    /// Sent in the traced half of a traced run.
    traced: bool,
    end: Instant,
}

/// What the reader saw.
#[derive(Default)]
pub struct Reader {
    samples: Vec<Sample>,
    pub attempted: u64,
    failures: Vec<String>,
    failed: u64,
    revalidations: u64,
    not_modified: u64,
}

impl Reader {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }
}

struct Plan {
    req: Request,
    statuses: &'static [u16],
    route: Route,
    /// Pool rank whose recorded match the answer must name.
    target: Option<usize>,
}

fn plan_request(served: &Served, op: Op) -> Plan {
    let pool = &served.pool;
    let plan = |req, route, target| Plan {
        req,
        statuses: &[200],
        route,
        target,
    };
    match op {
        Op::Sameas(rank) => plan(
            Request::get(sameas_path(&pool[rank], "left")),
            Route::Sameas,
            Some(rank),
        ),
        Op::Neighbors(rank) => plan(
            Request::get(format!(
                "/v1/pairs/{PAIR}/neighbors?iri={}&limit=10",
                http::encode(&pool[rank])
            )),
            Route::Neighbors,
            None,
        ),
        Op::Explain(rank) => {
            let right = served.matches[rank].as_deref().unwrap_or_default();
            let path = format!(
                "/v1/pairs/{PAIR}/explain?left={}&right={}",
                http::encode(&pool[rank]),
                http::encode(right)
            );
            plan(Request::get(path), Route::Explain, None)
        }
        Op::Batch(lookups) => {
            let queries: Vec<String> = lookups
                .iter()
                .map(|&(neighbors, rank)| {
                    if neighbors {
                        format!(
                            "{{\"op\":\"neighbors\",\"iri\":\"{}\",\"limit\":10}}",
                            pool[rank]
                        )
                    } else {
                        format!("{{\"op\":\"sameas\",\"iri\":\"{}\"}}", pool[rank])
                    }
                })
                .collect();
            let body = format!("{{\"queries\":[{}]}}", queries.join(","));
            plan(
                Request::post(format!("/v1/pairs/{PAIR}/query"), body.into_bytes()),
                Route::Query,
                None,
            )
        }
        Op::Unknown(neighbors, n) => {
            let iri = http::encode(&format!("http://unknown.test/u{n}"));
            let (path, route) = if neighbors {
                (
                    format!("/v1/pairs/{PAIR}/neighbors?iri={iri}"),
                    Route::Neighbors,
                )
            } else {
                (format!("/v1/pairs/{PAIR}/sameas?iri={iri}"), Route::Sameas)
            };
            Plan {
                statuses: &[404],
                ..plan(Request::get(path), route, None)
            }
        }
    }
}

/// How the reader of a workload runs.
pub struct Load {
    /// The pair does not change while the reader runs: sameas answers
    /// must name the matches recorded at set-up, and revalidations must
    /// answer 304.
    pub frozen: bool,
    /// The reader busy-polls its socket (see [`http::Conn::open`]).
    pub spin: bool,
    pub deadline: Instant,
    /// Until then, each request is also recorded as a span.
    pub trace_until: Option<Instant>,
}

/// The closed-loop client: sends the seeded mix until `stop` or the
/// load's deadline. On its keep-alive connection it caches validators as
/// `ParisClient` does: the `ETag` of every `GET` path answered 200, sent
/// back as `If-None-Match` whenever it asks for that path again, with
/// the cache cleared when it holds [`mix::CACHE_ENTRIES`]. One-shot
/// requests stand for cold clients and carry no validator.
fn read_loop(
    served: &Served,
    load: &Load,
    seed: u64,
    stop: &AtomicBool,
    tracer: &mut Tracer,
) -> Reader {
    let Load {
        frozen,
        spin,
        deadline,
        trace_until,
    } = *load;
    let addr = served.server.addr;
    let mut rng = Rng::new(seed, 100);
    let zipf = Zipf::new(served.pool.len());
    let mut out = Reader::default();
    let mut conn: Option<Conn> = None;
    let mut cache: HashMap<String, String> = HashMap::new();
    loop {
        let now = Instant::now();
        if stop.load(Ordering::Relaxed) || now >= deadline {
            break;
        }
        let traced = trace_until.is_some_and(|t| now < t);
        let planned = mix::next(&mut rng, &zipf, &served.explainable);
        let mut plan = plan_request(served, planned.op);
        plan.req.close = planned.one_shot;
        if !planned.one_shot {
            plan.req.if_none_match = cache.get(&plan.req.path).cloned();
        }
        let revalidates = plan.req.if_none_match.is_some();
        if revalidates {
            plan.statuses = if frozen { &[304] } else { &[200, 304] };
        }
        out.attempted += 1;
        let t0 = Instant::now();
        let result: std::io::Result<(Response, f64)> = if planned.one_shot {
            http::one_shot(addr, &plan.req, spin).map(|(r, c)| (r, c.as_secs_f64() * 1e6))
        } else {
            let sent = match conn.as_mut() {
                Some(c) => c.send(&plan.req),
                None => Conn::open(addr, spin).and_then(|mut c| {
                    let r = c.send(&plan.req);
                    conn = Some(c);
                    r
                }),
            };
            sent.map(|r| (r, f64::NAN))
        };
        let t1 = Instant::now();
        let (response, connect_us) = match result {
            Ok(ok) => ok,
            Err(e) => {
                conn = None;
                out.fail(format!("{} {}: {e}", plan.req.method, plan.req.path));
                continue;
            }
        };
        if response.closes {
            conn = None;
        }
        let mut ok = plan.statuses.contains(&response.status);
        if let (true, true, 200, Some(rank)) = (ok, frozen, response.status, plan.target) {
            ok = sameas_target(response.text()).as_ref() == Some(&served.matches[rank]);
        }
        if !ok {
            out.fail(format!(
                "{} {}: status {} (expected {:?}) {}",
                plan.req.method,
                plan.req.path,
                response.status,
                plan.statuses,
                response.text().chars().take(200).collect::<String>()
            ));
        }
        if revalidates {
            out.revalidations += 1;
            out.not_modified += u64::from(response.status == 304);
        }
        if let (false, "GET", 200, Some(etag)) = (
            planned.one_shot,
            plan.req.method,
            response.status,
            &response.etag,
        ) {
            if cache.len() >= mix::CACHE_ENTRIES {
                cache.clear();
            }
            cache.insert(plan.req.path.clone(), etag.clone());
        }
        let app_us = response.app_us.unwrap_or(f64::NAN);
        if traced {
            let id = tracer.record("request", t0, t1, None);
            tracer.attr(id, "status", f64::from(response.status));
            tracer.attr(id, "app_us", app_us);
        }
        out.samples.push(Sample {
            latency_us: (t1 - t0).as_secs_f64() * 1e6,
            app_us,
            connect_us,
            route: plan.route,
            bytes: response.body.len(),
            ok,
            traced,
            end: t1,
        });
    }
    out
}

/// Runs the reader beside a sampler of stolen CPU time; `during` runs on
/// the calling thread, and the reader stops when it returns.
pub fn run_reader<T>(
    ctx: &Ctx,
    served: &Served,
    load: &Load,
    during: impl FnOnce() -> T,
) -> (Reader, Tracer, T, Duration, Vec<host::Window>) {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut tracer = Tracer::new(ctx.origin);
    let (reader, value, windows) = std::thread::scope(|s| {
        let sampler = s.spawn(|| host::sample(&stop, load.deadline));
        let reader = s.spawn(|| read_loop(served, load, ctx.args.seed, &stop, &mut tracer));
        let value = during();
        stop.store(true, Ordering::Relaxed);
        let reader = reader.join().expect("the reader does not panic");
        let windows = sampler.join().expect("the steal sampler does not panic");
        (reader, value, windows)
    });
    (reader, tracer, value, start.elapsed(), windows)
}

/// Folds the reader's counts into `out`.
pub fn account(out: &mut Outcome, reader: &Reader) {
    out.attempted += reader.attempted;
    out.failed += reader.failed;
    out.notes
        .extend(reader.failures.iter().map(|f| format!("FAILED: {f}")));
}

/// Latency percentile over the samples `keep` selects.
fn latency(reader: &Reader, p: f64, keep: impl Fn(&Sample) -> bool) -> f64 {
    let v: Vec<f64> = reader
        .samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.latency_us)
        .collect();
    percentile(&v, p)
}

/// Throughput and latency of the reads: medians over the sampling
/// windows with the least stolen CPU (see [`host`]).
pub struct ReadFigures {
    pub rps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Least samples for a p99: ten beyond it.
const P99_SAMPLES: usize = 1000;

pub fn read_figures(
    reader: &Reader,
    windows: &[host::Window],
    elapsed: Duration,
    notes: &mut Vec<String>,
) -> ReadFigures {
    let selected = host::Selected::new(windows);
    let mut latencies = vec![Vec::new(); selected.len()];
    let mut ok = vec![0usize; selected.len()];
    for s in &reader.samples {
        if let Some(i) = selected.window_of(s.end) {
            latencies[i].push(s.latency_us);
            ok[i] += usize::from(s.ok);
        }
    }
    let rps: Vec<f64> = (0..selected.len())
        .map(|i| ok[i] as f64 / selected.seconds(i))
        .collect();
    let p50: Vec<f64> = latencies
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| percentile(l, 50.0))
        .collect();
    // A p99 needs more requests than one window holds: pool consecutive
    // selected windows until each group has enough.
    let mut p99 = Vec::new();
    let mut group = Vec::new();
    for l in &latencies {
        group.extend_from_slice(l);
        if group.len() >= P99_SAMPLES {
            p99.push(percentile(&group, 99.0));
            group.clear();
        }
    }
    if p99.is_empty() {
        p99.push(percentile(&group, 99.0));
    }
    let figures = ReadFigures {
        rps: median(&rps),
        p50_us: median(&p50),
        p99_us: median(&p99),
    };
    let all_ok = reader.samples.iter().filter(|s| s.ok).count();
    notes.push(format!(
        "reads: medians over {} windows of {} ms ({:.0}% of the run, least stolen CPU; {} p99 groups); \
         {:.0}/s over the whole run; {:.2} ticks stolen per window; {} of {} revalidations answered 304",
        selected.len(),
        host::WINDOW.as_millis(),
        selected.share * 100.0,
        p99.len(),
        all_ok as f64 / elapsed.as_secs_f64(),
        selected.steal_per_window,
        reader.not_modified,
        reader.revalidations,
    ));
    figures
}

/// The server-side breakdown of the requests `keep` selects, under
/// `prefix` (`server` or `update`).
pub fn layer_metrics(
    m: &mut Metrics,
    prefix: &str,
    reader: &Reader,
    keep: impl Fn(&Sample) -> bool,
) {
    let samples: Vec<&Sample> = reader
        .samples
        .iter()
        .filter(|s| keep(s) && s.app_us.is_finite())
        .collect();
    let app: Vec<f64> = samples.iter().map(|s| s.app_us).collect();
    let transport: Vec<f64> = samples.iter().map(|s| s.latency_us - s.app_us).collect();
    m.add(format!("{prefix}.app_us.p50"), percentile(&app, 50.0), "us");
    m.add(format!("{prefix}.app_us.p99"), percentile(&app, 99.0), "us");
    for (route, name) in ROUTES {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.route == route)
            .map(|s| s.app_us)
            .collect();
        m.add(
            format!("{prefix}.app_us.{name}.p50"),
            percentile(&v, 50.0),
            "us",
        );
    }
    m.add(
        format!("{prefix}.transport_us.p50"),
        percentile(&transport, 50.0),
        "us",
    );
    m.add(
        format!("{prefix}.transport_us.p99"),
        percentile(&transport, 99.0),
        "us",
    );
}

// ----------------------------------------------------------------------
// serve-read
// ----------------------------------------------------------------------

/// The reads of serve-read on the frozen pair, for `window` seconds;
/// the first half traced when `traced`. Checks the server's request
/// count against the client's.
fn frozen_reads(
    ctx: &Ctx,
    served: &Served,
    window: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<(Reader, Tracer, Duration, Vec<host::Window>, u64), String> {
    let before = server_requests(served.server.addr)?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(window);
    let load = Load {
        frozen: true,
        // Nothing else needs the CPUs here, so the client polls.
        spin: true,
        deadline,
        trace_until: traced.then(|| start + Duration::from_secs_f64(window / 2.0)),
    };
    let (reader, tracer, (), elapsed, windows) = run_reader(ctx, served, &load, || {
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()))
    });
    let after = server_requests(served.server.addr)?;
    account(out, &reader);
    let sent = reader.attempted;
    // The second scrape counts itself and not the first one's answer.
    let counted = after - before - 1;
    out.op(if counted == sent {
        Ok(())
    } else {
        Err(format!(
            "server counted {counted} requests, the client sent {sent}"
        ))
    });
    Ok((reader, tracer, elapsed, windows, counted))
}

/// The untraced serve-read workload.
pub fn run_read(ctx: &Ctx) -> Result<Outcome, String> {
    let (served, setup_s) = setup(ctx, false, SETUP_RUNS)?;
    let mut out = Outcome::default();
    let (reader, _, elapsed, windows, _) =
        frozen_reads(ctx, &served, ctx.args.seconds, false, &mut out)?;
    let f = read_figures(&reader, &windows, elapsed, &mut out.notes);
    // The quality of the answers: each pool IRI's best match as served
    // (recorded at set-up, and checked against every sameas read).
    let score = served.score(&served.matches);
    let m = &mut out.metrics;
    m.add("setup_s", setup_s, "s");
    m.add("op_p50_ms", f.p50_us / 1e3, "ms");
    m.add("op_tail_ms", f.p99_us / 1e3, "ms");
    m.add("ops_per_s", f.rps, "1/s");
    m.add("peak_rss_mib", served.server.peak_rss_mib()?, "MiB");
    m.add("precision", score.precision(), "ratio");
    m.add("recall", score.recall(), "ratio");
    Ok(out)
}

/// The read part of a traced run: serve-read's reads for `window`
/// seconds, the first half traced.
pub fn traced(
    ctx: &Ctx,
    served: &Served,
    window: f64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let (reader, read_tracer, _, _, counted) = frozen_reads(ctx, served, window, true, out)?;
    let m = &mut out.metrics;
    let traced = |s: &Sample| s.traced;
    layer_metrics(m, "server", &reader, traced);
    let connect: Vec<f64> = reader
        .samples
        .iter()
        .filter(|s| s.traced && s.connect_us.is_finite())
        .map(|s| s.connect_us)
        .collect();
    m.add("server.connect_us.p50", percentile(&connect, 50.0), "us");
    m.add("server.connect_us.p99", percentile(&connect, 99.0), "us");
    m.add(
        "server.not_modified_frac",
        reader.not_modified as f64 / reader.revalidations.max(1) as f64,
        "ratio",
    );
    let bytes: Vec<f64> = reader.samples.iter().map(|s| s.bytes as f64).collect();
    m.add("server.response_bytes.mean", mean(&bytes), "B");
    m.add("server.requests", counted as f64, "count");
    m.add(
        "server.trace_overhead_us",
        latency(&reader, 50.0, |s| s.traced) - latency(&reader, 50.0, |s| !s.traced),
        "us",
    );
    tracer.absorb(read_tracer);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sameas_and_stats_answers() {
        let body =
            r#"{"data":{"pair":"pair","iri":"http://a/p6","sameas":"http://b/nm6","score":0.99}}"#;
        assert_eq!(sameas_target(body), Some(Some("http://b/nm6".to_owned())));
        let body = r#"{"data":{"pair":"pair","iri":"http://a/p0","sameas":null,"score":0}}"#;
        assert_eq!(sameas_target(body), Some(None));
        assert_eq!(sameas_target("{}"), None);
        let stats = r#"{"data":{"pair":"pair","kb1":{"name":"left","instances":9901,"facts":41911,"literals":1},"kb2":{"name":"right","facts":37335,"literals":8766}}}"#;
        assert_eq!(served_facts(stats), Some([41911, 37335]));
    }
}
