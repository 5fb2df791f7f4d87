//! The seeded request mix the serving workloads send.
//!
//! Every client draws its operations from its own [`Rng`] stream, so one
//! seed always yields the same request sequence; how far into it a run
//! gets depends only on how fast the server answers.

/// SplitMix64: small, fast, and good enough to draw workloads from.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(1) ranks over `0..n`: rank 0 is the hottest key.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for i in 0..n {
            sum += 1.0 / (i + 1) as f64;
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Lookups in one `POST …/query` batch: the batch size of the
/// repository's `query_batch` acceptance bench.
pub const BATCH_SIZE: usize = 64;

/// Validators a client keeps before it clears its cache: `ParisClient`'s
/// `MAX_CACHE_ENTRIES`, and like it the client clears the cache when it
/// is full.
pub const CACHE_ENTRIES: usize = 1024;

/// Share of requests sent one-shot: `serve_throughput` measures one
/// one-shot request per ten keep-alive ones.
pub const ONE_SHOT_SHARE: f64 = 1.0 / 11.0;

/// Shares of the operations. Nothing in the repository records real
/// traffic, so these are assumptions: sameas, the paper's output, is
/// most of it; neighbors and explain inspect a few of the answers; the
/// 64-lookup batches are rare but each carries many lookups; a few
/// lookups miss. The rest of the draws are unknown IRIs.
pub const SAMEAS_SHARE: f64 = 0.66;
pub const NEIGHBORS_SHARE: f64 = 0.18;
pub const EXPLAIN_SHARE: f64 = 0.10;
pub const BATCH_SHARE: f64 = 0.02;

/// Hubs (see [`rank`]) take seeded ranks at or beyond this one, where a
/// Zipf(1) rank draws at most ~0.1% of the lookups.
pub const HUB_MIN_RANK: usize = 100;

/// One operation of the mix. Ranks index the seeded, Zipf-ranked IRI
/// pool of the left KB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `GET …/sameas?iri=` of a known IRI: 200.
    Sameas(usize),
    /// `GET …/neighbors?iri=&limit=10`: 200.
    Neighbors(usize),
    /// `GET …/explain?left=&right=` of an IRI and its recorded best match: 200.
    Explain(usize),
    /// `POST …/query` with [`BATCH_SIZE`] mixed sameas/neighbors lookups: 200.
    Batch(Vec<(bool, usize)>),
    /// A sameas (`false`) or neighbors (`true`) lookup of an IRI no KB
    /// holds: 404.
    Unknown(bool, u64),
}

/// One planned request: the operation and whether it is sent on a fresh
/// `Connection: close` connection (a cold client) instead of the
/// client's keep-alive one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Planned {
    pub op: Op,
    pub one_shot: bool,
}

/// Draws the next request. `explainable` maps a Zipf draw onto a rank
/// that has a best match (explain needs one).
pub fn next(rng: &mut Rng, zipf: &Zipf, explainable: &[usize]) -> Planned {
    let one_shot = rng.next_f64() < ONE_SHOT_SHARE;
    let mut u = rng.next_f64();
    let mut take = |share: f64| {
        u -= share;
        u < 0.0
    };
    let op = if take(SAMEAS_SHARE) {
        Op::Sameas(zipf.sample(rng))
    } else if take(NEIGHBORS_SHARE) {
        Op::Neighbors(zipf.sample(rng))
    } else if take(EXPLAIN_SHARE) && !explainable.is_empty() {
        Op::Explain(explainable[zipf.sample(rng) % explainable.len()])
    } else if take(BATCH_SHARE) {
        Op::Batch(
            (0..BATCH_SIZE)
                .map(|_| (rng.next_f64() < 0.5, zipf.sample(rng)))
                .collect(),
        )
    } else {
        Op::Unknown(rng.next_f64() < 0.5, rng.next_u64() % 1_000_000)
    };
    Planned { op, one_shot }
}

/// The request pool in Zipf-rank order: `ordinary` instances shuffled,
/// with the `hubs` (instances many facts point at, whose neighbors and
/// explain answers are the heaviest) at seeded ranks from
/// [`HUB_MIN_RANK`] on. So hub lookups are exercised on every seed, and
/// no single hub is hot enough to make one seed's mix heavier than
/// another's.
pub fn rank(mut ordinary: Vec<String>, mut hubs: Vec<String>, rng: &mut Rng) -> Vec<String> {
    rng.shuffle(&mut ordinary);
    rng.shuffle(&mut hubs);
    let head = HUB_MIN_RANK.min(ordinary.len());
    let mut tail: Vec<(usize, String)> = ordinary
        .drain(head..)
        .enumerate()
        .map(|(i, iri)| (2 * i + 1, iri))
        .collect();
    let slots = tail.len() + 1;
    // Each hub goes just before a seeded ordinary instance of the tail.
    tail.extend(hubs.into_iter().map(|hub| (2 * rng.below(slots), hub)));
    tail.sort_by_key(|&(key, _)| key);
    ordinary.extend(tail.into_iter().map(|(_, iri)| iri));
    ordinary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, stream: u64, n: usize) -> Vec<Planned> {
        let mut rng = Rng::new(seed, stream);
        let zipf = Zipf::new(1000);
        let explainable: Vec<usize> = (0..1000).step_by(3).collect();
        (0..n)
            .map(|_| next(&mut rng, &zipf, &explainable))
            .collect()
    }

    #[test]
    fn the_mix_is_a_function_of_the_seed() {
        assert_eq!(plan(7, 0, 5000), plan(7, 0, 5000));
        assert_ne!(plan(7, 0, 5000), plan(8, 0, 5000));
        assert_ne!(plan(7, 0, 5000), plan(7, 1, 5000));
    }

    #[test]
    fn the_mix_holds_every_kind_of_request() {
        let ops = plan(3, 0, 20_000);
        let share = |f: &dyn Fn(&Planned) -> bool| {
            ops.iter().filter(|p| f(p)).count() as f64 / ops.len() as f64
        };
        let near = |got: f64, want: f64| (got - want).abs() < 0.01;
        assert!(near(share(&|p| p.one_shot), ONE_SHOT_SHARE));
        assert!(near(
            share(&|p| matches!(p.op, Op::Sameas(_))),
            SAMEAS_SHARE
        ));
        assert!(near(
            share(&|p| matches!(p.op, Op::Neighbors(_))),
            NEIGHBORS_SHARE
        ));
        assert!(near(
            share(&|p| matches!(p.op, Op::Explain(_))),
            EXPLAIN_SHARE
        ));
        assert!(near(share(&|p| matches!(p.op, Op::Batch(_))), BATCH_SHARE));
        assert!(share(&|p| matches!(p.op, Op::Unknown(..))) > 0.02);
    }

    #[test]
    fn zipf_ranks_are_skewed_toward_the_head() {
        let zipf = Zipf::new(1000);
        let mut rng = Rng::new(1, 0);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 1000));
        let head = draws.iter().filter(|&&r| r < 10).count();
        assert!(head > 3000, "{head} of 10000 draws in the top 10 ranks");
    }

    #[test]
    fn hubs_are_ranked_past_the_head_by_seed() {
        let ordinary: Vec<String> = (0..1000).map(|i| format!("o{i}")).collect();
        let hubs: Vec<String> = (0..30).map(|i| format!("h{i}")).collect();
        let pool = |seed| rank(ordinary.clone(), hubs.clone(), &mut Rng::new(seed, 1));
        let a = pool(1);
        assert_eq!(a.len(), 1030);
        assert_eq!(a, pool(1));
        assert_ne!(a, pool(2));
        let ranks: Vec<usize> = (0..a.len()).filter(|&r| a[r].starts_with('h')).collect();
        assert_eq!(ranks.len(), 30);
        assert!(ranks[0] >= HUB_MIN_RANK, "{ranks:?}");
        // Spread over the tail, not bunched at its start.
        assert!(ranks[29] > 600, "{ranks:?}");
        let mut all = a.clone();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 1030);
    }
}
