//! Randomized invariants of the full pipeline on generated knowledge-base
//! pairs. Cases are drawn from a seeded in-workspace RNG, so every run
//! checks the same deterministic batch of random worlds.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use paris_repro::kb::{EntityId, EntityKind, FxHashMap, Kb, KbBuilder, RelationId};
use paris_repro::literals::LiteralSimilarity;
use paris_repro::paris::instance::instance_pass;
use paris_repro::paris::{Aligner, CandidateView, LiteralBridge, ParisConfig, SubrelStore};
use paris_repro::rdf::Literal;

const CASES: u64 = 48;

/// A compact random-world model: entity ids, relation ids, and literal
/// values drawn from small pools whose sizes control ambiguity.
#[derive(Clone, Debug)]
struct RandomWorld {
    facts: Vec<(u8, u8, u8)>,
    literal_facts: Vec<(u8, u8, u8)>,
    types: Vec<(u8, u8)>,
}

fn random_world(rng: &mut StdRng) -> RandomWorld {
    let facts = (0..rng.random_range(0usize..60))
        .map(|_| {
            (
                rng.random_range(0u8..=255),
                rng.random_range(0u8..4),
                rng.random_range(0u8..=255),
            )
        })
        .collect();
    let literal_facts = (0..rng.random_range(0usize..60))
        .map(|_| {
            (
                rng.random_range(0u8..=255),
                rng.random_range(4u8..8),
                rng.random_range(0u8..30),
            )
        })
        .collect();
    let types = (0..rng.random_range(0usize..20))
        .map(|_| (rng.random_range(0u8..=255), rng.random_range(0u8..5)))
        .collect();
    RandomWorld {
        facts,
        literal_facts,
        types,
    }
}

/// Renders the world into one KB with a namespace — two renders of
/// overlapping worlds give an alignable pair.
fn render(world: &RandomWorld, ns: &str) -> Kb {
    builder(world, ns).build()
}

/// The builder [`render`] freezes, for cases that add facts first.
fn builder(world: &RandomWorld, ns: &str) -> KbBuilder {
    let mut b = KbBuilder::new(ns);
    for &(s, r, o) in &world.facts {
        b.add_fact(
            format!("http://{ns}/e{}", s % 40),
            format!("http://{ns}/r{r}"),
            format!("http://{ns}/e{}", o % 40),
        );
    }
    for &(s, r, v) in &world.literal_facts {
        b.add_literal_fact(
            format!("http://{ns}/e{}", s % 40),
            format!("http://{ns}/r{r}"),
            Literal::plain(format!("value-{v}")), // shared across namespaces
        );
    }
    for &(e, c) in &world.types {
        b.add_type(
            format!("http://{ns}/e{}", e % 40),
            format!("http://{ns}/C{c}"),
        );
    }
    b
}

/// Every probability the algorithm produces is in [0, 1].
#[test]
fn all_scores_are_probabilities() {
    let mut rng = StdRng::seed_from_u64(0xA11);
    for case in 0..CASES {
        let kb1 = render(&random_world(&mut rng), "left");
        let kb2 = render(&random_world(&mut rng), "right");
        let config = ParisConfig::default().with_max_iterations(3);
        let result = Aligner::new(&kb1, &kb2, config).run();

        for x in kb1.entities() {
            for &(_, p) in result.instances.candidates(x) {
                assert!((0.0..=1.0).contains(&p), "case {case}: instance prob {p}");
            }
        }
        for (_, _, p) in result.subrelations.alignments_1to2() {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&p),
                "case {case}: subrel prob {p}"
            );
        }
        for (_, _, p) in result.subrelations.alignments_2to1() {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&p),
                "case {case}: subrel prob {p}"
            );
        }
        for s in result
            .classes
            .one_to_two
            .iter()
            .chain(&result.classes.two_to_one)
        {
            assert!(
                (0.0..=1.0).contains(&s.prob),
                "case {case}: class prob {}",
                s.prob
            );
        }
    }
}

/// Functionalities are in (0, 1] for every variant.
#[test]
fn functionalities_in_unit_interval() {
    let mut rng = StdRng::seed_from_u64(0xF00);
    for case in 0..CASES {
        let kb = render(&random_world(&mut rng), "x");
        for variant in paris_repro::kb::FunctionalityVariant::ALL {
            for f in kb.functionalities_with(variant) {
                assert!(f > 0.0 && f <= 1.0, "case {case}: {variant:?}: {f}");
            }
        }
    }
}

/// Stored equivalences respect the truncation threshold.
#[test]
fn truncation_is_enforced() {
    let mut rng = StdRng::seed_from_u64(0x7A0);
    for case in 0..CASES {
        let kb1 = render(&random_world(&mut rng), "left");
        let kb2 = render(&random_world(&mut rng), "right");
        let config = ParisConfig::default()
            .with_truncation(0.3)
            .with_max_iterations(2);
        let cutoff = config
            .effective_cutoff(true)
            .min(config.effective_cutoff(false));
        let result = Aligner::new(&kb1, &kb2, config).run();
        for x in kb1.entities() {
            for &(_, p) in result.instances.candidates(x) {
                assert!(p >= cutoff, "case {case}: stored {p} below cutoff {cutoff}");
            }
        }
    }
}

/// The maximal assignment only contains entities of the right KBs and is
/// consistent with the stored candidates.
#[test]
fn maximal_assignment_is_consistent() {
    let mut rng = StdRng::seed_from_u64(0x3A3);
    for case in 0..CASES {
        let kb1 = render(&random_world(&mut rng), "left");
        let kb2 = render(&random_world(&mut rng), "right");
        let result = Aligner::new(&kb1, &kb2, ParisConfig::default().with_max_iterations(2)).run();
        let assignment = result.instances.maximal_assignment();
        assert_eq!(assignment.len(), kb1.num_entities());
        for (i, a) in assignment.iter().enumerate() {
            if let Some((e2, p)) = a {
                assert!(e2.index() < kb2.num_entities());
                let x = paris_repro::kb::EntityId::from_index(i);
                let best = result
                    .instances
                    .candidates(x)
                    .iter()
                    .map(|&(_, q)| q)
                    .fold(0.0f64, f64::max);
                assert!(
                    (best - p).abs() < 1e-12,
                    "case {case}: max {best} vs assigned {p}"
                );
            }
        }
    }
}

/// The identity alignment: a world aligned against itself (different
/// namespaces) maps shared-literal entities onto themselves — and never
/// crosses two entities with disjoint evidence.
#[test]
fn self_alignment_is_sane() {
    let mut rng = StdRng::seed_from_u64(0x5E1F);
    for case in 0..CASES {
        let w = random_world(&mut rng);
        let kb1 = render(&w, "left");
        let kb2 = render(&w, "right");
        let result = Aligner::new(&kb1, &kb2, ParisConfig::default().with_max_iterations(3)).run();
        for (x, x2, _) in result.instance_pairs() {
            let id1 = kb1.iri(x).unwrap().local_name().to_owned();
            // With identical worlds, literal evidence can never prefer a
            // different entity over the twin; ties break by id order, so a
            // mismatch is only legal if the twin has identical evidence
            // (duplicate literal profiles). Check the weaker invariant:
            // the matched pair shares at least one literal value, or is
            // reached through matched neighbours.
            let id2 = kb2.iri(x2).unwrap().local_name().to_owned();
            if id1 == id2 {
                continue;
            }
            let lits = |kb: &Kb, e| {
                kb.facts(e)
                    .iter()
                    .filter_map(|&(_, y)| kb.literal(y).map(|l| l.value().to_owned()))
                    .collect::<std::collections::BTreeSet<_>>()
            };
            let shared = lits(&kb1, x).intersection(&lits(&kb2, x2)).count();
            let has_instance_neighbor = kb1.facts(x).iter().any(|&(_, y)| kb1.literal(y).is_none());
            assert!(
                shared > 0 || has_instance_neighbor,
                "case {case}: {id1} ≠ {id2} matched without any shared evidence"
            );
        }
    }
}

/// A random world widened for the instance kernel: every one of `n`
/// entities also carries a year drawn from a tiny pool (hub literals
/// shared by dozens of statements) and a unique key shared with its twin
/// in the other KB (an inverse-functional relation, so a key match under
/// a sub-relation score of 1 gives an Eq. 13 factor of exactly 0).
fn hub_world(rng: &mut StdRng, ns: &str, n: usize) -> Kb {
    let mut b = builder(&random_world(rng), ns);
    for i in 0..n {
        let e = format!("http://{ns}/e{i}");
        let year = 1970 + rng.random_range(0u32..3);
        b.add_literal_fact(
            e.as_str(),
            format!("http://{ns}/year"),
            Literal::plain(year.to_string()),
        );
        if rng.random_range(0u32..4) != 0 {
            b.add_literal_fact(
                e.as_str(),
                format!("http://{ns}/key"),
                Literal::plain(format!("k{i}")),
            );
        }
        if rng.random_range(0u32..3) == 0 {
            let o = rng.random_range(0..n);
            b.add_fact(
                e.as_str(),
                format!("http://{ns}/link"),
                format!("http://{ns}/e{o}"),
            );
        }
    }
    b.build()
}

/// A probability that is often exactly 1 (so factors can reach 0).
fn random_prob(rng: &mut StdRng) -> f64 {
    if rng.random_range(0u32..3) == 0 {
        1.0
    } else {
        rng.random_unit()
    }
}

/// A candidate view: the literal bridge for literals, and a few random
/// KB-2 instances with random scores for instances.
fn random_view(rng: &mut StdRng, kb1: &Kb, kb2: &Kb, informed: bool) -> CandidateView {
    let (mut rows, _) = LiteralBridge::build(kb1, kb2, &LiteralSimilarity::Identity).into_rows();
    let targets: Vec<EntityId> = kb2.instances().collect();
    for x in kb1.instances() {
        let row = &mut rows[x.index()];
        for _ in 0..rng.random_range(0usize..3) {
            row.push((
                targets[rng.random_range(0..targets.len())],
                random_prob(rng),
            ));
        }
        row.sort_unstable_by_key(|&(e, _)| e);
        row.dedup_by_key(|&mut (e, _)| e);
    }
    if informed {
        CandidateView::new(rows)
    } else {
        CandidateView::uninformed(rows)
    }
}

/// A computed sub-relation store linking random relation pairs. A sharp
/// store links two pairs in three, often with score 1 (so factors reach
/// 0); a soft one links one pair in six with scores below 0.3, so
/// candidates survive Eq. 14's penalties.
fn random_subrel(rng: &mut StdRng, kb1: &Kb, kb2: &Kb, sharp: bool) -> SubrelStore {
    let (d1, d2) = (kb1.num_directed_relations(), kb2.num_directed_relations());
    let mut links = |from: usize, to: usize| -> Vec<Vec<(RelationId, f64)>> {
        (0..from)
            .map(|_| {
                let mut row = Vec::new();
                for j in 0..to {
                    let p = if sharp {
                        (rng.random_range(0u32..3) != 0).then(|| random_prob(rng))
                    } else {
                        (rng.random_range(0u32..6) == 0).then(|| 0.3 * rng.random_unit())
                    };
                    if let Some(p) = p {
                        row.push((RelationId::from_directed_index(j), p));
                    }
                }
                row
            })
            .collect()
    };
    let one = links(d1, d2);
    let two = links(d2, d1);
    SubrelStore::from_rows(one, two)
}

/// The instance pass as a per-row hash-map fold of Eq. 13 (and Eq. 14),
/// one factor evaluation per adjacency entry: the reference the dense
/// kernel must reproduce bit for bit.
fn hash_map_fold(
    kb1: &Kb,
    kb2: &Kb,
    cand: &CandidateView,
    subrel: &SubrelStore,
    config: &ParisConfig,
) -> Vec<Vec<(EntityId, f64)>> {
    let mut rows = vec![Vec::new(); kb1.num_entities()];
    for x in kb1.instances() {
        let mut acc: FxHashMap<EntityId, f64> = FxHashMap::default();
        for &(r, y) in kb1.facts(x) {
            let fun_inv_r = kb1.functionality(r.inverse());
            for &(y2, p_yy) in cand.candidates(y) {
                for &(q, z) in kb2.facts(y2) {
                    if kb2.kind(z) != EntityKind::Instance {
                        continue;
                    }
                    let r2 = q.inverse();
                    let p_r2_in_r = subrel.prob_2in1(r2, r);
                    let p_r_in_r2 = subrel.prob_1in2(r, r2);
                    if p_r2_in_r == 0.0 && p_r_in_r2 == 0.0 {
                        continue;
                    }
                    let fun_inv_r2 = kb2.functionality(r2.inverse());
                    let factor = (1.0 - p_r2_in_r * fun_inv_r * p_yy)
                        * (1.0 - p_r_in_r2 * fun_inv_r2 * p_yy);
                    if factor < 1.0 {
                        *acc.entry(z).or_insert(1.0) *= factor;
                    }
                }
            }
        }
        let cutoff = config.effective_cutoff(subrel.is_bootstrap());
        let mut row: Vec<(EntityId, f64)> = acc
            .into_iter()
            .map(|(x2, prod)| (x2, 1.0 - prod))
            .filter(|&(_, p)| p >= cutoff)
            .collect();
        if config.negative_evidence && !subrel.is_bootstrap() && cand.is_informed() {
            for (x2, p) in &mut row {
                *p *= negative_fold(kb1, kb2, x, *x2, cand, subrel);
            }
            row.retain(|&(_, p)| p >= cutoff);
        }
        row.sort_unstable_by_key(|&(e, _)| e);
        rows[x.index()] = row;
    }
    rows
}

/// Eq. 14 for one pair, looking the sub-relation links up per fact.
fn negative_fold(
    kb1: &Kb,
    kb2: &Kb,
    x: EntityId,
    x2: EntityId,
    cand: &CandidateView,
    subrel: &SubrelStore,
) -> f64 {
    let mut facts2: FxHashMap<RelationId, Vec<EntityId>> = FxHashMap::default();
    for &(q, y2) in kb2.facts(x2) {
        facts2.entry(q).or_default().push(y2);
    }
    let mut neg = 1.0;
    for &(r, y) in kb1.facts(x) {
        let fun_r = kb1.functionality(r);
        for (r2, p_r_in_r2, p_r2_in_r) in subrel.links_of_kb1(r, kb2.num_directed_relations()) {
            if p_r_in_r2 == 0.0 && p_r2_in_r == 0.0 {
                continue;
            }
            let mut inner = 1.0;
            for &y2 in facts2.get(&r2).map_or(&[][..], Vec::as_slice) {
                inner *= 1.0 - cand.prob(y, y2);
                if inner == 0.0 {
                    break;
                }
            }
            neg *= 1.0 - fun_r * p_r2_in_r * inner;
            neg *= 1.0 - kb2.functionality(r2) * p_r_in_r2 * inner;
            if neg == 0.0 {
                return 0.0;
            }
        }
    }
    neg
}

fn bits(rows: &[Vec<(EntityId, f64)>]) -> Vec<Vec<(EntityId, u64)>> {
    rows.iter()
        .map(|row| row.iter().map(|&(e, p)| (e, p.to_bits())).collect())
        .collect()
}

/// The dense-accumulator instance kernel equals the hash-map fold bit for
/// bit, at every thread count, with hub literals, exact-zero factors,
/// bootstrap and computed sub-relation scores, and negative evidence.
#[test]
fn instance_kernel_matches_hash_map_fold() {
    let mut rng = StdRng::seed_from_u64(0x1CE);
    let (mut zero_factors, mut penalized) = (0usize, 0usize);
    for case in 0..6 {
        let n = rng.random_range(130usize..260);
        let kb1 = hub_world(&mut rng, "left", n);
        let kb2 = hub_world(&mut rng, "right", n);
        let stores = [
            SubrelStore::bootstrap(
                0.1,
                kb1.num_directed_relations(),
                kb2.num_directed_relations(),
            ),
            random_subrel(&mut rng, &kb1, &kb2, true),
            random_subrel(&mut rng, &kb1, &kb2, false),
        ];
        for subrel in &stores {
            for informed in [false, true] {
                let cand = random_view(&mut rng, &kb1, &kb2, informed);
                // A tiny truncation keeps the candidates Eq. 14 weakens; a
                // large one drops most of them.
                for (negative, truncation) in [(false, 0.3), (true, 1e-9), (true, 0.3)] {
                    let base = ParisConfig::default()
                        .with_truncation(truncation)
                        .with_negative_evidence(negative);
                    let want = hash_map_fold(&kb1, &kb2, &cand, subrel, &base);
                    zero_factors += want.iter().flatten().filter(|&&(_, p)| p == 1.0).count();
                    if negative && informed && !subrel.is_bootstrap() && truncation < 0.01 {
                        penalized += want.iter().filter(|row| !row.is_empty()).count();
                    }
                    for threads in [1, 2, 4] {
                        let config = base.clone().with_threads(threads);
                        let got = instance_pass(&kb1, &kb2, &cand, subrel, &config);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "case {case}: threads {threads}, negative {negative}, \
                             truncation {truncation}, informed {informed}, bootstrap {}",
                            subrel.is_bootstrap()
                        );
                    }
                }
            }
        }
    }
    assert!(zero_factors > 0, "no case reached an exact-zero factor");
    assert!(penalized > 0, "no candidate survived negative evidence");
}
