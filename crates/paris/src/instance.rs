//! Instance-equivalence pass (paper §4.1–4.2, Eq. 13–14).
//!
//! One pass computes, for every instance `x` of KB 1, the probabilities
//! `Pr(x ≡ x′)` against candidate instances `x′` of KB 2. The generalized
//! positive-evidence formula (Eq. 13) is
//!
//! ```text
//! Pr(x≡x′) = 1 − ∏_{r(x,y), r′(x′,y′)}
//!     (1 − Pr(r′⊆r) · fun⁻¹(r)  · Pr(y≡y′))
//!   × (1 − Pr(r⊆r′) · fun⁻¹(r′) · Pr(y≡y′))
//! ```
//!
//! and the optional negative-evidence factors (Eq. 14) multiply in, for
//! every statement `r(x,y)` and relation `r′`,
//!
//! ```text
//!   (1 − fun(r)  · Pr(r′⊆r) · ∏_{y′:r′(x′,y′)} (1 − Pr(y≡y′)))
//! × (1 − fun(r′) · Pr(r⊆r′) · ∏_{y′:r′(x′,y′)} (1 − Pr(y≡y′)))
//! ```
//!
//! The pass is *neighbour-driven* (§5.2): for each statement `r(x, y)` we
//! jump to the known equivalents `y′` of `y` and from there to the
//! statements `r′(x′, y′)` — O(n·m²·e) instead of O(n²·m). Candidates `x′`
//! therefore materialize only when they share at least one (probabilistic)
//! neighbour with `x`.

use paris_kb::{EntityId, EntityKind, FxHashMap, Kb, RelationId};

use crate::config::ParisConfig;
use crate::equiv::CandidateView;
use crate::subrel::SubrelStore;

/// Computes one instance pass: a row of `(x′, Pr(x≡x′))` per KB-1 entity.
///
/// `cand` is the KB1 → KB2 candidate view of the *previous* iteration
/// (maximal assignment unless `propagate_all_equalities`), already merged
/// with the literal bridge. Scores below `config.theta` are dropped (§5.2).
pub fn instance_pass(
    kb1: &Kb,
    kb2: &Kb,
    cand: &CandidateView,
    subrel: &SubrelStore,
    config: &ParisConfig,
) -> Vec<Vec<(EntityId, f64)>> {
    let instances: Vec<EntityId> = kb1.instances().collect();
    let mut rows: Vec<Vec<(EntityId, f64)>> = vec![Vec::new(); kb1.num_entities()];
    for (x, row) in instance_pass_subset(kb1, kb2, &instances, cand, subrel, config) {
        rows[x.index()] = row;
    }
    rows
}

/// Like [`instance_pass`], but scores only the given KB-1 instances,
/// returning one `(instance, row)` pair each. This is the workhorse of
/// incremental re-alignment: after a small delta, only instances whose
/// support sets were touched need rescoring, and every other row carries
/// over from the previous fixed point unchanged.
pub fn instance_pass_subset(
    kb1: &Kb,
    kb2: &Kb,
    subset: &[EntityId],
    cand: &CandidateView,
    subrel: &SubrelStore,
    config: &ParisConfig,
) -> Vec<(EntityId, Vec<(EntityId, f64)>)> {
    // Small subsets (the common incremental case) stay sequential — OS
    // thread spawns would cost more than the scoring itself. ~64 rows per
    // thread keeps the full pass sharded exactly as before.
    let threads = config
        .effective_threads()
        .min(subset.len().div_ceil(64).max(1));
    let score_shard = |shard: &[EntityId]| {
        let mut acc = Accumulator::new(kb2.num_entities());
        shard
            .iter()
            .map(|&x| (x, score_row(kb1, kb2, x, cand, subrel, config, &mut acc)))
            .collect::<Vec<_>>()
    };
    if threads <= 1 {
        return score_shard(subset);
    }

    // Shard instances across worker threads; each entity's row is
    // independent, so results are identical to the sequential run.
    type ShardResult = Vec<(EntityId, Vec<(EntityId, f64)>)>;
    let chunk = subset.len().div_ceil(threads);
    let results: Vec<ShardResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = subset
            .chunks(chunk)
            .map(|shard| scope.spawn(|| score_shard(shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    results.into_iter().flatten().collect()
}

/// One worker's dense Eq. 13 product accumulator: a slot per KB-2 entity
/// plus the list of slots the current row touched.
///
/// Only factors `< 1.0` are multiplied in, so a slot holding exactly `1.0`
/// is untouched (`0.0` cannot serve: a factor may be exactly zero). A row
/// is read out through `touched`, which also resets its slots, so one
/// allocation serves every row of a shard. Hub neighbours (a year literal
/// shared by a thousand statements) make a row touch many candidates that
/// the cutoff then drops; a flat slot array keeps each touch to one load
/// and one store.
struct Accumulator {
    prod: Vec<f64>,
    touched: Vec<EntityId>,
}

impl Accumulator {
    fn new(n2: usize) -> Self {
        Accumulator {
            prod: vec![1.0; n2],
            touched: Vec::new(),
        }
    }

    #[inline]
    fn multiply(&mut self, z: EntityId, factor: f64) {
        let slot = &mut self.prod[z.index()];
        if *slot == 1.0 {
            self.touched.push(z);
        }
        *slot *= factor;
    }

    /// The touched candidates with `1 − ∏` at or above `cutoff`, in touch
    /// order; every slot is reset to untouched.
    fn drain(&mut self, cutoff: f64) -> Vec<(EntityId, f64)> {
        let prod = &mut self.prod;
        self.touched
            .drain(..)
            .filter_map(|z| {
                let p = 1.0 - std::mem::replace(&mut prod[z.index()], 1.0);
                (p >= cutoff).then_some((z, p))
            })
            .collect()
    }
}

/// Scores all candidates of one KB-1 instance.
fn score_row(
    kb1: &Kb,
    kb2: &Kb,
    x: EntityId,
    cand: &CandidateView,
    subrel: &SubrelStore,
    config: &ParisConfig,
    acc: &mut Accumulator,
) -> Vec<(EntityId, f64)> {
    // The big ∏ of Eq. 13, one slot per candidate x′.
    for &(r, y) in kb1.facts(x) {
        let fun_inv_r = kb1.functionality(r.inverse());
        for &(y2, p_yy) in cand.candidates(y) {
            // Statements r′(x′, y′) with y′ = y2: each adjacency entry
            // (q, z) of y2 means q(y2, z), i.e. q⁻¹(z, y2) — so r′ = q⁻¹,
            // x′ = z. The factor depends on q alone, so it is evaluated
            // once per run of equal q (adjacency is sorted by relation).
            for run in kb2.facts(y2).chunk_by(|a, b| a.0 == b.0) {
                let r2 = run[0].0.inverse();
                let p_r2_in_r = subrel.prob_2in1(r2, r);
                let p_r_in_r2 = subrel.prob_1in2(r, r2);
                if p_r2_in_r == 0.0 && p_r_in_r2 == 0.0 {
                    continue;
                }
                let fun_inv_r2 = kb2.functionality(r2.inverse());
                let factor =
                    (1.0 - p_r2_in_r * fun_inv_r * p_yy) * (1.0 - p_r_in_r2 * fun_inv_r2 * p_yy);
                if factor < 1.0 {
                    for &(_, z) in run {
                        if kb2.kind(z) == EntityKind::Instance {
                            acc.multiply(z, factor);
                        }
                    }
                }
            }
        }
    }

    let cutoff = config.effective_cutoff(subrel.is_bootstrap());
    let mut row = acc.drain(cutoff);

    // Negative evidence needs informed sub-relation links AND informed
    // neighbour probabilities. During the bootstrap iteration every
    // relation pair carries θ (penalizing every candidate for every
    // relation the other instance lacks), and one iteration later the
    // neighbour probabilities are still θ-scaled (a correctly matched
    // neighbour at Pr ≈ 2θ would read as ~80 % mismatched). Eq. 14 fires
    // only once both inputs carry computed scores.
    if config.negative_evidence && !subrel.is_bootstrap() && cand.is_informed() && !row.is_empty() {
        // The sub-relation links of each run of equal r in x's facts,
        // looked up once per row rather than once per candidate × fact.
        let links: Vec<Vec<(RelationId, f64, f64)>> = kb1
            .facts(x)
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| subrel.links_of_kb1(run[0].0, kb2.num_directed_relations()))
            .collect();
        for (x2, p) in &mut row {
            *p *= negative_factor(kb1, kb2, x, *x2, cand, &links);
        }
        row.retain(|&(_, p)| p >= cutoff);
    }

    row.sort_unstable_by_key(|&(e, _)| e);
    row
}

/// The Eq. 14 negative-evidence product for one candidate pair `(x, x′)`.
/// `links` holds [`SubrelStore::links_of_kb1`] of each run of equal
/// relations in `x`'s facts.
fn negative_factor(
    kb1: &Kb,
    kb2: &Kb,
    x: EntityId,
    x2: EntityId,
    cand: &CandidateView,
    links: &[Vec<(RelationId, f64, f64)>],
) -> f64 {
    // Group x′'s statements by directed relation: r′ → [y′].
    let mut facts2: FxHashMap<RelationId, Vec<EntityId>> = FxHashMap::default();
    for &(q, y2) in kb2.facts(x2) {
        facts2.entry(q).or_default().push(y2);
    }

    let mut neg = 1.0;
    for (run, run_links) in kb1.facts(x).chunk_by(|a, b| a.0 == b.0).zip(links) {
        let fun_r = kb1.functionality(run[0].0);
        for &(_, y) in run {
            // Pr(y ≡ ·) as a probe map for the inner products.
            let y_cands = cand.candidates(y);
            for &(r2, p_r_in_r2, p_r2_in_r) in run_links {
                if p_r_in_r2 == 0.0 && p_r2_in_r == 0.0 {
                    continue;
                }
                // ∏_{y′ : r′(x′, y′)} (1 − Pr(y ≡ y′)); empty product = 1
                // (the paper's convention when x′ lacks the relation, which
                // *keeps* the penalty factors below < 1).
                let mut inner = 1.0;
                if let Some(ys) = facts2.get(&r2) {
                    for &y2 in ys {
                        let p = y_cands
                            .iter()
                            .find(|&&(e, _)| e == y2)
                            .map_or(0.0, |&(_, p)| p);
                        inner *= 1.0 - p;
                        if inner == 0.0 {
                            break;
                        }
                    }
                }
                let fun_r2 = kb2.functionality(r2);
                neg *= 1.0 - fun_r * p_r2_in_r * inner;
                neg *= 1.0 - fun_r2 * p_r_in_r2 * inner;
                if neg == 0.0 {
                    return 0.0;
                }
            }
        }
    }
    neg
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_kb::KbBuilder;
    use paris_literals::LiteralSimilarity;
    use paris_rdf::Literal;

    use crate::literal_bridge::LiteralBridge;

    /// Two people sharing an e-mail (inverse-functional) must unify with
    /// probability fun⁻¹ × θ-bootstrapped sub-relation weight.
    fn email_kbs() -> (Kb, Kb) {
        let mut b1 = KbBuilder::new("a");
        b1.add_literal_fact(
            "http://a/alice",
            "http://a/email",
            Literal::plain("al@x.org"),
        );
        b1.add_literal_fact(
            "http://a/bob",
            "http://a/email",
            Literal::plain("bob@x.org"),
        );
        let mut b2 = KbBuilder::new("b");
        b2.add_literal_fact(
            "http://b/asmith",
            "http://b/mail",
            Literal::plain("al@x.org"),
        );
        b2.add_literal_fact(
            "http://b/bjones",
            "http://b/mail",
            Literal::plain("bob@x.org"),
        );
        (b1.build(), b2.build())
    }

    fn literal_view(kb1: &Kb, kb2: &Kb) -> CandidateView {
        let (fwd, _) = LiteralBridge::build(kb1, kb2, &LiteralSimilarity::Identity).into_rows();
        CandidateView::new(fwd)
    }

    #[test]
    fn shared_inverse_functional_value_unifies() {
        let (kb1, kb2) = email_kbs();
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let config = ParisConfig::default().with_threads(1);
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &config);

        let alice = kb1.entity_by_iri("http://a/alice").unwrap();
        let asmith = kb2.entity_by_iri("http://b/asmith").unwrap();
        let row = &rows[alice.index()];
        assert_eq!(row.len(), 1, "only one candidate: {row:?}");
        assert_eq!(row[0].0, asmith);
        // Eq. 13 with one shared value: p = 1 − (1 − θ·fun⁻¹(email)·1)²
        // fun⁻¹ = 1 on both sides → 1 − 0.9² = 0.19.
        assert!((row[0].1 - 0.19).abs() < 1e-12, "{}", row[0].1);
        // Bob maps to bjones, not to asmith.
        let bob = kb1.entity_by_iri("http://a/bob").unwrap();
        let bjones = kb2.entity_by_iri("http://b/bjones").unwrap();
        assert_eq!(rows[bob.index()][0].0, bjones);
    }

    #[test]
    fn computed_subrel_sharpens_scores() {
        let (kb1, kb2) = email_kbs();
        let cand = literal_view(&kb1, &kb2);
        let email = kb1.relation_by_iri("http://a/email").unwrap();
        let mail = kb2.relation_by_iri("http://b/mail").unwrap();
        let mut one = vec![Vec::new(); kb1.num_directed_relations()];
        let mut two = vec![Vec::new(); kb2.num_directed_relations()];
        one[email.directed_index()].push((mail, 1.0));
        two[mail.directed_index()].push((email, 1.0));
        let subrel = SubrelStore::from_rows(one, two);
        let config = ParisConfig::default().with_threads(1);
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &config);
        let alice = kb1.entity_by_iri("http://a/alice").unwrap();
        // 1 − (1 − 1·1·1)(1 − 1·1·1) = 1
        assert_eq!(rows[alice.index()][0].1, 1.0);
    }

    #[test]
    fn low_inverse_functionality_gives_weak_evidence() {
        // Everyone lives in the same city: livesIn⁻¹ has functionality 1/n,
        // so sharing the city is weak evidence.
        let mut b1 = KbBuilder::new("a");
        let mut b2 = KbBuilder::new("b");
        for i in 0..10 {
            b1.add_literal_fact(
                format!("http://a/p{i}"),
                "http://a/city",
                Literal::plain("Springfield"),
            );
            b2.add_literal_fact(
                format!("http://b/q{i}"),
                "http://b/town",
                Literal::plain("Springfield"),
            );
        }
        let kb1 = b1.build();
        let kb2 = b2.build();
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let config = ParisConfig::default().with_threads(1);
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &config);
        let p0 = kb1.entity_by_iri("http://a/p0").unwrap();
        // score = 1 − (1 − 0.1·0.1·1)² ≈ 0.0199 < θ → dropped entirely
        assert!(rows[p0.index()].is_empty(), "{:?}", rows[p0.index()]);
    }

    #[test]
    fn truncation_drops_weak_scores() {
        let (kb1, kb2) = email_kbs();
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        // Bootstrap cutoff is 2·θ·truncation = 0.192 > the 0.19 score.
        let config = ParisConfig::default().with_truncation(0.96).with_threads(1);
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &config);
        assert!(rows.iter().all(Vec::is_empty));
    }

    #[test]
    fn bootstrap_cutoff_scales_with_theta() {
        // A tiny θ scales first-iteration scores down; the cutoff must
        // follow or nothing would ever survive the first iteration.
        let (kb1, kb2) = email_kbs();
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.001,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let config = ParisConfig::default().with_theta(0.001).with_threads(1);
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &config);
        let alice = kb1.entity_by_iri("http://a/alice").unwrap();
        assert_eq!(rows[alice.index()].len(), 1, "tiny-θ evidence must survive");
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut b1 = KbBuilder::new("a");
        let mut b2 = KbBuilder::new("b");
        for i in 0..40 {
            b1.add_literal_fact(
                format!("http://a/p{i}"),
                "http://a/ssn",
                Literal::plain(format!("S{i}")),
            );
            b1.add_fact(
                format!("http://a/p{i}"),
                "http://a/friend",
                format!("http://a/p{}", (i + 1) % 40),
            );
            b2.add_literal_fact(
                format!("http://b/q{i}"),
                "http://b/id",
                Literal::plain(format!("S{i}")),
            );
            b2.add_fact(
                format!("http://b/q{i}"),
                "http://b/knows",
                format!("http://b/q{}", (i + 1) % 40),
            );
        }
        let kb1 = b1.build();
        let kb2 = b2.build();
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let seq = instance_pass(
            &kb1,
            &kb2,
            &cand,
            &subrel,
            &ParisConfig::default().with_threads(1),
        );
        let par = instance_pass(
            &kb1,
            &kb2,
            &cand,
            &subrel,
            &ParisConfig::default().with_threads(4),
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn negative_evidence_penalizes_mismatched_functional_values() {
        // Same name (shared literal) but different birth dates (functional).
        let mut b1 = KbBuilder::new("a");
        b1.add_literal_fact("http://a/p", "http://a/name", Literal::plain("John Smith"));
        b1.add_literal_fact("http://a/p", "http://a/born", Literal::plain("1950"));
        let mut b2 = KbBuilder::new("b");
        b2.add_literal_fact("http://b/q", "http://b/name", Literal::plain("John Smith"));
        b2.add_literal_fact("http://b/q", "http://b/born", Literal::plain("1971"));
        let kb1 = b1.build();
        let kb2 = b2.build();
        let cand = literal_view(&kb1, &kb2);
        // Computed (non-bootstrap) sub-relation store linking the
        // corresponding relations — Eq. 14 only applies then.
        let name1 = kb1.relation_by_iri("http://a/name").unwrap();
        let born1 = kb1.relation_by_iri("http://a/born").unwrap();
        let name2 = kb2.relation_by_iri("http://b/name").unwrap();
        let born2 = kb2.relation_by_iri("http://b/born").unwrap();
        let mut one = vec![Vec::new(); kb1.num_directed_relations()];
        let mut two = vec![Vec::new(); kb2.num_directed_relations()];
        one[name1.directed_index()].push((name2, 1.0));
        one[born1.directed_index()].push((born2, 1.0));
        two[name2.directed_index()].push((name1, 1.0));
        two[born2.directed_index()].push((born1, 1.0));
        let subrel = SubrelStore::from_rows(one, two);

        let pos_cfg = ParisConfig::default().with_threads(1).with_truncation(0.01);
        let neg_cfg = pos_cfg.clone().with_negative_evidence(true);
        let pos = instance_pass(&kb1, &kb2, &cand, &subrel, &pos_cfg);
        let neg = instance_pass(&kb1, &kb2, &cand, &subrel, &neg_cfg);

        let p = kb1.entity_by_iri("http://a/p").unwrap();
        let p_pos = pos[p.index()].first().map_or(0.0, |&(_, p)| p);
        let p_neg = neg[p.index()].first().map_or(0.0, |&(_, p)| p);
        assert!(p_pos > 0.0);
        assert!(
            p_neg < p_pos,
            "negative evidence must reduce the score: {p_neg} vs {p_pos}"
        );
    }

    #[test]
    fn negative_evidence_is_inert_during_bootstrap() {
        let (kb1, kb2) = email_kbs();
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let pos = instance_pass(
            &kb1,
            &kb2,
            &cand,
            &subrel,
            &ParisConfig::default().with_threads(1),
        );
        let neg = instance_pass(
            &kb1,
            &kb2,
            &cand,
            &subrel,
            &ParisConfig::default()
                .with_negative_evidence(true)
                .with_threads(1),
        );
        assert_eq!(pos, neg, "Eq. 14 must not fire on θ-bootstrapped links");
    }

    #[test]
    fn empty_candidate_view_scores_nothing() {
        let (kb1, kb2) = email_kbs();
        let cand = CandidateView::empty(kb1.num_entities());
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &ParisConfig::default());
        assert!(rows.iter().all(Vec::is_empty));
    }

    #[test]
    fn independent_evidence_accumulates() {
        // Two shared inverse-functional values beat one (Eq. 13's product
        // of independent factors).
        let mut b1 = KbBuilder::new("a");
        b1.add_literal_fact("http://a/one", "http://a/ssn", Literal::plain("S1"));
        b1.add_literal_fact("http://a/two", "http://a/ssn", Literal::plain("S2"));
        b1.add_literal_fact("http://a/two", "http://a/tax", Literal::plain("T2"));
        let mut b2 = KbBuilder::new("b");
        b2.add_literal_fact("http://b/one", "http://b/id", Literal::plain("S1"));
        b2.add_literal_fact("http://b/two", "http://b/id", Literal::plain("S2"));
        b2.add_literal_fact("http://b/two", "http://b/fiscal", Literal::plain("T2"));
        let (kb1, kb2) = (b1.build(), b2.build());
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let rows = instance_pass(
            &kb1,
            &kb2,
            &cand,
            &subrel,
            &ParisConfig::default().with_threads(1),
        );
        let p1 = rows[kb1.entity_by_iri("http://a/one").unwrap().index()][0].1;
        let p2 = rows[kb1.entity_by_iri("http://a/two").unwrap().index()][0].1;
        assert!(p2 > p1, "two shared values ({p2}) must beat one ({p1})");
    }

    #[test]
    fn scores_are_probabilities() {
        let (kb1, kb2) = email_kbs();
        let cand = literal_view(&kb1, &kb2);
        let subrel = SubrelStore::bootstrap(
            0.1,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let rows = instance_pass(&kb1, &kb2, &cand, &subrel, &ParisConfig::default());
        for row in &rows {
            for &(_, p) in row {
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }
}
