//! Sub-relation alignment: `Pr(r ⊆ r′)` (paper §4.2, Eq. 8–12).
//!
//! For a relation `r` of one KB and `r′` of the other, the score is the
//! expected fraction of `r`'s pairs that — under the current instance
//! equivalences — are also pairs of `r′`, normalized by the expected
//! fraction of `r`'s pairs that have *any* counterpart (Eq. 12):
//!
//! ```text
//!             Σ_{r(x,y)} [ 1 − ∏_{r′(x′,y′)} (1 − P(x≡x′)·P(y≡y′)) ]
//! Pr(r⊆r′) = ─────────────────────────────────────────────────────────
//!             Σ_{r(x,y)} [ 1 − ∏_{x′,y′}    (1 − P(x≡x′)·P(y≡y′)) ]
//! ```
//!
//! In the very first iteration the scores are bootstrapped to θ for every
//! relation pair (§5.1); afterwards the computed values replace θ entirely.
//! Directed relations are aligned, so `r ⊆ r′⁻¹` (e.g. the paper's
//! `y:actedIn ⊆ dbp:starring⁻¹`) falls out without special handling.

use paris_kb::{FxHashMap, Kb, RelationId};

use crate::config::ParisConfig;
use crate::equiv::CandidateView;

/// Sparse `Pr(r ⊆ r′)` scores in both KB directions.
#[derive(Clone, Debug)]
pub struct SubrelStore {
    /// `Some(θ)` while bootstrapping (before the first sub-relation pass).
    bootstrap: Option<f64>,
    /// Row per KB-1 directed relation: `(KB-2 directed relation, Pr(r⊆r′))`,
    /// sorted by relation id.
    one_to_two: Vec<Vec<(RelationId, f64)>>,
    /// Row per KB-2 directed relation: `(KB-1 directed relation, Pr(r′⊆r))`.
    two_to_one: Vec<Vec<(RelationId, f64)>>,
}

impl SubrelStore {
    /// The bootstrap store: every cross-ontology relation pair gets θ.
    pub fn bootstrap(theta: f64, directed1: usize, directed2: usize) -> Self {
        SubrelStore {
            bootstrap: Some(theta),
            one_to_two: vec![Vec::new(); directed1],
            two_to_one: vec![Vec::new(); directed2],
        }
    }

    /// A computed store from per-direction rows.
    pub fn from_rows(
        mut one_to_two: Vec<Vec<(RelationId, f64)>>,
        mut two_to_one: Vec<Vec<(RelationId, f64)>>,
    ) -> Self {
        for row in one_to_two.iter_mut().chain(two_to_one.iter_mut()) {
            row.sort_unstable_by_key(|&(r, _)| r);
        }
        SubrelStore {
            bootstrap: None,
            one_to_two,
            two_to_one,
        }
    }

    /// True while scores are still the θ bootstrap.
    pub fn is_bootstrap(&self) -> bool {
        self.bootstrap.is_some()
    }

    /// `Pr(r ⊆ r′)` for `r` in KB 1, `r′` in KB 2.
    #[inline]
    pub fn prob_1in2(&self, r1: RelationId, r2: RelationId) -> f64 {
        match self.bootstrap {
            Some(theta) => theta,
            None => lookup(&self.one_to_two[r1.directed_index()], r2),
        }
    }

    /// `Pr(r′ ⊆ r)` for `r′` in KB 2, `r` in KB 1.
    #[inline]
    pub fn prob_2in1(&self, r2: RelationId, r1: RelationId) -> f64 {
        match self.bootstrap {
            Some(theta) => theta,
            None => lookup(&self.two_to_one[r2.directed_index()], r1),
        }
    }

    /// All computed KB1 → KB2 scores `(r, r′, Pr(r⊆r′))`. Empty while
    /// bootstrapping.
    pub fn alignments_1to2(&self) -> impl Iterator<Item = (RelationId, RelationId, f64)> + '_ {
        self.one_to_two.iter().enumerate().flat_map(|(i, row)| {
            row.iter()
                .map(move |&(r2, p)| (RelationId::from_directed_index(i), r2, p))
        })
    }

    /// All computed KB2 → KB1 scores `(r′, r, Pr(r′⊆r))`.
    pub fn alignments_2to1(&self) -> impl Iterator<Item = (RelationId, RelationId, f64)> + '_ {
        self.two_to_one.iter().enumerate().flat_map(|(i, row)| {
            row.iter()
                .map(move |&(r1, p)| (RelationId::from_directed_index(i), r1, p))
        })
    }

    /// For one KB-1 directed relation, every linked KB-2 relation together
    /// with both directional scores:
    /// `(r′, Pr(r⊆r′), Pr(r′⊆r))`. During bootstrap this is every KB-2
    /// relation with `(θ, θ)` — callers should prefer fact-driven iteration
    /// then.
    pub fn links_of_kb1(&self, r1: RelationId, directed2: usize) -> Vec<(RelationId, f64, f64)> {
        if let Some(theta) = self.bootstrap {
            return (0..directed2)
                .map(|i| (RelationId::from_directed_index(i), theta, theta))
                .collect();
        }
        let mut merged: FxHashMap<RelationId, (f64, f64)> = FxHashMap::default();
        for &(r2, p) in &self.one_to_two[r1.directed_index()] {
            merged.entry(r2).or_insert((0.0, 0.0)).0 = p;
        }
        for (i, row) in self.two_to_one.iter().enumerate() {
            if let Ok(pos) = row.binary_search_by_key(&r1, |&(r, _)| r) {
                merged
                    .entry(RelationId::from_directed_index(i))
                    .or_insert((0.0, 0.0))
                    .1 = row[pos].1;
            }
        }
        let mut out: Vec<(RelationId, f64, f64)> =
            merged.into_iter().map(|(r2, (a, b))| (r2, a, b)).collect();
        out.sort_unstable_by_key(|&(r2, _, _)| r2);
        out
    }

    /// Number of stored score entries across both directions.
    pub fn num_entries(&self) -> usize {
        self.one_to_two.iter().map(Vec::len).sum::<usize>()
            + self.two_to_one.iter().map(Vec::len).sum::<usize>()
    }

    /// A copy of this store sized for more directed relations on either
    /// side (new relations start with no scores). Warm-starts incremental
    /// re-alignment after a delta introduced relations.
    pub fn expanded(&self, directed1: usize, directed2: usize) -> SubrelStore {
        assert!(
            directed1 >= self.one_to_two.len() && directed2 >= self.two_to_one.len(),
            "expanded() cannot shrink a store ({}×{} → {directed1}×{directed2})",
            self.one_to_two.len(),
            self.two_to_one.len(),
        );
        let mut one_to_two = self.one_to_two.clone();
        one_to_two.resize(directed1, Vec::new());
        let mut two_to_one = self.two_to_one.clone();
        two_to_one.resize(directed2, Vec::new());
        SubrelStore {
            bootstrap: self.bootstrap,
            one_to_two,
            two_to_one,
        }
    }

    /// The stored KB1 → KB2 score row of one directed relation (empty
    /// while bootstrapping).
    pub fn row_1to2(&self, r1: RelationId) -> &[(RelationId, f64)] {
        &self.one_to_two[r1.directed_index()]
    }

    /// The stored KB2 → KB1 score row of one directed relation.
    pub fn row_2to1(&self, r2: RelationId) -> &[(RelationId, f64)] {
        &self.two_to_one[r2.directed_index()]
    }

    /// Replaces the KB1 → KB2 score row of one directed relation (the row
    /// is sorted by target id). Used by the incremental re-aligner to
    /// refresh only dirty relations.
    pub fn set_row_1to2(&mut self, r1: RelationId, mut row: Vec<(RelationId, f64)>) {
        row.sort_unstable_by_key(|&(r, _)| r);
        self.one_to_two[r1.directed_index()] = row;
    }

    /// Replaces the KB2 → KB1 score row of one directed relation.
    pub fn set_row_2to1(&mut self, r2: RelationId, mut row: Vec<(RelationId, f64)>) {
        row.sort_unstable_by_key(|&(r, _)| r);
        self.two_to_one[r2.directed_index()] = row;
    }
}

#[inline]
fn lookup(row: &[(RelationId, f64)], r: RelationId) -> f64 {
    match row.binary_search_by_key(&r, |&(q, _)| q) {
        Ok(i) => row[i].1,
        Err(_) => 0.0,
    }
}

/// One direction of the sub-relation pass: scores `Pr(r ⊆ r′)` for every
/// directed relation `r` of `src` against relations `r′` of `dst`.
///
/// `cand` maps `src` entities to their `dst` candidates (previous maximal
/// assignment merged with the literal bridge). Implements the neighbour-
/// driven optimization of §5.2 with the `max_pairs` cap.
pub fn subrelation_pass(
    src: &Kb,
    dst: &Kb,
    cand: &CandidateView,
    config: &ParisConfig,
) -> Vec<Vec<(RelationId, f64)>> {
    let mut rows: Vec<Vec<(RelationId, f64)>> = vec![Vec::new(); src.num_directed_relations()];
    for (r, row) in score_relations(src, dst, cand, config, src.directed_relations()) {
        rows[r.directed_index()] = row;
    }
    rows
}

/// Reusable accumulators for [`score_relations`], so a pass over many
/// relations does not reallocate per relation.
#[derive(Default)]
struct RelationScratch {
    numerators: FxHashMap<RelationId, f64>,
    per_pair: FxHashMap<RelationId, f64>,
    y_probs: FxHashMap<paris_kb::EntityId, f64>,
}

/// Scores the given directed relations `r` of `src` against every relation
/// of `dst` — the Eq. 12 rows [`subrelation_pass`] computes for each
/// relation. Exposed separately for the incremental re-aligner, which
/// refreshes only relations whose support sets were touched.
pub fn score_relations(
    src: &Kb,
    dst: &Kb,
    cand: &CandidateView,
    config: &ParisConfig,
    relations: impl IntoIterator<Item = RelationId>,
) -> Vec<(RelationId, Vec<(RelationId, f64)>)> {
    let mut scratch = RelationScratch::default();
    relations
        .into_iter()
        .map(|r| {
            (
                r,
                score_relation_with(src, dst, cand, config, r, &mut scratch),
            )
        })
        .collect()
}

fn score_relation_with(
    src: &Kb,
    dst: &Kb,
    cand: &CandidateView,
    config: &ParisConfig,
    r: RelationId,
    scratch: &mut RelationScratch,
) -> Vec<(RelationId, f64)> {
    let RelationScratch {
        numerators,
        per_pair,
        y_probs,
    } = scratch;
    numerators.clear();
    let mut denominator = 0.0;
    for (x, y) in src.pairs(r).take(config.max_pairs) {
        let x_cands = cand.candidates(x);
        if x_cands.is_empty() {
            continue;
        }
        let y_cands = cand.candidates(y);
        if y_cands.is_empty() {
            continue;
        }

        // Denominator term: 1 − ∏_{x′,y′} (1 − P(x≡x′)·P(y≡y′)).
        let mut dprod = 1.0;
        for &(_, px) in x_cands {
            for &(_, py) in y_cands {
                dprod *= 1.0 - px * py;
            }
        }
        denominator += 1.0 - dprod;

        // Numerator terms, fact-driven: statements r′(x′, y′) with
        // x′ ≈ x come from the adjacency of each x-candidate.
        y_probs.clear();
        y_probs.extend(y_cands.iter().copied());
        per_pair.clear();
        for &(x2, px) in x_cands {
            for &(r2, z) in dst.facts(x2) {
                if let Some(&py) = y_probs.get(&z) {
                    *per_pair.entry(r2).or_insert(1.0) *= 1.0 - px * py;
                }
            }
        }
        for (&r2, &prod) in &*per_pair {
            *numerators.entry(r2).or_insert(0.0) += 1.0 - prod;
        }
    }
    let mut row = Vec::new();
    if denominator > 0.0 {
        for (&r2, &num) in &*numerators {
            let p = num / denominator;
            if p > 0.0 {
                // Clamp defensively against float drift; mathematically
                // num ≤ denominator (the numerator's factor set is a
                // subset of the denominator's).
                row.push((r2, p.min(1.0)));
            }
        }
        row.sort_unstable_by_key(|&(q, _)| q);
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_kb::KbBuilder;

    fn rel(i: usize) -> RelationId {
        RelationId::forward(i)
    }

    #[test]
    fn bootstrap_returns_theta_everywhere() {
        let s = SubrelStore::bootstrap(0.1, 4, 6);
        assert!(s.is_bootstrap());
        assert_eq!(s.prob_1in2(rel(0), rel(2)), 0.1);
        assert_eq!(s.prob_2in1(rel(2), rel(1).inverse()), 0.1);
        assert_eq!(s.num_entries(), 0);
        assert_eq!(s.links_of_kb1(rel(0), 6).len(), 6);
    }

    #[test]
    fn computed_store_lookup() {
        let s = SubrelStore::from_rows(
            vec![vec![(rel(1), 0.8)], vec![]],
            vec![vec![], vec![], vec![(rel(0), 0.5)]],
        );
        assert!(!s.is_bootstrap());
        assert_eq!(s.prob_1in2(rel(0), rel(1)), 0.8);
        assert_eq!(s.prob_1in2(rel(0), rel(0)), 0.0);
        assert_eq!(s.prob_2in1(rel(1), rel(0)), 0.5);
        assert_eq!(s.num_entries(), 2);
    }

    #[test]
    fn links_merge_both_directions() {
        let s = SubrelStore::from_rows(
            vec![vec![(rel(1), 0.8)], vec![]],
            vec![vec![], vec![], vec![(rel(0), 0.5)]],
        );
        let links = s.links_of_kb1(rel(0), 4);
        assert_eq!(links, vec![(rel(1), 0.8, 0.5)]);
    }

    /// Two KBs over the same 3 people; the aligned relation should score 1.
    #[test]
    fn identical_relations_score_one() {
        let mut b1 = KbBuilder::new("a");
        let mut b2 = KbBuilder::new("b");
        for i in 0..3 {
            b1.add_fact(
                format!("http://a/p{i}"),
                "http://a/born",
                format!("http://a/c{i}"),
            );
            b2.add_fact(
                format!("http://b/p{i}"),
                "http://b/birth",
                format!("http://b/c{i}"),
            );
        }
        let kb1 = b1.build();
        let kb2 = b2.build();
        // Perfect candidate view: a/pi ≡ b/pi, a/ci ≡ b/ci.
        let mut rows = vec![Vec::new(); kb1.num_entities()];
        for i in 0..3 {
            let p1 = kb1.entity_by_iri(&format!("http://a/p{i}")).unwrap();
            let p2 = kb2.entity_by_iri(&format!("http://b/p{i}")).unwrap();
            let c1 = kb1.entity_by_iri(&format!("http://a/c{i}")).unwrap();
            let c2 = kb2.entity_by_iri(&format!("http://b/c{i}")).unwrap();
            rows[p1.index()].push((p2, 1.0));
            rows[c1.index()].push((c2, 1.0));
        }
        let cand = CandidateView::new(rows);
        let out = subrelation_pass(&kb1, &kb2, &cand, &ParisConfig::default());
        let born = kb1.relation_by_iri("http://a/born").unwrap();
        let birth = kb2.relation_by_iri("http://b/birth").unwrap();
        let row = &out[born.directed_index()];
        assert_eq!(row.len(), 1);
        assert_eq!(row[0], (birth, 1.0));
        // the inverse direction aligns too
        let row_inv = &out[born.inverse().directed_index()];
        assert_eq!(row_inv[0], (birth.inverse(), 1.0));
    }

    /// An inverted relation in KB2 aligns to the inverse direction.
    #[test]
    fn inverse_relations_align() {
        let mut b1 = KbBuilder::new("a");
        let mut b2 = KbBuilder::new("b");
        for i in 0..3 {
            b1.add_fact(
                format!("http://a/p{i}"),
                "http://a/actedIn",
                format!("http://a/m{i}"),
            );
            b2.add_fact(
                format!("http://b/m{i}"),
                "http://b/starring",
                format!("http://b/p{i}"),
            );
        }
        let kb1 = b1.build();
        let kb2 = b2.build();
        let mut rows = vec![Vec::new(); kb1.num_entities()];
        for i in 0..3 {
            let p1 = kb1.entity_by_iri(&format!("http://a/p{i}")).unwrap();
            let p2 = kb2.entity_by_iri(&format!("http://b/p{i}")).unwrap();
            let m1 = kb1.entity_by_iri(&format!("http://a/m{i}")).unwrap();
            let m2 = kb2.entity_by_iri(&format!("http://b/m{i}")).unwrap();
            rows[p1.index()].push((p2, 1.0));
            rows[m1.index()].push((m2, 1.0));
        }
        let cand = CandidateView::new(rows);
        let out = subrelation_pass(&kb1, &kb2, &cand, &ParisConfig::default());
        let acted = kb1.relation_by_iri("http://a/actedIn").unwrap();
        let starring = kb2.relation_by_iri("http://b/starring").unwrap();
        assert_eq!(out[acted.directed_index()], vec![(starring.inverse(), 1.0)]);
    }

    /// A finer-grained relation is a sub-relation of the coarser one, but
    /// not vice versa (paper Table 4: hasCapital ⊆ contains).
    #[test]
    fn fine_grained_subsumption_is_asymmetric() {
        let mut b1 = KbBuilder::new("a");
        let mut b2 = KbBuilder::new("b");
        // KB1: capitals only. KB2: all contained cities.
        for i in 0..4 {
            b1.add_fact(
                format!("http://a/state{i}"),
                "http://a/hasCapital",
                format!("http://a/city{i}0"),
            );
            for j in 0..3 {
                b2.add_fact(
                    format!("http://b/state{i}"),
                    "http://b/contains",
                    format!("http://b/city{i}{j}"),
                );
            }
        }
        let kb1 = b1.build();
        let kb2 = b2.build();
        let mut rows1 = vec![Vec::new(); kb1.num_entities()];
        for i in 0..4 {
            let s1 = kb1.entity_by_iri(&format!("http://a/state{i}")).unwrap();
            let s2 = kb2.entity_by_iri(&format!("http://b/state{i}")).unwrap();
            rows1[s1.index()].push((s2, 1.0));
            let c1 = kb1.entity_by_iri(&format!("http://a/city{i}0")).unwrap();
            let c2 = kb2.entity_by_iri(&format!("http://b/city{i}0")).unwrap();
            rows1[c1.index()].push((c2, 1.0));
        }
        let out1 = subrelation_pass(
            &kb1,
            &kb2,
            &CandidateView::new(rows1),
            &ParisConfig::default(),
        );
        let cap = kb1.relation_by_iri("http://a/hasCapital").unwrap();
        let contains = kb2.relation_by_iri("http://b/contains").unwrap();
        assert_eq!(
            out1[cap.directed_index()],
            vec![(contains, 1.0)],
            "capital ⊆ contains"
        );

        // Reverse direction: contains ⊄ hasCapital (only 1/3 of pairs match,
        // and only 1/3 of contains-pairs have counterparts at all — cities
        // i1, i2 have no KB1 equivalent, so the denominator only counts
        // matched pairs and the score stays high ... compute it directly:
        let mut rows2 = vec![Vec::new(); kb2.num_entities()];
        for i in 0..4 {
            let s2 = kb2.entity_by_iri(&format!("http://b/state{i}")).unwrap();
            let s1 = kb1.entity_by_iri(&format!("http://a/state{i}")).unwrap();
            rows2[s2.index()].push((s1, 1.0));
            let c2 = kb2.entity_by_iri(&format!("http://b/city{i}0")).unwrap();
            let c1 = kb1.entity_by_iri(&format!("http://a/city{i}0")).unwrap();
            rows2[c2.index()].push((c1, 1.0));
        }
        let out2 = subrelation_pass(
            &kb2,
            &kb1,
            &CandidateView::new(rows2),
            &ParisConfig::default(),
        );
        let row = &out2[contains.directed_index()];
        // Every contains-pair with a counterpart IS a capital pair here, so
        // Pr(contains ⊆ hasCapital) = 1 under Eq. 12's normalization; the
        // asymmetry shows up in coverage (the paper normalizes by matched
        // pairs only). What must NOT happen is a score > 1 or a missing row.
        assert_eq!(row.len(), 1);
        assert!(row[0].1 <= 1.0);
    }

    #[test]
    fn no_candidates_no_scores() {
        let mut b1 = KbBuilder::new("a");
        b1.add_fact("http://a/x", "http://a/r", "http://a/y");
        let kb1 = b1.build();
        let mut b2 = KbBuilder::new("b");
        b2.add_fact("http://b/x", "http://b/r", "http://b/y");
        let kb2 = b2.build();
        let cand = CandidateView::empty(kb1.num_entities());
        let out = subrelation_pass(&kb1, &kb2, &cand, &ParisConfig::default());
        assert!(out.iter().all(Vec::is_empty));
    }

    #[test]
    fn partial_overlap_scores_fraction() {
        // 4 pairs of r; only 2 of them appear in r'. Denominator counts all
        // 4 (all arguments have candidates), numerator 2 → 0.5.
        let mut b1 = KbBuilder::new("a");
        let mut b2 = KbBuilder::new("b");
        for i in 0..4 {
            b1.add_fact(
                format!("http://a/x{i}"),
                "http://a/r",
                format!("http://a/y{i}"),
            );
        }
        for i in 0..2 {
            b2.add_fact(
                format!("http://b/x{i}"),
                "http://b/r",
                format!("http://b/y{i}"),
            );
        }
        // all 4 subjects/objects have perfect candidates: x_i ≡ x_i′ where
        // the missing ones map to unrelated entities.
        for i in 2..4 {
            b2.add_fact(
                format!("http://b/x{i}"),
                "http://b/other",
                format!("http://b/y{i}"),
            );
        }
        let kb1 = b1.build();
        let kb2 = b2.build();
        let mut rows = vec![Vec::new(); kb1.num_entities()];
        for i in 0..4 {
            for (a, b) in [("x", "x"), ("y", "y")] {
                let e1 = kb1.entity_by_iri(&format!("http://a/{a}{i}")).unwrap();
                let e2 = kb2.entity_by_iri(&format!("http://b/{b}{i}")).unwrap();
                rows[e1.index()].push((e2, 1.0));
            }
        }
        let out = subrelation_pass(
            &kb1,
            &kb2,
            &CandidateView::new(rows),
            &ParisConfig::default(),
        );
        let r1 = kb1.relation_by_iri("http://a/r").unwrap();
        let r2 = kb2.relation_by_iri("http://b/r").unwrap();
        let other = kb2.relation_by_iri("http://b/other").unwrap();
        let row = &out[r1.directed_index()];
        let p_r = lookup(row, r2);
        let p_other = lookup(row, other);
        assert!((p_r - 0.5).abs() < 1e-12, "{p_r}");
        assert!((p_other - 0.5).abs() < 1e-12, "{p_other}");
    }

    #[test]
    fn max_pairs_cap_limits_work() {
        let mut b1 = KbBuilder::new("a");
        let mut b2 = KbBuilder::new("b");
        for i in 0..50 {
            b1.add_fact(
                format!("http://a/x{i}"),
                "http://a/r",
                format!("http://a/y{i}"),
            );
            b2.add_fact(
                format!("http://b/x{i}"),
                "http://b/r",
                format!("http://b/y{i}"),
            );
        }
        let kb1 = b1.build();
        let kb2 = b2.build();
        let mut rows = vec![Vec::new(); kb1.num_entities()];
        for i in 0..50 {
            for t in ["x", "y"] {
                let e1 = kb1.entity_by_iri(&format!("http://a/{t}{i}")).unwrap();
                let e2 = kb2.entity_by_iri(&format!("http://b/{t}{i}")).unwrap();
                rows[e1.index()].push((e2, 1.0));
            }
        }
        let config = ParisConfig {
            max_pairs: 10,
            ..ParisConfig::default()
        };
        let out = subrelation_pass(&kb1, &kb2, &CandidateView::new(rows), &config);
        let r1 = kb1.relation_by_iri("http://a/r").unwrap();
        let r2 = kb2.relation_by_iri("http://b/r").unwrap();
        // capped but still a perfect ratio on the sampled pairs
        assert_eq!(lookup(&out[r1.directed_index()], r2), 1.0);
    }
}
