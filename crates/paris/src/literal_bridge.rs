//! Clamped literal equivalences between two KBs (paper §5.3).
//!
//! Literal-equivalence probabilities "can be set upfront (clamped)" — they
//! are inputs to the model. This module joins the literals of the two KBs
//! through the blocking keys of a
//! [`LiteralSimilarity`] and materializes
//! both directions of the sparse `Pr(ℓ ≡ ℓ′)` table once, before the
//! iteration starts.

use paris_kb::{EntityId, EntityKind, FxHashMap, Kb, Rows};
use paris_literals::LiteralSimilarity;

use crate::equiv::{transposed, CandidateRows};

/// The pre-computed literal bridge: candidate rows in both directions.
#[derive(Clone, Debug)]
pub struct LiteralBridge {
    /// Per KB-1 entity (non-empty only for literals): KB-2 candidates,
    /// sorted by entity id.
    forward: Rows<(EntityId, f64)>,
    /// Per KB-2 entity: KB-1 candidates, sorted by entity id.
    backward: Rows<(EntityId, f64)>,
}

/// End of a chain in [`LiteralBridge::build`]'s key index.
const END: usize = usize::MAX;

impl LiteralBridge {
    /// Joins the literals of `kb1` and `kb2` under `sim`.
    ///
    /// Complexity: O(#literals) expected — one hash of every KB-2 literal
    /// per key, then one lookup per KB-1 literal key; probabilities are
    /// only evaluated for blocked candidate pairs.
    pub fn build(kb1: &Kb, kb2: &Kb, sim: &LiteralSimilarity) -> Self {
        // Index KB-2 literals by blocking key: `head` holds a key's latest
        // entry in `chain`, and each entry links to the one before it.
        let literals2 = kb2.num_literals();
        let mut head: FxHashMap<_, usize> = FxHashMap::default();
        head.reserve(literals2);
        let mut chain: Vec<(EntityId, usize)> = Vec::with_capacity(literals2);
        for l2 in kb2.literals() {
            let lit2 = kb2.literal(l2).expect("literals() yields literal entities");
            for key in sim.keys(lit2) {
                let next = head.insert(key, chain.len()).unwrap_or(END);
                chain.push((l2, next));
            }
        }

        let mut forward = Rows::default();
        let mut row: Vec<(EntityId, f64)> = Vec::new();
        let mut seen: Vec<EntityId> = Vec::new();
        for l1 in kb1.entities() {
            row.clear();
            if kb1.kind(l1) == EntityKind::Literal {
                let lit1 = kb1.literal(l1).expect("literal entities carry a literal");
                seen.clear();
                for key in sim.keys(lit1) {
                    let mut at = head.get(&key).copied().unwrap_or(END);
                    while at != END {
                        seen.push(chain[at].0);
                        at = chain[at].1;
                    }
                }
                seen.sort_unstable();
                seen.dedup();
                for &l2 in &seen {
                    let lit2 = kb2.literal(l2).expect("candidate is a literal");
                    let p = sim.probability(lit1, lit2);
                    if p > 0.0 {
                        row.push((l2, p));
                    }
                }
            }
            forward.push_row(&row);
        }
        let backward = transposed(&forward, kb2.num_entities());
        LiteralBridge { forward, backward }
    }

    /// KB-2 candidates of a KB-1 entity (empty for non-literals).
    #[inline]
    pub fn candidates(&self, l1: EntityId) -> &[(EntityId, f64)] {
        self.forward.row(l1.index())
    }

    /// KB-1 candidates of a KB-2 entity.
    #[inline]
    pub fn candidates_rev(&self, l2: EntityId) -> &[(EntityId, f64)] {
        self.backward.row(l2.index())
    }

    /// The bridge as `(forward, backward)` candidate rows.
    pub fn into_rows(self) -> (CandidateRows, CandidateRows) {
        let to_rows = |rows: &Rows<_>| rows.iter().map(<[_]>::to_vec).collect();
        (to_rows(&self.forward), to_rows(&self.backward))
    }

    /// Number of non-zero literal pairs.
    pub fn num_pairs(&self) -> usize {
        self.forward.num_items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_kb::KbBuilder;
    use paris_rdf::Literal;

    fn kb_with_literals(name: &str, values: &[&str]) -> Kb {
        let mut b = KbBuilder::new(name);
        for (i, v) in values.iter().enumerate() {
            b.add_literal_fact(
                format!("http://{name}/e{i}"),
                "http://x/val",
                Literal::plain(*v),
            );
        }
        b.build()
    }

    fn lit_id(kb: &Kb, value: &str) -> EntityId {
        kb.entity(&paris_rdf::Term::Literal(Literal::plain(value)))
            .unwrap()
    }

    #[test]
    fn identity_bridges_equal_strings() {
        let kb1 = kb_with_literals("a", &["alpha", "beta"]);
        let kb2 = kb_with_literals("b", &["beta", "gamma"]);
        let bridge = LiteralBridge::build(&kb1, &kb2, &LiteralSimilarity::Identity);
        assert_eq!(bridge.num_pairs(), 1);
        let beta1 = lit_id(&kb1, "beta");
        let beta2 = lit_id(&kb2, "beta");
        assert_eq!(bridge.candidates(beta1), &[(beta2, 1.0)]);
        assert_eq!(bridge.candidates_rev(beta2), &[(beta1, 1.0)]);
        assert!(bridge.candidates(lit_id(&kb1, "alpha")).is_empty());
    }

    #[test]
    fn identity_bridges_equal_numbers_across_forms() {
        let kb1 = kb_with_literals("a", &["42"]);
        let kb2 = kb_with_literals("b", &["42.0"]);
        let bridge = LiteralBridge::build(&kb1, &kb2, &LiteralSimilarity::Identity);
        assert_eq!(bridge.num_pairs(), 1);
    }

    #[test]
    fn normalized_bridges_phone_formats() {
        let kb1 = kb_with_literals("a", &["213/467-1108"]);
        let kb2 = kb_with_literals("b", &["213-467-1108"]);
        let none = LiteralBridge::build(&kb1, &kb2, &LiteralSimilarity::Identity);
        assert_eq!(none.num_pairs(), 0);
        let bridge = LiteralBridge::build(&kb1, &kb2, &LiteralSimilarity::Normalized);
        assert_eq!(bridge.num_pairs(), 1);
    }

    #[test]
    fn edit_distance_is_graded() {
        let kb1 = kb_with_literals("a", &["restaurant"]);
        let kb2 = kb_with_literals("b", &["resturant", "zebra"]);
        let bridge = LiteralBridge::build(
            &kb1,
            &kb2,
            &LiteralSimilarity::EditDistance {
                min_similarity: 0.7,
            },
        );
        let cands = bridge.candidates(lit_id(&kb1, "restaurant"));
        assert_eq!(cands.len(), 1);
        assert!(cands[0].1 > 0.7 && cands[0].1 < 1.0);
    }

    #[test]
    fn multiple_candidates_per_literal() {
        let kb1 = kb_with_literals("a", &["abc"]);
        let kb2 = kb_with_literals("b", &["ABC", "a-b-c"]);
        let bridge = LiteralBridge::build(&kb1, &kb2, &LiteralSimilarity::Normalized);
        assert_eq!(bridge.candidates(lit_id(&kb1, "abc")).len(), 2);
    }

    #[test]
    fn non_literal_entities_have_no_candidates() {
        let mut b1 = KbBuilder::new("a");
        b1.add_fact("http://a/x", "http://a/r", "http://a/y");
        let kb1 = b1.build();
        let kb2 = kb_with_literals("b", &["x"]);
        let bridge = LiteralBridge::build(&kb1, &kb2, &LiteralSimilarity::Identity);
        for e in kb1.entities() {
            assert!(bridge.candidates(e).is_empty());
        }
    }
}
