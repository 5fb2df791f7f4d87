//! Sparse storage of instance-equivalence probabilities.
//!
//! §5.2 of the paper: the model distinguishes *true* equivalences
//! (`Pr > 0`), *false* ones (`Pr = 0`), and *unknown* ones (never
//! computed) — and since every equation consumes probabilities through
//! `∏ (1 − P)`, unknown and false coincide, so zeros are simply not
//! stored. Each KB-1 entity holds a short sorted row of
//! `(KB-2 entity, probability)` candidates.

use paris_kb::{EntityId, FxHashMap, Rows};

/// One candidate row per source entity: `(target entity, probability)`
/// pairs, sorted by entity id. The common currency between the passes.
pub type CandidateRows = Vec<Vec<(EntityId, f64)>>;

/// A sparse `Pr(x ≡ x′)` matrix between the entities of two KBs.
///
/// Each direction keeps its rows in one buffer ([`Rows`]), so copying a
/// store — the incremental re-aligner's warm start — is two buffer copies
/// per direction, not one allocation per row.
#[derive(Clone, Debug, Default)]
pub struct EquivStore {
    /// Row per KB-1 entity: candidates in KB-2, sorted by entity id.
    forward: Rows<(EntityId, f64)>,
    /// Row per KB-2 entity: candidates in KB-1, derived from `forward`.
    backward: Rows<(EntityId, f64)>,
}

/// The rows indexed by target entity: row `z` of the result lists every
/// `(i, p)` with `(z, p)` in row `i`, sorted by `i`.
pub(crate) fn transposed(rows: &Rows<(EntityId, f64)>, n: usize) -> Rows<(EntityId, f64)> {
    let mut lengths = vec![0usize; n];
    for &(z, _) in rows.iter().flatten() {
        lengths[z.index()] += 1;
    }
    let mut out = Rows::with_lengths(lengths.iter().copied(), (EntityId::from_index(0), 0.0));
    // Walking the rows in order fills each output row in order.
    let mut filled = vec![0usize; n];
    for (i, row) in rows.iter().enumerate() {
        for &(z, p) in row {
            out.row_mut(z.index())[filled[z.index()]] = (EntityId::from_index(i), p);
            filled[z.index()] += 1;
        }
    }
    out
}

impl EquivStore {
    /// An empty store sized for `n1` KB-1 entities and `n2` KB-2 entities.
    pub fn new(n1: usize, n2: usize) -> Self {
        EquivStore {
            forward: Rows::empty(n1),
            backward: Rows::empty(n2),
        }
    }

    /// Builds a store from per-KB-1-entity rows, deriving the backward
    /// index. Rows need not be sorted; zero and sub-threshold entries
    /// should already have been dropped by the caller.
    pub fn from_rows(rows: Vec<Vec<(EntityId, f64)>>, n2: usize) -> Self {
        Self::from_packed(rows.into_iter().collect(), n2)
    }

    /// [`from_rows`](Self::from_rows) for rows already packed into one
    /// buffer.
    pub fn from_packed(mut forward: Rows<(EntityId, f64)>, n2: usize) -> Self {
        for i in 0..forward.len() {
            forward.row_mut(i).sort_unstable_by_key(|&(e, _)| e);
        }
        let backward = transposed(&forward, n2);
        EquivStore { forward, backward }
    }

    /// A copy of this store covering `n1 × n2` entities (entities beyond
    /// the old bounds start with no candidates). This is how the
    /// incremental re-aligner warm-starts from a snapshot's scores after a
    /// delta appended entities.
    pub fn expanded(&self, n1: usize, n2: usize) -> EquivStore {
        assert!(
            n1 >= self.len_kb1() && n2 >= self.len_kb2(),
            "expanded() cannot shrink a store ({}×{} → {n1}×{n2})",
            self.len_kb1(),
            self.len_kb2(),
        );
        let mut out = self.clone();
        out.forward.grow_to(n1);
        out.backward.grow_to(n2);
        out
    }

    /// A copy of all forward rows (one per KB-1 entity), the format
    /// [`from_rows`](Self::from_rows) consumes.
    pub fn to_rows(&self) -> CandidateRows {
        self.forward.iter().map(<[_]>::to_vec).collect()
    }

    /// Replaces the rows of the given KB-1 entities in place, maintaining
    /// the backward index — O(changed rows × row length) instead of the
    /// full-store rebuild of [`from_rows`](Self::from_rows). Rows need
    /// not be sorted. This is what keeps an incremental re-alignment
    /// iteration at O(dirty) when only a handful of rows moved.
    pub fn replace_rows(
        &mut self,
        changes: impl IntoIterator<Item = (EntityId, Vec<(EntityId, f64)>)>,
    ) {
        let mut back: Vec<(EntityId, f64)> = Vec::new();
        for (x, mut row) in changes {
            row.sort_unstable_by_key(|&(e, _)| e);
            let old = self.forward.row(x.index()).to_vec();
            self.forward.set(x.index(), &row);
            for (z, _) in old {
                back.clear();
                back.extend(
                    self.backward
                        .row(z.index())
                        .iter()
                        .filter(|&&(e, _)| e != x),
                );
                self.backward.set(z.index(), &back);
            }
            for &(z, p) in &row {
                back.clear();
                back.extend_from_slice(self.backward.row(z.index()));
                match back.binary_search_by_key(&x, |&(e, _)| e) {
                    Ok(pos) => back[pos].1 = p,
                    Err(pos) => back.insert(pos, (x, p)),
                }
                self.backward.set(z.index(), &back);
            }
        }
        self.forward.compact_if_sparse();
        self.backward.compact_if_sparse();
    }

    /// The number of KB-1 rows.
    pub fn len_kb1(&self) -> usize {
        self.forward.len()
    }

    /// The number of KB-2 rows.
    pub fn len_kb2(&self) -> usize {
        self.backward.len()
    }

    /// Candidates of a KB-1 entity, sorted by KB-2 entity id.
    #[inline]
    pub fn candidates(&self, x: EntityId) -> &[(EntityId, f64)] {
        self.forward.row(x.index())
    }

    /// Candidates of a KB-2 entity, sorted by KB-1 entity id.
    #[inline]
    pub fn candidates_rev(&self, x2: EntityId) -> &[(EntityId, f64)] {
        self.backward.row(x2.index())
    }

    /// `Pr(x ≡ x′)`, zero if unknown.
    pub fn prob(&self, x: EntityId, x2: EntityId) -> f64 {
        let row = self.candidates(x);
        match row.binary_search_by_key(&x2, |&(e, _)| e) {
            Ok(i) => row[i].1,
            Err(_) => 0.0,
        }
    }

    /// Total number of stored (non-zero) equivalences.
    pub fn num_pairs(&self) -> usize {
        self.forward.num_items()
    }

    /// The maximal assignment (§4.2): for each KB-1 entity, the KB-2
    /// candidate with the maximum score. Ties break toward the smallest
    /// entity id, making runs deterministic.
    pub fn maximal_assignment(&self) -> Vec<Option<(EntityId, f64)>> {
        self.forward.iter().map(best_of).collect()
    }

    /// The maximal assignment in the KB-2 → KB-1 direction.
    pub fn maximal_assignment_rev(&self) -> Vec<Option<(EntityId, f64)>> {
        self.backward.iter().map(best_of).collect()
    }

    /// Counts how many KB-1 entities have a different maximal assignment
    /// in `other`, plus entities assigned in exactly one of the two.
    ///
    /// This is the paper's convergence measure: iterate "until the entity
    /// pairs under the maximal assignments change no more" (§5.1).
    pub fn assignment_changes(&self, other: &EquivStore) -> usize {
        assert_eq!(
            self.len_kb1(),
            other.len_kb1(),
            "stores must cover the same KB"
        );
        self.forward
            .iter()
            .zip(other.forward.iter())
            .filter(|(a, b)| best_of(a).map(|(e, _)| e) != best_of(b).map(|(e, _)| e))
            .count()
    }
}

/// The maximal-assignment pick of one sorted row: the highest score,
/// ties to the smallest id.
pub(crate) fn best_of(row: &[(EntityId, f64)]) -> Option<(EntityId, f64)> {
    let mut best: Option<(EntityId, f64)> = None;
    for &(e, p) in row {
        match best {
            // Strict `>` keeps the smallest id on ties (rows are sorted).
            Some((_, bp)) if p <= bp => {}
            _ => best = Some((e, p)),
        }
    }
    best
}

/// A per-pass, read-only view of "which KB-2 entities may `y` equal, with
/// what probability" — the previous iteration's equalities (§5.2: "our
/// algorithm considers only the equalities of the previous maximal
/// assignment"), merged with the clamped literal equivalences.
#[derive(Clone, Debug, Default)]
pub struct CandidateView {
    rows: Vec<Vec<(EntityId, f64)>>,
    informed: bool,
}

impl CandidateView {
    /// Builds the view for one direction.
    ///
    /// The rows combine the previous iteration's [`EquivStore`] (already
    /// reduced to the maximal assignment unless
    /// `propagate_all_equalities` is set) with the clamped literal bridge
    /// (never reduced: a literal may legitimately equal several literals
    /// on the other side). A view built this way is *informed*: its
    /// probabilities reflect computed sub-relation scores.
    pub fn new(rows: Vec<Vec<(EntityId, f64)>>) -> Self {
        CandidateView {
            rows,
            informed: true,
        }
    }

    /// A view whose instance probabilities are still θ-scaled (they come
    /// from the bootstrap iteration). Negative evidence (Eq. 14) must not
    /// consume such probabilities: `1 − Pr` would read a correctly
    /// matched neighbour as ~80 % *mismatched* and destroy every
    /// candidate.
    pub fn uninformed(rows: Vec<Vec<(EntityId, f64)>>) -> Self {
        CandidateView {
            rows,
            informed: false,
        }
    }

    /// Whether the instance probabilities in this view were computed with
    /// informed (non-bootstrap) sub-relation scores.
    pub fn is_informed(&self) -> bool {
        self.informed
    }

    /// An empty view over `n` entities.
    pub fn empty(n: usize) -> Self {
        CandidateView {
            rows: vec![Vec::new(); n],
            informed: false,
        }
    }

    /// Candidates of entity `y`.
    #[inline]
    pub fn candidates(&self, y: EntityId) -> &[(EntityId, f64)] {
        &self.rows[y.index()]
    }

    /// Replaces the candidates of entity `y`.
    pub(crate) fn set_row(&mut self, y: EntityId, row: Vec<(EntityId, f64)>) {
        self.rows[y.index()] = row;
    }

    /// Number of entities covered.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the view covers no entities.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Probability lookup via a transient hash map when rows get long.
    pub fn prob(&self, y: EntityId, y2: EntityId) -> f64 {
        self.rows[y.index()]
            .iter()
            .find(|&&(e, _)| e == y2)
            .map_or(0.0, |&(_, p)| p)
    }

    /// Builds a hash-map snapshot of one row (used by the sub-relation
    /// pass, which probes the same row many times).
    pub fn row_map(&self, y: EntityId) -> FxHashMap<EntityId, f64> {
        self.rows[y.index()].iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: usize) -> EntityId {
        EntityId::from_index(i)
    }

    #[test]
    fn from_rows_builds_backward_index() {
        let rows = vec![vec![(e(1), 0.9), (e(0), 0.3)], vec![], vec![(e(1), 0.5)]];
        let s = EquivStore::from_rows(rows, 2);
        assert_eq!(s.prob(e(0), e(1)), 0.9);
        assert_eq!(s.prob(e(0), e(0)), 0.3);
        assert_eq!(s.prob(e(1), e(0)), 0.0);
        assert_eq!(s.candidates_rev(e(1)), &[(e(0), 0.9), (e(2), 0.5)]);
        assert_eq!(s.num_pairs(), 3);
    }

    #[test]
    fn maximal_assignment_picks_best() {
        let rows = vec![vec![(e(0), 0.3), (e(1), 0.9)], vec![(e(0), 0.2)], vec![]];
        let s = EquivStore::from_rows(rows, 2);
        let m = s.maximal_assignment();
        assert_eq!(m[0], Some((e(1), 0.9)));
        assert_eq!(m[1], Some((e(0), 0.2)));
        assert_eq!(m[2], None);
    }

    #[test]
    fn ties_break_to_smallest_id() {
        let rows = vec![vec![(e(0), 0.5), (e(1), 0.5)]];
        let s = EquivStore::from_rows(rows, 2);
        assert_eq!(s.maximal_assignment()[0], Some((e(0), 0.5)));
    }

    #[test]
    fn assignment_changes_counts_diffs() {
        let a = EquivStore::from_rows(vec![vec![(e(0), 0.9)], vec![(e(1), 0.8)], vec![]], 2);
        let b = EquivStore::from_rows(vec![vec![(e(1), 0.9)], vec![(e(1), 0.3)], vec![]], 2);
        // row 0 changed target, row 1 same target (different score), row 2 same (none)
        assert_eq!(a.assignment_changes(&b), 1);
        assert_eq!(a.assignment_changes(&a), 0);
    }

    #[test]
    fn changes_count_appearing_and_disappearing() {
        let a = EquivStore::from_rows(vec![vec![(e(0), 0.9)], vec![]], 1);
        let b = EquivStore::from_rows(vec![vec![], vec![(e(0), 0.9)]], 1);
        assert_eq!(a.assignment_changes(&b), 2);
    }

    #[test]
    fn reverse_maximal_assignment() {
        let rows = vec![vec![(e(0), 0.9)], vec![(e(0), 0.95)]];
        let s = EquivStore::from_rows(rows, 1);
        assert_eq!(s.maximal_assignment_rev()[0], Some((e(1), 0.95)));
    }

    #[test]
    fn replace_rows_matches_full_rebuild() {
        let rows = vec![vec![(e(1), 0.9), (e(0), 0.3)], vec![], vec![(e(1), 0.5)]];
        let mut s = EquivStore::from_rows(rows, 3);
        // Replace one row (dropping a candidate, adding one, rescoring
        // one), clear another, and fill a previously empty one.
        let changes = vec![
            (e(0), vec![(e(2), 0.7), (e(1), 0.4)]),
            (e(1), vec![(e(0), 0.2)]),
            (e(2), vec![]),
        ];
        s.replace_rows(changes.clone());

        let mut rebuilt_rows = vec![vec![(e(1), 0.9), (e(0), 0.3)], vec![], vec![(e(1), 0.5)]];
        for (x, row) in changes {
            rebuilt_rows[x.index()] = row;
        }
        let rebuilt = EquivStore::from_rows(rebuilt_rows, 3);
        for i in 0..3 {
            assert_eq!(s.candidates(e(i)), rebuilt.candidates(e(i)), "fwd {i}");
            assert_eq!(
                s.candidates_rev(e(i)),
                rebuilt.candidates_rev(e(i)),
                "bwd {i}"
            );
        }
        assert_eq!(s.num_pairs(), rebuilt.num_pairs());
    }

    /// Many rounds of growing and shrinking rows move rows to the end of
    /// the buffers and compact them; the store still equals a rebuild.
    #[test]
    fn repeated_replacements_match_full_rebuild() {
        let (n1, n2) = (40, 30);
        let mut rows: Vec<Vec<(EntityId, f64)>> = vec![Vec::new(); n1];
        let mut s = EquivStore::new(n1, n2);
        let mut state = 7u64;
        let mut next = |m: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as usize % m
        };
        for round in 0..3000 {
            let x = next(n1);
            let mut row: Vec<(EntityId, f64)> = (0..next(6))
                .map(|_| (e(next(n2)), (round % 97) as f64 / 97.0 + 0.01))
                .collect();
            row.sort_unstable_by_key(|&(z, _)| z);
            row.dedup_by_key(|&mut (z, _)| z);
            rows[x] = row.clone();
            s.replace_rows([(e(x), row)]);
        }
        let rebuilt = EquivStore::from_rows(rows, n2);
        for i in 0..n1 {
            assert_eq!(s.candidates(e(i)), rebuilt.candidates(e(i)), "fwd {i}");
        }
        for i in 0..n2 {
            assert_eq!(
                s.candidates_rev(e(i)),
                rebuilt.candidates_rev(e(i)),
                "bwd {i}"
            );
        }
        assert_eq!(s.num_pairs(), rebuilt.num_pairs());
    }

    #[test]
    fn expanded_keeps_rows_and_adds_empty_ones() {
        let s = EquivStore::from_rows(vec![vec![(e(1), 0.9)], vec![(e(0), 0.4)]], 2);
        let t = s.expanded(3, 4);
        assert_eq!((t.len_kb1(), t.len_kb2()), (3, 4));
        assert_eq!(t.candidates(e(0)), &[(e(1), 0.9)]);
        assert!(t.candidates(e(2)).is_empty());
        assert_eq!(t.candidates_rev(e(1)), &[(e(0), 0.9)]);
        assert!(t.candidates_rev(e(3)).is_empty());
    }

    #[test]
    fn candidate_view_lookups() {
        let v = CandidateView::new(vec![vec![(e(3), 0.7)], vec![]]);
        assert_eq!(v.candidates(e(0)), &[(e(3), 0.7)]);
        assert_eq!(v.prob(e(0), e(3)), 0.7);
        assert_eq!(v.prob(e(0), e(2)), 0.0);
        assert_eq!(v.prob(e(1), e(3)), 0.0);
        assert_eq!(v.row_map(e(0)).len(), 1);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
    }
}
