//! Applying a [`KbDelta`] to an in-memory [`Kb`].
//!
//! Split out of [`crate::delta`] so that module stays a pure wire codec:
//! the workspace audit's `no-panic-decode` rule (see docs/CORRECTNESS.md)
//! covers the decode modules file-by-file, and apply-time index surgery —
//! which works entirely on ids interned in this very pass, where direct
//! indexing is in-bounds by construction — lives outside that boundary.
//! The public paths are unchanged: everything here is re-exported through
//! `paris_kb::delta`.

use crate::delta::{DeltaError, KbDelta};
use crate::functionality::{functionality_of, FunctionalityVariant};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::{EntityId, EntityKind, RelationId};
use crate::rows::Rows;
use crate::store::Kb;
use paris_rdf::term::Term;

/// The result of applying a [`KbDelta`]: the updated KB plus the dirty
/// sets an incremental re-aligner needs.
#[derive(Debug)]
pub struct AppliedDelta {
    /// The updated knowledge base. Entity and relation ids of the input KB
    /// are preserved; new terms and relations get appended ids.
    pub kb: Kb,
    /// Entities whose adjacency changed, plus all newly interned entities.
    /// Sorted, deduplicated.
    pub touched_entities: Vec<EntityId>,
    /// The subset of [`touched_entities`](Self::touched_entities) whose
    /// *resource* adjacency changed (an added/removed fact whose object is
    /// not a literal). Literal-attribute changes reach the aligner only
    /// through the literal bridge, so incremental re-alignment seeds
    /// cross-KB dirtiness from this narrower set. Sorted, deduplicated.
    pub resource_touched: Vec<EntityId>,
    /// Forward ids of base relations whose pair list changed (the inverse
    /// direction is implied). Sorted, deduplicated.
    pub touched_relations: Vec<RelationId>,
    /// Facts actually added (duplicates of existing facts are no-ops).
    pub added: usize,
    /// Facts actually removed (removals of absent facts are no-ops).
    pub removed: usize,
}

/// Applies a delta to a KB, producing an updated KB and the touched-id
/// sets. Functionalities are refreshed with the paper's default
/// (harmonic-mean) definition; use [`apply_with_functionality`] to match
/// an ablation variant.
///
/// This clones the KB first; the serving path, which owns its KBs, uses
/// [`apply_owned`] to mutate in place.
pub fn apply(kb: &Kb, delta: &KbDelta) -> Result<AppliedDelta, DeltaError> {
    apply_owned(kb.clone(), delta)
}

/// [`apply`] without the clone: consumes the KB and updates its indexes
/// in place (the KB is dropped on error).
pub fn apply_owned(kb: Kb, delta: &KbDelta) -> Result<AppliedDelta, DeltaError> {
    apply_owned_with_functionality(kb, delta, FunctionalityVariant::HarmonicMean)
}

/// [`apply`] with an explicit functionality definition for the refreshed
/// relations (must match the variant the KB was built with).
pub fn apply_with_functionality(
    kb: &Kb,
    delta: &KbDelta,
    variant: FunctionalityVariant,
) -> Result<AppliedDelta, DeltaError> {
    apply_owned_with_functionality(kb.clone(), delta, variant)
}

/// [`apply_owned`] with an explicit functionality definition.
pub fn apply_owned_with_functionality(
    mut kb: Kb,
    delta: &KbDelta,
    variant: FunctionalityVariant,
) -> Result<AppliedDelta, DeltaError> {
    if !delta.target.is_empty() && delta.target != kb.name {
        return Err(DeltaError::WrongTarget {
            delta: delta.target.clone(),
            kb: kb.name.clone(),
        });
    }

    // Mutate the fact indexes in place; schema tables carry over
    // untouched (deltas are facts-only, so the closure is still valid).
    let terms = &mut kb.terms;
    let kinds = &mut kb.kinds;
    let term_index = &mut kb.term_index;
    let relation_names = &mut kb.relation_names;
    let relation_index = &mut kb.relation_index;
    let pairs = &mut kb.pairs;
    let adj = &mut kb.adj;
    let fun = &mut kb.fun;

    let first_new_entity = terms.len();
    fn intern(
        term: &Term,
        terms: &mut Vec<Term>,
        kinds: &mut Vec<EntityKind>,
        term_index: &mut FxHashMap<Term, EntityId>,
        adj: &mut Rows<(RelationId, EntityId)>,
    ) -> EntityId {
        if let Some(&id) = term_index.get(term) {
            return id;
        }
        let id = EntityId::from_index(terms.len());
        terms.push(term.clone());
        kinds.push(if term.is_literal() {
            EntityKind::Literal
        } else {
            EntityKind::Instance
        });
        adj.push_row(&[]);
        term_index.insert(term.clone(), id);
        id
    }

    // Resolve removals first: a fact that is both removed and (re-)added
    // ends up present. Unresolvable removals (unknown term or relation)
    // are no-ops by construction — the fact cannot exist.
    let mut removals: FxHashMap<usize, FxHashSet<(EntityId, EntityId)>> = FxHashMap::default();
    for fact in &delta.removed {
        let (Some(&s), Some(&base)) = (
            term_index.get(&Term::Iri(fact.subject.clone())),
            relation_index.get(&fact.relation),
        ) else {
            continue;
        };
        let Some(&o) = term_index.get(&fact.object) else {
            continue;
        };
        removals.entry(base as usize).or_default().insert((s, o));
    }

    let mut additions: FxHashMap<usize, Vec<(EntityId, EntityId)>> = FxHashMap::default();
    for fact in &delta.added {
        let s = intern(
            &Term::Iri(fact.subject.clone()),
            terms,
            kinds,
            term_index,
            adj,
        );
        let o = intern(&fact.object, terms, kinds, term_index, adj);
        let base = match relation_index.get(&fact.relation) {
            Some(&b) => b as usize,
            None => {
                let b = u32::try_from(relation_names.len()).expect("relation count exceeds u32");
                relation_names.push(fact.relation.clone());
                relation_index.insert(fact.relation.clone(), b);
                pairs.push(Vec::new());
                // New relation: no pairs yet, functionality defaults to 1.
                fun.extend([1.0, 1.0]);
                b as usize
            }
        };
        additions.entry(base).or_default().push((s, o));
    }

    // Rewrite the pair list and adjacency of every touched relation.
    let mut touched_entities: FxHashSet<EntityId> = (first_new_entity..terms.len())
        .map(EntityId::from_index)
        .collect();
    let mut resource_touched: FxHashSet<EntityId> = FxHashSet::default();
    let mut touched_bases: FxHashSet<usize> = FxHashSet::default();
    // New adjacency entries per entity, merged into each row once at the
    // end (a row that grows moves to the end of the adjacency buffer).
    let mut grown: FxHashMap<EntityId, Vec<(RelationId, EntityId)>> = FxHashMap::default();
    let mut added_count = 0usize;
    let mut removed_count = 0usize;

    let all_bases: FxHashSet<usize> = removals.keys().chain(additions.keys()).copied().collect();
    for base in all_bases {
        let fwd = RelationId::forward(base);
        let inv = fwd.inverse();
        let list = &mut pairs[base];
        let mut changed = false;

        if let Some(remove_set) = removals.get(&base) {
            list.retain(|pair| {
                if remove_set.contains(pair) {
                    let (x, y) = *pair;
                    retain_out(adj, x, (fwd, y));
                    retain_out(adj, y, (inv, x));
                    touched_entities.insert(x);
                    touched_entities.insert(y);
                    if kinds[y.index()] != EntityKind::Literal {
                        resource_touched.insert(x);
                        resource_touched.insert(y);
                    }
                    removed_count += 1;
                    changed = true;
                    false
                } else {
                    true
                }
            });
        }

        if let Some(adds) = additions.get(&base) {
            // The pair list is sorted, so membership is a binary search.
            let mut fresh: Vec<(EntityId, EntityId)> = adds
                .iter()
                .copied()
                .filter(|p| list.binary_search(p).is_err())
                .collect();
            fresh.sort_unstable();
            fresh.dedup();
            for &(x, y) in &fresh {
                grown.entry(x).or_default().push((fwd, y));
                grown.entry(y).or_default().push((inv, x));
                touched_entities.insert(x);
                touched_entities.insert(y);
                if kinds[y.index()] != EntityKind::Literal {
                    resource_touched.insert(x);
                    resource_touched.insert(y);
                }
                added_count += 1;
                changed = true;
            }
            list.extend(fresh);
            list.sort_unstable();
        }

        if changed {
            touched_bases.insert(base);
        }
    }
    let mut row = Vec::new();
    for (e, entries) in grown {
        row.clear();
        row.extend_from_slice(adj.row(e.index()));
        row.extend(entries);
        row.sort_unstable();
        adj.set(e.index(), &row);
    }
    adj.compact_if_sparse();

    // Refresh functionalities of touched relations only.
    for &base in &touched_bases {
        let fwd = RelationId::forward(base);
        let (f_fwd, f_inv) = functionality_of(&kb, base, variant);
        kb.fun[fwd.directed_index()] = f_fwd;
        kb.fun[fwd.inverse().directed_index()] = f_inv;
    }

    let mut touched_entities: Vec<EntityId> = touched_entities.into_iter().collect();
    touched_entities.sort_unstable();
    let mut resource_touched: Vec<EntityId> = resource_touched.into_iter().collect();
    resource_touched.sort_unstable();
    let mut touched_relations: Vec<RelationId> =
        touched_bases.into_iter().map(RelationId::forward).collect();
    touched_relations.sort_unstable();

    Ok(AppliedDelta {
        kb,
        touched_entities,
        resource_touched,
        touched_relations,
        added: added_count,
        removed: removed_count,
    })
}

/// Removes one `(relation, entity)` entry from `e`'s sorted adjacency row.
fn retain_out(adj: &mut Rows<(RelationId, EntityId)>, e: EntityId, entry: (RelationId, EntityId)) {
    if let Ok(pos) = adj.row(e.index()).binary_search(&entry) {
        adj.remove(e.index(), pos);
    }
}
