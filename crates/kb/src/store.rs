//! The immutable, fully-indexed knowledge base.
//!
//! A [`Kb`] is the frozen product of a
//! [`KbBuilder`](crate::builder::KbBuilder): entities interned to dense ids,
//! facts indexed by subject *in both directions* (the paper's "all inverse
//! statements" assumption, §3), per-relation pair lists, the deductive
//! closure of the class taxonomy, and pre-computed global functionalities
//! (Eq. 2).

use paris_rdf::term::{Iri, Literal, Term};

use crate::functionality::{compute_functionalities, FunctionalityVariant};
use crate::fxhash::FxHashMap;
use crate::ids::{EntityId, EntityKind, RelationId};
use crate::rows::Rows;

/// An immutable, indexed RDFS knowledge base (one "ontology" of the paper).
///
/// Cloning duplicates every index — cheap enough for tests and tooling,
/// but the delta pipeline offers
/// [`apply_owned`](crate::delta::apply_owned) precisely so the hot path
/// never has to.
#[derive(Clone)]
pub struct Kb {
    pub(crate) name: String,
    // ---- entity tables ----
    pub(crate) terms: Vec<Term>,
    pub(crate) kinds: Vec<EntityKind>,
    pub(crate) term_index: FxHashMap<Term, EntityId>,
    // ---- relations ----
    pub(crate) relation_names: Vec<Iri>,
    pub(crate) relation_index: FxHashMap<Iri, u32>,
    // ---- facts ----
    /// Per entity: all `(r, y)` with `r(x, y)`, including inverse
    /// directions, sorted.
    pub(crate) adj: Rows<(RelationId, EntityId)>,
    /// Per *base* relation: sorted, deduplicated forward pairs `(x, y)`.
    pub(crate) pairs: Vec<Vec<(EntityId, EntityId)>>,
    // ---- schema ----
    pub(crate) classes: Vec<EntityId>,
    /// Class → its instances, after deductive closure.
    pub(crate) class_members: FxHashMap<EntityId, Vec<EntityId>>,
    /// Instance → its classes, after deductive closure.
    pub(crate) types_of: FxHashMap<EntityId, Vec<EntityId>>,
    /// Class → strict superclasses (transitively closed).
    pub(crate) superclasses: FxHashMap<EntityId, Vec<EntityId>>,
    // ---- statistics ----
    /// Global functionality per directed relation (harmonic mean, Eq. 2).
    pub(crate) fun: Vec<f64>,
}

impl Kb {
    /// The human-readable name given at construction (e.g. `"yago"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    // ------------------------------------------------------------------
    // Entities
    // ------------------------------------------------------------------

    /// Total number of interned entities (instances + classes + literals).
    pub fn num_entities(&self) -> usize {
        self.terms.len()
    }

    /// Iterates over every entity id.
    pub fn entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        (0..self.terms.len()).map(EntityId::from_index)
    }

    /// The kind (instance / class / literal) of an entity.
    #[inline]
    pub fn kind(&self, e: EntityId) -> EntityKind {
        self.kinds[e.index()]
    }

    /// The term an entity id was interned from.
    #[inline]
    pub fn term(&self, e: EntityId) -> &Term {
        &self.terms[e.index()]
    }

    /// The IRI of a resource entity, `None` for literals.
    pub fn iri(&self, e: EntityId) -> Option<&Iri> {
        self.term(e).as_iri()
    }

    /// The literal of a literal entity, `None` for resources.
    pub fn literal(&self, e: EntityId) -> Option<&Literal> {
        self.term(e).as_literal()
    }

    /// Looks up an entity by exact term.
    pub fn entity(&self, term: &Term) -> Option<EntityId> {
        self.term_index.get(term).copied()
    }

    /// Looks up a resource entity by IRI string.
    pub fn entity_by_iri(&self, iri: &str) -> Option<EntityId> {
        self.entity(&Term::Iri(Iri::new(iri)))
    }

    /// Iterates over instance entities only.
    pub fn instances(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.entities()
            .filter(|&e| self.kind(e) == EntityKind::Instance)
    }

    /// Iterates over literal entities only.
    pub fn literals(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.entities()
            .filter(|&e| self.kind(e) == EntityKind::Literal)
    }

    /// Number of instance entities.
    pub fn num_instances(&self) -> usize {
        self.kinds
            .iter()
            .filter(|k| **k == EntityKind::Instance)
            .count()
    }

    /// Number of literal entities.
    pub fn num_literals(&self) -> usize {
        self.kinds
            .iter()
            .filter(|k| **k == EntityKind::Literal)
            .count()
    }

    // ------------------------------------------------------------------
    // Facts
    // ------------------------------------------------------------------

    /// All statements `r(x, y)` with `x = e`, in both directions: a fact
    /// `r(a, b)` appears as `(r, b)` on `a` and `(r⁻¹, a)` on `b`.
    #[inline]
    pub fn facts(&self, e: EntityId) -> &[(RelationId, EntityId)] {
        self.adj.row(e.index())
    }

    /// Total number of stored (forward) facts.
    pub fn num_facts(&self) -> usize {
        self.pairs.iter().map(Vec::len).sum()
    }

    /// Sorted, deduplicated pairs `(x, y)` of a directed relation.
    ///
    /// For an inverse id the forward pairs are yielded swapped.
    pub fn pairs(&self, r: RelationId) -> impl Iterator<Item = (EntityId, EntityId)> + '_ {
        let base = &self.pairs[r.base_index()];
        let inv = r.is_inverse();
        base.iter()
            .map(move |&(x, y)| if inv { (y, x) } else { (x, y) })
    }

    /// Number of pairs of a directed relation (same for `r` and `r⁻¹`).
    pub fn num_pairs(&self, r: RelationId) -> usize {
        self.pairs[r.base_index()].len()
    }

    // ------------------------------------------------------------------
    // Relations
    // ------------------------------------------------------------------

    /// Number of base (forward) relations.
    pub fn num_base_relations(&self) -> usize {
        self.relation_names.len()
    }

    /// Number of directed relations (`2 ×` base count).
    pub fn num_directed_relations(&self) -> usize {
        self.relation_names.len() * 2
    }

    /// Iterates over all directed relation ids.
    pub fn directed_relations(&self) -> impl Iterator<Item = RelationId> + '_ {
        (0..self.num_directed_relations()).map(RelationId::from_directed_index)
    }

    /// The IRI of a directed relation's base relation.
    pub fn relation_iri(&self, r: RelationId) -> &Iri {
        &self.relation_names[r.base_index()]
    }

    /// Renders a directed relation as `name` or `name⁻` for display.
    pub fn relation_display(&self, r: RelationId) -> String {
        let name = self.relation_iri(r).local_name();
        if r.is_inverse() {
            format!("{name}⁻")
        } else {
            name.to_owned()
        }
    }

    /// Looks up the forward direction of a relation by IRI string.
    pub fn relation_by_iri(&self, iri: &str) -> Option<RelationId> {
        self.relation_index
            .get(iri)
            .map(|&b| RelationId::forward(b as usize))
    }

    // ------------------------------------------------------------------
    // Schema
    // ------------------------------------------------------------------

    /// All class entities.
    pub fn classes(&self) -> &[EntityId] {
        &self.classes
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Instances of a class, including those inherited from subclasses
    /// (deductive closure, §3).
    pub fn members(&self, class: EntityId) -> &[EntityId] {
        self.class_members
            .get(&class)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Classes of an instance, including superclasses (deductive closure).
    pub fn types_of(&self, instance: EntityId) -> &[EntityId] {
        self.types_of
            .get(&instance)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Strict superclasses of a class (transitively closed).
    pub fn superclasses(&self, class: EntityId) -> &[EntityId] {
        self.superclasses
            .get(&class)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// True iff `sub` is a (strict or reflexive) subclass of `sup`.
    pub fn is_subclass_of(&self, sub: EntityId, sup: EntityId) -> bool {
        sub == sup || self.superclasses(sub).contains(&sup)
    }

    // ------------------------------------------------------------------
    // Functionality (paper §3, Eq. 1–2)
    // ------------------------------------------------------------------

    /// The global functionality `fun(r)` of a directed relation,
    /// pre-computed with the harmonic-mean definition (Eq. 2).
    ///
    /// `fun⁻¹(r)` is simply `self.functionality(r.inverse())`.
    #[inline]
    pub fn functionality(&self, r: RelationId) -> f64 {
        self.fun[r.directed_index()]
    }

    /// Recomputes all functionalities under an alternative definition
    /// (Appendix A ablation). Does not mutate the stored values.
    pub fn functionalities_with(&self, variant: FunctionalityVariant) -> Vec<f64> {
        compute_functionalities(self, variant)
    }

    /// Replaces the stored functionalities with those of another
    /// Appendix-A definition. Used by the functionality ablation; the
    /// paper computes functionalities "within each ontology upfront"
    /// (§5.1), so this is a per-KB property, not an aligner parameter.
    pub fn set_functionality_variant(&mut self, variant: FunctionalityVariant) {
        self.fun = compute_functionalities(self, variant);
    }
}

impl std::fmt::Debug for Kb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kb")
            .field("name", &self.name)
            .field("entities", &self.num_entities())
            .field("instances", &self.num_instances())
            .field("classes", &self.num_classes())
            .field("relations", &self.num_base_relations())
            .field("facts", &self.num_facts())
            .finish()
    }
}

/// The both-direction adjacency of per-relation pair lists: a fact
/// `r(a, b)` becomes `(r, b)` in row `a` and `(r⁻¹, a)` in row `b`, and
/// each row is sorted. Entries are unique when each pair list is (each
/// list contributes its own two relation ids). Every id must be below
/// `num_entities`.
pub(crate) fn adjacency(
    num_entities: usize,
    pairs: &[Vec<(EntityId, EntityId)>],
) -> Rows<(RelationId, EntityId)> {
    let mut degree = vec![0usize; num_entities];
    for &(x, y) in pairs.iter().flatten() {
        degree[x.index()] += 1;
        degree[y.index()] += 1;
    }
    let mut adj = Rows::with_lengths(
        degree.iter().copied(),
        (RelationId::forward(0), EntityId::from_index(0)),
    );
    // Fill each row from its end, counting its degree back down.
    for (base, list) in pairs.iter().enumerate() {
        let fwd = RelationId::forward(base);
        let inv = fwd.inverse();
        for &(x, y) in list {
            degree[x.index()] -= 1;
            adj.row_mut(x.index())[degree[x.index()]] = (fwd, y);
            degree[y.index()] -= 1;
            adj.row_mut(y.index())[degree[y.index()]] = (inv, x);
        }
    }
    for i in 0..num_entities {
        adj.row_mut(i).sort_unstable();
    }
    adj
}
