//! Mutable construction of a [`Kb`], frozen by [`KbBuilder::build`].
//!
//! The builder ingests triples (from a parser or programmatically),
//! intercepts the RDFS vocabulary (`rdf:type`, `rdfs:subClassOf`,
//! `rdfs:subPropertyOf`) into dedicated schema structures, and at freeze
//! time computes the deductive closure (§3: "we assume … the ontologies are
//! available in their deductive closure"), builds both-direction fact
//! indexes, and pre-computes functionalities.

use paris_rdf::term::{Iri, Literal, Term};
use paris_rdf::triple::Triple;
use paris_rdf::vocab;

use crate::closure::close_taxonomy;
use crate::functionality::{compute_functionalities, FunctionalityVariant};
use crate::fxhash::FxHashMap;
use crate::ids::{EntityId, EntityKind};
use crate::store::{adjacency, Kb};

/// Incremental builder for a [`Kb`].
///
/// ```
/// use paris_kb::KbBuilder;
/// use paris_rdf::Literal;
///
/// let mut b = KbBuilder::new("demo");
/// b.add_fact("http://ex/Elvis", "http://ex/bornIn", "http://ex/Tupelo");
/// b.add_literal_fact("http://ex/Elvis", "http://ex/name", Literal::plain("Elvis Presley"));
/// b.add_type("http://ex/Elvis", "http://ex/Singer");
/// b.add_subclass("http://ex/Singer", "http://ex/Person");
/// let kb = b.build();
/// assert_eq!(kb.num_instances(), 2); // Elvis and Tupelo
/// assert_eq!(kb.num_literals(), 1);  // "Elvis Presley"
/// assert_eq!(kb.num_classes(), 2);   // Singer, Person
/// ```
pub struct KbBuilder {
    name: String,
    terms: Vec<Term>,
    term_index: FxHashMap<Term, EntityId>,
    relation_names: Vec<Iri>,
    relation_index: FxHashMap<Iri, u32>,
    /// Raw forward facts `(subject, base relation, object)`.
    facts: Vec<(EntityId, u32, EntityId)>,
    /// `rdf:type` edges `(instance, class)`.
    type_edges: Vec<(EntityId, EntityId)>,
    /// `rdfs:subClassOf` edges `(sub, super)`.
    subclass_edges: Vec<(EntityId, EntityId)>,
    /// `rdfs:subPropertyOf` edges `(sub base rel, super base rel)`.
    subproperty_edges: Vec<(u32, u32)>,
}

impl KbBuilder {
    /// Creates an empty builder with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        KbBuilder {
            name: name.into(),
            terms: Vec::new(),
            term_index: FxHashMap::default(),
            relation_names: Vec::new(),
            relation_index: FxHashMap::default(),
            facts: Vec::new(),
            type_edges: Vec::new(),
            subclass_edges: Vec::new(),
            subproperty_edges: Vec::new(),
        }
    }

    fn intern(&mut self, term: Term) -> EntityId {
        if let Some(&id) = self.term_index.get(&term) {
            return id;
        }
        let id = EntityId::from_index(self.terms.len());
        self.terms.push(term.clone());
        self.term_index.insert(term, id);
        id
    }

    fn intern_relation(&mut self, iri: Iri) -> u32 {
        if let Some(&b) = self.relation_index.get(&iri) {
            return b;
        }
        let b = u32::try_from(self.relation_names.len()).expect("relation count exceeds u32");
        self.relation_names.push(iri.clone());
        self.relation_index.insert(iri, b);
        b
    }

    /// Ingests one parsed triple, dispatching on the predicate.
    pub fn add_triple(&mut self, triple: &Triple) {
        match triple.predicate.as_str() {
            vocab::RDF_TYPE => {
                if let Term::Iri(class) = &triple.object {
                    self.add_type(triple.subject.clone(), class.clone());
                }
                // rdf:type with a literal object is malformed; drop it.
            }
            vocab::RDFS_SUBCLASS_OF => {
                if let Term::Iri(sup) = &triple.object {
                    self.add_subclass(triple.subject.clone(), sup.clone());
                }
            }
            vocab::RDFS_SUBPROPERTY_OF => {
                if let Term::Iri(sup) = &triple.object {
                    self.add_subproperty(triple.subject.clone(), sup.clone());
                }
            }
            _ => {
                let s = self.intern(Term::Iri(triple.subject.clone()));
                let r = self.intern_relation(triple.predicate.clone());
                let o = self.intern(triple.object.clone());
                self.facts.push((s, r, o));
            }
        }
    }

    /// Ingests every triple from an iterator.
    pub fn add_triples<'t>(&mut self, triples: impl IntoIterator<Item = &'t Triple>) {
        for t in triples {
            self.add_triple(t);
        }
    }

    /// Adds a resource-to-resource fact `r(subject, object)`.
    pub fn add_fact(
        &mut self,
        subject: impl Into<Iri>,
        relation: impl Into<Iri>,
        object: impl Into<Iri>,
    ) {
        let s = self.intern(Term::Iri(subject.into()));
        let r = self.intern_relation(relation.into());
        let o = self.intern(Term::Iri(object.into()));
        self.facts.push((s, r, o));
    }

    /// Adds a resource-to-literal fact `r(subject, literal)`.
    pub fn add_literal_fact(
        &mut self,
        subject: impl Into<Iri>,
        relation: impl Into<Iri>,
        literal: Literal,
    ) {
        let s = self.intern(Term::Iri(subject.into()));
        let r = self.intern_relation(relation.into());
        let o = self.intern(Term::Literal(literal));
        self.facts.push((s, r, o));
    }

    /// Adds `rdf:type(instance, class)`.
    pub fn add_type(&mut self, instance: impl Into<Iri>, class: impl Into<Iri>) {
        let i = self.intern(Term::Iri(instance.into()));
        let c = self.intern(Term::Iri(class.into()));
        self.type_edges.push((i, c));
    }

    /// Adds `rdfs:subClassOf(sub, super)`.
    pub fn add_subclass(&mut self, sub: impl Into<Iri>, sup: impl Into<Iri>) {
        let s = self.intern(Term::Iri(sub.into()));
        let p = self.intern(Term::Iri(sup.into()));
        self.subclass_edges.push((s, p));
    }

    /// Adds `rdfs:subPropertyOf(sub, super)`.
    pub fn add_subproperty(&mut self, sub: impl Into<Iri>, sup: impl Into<Iri>) {
        let s = self.intern_relation(sub.into());
        let p = self.intern_relation(sup.into());
        self.subproperty_edges.push((s, p));
    }

    /// Number of raw facts ingested so far (before closure/dedup).
    pub fn num_raw_facts(&self) -> usize {
        self.facts.len()
    }

    /// Freezes the builder into an immutable, fully-indexed [`Kb`].
    pub fn build(self) -> Kb {
        self.build_with_functionality(FunctionalityVariant::HarmonicMean)
    }

    /// Freezes with an alternative functionality definition (Appendix A).
    pub fn build_with_functionality(mut self, variant: FunctionalityVariant) -> Kb {
        // 1. Deductive closure of rdfs:subPropertyOf: r ⊑ s adds s(x,y)
        //    for every r(x,y).
        let prop_closure = close_taxonomy(
            self.relation_names.len(),
            self.subproperty_edges
                .iter()
                .map(|&(a, b)| (a as usize, b as usize)),
        );
        let mut closed_facts = self.facts.clone();
        for &(s, r, o) in &self.facts {
            for &sup in &prop_closure[r as usize] {
                closed_facts.push((s, sup as u32, o));
            }
        }

        // 2. Per-relation pair lists, sorted and deduplicated.
        let mut pairs: Vec<Vec<(EntityId, EntityId)>> = vec![Vec::new(); self.relation_names.len()];
        for (s, r, o) in closed_facts {
            pairs[r as usize].push((s, o));
        }
        for list in &mut pairs {
            list.sort_unstable();
            list.dedup();
        }

        // 3. Both-direction adjacency.
        let adj = adjacency(self.terms.len(), &pairs);

        // 4. Entity kinds: literals were known at intern time; classes are
        //    everything in class position of rdf:type / rdfs:subClassOf.
        let mut kinds: Vec<EntityKind> = self
            .terms
            .iter()
            .map(|t| {
                if t.is_literal() {
                    EntityKind::Literal
                } else {
                    EntityKind::Instance
                }
            })
            .collect();
        for &(_, c) in &self.type_edges {
            kinds[c.index()] = EntityKind::Class;
        }
        for &(a, b) in &self.subclass_edges {
            kinds[a.index()] = EntityKind::Class;
            kinds[b.index()] = EntityKind::Class;
        }
        let classes: Vec<EntityId> = (0..self.terms.len())
            .map(EntityId::from_index)
            .filter(|&e| kinds[e.index()] == EntityKind::Class)
            .collect();

        // 5. Class taxonomy closure: class → strict superclasses.
        let class_pos: FxHashMap<EntityId, usize> =
            classes.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let sub_edges: Vec<(usize, usize)> = self
            .subclass_edges
            .iter()
            .filter_map(|&(a, b)| Some((*class_pos.get(&a)?, *class_pos.get(&b)?)))
            .collect();
        let tax_closure = close_taxonomy(classes.len(), sub_edges.iter().copied());
        let mut superclasses: FxHashMap<EntityId, Vec<EntityId>> = FxHashMap::default();
        for (i, sups) in tax_closure.iter().enumerate() {
            if !sups.is_empty() {
                superclasses.insert(
                    classes[i],
                    sups.iter().map(|&s| classes[s]).collect::<Vec<_>>(),
                );
            }
        }

        // 6. Deductive closure of rdf:type: membership propagates to all
        //    superclasses.
        self.type_edges.sort_unstable();
        self.type_edges.dedup();
        let mut types_of: FxHashMap<EntityId, Vec<EntityId>> = FxHashMap::default();
        for &(x, c) in &self.type_edges {
            let entry = types_of.entry(x).or_default();
            entry.push(c);
            if let Some(&pos) = class_pos.get(&c) {
                entry.extend(tax_closure[pos].iter().map(|&s| classes[s]));
            }
        }
        let mut class_members: FxHashMap<EntityId, Vec<EntityId>> = FxHashMap::default();
        for (x, cs) in &mut types_of {
            cs.sort_unstable();
            cs.dedup();
            for &c in cs.iter() {
                class_members.entry(c).or_default().push(*x);
            }
        }
        for ms in class_members.values_mut() {
            ms.sort_unstable();
            ms.dedup();
        }

        let mut kb = Kb {
            name: self.name,
            terms: self.terms,
            kinds,
            term_index: self.term_index,
            relation_names: self.relation_names,
            relation_index: self.relation_index,
            adj,
            pairs,
            classes,
            class_members,
            types_of,
            superclasses,
            fun: Vec::new(),
        };
        kb.fun = compute_functionalities(&kb, variant);
        kb
    }
}

/// Convenience: parse an N-Triples document and build a KB from it.
pub fn kb_from_ntriples(name: &str, doc: &str) -> Result<Kb, paris_rdf::RdfError> {
    let triples = paris_rdf::ntriples::Parser::parse_all(doc)?;
    let mut b = KbBuilder::new(name);
    b.add_triples(&triples);
    Ok(b.build())
}

/// Convenience: load an RDF file and build a KB from it. Files ending in
/// `.ttl` / `.turtle` are parsed as Turtle, everything else as N-Triples
/// (which Turtle subsumes, so `.nt` always works).
pub fn kb_from_file(
    name: &str,
    path: impl AsRef<std::path::Path>,
) -> Result<Kb, paris_rdf::RdfError> {
    let path = path.as_ref();
    let is_turtle = path
        .extension()
        .and_then(|e| e.to_str())
        .is_some_and(|e| e.eq_ignore_ascii_case("ttl") || e.eq_ignore_ascii_case("turtle"));
    let triples = if is_turtle {
        paris_rdf::turtle::parse_turtle_file(path)?
    } else {
        paris_rdf::ntriples::parse_file(path)?
    };
    let mut b = KbBuilder::new(name);
    b.add_triples(&triples);
    Ok(b.build())
}

/// Convenience: parse a Turtle document and build a KB from it.
pub fn kb_from_turtle(name: &str, doc: &str) -> Result<Kb, paris_rdf::RdfError> {
    let triples = paris_rdf::turtle::parse_turtle(doc)?;
    let mut b = KbBuilder::new(name);
    b.add_triples(&triples);
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EntityKind;

    fn small_kb() -> Kb {
        let mut b = KbBuilder::new("test");
        b.add_fact("http://x/Elvis", "http://x/bornIn", "http://x/Tupelo");
        b.add_literal_fact("http://x/Elvis", "http://x/name", Literal::plain("Elvis"));
        b.add_type("http://x/Elvis", "http://x/Singer");
        b.add_subclass("http://x/Singer", "http://x/Person");
        b.add_subclass("http://x/Person", "http://x/Agent");
        b.build()
    }

    #[test]
    fn kinds_are_partitioned() {
        let kb = small_kb();
        let elvis = kb.entity_by_iri("http://x/Elvis").unwrap();
        let singer = kb.entity_by_iri("http://x/Singer").unwrap();
        assert_eq!(kb.kind(elvis), EntityKind::Instance);
        assert_eq!(kb.kind(singer), EntityKind::Class);
        assert_eq!(kb.num_literals(), 1);
        assert_eq!(kb.num_classes(), 3);
        assert_eq!(kb.num_instances(), 2); // Elvis, Tupelo
    }

    #[test]
    fn adjacency_contains_both_directions() {
        let kb = small_kb();
        let elvis = kb.entity_by_iri("http://x/Elvis").unwrap();
        let tupelo = kb.entity_by_iri("http://x/Tupelo").unwrap();
        let born_in = kb.relation_by_iri("http://x/bornIn").unwrap();
        assert!(kb.facts(elvis).contains(&(born_in, tupelo)));
        assert!(kb.facts(tupelo).contains(&(born_in.inverse(), elvis)));
    }

    #[test]
    fn type_closure_reaches_all_superclasses() {
        let kb = small_kb();
        let elvis = kb.entity_by_iri("http://x/Elvis").unwrap();
        let types: Vec<_> = kb
            .types_of(elvis)
            .iter()
            .map(|&c| kb.iri(c).unwrap().local_name())
            .collect();
        assert_eq!(types.len(), 3, "Singer, Person, Agent: {types:?}");
        let agent = kb.entity_by_iri("http://x/Agent").unwrap();
        assert_eq!(kb.members(agent), &[elvis]);
    }

    #[test]
    fn subclass_closure_is_transitive() {
        let kb = small_kb();
        let singer = kb.entity_by_iri("http://x/Singer").unwrap();
        let agent = kb.entity_by_iri("http://x/Agent").unwrap();
        assert!(kb.is_subclass_of(singer, agent));
        assert!(kb.is_subclass_of(singer, singer), "reflexive");
        assert!(!kb.is_subclass_of(agent, singer));
    }

    #[test]
    fn subproperty_closure_adds_facts() {
        let mut b = KbBuilder::new("t");
        b.add_fact("http://x/a", "http://x/hasCapital", "http://x/b");
        b.add_subproperty("http://x/hasCapital", "http://x/contains");
        let kb = b.build();
        let a = kb.entity_by_iri("http://x/a").unwrap();
        let b_ = kb.entity_by_iri("http://x/b").unwrap();
        let contains = kb.relation_by_iri("http://x/contains").unwrap();
        assert!(kb.facts(a).contains(&(contains, b_)));
        assert_eq!(kb.num_facts(), 2);
    }

    #[test]
    fn duplicate_facts_are_deduplicated() {
        let mut b = KbBuilder::new("t");
        b.add_fact("http://x/a", "http://x/r", "http://x/b");
        b.add_fact("http://x/a", "http://x/r", "http://x/b");
        let kb = b.build();
        assert_eq!(kb.num_facts(), 1);
    }

    #[test]
    fn triple_dispatch_interprets_vocab() {
        use paris_rdf::ntriples::Parser;
        let doc = r#"
<http://x/e> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/C> .
<http://x/C> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://x/D> .
<http://x/r> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://x/s> .
<http://x/e> <http://x/r> <http://x/f> .
"#;
        let triples = Parser::parse_all(doc).unwrap();
        let mut b = KbBuilder::new("t");
        b.add_triples(&triples);
        let kb = b.build();
        assert_eq!(kb.num_classes(), 2);
        let e = kb.entity_by_iri("http://x/e").unwrap();
        assert_eq!(kb.types_of(e).len(), 2);
        // the fact got both r and its superproperty s
        assert_eq!(kb.facts(e).len(), 2);
    }

    #[test]
    fn cyclic_taxonomy_does_not_hang() {
        let mut b = KbBuilder::new("t");
        b.add_subclass("http://x/A", "http://x/B");
        b.add_subclass("http://x/B", "http://x/A");
        b.add_type("http://x/e", "http://x/A");
        let kb = b.build();
        let e = kb.entity_by_iri("http://x/e").unwrap();
        assert_eq!(kb.types_of(e).len(), 2);
    }

    #[test]
    fn kb_from_ntriples_works() {
        let kb = kb_from_ntriples("t", "<http://s> <http://p> \"lit\" .\n").unwrap();
        assert_eq!(kb.num_facts(), 1);
        assert_eq!(kb.num_literals(), 1);
    }

    #[test]
    fn same_literal_interns_once() {
        let mut b = KbBuilder::new("t");
        b.add_literal_fact("http://x/a", "http://x/name", Literal::plain("x"));
        b.add_literal_fact("http://x/b", "http://x/name", Literal::plain("x"));
        let kb = b.build();
        assert_eq!(kb.num_literals(), 1);
    }
}
