//! In-memory knowledge-base substrate for the PARIS reproduction.
//!
//! The paper's implementation stored its ontologies in Berkeley DB on an
//! SSD and was "heavily IO-bound" (§5.2). This crate is the modern
//! equivalent substrate: a fully in-memory, interned, index-everything
//! store sized for the scaled-down synthetic datasets, providing exactly
//! the access paths the algorithm needs:
//!
//! * dense [`EntityId`]s / [`RelationId`]s (inverse encoded in the low bit),
//! * per-entity fact lists **in both directions** — the paper assumes "the
//!   ontology contains all inverse relations and their corresponding
//!   statements" (§3),
//! * per-relation pair lists for the sub-relation equations,
//! * deductive closure of `rdfs:subClassOf` / `rdfs:subPropertyOf` (§3),
//! * pre-computed global functionalities (Eq. 2) with all Appendix-A
//!   variants available for ablation.
//!
//! # Example
//!
//! ```
//! use paris_kb::KbBuilder;
//!
//! let mut b = KbBuilder::new("tiny");
//! b.add_fact("http://x/Elvis", "http://x/bornIn", "http://x/Tupelo");
//! b.add_fact("http://x/Carl", "http://x/bornIn", "http://x/Tupelo");
//! let kb = b.build();
//!
//! let born_in = kb.relation_by_iri("http://x/bornIn").unwrap();
//! assert_eq!(kb.functionality(born_in), 1.0);            // everyone: one birthplace
//! assert_eq!(kb.functionality(born_in.inverse()), 0.5);  // one city, two people
//! ```

pub mod arena;
pub mod builder;
pub mod closure;
pub mod delta;
pub mod delta_apply;
pub mod export;
pub mod functionality;
pub mod fxhash;
pub mod ids;
pub mod ingest;
pub mod rows;
pub mod snapshot;
pub mod snapshot_v2;
pub mod stats;
pub mod store;
pub mod tsv;
pub mod wire;

pub use arena::Arena;
pub use builder::{kb_from_file, kb_from_ntriples, kb_from_turtle, KbBuilder};
pub use delta::{AppliedDelta, DeltaError, KbDelta};
pub use functionality::FunctionalityVariant;
pub use fxhash::{FxHashMap, FxHashSet};
pub use ids::{EntityId, EntityKind, RelationId};
pub use ingest::{ingest_file, ingest_reader, IngestError, IngestOptions, IngestReport};
pub use rows::Rows;
pub use snapshot_v2::{KbLayout, KbView, MappedKbSnapshot, SnapshotArena};
pub use stats::KbStats;
pub use store::Kb;
