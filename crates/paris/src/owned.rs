//! Borrow-free alignment results and aligned-pair snapshots.
//!
//! [`AlignmentResult`] borrows the two KBs it was
//! computed from, which is ideal inside one process but useless for
//! persistence: a serving daemon wants to load "two KBs plus their
//! alignment" as one self-contained value. [`OwnedAlignment`] detaches
//! the result — the equivalence, sub-relation, and class stores hold only
//! dense ids, so cloning them severs every borrow — and
//! [`AlignedPairSnapshot`] bundles it with the owned KBs and round-trips
//! the whole thing through the binary snapshot format of
//! [`paris_kb::snapshot`] (kind = `AlignedPair`).

use std::path::Path;

use paris_kb::snapshot::{
    decode_kb, encode_kb, read_file, write_file, PayloadReader, PayloadWriter, SnapshotError,
    SnapshotKind,
};
use paris_kb::{EntityId, Kb, RelationId, Rows};
use paris_rdf::Iri;

use crate::equiv::EquivStore;
use crate::iteration::{AlignmentResult, IterationStats};
use crate::subclass::{ClassAlignment, ClassScore};
use crate::subrel::SubrelStore;

/// A PARIS result detached from its KB borrows.
///
/// All stores are id-based, so the value is self-contained; pair it with
/// the KBs it was computed from (checked loosely via entity counts when
/// decoding) to render IRIs and relation names.
#[derive(Clone, Debug)]
pub struct OwnedAlignment {
    /// Final instance-equivalence probabilities.
    pub instances: EquivStore,
    /// Final sub-relation scores (both directions).
    pub subrelations: SubrelStore,
    /// Class-inclusion scores (both directions).
    pub classes: ClassAlignment,
    /// Number of clamped literal-equivalence pairs.
    pub literal_pairs: usize,
    /// Per-iteration measurements of the producing run.
    pub iterations: Vec<IterationStats>,
    /// Whether the producing run converged (vs. hitting the cap).
    pub converged: bool,
    /// Number of directed relations in KB 1 (sizes the sub-relation rows).
    pub kb1_directed_relations: usize,
    /// Number of directed relations in KB 2.
    pub kb2_directed_relations: usize,
}

impl OwnedAlignment {
    /// Detaches a borrowed result into an owned value.
    pub fn from_result(result: &AlignmentResult<'_>) -> Self {
        OwnedAlignment {
            instances: result.instances.clone(),
            subrelations: result.subrelations.clone(),
            classes: result.classes.clone(),
            literal_pairs: result.literal_pairs,
            iterations: result.iterations.clone(),
            converged: result.converged(),
            kb1_directed_relations: result.kb1.num_directed_relations(),
            kb2_directed_relations: result.kb2.num_directed_relations(),
        }
    }

    /// The final maximal assignment restricted to instances:
    /// `(x, x′, Pr)` triples, one per assigned KB-1 instance.
    pub fn instance_pairs(&self, kb1: &Kb) -> Vec<(EntityId, EntityId, f64)> {
        let assign = self.instances.maximal_assignment();
        kb1.instances()
            .filter_map(|x| assign[x.index()].map(|(x2, p)| (x, x2, p)))
            .collect()
    }

    /// The best KB-2 match of a KB-1 entity, with its probability.
    pub fn best_match(&self, x: EntityId) -> Option<(EntityId, f64)> {
        self.instances
            .candidates(x)
            .iter()
            .copied()
            .reduce(|a, b| if b.1 > a.1 { b } else { a })
    }

    /// The best KB-1 match of a KB-2 entity, with its probability.
    pub fn best_match_rev(&self, x2: EntityId) -> Option<(EntityId, f64)> {
        self.instances
            .candidates_rev(x2)
            .iter()
            .copied()
            .reduce(|a, b| if b.1 > a.1 { b } else { a })
    }

    /// Looks up the maximal assignment of one KB-1 instance by IRI.
    pub fn instance_alignment_by_iri(&self, kb1: &Kb, kb2: &Kb, iri: &str) -> Option<Iri> {
        let x = kb1.entity_by_iri(iri)?;
        let (x2, _) = self.best_match(x)?;
        kb2.iri(x2).cloned()
    }

    /// Sub-relation alignments KB1 → KB2 above `threshold`, rendered with
    /// relation names, best first.
    pub fn relation_alignments_1to2(
        &self,
        kb1: &Kb,
        kb2: &Kb,
        threshold: f64,
    ) -> Vec<(String, String, f64)> {
        let mut out: Vec<(String, String, f64)> = self
            .subrelations
            .alignments_1to2()
            .filter(|&(_, _, p)| p >= threshold)
            .map(|(r1, r2, p)| (kb1.relation_display(r1), kb2.relation_display(r2), p))
            .collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Total number of stored (non-zero) instance equivalences.
    pub fn num_instance_pairs(&self) -> usize {
        self.instances.num_pairs()
    }

    // ------------------------------------------------------------------
    // Binary encoding
    // ------------------------------------------------------------------

    /// Appends the alignment body to a payload.
    pub fn encode(&self, w: &mut PayloadWriter) {
        // Equivalences: forward rows (the backward index is derived).
        w.put_u64(self.instances.len_kb1() as u64);
        w.put_u64(self.instances.len_kb2() as u64);
        for i in 0..self.instances.len_kb1() {
            let row = self.instances.candidates(EntityId::from_index(i));
            w.put_u64(row.len() as u64);
            for &(e, p) in row {
                w.put_u32(e.0);
                w.put_f64(p);
            }
        }

        // Sub-relation scores, both directions, keyed by directed index.
        for (count, entries) in [
            (
                self.kb1_directed_relations,
                self.subrelations.alignments_1to2().collect::<Vec<_>>(),
            ),
            (
                self.kb2_directed_relations,
                self.subrelations.alignments_2to1().collect::<Vec<_>>(),
            ),
        ] {
            w.put_u64(count as u64);
            w.put_u64(entries.len() as u64);
            for (r, r2, p) in entries {
                w.put_u32(r.0);
                w.put_u32(r2.0);
                w.put_f64(p);
            }
        }

        // Class scores, both directions.
        for scores in [&self.classes.one_to_two, &self.classes.two_to_one] {
            w.put_u64(scores.len() as u64);
            for s in scores {
                w.put_u32(s.sub.0);
                w.put_u32(s.sup.0);
                w.put_f64(s.prob);
                w.put_u64(s.sampled_members as u64);
            }
        }

        // Run metadata.
        w.put_u64(self.literal_pairs as u64);
        w.put_u8(u8::from(self.converged));
        w.put_u64(self.iterations.len() as u64);
        for s in &self.iterations {
            w.put_u64(s.iteration as u64);
            w.put_u64(s.changed as u64);
            w.put_f64(s.changed_fraction);
            w.put_u64(s.instance_equivalences as u64);
            w.put_u64(s.assigned_instances as u64);
            w.put_u64(s.subrelation_entries as u64);
            w.put_f64(s.instance_seconds);
            w.put_f64(s.subrelation_seconds);
        }
    }

    /// Decodes an alignment body written by [`encode`](Self::encode),
    /// validating every id and table size against the KBs the alignment
    /// belongs to — a corrupt (but checksum-valid) file yields a
    /// [`SnapshotError`], never an oversized allocation or a later panic.
    pub fn decode(r: &mut PayloadReader<'_>, kb1: &Kb, kb2: &Kb) -> Result<Self, SnapshotError> {
        let n1 = r.get_len()?;
        let n2 = r.get_len()?;
        if n1 != kb1.num_entities() || n2 != kb2.num_entities() {
            return Err(SnapshotError::corrupt(format!(
                "alignment covers {n1}×{n2} entities but KBs have {}×{}",
                kb1.num_entities(),
                kb2.num_entities(),
            )));
        }
        let mut rows = Rows::default();
        let mut row = Vec::new();
        for _ in 0..n1 {
            let len = r.get_len()?;
            row.clear();
            for _ in 0..len {
                let e = r.get_u32()?;
                if e as usize >= n2 {
                    return Err(SnapshotError::corrupt(format!(
                        "candidate id {e} out of range"
                    )));
                }
                row.push((EntityId(e), r.get_f64()?));
            }
            rows.push_row(&row);
        }
        let instances = EquivStore::from_packed(rows, n2);

        // Sub-relation tables: the stored directed counts must match the
        // KBs exactly, and every target relation id must be in range on
        // the opposite side.
        let expected = [kb1.num_directed_relations(), kb2.num_directed_relations()];
        let mut directions: Vec<Vec<Vec<(RelationId, f64)>>> = Vec::with_capacity(2);
        for (side, &count_expected) in expected.iter().enumerate() {
            let count = r.get_u64()? as usize;
            if count != count_expected {
                return Err(SnapshotError::corrupt(format!(
                    "sub-relation table sized for {count} directed relations, KB has {count_expected}"
                )));
            }
            let dst_bound = expected[1 - side];
            let mut dir: Vec<Vec<(RelationId, f64)>> = vec![Vec::new(); count];
            let entries = r.get_len()?;
            for _ in 0..entries {
                let src = r.get_u32()? as usize;
                let dst = r.get_u32()?;
                let p = r.get_f64()?;
                if dst as usize >= dst_bound {
                    return Err(SnapshotError::corrupt(format!(
                        "target relation id {dst} out of range ({dst_bound})"
                    )));
                }
                let row = dir.get_mut(src).ok_or_else(|| {
                    SnapshotError::corrupt(format!("relation id {src} out of range ({count})"))
                })?;
                row.push((RelationId(dst), p));
            }
            directions.push(dir);
        }
        let two_to_one = directions.pop().expect("two directions pushed");
        let one_to_two = directions.pop().expect("two directions pushed");
        let subrelations = SubrelStore::from_rows(one_to_two, two_to_one);

        // Class tables: sub lives in the direction's source KB, sup in
        // its target KB.
        let mut class_dirs: Vec<Vec<ClassScore>> = Vec::with_capacity(2);
        for bounds in [(n1, n2), (n2, n1)] {
            let (sub_bound, sup_bound) = bounds;
            let count = r.get_len()?;
            let mut scores = Vec::with_capacity(count);
            for _ in 0..count {
                let sub = r.get_u32()?;
                let sup = r.get_u32()?;
                if sub as usize >= sub_bound || sup as usize >= sup_bound {
                    return Err(SnapshotError::corrupt(format!(
                        "class score ids ({sub}, {sup}) out of range ({sub_bound}, {sup_bound})"
                    )));
                }
                scores.push(ClassScore {
                    sub: EntityId(sub),
                    sup: EntityId(sup),
                    prob: r.get_f64()?,
                    sampled_members: r.get_u64()? as usize,
                });
            }
            class_dirs.push(scores);
        }
        let two_to_one = class_dirs.pop().expect("two class directions pushed");
        let one_to_two = class_dirs.pop().expect("two class directions pushed");
        let classes = ClassAlignment {
            one_to_two,
            two_to_one,
        };

        let literal_pairs = r.get_u64()? as usize;
        let converged = r.get_u8()? != 0;
        let num_iterations = r.get_len()?;
        let mut iterations = Vec::with_capacity(num_iterations);
        for _ in 0..num_iterations {
            iterations.push(IterationStats {
                iteration: r.get_u64()? as usize,
                changed: r.get_u64()? as usize,
                changed_fraction: r.get_f64()?,
                instance_equivalences: r.get_u64()? as usize,
                assigned_instances: r.get_u64()? as usize,
                subrelation_entries: r.get_u64()? as usize,
                instance_seconds: r.get_f64()?,
                subrelation_seconds: r.get_f64()?,
            });
        }

        Ok(OwnedAlignment {
            instances,
            subrelations,
            classes,
            literal_pairs,
            iterations,
            converged,
            kb1_directed_relations: expected[0],
            kb2_directed_relations: expected[1],
        })
    }
}

impl AlignmentResult<'_> {
    /// Detaches this result from its KB borrows.
    pub fn detach(&self) -> OwnedAlignment {
        OwnedAlignment::from_result(self)
    }
}

/// Two knowledge bases plus their alignment, as one self-contained,
/// persistable value — what `paris serve` answers queries from.
#[derive(Debug)]
pub struct AlignedPairSnapshot {
    /// The first (source) ontology.
    pub kb1: Kb,
    /// The second (target) ontology.
    pub kb2: Kb,
    /// The computed alignment between them.
    pub alignment: OwnedAlignment,
}

impl AlignedPairSnapshot {
    /// Bundles owned KBs with their alignment.
    pub fn new(kb1: Kb, kb2: Kb, alignment: OwnedAlignment) -> Self {
        AlignedPairSnapshot {
            kb1,
            kb2,
            alignment,
        }
    }

    /// Serializes into framed snapshot bytes (kind `AlignedPair`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = PayloadWriter::new();
        encode_kb(&self.kb1, &mut payload);
        encode_kb(&self.kb2, &mut payload);
        self.alignment.encode(&mut payload);
        let mut out = Vec::new();
        paris_kb::snapshot::write_payload(&mut out, SnapshotKind::AlignedPair, payload.bytes())
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Writes an aligned-pair snapshot file (atomically).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let mut payload = PayloadWriter::new();
        encode_kb(&self.kb1, &mut payload);
        encode_kb(&self.kb2, &mut payload);
        self.alignment.encode(&mut payload);
        write_file(path, SnapshotKind::AlignedPair, payload.bytes())
    }

    /// Decodes and validates an in-memory v1 aligned-pair image.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let (kind, payload) = paris_kb::snapshot::read_payload(&mut &bytes[..])?;
        Self::decode_pair(kind, &payload)
    }

    /// Loads and validates an aligned-pair snapshot file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let (kind, payload) = read_file(path)?;
        Self::decode_pair(kind, &payload)
    }

    fn decode_pair(kind: SnapshotKind, payload: &[u8]) -> Result<Self, SnapshotError> {
        if kind != SnapshotKind::AlignedPair {
            return Err(SnapshotError::corrupt(format!(
                "expected an aligned-pair snapshot, found a {}",
                kind.name()
            )));
        }
        let mut r = PayloadReader::new(payload);
        let kb1 = decode_kb(&mut r)?;
        let kb2 = decode_kb(&mut r)?;
        // decode() cross-validates every table size and id against the KBs.
        let alignment = OwnedAlignment::decode(&mut r, &kb1, &kb2)?;
        if !r.is_exhausted() {
            return Err(SnapshotError::corrupt(
                "trailing bytes after alignment body",
            ));
        }
        Ok(AlignedPairSnapshot {
            kb1,
            kb2,
            alignment,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParisConfig;
    use crate::iteration::Aligner;
    use paris_kb::KbBuilder;
    use paris_rdf::Literal;

    fn aligned_pair() -> (Kb, Kb) {
        let mut a = KbBuilder::new("left");
        let mut b = KbBuilder::new("right");
        for i in 0..6 {
            a.add_literal_fact(
                format!("http://a/p{i}"),
                "http://a/email",
                Literal::plain(format!("p{i}@x.org")),
            );
            a.add_fact(
                format!("http://a/p{i}"),
                "http://a/livesIn",
                format!("http://a/c{}", i % 2),
            );
            a.add_type(format!("http://a/p{i}"), "http://a/Person");
            b.add_literal_fact(
                format!("http://b/q{i}"),
                "http://b/mail",
                Literal::plain(format!("p{i}@x.org")),
            );
            b.add_fact(
                format!("http://b/q{i}"),
                "http://b/city",
                format!("http://b/d{}", i % 2),
            );
            b.add_type(format!("http://b/q{i}"), "http://b/Human");
        }
        (a.build(), b.build())
    }

    #[test]
    fn detach_preserves_queries() {
        let (kb1, kb2) = aligned_pair();
        let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
        let owned = result.detach();
        for i in 0..6 {
            let iri = format!("http://a/p{i}");
            assert_eq!(
                owned.instance_alignment_by_iri(&kb1, &kb2, &iri),
                result.instance_alignment_by_iri(&iri),
                "{iri}"
            );
        }
        assert_eq!(owned.instance_pairs(&kb1), result.instance_pairs());
        assert_eq!(owned.literal_pairs, result.literal_pairs);
        assert_eq!(owned.converged, result.converged());
    }

    #[test]
    fn pair_snapshot_round_trips() {
        let (kb1, kb2) = aligned_pair();
        let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
        let owned = result.detach();
        let expected_pairs = result.instance_pairs();
        let expected_rel = result.relation_alignments_1to2(0.1);
        drop(result);

        let snap = AlignedPairSnapshot::new(kb1, kb2, owned);
        let path = std::env::temp_dir().join("paris_owned_unit_test.snap");
        snap.save(&path).unwrap();
        let loaded = AlignedPairSnapshot::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.kb1.name(), "left");
        assert_eq!(loaded.kb2.name(), "right");
        assert_eq!(loaded.alignment.instance_pairs(&loaded.kb1), expected_pairs);
        assert_eq!(
            loaded
                .alignment
                .relation_alignments_1to2(&loaded.kb1, &loaded.kb2, 0.1),
            expected_rel
        );
        assert_eq!(
            loaded.alignment.classes.one_to_two,
            snap.alignment.classes.one_to_two
        );
        assert_eq!(
            loaded.alignment.iterations.len(),
            snap.alignment.iterations.len()
        );
    }

    #[test]
    fn mismatched_kbs_are_rejected_at_decode() {
        let (kb1, kb2) = aligned_pair();
        let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
        let owned = result.detach();
        drop(result);

        let mut payload = paris_kb::snapshot::PayloadWriter::new();
        owned.encode(&mut payload);

        // Decoding against KBs the alignment was not computed for must
        // fail cleanly rather than produce out-of-range ids.
        let other = {
            let mut b = KbBuilder::new("other");
            b.add_fact("http://o/x", "http://o/r", "http://o/y");
            b.build()
        };
        let mut r = PayloadReader::new(payload.bytes());
        let err = OwnedAlignment::decode(&mut r, &kb1, &other).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");

        // And the right pair still decodes.
        let mut r = PayloadReader::new(payload.bytes());
        let again = OwnedAlignment::decode(&mut r, &kb1, &kb2).unwrap();
        assert_eq!(again.num_instance_pairs(), owned.num_instance_pairs());
    }

    #[test]
    fn kb_snapshot_is_not_a_pair() {
        let (kb1, _) = aligned_pair();
        let path = std::env::temp_dir().join("paris_owned_kind_test.snap");
        paris_kb::snapshot::save_kb(&kb1, &path).unwrap();
        let err = AlignedPairSnapshot::load(&path).unwrap_err();
        assert!(
            err.to_string()
                .contains("expected an aligned-pair snapshot"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
