//! The seeded sequence of deltas the serve-update workload applies.
//!
//! Each delta touches about 0.5% of one side's facts, shaped like real
//! KB updates: a contiguous run of label updates (one removal plus one
//! addition each) and a few brand-new entities with one label each.
//!
//! Deltas come in pairs: the first renames a run of entities, the second
//! restores their labels, and the next pair picks another run at a
//! seeded position. So the served pair never drifts more than one delta
//! from the generated one, and every update costs about the same however
//! many came before — a run's median does not depend on how far it got.
//! Only labels change: updating a shared literal such as a birth year
//! moves a relation's functionality and with it most of the alignment,
//! which would make a few deltas cost ten times the others.

use std::collections::{HashMap, HashSet};

use crate::mix::Rng;
use crate::nt;

/// Share of a side's facts one delta touches.
pub const DELTA_FRACTION: f64 = 0.005;

/// One side's share of one delta, as N-Triples lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delta {
    pub add: Vec<String>,
    pub remove: Vec<String>,
    /// The first fresh entity this delta creates (without brackets).
    pub fresh: String,
}

impl Delta {
    /// Change in the side's fact count once applied.
    pub fn net_facts(&self) -> i64 {
        self.add.len() as i64 - self.remove.len() as i64
    }
}

/// Plans `count` consecutive deltas over the N-Triples `text` of one
/// side. `tag` names the side inside fresh IRIs and new values.
pub fn plan(text: &str, seed: u64, tag: &str, count: usize) -> Result<Vec<Delta>, String> {
    let mut facts = 0usize;
    let mut per_predicate: HashMap<&str, usize> = HashMap::new();
    let mut literal_facts = Vec::new();
    for l in nt::lines(text).filter(nt::Line::is_fact) {
        facts += 1;
        if l.has_literal_object() {
            *per_predicate.entry(l.predicate).or_default() += 1;
            literal_facts.push(l);
        }
    }
    // The label relation: the literal relation with the most facts (ties
    // broken by name, so the choice does not depend on hashing).
    let label = per_predicate
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(p, _)| *p)
        .ok_or_else(|| format!("{tag}: no literal facts to update"))?;
    let mut seen = HashSet::new();
    let labels: Vec<nt::Line> = literal_facts
        .into_iter()
        .filter(|l| l.predicate == label && seen.insert((l.subject, l.object)))
        .collect();
    let subject = nt::unbracket(labels[0].subject);
    let namespace = &subject[..subject.rfind(['/', '#']).map_or(0, |i| i + 1)];

    let budget = ((facts as f64 * DELTA_FRACTION) as usize).max(3);
    let fresh = (budget / 5).max(1);
    let updates = ((budget - fresh) / 2).clamp(1, labels.len());

    let stream = tag
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)));
    let mut rng = Rng::new(seed, stream);
    let mut deltas = Vec::with_capacity(count);
    let mut start = 0;
    for k in 0..count {
        let mut delta = Delta {
            add: Vec::with_capacity(fresh + updates),
            remove: Vec::with_capacity(updates),
            fresh: format!("{namespace}fresh-{tag}-s{seed}-d{k}-0"),
        };
        for j in 0..fresh {
            delta.add.push(format!(
                "<{namespace}fresh-{tag}-s{seed}-d{k}-{j}> {label} \"fresh {tag} entity {k}.{j}\" ."
            ));
        }
        let renames = k % 2 == 0;
        if renames {
            start = rng.below(labels.len());
        }
        for i in 0..updates {
            let l = labels[(start + i) % labels.len()];
            let renamed = format!("\"renamed {tag} s{seed} d{k} {i}\"");
            let (old, new) = if renames {
                (l.object.to_owned(), renamed)
            } else {
                (
                    format!("\"renamed {tag} s{seed} d{} {i}\"", k - 1),
                    l.object.to_owned(),
                )
            };
            delta.remove.push(format!("{} {label} {old} .", l.subject));
            delta.add.push(format!("{} {label} {new} .", l.subject));
        }
        deltas.push(delta);
    }
    Ok(deltas)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(n: usize) -> String {
        let mut text = String::new();
        for i in 0..n {
            text.push_str(&format!(
                "<http://kb.test/e{i}> {} <http://kb.test/C> .\n",
                nt::RDF_TYPE
            ));
            text.push_str(&format!(
                "<http://kb.test/e{i}> <http://kb.test/label> \"name {i}\" .\n"
            ));
            if i % 2 == 0 {
                text.push_str(&format!(
                    "<http://kb.test/e{i}> <http://kb.test/born> \"{}\" .\n",
                    1900 + i % 50
                ));
            }
            text.push_str(&format!(
                "<http://kb.test/e{i}> <http://kb.test/knows> <http://kb.test/e{}> .\n",
                (i + 1) % n
            ));
        }
        text
    }

    #[test]
    fn deltas_are_a_function_of_the_seed() {
        let text = side(2000);
        let a = plan(&text, 5, "left", 50).expect("plan");
        assert_eq!(a, plan(&text, 5, "left", 50).expect("plan"));
        assert_ne!(a, plan(&text, 6, "left", 50).expect("plan"));
    }

    #[test]
    fn deltas_rename_and_restore_labels_in_order() {
        let text = side(2000);
        // 5000 facts: a 25-change budget, 5 fresh entities + 10 updates.
        let deltas = plan(&text, 9, "left", 400).expect("plan");
        let base: HashSet<String> = nt::lines(&text)
            .filter(nt::Line::is_fact)
            .map(|l| format!("{} {} {} .", l.subject, l.predicate, l.object))
            .collect();
        let mut state = base.clone();
        for (k, d) in deltas.iter().enumerate() {
            assert_eq!(d.add.len() + d.remove.len(), 25);
            assert_eq!(d.net_facts(), 5);
            assert!(d.add[0].starts_with(&format!("<{}>", d.fresh)));
            for line in &d.remove {
                assert!(
                    line.contains("<http://kb.test/label>"),
                    "only labels change: {line}"
                );
                assert!(state.remove(line), "removes a fact the state holds: {line}");
            }
            for line in &d.add {
                assert!(state.insert(line.clone()), "adds a new fact: {line}");
            }
            if k % 2 == 1 {
                // Back to the generated facts plus the fresh entities.
                assert_eq!(state.len(), base.len() + 5 * (k + 1));
                assert!(base.iter().all(|f| state.contains(f)));
            }
        }
    }
}
