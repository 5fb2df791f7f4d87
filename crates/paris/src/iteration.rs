//! The PARIS fixed-point driver (paper §5.1).
//!
//! "First, we compute the probabilities of equivalences of instances.
//! Then, we compute the probabilities for sub-relationships. These two
//! steps are iterated until convergence. In a last step, the equivalences
//! between classes are computed … from the final assignment. To bootstrap
//! the algorithm in the very first step, we set Pr(r ⊆ r′) = θ."
//!
//! Functionalities are computed once per ontology up front (they live on
//! the [`Kb`]); literal equivalences are clamped once up front (the
//! [`LiteralBridge`]); convergence is declared when fewer than
//! `convergence_change` of the instances change their maximal assignment.

use paris_kb::{EntityId, Kb};
use paris_obs::trace::{AlignEvent, NullSink, TraceSink};
use paris_rdf::Iri;

use crate::config::ParisConfig;
use crate::equiv::{best_of, CandidateView, EquivStore};
use crate::instance::instance_pass;
use crate::literal_bridge::LiteralBridge;
use crate::subclass::{subclass_pass, ClassAlignment};
use crate::subrel::{subrelation_pass, SubrelStore};

/// Measurements of one fixed-point iteration (one row of the paper's
/// Tables 3 and 5).
#[derive(Clone, Debug)]
pub struct IterationStats {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Instances whose maximal assignment differs from the previous
    /// iteration.
    pub changed: usize,
    /// `changed` relative to the number of currently assigned instances
    /// (the paper's "change to previous" column).
    pub changed_fraction: f64,
    /// Non-zero instance equivalences stored after this iteration.
    pub instance_equivalences: usize,
    /// KB-1 instances that have at least one candidate.
    pub assigned_instances: usize,
    /// Stored sub-relation score entries (both directions).
    pub subrelation_entries: usize,
    /// Wall-clock seconds of the instance pass.
    pub instance_seconds: f64,
    /// Wall-clock seconds of the two sub-relation passes.
    pub subrelation_seconds: f64,
}

/// The complete output of a PARIS run.
pub struct AlignmentResult<'a> {
    /// The first (source) ontology.
    pub kb1: &'a Kb,
    /// The second (target) ontology.
    pub kb2: &'a Kb,
    /// Final instance-equivalence probabilities.
    pub instances: EquivStore,
    /// Final sub-relation scores (both directions).
    pub subrelations: SubrelStore,
    /// Class-inclusion scores (both directions), computed from the final
    /// assignment.
    pub classes: ClassAlignment,
    /// Per-iteration measurements, in order.
    pub iterations: Vec<IterationStats>,
    /// Number of clamped literal-equivalence pairs.
    pub literal_pairs: usize,
    /// Wall-clock seconds of the final class pass.
    pub class_seconds: f64,
    /// The convergence threshold the run was configured with.
    pub(crate) convergence_change_used: f64,
    /// The full configuration of the run (needed to rebuild candidate
    /// views for explanations).
    pub(crate) config: ParisConfig,
}

impl AlignmentResult<'_> {
    /// The final maximal assignment restricted to instances:
    /// `(x, x′, Pr)` triples, one per assigned KB-1 instance.
    pub fn instance_pairs(&self) -> Vec<(EntityId, EntityId, f64)> {
        self.kb1
            .instances()
            .filter_map(|x| best_of(self.instances.candidates(x)).map(|(x2, p)| (x, x2, p)))
            .collect()
    }

    /// Looks up the maximal assignment of one KB-1 instance by IRI.
    pub fn instance_alignment_by_iri(&self, iri: &str) -> Option<Iri> {
        let x = self.kb1.entity_by_iri(iri)?;
        let row = self.instances.candidates(x);
        let best = row
            .iter()
            .copied()
            .reduce(|a, b| if b.1 > a.1 { b } else { a })?;
        self.kb2.iri(best.0).cloned()
    }

    /// Explains why the final run scores `iri1 ≡ iri2` (or would): the
    /// individual Eq. 13 evidence factors, strongest first. Returns
    /// `None` when either IRI is unknown. See
    /// [`Explanation::render`](crate::explain::Explanation::render) for a
    /// printable form.
    pub fn explain(&self, iri1: &str, iri2: &str) -> Option<crate::explain::Explanation> {
        let x = self.kb1.entity_by_iri(iri1)?;
        let x2 = self.kb2.entity_by_iri(iri2)?;
        let bridge = LiteralBridge::build(self.kb1, self.kb2, &self.config.literal_similarity);
        let view = forward_view(self.kb1, &self.instances, &bridge, &self.config, true);
        Some(crate::explain::explain_pair(
            self.kb1,
            self.kb2,
            x,
            x2,
            &view,
            &self.subrelations,
            &self.config,
        ))
    }

    /// Renders the final instance alignment as `owl:sameAs` statements —
    /// the Semantic Web interlinking format the paper's introduction
    /// motivates. Only alignments with probability ≥ `threshold` are
    /// emitted, one triple per assigned KB-1 instance.
    pub fn sameas_triples(&self, threshold: f64) -> Vec<paris_rdf::Triple> {
        self.instance_pairs()
            .into_iter()
            .filter(|&(_, _, p)| p >= threshold)
            .filter_map(|(x, x2, _)| {
                Some(paris_rdf::Triple::new(
                    self.kb1.iri(x)?.clone(),
                    paris_rdf::vocab::OWL_SAME_AS,
                    self.kb2.iri(x2)?.clone(),
                ))
            })
            .collect()
    }

    /// Sub-relation alignments KB1 → KB2 above `threshold`, best target
    /// first, rendered with relation names (`name` / `name⁻`).
    pub fn relation_alignments_1to2(&self, threshold: f64) -> Vec<(String, String, f64)> {
        let mut out: Vec<(String, String, f64)> = self
            .subrelations
            .alignments_1to2()
            .filter(|&(_, _, p)| p >= threshold)
            .map(|(r1, r2, p)| {
                (
                    self.kb1.relation_display(r1),
                    self.kb2.relation_display(r2),
                    p,
                )
            })
            .collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Sub-relation alignments KB2 → KB1 above `threshold`.
    pub fn relation_alignments_2to1(&self, threshold: f64) -> Vec<(String, String, f64)> {
        let mut out: Vec<(String, String, f64)> = self
            .subrelations
            .alignments_2to1()
            .filter(|&(_, _, p)| p >= threshold)
            .map(|(r2, r1, p)| {
                (
                    self.kb2.relation_display(r2),
                    self.kb1.relation_display(r1),
                    p,
                )
            })
            .collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Convergence: did the run stop because fewer than the configured
    /// fraction of instances changed their maximal assignment (as opposed
    /// to hitting the iteration cap)?
    pub fn converged(&self) -> bool {
        self.iterations.len() > 1
            && self
                .iterations
                .last()
                .is_some_and(|s| s.changed_fraction < self.convergence_change_used)
    }
}

/// Aligns two knowledge bases with PARIS.
///
/// ```
/// use paris_core::{Aligner, ParisConfig};
/// use paris_kb::KbBuilder;
/// use paris_rdf::Literal;
///
/// let mut a = KbBuilder::new("left");
/// a.add_literal_fact("http://a/alice", "http://a/email", Literal::plain("alice@x.org"));
/// let mut b = KbBuilder::new("right");
/// b.add_literal_fact("http://b/asmith", "http://b/mail", Literal::plain("alice@x.org"));
/// let (kb1, kb2) = (a.build(), b.build());
///
/// let result = Aligner::new(&kb1, &kb2, ParisConfig::default()).run();
/// assert_eq!(
///     result.instance_alignment_by_iri("http://a/alice").unwrap().as_str(),
///     "http://b/asmith",
/// );
/// ```
pub struct Aligner<'a> {
    kb1: &'a Kb,
    kb2: &'a Kb,
    config: ParisConfig,
}

impl<'a> Aligner<'a> {
    /// Creates an aligner over two frozen KBs.
    pub fn new(kb1: &'a Kb, kb2: &'a Kb, config: ParisConfig) -> Self {
        Aligner { kb1, kb2, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ParisConfig {
        &self.config
    }

    /// Runs to convergence (or the iteration cap) and computes the final
    /// class alignment.
    pub fn run(&self) -> AlignmentResult<'a> {
        self.run_with_progress(|_| {})
    }

    /// Like [`run`](Self::run), invoking `progress` after every iteration —
    /// used by the benches to print per-iteration table rows.
    pub fn run_with_progress(&self, progress: impl FnMut(&IterationStats)) -> AlignmentResult<'a> {
        self.run_inner(progress, &NullSink, None, None, None)
    }

    /// Like [`run`](Self::run), emitting one [`AlignEvent`] per fixpoint
    /// iteration to `sink` — the observability form of the paper's
    /// per-iteration tables (dirty rows, assignment churn, score
    /// movement, elapsed time).
    pub fn run_traced(&self, sink: &dyn TraceSink) -> AlignmentResult<'a> {
        self.run_inner(|_| {}, sink, None, None, None)
    }

    /// Like [`run_traced`](Self::run_traced), additionally recording a
    /// span tree into `collector`: one `iteration` span per fixpoint
    /// round (hung under `parent`) with `instance_pass` /
    /// `subrelation_pass` children carrying entity counts and dirty-set
    /// sizes, plus a final `class_pass` span. The collector can be
    /// snapshotted live mid-run, which is how `GET /v1/jobs/<id>`
    /// surfaces alignment progress.
    pub fn run_spanned(
        &self,
        sink: &dyn TraceSink,
        collector: &paris_obs::span::SpanCollector,
        parent: paris_obs::span::SpanId,
    ) -> AlignmentResult<'a> {
        self.run_inner(|_| {}, sink, Some(collector), Some(parent), None)
    }

    /// Like [`run_spanned`](Self::run_spanned), additionally pushing one
    /// [`paris_obs::series::IterationStats`] point per fixpoint round
    /// into `series`: dirty count, assignment churn, pair turnover
    /// (new/dropped assignments), the per-mille distribution of
    /// assignment probabilities, and per-pass durations. The series can
    /// be snapshotted concurrently — it is the live convergence curve
    /// `GET /v1/jobs/<id>` renders while the job runs.
    pub fn run_observed(
        &self,
        sink: &dyn TraceSink,
        collector: &paris_obs::span::SpanCollector,
        parent: paris_obs::span::SpanId,
        series: &paris_obs::series::RunSeries,
    ) -> AlignmentResult<'a> {
        self.run_inner(|_| {}, sink, Some(collector), Some(parent), Some(series))
    }

    fn run_inner(
        &self,
        mut progress: impl FnMut(&IterationStats),
        sink: &dyn TraceSink,
        collector: Option<&paris_obs::span::SpanCollector>,
        span_parent: Option<paris_obs::span::SpanId>,
        series: Option<&paris_obs::series::RunSeries>,
    ) -> AlignmentResult<'a> {
        let (kb1, kb2, config) = (self.kb1, self.kb2, &self.config);
        // Every iteration span hangs under `span_parent` (the caller's
        // enclosing span) or, absent one, directly under the collector
        // root.
        let spanner = collector.map(|c| (c, span_parent.unwrap_or(c.root().span)));
        let bridge = LiteralBridge::build(kb1, kb2, &config.literal_similarity);
        let literal_pairs = bridge.num_pairs();

        let mut equiv = EquivStore::new(kb1.num_entities(), kb2.num_entities());
        let mut subrel = SubrelStore::bootstrap(
            config.theta,
            kb1.num_directed_relations(),
            kb2.num_directed_relations(),
        );
        let mut iterations = Vec::new();
        let mut prev_score_sum = 0.0f64;
        // Whether `equiv`'s probabilities were computed with informed
        // (non-bootstrap) sub-relation scores — gates Eq. 14.
        let mut equiv_informed = false;

        for iteration in 1..=config.max_iterations {
            let mut iter_span = spanner.map(|(c, parent)| {
                let mut s = c.begin_child("iteration", parent);
                s.attr_int("iteration", iteration as u64);
                s
            });

            // ---- instance pass (uses the previous iteration's equalities)
            let mut pass_span = match (spanner, &iter_span) {
                (Some((c, _)), Some(i)) => Some(c.begin_child("instance_pass", i.id)),
                _ => None,
            };
            let t0 = paris_obs::span::now_ns();
            let cand = forward_view(kb1, &equiv, &bridge, config, equiv_informed);
            let mut rows = instance_pass(kb1, kb2, &cand, &subrel, config);
            let damping = config.damping_at(iteration);
            if damping > 0.0 {
                blend_rows(&mut rows, &equiv, damping, config.truncation);
            }
            let new_equiv = EquivStore::from_rows(rows, kb2.num_entities());
            let instance_seconds = paris_obs::span::seconds_since(t0);

            let changed = equiv.assignment_changes(&new_equiv);
            // The previous assignment is only materialized when someone
            // is watching the series — `run()`'s cost is unchanged.
            let prev_assignment = series.map(|_| equiv.maximal_assignment());
            let assignment = new_equiv.maximal_assignment();
            let assigned = assignment.iter().filter(|a| a.is_some()).count();
            let score_sum: f64 = assignment.iter().flatten().map(|&(_, p)| p).sum();
            equiv = new_equiv;
            equiv_informed = !subrel.is_bootstrap();
            if let (Some((c, _)), Some(mut s)) = (spanner, pass_span.take()) {
                // A full pass rescores every KB-1 entity: that *is* the
                // dirty set.
                s.attr_int("dirty", kb1.num_entities() as u64);
                s.attr_int("changed", changed as u64);
                s.attr_int("assigned", assigned as u64);
                s.attr_int("equivalences", equiv.num_pairs() as u64);
                c.finish(s);
            }

            // ---- sub-relation passes (use the fresh equalities)
            let mut pass_span = match (spanner, &iter_span) {
                (Some((c, _)), Some(i)) => Some(c.begin_child("subrelation_pass", i.id)),
                _ => None,
            };
            let t1 = paris_obs::span::now_ns();
            let cand_fwd = forward_view(kb1, &equiv, &bridge, config, equiv_informed);
            let one = subrelation_pass(kb1, kb2, &cand_fwd, config);
            let cand_rev = reverse_view(kb2, &equiv, &bridge, config, equiv_informed);
            let two = subrelation_pass(kb2, kb1, &cand_rev, config);
            subrel = SubrelStore::from_rows(one, two);
            let subrelation_seconds = paris_obs::span::seconds_since(t1);
            if let (Some((c, _)), Some(mut s)) = (spanner, pass_span.take()) {
                s.attr_int("entries", subrel.num_entries() as u64);
                c.finish(s);
            }

            let stats = IterationStats {
                iteration,
                changed,
                changed_fraction: changed as f64 / assigned.max(1) as f64,
                instance_equivalences: equiv.num_pairs(),
                assigned_instances: assigned,
                subrelation_entries: subrel.num_entries(),
                instance_seconds,
                subrelation_seconds,
            };
            if let Some(series) = series {
                let (mut new_pairs, mut dropped_pairs) = (0u64, 0u64);
                if let Some(prev) = &prev_assignment {
                    for (p, n) in prev.iter().zip(assignment.iter()) {
                        match (p.is_some(), n.is_some()) {
                            (false, true) => new_pairs += 1,
                            (true, false) => dropped_pairs += 1,
                            _ => {}
                        }
                    }
                }
                series.push(paris_obs::series::IterationStats {
                    iteration,
                    dirty: kb1.num_entities() as u64,
                    changed: changed as u64,
                    new_pairs,
                    dropped_pairs,
                    assigned: assigned as u64,
                    scores: paris_obs::series::score_histogram(
                        assignment.iter().flatten().map(|&(_, p)| p),
                    ),
                    instance_us: (instance_seconds * 1e6) as u64,
                    subrelation_us: (subrelation_seconds * 1e6) as u64,
                });
            }
            // Convergence is the paper's criterion — the maximal
            // assignment stopped changing — strengthened by requiring the
            // assignment *scores* to have stabilized as well: after
            // iteration 1 the scores are still θ-scaled, so a tiny θ
            // would otherwise look converged one round too early even
            // though the next round (with computed sub-relation scores)
            // still adds matches. This is what makes the §6.3
            // θ-independence hold for extreme θ.
            let scores_stable = prev_score_sum > 0.0
                && (score_sum - prev_score_sum).abs() / prev_score_sum
                    < config.convergence_change.max(1e-6);
            // A full pass has no per-row dirty deltas; the relative
            // movement of the total assignment score is its score-delta
            // signal (the same quantity convergence watches).
            let score_delta = (score_sum - prev_score_sum).abs() / prev_score_sum.max(1.0);
            prev_score_sum = score_sum;
            let done = iteration > 1
                && stats.changed_fraction < config.convergence_change
                && scores_stable;
            progress(&stats);
            sink.event(&AlignEvent {
                phase: "align",
                iteration,
                dirty: kb1.num_entities(),
                churn: changed,
                max_delta: score_delta,
                elapsed_secs: stats.instance_seconds + stats.subrelation_seconds,
            });
            iterations.push(stats);
            if let (Some((c, _)), Some(mut s)) = (spanner, iter_span.take()) {
                s.attr_int("churn", changed as u64);
                s.attr_f64("score_delta", score_delta);
                c.finish(s);
            }
            if done {
                break;
            }
        }

        // ---- final class pass (§5.1: "in a last step")
        let mut class_span = spanner.map(|(c, parent)| c.begin_child("class_pass", parent));
        let t2 = paris_obs::span::now_ns();
        let classes = subclass_pass(kb1, kb2, &equiv, config);
        let class_seconds = paris_obs::span::seconds_since(t2);
        if let (Some((c, _)), Some(mut s)) = (spanner, class_span.take()) {
            s.attr_int("classes_kb1", kb1.num_classes() as u64);
            s.attr_int("classes_kb2", kb2.num_classes() as u64);
            c.finish(s);
        }

        AlignmentResult {
            kb1,
            kb2,
            instances: equiv,
            subrelations: subrel,
            classes,
            iterations,
            literal_pairs,
            class_seconds,
            convergence_change_used: config.convergence_change,
            config: config.clone(),
        }
    }
}

/// Blends freshly computed equivalence rows with the previous iteration's
/// scores: `(1 − d)·new + d·old` over the union of candidates (a candidate
/// absent from one side contributes 0 there). Scores falling below the
/// truncation threshold are dropped, as everywhere else.
fn blend_rows(
    rows: &mut [Vec<(EntityId, f64)>],
    previous: &EquivStore,
    damping: f64,
    truncation: f64,
) {
    use paris_kb::FxHashMap;
    let mut merged: FxHashMap<EntityId, f64> = FxHashMap::default();
    for (i, row) in rows.iter_mut().enumerate() {
        let old = previous.candidates(EntityId::from_index(i));
        if old.is_empty() {
            for (_, p) in row.iter_mut() {
                *p *= 1.0 - damping;
            }
            row.retain(|&(_, p)| p >= truncation);
            continue;
        }
        merged.clear();
        for &(e, p) in row.iter() {
            merged.insert(e, (1.0 - damping) * p);
        }
        for &(e, p) in old {
            *merged.entry(e).or_insert(0.0) += damping * p;
        }
        row.clear();
        row.extend(
            merged
                .iter()
                .filter(|&(_, &p)| p >= truncation)
                .map(|(&e, &p)| (e, p)),
        );
        row.sort_unstable_by_key(|&(e, _)| e);
    }
}

/// KB1 → KB2 candidates: previous instance equalities (maximal assignment
/// unless `propagate_all_equalities`, §5.2) merged with the literal bridge.
pub(crate) fn forward_view(
    kb1: &Kb,
    equiv: &EquivStore,
    bridge: &LiteralBridge,
    config: &ParisConfig,
    informed: bool,
) -> CandidateView {
    let rows = kb1
        .entities()
        .map(|x| view_row(equiv.candidates(x), bridge.candidates(x), config))
        .collect();
    if informed {
        CandidateView::new(rows)
    } else {
        CandidateView::uninformed(rows)
    }
}

/// KB2 → KB1 candidates (for the reverse sub-relation pass).
pub(crate) fn reverse_view(
    kb2: &Kb,
    equiv: &EquivStore,
    bridge: &LiteralBridge,
    config: &ParisConfig,
    informed: bool,
) -> CandidateView {
    let rows = kb2
        .entities()
        .map(|x2| view_row(equiv.candidates_rev(x2), bridge.candidates_rev(x2), config))
        .collect();
    if informed {
        CandidateView::new(rows)
    } else {
        CandidateView::uninformed(rows)
    }
}

/// One entity's row of a candidate view, from its stored equalities and
/// its literal-bridge row.
pub(crate) fn view_row(
    equalities: &[(EntityId, f64)],
    literals: &[(EntityId, f64)],
    config: &ParisConfig,
) -> Vec<(EntityId, f64)> {
    if !literals.is_empty() {
        literals.to_vec()
    } else if config.propagate_all_equalities {
        equalities.to_vec()
    } else {
        best_of(equalities).into_iter().collect()
    }
}

#[cfg(test)]
mod blend_tests {
    use super::*;

    fn e(i: usize) -> EntityId {
        EntityId::from_index(i)
    }

    /// `run_spanned` yields the same alignment as `run` and records one
    /// parent-linked span tree per iteration plus a final class pass.
    #[test]
    fn run_spanned_records_iteration_trees() {
        use paris_obs::span::{SpanCollector, SpanContext};
        use paris_rdf::Literal;

        let mut a = paris_kb::KbBuilder::new("left");
        a.add_literal_fact(
            "http://a/alice",
            "http://a/email",
            Literal::plain("alice@x.org"),
        );
        let mut b = paris_kb::KbBuilder::new("right");
        b.add_literal_fact(
            "http://b/asmith",
            "http://b/mail",
            Literal::plain("alice@x.org"),
        );
        let (kb1, kb2) = (a.build(), b.build());
        let aligner = Aligner::new(&kb1, &kb2, ParisConfig::default());

        let collector = SpanCollector::new(SpanContext::new_root());
        let root = collector.root();
        let result = aligner.run_spanned(&NullSink, &collector, root.span);
        assert_eq!(
            result
                .instance_alignment_by_iri("http://a/alice")
                .unwrap()
                .as_str(),
            "http://b/asmith"
        );

        let spans = collector.snapshot();
        let iters: Vec<_> = spans.iter().filter(|s| s.name == "iteration").collect();
        assert_eq!(iters.len(), result.iterations.len());
        for iter in &iters {
            assert_eq!(iter.parent, Some(root.span));
            assert!(iter.end_ns >= iter.start_ns);
            let passes: Vec<_> = spans.iter().filter(|s| s.parent == Some(iter.id)).collect();
            assert!(
                passes.iter().any(|s| s.name == "instance_pass"),
                "{passes:?}"
            );
            assert!(
                passes.iter().any(|s| s.name == "subrelation_pass"),
                "{passes:?}"
            );
            // The instance pass reports its dirty set (all KB-1 entities).
            let instance = passes.iter().find(|s| s.name == "instance_pass").unwrap();
            assert!(instance.attrs.iter().any(|(k, v)| *k == "dirty"
                && *v == paris_obs::span::AttrValue::Int(kb1.num_entities() as u64)));
        }
        let class = spans
            .iter()
            .find(|s| s.name == "class_pass")
            .expect("class pass span");
        assert_eq!(class.parent, Some(root.span));
        // Every span shares the collector's trace.
        assert!(spans.iter().all(|s| s.trace == root.trace));
    }

    /// `run_observed` fills the convergence series: one point per
    /// iteration, scores per-mille, pair turnover consistent with the
    /// paper-table stats.
    #[test]
    fn run_observed_fills_the_series() {
        use paris_obs::series::RunSeries;
        use paris_obs::span::{SpanCollector, SpanContext};
        use paris_rdf::Literal;

        let mut a = paris_kb::KbBuilder::new("left");
        let mut b = paris_kb::KbBuilder::new("right");
        for i in 0..5 {
            a.add_literal_fact(
                format!("http://a/p{i}"),
                "http://a/email",
                Literal::plain(format!("p{i}@x.org")),
            );
            b.add_literal_fact(
                format!("http://b/q{i}"),
                "http://b/mail",
                Literal::plain(format!("p{i}@x.org")),
            );
        }
        let (kb1, kb2) = (a.build(), b.build());
        let aligner = Aligner::new(&kb1, &kb2, ParisConfig::default());
        let collector = SpanCollector::new(SpanContext::new_root());
        let series = RunSeries::new();
        let result = aligner.run_observed(&NullSink, &collector, collector.root().span, &series);

        let points = series.snapshot();
        assert_eq!(points.len(), result.iterations.len());
        for (point, stats) in points.iter().zip(&result.iterations) {
            assert_eq!(point.iteration, stats.iteration);
            assert_eq!(point.changed, stats.changed as u64);
            assert_eq!(point.assigned, stats.assigned_instances as u64);
            assert_eq!(point.dirty, kb1.num_entities() as u64);
            assert_eq!(point.scores.count, stats.assigned_instances as u64);
            assert!(point.scores.max <= 1000);
        }
        // Iteration 1 assigns everything fresh: all pairs are new.
        assert_eq!(points[0].new_pairs, points[0].assigned);
        assert_eq!(points[0].dropped_pairs, 0);
        // The run matches the unobserved one.
        assert_eq!(
            result
                .instance_alignment_by_iri("http://a/p3")
                .unwrap()
                .as_str(),
            "http://b/q3"
        );
    }

    #[test]
    fn blend_mixes_old_and_new() {
        let previous = EquivStore::from_rows(vec![vec![(e(0), 0.8)]], 2);
        let mut rows = vec![vec![(e(0), 0.4)]];
        blend_rows(&mut rows, &previous, 0.5, 0.0);
        assert!((rows[0][0].1 - 0.6).abs() < 1e-12, "{rows:?}");
    }

    #[test]
    fn blend_keeps_vanished_candidates_decayed() {
        // The fresh pass dropped the candidate; damping keeps a decayed
        // trace of the old score, which is exactly what suppresses
        // flip-flopping assignments.
        let previous = EquivStore::from_rows(vec![vec![(e(1), 0.9)]], 2);
        let mut rows = vec![vec![]];
        blend_rows(&mut rows, &previous, 0.5, 0.1);
        assert_eq!(rows[0], vec![(e(1), 0.45)]);
    }

    #[test]
    fn blend_scales_new_candidates_without_history() {
        let previous = EquivStore::new(1, 2);
        let mut rows = vec![vec![(e(0), 0.8)]];
        blend_rows(&mut rows, &previous, 0.25, 0.1);
        assert!((rows[0][0].1 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn blend_respects_truncation() {
        let previous = EquivStore::new(1, 2);
        let mut rows = vec![vec![(e(0), 0.15)]];
        blend_rows(&mut rows, &previous, 0.5, 0.1);
        assert!(rows[0].is_empty(), "0.075 < truncation 0.1: {rows:?}");
    }

    #[test]
    fn zero_damping_never_invoked() {
        let config = ParisConfig::default();
        assert_eq!(config.damping_at(1), 0.0);
        assert_eq!(config.damping_at(5), 0.0);
        let damped = ParisConfig::default().with_damping(0.6);
        assert_eq!(damped.damping_at(1), 0.0);
        assert!((damped.damping_at(2) - 0.3).abs() < 1e-12);
        assert!(damped.damping_at(10) < 0.6);
    }
}
