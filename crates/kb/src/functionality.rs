//! Global functionality of relations (paper §3, Eq. 1–2, and Appendix A).
//!
//! The *local* functionality of `r` at `x` is `1 / #y : r(x, y)` (Eq. 1).
//! The paper's chosen *global* functionality is the harmonic mean of the
//! local functionalities, which collapses to (Eq. 2):
//!
//! ```text
//! fun(r) = #x ∃y : r(x, y)  /  #x,y : r(x, y)
//! ```
//!
//! Appendix A discusses four design alternatives; all are implemented here
//! behind [`FunctionalityVariant`] so the `functionality_ablation` bench can
//! compare them. The inverse functionality `fun⁻¹(r)` is always
//! `fun(r⁻¹)`, i.e. the same computation over swapped pairs.

use crate::ids::{EntityId, RelationId};
use crate::store::Kb;

/// Which global-functionality definition to use (Appendix A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum FunctionalityVariant {
    /// Appendix A #4/#5 — the paper's choice (Eq. 2): harmonic mean of the
    /// local functionalities, `#distinct first args / #pairs`.
    #[default]
    HarmonicMean,
    /// Appendix A #1: `#pairs / #(x, y, y′) same-source statement pairs`.
    /// "Very volatile to single sources that have a large number of
    /// targets."
    PairRatio,
    /// Appendix A #2: `#distinct first args / #distinct second args`,
    /// clamped to `[0, 1]`. "Treacherous": assigns functionality 1 to the
    /// all-pairs `likesDish` relation.
    ArgRatio,
    /// Appendix A #3: arithmetic mean of the local functionalities.
    /// "The local functionalities are ratios, so the arithmetic mean is
    /// less appropriate."
    ArithmeticMean,
}

impl FunctionalityVariant {
    /// All variants, for ablation sweeps.
    pub const ALL: [FunctionalityVariant; 4] = [
        FunctionalityVariant::HarmonicMean,
        FunctionalityVariant::PairRatio,
        FunctionalityVariant::ArgRatio,
        FunctionalityVariant::ArithmeticMean,
    ];

    /// Short display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FunctionalityVariant::HarmonicMean => "harmonic-mean",
            FunctionalityVariant::PairRatio => "pair-ratio",
            FunctionalityVariant::ArgRatio => "arg-ratio",
            FunctionalityVariant::ArithmeticMean => "arithmetic-mean",
        }
    }
}

/// Per-direction aggregate statistics of one relation's pair list.
struct DirectionStats {
    /// Number of distinct first arguments.
    distinct_sources: usize,
    /// `Σ_x n_x²` where `n_x` is the number of objects of `x`.
    sum_squared_fanout: f64,
    /// `Σ_x 1 / n_x`.
    sum_reciprocal_fanout: f64,
}

/// The statistics of one direction from its group sizes (the number of
/// second arguments of each distinct first argument).
fn direction_stats(group_sizes: impl Iterator<Item = usize>) -> DirectionStats {
    let mut distinct = 0;
    let mut sum_sq = 0.0;
    let mut sum_recip = 0.0;
    for n in group_sizes {
        let n = n as f64;
        distinct += 1;
        sum_sq += n * n;
        sum_recip += 1.0 / n;
    }
    DirectionStats {
        distinct_sources: distinct,
        sum_squared_fanout: sum_sq,
        sum_reciprocal_fanout: sum_recip,
    }
}

/// Computes the global functionality of one base relation under `variant`,
/// returning `(fun(r), fun(r⁻¹))`. A relation with no pairs gets `(1, 1)`
/// (it contributes no evidence anyway, and `1.0` keeps products
/// well-defined). Used both for the full up-front computation and to
/// refresh only touched relations after a
/// [`KbDelta`](crate::delta::KbDelta) is applied.
pub fn functionality_of(kb: &Kb, base: usize, variant: FunctionalityVariant) -> (f64, f64) {
    let fwd = RelationId::forward(base);
    let n_pairs = kb.num_pairs(fwd);
    if n_pairs == 0 {
        return (1.0, 1.0);
    }
    // The pair list is sorted, so each subject's pairs form one run; the
    // objects are sorted here to group them the same way. Groups are
    // visited in id order.
    let pairs = &kb.pairs[base];
    debug_assert!(pairs.is_sorted(), "pair lists are sorted");
    let mut objects: Vec<EntityId> = pairs.iter().map(|&(_, y)| y).collect();
    objects.sort_unstable();
    let s = direction_stats(pairs.chunk_by(|a, b| a.0 == b.0).map(<[_]>::len));
    let o = direction_stats(objects.chunk_by(|a, b| a == b).map(<[_]>::len));
    let n = n_pairs as f64;
    match variant {
        FunctionalityVariant::HarmonicMean => {
            (s.distinct_sources as f64 / n, o.distinct_sources as f64 / n)
        }
        FunctionalityVariant::PairRatio => (n / s.sum_squared_fanout, n / o.sum_squared_fanout),
        FunctionalityVariant::ArgRatio => {
            let r = s.distinct_sources as f64 / o.distinct_sources as f64;
            (r.min(1.0), (1.0 / r).min(1.0))
        }
        FunctionalityVariant::ArithmeticMean => (
            s.sum_reciprocal_fanout / s.distinct_sources as f64,
            o.sum_reciprocal_fanout / o.distinct_sources as f64,
        ),
    }
}

/// Computes the global functionality of every directed relation of `kb`.
///
/// The result is indexed by [`RelationId::directed_index`].
pub fn compute_functionalities(kb: &Kb, variant: FunctionalityVariant) -> Vec<f64> {
    let mut out = vec![1.0; kb.num_directed_relations()];
    for base in 0..kb.num_base_relations() {
        let fwd = RelationId::forward(base);
        let (f_fwd, f_inv) = functionality_of(kb, base, variant);
        out[fwd.directed_index()] = f_fwd;
        out[fwd.inverse().directed_index()] = f_inv;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KbBuilder;

    /// `r` maps a→{b}, c→{d, e}: 3 pairs, 2 sources, 3 targets.
    fn fanout_kb() -> Kb {
        let mut b = KbBuilder::new("t");
        b.add_fact("http://x/a", "http://x/r", "http://x/b");
        b.add_fact("http://x/c", "http://x/r", "http://x/d");
        b.add_fact("http://x/c", "http://x/r", "http://x/e");
        b.build()
    }

    #[test]
    fn harmonic_mean_matches_eq2() {
        let kb = fanout_kb();
        let r = kb.relation_by_iri("http://x/r").unwrap();
        // fun(r) = #sources / #pairs = 2/3
        assert!((kb.functionality(r) - 2.0 / 3.0).abs() < 1e-12);
        // fun⁻¹(r) = #targets / #pairs = 3/3 = 1 (all targets unique)
        assert!((kb.functionality(r.inverse()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_function_has_functionality_one() {
        let mut b = KbBuilder::new("t");
        for i in 0..10 {
            b.add_fact(
                format!("http://x/p{i}"),
                "http://x/bornIn",
                format!("http://x/city{}", i % 3),
            );
        }
        let kb = b.build();
        let r = kb.relation_by_iri("http://x/bornIn").unwrap();
        assert!((kb.functionality(r) - 1.0).abs() < 1e-12);
        // 3 distinct cities over 10 pairs
        assert!((kb.functionality(r.inverse()) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn pair_ratio_variant() {
        let kb = fanout_kb();
        let funs = kb.functionalities_with(FunctionalityVariant::PairRatio);
        let r = kb.relation_by_iri("http://x/r").unwrap();
        // Σ n_x² = 1² + 2² = 5; fun = 3/5
        assert!((funs[r.directed_index()] - 0.6).abs() < 1e-12);
        // all targets have fanin 1: Σ = 3; fun⁻¹ = 1
        assert!((funs[r.inverse().directed_index()] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arg_ratio_variant_is_clamped() {
        let kb = fanout_kb();
        let funs = kb.functionalities_with(FunctionalityVariant::ArgRatio);
        let r = kb.relation_by_iri("http://x/r").unwrap();
        // 2 sources / 3 targets
        assert!((funs[r.directed_index()] - 2.0 / 3.0).abs() < 1e-12);
        // inverse would be 3/2 — clamped to 1
        assert!((funs[r.inverse().directed_index()] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arg_ratio_likes_dish_pathology() {
        // Appendix A: everyone likes every dish → ArgRatio says 1,
        // HarmonicMean correctly says 1/n.
        let mut b = KbBuilder::new("t");
        for p in 0..4 {
            for d in 0..4 {
                b.add_fact(
                    format!("http://x/person{p}"),
                    "http://x/likesDish",
                    format!("http://x/dish{d}"),
                );
            }
        }
        let kb = b.build();
        let r = kb.relation_by_iri("http://x/likesDish").unwrap();
        let arg = kb.functionalities_with(FunctionalityVariant::ArgRatio);
        let harm = kb.functionalities_with(FunctionalityVariant::HarmonicMean);
        assert!(
            (arg[r.directed_index()] - 1.0).abs() < 1e-12,
            "pathological 1.0"
        );
        assert!(
            (harm[r.directed_index()] - 0.25).abs() < 1e-12,
            "harmonic 4/16"
        );
    }

    #[test]
    fn arithmetic_mean_variant() {
        let kb = fanout_kb();
        let funs = kb.functionalities_with(FunctionalityVariant::ArithmeticMean);
        let r = kb.relation_by_iri("http://x/r").unwrap();
        // locals: 1/1 and 1/2 → mean 0.75
        assert!((funs[r.directed_index()] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_exceeds_harmonic() {
        // AM–HM inequality: for any fanout distribution the arithmetic mean
        // of local functionalities dominates the harmonic mean.
        let kb = fanout_kb();
        let am = kb.functionalities_with(FunctionalityVariant::ArithmeticMean);
        let hm = kb.functionalities_with(FunctionalityVariant::HarmonicMean);
        let r = kb.relation_by_iri("http://x/r").unwrap();
        assert!(am[r.directed_index()] >= hm[r.directed_index()]);
    }

    #[test]
    fn all_variants_in_unit_interval() {
        let kb = fanout_kb();
        for v in FunctionalityVariant::ALL {
            for f in kb.functionalities_with(v) {
                assert!((0.0..=1.0).contains(&f), "{} out of range for {v:?}", f);
            }
        }
    }

    #[test]
    fn empty_relation_defaults_to_one() {
        // A relation that only appears via subPropertyOf but has no facts.
        let mut b = KbBuilder::new("t");
        b.add_subproperty("http://x/r", "http://x/s");
        let kb = b.build();
        for r in kb.directed_relations() {
            assert_eq!(kb.functionality(r), 1.0);
        }
    }

    #[test]
    fn variant_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            FunctionalityVariant::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
