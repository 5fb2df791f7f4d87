//! Determinism guarantees: identical runs produce identical alignments,
//! thread count does not affect results, and θ does not affect the final
//! assignment (§6.3 experiment 1).

use paris_repro::datagen::{movies, restaurants, MoviesConfig, RestaurantsConfig};
use paris_repro::kb::{EntityId, RelationId};
use paris_repro::paris::{Aligner, AlignmentResult, ParisConfig};

fn assignments(result: &AlignmentResult<'_>) -> Vec<Option<(EntityId, f64)>> {
    result.instances.maximal_assignment()
}

#[test]
fn identical_runs_are_bit_identical() {
    let pair = restaurants::generate(&RestaurantsConfig::default());
    let a = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
    let b = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
    assert_eq!(assignments(&a), assignments(&b));
    assert_eq!(a.iterations.len(), b.iterations.len());
    assert_eq!(a.subrelations.num_entries(), b.subrelations.num_entries());
}

#[test]
fn thread_count_does_not_change_results() {
    let pair = restaurants::generate(&RestaurantsConfig::default());
    let seq = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default().with_threads(1)).run();
    let par = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default().with_threads(4)).run();
    assert_eq!(assignments(&seq), assignments(&par));
}

/// Every stored score of a run, as bits: all instance candidate rows and
/// both directions of the sub-relation rows.
type ScoreBits = (
    Vec<Vec<(EntityId, u64)>>,
    Vec<(RelationId, RelationId, u64)>,
    Vec<(RelationId, RelationId, u64)>,
);

fn score_bits(result: &AlignmentResult<'_>, n1: usize) -> ScoreBits {
    let instances = (0..n1)
        .map(|i| {
            result
                .instances
                .candidates(EntityId::from_index(i))
                .iter()
                .map(|&(e, p)| (e, p.to_bits()))
                .collect()
        })
        .collect();
    let subrel = |it: &mut dyn Iterator<Item = (RelationId, RelationId, f64)>| {
        it.map(|(a, b, p)| (a, b, p.to_bits())).collect::<Vec<_>>()
    };
    (
        instances,
        subrel(&mut result.subrelations.alignments_1to2()),
        subrel(&mut result.subrelations.alignments_2to1()),
    )
}

/// On a movies pair — whose year literals are hubs, each shared by dozens
/// of statements — every instance row and every sub-relation row is
/// bit-identical at 1, 2 and 4 threads, not just the maximal assignment.
#[test]
fn thread_count_does_not_change_any_score_bit() {
    let pair = movies::generate(&MoviesConfig {
        num_movies: 600,
        ..MoviesConfig::default()
    });
    let n1 = pair.kb1.num_entities();
    let run = |threads| {
        let config = ParisConfig::default().with_threads(threads);
        let result = Aligner::new(&pair.kb1, &pair.kb2, config).run();
        (score_bits(&result, n1), result.iterations.len())
    };
    let (reference, iterations) = run(1);
    assert!(
        reference.0.iter().filter(|row| !row.is_empty()).count() > 100,
        "the pair must align"
    );
    assert!(!reference.1.is_empty() && !reference.2.is_empty());
    for threads in [2, 4] {
        let (bits, its) = run(threads);
        assert_eq!(its, iterations, "{threads} threads: iteration count");
        assert!(
            bits.0 == reference.0,
            "{threads} threads: instance rows differ"
        );
        assert_eq!(
            bits.1, reference.1,
            "{threads} threads: KB1→KB2 relation rows"
        );
        assert_eq!(
            bits.2, reference.2,
            "{threads} threads: KB2→KB1 relation rows"
        );
    }
}

#[test]
fn theta_does_not_change_final_assignment() {
    // §6.3 experiment 1, as a regression test on a smaller dataset.
    let pair = restaurants::generate(&RestaurantsConfig {
        num_matched: 60,
        ..RestaurantsConfig::default()
    });
    let reference: Vec<Option<EntityId>> = {
        let r = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
        assignments(&r)
            .into_iter()
            .map(|a| a.map(|(e, _)| e))
            .collect()
    };
    for theta in [0.001, 0.01, 0.05, 0.2] {
        let r = Aligner::new(
            &pair.kb1,
            &pair.kb2,
            ParisConfig::default().with_theta(theta),
        )
        .run();
        let got: Vec<Option<EntityId>> = assignments(&r)
            .into_iter()
            .map(|a| a.map(|(e, _)| e))
            .collect();
        assert_eq!(reference, got, "θ = {theta} changed the assignment");
    }
}

#[test]
fn different_seeds_produce_different_data_same_quality() {
    let a = restaurants::generate(&RestaurantsConfig {
        seed: 1,
        ..Default::default()
    });
    let b = restaurants::generate(&RestaurantsConfig {
        seed: 2,
        ..Default::default()
    });
    // The structural sizes are seed-independent; the literal content is not.
    assert_ne!(
        paris_repro::kb::export::to_ntriples(&a.kb1),
        paris_repro::kb::export::to_ntriples(&b.kb1)
    );

    for pair in [&a, &b] {
        let result = Aligner::new(&pair.kb1, &pair.kb2, ParisConfig::default()).run();
        let counts = paris_repro::eval::evaluate_instances(&result, &pair.gold);
        assert!(counts.f1() > 0.8, "seed robustness: {counts:?}");
    }
}
