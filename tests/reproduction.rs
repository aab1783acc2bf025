//! Reproduction smoke tests: on a small generated corpus, the qualitative
//! results of the paper's evaluation must hold — WWT beats Basic, the
//! segmented similarity beats the unsegmented one, and the consolidated
//! answers under predicted mappings track the true-mapping answers.

use wwt::core::InferenceAlgorithm;
use wwt::corpus::{workload, CorpusConfig, CorpusGenerator, QuerySpec};
use wwt::engine::{bind_corpus, evaluate_query, evaluate_workload, BoundCorpus, Method, WwtConfig};

fn bound_for(prefixes: &[&str]) -> (BoundCorpus, Vec<QuerySpec>) {
    let specs: Vec<QuerySpec> = workload()
        .into_iter()
        .filter(|s| {
            let q = s.query.to_string();
            prefixes.iter().any(|p| q.starts_with(p))
        })
        .collect();
    assert_eq!(specs.len(), prefixes.len(), "all prefixes must resolve");
    let corpus = CorpusGenerator::new(CorpusConfig {
        scale: 0.25,
        ..CorpusConfig::small()
    })
    .generate_for(&specs);
    (bind_corpus(&corpus, WwtConfig::default()), specs)
}

#[test]
fn wwt_beats_basic_on_mixed_workload() {
    let (bound, specs) = bound_for(&[
        "country | currency",
        "black metal bands",
        "chemical element",
        "us states | capitals",
    ]);
    let wwt = evaluate_workload(
        &bound,
        &specs,
        Method::Wwt(InferenceAlgorithm::TableCentric),
        2,
    );
    let basic = evaluate_workload(&bound, &specs, Method::Basic, 2);
    let avg = |evals: &[wwt::engine::QueryEvaluation]| -> f64 {
        evals.iter().map(|e| e.f1_error).sum::<f64>() / evals.len() as f64
    };
    assert!(
        avg(&wwt) <= avg(&basic) + 1e-9,
        "WWT {:.1} must not lose to Basic {:.1}",
        avg(&wwt),
        avg(&basic)
    );
}

#[test]
fn segmented_similarity_beats_unsegmented() {
    // "Nobel prize winners"-style split evidence is where segmentation
    // pays; average over a few queries to avoid noise.
    let (bound, specs) = bound_for(&[
        "Nobel prize winners",
        "north american mountains",
        "name of explorers",
    ]);
    let mut seg = 0.0;
    let mut unseg = 0.0;
    for spec in &specs {
        seg += evaluate_query(&bound, spec, Method::Wwt(InferenceAlgorithm::TableCentric)).f1_error;
        unseg += evaluate_query(&bound, spec, Method::WwtUnsegmented).f1_error;
    }
    assert!(
        seg <= unseg + 1e-9,
        "segmented {seg:.1} must not lose to unsegmented {unseg:.1}"
    );
}

#[test]
fn all_inference_algorithms_satisfy_constraints() {
    let (bound, specs) = bound_for(&["food | fat | protein"]);
    for alg in [
        InferenceAlgorithm::Independent,
        InferenceAlgorithm::TableCentric,
        InferenceAlgorithm::AlphaExpansion,
        InferenceAlgorithm::BeliefPropagation,
        InferenceAlgorithm::Trws,
    ] {
        let eval = evaluate_query(&bound, &specs[0], Method::Wwt(alg));
        for lab in &eval.labelings {
            assert!(
                lab.satisfies_constraints(3, 2),
                "{alg:?} violated table constraints: {:?}",
                lab.labels
            );
        }
    }
}

#[test]
fn probe_statistics_reasonable() {
    let (bound, specs) = bound_for(&["country | gdp", "movies | gross"]);
    for spec in &specs {
        let retrieval = bound.engine.retrieve(&spec.query).unwrap();
        assert!(
            !retrieval.stage1.is_empty(),
            "stage-1 probe must find candidates"
        );
    }
}
