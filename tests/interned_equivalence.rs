//! The differential harness behind the interned query path: an engine
//! running the optimized path — term-id postings, dense top-k scoring,
//! bind-time precomputed table vectors — must produce **byte-identical**
//! wire responses to the oracle path that recomputes every table view
//! per query (`WwtConfig::precompute_views = false`), for every
//! algorithm, option draw, shard count and persistence round-trip.
//!
//! (The string-keyed *scoring* oracle — `HashMap` accumulation over raw
//! tokens — lives next to the scorer as a wwt-index unit test; this
//! harness covers everything above it, end to end.)
//!
//! Timing fields are zeroed before encoding (they are diagnostics of
//! *when*, not *what*); everything else must match to the byte. A
//! property-style loop drives per-request option draws from a
//! deterministic SplitMix64 stream, so failures reproduce.

use wwt::core::{InferenceAlgorithm, MapperConfig};
use wwt::corpus::{workload, CorpusConfig, CorpusGenerator, GeneratedCorpus};
use wwt::engine::{bind_corpus_sharded, Engine, QueryOptions, QueryRequest, WwtConfig};
use wwt::server::wire::encode_response;

const ALGORITHMS: [InferenceAlgorithm; 5] = [
    InferenceAlgorithm::Independent,
    InferenceAlgorithm::TableCentric,
    InferenceAlgorithm::AlphaExpansion,
    InferenceAlgorithm::BeliefPropagation,
    InferenceAlgorithm::Trws,
];

/// CI runs this suite twice: plain, and with `WWT_EARLY_EXIT=1` turning
/// the aggressive-pruning knob on for every request. The knob may change
/// results vs a knob-off run, but fast and oracle engines see identical
/// potentials, make identical pruning decisions, and must stay
/// byte-identical to *each other* either way.
fn knob_on() -> bool {
    std::env::var("WWT_EARLY_EXIT")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn corpus(n_queries: usize, scale: f64) -> (GeneratedCorpus, Vec<wwt::model::Query>) {
    let specs: Vec<_> = workload().into_iter().take(n_queries).collect();
    let generated = CorpusGenerator::new(CorpusConfig {
        scale,
        ..CorpusConfig::default()
    })
    .generate_for(&specs);
    let queries = specs.iter().map(|s| s.query.clone()).collect();
    (generated, queries)
}

/// The canonical wire bytes of a response, with wall-clock timings
/// zeroed.
fn canonical_bytes(request: &QueryRequest, engine: &Engine) -> String {
    let mut response = engine
        .answer(request)
        .expect("equivalence requests carry no deadline and valid options");
    response.diagnostics.timing = Default::default();
    if let Some(trace) = response.diagnostics.trace.as_mut() {
        trace.zero_timings();
    }
    encode_response(request, &response)
}

fn oracle_config(base: WwtConfig) -> WwtConfig {
    WwtConfig {
        precompute_views: false,
        ..base
    }
}

/// The optimized engine and its per-query-recompute oracle over one
/// corpus, at the given shard count.
fn engine_pair(generated: &GeneratedCorpus, config: WwtConfig, shards: usize) -> (Engine, Engine) {
    let fast = bind_corpus_sharded(generated, config.clone(), Some(shards)).engine;
    let oracle = bind_corpus_sharded(generated, oracle_config(config), Some(shards)).engine;
    (fast, oracle)
}

#[test]
fn every_algorithm_matches_the_per_query_oracle() {
    let (generated, queries) = corpus(4, 0.05);
    for shards in [1usize, 3] {
        let (fast, oracle) = engine_pair(&generated, WwtConfig::default(), shards);
        for query in &queries {
            for algorithm in ALGORITHMS {
                let request = QueryRequest::new(query.clone())
                    .algorithm(algorithm)
                    .early_exit(knob_on());
                assert_eq!(
                    canonical_bytes(&request, &oracle),
                    canonical_bytes(&request, &fast),
                    "interned-path drift at {shards} shard(s) for {request:?}"
                );
            }
        }
    }
}

#[test]
fn pmi_probes_match_the_oracle() {
    // PMI² drives the interned conjunctive doc-set probes (and their
    // bounded memo) harder than anything else.
    let (generated, queries) = corpus(2, 0.04);
    let config = WwtConfig {
        mapper: MapperConfig {
            use_pmi: true,
            ..MapperConfig::default()
        },
        ..WwtConfig::default()
    };
    let (fast, oracle) = engine_pair(&generated, config, 2);
    for query in &queries {
        let request = QueryRequest::new(query.clone()).early_exit(knob_on());
        assert_eq!(
            canonical_bytes(&request, &oracle),
            canonical_bytes(&request, &fast),
            "PMI drift for {request:?}"
        );
    }
    assert!(
        fast.docset_cache_entries() > 0,
        "PMI queries must populate the doc-set memo"
    );
}

#[test]
fn random_option_draws_match_the_oracle() {
    let (generated, queries) = corpus(3, 0.04);
    let (fast, oracle) = engine_pair(&generated, WwtConfig::default(), 1);
    let mut state = 0xD1C7_10AB_CA11_F00D_u64;
    for case in 0..24u32 {
        let qi = (splitmix(&mut state) as usize) % queries.len();
        let options = QueryOptions {
            algorithm: Some(ALGORITHMS[(splitmix(&mut state) as usize) % ALGORITHMS.len()]),
            probe1_k: Some(1 + (splitmix(&mut state) as usize) % 80),
            probe2_k: Some((splitmix(&mut state) as usize) % 16),
            high_relevance: Some(((splitmix(&mut state) % 101) as f64) / 100.0),
            max_rows: splitmix(&mut state)
                .is_multiple_of(2)
                .then(|| (splitmix(&mut state) as usize) % 12),
            deadline_ms: None,
            explain: false,
            early_exit: knob_on() || splitmix(&mut state).is_multiple_of(4),
            fail_soft: false,
        };
        let request = QueryRequest {
            query: queries[qi].clone(),
            options,
        };
        assert_eq!(
            canonical_bytes(&request, &oracle),
            canonical_bytes(&request, &fast),
            "case {case}: option-draw drift"
        );
    }
}

#[test]
fn early_exit_knob_matches_its_own_oracle() {
    // With pruning forced on (regardless of the env toggle), the fast
    // and oracle engines still transform *identical* potentials, so
    // their pruning decisions — and therefore their answers — must stay
    // byte-identical, for every algorithm, down to the relevance bits.
    let (generated, queries) = corpus(3, 0.05);
    for use_pmi in [false, true] {
        let config = WwtConfig {
            mapper: MapperConfig {
                use_pmi,
                ..MapperConfig::default()
            },
            ..WwtConfig::default()
        };
        let (fast, oracle) = engine_pair(&generated, config, 2);
        for query in &queries {
            for algorithm in ALGORITHMS {
                let request = QueryRequest::new(query.clone())
                    .algorithm(algorithm)
                    .early_exit(true);
                assert_eq!(
                    canonical_bytes(&request, &oracle),
                    canonical_bytes(&request, &fast),
                    "pruned-path drift (pmi={use_pmi}) for {request:?}"
                );
                let fast_resp = fast.answer(&request).unwrap();
                let oracle_resp = oracle.answer(&request).unwrap();
                for (a, b) in fast_resp
                    .mapping
                    .table_relevance
                    .iter()
                    .zip(&oracle_resp.mapping.table_relevance)
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "relevance bits (pmi={use_pmi}) for {request:?}"
                    );
                }
                // Both engines must agree on what they pruned.
                assert_eq!(
                    fast_resp.diagnostics.map_stats.pruned_tables,
                    oracle_resp.diagnostics.map_stats.pruned_tables,
                    "pruning disagreement (pmi={use_pmi}) for {request:?}"
                );
                assert_eq!(
                    fast_resp.diagnostics.map_stats.collapsed_columns,
                    oracle_resp.diagnostics.map_stats.collapsed_columns,
                    "collapse disagreement (pmi={use_pmi}) for {request:?}"
                );
            }
        }
    }
}

#[test]
fn explain_traces_are_byte_stable_and_oracle_equivalent() {
    // Explain mode attaches a trace whose `*_us` fields are the only
    // nondeterminism; after `zero_timings` the whole wire body — spans,
    // per-shard children, notes, and the table itself — must be stable
    // across reruns and identical between the fast and oracle paths.
    let (generated, queries) = corpus(2, 0.04);
    for shards in [1usize, 2] {
        let (fast, oracle) = engine_pair(&generated, WwtConfig::default(), shards);
        for query in &queries {
            let request = QueryRequest::new(query.clone())
                .explain(true)
                .early_exit(knob_on());
            let first = canonical_bytes(&request, &fast);
            assert!(
                first.contains("\"trace\""),
                "explain responses must embed a trace"
            );
            assert_eq!(
                first,
                canonical_bytes(&request, &fast),
                "explain rerun drift at {shards} shard(s) for {request:?}"
            );
            assert_eq!(
                canonical_bytes(&request, &oracle),
                first,
                "explain oracle drift at {shards} shard(s) for {request:?}"
            );
            let plain = canonical_bytes(&QueryRequest::new(query.clone()), &fast);
            assert!(
                !plain.contains("\"trace\""),
                "plain responses must stay trace-free"
            );
        }
    }
}

#[test]
fn persisted_layouts_of_both_generations_serve_identical_bytes() {
    let (generated, queries) = corpus(2, 0.04);
    let requests: Vec<QueryRequest> = queries
        .iter()
        .map(|q| QueryRequest::new(q.clone()).early_exit(knob_on()))
        .collect();

    for shards in [1usize, 3] {
        let (fast, _) = engine_pair(&generated, WwtConfig::default(), shards);
        let expected: Vec<String> = requests.iter().map(|r| canonical_bytes(r, &fast)).collect();
        let dir = std::env::temp_dir().join(format!(
            "wwt_interned_equiv_{}_{shards}",
            std::process::id()
        ));

        // Current layout: v3 manifest carrying a dictionary checksum
        // instead of the vocabulary itself.
        fast.save_to_dir(&dir).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(manifest.contains("\"version\":3"), "manifest: {manifest}");
        assert!(manifest.contains("\"term_count\""), "manifest: {manifest}");
        assert!(
            manifest.contains("\"term_checksum\""),
            "manifest: {manifest}"
        );
        assert!(
            !manifest.contains("\"terms\""),
            "v3 must not inline the dictionary: {manifest}"
        );
        let restored = Engine::load_from_dir(&dir, fast.config().clone()).unwrap();
        for (request, want) in requests.iter().zip(&expected) {
            assert_eq!(
                *want,
                canonical_bytes(request, &restored),
                "v3 reload drift at {shards} shard(s)"
            );
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}
