//! Criterion microbench: cold-query latency as the index shard count
//! grows (1 → 8). The engine's two index probes scatter across shards on
//! the pool, so on a multicore machine latency should *drop* from 1 to
//! `min(cores, 8)` shards while answers stay byte-identical (proven by
//! `tests/shard_equivalence.rs`; this bench measures the other half of
//! the bargain).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wwt_corpus::{workload, CorpusConfig, CorpusGenerator};
use wwt_engine::{bind_corpus_sharded, QueryRequest, WwtConfig};

fn bench_shard_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    let specs = workload();
    // Big enough that the probes dominate and the parallel scatter path
    // engages (it falls back to serial under ~4k docs by design).
    let corpus = CorpusGenerator::new(CorpusConfig {
        seed: 7,
        scale: 0.5,
        distractors: 400,
    })
    .generate_for(&specs);
    let requests: Vec<QueryRequest> = ["country | currency", "dog breed", "states of india | gdp"]
        .iter()
        .filter_map(|s| QueryRequest::parse(s).ok())
        .collect();
    for shards in [1usize, 2, 4, 8] {
        let bound = bind_corpus_sharded(&corpus, WwtConfig::default(), Some(shards));
        assert_eq!(bound.engine.n_shards(), shards);
        group.bench_with_input(
            BenchmarkId::new("cold_query", format!("{shards}_shards")),
            &bound,
            |b, bound| {
                let mut i = 0usize;
                b.iter(|| {
                    let request = &requests[i % requests.len()];
                    i += 1;
                    bound
                        .engine
                        .answer(request)
                        .expect("bench requests are valid")
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("retrieve_only", format!("{shards}_shards")),
            &bound,
            |b, bound| {
                let q = &requests[0].query;
                b.iter(|| bound.engine.retrieve(q).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);
