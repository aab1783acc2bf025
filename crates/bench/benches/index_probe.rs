//! Criterion microbench: index probe latency as the corpus grows (the
//! dominant cost components of Figure 7 are the two index probes and
//! table reads).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wwt_corpus::{workload, CorpusConfig, CorpusGenerator};
use wwt_engine::{bind_corpus, WwtConfig};
use wwt_text::tokenize;

fn bench_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_probe");
    group.sample_size(10);
    for scale in [0.1f64, 0.3] {
        let specs = workload();
        let corpus = CorpusGenerator::new(CorpusConfig {
            seed: 7,
            scale,
            distractors: 100,
        })
        .generate_for(&specs);
        let bound = bind_corpus(&corpus, WwtConfig::default());
        let tokens = tokenize("country currency exchange rate");
        group.bench_with_input(
            BenchmarkId::new("search_top60", format!("scale_{scale}")),
            &bound,
            |b, bound| b.iter(|| bound.engine.index().search(&tokens, 60)),
        );
        group.bench_with_input(
            BenchmarkId::new("two_stage_retrieve", format!("scale_{scale}")),
            &bound,
            |b, bound| {
                let q = specs[14].query.clone(); // country | currency
                b.iter(|| bound.engine.retrieve(&q).unwrap())
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_probe);
criterion_main!(benches);
