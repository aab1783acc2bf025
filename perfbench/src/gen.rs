//! Seeded request generators. Every stream is a pure function of the
//! workload seed, so two runs with one seed send identical requests.

use wwt_corpus::workload;
use wwt_json::Json;

/// Fixes what the workload seed must not change: the Zipf popularity
/// order of the Table-1 queries and the set of held-out tables.
const FIXED_SEED: u64 = 7;

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named sub-stream of `seed`.
    pub fn derived(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

/// The 59 Table-1 queries, in paper order.
pub fn table1_queries() -> Vec<String> {
    workload().iter().map(|s| s.query.to_string()).collect()
}

/// `POST /query` body for one query string.
pub fn query_body(query: &str) -> String {
    Json::obj([("query", Json::from(query))]).encode()
}

/// The `unique_tail` pool: one two-column query for every pair of distinct
/// column keyword sets of the Table-1 queries — 4,851 queries, over four
/// times the service's default 1,024-entry response cache, so a cycling
/// stream never finds its query still cached. The seed picks each pair's
/// column order and the pool's order; every seed uses every pair, so the
/// pool's cost does not depend on which pairs a seed happened to draw.
pub fn unique_pool(seed: u64) -> Vec<String> {
    let mut columns: Vec<String> = Vec::new();
    for spec in workload() {
        for c in &spec.query.columns {
            if !columns.contains(c) {
                columns.push(c.clone());
            }
        }
    }
    let mut rng = Rng::derived(seed, 1);
    let mut pairs: Vec<(usize, usize)> = (0..columns.len())
        .flat_map(|i| (i + 1..columns.len()).map(move |j| (i, j)))
        .map(|(i, j)| if rng.below(2) == 0 { (i, j) } else { (j, i) })
        .collect();
    rng.shuffle(&mut pairs);
    pairs
        .into_iter()
        .map(|(i, j)| format!("{} | {}", columns[i], columns[j]))
        .collect()
}

/// An endless sequence of indices into a workload's query list.
#[derive(Debug, Clone)]
pub enum Stream {
    /// Zipf-distributed repeats: `cdf[r]` is the probability of a rank
    /// at most `r`, and `by_rank[r]` the query index holding rank `r`.
    Zipf {
        rng: Rng,
        cdf: Vec<f64>,
        by_rank: Vec<usize>,
    },
    /// A fixed list of query indices, repeated in order.
    Cycle { items: Vec<usize>, pos: usize },
}

impl Stream {
    /// Zipf(`s` = 1) repeats over `n` queries for connection `conn`.
    /// The popularity order is part of the workload and the same for
    /// every seed — which query is most popular sets the response size
    /// most requests pay to encode — while each connection draws from its
    /// own seeded generator.
    pub fn zipf(seed: u64, conn: usize, n: usize) -> Stream {
        let mut by_rank: Vec<usize> = (0..n).collect();
        Rng::derived(FIXED_SEED, 2).shuffle(&mut by_rank);
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Stream::Zipf {
            rng: Rng::derived(seed, 100 + conn as u64),
            cdf,
            by_rank,
        }
    }

    /// Connection `conn` of `conns` cycles through the pool entries whose
    /// position is `conn` modulo `conns`: the streams of two connections
    /// never share a query, so singleflight never coalesces them.
    pub fn disjoint_cycle(pool_len: usize, conn: usize, conns: usize) -> Stream {
        Stream::Cycle {
            items: (conn..pool_len).step_by(conns).collect(),
            pos: 0,
        }
    }

    pub fn next_index(&mut self) -> usize {
        match self {
            Stream::Zipf { rng, cdf, by_rank } => {
                let u = rng.unit();
                let rank = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1);
                by_rank[rank]
            }
            Stream::Cycle { items, pos } => {
                let item = items[*pos % items.len()];
                *pos += 1;
                item
            }
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.next_index()).collect()
    }
}

/// Picks `count` of `n` tables to hold out of the initial engine, in the
/// seeded order they are later ingested. The set itself is the same for
/// every seed, so every seed serves the same engine and ingests the same
/// tables.
pub fn holdout(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::derived(FIXED_SEED, 3).shuffle(&mut order);
    order.truncate(count.min(n));
    Rng::derived(seed, 3).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use wwt_engine::QueryRequest;

    #[test]
    fn same_seed_same_stream() {
        for conn in 0..2 {
            assert_eq!(
                Stream::zipf(7, conn, 59).take(500),
                Stream::zipf(7, conn, 59).take(500)
            );
        }
        assert_ne!(
            Stream::zipf(7, 0, 59).take(500),
            Stream::zipf(8, 0, 59).take(500)
        );
        assert_eq!(unique_pool(11), unique_pool(11));
        assert_ne!(unique_pool(11), unique_pool(12));
        assert_eq!(holdout(5, 2000, 300), holdout(5, 2000, 300));
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_every_query() {
        let Stream::Zipf { by_rank, .. } = Stream::zipf(3, 0, 59) else {
            unreachable!()
        };
        let draws = Stream::zipf(3, 0, 59).take(20_000);
        let count = |q: usize| draws.iter().filter(|&&d| d == q).count();
        assert!(count(by_rank[0]) > 5 * count(by_rank[58]));
        assert_eq!(draws.iter().collect::<HashSet<_>>().len(), 59);
    }

    #[test]
    fn unique_pool_has_no_repeats_and_exceeds_the_cache() {
        let pool = unique_pool(7);
        let default_cache = wwt_service::ServiceConfig::default().cache_capacity;
        assert!(pool.len() >= 4 * default_cache, "{} queries", pool.len());
        // Distinct by the service's own cache key, not just as strings.
        let keys: HashSet<String> = pool
            .iter()
            .map(|q| {
                QueryRequest::parse(q)
                    .expect("pool query parses")
                    .cache_key()
            })
            .collect();
        assert_eq!(keys.len(), pool.len());
        assert!(pool
            .iter()
            .all(|q| QueryRequest::parse(q).unwrap().query.q() == 2));
    }

    #[test]
    fn connection_streams_are_disjoint() {
        let pool = unique_pool(7);
        let a: HashSet<usize> = Stream::disjoint_cycle(pool.len(), 0, 2)
            .take(5000)
            .into_iter()
            .collect();
        let b: HashSet<usize> = Stream::disjoint_cycle(pool.len(), 1, 2)
            .take(5000)
            .into_iter()
            .collect();
        assert!(a.is_disjoint(&b));
        assert_eq!(a.len() + b.len(), pool.len());
        // A query comes back on its connection only after every other
        // entry of that stream, which is more than the cache holds.
        let stream = Stream::disjoint_cycle(pool.len(), 0, 2).take(5000);
        let first_repeat = stream.iter().skip(1).position(|&q| q == stream[0]).unwrap() + 1;
        assert!(first_repeat * 2 > wwt_service::ServiceConfig::default().cache_capacity);
    }

    #[test]
    fn holdout_picks_the_same_distinct_tables_in_seeded_order() {
        let h = holdout(9, 100, 30);
        assert_eq!(h.len(), 30);
        assert_eq!(h.iter().collect::<HashSet<_>>().len(), 30);
        assert!(h.iter().all(|&i| i < 100));
        let other = holdout(10, 100, 30);
        assert_ne!(h, other);
        assert_eq!(
            h.iter().collect::<HashSet<_>>(),
            other.iter().collect::<HashSet<_>>()
        );
    }
}
