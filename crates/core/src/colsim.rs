//! Column-column similarity and edge construction (paper §3.3).
//!
//! Edge potentials transfer labels between content-overlapping columns of
//! *different* tables. Three robustness mechanisms from the paper:
//!
//! 1. **Max-matching edges** — per table pair, only the one-one
//!    max-weight matching between their columns produces edges (prevents
//!    label bleeding when columns within a table resemble each other);
//! 2. **Normalized similarity** — `nsim(tc → t'c') = sim / (λ + Σ sim)`
//!    bounds the total influence on a column at one (λ = 0.3);
//! 3. **Confidence gating** (applied by the inference drivers): a column's
//!    similarity only votes when its own labeling is confident.
//!
//! # The content-signature index
//!
//! Naively, [`build_edges`] scores O(candidates² · cols²) column pairs
//! per query, each one a string merge over the two columns' value lists
//! plus a header-vector cosine — the dominant edge-construction cost.
//! When every view carries bind-time [`InternedFeatures`], the pairs are
//! instead *admitted* through a per-query inverted index over each
//! column's FNV-1a content signatures (normalized cell values, and
//! header terms under a domain tag): two columns are admitted iff they
//! share at least one signature bucket.
//!
//! Skipping non-admitted pairs is **provably identical** to scoring
//! them: equal strings always hash equal, so a non-admitted pair shares
//! no cell value (overlap = 0) and no header term (cosine = 0) — its
//! similarity is exactly `mix·0 + (1−mix)·0 = 0.0`, which never survives
//! the `s > 0.0` edge filter regardless of `min_column_sim`. Hash
//! *collisions* between unequal strings merely admit a pair whose exact
//! similarity is then computed — no false negatives, no approximation.
//! Table pairs are still visited in the same `(i, j)` lexicographic
//! order and matched columns emitted in the same order, so the `nsim`
//! normalization sums accumulate identically and the resulting edges are
//! bit-for-bit the dense loop's. If any view lacks signatures (the
//! string-only oracle path), the dense loop runs unchanged.
//!
//! # The cross-query pair memo
//!
//! A table pair's matched columns are a pure function of the two tables
//! and two mapper parameters (`min_column_sim`, `content_sim_mix`) — the
//! query never enters `match_columns`. An engine therefore shares one
//! [`PairMemo`] across all of its queries: the first query to visit a
//! pair pays the similarity matrix and the matching flow, every later
//! query replays the recorded `(col_a, col_b, sim)` list bit-for-bit.
//! The per-query `nsim` normalization runs *after* the memo over the
//! query's own candidate set, so memoized and freshly computed pairs
//! produce identical edges. The memo is fingerprinted with the two
//! parameters it bakes in (ignored on mismatch) and must not outlive
//! the table contents it describes — the engine replaces it whenever a
//! live mutation can rebind a table id.

use crate::config::MapperConfig;
use crate::view::{InternedFeatures, TableView};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use wwt_graph::{solve_assignment, Assignment};
use wwt_model::WwtError;

/// Counters describing one edge-construction run (exposed through the
/// mapper's [`crate::mapper::MapStats`] and the service stats surface).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Column pairs whose exact similarity was computed.
    pub pairs_scored: u64,
    /// Column pairs skipped by the content-signature index (their
    /// similarity is provably exactly zero).
    pub pairs_skipped: u64,
    /// Column pairs replayed from the cross-query [`PairMemo`] without
    /// recomputation.
    pub pairs_memoized: u64,
}

/// Lock stripes of the pair memo: bounds contention when many queries
/// warm the memo concurrently.
const MEMO_STRIPES: usize = 16;
/// Per-stripe entry cap. Inserts beyond it are dropped (never evicted):
/// the memo is an accelerator, not a source of truth, and a bounded one
/// cannot grow without limit on a hostile workload.
const MEMO_STRIPE_CAP: usize = 4096;

/// Cross-query memo of per-table-pair column matchings keyed by the
/// `(table id, table id)` pair in visit order (see the module docs for
/// the exactness argument). Shared by reference through
/// [`crate::mapper::ColumnMapper::pair_memo`].
#[derive(Debug)]
pub struct PairMemo {
    /// Bit patterns of the two [`MapperConfig`] fields the cached
    /// matchings depend on; a mismatching mapper bypasses the memo.
    min_sim_bits: u64,
    mix_bits: u64,
    stripes: Vec<Mutex<HashMap<(u32, u32), Arc<Vec<(u32, u32, f64)>>>>>,
}

impl PairMemo {
    /// An empty memo fingerprinted for `cfg`'s similarity parameters.
    pub fn for_config(cfg: &MapperConfig) -> Self {
        PairMemo {
            min_sim_bits: cfg.min_column_sim.to_bits(),
            mix_bits: cfg.content_sim_mix.to_bits(),
            stripes: (0..MEMO_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// Whether cached matchings are valid under `cfg` — true iff the two
    /// parameters `match_columns` reads are bit-identical.
    pub fn matches(&self, cfg: &MapperConfig) -> bool {
        self.min_sim_bits == cfg.min_column_sim.to_bits()
            && self.mix_bits == cfg.content_sim_mix.to_bits()
    }

    /// Number of memoized table pairs (observability).
    pub fn entries(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("pair memo stripe poisoned").len())
            .sum()
    }

    fn stripe(&self, key: (u32, u32)) -> &Mutex<HashMap<(u32, u32), Arc<Vec<(u32, u32, f64)>>>> {
        let h = (key.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.1 as u64);
        &self.stripes[(h >> 32) as usize % MEMO_STRIPES]
    }

    fn get(&self, key: (u32, u32)) -> Option<Arc<Vec<(u32, u32, f64)>>> {
        self.stripe(key)
            .lock()
            .expect("pair memo stripe poisoned")
            .get(&key)
            .cloned()
    }

    fn insert(&self, key: (u32, u32), matched: Vec<(u32, u32, f64)>) {
        let mut map = self.stripe(key).lock().expect("pair memo stripe poisoned");
        if map.len() < MEMO_STRIPE_CAP {
            map.insert(key, Arc::new(matched));
        }
    }
}

/// An undirected cross-table column edge selected by the max-matching, with
/// the two directed normalized similarities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnEdge {
    /// First endpoint: (table index, column index).
    pub a: (usize, usize),
    /// Second endpoint.
    pub b: (usize, usize),
    /// Raw symmetric similarity.
    pub sim: f64,
    /// `nsim(a → b)`: a's similarity to b after normalizing over a's
    /// neighborhood.
    pub nsim_ab: f64,
    /// `nsim(b → a)`.
    pub nsim_ba: f64,
}

/// Raw similarity between two columns of *different* tables: a mix of
/// normalized-cell-value overlap and header TF-IDF cosine
/// (`sim = mix·overlap + (1−mix)·header_cos`).
pub fn column_similarity(
    va: &TableView<'_>,
    ca: usize,
    vb: &TableView<'_>,
    cb: usize,
    mix: f64,
) -> f64 {
    let a_vals = &va.column_values[ca];
    let b_vals = &vb.column_values[cb];
    let overlap = if a_vals.is_empty() || b_vals.is_empty() {
        0.0
    } else {
        let inter = sorted_intersection_count(a_vals, b_vals) as f64;
        inter / a_vals.len().min(b_vals.len()) as f64
    };
    let header_cos = va.column_header_vecs[ca].cosine(&vb.column_header_vecs[cb]);
    mix * overlap + (1.0 - mix) * header_cos
}

/// `|A ∩ B|` of two sorted, deduplicated value lists — the same count a
/// set intersection produces, via a linear merge.
fn sorted_intersection_count(a: &[String], b: &[String]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Builds the cross-table edge set: for every pair of tables, the one-one
/// max-weight matching between their columns (similarities below
/// `cfg.min_column_sim` dropped), then `nsim` normalization over each
/// column's kept neighborhood.
pub fn build_edges(views: &[TableView<'_>], cfg: &MapperConfig) -> Vec<ColumnEdge> {
    build_edges_pruned(views, cfg, None, None, None)
        .expect("infallible without a cancel hook")
        .0
}

/// The inverted signature index: for each `(table, column)` pair the set of
/// admitted partner columns per partner table, keyed `(i, j)` with `i < j`.
type AdmitIndex = HashMap<(usize, usize), HashSet<(u32, u32)>>;

/// Builds the admission index over every kept view's content signatures, or
/// `None` if any kept view lacks bind-time features (oracle path → dense).
fn admission_index(views: &[TableView<'_>], kept: &[bool]) -> Option<AdmitIndex> {
    let interned: Vec<Option<&InternedFeatures>> = views
        .iter()
        .zip(kept)
        .map(|(v, &k)| if k { v.interned() } else { None })
        .collect();
    if interned.iter().zip(kept).any(|(f, &k)| k && f.is_none()) {
        return None;
    }
    // Bucket: signature → every (table, column) containing it.
    let mut buckets: HashMap<u64, Vec<(u32, u32)>> = HashMap::new();
    for (t, f) in interned.iter().enumerate() {
        let Some(f) = f else { continue };
        for group in [&f.value_sigs, &f.header_sigs] {
            for (c, sigs) in group.iter().enumerate() {
                for &sig in sigs {
                    buckets.entry(sig).or_default().push((t as u32, c as u32));
                }
            }
        }
    }
    let mut admit: AdmitIndex = HashMap::new();
    for members in buckets.values() {
        for (x, &(ti, ca)) in members.iter().enumerate() {
            for &(tj, cb) in &members[x + 1..] {
                if ti == tj {
                    continue;
                }
                let (key, pair) = if ti < tj {
                    ((ti as usize, tj as usize), (ca, cb))
                } else {
                    ((tj as usize, ti as usize), (cb, ca))
                };
                admit.entry(key).or_default().insert(pair);
            }
        }
    }
    Some(admit)
}

/// [`build_edges`] with an optional table keep-mask (pruned tables, from the
/// `early_exit` knob, contribute no edges but retain their global indices),
/// an optional cancellation hook checked once per outer table, an optional
/// cross-query [`PairMemo`], and skip counters. On the fast path, column
/// pairs sharing no content signature are skipped and previously visited
/// pairs replay from the memo — both provably without changing the result
/// (see the module docs).
pub fn build_edges_pruned(
    views: &[TableView<'_>],
    cfg: &MapperConfig,
    keep: Option<&[bool]>,
    cancel: Option<&(dyn Fn() -> Result<(), WwtError> + Sync)>,
    memo: Option<&PairMemo>,
) -> Result<(Vec<ColumnEdge>, EdgeStats), WwtError> {
    let kept: Vec<bool> = match keep {
        Some(k) => k.to_vec(),
        None => vec![true; views.len()],
    };
    // A memo built for different similarity parameters is ignored.
    let memo = memo.filter(|m| m.matches(cfg));
    // The admission index is built lazily on the first memo miss: a query
    // whose every pair replays from the memo never pays for it.
    let mut admit: Option<Option<AdmitIndex>> = None;
    let mut stats = EdgeStats::default();
    let mut raw: Vec<((usize, usize), (usize, usize), f64)> = Vec::new();
    for i in 0..views.len() {
        if let Some(check) = cancel {
            check()?;
        }
        if !kept[i] {
            continue;
        }
        for j in (i + 1)..views.len() {
            if !kept[j] {
                continue;
            }
            let key = (views[i].table.id.0, views[j].table.id.0);
            if let Some(m) = memo {
                if let Some(hit) = m.get(key) {
                    stats.pairs_memoized += (views[i].n_cols() * views[j].n_cols()) as u64;
                    for &(ca, cb, sim) in hit.iter() {
                        raw.push(((i, ca as usize), (j, cb as usize), sim));
                    }
                    continue;
                }
            }
            let admit = admit.get_or_insert_with(|| admission_index(views, &kept));
            let mask = match admit {
                Some(index) => match index.get(&(i, j)) {
                    Some(set) => Some(set),
                    None => {
                        // No column pair shares a signature: every
                        // similarity is exactly zero, no edges possible.
                        stats.pairs_skipped += (views[i].n_cols() * views[j].n_cols()) as u64;
                        if let Some(m) = memo {
                            m.insert(key, Vec::new());
                        }
                        continue;
                    }
                },
                None => None,
            };
            let matched = match_columns(&views[i], &views[j], cfg, mask, &mut stats);
            if let Some(m) = memo {
                m.insert(
                    key,
                    matched
                        .iter()
                        .map(|&(ca, cb, sim)| (ca as u32, cb as u32, sim))
                        .collect(),
                );
            }
            for (ca, cb, sim) in matched {
                raw.push(((i, ca), (j, cb), sim));
            }
        }
    }
    // Σ sim per column over kept edges.
    let mut sums: HashMap<(usize, usize), f64> = HashMap::new();
    for &(a, b, sim) in &raw {
        *sums.entry(a).or_insert(0.0) += sim;
        *sums.entry(b).or_insert(0.0) += sim;
    }
    let edges = raw
        .into_iter()
        .map(|(a, b, sim)| ColumnEdge {
            a,
            b,
            sim,
            nsim_ab: sim / (cfg.nsim_lambda + sums[&a]),
            nsim_ba: sim / (cfg.nsim_lambda + sums[&b]),
        })
        .collect();
    Ok((edges, stats))
}

/// One-one max-weight matching between the columns of two tables; returns
/// `(col_a, col_b, sim)` for matched pairs above the similarity floor.
///
/// With an admission mask, only admitted cells are scored; the rest keep
/// similarity `0.0` — exactly what scoring them would produce (no shared
/// signature ⟹ no shared value, no shared header term).
fn match_columns(
    va: &TableView<'_>,
    vb: &TableView<'_>,
    cfg: &MapperConfig,
    mask: Option<&HashSet<(u32, u32)>>,
    stats: &mut EdgeStats,
) -> Vec<(usize, usize, f64)> {
    let (na, nb) = (va.n_cols(), vb.n_cols());
    let mut sims = vec![vec![0.0f64; nb]; na];
    let mut any = false;
    for (ca, row) in sims.iter_mut().enumerate() {
        for (cb, s) in row.iter_mut().enumerate() {
            if let Some(set) = mask {
                if !set.contains(&(ca as u32, cb as u32)) {
                    stats.pairs_skipped += 1;
                    continue;
                }
            }
            stats.pairs_scored += 1;
            let v = column_similarity(va, ca, vb, cb, cfg.content_sim_mix);
            if v >= cfg.min_column_sim {
                *s = v;
                any = true;
            }
        }
    }
    if !any {
        return Vec::new();
    }
    // Assignment: items = columns of a; bins = columns of b (cap 1) plus an
    // "unmatched" bin with enough capacity for everyone.
    let weights: Vec<Vec<f64>> = sims
        .iter()
        .map(|row| {
            let mut r: Vec<f64> = row
                .iter()
                .map(|&s| if s > 0.0 { s } else { f64::NEG_INFINITY })
                .collect();
            r.push(0.0); // unmatched
            r
        })
        .collect();
    let mut bin_caps = vec![1u32; nb];
    bin_caps.push(na as u32);
    let sol = match solve_assignment(&Assignment { bin_caps, weights }) {
        Some(s) => s,
        None => return Vec::new(),
    };
    sol.assignment
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b < nb)
        .map(|(ca, &cb)| (ca, cb, sims[ca][cb]))
        .filter(|&(_, _, s)| s > 0.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wwt_model::{TableId, WebTable};
    use wwt_text::CorpusStats;

    fn make(id: u32, headers: Vec<&str>, cols: Vec<Vec<&str>>) -> WebTable {
        let n_rows = cols[0].len();
        let rows: Vec<Vec<String>> = (0..n_rows)
            .map(|r| cols.iter().map(|c| c[r].to_string()).collect())
            .collect();
        WebTable::new(
            TableId(id),
            "u",
            None,
            vec![headers.into_iter().map(String::from).collect()],
            rows,
            vec![],
        )
        .unwrap()
    }

    fn cfg() -> MapperConfig {
        MapperConfig::default()
    }

    #[test]
    fn value_overlap_drives_similarity() {
        let stats = CorpusStats::new();
        let t1 = make(
            0,
            vec!["Country", "Currency"],
            vec![
                vec!["India", "Japan", "France"],
                vec!["Rupee", "Yen", "Euro"],
            ],
        );
        let t2 = make(
            1,
            vec!["Nation", "Money"],
            vec![
                vec!["India", "Japan", "Brazil"],
                vec!["Rupee", "Yen", "Real"],
            ],
        );
        let v1 = TableView::new(&t1, &stats, 0.3);
        let v2 = TableView::new(&t2, &stats, 0.3);
        let same = column_similarity(&v1, 0, &v2, 0, 0.7);
        let cross = column_similarity(&v1, 0, &v2, 1, 0.7);
        assert!(same > cross, "same {same} cross {cross}");
        assert!(same > 0.4);
    }

    #[test]
    fn header_cosine_contributes() {
        let stats = CorpusStats::new();
        // No shared values, shared header tokens.
        let t1 = make(0, vec!["Currency"], vec![vec!["Rupee", "Yen"]]);
        let t2 = make(1, vec!["Currency"], vec![vec!["Peso", "Won"]]);
        let v1 = TableView::new(&t1, &stats, 0.3);
        let v2 = TableView::new(&t2, &stats, 0.3);
        let s = column_similarity(&v1, 0, &v2, 0, 0.7);
        assert!((s - 0.3).abs() < 1e-9, "header-only sim {s}");
    }

    #[test]
    fn max_matching_yields_one_edge_per_column() {
        let stats = CorpusStats::new();
        // t2's two columns BOTH resemble t1's capital column (the paper's
        // "us states | capitals | largest cities" trap); matching must pick
        // only the best pair per column.
        let t1 = make(
            0,
            vec!["State", "Capital"],
            vec![
                vec!["Ohio", "Texas", "Utah"],
                vec!["Columbus", "Austin", "Salt Lake City"],
            ],
        );
        let t2 = make(
            1,
            vec!["State", "Capital", "Largest city"],
            vec![
                vec!["Ohio", "Texas", "Utah"],
                vec!["Columbus", "Austin", "Salt Lake City"],
                vec!["Columbus", "Houston", "Salt Lake City"],
            ],
        );
        let v1 = TableView::new(&t1, &stats, 0.3);
        let v2 = TableView::new(&t2, &stats, 0.3);
        let views = vec![v1, v2];
        let edges = build_edges(&views, &cfg());
        // Each column of t1 appears in at most one edge.
        for c in 0..2 {
            let deg = edges.iter().filter(|e| e.a == (0, c)).count();
            assert!(deg <= 1, "column (0,{c}) has degree {deg}");
        }
        // The capital column must match t2's capital column, not largest
        // city (same values but "largest city" header mismatch drops it).
        let cap_edge = edges.iter().find(|e| e.a == (0, 1)).expect("capital edge");
        assert_eq!(cap_edge.b, (1, 1));
    }

    #[test]
    fn weak_similarities_dropped() {
        let stats = CorpusStats::new();
        let t1 = make(0, vec!["A"], vec![vec!["x1", "x2"]]);
        let t2 = make(1, vec!["B"], vec![vec!["y1", "y2"]]);
        let views = vec![
            TableView::new(&t1, &stats, 0.3),
            TableView::new(&t2, &stats, 0.3),
        ];
        assert!(build_edges(&views, &cfg()).is_empty());
    }

    #[test]
    fn nsim_normalization_bounds_influence() {
        let stats = CorpusStats::new();
        // One column similar to many copies: per-edge nsim must shrink
        // relative to the isolated-pair case.
        let base = make(0, vec!["Country"], vec![vec!["India", "Japan", "France"]]);
        let copies: Vec<WebTable> = (1..5)
            .map(|i| make(i, vec!["Country"], vec![vec!["India", "Japan", "France"]]))
            .collect();
        let mut views = vec![TableView::new(&base, &stats, 0.3)];
        for c in &copies {
            views.push(TableView::new(c, &stats, 0.3));
        }
        let edges = build_edges(&views, &cfg());
        let total_in: f64 = edges
            .iter()
            .filter(|e| e.a == (0, 0))
            .map(|e| e.nsim_ab)
            .sum();
        assert!(total_in <= 1.0 + 1e-9, "total incoming nsim {total_in}");
        // Isolated pair for comparison: one neighbor keeps most of its sim.
        let pair_views = vec![
            TableView::new(&base, &stats, 0.3),
            TableView::new(&copies[0], &stats, 0.3),
        ];
        let pair = build_edges(&pair_views, &cfg());
        assert_eq!(pair.len(), 1);
        let hub_edge = edges.iter().find(|e| e.a == (0, 0)).unwrap();
        assert!(
            hub_edge.nsim_ab < pair[0].nsim_ab,
            "hub nsim {} should shrink below pair nsim {}",
            hub_edge.nsim_ab,
            pair[0].nsim_ab
        );
        // Normalization never exceeds the raw similarity.
        assert!(pair[0].nsim_ab < pair[0].sim);
    }

    /// A small corpus with overlapping, header-only-related, and fully
    /// disjoint tables — exercises every admission outcome.
    fn mixed_tables() -> Vec<WebTable> {
        vec![
            make(
                0,
                vec!["Country", "Currency"],
                vec![
                    vec!["India", "Japan", "France"],
                    vec!["Rupee", "Yen", "Euro"],
                ],
            ),
            make(
                1,
                vec!["Nation", "Money"],
                vec![
                    vec!["India", "Japan", "Brazil"],
                    vec!["Rupee", "Yen", "Real"],
                ],
            ),
            // Shares only header terms with table 0.
            make(2, vec!["Currency"], vec![vec!["Peso", "Won"]]),
            // Completely disjoint from everything.
            make(
                3,
                vec!["Element", "Symbol"],
                vec![vec!["Iron", "Gold"], vec!["Fe", "Au"]],
            ),
        ]
    }

    #[test]
    fn signature_index_matches_dense_bitwise() {
        let stats = CorpusStats::new();
        let tables = mixed_tables();
        let fast: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, &stats, 0.3))
            .collect();
        let oracle: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new_oracle(t, &stats, 0.3))
            .collect();
        assert!(fast.iter().all(|v| v.interned().is_some()));
        assert!(oracle.iter().all(|v| v.interned().is_none()));
        let (indexed, istats) = build_edges_pruned(&fast, &cfg(), None, None, None).unwrap();
        let (dense, dstats) = build_edges_pruned(&oracle, &cfg(), None, None, None).unwrap();
        assert_eq!(indexed.len(), dense.len());
        for (a, b) in indexed.iter().zip(&dense) {
            assert_eq!(a.a, b.a);
            assert_eq!(a.b, b.b);
            assert_eq!(a.sim.to_bits(), b.sim.to_bits());
            assert_eq!(a.nsim_ab.to_bits(), b.nsim_ab.to_bits());
            assert_eq!(a.nsim_ba.to_bits(), b.nsim_ba.to_bits());
        }
        // The disjoint table's pairs must actually be skipped, and the
        // dense path must score every pair.
        assert!(istats.pairs_skipped > 0, "{istats:?}");
        assert_eq!(dstats.pairs_skipped, 0);
        assert_eq!(
            istats.pairs_scored + istats.pairs_skipped,
            dstats.pairs_scored
        );
    }

    #[test]
    fn keep_mask_excludes_pruned_tables() {
        let stats = CorpusStats::new();
        let tables = mixed_tables();
        let views: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, &stats, 0.3))
            .collect();
        let keep = vec![true, false, true, true];
        let (edges, _) = build_edges_pruned(&views, &cfg(), Some(&keep), None, None).unwrap();
        assert!(!edges.is_empty());
        // Pruned table 1 appears in no edge; survivors keep their global
        // indices (table 2's header edge to table 0 is unaffected).
        assert!(edges.iter().all(|e| e.a.0 != 1 && e.b.0 != 1));
        assert!(edges.iter().any(|e| e.a.0 == 0 && e.b.0 == 2));
    }

    #[test]
    fn pair_memo_replays_matches_bitwise() {
        let stats = CorpusStats::new();
        let tables = mixed_tables();
        let views: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, &stats, 0.3))
            .collect();
        let memo = PairMemo::for_config(&cfg());
        let (reference, _) = build_edges_pruned(&views, &cfg(), None, None, None).unwrap();
        let (cold, cs) = build_edges_pruned(&views, &cfg(), None, None, Some(&memo)).unwrap();
        assert_eq!(cs.pairs_memoized, 0, "first visit computes everything");
        assert!(cs.pairs_scored > 0);
        assert!(memo.entries() > 0);
        let (warm, ws) = build_edges_pruned(&views, &cfg(), None, None, Some(&memo)).unwrap();
        assert_eq!(ws.pairs_scored, 0, "second visit replays everything");
        assert_eq!(ws.pairs_skipped, 0, "admission-skipped pairs memoize too");
        assert!(ws.pairs_memoized > 0);
        for (a, b) in reference.iter().zip(cold.iter().chain(warm.iter())) {
            assert_eq!(a.a, b.a);
            assert_eq!(a.b, b.b);
            assert_eq!(a.sim.to_bits(), b.sim.to_bits());
            assert_eq!(a.nsim_ab.to_bits(), b.nsim_ab.to_bits());
            assert_eq!(a.nsim_ba.to_bits(), b.nsim_ba.to_bits());
        }
        assert_eq!(cold.len(), reference.len());
        assert_eq!(warm.len(), reference.len());
    }

    #[test]
    fn pair_memo_over_a_candidate_subset_keeps_global_indices() {
        let stats = CorpusStats::new();
        let tables = mixed_tables();
        let full: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, &stats, 0.3))
            .collect();
        let memo = PairMemo::for_config(&cfg());
        build_edges_pruned(&full, &cfg(), None, None, Some(&memo)).unwrap();
        // A later query retrieves a different, reordered candidate subset:
        // replayed pairs must land on the subset's own view indices.
        let subset: Vec<TableView<'_>> = [2usize, 0, 1]
            .iter()
            .map(|&i| TableView::new(&tables[i], &stats, 0.3))
            .collect();
        let (memoized, ms) = build_edges_pruned(&subset, &cfg(), None, None, Some(&memo)).unwrap();
        let (fresh, _) = build_edges_pruned(&subset, &cfg(), None, None, None).unwrap();
        assert!(ms.pairs_memoized > 0, "{ms:?}");
        assert_eq!(memoized.len(), fresh.len());
        for (a, b) in memoized.iter().zip(&fresh) {
            assert_eq!(a.a, b.a);
            assert_eq!(a.b, b.b);
            assert_eq!(a.sim.to_bits(), b.sim.to_bits());
            assert_eq!(a.nsim_ab.to_bits(), b.nsim_ab.to_bits());
            assert_eq!(a.nsim_ba.to_bits(), b.nsim_ba.to_bits());
        }
    }

    #[test]
    fn pair_memo_config_mismatch_is_bypassed() {
        let stats = CorpusStats::new();
        let tables = mixed_tables();
        let views: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, &stats, 0.3))
            .collect();
        let other = MapperConfig {
            min_column_sim: 0.5,
            ..MapperConfig::default()
        };
        let memo = PairMemo::for_config(&other);
        assert!(!memo.matches(&cfg()));
        for _ in 0..2 {
            let (_, s) = build_edges_pruned(&views, &cfg(), None, None, Some(&memo)).unwrap();
            assert_eq!(s.pairs_memoized, 0, "mismatched memo must be ignored");
            assert!(s.pairs_scored > 0);
        }
        assert_eq!(memo.entries(), 0);
    }

    #[test]
    fn cancel_hook_aborts_edge_construction() {
        let stats = CorpusStats::new();
        let tables = mixed_tables();
        let views: Vec<TableView<'_>> = tables
            .iter()
            .map(|t| TableView::new(t, &stats, 0.3))
            .collect();
        let cancel = || Err(WwtError::DeadlineExceeded("edges".into()));
        let res = build_edges_pruned(&views, &cfg(), None, Some(&cancel), None);
        assert!(matches!(res, Err(WwtError::DeadlineExceeded(_))));
    }

    #[test]
    fn no_self_table_edges() {
        let stats = CorpusStats::new();
        let t1 = make(
            0,
            vec!["A", "B"],
            vec![
                vec!["x", "y"],
                vec!["x", "y"], // identical columns within the table
            ],
        );
        let views = vec![TableView::new(&t1, &stats, 0.3)];
        assert!(build_edges(&views, &cfg()).is_empty());
    }
}
