//! # wwt-core
//!
//! The column mapper — the primary contribution of *Pimplikar & Sarawagi,
//! "Answering Table Queries on the Web using Column Keywords"* (VLDB 2012).
//!
//! Given a query `Q = (Q1..Qq)` and candidate web tables `T1..Tn`, decide
//! for each table whether it is relevant, and if so which of its columns
//! map to which query columns. The task is posed as joint MAP inference in
//! a graphical model over *column variables* with label space
//! `{1..q} ∪ {na, nr}` (§3.1):
//!
//! * **Node potentials** (§3.2, [`potentials`]) combine the segmented
//!   similarity [`features::seg_sim`] (Eq. 1), the query-coverage feature
//!   [`features::cover`] (§3.2.2), corpus-wide co-occurrence
//!   [`features::pmi2`] (§3.2.3) and table relevance
//!   [`features::table_relevance`] (Eq. 2).
//! * **Edge potentials** (§3.3, [`colsim`]) transfer labels between
//!   content-overlapping columns of different tables, with similarity
//!   normalization, confidence gating and one-one max-matching edges.
//! * **Table-level hard constraints** (§3.4): `mutex`, `all-Irr`,
//!   `must-match`, `min-match`.
//!
//! Inference ([`inference`], §4): exact per-table matching via min-cost
//! flow, table-centric collective inference via max-marginal messages
//! (Figure 3), and edge-centric alternatives (constrained α-expansion,
//! loopy BP, TRW-S) for the paper's Table 2 comparison.
//!
//! [`metrics::f1_error`] implements the evaluation measure of §5 and
//! [`training`] the exhaustive-enumeration parameter search the paper used.

pub mod colsim;
pub mod config;
pub mod features;
pub mod inference;
pub mod mapper;
pub mod metrics;
pub mod potentials;
pub mod training;
pub mod view;

pub use colsim::{EdgeStats, PairMemo};
pub use config::{MapperConfig, SimilarityMode, Weights};
pub use mapper::{ColumnMapper, InferenceAlgorithm, MapCall, MapStats, MappingResult};
pub use metrics::f1_error;
pub use view::{TableFeatures, TableView};
