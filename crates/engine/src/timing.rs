//! Per-stage timing of the online pipeline (paper Figure 7 splits query
//! time into: 1st index probe, 1st table read, 2nd index probe, 2nd table
//! read, column mapping, consolidation).

use std::time::Duration;
use wwt_obs::Stage;

/// Wall-clock time spent in each online stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// First index probe.
    pub index1: Duration,
    /// Reading stage-1 candidate tables from the store.
    pub read1: Duration,
    /// Second index probe (zero when not used).
    pub index2: Duration,
    /// Reading stage-2 candidate tables.
    pub read2: Duration,
    /// Column mapping (including the top-2 pre-mapping for the probe).
    pub column_map: Duration,
    /// Consolidation + ranking.
    pub consolidate: Duration,
    /// First probe, per index shard, in scatter order — the straggler
    /// view of the scatter-gather (one entry per shard; a single-shard
    /// engine reports one entry).
    pub probe1_shards: Vec<Duration>,
    /// Second probe, per index shard (empty when the probe did not fire).
    pub probe2_shards: Vec<Duration>,
}

impl StageTimings {
    /// The six pipeline stages in Figure 7's order, each with its
    /// duration — the one list that stage histograms, flight-recorder
    /// traces and [`StageTimings::total`] derive from.
    pub fn stages(&self) -> [(Stage, Duration); 6] {
        [
            (Stage::Probe1, self.index1),
            (Stage::Read1, self.read1),
            (Stage::Probe2, self.index2),
            (Stage::Read2, self.read2),
            (Stage::ColumnMap, self.column_map),
            (Stage::Consolidate, self.consolidate),
        ]
    }

    /// Total time across stages.
    pub fn total(&self) -> Duration {
        self.stages().iter().map(|&(_, d)| d).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_components() {
        let t = StageTimings {
            index1: Duration::from_millis(5),
            read1: Duration::from_millis(10),
            index2: Duration::from_millis(3),
            read2: Duration::from_millis(7),
            column_map: Duration::from_millis(20),
            consolidate: Duration::from_millis(5),
            ..Default::default()
        };
        assert_eq!(t.total(), Duration::from_millis(50));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(StageTimings::default().total(), Duration::ZERO);
    }
}
