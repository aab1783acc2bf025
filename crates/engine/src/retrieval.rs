//! The named result of two-stage candidate retrieval (§2.2.1). Its stage
//! timings live once per response, in `QueryDiagnostics::timing`.

use wwt_model::TableId;

/// Outcome of the two-stage index probe for one query.
#[derive(Debug, Clone, Default)]
pub struct Retrieval {
    /// Ids retrieved by the first probe (query keywords), ranked.
    pub stage1: Vec<TableId>,
    /// Ids newly contributed by the second probe (sampled rows of
    /// confident stage-1 tables), ranked; disjoint from `stage1`.
    pub stage2: Vec<TableId>,
    /// Whether the second probe fired (some stage-1 table cleared the
    /// high-relevance bar).
    pub probe2_used: bool,
}

impl Retrieval {
    /// All candidate ids, stage-1 first then stage-2, preserving rank
    /// order within each stage.
    pub fn candidates(&self) -> Vec<TableId> {
        self.stage1
            .iter()
            .chain(self.stage2.iter())
            .copied()
            .collect()
    }

    /// Total number of candidates across both stages.
    pub fn len(&self) -> usize {
        self.stage1.len() + self.stage2.len()
    }

    /// True iff neither probe found any candidate.
    pub fn is_empty(&self) -> bool {
        self.stage1.is_empty() && self.stage2.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_concatenates_stages_in_order() {
        let r = Retrieval {
            stage1: vec![TableId(3), TableId(1)],
            stage2: vec![TableId(9)],
            probe2_used: true,
        };
        assert_eq!(r.candidates(), vec![TableId(3), TableId(1), TableId(9)]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(Retrieval::default().is_empty());
    }
}
