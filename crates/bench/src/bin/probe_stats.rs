//! Reproduces the §2.2.1 two-stage probe statistics: the fraction of
//! queries that trigger the second index probe, the share of relevant
//! tables contributed by each stage, and the stage-wise relevant fraction.

use wwt_bench::setup;

fn main() {
    let exp = setup();
    let mut used2 = 0usize;
    let mut n_queries = 0usize;
    let mut s1_total = 0usize;
    let mut s1_rel = 0usize;
    let mut s2_total = 0usize;
    let mut s2_rel = 0usize;
    let mut rel_from_stage2 = Vec::new();

    for spec in &exp.specs {
        let retrieval = exp
            .bound
            .engine
            .retrieve(&spec.query)
            .expect("retrieval has no deadline and no injected faults");
        let (stage1, stage2, probe2) = (retrieval.stage1, retrieval.stage2, retrieval.probe2_used);
        if stage1.is_empty() && stage2.is_empty() {
            continue;
        }
        n_queries += 1;
        if probe2 {
            used2 += 1;
        }
        let relevant = |ids: &[wwt_model::TableId]| -> usize {
            ids.iter()
                .filter(|&&id| {
                    let t = exp.bound.engine.store().get(id).unwrap();
                    exp.bound
                        .truth_for(spec.index, id, t.n_cols())
                        .iter()
                        .any(|l| l.is_query_col())
                })
                .count()
        };
        let r1 = relevant(&stage1);
        let r2 = relevant(&stage2);
        s1_total += stage1.len();
        s1_rel += r1;
        s2_total += stage2.len();
        s2_rel += r2;
        if probe2 && r1 + r2 > 0 {
            rel_from_stage2.push(r2 as f64 / (r1 + r2) as f64);
        }
    }

    println!("\nTwo-stage index probe statistics (paper §2.2.1)\n");
    println!(
        "second probe used:          {:.0}% of answered queries   (paper: 65%)",
        100.0 * used2 as f64 / n_queries.max(1) as f64
    );
    let s2_share = if rel_from_stage2.is_empty() {
        0.0
    } else {
        100.0 * rel_from_stage2.iter().sum::<f64>() / rel_from_stage2.len() as f64
    };
    println!("relevant tables from stage2: {s2_share:.0}% (avg over probe-2 queries; paper: 50%)");
    println!(
        "relevant fraction stage 1:   {:.0}%                      (paper: 52%)",
        100.0 * s1_rel as f64 / s1_total.max(1) as f64
    );
    println!(
        "relevant fraction stage 2:   {:.0}%                      (paper: 70%)",
        100.0 * s2_rel as f64 / s2_total.max(1) as f64
    );
}
