//! Reproduces **Table 1**: the query set with per-query total and relevant
//! source-table counts, as measured by the two-stage index probe over the
//! synthetic corpus, next to the paper's counts.

use wwt_bench::{print_text_table, setup};

fn main() {
    let exp = setup();
    let mut rows = Vec::new();
    let mut sum_total = 0usize;
    let mut sum_rel = 0usize;
    for spec in &exp.specs {
        let retrieval = exp
            .bound
            .engine
            .retrieve(&spec.query)
            .expect("retrieval has no deadline and no injected faults");
        let candidates = retrieval.candidates();
        let relevant = candidates
            .iter()
            .filter(|&&id| {
                let t = exp.bound.engine.store().get(id).unwrap();
                exp.bound
                    .truth_for(spec.index, id, t.n_cols())
                    .iter()
                    .any(|l| l.is_query_col())
            })
            .count();
        sum_total += candidates.len();
        sum_rel += relevant;
        rows.push(vec![
            spec.query.to_string(),
            format!("{}", candidates.len()),
            format!("{relevant}"),
            format!("{}", spec.total),
            format!("{}", spec.relevant),
        ]);
    }
    println!(
        "\nTable 1: query set (measured at corpus scale {})\n",
        exp.scale
    );
    print_text_table(
        &[
            "Query",
            "Total",
            "Relevant",
            "Paper Total",
            "Paper Relevant",
        ],
        &rows,
    );
    let n = exp.specs.len() as f64;
    println!(
        "\nmeasured: avg candidates/query = {:.2}, relevant fraction = {:.0}%",
        sum_total as f64 / n,
        100.0 * sum_rel as f64 / sum_total.max(1) as f64
    );
    println!("paper   : avg candidates/query = 32.29, relevant fraction = 60%");
}
