//! Quick probe: run CIRC (both modes) over every benchmark model.
use circ_core::{circ, CircConfig, CircOutcome};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let filter = args.get(1).cloned().unwrap_or_default();
    for m in circ_nesc::models() {
        if !m.name.contains(&filter) {
            continue;
        }
        for (mode, cfg) in [("circ", CircConfig::default()), ("omega", CircConfig::omega())] {
            let program = m.program();
            let t0 = Instant::now();
            let outcome = circ(&program, &cfg);
            let dt = t0.elapsed();
            let verdict = match &outcome {
                CircOutcome::Safe(r) => format!(
                    "SAFE preds={} acfa={} k={} outer={} reach={} q={}",
                    r.preds.len(),
                    r.acfa.num_locs(),
                    r.k,
                    r.stats.pipeline.outer_rounds,
                    r.stats.pipeline.reach_runs,
                    r.stats.pipeline.solver.queries + r.stats.pipeline.abs.queries
                ),
                CircOutcome::Unsafe(r) => format!(
                    "UNSAFE threads={} steps={} replay={}",
                    r.cex.n_threads,
                    r.cex.steps.len(),
                    r.cex.replay_ok
                ),
                CircOutcome::Unknown(r) => format!("UNKNOWN {:?}", r.reason),
            };
            let expect = if m.expected_safe { "safe" } else { "racy" };
            println!("{:24} [{:5}] ({expect})  {dt:>10.2?}  {verdict}", m.name, mode);
        }
    }
}
