//! Quickstart: write a tiny concurrent program in NesL, compile it,
//! and ask CIRC whether arbitrarily many threads can race on a
//! shared variable.
//!
//! ```text
//! cargo run --release -p circ-bench --example quickstart
//! ```

use circ_core::{circ, CircConfig, CircOutcome};
use circ_ir::MtProgram;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A thread that guards `counter` with a test-and-set flag instead
    // of a lock. Lockset-based tools flag this; it is race-free.
    let source = r#"
        global int counter;
        global int busy;
        #race counter;

        thread worker {
          local int mine;
          loop {
            atomic {
              mine = busy;
              if (busy == 0) { busy = 1; }
            }
            if (mine == 0) {
              counter = counter + 1;   // protected by the flag
              busy = 0;
            }
          }
        }
    "#;

    // 1. Compile NesL to a control flow automaton.
    let compiled = circ_frontend::compile(source)?;
    let race_var = compiled.race_vars[0];
    println!(
        "compiled thread `{}`: {} locations, {} edges",
        compiled.cfa.name(),
        compiled.cfa.num_locs(),
        compiled.cfa.edges().len()
    );

    // 2. Check the symmetric unbounded-thread program for races.
    let program = MtProgram::new(compiled.cfa.clone(), race_var);
    let outcome = circ(&program, &CircConfig::omega());

    // 3. Read the verdict.
    match outcome {
        CircOutcome::Safe(report) => {
            println!("\nSAFE: no data race on `counter`, for ANY number of threads.");
            println!("  discovered predicates: {}", report.preds.len());
            println!("  inferred context model: {} abstract locations", report.acfa.num_locs());
            println!("  counter parameter k = {}", report.k);
            println!(
                "  {} reachability runs, {:?}",
                report.stats.pipeline.reach_runs, report.stats.elapsed
            );
        }
        CircOutcome::Unsafe(report) => {
            println!("\nRACE on `counter`! {}-thread schedule:", report.cex.n_threads);
            for (tid, eid, _) in &report.cex.steps {
                println!("  T{tid}: {}", compiled.cfa.edge(*eid).op);
            }
        }
        CircOutcome::Unknown(report) => {
            println!("\ninconclusive: {:?}", report.reason);
        }
    }
    Ok(())
}
