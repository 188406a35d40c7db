//! Replays the final round of a Safe check through the public phase
//! functions, one span per phase, and re-establishes its guarantee:
//! the main thread reaches no race under the final context, and the
//! context simulates the main thread's ARG.

use crate::trace::Recorder;
use circ_acfa::{check_sim_budgeted, collapse, context_reach_with, Acfa, CVal, ContextState};
use circ_core::{reach_and_build, AbsCtx, Budget, PredSet, Property, ReachError, SafeReport};
use circ_ir::MtProgram;
use circ_par::Pool;
use std::sync::atomic::{AtomicU64, Ordering};

/// Deterministic work counts of one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Final-round replays run.
    pub replays: u64,
    /// Calls CheckSim made to the region-containment oracle.
    pub region_contained_calls: u64,
    /// Context states the label-consistent environment reaches.
    pub context_reach_configs: u64,
}

impl ReplayCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &ReplayCounts) {
        self.replays += other.replays;
        self.region_contained_calls += other.region_contained_calls;
        self.context_reach_configs += other.context_reach_configs;
    }
}

/// Is the conjunction of the occupied locations' labels satisfiable?
/// Without this filter the environment's configuration space explodes.
fn label_consistent(abs: &AbsCtx, a: &Acfa, cfg: &ContextState) -> bool {
    let mut acc: Option<circ_acfa::Region> = None;
    for q in cfg.occupied() {
        let next = match acc {
            None => a.region(q).clone(),
            Some(have) => have.meet(a.region(q)),
        };
        if next.is_empty() {
            return false;
        }
        acc = Some(next);
    }
    acc.is_none_or(|r| r.cubes().iter().any(|c| abs.cube_sat(c)))
}

/// Replays `report`'s final round on `program` in ω-mode. Errors name
/// the guarantee that failed to re-establish.
pub fn replay_final_round(
    rec: &Recorder,
    program: &MtProgram,
    report: &SafeReport,
) -> Result<ReplayCounts, String> {
    let cfa = program.cfa_arc();
    let (k, context) = (report.k, &report.acfa);
    let (pool, budget) = (Pool::sequential(), Budget::unlimited());
    let abs = rec.span("core.abs_ctx_new", || {
        AbsCtx::new(cfa.clone(), PredSet::from_preds(&cfa, report.preds.iter().cloned()))
    });
    let reached = rec.span("core.reach_and_build", || {
        reach_and_build(
            &abs,
            program,
            context,
            k,
            CVal::Fin(k),
            usize::MAX,
            Property::Race,
            &pool,
            &budget,
        )
    });
    let arg = match reached {
        Ok(arg) => arg,
        Err(ReachError::Race(_)) => return Err("final-round replay reached a race".into()),
        Err(e) => return Err(format!("final-round replay did not finish: {e:?}")),
    };
    let exported = rec.span("core.arg_export", || arg.export(&cfa, abs.preds()));
    let calls = AtomicU64::new(0);
    let oracle = |x: &circ_acfa::Region, y: &circ_acfa::Region| {
        calls.fetch_add(1, Ordering::Relaxed);
        rec.span("core.region_contained", || abs.region_contained(x, y))
    };
    let sim = rec.span("acfa.check_sim", || {
        check_sim_budgeted(&exported.acfa, context, &oracle, &pool, &budget)
    });
    match sim {
        Ok((true, _)) => {}
        Ok((false, _)) => return Err("final-round replay: the context does not simulate".into()),
        Err(e) => return Err(format!("final-round replay: check_sim did not finish: {e:?}")),
    }
    let collapsed = rec.span("acfa.collapse", || collapse(&exported.acfa));
    let a = &collapsed.acfa;
    let configs = rec.span("acfa.context_reach", || {
        context_reach_with(a, k, CVal::Omega, &mut |cfg| label_consistent(&abs, a, cfg)).len()
    });
    Ok(ReplayCounts {
        replays: 1,
        region_contained_calls: calls.into_inner(),
        context_reach_configs: configs as u64,
    })
}

/// Checks every `#race` variable of the Safe program `source` in
/// ω-mode and replays each final round.
pub fn replay_source(rec: &Recorder, source: &str) -> Result<ReplayCounts, String> {
    let compiled = circ_frontend::compile(source).map_err(|e| e.to_string())?;
    let mut total = ReplayCounts::default();
    for &var in &compiled.race_vars {
        let program = MtProgram::new(compiled.cfa.clone(), var);
        match circ_core::circ(&program, &circ_core::CircConfig::omega()) {
            circ_core::CircOutcome::Safe(report) => {
                total.add(&replay_final_round(rec, &program, &report)?)
            }
            _ => return Err("a program checked Safe in the workload is not Safe here".into()),
        }
    }
    Ok(total)
}
