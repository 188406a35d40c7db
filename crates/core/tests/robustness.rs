//! Resource-governance tests: deadlines, memory ceilings,
//! cancellation, and coverage for every `UnknownReason` the driver can
//! emit. The soundness claim under test throughout: exhaustion and
//! analysis limits only ever *degrade* a verdict to `Unknown` — a run
//! that answers Safe or Unsafe did so with full evidence, and a run
//! that gives up still reports its partial statistics and log.

use circ_core::{
    circ, refine, AbsCtx, AbsState, AbstractCex, AbstractError, AbstractRace, Budget, CancelToken,
    CircConfig, CircOutcome, PredSet, Property, RefineOutcome, TraceOp, UnknownReason,
    UnknownReport,
};
use circ_ir::{figure1_cfa, BoolExpr, CfaBuilder, Expr, MtProgram, Op, Pred};
use std::time::{Duration, Instant};

/// A safe model built to make the analysis expensive: `n` globals are
/// each bumped in a chain, so the inferred context havocs all of them
/// and reachability splits cubes over the `n` seeded predicates —
/// state growth is exponential in `n`, and the collapsed context grows
/// large enough that the ω-goodness counter enumeration explodes too.
fn expander(n: usize) -> (MtProgram, Vec<Pred>) {
    let mut b = CfaBuilder::new("expander");
    let x = b.global("x");
    let gs: Vec<_> = (0..n).map(|i| b.global(format!("g{i}"))).collect();
    let mut cur = b.entry();
    for &g in &gs {
        let next = b.fresh_loc();
        b.edge(cur, Op::assign(g, Expr::var(g) + Expr::int(1)), next);
        cur = next;
    }
    let atomic = b.fresh_loc();
    b.mark_atomic(atomic);
    b.edge(cur, Op::skip(), atomic);
    let after = b.fresh_loc();
    b.edge(atomic, Op::assign(x, Expr::var(x) + Expr::int(1)), after);
    b.edge(after, Op::skip(), b.entry());
    let cfa = b.build();
    let x = cfa.var_by_name("x").unwrap();
    let preds = gs.iter().map(|&g| Pred::eq(Expr::var(g), Expr::int(0))).collect();
    (MtProgram::new(cfa, x), preds)
}

fn fig1_program() -> MtProgram {
    let cfa = figure1_cfa();
    let x = cfa.var_by_name("x").unwrap();
    MtProgram::new(cfa, x)
}

/// Every give-up path must leave evidence behind: the partial run's
/// counters and its event log up to the point of exhaustion.
fn assert_partial_evidence(report: &UnknownReport) {
    assert!(report.stats.pipeline.budget_polls > 0, "no budget polls recorded");
    assert!(report.stats.pipeline.reach_runs > 0, "no reachability attempt recorded");
    assert!(!report.log.events.is_empty(), "empty event log");
}

#[test]
fn deadline_degrades_unbounded_run_to_unknown() {
    // Without a budget this model runs for minutes (the probe that
    // motivated the governed counter enumeration); with a one-second
    // deadline it must give up promptly and honestly.
    let (program, preds) = expander(8);
    let cfg = CircConfig {
        initial_preds: preds,
        max_states: 50_000_000,
        timeout: Some(Duration::from_secs(1)),
        ..CircConfig::omega()
    };
    let t = Instant::now();
    let outcome = circ(&program, &cfg);
    let elapsed = t.elapsed();
    let CircOutcome::Unknown(report) = outcome else {
        panic!("expected Unknown(Deadline), got {outcome:?}");
    };
    assert!(
        matches!(report.reason, UnknownReason::Deadline(_)),
        "expected Deadline, got {:?}",
        report.reason
    );
    assert!(report.reason.is_budget_exhausted());
    // The poll spacing bounds the overshoot: well under the multi-
    // minute unbounded runtime. Generous to absorb slow CI machines.
    assert!(elapsed < Duration::from_secs(10), "deadline overshot: {elapsed:?}");
    assert!(elapsed >= Duration::from_secs(1), "gave up before the deadline: {elapsed:?}");
    assert_partial_evidence(&report);
}

#[test]
fn memory_ceiling_degrades_to_unknown() {
    let (program, preds) = expander(8);
    let cfg = CircConfig {
        initial_preds: preds,
        max_states: 50_000_000,
        mem_limit_bytes: Some(256 * 1024),
        ..CircConfig::omega()
    };
    let outcome = circ(&program, &cfg);
    let CircOutcome::Unknown(report) = outcome else {
        panic!("expected Unknown(MemoryLimit), got {outcome:?}");
    };
    let UnknownReason::MemoryLimit { limit_bytes, charged_bytes } = report.reason else {
        panic!("expected MemoryLimit, got {:?}", report.reason);
    };
    assert_eq!(limit_bytes, 256 * 1024);
    assert!(charged_bytes > limit_bytes, "overdraft not reported: {charged_bytes}");
    assert!(report.stats.pipeline.mem_charged_bytes > limit_bytes);
    assert_partial_evidence(&report);
}

#[test]
fn pre_cancelled_token_aborts_at_first_poll() {
    let token = CancelToken::new();
    token.cancel();
    let cfg = CircConfig { cancel: token, ..CircConfig::default() };
    let outcome = circ(&fig1_program(), &cfg);
    let CircOutcome::Unknown(report) = outcome else {
        panic!("expected Unknown(Cancelled), got {outcome:?}");
    };
    assert!(matches!(report.reason, UnknownReason::Cancelled), "{:?}", report.reason);
    assert!(report.reason.is_budget_exhausted());
    assert!(report.stats.pipeline.budget_polls > 0);
}

#[test]
fn cross_thread_cancellation_stops_a_long_run() {
    let (program, preds) = expander(8);
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            token.cancel();
        })
    };
    let cfg = CircConfig {
        initial_preds: preds,
        max_states: 50_000_000,
        cancel: token,
        ..CircConfig::omega()
    };
    let t = Instant::now();
    let outcome = circ(&program, &cfg);
    let elapsed = t.elapsed();
    canceller.join().unwrap();
    let CircOutcome::Unknown(report) = outcome else {
        panic!("expected Unknown(Cancelled), got {outcome:?}");
    };
    assert!(matches!(report.reason, UnknownReason::Cancelled), "{:?}", report.reason);
    assert!(elapsed < Duration::from_secs(30), "cancellation ignored for {elapsed:?}");
    assert_partial_evidence(&report);
}

#[test]
fn generous_budget_does_not_change_the_verdict() {
    // Soundness of the governance layer itself: a budget that never
    // trips must leave the verdict exactly as the unbudgeted run's.
    let cfg = CircConfig {
        timeout: Some(Duration::from_secs(600)),
        mem_limit_bytes: Some(1 << 30),
        ..CircConfig::default()
    };
    let outcome = circ(&fig1_program(), &cfg);
    assert!(outcome.is_safe(), "budget plumbing flipped a Safe verdict: {outcome:?}");
}

#[test]
fn state_limit_reports_partial_evidence() {
    let cfg = CircConfig { max_states: 2, ..CircConfig::default() };
    let outcome = circ(&fig1_program(), &cfg);
    let CircOutcome::Unknown(report) = outcome else {
        panic!("expected Unknown(StateLimit), got {outcome:?}");
    };
    assert!(matches!(report.reason, UnknownReason::StateLimit(2)), "{:?}", report.reason);
    assert!(!report.reason.is_budget_exhausted(), "StateLimit is an analysis bound, not a budget");
    assert_partial_evidence(&report);
}

#[test]
fn iteration_limit_reports_partial_evidence() {
    // Figure 1 needs several refinement rounds; one outer round is not
    // enough, so the driver must give up with IterationLimit.
    let cfg = CircConfig { max_outer: 1, ..CircConfig::default() };
    let outcome = circ(&fig1_program(), &cfg);
    let CircOutcome::Unknown(report) = outcome else {
        panic!("expected Unknown(IterationLimit), got {outcome:?}");
    };
    assert!(matches!(report.reason, UnknownReason::IterationLimit), "{:?}", report.reason);
    assert!(!report.reason.is_budget_exhausted());
    assert_eq!(report.stats.pipeline.outer_rounds, 1);
    assert_partial_evidence(&report);
}

#[test]
fn nonlinear_guard_surfaces_as_refine_failed() {
    // A racy increment loop guarded by a non-linear assume: the
    // abstraction passes through it (soundly, via Unknown-as-sat), the
    // race is found, and refinement then fails to encode the trace
    // formula — which must surface as RefineFailed, not a panic.
    let mut b = CfaBuilder::new("nonlinear");
    let x = b.global("x");
    let y = b.global("y");
    let l1 = b.entry();
    let l2 = b.fresh_loc();
    let l3 = b.fresh_loc();
    b.edge(l1, Op::assume(BoolExpr::ge(Expr::var(y) * Expr::var(y), Expr::int(0))), l2);
    b.edge(l2, Op::assign(x, Expr::var(x) + Expr::int(1)), l3);
    b.edge(l3, Op::skip(), l1);
    let cfa = b.build();
    let x = cfa.var_by_name("x").unwrap();
    let program = MtProgram::new(cfa, x);
    let outcome = circ(&program, &CircConfig::default());
    let CircOutcome::Unknown(report) = outcome else {
        panic!("expected Unknown(RefineFailed), got {outcome:?}");
    };
    assert!(
        matches!(report.reason, UnknownReason::RefineFailed(_)),
        "expected RefineFailed, got {:?}",
        report.reason
    );
    assert!(!report.reason.is_budget_exhausted());
    assert_partial_evidence(&report);
}

/// The two `Stuck` exits of refinement, driven directly: both fire
/// when a counterexample needs context threads but no concretizer
/// exists (an empty context model), and both must return gracefully
/// rather than panic. The driver maps them to `UnknownReason::Stuck`.
#[test]
fn refine_without_concretizer_is_stuck_not_panicking() {
    let program = fig1_program();
    let cfa = program.cfa_arc();
    let preds = PredSet::from_preds(&cfa, std::iter::empty());
    let acfa = circ_acfa::Acfa::empty(0);
    let abs = AbsCtx::new(cfa.clone(), preds.clone());
    let state = AbsState {
        pc: cfa.entry(),
        cube: abs.initial_cube(),
        ctx: circ_acfa::ContextState::initial(&acfa, circ_acfa::CVal::Fin(1)),
    };
    let budget = Budget::unlimited();

    // A race that blames a context thread, with no context to blame.
    let cex = AbstractCex {
        steps: Vec::new(),
        final_state: state.clone(),
        error: AbstractError::Race(AbstractRace::MainAndContext {
            main_writes: true,
            ctx_loc: acfa.entry(),
        }),
    };
    let (outcome, _) = refine(&program, &acfa, &cex, None, &preds, Property::Race, &budget);
    let RefineOutcome::Stuck(msg) = outcome else {
        panic!("expected Stuck, got {outcome:?}");
    };
    assert!(msg.contains("empty context"), "{msg}");

    // A trace that moves a context thread, with no concretizer.
    let cex = AbstractCex {
        steps: vec![(state.clone(), TraceOp::Ctx { src: acfa.entry(), edge_ix: 0 })],
        final_state: state,
        error: AbstractError::Assertion,
    };
    let (outcome, _) = refine(&program, &acfa, &cex, None, &preds, Property::Race, &budget);
    let RefineOutcome::Stuck(msg) = outcome else {
        panic!("expected Stuck, got {outcome:?}");
    };
    assert!(msg.contains("concretizer"), "{msg}");
}
