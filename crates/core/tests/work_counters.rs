//! Pinned work counters: the deterministic counts of one ω-mode run on
//! a token ring. A change to the graph phases (CheckSim, Collapse) or
//! to the abstraction that moves any of them changes the work CIRC
//! does, and has to say so by updating the pins.

use circ_core::{circ, CircConfig, CircOutcome};

#[test]
fn token_ring_4_omega_work_is_pinned() {
    let outcome = circ(&circ_nesc::token_ring(4), &CircConfig::omega());
    let CircOutcome::Safe(report) = &outcome else {
        panic!("token ring 4 must be Safe, got {outcome:?}");
    };
    assert_eq!(report.acfa.num_locs(), 34, "context ACFA size");
    let p = &outcome.stats().pipeline;
    assert_eq!(p.arg_nodes, 899, "ARG nodes");
    assert_eq!(p.sim_edge_pairs, 9634, "sim edge pairs");
    assert_eq!(p.collapse_iterations, 20, "collapse iterations");
    assert_eq!(p.solver.cache_misses, 243, "solver misses");
    assert_eq!(p.abs.cache_misses, 244, "abs misses");
}
