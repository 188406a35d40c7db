//! The generator is a pure function of the seed, and every ring variant
//! has the verdict it claims by construction — judged here by bounded
//! exhaustive exploration of the concrete semantics, not by CIRC.

use circ_ir::{Interp, MtProgram};
use circ_perf::gen::{self, RingEdit};

fn pool_bytes() -> String {
    gen::pool().iter().map(|p| format!("{}\n{}\n{}\n", p.name, p.expect_safe, p.source)).collect()
}

fn stream_bytes(seed: u64) -> String {
    let pool = gen::pool();
    let stream = gen::request_stream(seed, 3);
    stream.iter().enumerate().map(|(i, &ix)| gen::request_line(i, &pool[ix])).collect()
}

fn corpus_orders(seed: u64) -> Vec<Vec<usize>> {
    (0..3).map(|pass| gen::order(seed, pass, gen::pool().len())).collect()
}

#[test]
fn same_seed_same_bytes() {
    assert_eq!(pool_bytes(), pool_bytes());
    for seed in [0, 1, 42, u64::MAX] {
        assert_eq!(corpus_orders(seed), corpus_orders(seed));
        assert_eq!(stream_bytes(seed), stream_bytes(seed));
        assert_eq!(gen::ring_sizes(seed), gen::ring_sizes(seed));
    }
}

#[test]
fn different_seed_different_bytes() {
    assert_ne!(corpus_orders(1), corpus_orders(2));
    assert_ne!(stream_bytes(1), stream_bytes(2));
    assert_ne!(gen::order(1, 0, 30), gen::order(1, 1, 30), "passes differ too");
}

#[test]
fn workload_shapes() {
    let pool = gen::pool();
    assert!(pool.iter().any(|p| !p.expect_safe) && pool.iter().any(|p| p.expect_safe));
    let mut names: Vec<&str> = pool.iter().map(|p| p.name.as_str()).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), pool.len(), "pool file names are unique");
    let mut sizes = gen::ring_sizes(7);
    sizes.sort();
    assert_eq!(sizes, vec![8, 9, 10]);
    let stream = gen::request_stream(7, 4);
    assert_eq!(stream.len(), 4 * pool.len());
    for ix in 0..pool.len() {
        assert_eq!(stream.iter().filter(|&&i| i == ix).count(), 4);
    }
    let racy = gen::examples().into_iter().filter(|p| !p.expect_safe).map(|p| p.name);
    assert_eq!(racy.collect::<Vec<_>>(), vec!["example_unprotected.nesl"]);
}

/// Every edit of an `n`-phase ring the generator can produce.
fn all_edits(n: u32) -> Vec<RingEdit> {
    let mut edits = vec![RingEdit::Plain];
    for mask in 1..(1u32 << n) - 1 {
        edits.push(RingEdit::DropWrites((0..n).filter(|i| mask & (1 << i) != 0).collect()));
    }
    edits.extend((0..n).map(RingEdit::HoistWrite));
    edits
}

fn program(source: &str) -> MtProgram {
    let compiled = circ_frontend::compile(source).expect("generated source compiles");
    assert_eq!(compiled.race_vars.len(), 1);
    MtProgram::new(compiled.cfa, compiled.race_vars[0])
}

#[test]
fn small_variants_match_the_concrete_semantics() {
    for n in 1..=3 {
        for edit in all_edits(n) {
            let source = gen::ring_variant(n, &edit);
            let p = program(&source);
            for threads in [2, 3] {
                let witness = Interp::new(p.clone(), threads).explore_bounded(20_000, &[0]);
                assert_eq!(
                    witness.is_none(),
                    edit.expect_safe(),
                    "n={n} {edit:?} at {threads} threads:\n{source}"
                );
            }
        }
    }
}

#[test]
fn pool_rings_are_in_the_checked_space() {
    for n in 1..=gen::POOL_MAX_RING {
        for edit in gen::ring_family(n) {
            assert!(n > 3 || all_edits(n).contains(&edit));
            assert!(gen::ring_variant(n, &edit).contains("x = x + 1;"), "keeps a write");
        }
    }
}

#[test]
fn plain_variant_is_the_ring() {
    for n in 1..=6 {
        assert_eq!(gen::ring_variant(n, &RingEdit::Plain), circ_nesc::token_ring_source(n));
    }
}
