//! Randomized validation of the control-abstraction machinery: the
//! weak-bisimulation quotient must always simulate the original
//! automaton (the invariant CIRC's guarantee step relies on), be
//! idempotent, and the cube/region lattice operations must respect
//! their semantic contracts.
//!
//! Inputs are drawn from a deterministic seeded generator so failures
//! reproduce exactly; each assertion message carries the case index.

use circ_acfa::{
    check_sim, check_sim_budgeted, check_sim_counting, collapse, Acfa, AcfaEdge, AcfaLocId,
    CollapseResult, Cube, PredIx, Region,
};
use circ_governor::Budget;
use circ_ir::Var;
use circ_par::Pool;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

const NPREDS: usize = 2;
const NVARS: u32 = 2;
const CASES: usize = 96;

fn gen_cube(rng: &mut StdRng) -> Cube {
    let mut c = Cube::top(NPREDS);
    for i in 0..NPREDS {
        match rng.gen_range(0u32..3) {
            0 => {}
            1 => c.set(PredIx(i as u32), false),
            _ => c.set(PredIx(i as u32), true),
        }
    }
    c
}

fn gen_region(rng: &mut StdRng) -> Region {
    let mut r = Region::empty();
    for _ in 0..rng.gen_range(1usize..3) {
        r.add(gen_cube(rng));
    }
    r
}

fn gen_acfa(rng: &mut StdRng) -> Acfa {
    gen_acfa_sized(rng, 6, 8)
}

/// An ACFA with `2..max_locs` locations and `1..max_edges` edges.
fn gen_acfa_sized(rng: &mut StdRng, max_locs: u32, max_edges: usize) -> Acfa {
    let n = rng.gen_range(2u32..max_locs);
    let regions = (0..n).map(|_| gen_region(rng)).collect();
    let mut atomic: Vec<bool> = (0..n).map(|_| rng.gen_bool_uniform()).collect();
    atomic[0] = false; // entry stays non-atomic
    let edges = (0..rng.gen_range(1usize..max_edges))
        .map(|_| {
            let src = rng.gen_range(0..n);
            let dst = rng.gen_range(0..n);
            let havoc_mask = rng.gen_range(0u32..(1 << NVARS));
            AcfaEdge {
                src: AcfaLocId(src),
                havoc: (0..NVARS)
                    .filter(|i| havoc_mask & (1 << i) != 0)
                    .map(Var::from_raw)
                    .collect::<BTreeSet<_>>(),
                dst: AcfaLocId(dst),
            }
        })
        .collect();
    Acfa::from_parts(regions, atomic, edges)
}

/// Semantic state set of a cube over boolean predicate valuations.
fn cube_admits(c: &Cube, valuation: u32) -> bool {
    c.literals().all(|(i, v)| ((valuation >> i.0) & 1 == 1) == v)
}

fn region_admits(r: &Region, valuation: u32) -> bool {
    r.cubes().iter().any(|c| cube_admits(c, valuation))
}

#[test]
fn quotient_simulates_original() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0001);
    for case in 0..CASES {
        let g = gen_acfa(&mut rng);
        let q = collapse(&g);
        assert!(
            check_sim(&g, &q.acfa),
            "case {case}: the collapse quotient must weakly simulate its input: {g:?}"
        );
        assert!(q.acfa.num_locs() <= g.num_locs(), "case {case}");
        assert_eq!(q.map.len(), g.num_locs(), "case {case}");
        assert_eq!(q.map[g.entry().index()], q.acfa.entry(), "case {case}");
    }
}

/// Shrunk counterexample formerly checked in as a proptest regression
/// seed: two locations with comparable (but unequal) regions and a
/// havoc self-loop once collapsed into a quotient that failed to
/// weakly simulate the input.
#[test]
fn quotient_simulates_original_regression() {
    let mut narrow = Cube::top(NPREDS);
    narrow.set(PredIx(0), false);
    let mut r0 = Region::empty();
    r0.add(Cube::top(NPREDS));
    let mut r1 = Region::empty();
    r1.add(narrow);
    let havoc0: BTreeSet<Var> = [Var::from_raw(0)].into_iter().collect();
    let g = Acfa::from_parts(
        vec![r0, r1],
        vec![false, false],
        vec![
            AcfaEdge { src: AcfaLocId(0), havoc: havoc0.clone(), dst: AcfaLocId(1) },
            AcfaEdge { src: AcfaLocId(0), havoc: BTreeSet::new(), dst: AcfaLocId(1) },
            AcfaEdge { src: AcfaLocId(1), havoc: havoc0, dst: AcfaLocId(0) },
        ],
    );
    let q = collapse(&g);
    assert!(check_sim(&g, &q.acfa), "the collapse quotient must weakly simulate its input: {g:?}");
}

#[test]
fn collapse_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0002);
    for case in 0..CASES {
        let g = gen_acfa(&mut rng);
        let once = collapse(&g);
        let twice = collapse(&once.acfa);
        assert_eq!(
            once.acfa.num_locs(),
            twice.acfa.num_locs(),
            "case {case}: a quotient must be its own quotient: {g:?}"
        );
    }
}

/// The signature refinement `collapse` used before it ran over interned
/// ids, kept as a reference: `BTreeSet` signatures rebuilt from the
/// τ-closures every round, blocks keyed by the region's display form.
fn reference_collapse(g: &Acfa) -> CollapseResult {
    type SigEntry = (Option<BTreeSet<Var>>, u32);
    let n = g.num_locs();
    let tau: Vec<BTreeSet<AcfaLocId>> =
        g.tau_closures().into_iter().map(|c| c.into_iter().collect()).collect();
    let signature = |block: &[u32], q: AcfaLocId| {
        let mut sig: BTreeSet<SigEntry> = BTreeSet::new();
        let my_block = block[q.index()];
        for &s1 in &tau[q.index()] {
            if block[s1.index()] != my_block {
                sig.insert((None, block[s1.index()]));
            }
            for e in g.out_edges(s1) {
                if e.havoc.is_empty() {
                    continue;
                }
                for &s2 in &tau[e.dst.index()] {
                    sig.insert((Some(e.havoc.clone()), block[s2.index()]));
                }
            }
        }
        sig
    };
    let same_partition = |a: &[u32], b: &[u32]| {
        let mut fwd: BTreeMap<u32, u32> = BTreeMap::new();
        let mut bwd: BTreeMap<u32, u32> = BTreeMap::new();
        a.iter()
            .zip(b)
            .all(|(&x, &y)| *fwd.entry(x).or_insert(y) == y && *bwd.entry(y).or_insert(x) == x)
    };

    let mut block: Vec<u32> = vec![0; n];
    let mut key_to_block: BTreeMap<(String, bool), u32> = BTreeMap::new();
    for q in g.locs() {
        let key = (format!("{}", g.region(q)), g.is_atomic(q));
        let next = key_to_block.len() as u32;
        block[q.index()] = *key_to_block.entry(key).or_insert(next);
    }
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let mut key_to_block: BTreeMap<(u32, BTreeSet<SigEntry>), u32> = BTreeMap::new();
        let mut new_block = vec![0u32; n];
        for q in g.locs() {
            let key = (block[q.index()], signature(&block, q));
            let next = key_to_block.len() as u32;
            new_block[q.index()] = *key_to_block.entry(key).or_insert(next);
        }
        let stable = same_partition(&block, &new_block);
        block = new_block;
        if stable {
            break;
        }
    }

    // Renumber so the entry's class is location 0.
    let mut renum: BTreeMap<u32, u32> = BTreeMap::new();
    renum.insert(block[g.entry().index()], 0);
    for &b in &block {
        let next = renum.len() as u32;
        renum.entry(b).or_insert(next);
    }
    let map: Vec<AcfaLocId> = block.iter().map(|b| AcfaLocId(renum[b])).collect();
    let mut regions = vec![None; renum.len()];
    let mut atomic = vec![false; renum.len()];
    for q in g.locs() {
        let b = map[q.index()].index();
        if regions[b].is_none() {
            regions[b] = Some(g.region(q).clone());
            atomic[b] = g.is_atomic(q);
        }
    }
    let mut edge_map: BTreeMap<(u32, u32), BTreeSet<Var>> = BTreeMap::new();
    for e in g.edges() {
        let (bs, bd) = (map[e.src.index()], map[e.dst.index()]);
        if bs != bd || !e.havoc.is_empty() {
            edge_map.entry((bs.0, bd.0)).or_default().extend(e.havoc.iter().copied());
        }
    }
    let edges = edge_map
        .into_iter()
        .map(|((s, d), havoc)| AcfaEdge { src: AcfaLocId(s), havoc, dst: AcfaLocId(d) })
        .collect();
    let regions = regions.into_iter().map(Option::unwrap).collect();
    CollapseResult { acfa: Acfa::from_parts(regions, atomic, edges), map, iterations }
}

/// `g` with every location relabeled by the region of location
/// `q % 2`, so that many locations start in one block.
fn two_labels(g: &Acfa) -> Acfa {
    let regions = g.locs().map(|q| g.region(AcfaLocId(q.0 % 2)).clone()).collect();
    let atomic = g.locs().map(|q| g.is_atomic(q)).collect();
    Acfa::from_parts(regions, atomic, g.edges().to_vec())
}

#[test]
fn collapse_matches_reference_refinement() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0009);
    let mut multi_round = 0;
    for case in 0..4 * CASES {
        let g = match case % 3 {
            0 => gen_acfa(&mut rng),
            1 => gen_acfa_sized(&mut rng, 14, 28),
            _ => two_labels(&gen_acfa_sized(&mut rng, 14, 28)),
        };
        let got = collapse(&g);
        assert_eq!(got, reference_collapse(&g), "case {case}: {g:?}");
        if got.iterations > 2 {
            multi_round += 1;
        }
    }
    assert!(multi_round > 0, "the cases never needed a second splitting round");
}

#[test]
fn check_sim_asks_each_region_pair_once() {
    let mut rng = StdRng::seed_from_u64(0xacfa_000a);
    for case in 0..2 * CASES {
        let g = gen_acfa_sized(&mut rng, 10, 20);
        // A quotient (simulates `g`), `g` itself, and an unrelated ACFA.
        let a = match case % 3 {
            0 => collapse(&g).acfa,
            1 => g.clone(),
            _ => gen_acfa_sized(&mut rng, 10, 20),
        };
        for jobs in [1, 2] {
            let calls: Mutex<HashMap<(Region, Region), u32>> = Mutex::new(HashMap::new());
            let counting = |x: &Region, y: &Region| {
                *calls.lock().unwrap().entry((x.clone(), y.clone())).or_insert(0) += 1;
                x.contained_in(y)
            };
            let got = check_sim_budgeted(&g, &a, &counting, &Pool::new(jobs), &Budget::unlimited())
                .expect("an unlimited budget cannot exhaust");
            let calls = calls.into_inner().unwrap();
            assert!(
                calls.values().all(|&n| n == 1),
                "case {case} jobs {jobs}: a region pair was asked twice: {calls:?}"
            );
            let syntactic = check_sim_counting(&g, &a, &|x, y| x.contained_in(y));
            assert_eq!(got, syntactic, "case {case} jobs {jobs}");
            assert_eq!(got.0, check_sim(&g, &a), "case {case} jobs {jobs}");
        }
    }
}

#[test]
fn simulation_is_reflexive() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0003);
    for case in 0..CASES {
        let g = gen_acfa(&mut rng);
        assert!(check_sim(&g, &g), "case {case}: {g:?}");
    }
}

#[test]
fn cube_meet_is_intersection() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0004);
    for case in 0..CASES {
        let a = gen_cube(&mut rng);
        let b = gen_cube(&mut rng);
        for valuation in 0..(1u32 << NPREDS) {
            let both = cube_admits(&a, valuation) && cube_admits(&b, valuation);
            match a.meet(&b) {
                Some(m) => assert_eq!(
                    cube_admits(&m, valuation),
                    both,
                    "case {case}: meet of {a} and {b} wrong at {valuation:b}"
                ),
                None => assert!(!both, "case {case}: meet said empty but {valuation:b} is in both"),
            }
        }
    }
}

#[test]
fn cube_subsumption_is_containment() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0005);
    for case in 0..CASES {
        let a = gen_cube(&mut rng);
        let b = gen_cube(&mut rng);
        if a.subsumed_by(&b) {
            for valuation in 0..(1u32 << NPREDS) {
                if cube_admits(&a, valuation) {
                    assert!(cube_admits(&b, valuation), "case {case}: {a} ⊑ {b}");
                }
            }
        }
    }
}

#[test]
fn region_union_and_containment() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0006);
    for case in 0..CASES {
        let r1 = gen_region(&mut rng);
        let r2 = gen_region(&mut rng);
        let mut u = r1.clone();
        u.union(&r2);
        for valuation in 0..(1u32 << NPREDS) {
            assert_eq!(
                region_admits(&u, valuation),
                region_admits(&r1, valuation) || region_admits(&r2, valuation),
                "case {case}"
            );
        }
        // syntactic containment implies semantic containment
        if r1.contained_in(&r2) {
            for valuation in 0..(1u32 << NPREDS) {
                if region_admits(&r1, valuation) {
                    assert!(region_admits(&r2, valuation), "case {case}");
                }
            }
        }
        // both operands are contained in the union
        assert!(r1.contained_in(&u), "case {case}");
        assert!(r2.contained_in(&u), "case {case}");
    }
}

#[test]
fn region_meet_is_intersection() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0007);
    for case in 0..CASES {
        let r1 = gen_region(&mut rng);
        let r2 = gen_region(&mut rng);
        let m = r1.meet(&r2);
        for valuation in 0..(1u32 << NPREDS) {
            assert_eq!(
                region_admits(&m, valuation),
                region_admits(&r1, valuation) && region_admits(&r2, valuation),
                "case {case}"
            );
        }
    }
}

#[test]
fn region_project_weakens() {
    let mut rng = StdRng::seed_from_u64(0xacfa_0008);
    for case in 0..CASES {
        let r = gen_region(&mut rng);
        let keep_mask = rng.gen_range(0u32..(1 << NPREDS));
        let p = r.project(&|i| keep_mask & (1 << i.0) != 0);
        for valuation in 0..(1u32 << NPREDS) {
            if region_admits(&r, valuation) {
                assert!(
                    region_admits(&p, valuation),
                    "case {case}: projection must over-approximate"
                );
            }
        }
    }
}
