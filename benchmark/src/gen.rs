//! Seeded inputs: token-ring variants whose verdict is known by
//! construction, the nesC models, the examples, and the program pool
//! the corpus and request stream are drawn from.
//!
//! Everything here is a pure function of the seed, so one seed names
//! one byte-identical set of inputs. The seed picks orders, not
//! amounts of work: a seeded choice of ring sizes or edits moved the
//! per-run figures by 17–53% from seed to seed, which no bound could
//! tell apart from a real change.

use circ_nesc::token_ring_source;

/// SplitMix64: small, seedable, and good enough to draw inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An edit of an `n`-phase token ring with a verdict known by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingEdit {
    /// `token_ring_source(n)` unchanged: safe.
    Plain,
    /// The write to `x` removed from these phases: fewer accesses under
    /// the same token discipline, so still safe.
    DropWrites(Vec<u32>),
    /// The write of this phase moved before its `if (got == 1)` token
    /// check: every thread runs it, so two threads can write at once.
    HoistWrite(u32),
}

impl RingEdit {
    /// The verdict the edit has by construction.
    pub fn expect_safe(&self) -> bool {
        !matches!(self, RingEdit::HoistWrite(_))
    }
}

const WRITE: &str = "      x = x + 1;";
const CHECK: &str = "    if (got == 1) {";

/// `token_ring_source(n)` with `edit` applied.
pub fn ring_variant(n: u32, edit: &RingEdit) -> String {
    let plain = token_ring_source(n);
    let mut out = String::with_capacity(plain.len() + WRITE.len());
    let (mut check_ix, mut write_ix) = (0u32, 0u32);
    for line in plain.lines() {
        if line == CHECK {
            if *edit == RingEdit::HoistWrite(check_ix) {
                out.push_str(WRITE);
                out.push('\n');
            }
            check_ix += 1;
        } else if line == WRITE {
            let phase = write_ix;
            write_ix += 1;
            let moved = *edit == RingEdit::HoistWrite(phase);
            let dropped = matches!(edit, RingEdit::DropWrites(ps) if ps.contains(&phase));
            if moved || dropped {
                continue;
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    assert_eq!((check_ix, write_ix), (n, n), "token_ring_source layout changed");
    out
}

/// The ring variants of size `n` in the pool: the plain ring, the ring
/// without its first write (`n > 1`), and every hoisted write.
pub fn ring_family(n: u32) -> Vec<RingEdit> {
    let mut edits = vec![RingEdit::Plain];
    if n > 1 {
        edits.push(RingEdit::DropWrites(vec![0]));
    }
    edits.extend((0..n).map(RingEdit::HoistWrite));
    edits
}

/// One input program with its known verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// File name in the corpus directory and request `name`.
    pub name: String,
    /// NesL source text.
    pub source: String,
    /// The known answer: race-free on every `#race` variable.
    pub expect_safe: bool,
}

/// The four example programs; `unprotected.nesl` is the racy one.
pub fn examples() -> Vec<Program> {
    let ex = |name: &str, source: &str, expect_safe: bool| Program {
        name: format!("example_{name}.nesl"),
        source: source.to_string(),
        expect_safe,
    };
    vec![
        ex("atomic_counter", include_str!("../../examples/atomic_counter.nesl"), true),
        ex("read_only", include_str!("../../examples/read_only.nesl"), true),
        ex("test_and_set", include_str!("../../examples/test_and_set.nesl"), true),
        ex("unprotected", include_str!("../../examples/unprotected.nesl"), false),
    ]
}

/// The nesC models with `Model::expected_safe` as the known answer.
pub fn models() -> Vec<Program> {
    circ_nesc::models()
        .into_iter()
        .map(|m| Program {
            name: format!("model_{}.nesl", m.name),
            source: m.source.to_string(),
            expect_safe: m.expected_safe,
        })
        .collect()
}

/// Largest ring in the corpus and serve pool.
pub const POOL_MAX_RING: u32 = 4;

/// The program pool the corpus and the request stream are made of: the
/// models, the examples, and [`ring_family`] for every ring size
/// `1..=POOL_MAX_RING`. The pool is the same for every seed, so every
/// seed asks for the same amount of work; seeds differ in the order it
/// arrives in.
pub fn pool() -> Vec<Program> {
    let mut out = models();
    out.extend(examples());
    for n in 1..=POOL_MAX_RING {
        for edit in ring_family(n) {
            let tag = match &edit {
                RingEdit::Plain => "plain".to_string(),
                RingEdit::DropWrites(ps) => format!("drop{}", ps[0]),
                RingEdit::HoistWrite(p) => format!("hoist{p}"),
            };
            out.push(Program {
                name: format!("ring{n}_{tag}.nesl"),
                source: ring_variant(n, &edit),
                expect_safe: edit.expect_safe(),
            });
        }
    }
    out
}

/// A seeded permutation of `0..n`: the order of the `round`-th pass over
/// the pool (batch input order, or the serve request stream's round).
pub fn order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed.wrapping_mul(0x100_0000_01b3) ^ round);
    // Decorrelate neighbouring (seed, round) pairs before drawing.
    rng.next_u64();
    let mut ix: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ix);
    ix
}

/// The serve request stream for `seed`: `rounds` seeded permutations
/// of the pool, as indices into [`pool`].
pub fn request_stream(seed: u64, rounds: usize) -> Vec<usize> {
    let n = pool().len();
    (0..rounds as u64).flat_map(|r| order(seed, r, n)).collect()
}

/// The ring sizes the `ring` workload checks, in seeded order.
pub fn ring_sizes(seed: u64) -> Vec<u32> {
    let mut sizes = vec![8, 9, 10];
    Rng::new(seed ^ 0x7269_6e67).shuffle(&mut sizes);
    sizes
}

/// The JSON request line asking the daemon to check `p`.
pub fn request_line(id: usize, p: &Program) -> String {
    format!(
        "{{\"op\":\"check\",\"id\":{id},\"name\":\"{}\",\"source\":\"{}\"}}\n",
        circ_batch::json_escape(&p.name),
        circ_batch::json_escape(&p.source)
    )
}
