//! The benchmark's own arithmetic: medians, percentiles and the tail rule,
//! failure fractions, the process clocks (CPU time, peak RSS), and the
//! reference work that gauges the host's speed.

/// Samples a percentile needs beyond it before it is reported as such.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p` percentile by nearest rank; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[((p * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// The highest percentile up to `want` that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, by nearest rank; `None` when
/// only percentiles at or below the median would.
pub fn tail_percentile(n: usize, want: f64) -> Option<f64> {
    // Nearest rank r (1-based) = ceil(p·n) leaves n − r samples beyond.
    let wanted_rank = (want * n as f64).ceil() as usize;
    if n >= wanted_rank + MIN_BEYOND {
        return Some(want);
    }
    let rank = n.saturating_sub(MIN_BEYOND);
    (2 * rank > n).then(|| rank as f64 / n as f64)
}

/// How one attempted check ended, as far as failure counting goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ended {
    /// A Safe or Race verdict.
    Verdict,
    /// Inconclusive or budget-exhausted.
    Inconclusive,
    /// Internal error, compile error, or a broken response.
    Errored,
    /// Refused by admission control (`overloaded`, `shutting-down`).
    Shed,
}

/// Checks that did not end in a verdict, over checks attempted (0 for
/// none attempted).
pub fn fail_frac(ended: &[Ended]) -> f64 {
    if ended.is_empty() {
        return 0.0;
    }
    ended.iter().filter(|e| **e != Ended::Verdict).count() as f64 / ended.len() as f64
}

/// Maps a batch verdict name to how the check ended.
pub fn ended_of_verdict(name: &str) -> Ended {
    match name {
        "safe" | "race" => Ended::Verdict,
        "inconclusive" | "budget-exhausted" => Ended::Inconclusive,
        _ => Ended::Errored,
    }
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU seconds of this process, all threads, so far.
pub fn cpu_seconds() -> f64 {
    let mut r = Rusage { utime: [0; 2], stime: [0; 2], rest: [0; 14] };
    // SAFETY: `Rusage` matches `struct rusage` on 64-bit Linux (two
    // timevals then fourteen longs) and the pointer is valid for the call.
    let rc = unsafe { getrusage(0, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(r.utime) + tv(r.stime)
}

/// What one run of the reference work took.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds of the process, per thread of the reference work.
    pub cpu_s: f64,
}

/// Runs `threads` copies of a fixed piece of work at once and times them.
/// The work (hash-map updates, then a sort) is the benchmark's own and
/// shares no code with the checker, so its time follows only the host's
/// speed: its CPU time grows when each instruction is slower, its wall
/// time also when the host takes the core away. Its map stays under 1 MB,
/// so that it does not raise the process's peak memory above the
/// checker's.
pub fn reference(threads: usize) -> Reference {
    fn work(seed: u64) -> u64 {
        let mut counts = std::collections::HashMap::new();
        let mut x = seed | 1;
        for i in 0..800_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *counts.entry(x % 16_384).or_insert(0u64) += i;
        }
        let mut v: Vec<u64> = counts.into_values().collect();
        v.sort_unstable();
        v.iter().fold(0, |a, b| a.wrapping_mul(31).wrapping_add(*b))
    }
    let (start, cpu) = (std::time::Instant::now(), cpu_seconds());
    std::thread::scope(|s| {
        for t in 1..threads {
            s.spawn(move || std::hint::black_box(work(t as u64)));
        }
        std::hint::black_box(work(0));
    });
    Reference {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: (cpu_seconds() - cpu) / threads.max(1) as f64,
    }
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&[2.0, 7.0, 5.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(100, 0.9), Some(0.9));
        assert_eq!(tail_percentile(1000, 0.9), Some(0.9));
        // 50 samples: p90 would leave 5 beyond; rank 40 = p80 leaves 10.
        assert_eq!(tail_percentile(50, 0.9), Some(0.8));
        // 15 samples: 10 beyond means rank 5, below the median.
        assert_eq!(tail_percentile(15, 0.9), None);
        assert_eq!(tail_percentile(20, 0.9), None);
        assert_eq!(tail_percentile(0, 0.9), None);
    }

    #[test]
    fn shed_and_inconclusive_count_as_failed() {
        let ended = [Ended::Verdict, Ended::Shed, Ended::Inconclusive, Ended::Verdict];
        assert_eq!(fail_frac(&ended), 0.5);
        assert_eq!(fail_frac(&[Ended::Verdict, Ended::Errored]), 0.5);
        assert_eq!(fail_frac(&[Ended::Verdict]), 0.0);
        assert_eq!(fail_frac(&[]), 0.0);
        assert_eq!(ended_of_verdict("budget-exhausted"), Ended::Inconclusive);
        assert_eq!(ended_of_verdict("race"), Ended::Verdict);
        assert_eq!(ended_of_verdict("internal-error"), Ended::Errored);
    }

    #[test]
    fn clocks_move() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(x != 1);
        assert!(cpu_seconds() >= before);
        for threads in [1, 2] {
            let r = reference(threads);
            assert!(r.wall_s > 0.0 && r.cpu_s > 0.0);
        }
        assert!(peak_rss_mb() > 0.0);
    }
}
