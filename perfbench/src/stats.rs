//! Small statistics helpers: medians, the latency-tail rule, digests,
//! and what the process has used so far.

/// Median of a non-empty sample (mean of the middle pair for even
/// lengths).
///
/// # Panics
///
/// Panics on an empty sample: a measurement that took no samples has
/// no median.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The `p`-th percentile (`p` in `(0, 100]`) of a non-empty sample by
/// the nearest-rank method: the smallest sample with at least `p`% of
/// the sample at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Largest value of a non-empty sample.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, in tenths of a percent,
/// highest first.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// A latency tail: the highest ladder percentile that still has
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The sample at that percentile (nearest-rank).
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} whose
/// nearest-rank sample has at least [`TAIL_MIN_BEYOND`] samples beyond
/// it, or `None` when even the median does not (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&tenths| {
        // Nearest rank, 1-based: ceil(p * n), in integer arithmetic.
        let rank = (tenths * n).div_ceil(1000).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: tenths as f64 / 10.0,
            value: v[rank - 1],
            beyond,
        })
    })
}

/// FNV-1a 64-bit digest, the same function the lab uses for campaign
/// digests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU seconds used by every thread of this process
/// so far, exited threads included.
pub fn process_cpu_seconds() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for the
    // 64-bit Linux ABI (two timevals followed by fourteen longs).
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 10.0), 2.0);
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&[7.0], 10.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 10.0), 1.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 sits at rank 990 with exactly 10 beyond.
        assert_eq!(
            tail(&ramp(1000)),
            Some(Tail {
                percentile: 99.0,
                value: 990.0,
                beyond: 10
            })
        );
        // 100 samples: p95 leaves 5, p90 leaves exactly 10.
        assert_eq!(
            tail(&ramp(100)),
            Some(Tail {
                percentile: 90.0,
                value: 90.0,
                beyond: 10
            })
        );
        // 10_000 samples reach p99.9.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9990.0, 10));
        // 99 samples: p90 is rank 90 with 9 beyond, so p75 it is.
        let t = tail(&ramp(99)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 75.0, 24));
        // Order of the input does not matter.
        let mut shuffled = ramp(100);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), tail(&ramp(100)));
    }

    #[test]
    fn tail_needs_twenty_samples() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(
            tail(&ramp(20)),
            Some(Tail {
                percentile: 50.0,
                value: 10.0,
                beyond: 10
            })
        );
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_seconds() >= 0.0);
    }
}
