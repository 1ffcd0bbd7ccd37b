//! Percentiles under the "ten samples beyond" rule, medians, the process's
//! own CPU and memory figures, and its CPU affinity.

/// Percentile levels a timing may be reported at, ascending.
pub const LEVELS: [f64; 3] = [0.50, 0.90, 0.99];

/// The highest level of [`LEVELS`] not above `wanted` that still has at
/// least ten samples beyond it; the median when even that has fewer (a
/// timing is always reported as at least a median, with its count).
pub fn supported_level(samples: usize, wanted: f64) -> f64 {
    LEVELS
        .iter()
        .rev()
        .copied()
        .find(|&level| level <= wanted && samples_beyond(samples, level) >= 10)
        .unwrap_or(LEVELS[0])
}

/// Whole samples above the `level` percentile of `samples` observations
/// (the nudge keeps `100 × (1 − 0.9)` = 9.999… from flooring to 9).
pub fn samples_beyond(samples: usize, level: f64) -> usize {
    (samples as f64 * (1.0 - level) + 1e-6).floor() as usize
}

/// The `level` percentile of ascending `sorted` nanosecond samples.
///
/// Clock readings are whole nanoseconds, so many samples tie. The value
/// is the grouped-data estimate: the tied group holding the target rank
/// is taken to spread evenly over `v ± 0.5 ns`, which keeps the sub-ns
/// digits the rank carries instead of rounding them away.
pub fn percentile(sorted: &[u32], level: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((level * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let lo = sorted.partition_point(|&s| s < value);
    let hi = sorted.partition_point(|&s| s <= value);
    value as f64 - 0.5 + (rank - lo) as f64 / (hi - lo) as f64
}

/// A reported timing: the value, the level it was taken at, and how many
/// samples it rests on.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Microseconds.
    pub us: f64,
    /// Level actually used (≤ the wanted one).
    pub level: f64,
    /// Sample count.
    pub samples: usize,
}

/// The `wanted` percentile of `sorted` ns samples, in µs, at the highest
/// level the sample supports.
pub fn timing(sorted: &[u32], wanted: f64) -> Timing {
    let level = supported_level(sorted.len(), wanted);
    Timing {
        us: percentile(sorted, level) / 1_000.0,
        level,
        samples: sorted.len(),
    }
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Linux `struct timespec`.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    // From libc, which `std` already links.
    fn clock_gettime(clock_id: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    fn sched_getcpu() -> std::ffi::c_int;
    fn sched_setaffinity(pid: std::ffi::c_int, size: usize, mask: *const u64) -> std::ffi::c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has used so far, at nanosecond resolution. `/proc/self/stat`
/// counts the same in 10 ms ticks, which is 0.5 % of a two-second round.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the C layout for the
    // whole call, and `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        let (user, sys) = cpu_seconds();
        return user + sys;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Restrict the calling thread, and every thread it spawns from now on, to
/// the CPU it is running on (best effort: a refusal leaves it unpinned).
///
/// The remote workloads run caller, reactor and executor threads that hand
/// one call from one to the next; on one CPU a hand-off is a context
/// switch, on two it is a cross-CPU wake-up whose cost depends on where the
/// host has put the virtual CPUs (the same `serve_mix` stream cost 21 µs of
/// CPU per statement pinned and 41 µs not).
pub fn pin_to_current_cpu() {
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory of ours.
    let cpu = unsafe { sched_getcpu() };
    // A `cpu_set_t` is 1024 bits.
    let mut mask = [0u64; 16];
    let Some(word) = usize::try_from(cpu).ok().and_then(|c| mask.get_mut(c / 64)) else {
        return;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of exactly the size passed, read-only
    // to the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// User and system CPU seconds of this process so far (`/proc/self/stat`,
/// `USER_HZ` = 100 on Linux) — only for the user/system split.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the name.
    let mut fields = stat
        .rsplit(')')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (user, sys) = (ticks(), ticks());
    (user / 100.0, sys / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1 000 samples, p90 100, p50 20.
        assert_eq!(supported_level(1_000, 0.99), 0.99);
        assert_eq!(supported_level(999, 0.99), 0.90);
        assert_eq!(supported_level(100, 0.99), 0.90);
        assert_eq!(supported_level(99, 0.99), 0.50);
        assert_eq!(supported_level(20, 0.99), 0.50);
        // Below 20 samples only the median is left, and it says so via `samples`.
        assert_eq!(supported_level(5, 0.99), 0.50);
        // Never above what was asked for.
        assert_eq!(supported_level(1_000_000, 0.50), 0.50);
        assert_eq!(supported_level(1_000_000, 0.90), 0.90);
    }

    #[test]
    fn percentile_picks_the_ranked_sample() {
        let sorted: Vec<u32> = (1..=100).map(|i| i * 10).collect();
        assert!((percentile(&sorted, 0.50) - 500.0).abs() <= 0.5);
        assert!((percentile(&sorted, 0.99) - 990.0).abs() <= 0.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn ties_interpolate_inside_one_nanosecond() {
        // 100 samples of 7 ns: the median sits in the middle of the tie.
        let sorted = vec![7u32; 100];
        assert!((percentile(&sorted, 0.50) - 7.0).abs() < 0.01);
        // Rank moves inside the tied group → value moves inside ±0.5 ns.
        assert!(percentile(&sorted, 0.90) > percentile(&sorted, 0.50));
        assert!(percentile(&sorted, 0.99) <= 7.5);
    }

    #[test]
    fn timing_reports_level_and_count() {
        let sorted: Vec<u32> = (0..150).collect();
        let t = timing(&sorted, 0.99);
        assert_eq!(t.level, 0.90);
        assert_eq!(t.samples, 150);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
