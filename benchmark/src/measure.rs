//! Clocks, process probes and order statistics shared by every workload.

use std::time::Instant;

/// Process CPU time (user + system, all threads) in seconds, from
/// `CLOCK_PROCESS_CPUTIME_ID` — nanosecond resolution, unlike the 10 ms
/// ticks of `/proc/self/stat`, so a 50 ms warm iteration still reads true.
#[cfg(target_os = "linux")]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec with the Linux 64-bit
    // layout (`time_t` and `long` are both 64-bit on the supported
    // targets), and the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Writes every dirty page-cache page back to disk (`sync(2)`), so the
/// kernel's delayed writeback of files an untimed step wrote cannot land
/// inside a later timed phase.
#[cfg(target_os = "linux")]
pub fn flush_dirty_pages() {
    extern "C" {
        fn sync();
    }
    // SAFETY: sync(2) takes no arguments, touches no memory of this
    // process and always succeeds.
    unsafe { sync() }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Wall and CPU seconds of one timed region.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Times `f`, returning its result with the wall and process CPU it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Span) {
    let (c0, t0) = (process_cpu_s(), Instant::now());
    let out = f();
    let span = Span { wall_s: t0.elapsed().as_secs_f64(), cpu_s: process_cpu_s() - c0 };
    (out, span)
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice: the
/// smallest sample with at least `p`% of the samples at or below it.
/// Exact over every sample, unlike the bucketed live histograms.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a 64 of `bytes` as 16 hex digits — the digest the run journal
/// and the reference file use for artifact payloads.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", kcb_util::fnv1a(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_a_known_sample() {
        // 1..=100: the p-th percentile by nearest rank is exactly p.
        let xs: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&xs, 50.0), Some(50));
        assert_eq!(nearest_rank(&xs, 99.0), Some(99));
        assert_eq!(nearest_rank(&xs, 100.0), Some(100));
        assert_eq!(nearest_rank(&xs, 0.0), Some(1));
        // Ten samples: p50 is the 5th, p99 rounds up to the 10th.
        let ys = [3u32, 5, 7, 9, 11, 13, 15, 17, 19, 1000];
        assert_eq!(nearest_rank(&ys, 50.0), Some(11));
        assert_eq!(nearest_rank(&ys, 90.0), Some(19));
        assert_eq!(nearest_rank(&ys, 99.0), Some(1000));
        assert_eq!(nearest_rank::<u32>(&[], 50.0), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let (sum, span) = timed(|| (0..20_000_000u64).fold(0u64, |a, x| a ^ x.wrapping_mul(31)));
        std::hint::black_box(sum);
        assert!(span.cpu_s > 0.0 && span.wall_s > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
