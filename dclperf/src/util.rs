//! Small helpers: the seeded generator, process resource usage, order
//! statistics and single-line JSON.

use dcl_bench::report::JsonValue;

/// SplitMix64: a tiny, fast, seedable generator.  Every input of every
/// workload is derived from `--seed` through it, so the same seed always
/// yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of a run: `parts` (workload tag, round,
    /// buffer size, ...) are mixed into the seed so streams never overlap.
    pub fn new(seed: u64, parts: &[u64]) -> Rng {
        let mut rng = Rng(seed ^ 0x6a09_e667_f3bc_c908);
        for &p in parts {
            rng.0 ^= p.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            rng.next_u64();
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, bound)` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Overwrite `out` with generator output.
    pub fn fill(&mut self, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        let n = tail.len();
        tail.copy_from_slice(&last[..n]);
    }
}

/// CPU time and peak resident set size of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub max_rss_kib: i64,
}

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s followed by
/// fourteen `long`s, of which only `ru_maxrss` (KiB) is read.
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// `getrusage(RUSAGE_SELF)`: every thread of the process, which includes the
/// in-process daemons, their queue workers and the VM's worker threads.
pub fn usage() -> Usage {
    let mut raw = RUsage {
        utime: TimeVal { sec: 0, usec: 0 },
        stime: TimeVal { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `raw` is a live, writable `struct rusage` with the C layout of
    // the 64-bit Linux ABI (two timevals of two i64 each, then 14 longs), so
    // the kernel writes only inside it.  RUSAGE_SELF is always valid.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage { user_s: secs(&raw.utime), sys_s: secs(&raw.stime), max_rss_kib: raw.maxrss }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    dcl_bench::report::percentile(&sorted, q * 100.0)
}

/// Render `value` on one line (the report writer pretty-prints; strings
/// never contain raw newlines, so dropping line breaks and indentation is
/// lossless).
pub fn json_line(value: &JsonValue) -> String {
    value.to_pretty().lines().map(str::trim_start).collect::<Vec<_>>().join("")
}
