//! The interface every workload implements, and the output-comparison
//! helpers the workloads share.

use crate::record::Recorder;
use crate::trace::Tracer;
use dopencl::Client;

/// One closed-loop workload: one application client thread that issues its
/// next request only after the previous one completed.
pub trait Workload: Sized {
    /// What one unit of `work_per_s` is for this workload.
    const WORK_UNIT: &'static str;
    /// What one `op_p50_us` sample is for this workload.
    const REQUEST: &'static str;

    /// Start the daemons, connect the client, create every object, build
    /// the programs and warm up.  The inputs derive from `seed` only.
    fn setup(seed: u64, tracer: &Tracer) -> Result<Self, String>;

    /// One round: generate the round's inputs (untimed), run its operations
    /// (timed, through `rec`), then check the outputs against a host
    /// computation (untimed).  `Err` means an output was wrong.
    fn round(&mut self, round: u64, rec: &mut Recorder, tracer: &Tracer) -> Result<(), String>;

    /// Corrupt one byte or element of the last checked output and run the
    /// output check on it again: it must fail.  `Err` if the check missed
    /// the corruption (it would be vacuous).
    fn check_catches_corruption(&self) -> Result<(), String>;

    /// The application's client (for its wire-traffic counters).
    fn client(&self) -> &Client;

    /// Extra human-readable result lines (e.g. per-direction throughput).
    fn summary(&self, _rec: &Recorder) -> Vec<String> {
        Vec::new()
    }
}

/// Whether a check result says "mismatch" — the self-check helper.
pub fn expect_mismatch(name: &str, result: Result<(), String>) -> Result<(), String> {
    match result {
        Err(_) => Ok(()),
        Ok(()) => Err(format!("{name}: the output check accepted a corrupted output")),
    }
}

/// Compare `got` with `want` element-wise; describe the first difference.
pub fn compare<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: &[T],
    want: &[T],
) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    if got.len() != want.len() {
        return Err(format!("{what}: {} elements, expected {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => {
            let wrong = got.iter().zip(want).filter(|(a, b)| a != b).count();
            Err(format!(
                "{what}: {wrong} of {} elements differ, first at {i}: got {:?}, expected {:?}",
                want.len(),
                got[i],
                want[i]
            ))
        }
    }
}

/// Little-endian `u32`s of a byte buffer.
pub fn u32s(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
}

/// The bytes of little-endian `u32`s.
pub fn u32_bytes(values: &[u32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}
