//! `bulk_transfer`: one daemon over TCP loopback; the client writes seeded
//! buffers of 1–64 MiB and reads each back.
//!
//! Bytes per command are at their largest here, so the gcf bulk streams,
//! the client and daemon copies and `vocl` buffer memory do almost all the
//! work; the `oclc` VM and coherence planning do none.

use crate::record::Recorder;
use crate::stack::Stack;
use crate::trace::Tracer;
use crate::util::Rng;
use crate::workload::{compare, expect_mismatch, Workload};
use dopencl::{Buffer, Client};
use std::collections::BTreeMap;
use std::time::Instant;

const TAG: u64 = 0xb01c;
const MIB: usize = 1 << 20;
/// The buffer sizes of one round, in MiB; each is written and read back
/// once per round.  The largest round trip is the latency sample: it is
/// bandwidth-bound, so CPU time lost to other tenants of the host slows it
/// in proportion, while the thread hand-offs that dominate a 1 MiB round
/// trip made its median double between identical runs.
pub const SIZES_MIB: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
const CAPACITY: usize = 64 * MIB;

pub struct Bulk {
    seed: u64,
    buffer: Buffer,
    /// Round-trip times in µs per buffer size in MiB (human-readable lines).
    round_trips_us: BTreeMap<usize, Vec<f64>>,
    /// The seeded payload of the current transfer (`CAPACITY` bytes, of
    /// which the first `len` are in use).
    data: Vec<u8>,
    len: usize,
    /// What the last read returned.
    last_read: Vec<u8>,
    write_s: f64,
    read_s: f64,
    bytes_each_way: f64,
    stack: Stack,
}

impl Bulk {
    /// Write `len` bytes of the payload and read them back.
    fn transfer(&mut self, len: usize, rec: &mut Recorder, tracer: &Tracer) -> Result<(), String> {
        let queue = &self.stack.queues[0];
        let (buffer, data) = (&self.buffer, &self.data[..len]);
        let timed = rec.start();
        let t0 = Instant::now();
        let wrote = rec.op("write", || {
            tracer.span("client.write", || queue.write_buffer(buffer, data).blocking().submit())
        });
        let t1 = Instant::now();
        let read = rec.op("read", || {
            tracer.span("client.read", || queue.read_buffer(buffer).len(len).submit())
        });
        let t2 = Instant::now();
        let wall = rec.stop(timed);
        let (Some(_), Some((bytes, _))) = (wrote, read) else { return Ok(()) };
        if len == CAPACITY {
            rec.latency(wall);
        }
        self.round_trips_us.entry(len / MIB).or_default().push(wall.as_secs_f64() * 1e6);
        self.write_s += (t1 - t0).as_secs_f64();
        self.read_s += (t2 - t1).as_secs_f64();
        self.bytes_each_way += len as f64;
        self.last_read = bytes;
        self.len = len;
        self.check(&self.last_read)
    }

    fn check(&self, got: &[u8]) -> Result<(), String> {
        compare(
            &format!("bulk_transfer {} MiB read-back", self.len / MIB),
            got,
            &self.data[..self.len],
        )
    }
}

impl Workload for Bulk {
    const WORK_UNIT: &'static str = "MB moved (written plus read)";
    const REQUEST: &'static str = "blocking write of a 64 MiB buffer plus its blocking read-back";

    fn setup(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let stack = tracer.span("client.connect", Stack::tcp)?;
        let buffer =
            stack.context.create_buffer(CAPACITY).map_err(|e| format!("create buffer: {e}"))?;
        let mut bulk = Bulk {
            seed,
            buffer,
            data: vec![0; CAPACITY],
            len: CAPACITY,
            round_trips_us: BTreeMap::new(),
            last_read: Vec::new(),
            write_s: 0.0,
            read_s: 0.0,
            bytes_each_way: 0.0,
            stack,
        };
        // Warm-up: one full-size round trip, which also makes the daemon's
        // copy valid over the whole buffer.
        Rng::new(seed, &[TAG, u64::MAX]).fill(&mut bulk.data);
        let mut warm = Recorder::default();
        bulk.transfer(CAPACITY, &mut warm, tracer)?;
        if warm.failed() > 0 {
            return Err("bulk_transfer warm-up transfer failed".into());
        }
        bulk.round_trips_us.clear();
        bulk.write_s = 0.0;
        bulk.read_s = 0.0;
        bulk.bytes_each_way = 0.0;
        Ok(bulk)
    }

    fn round(&mut self, round: u64, rec: &mut Recorder, tracer: &Tracer) -> Result<(), String> {
        let mut moved = 0.0;
        for mib in SIZES_MIB {
            let len = mib * MIB;
            Rng::new(self.seed, &[TAG, round, mib as u64]).fill(&mut self.data[..len]);
            self.transfer(len, rec, tracer)?;
            moved += 2.0 * len as f64 / 1e6;
        }
        rec.end_round(moved);
        Ok(())
    }

    fn check_catches_corruption(&self) -> Result<(), String> {
        let mut corrupted = self.last_read.clone();
        let at = Rng::new(self.seed, &[TAG, 0xbad]).below(corrupted.len());
        corrupted[at] ^= 0x01;
        expect_mismatch("bulk_transfer", self.check(&corrupted))
    }

    fn client(&self) -> &Client {
        &self.stack.client
    }

    fn summary(&self, _rec: &Recorder) -> Vec<String> {
        let medians: Vec<String> = self
            .round_trips_us
            .iter()
            .map(|(mib, us)| format!("{mib} MiB {:.0}", crate::util::median(us)))
            .collect();
        vec![
            format!("round trip p50 us: {}", medians.join(", ")),
            format!(
                "write_MBps {:.1} MB/s (blocking writes, 1-64 MiB)",
                self.bytes_each_way / self.write_s / 1e6
            ),
            format!(
                "read_MBps {:.1} MB/s (blocking reads, 1-64 MiB)",
                self.bytes_each_way / self.read_s / 1e6
            ),
        ]
    }
}
