//! `halo_exchange`: two in-process daemons share one context.  Two
//! ping-pong buffers of integers are partitioned across the servers; each
//! iteration each server computes its half of a stencil whose input is the
//! whole buffer.
//!
//! The only workload in which a buffer is shared by two servers:
//! `dopencl::coherence` plans range fetches and uploads and moves the other
//! server's half through the client every iteration (the paper's §III-D
//! consistency protocol).  The per-element kernel is small, so coherence
//! and transfers, not the VM, dominate.

use crate::record::Recorder;
use crate::stack::Stack;
use crate::trace::Tracer;
use crate::util::Rng;
use crate::workload::{compare, expect_mismatch, u32_bytes, u32s, Workload};
use dopencl::{Buffer, Client, Event, Kernel, NdRange, Value};
use std::time::Instant;

const TAG: u64 = 0x4a10;
/// Elements (`uint`) per buffer.
pub const ELEMS: usize = 1 << 18;
const HALF: usize = ELEMS / 2;
/// Stencil iterations per round (even, so the result is back in buffer A).
pub const ITERS: usize = 16;

pub const HALO_SOURCE: &str = r#"
__kernel void halo_step(__global const uint* in, __global uint* out, uint n) {
    size_t i = get_global_id(0);
    size_t l = (i == 0) ? n - 1 : i - 1;
    size_t r = (i + 1 == n) ? 0 : i + 1;
    out[i] = in[l] + 3u * in[i] + in[r] + 1u;
}
"#;

/// Host model of one stencil step (wrapping `uint` arithmetic).
pub fn host_step(input: &[u32], output: &mut [u32]) {
    let n = input.len();
    for i in 0..n {
        let l = input[(i + n - 1) % n];
        let r = input[(i + 1) % n];
        output[i] = l.wrapping_add(input[i].wrapping_mul(3)).wrapping_add(r).wrapping_add(1);
    }
}

/// Seeded initial contents of buffer A for `round`.
pub fn initial(seed: u64, round: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed, &[TAG, round]);
    (0..ELEMS).map(|_| rng.next_u32()).collect()
}

pub struct Halo {
    seed: u64,
    /// `[A, B]`: iteration `t` reads `buffers[t % 2]` and writes the other.
    buffers: Vec<Buffer>,
    /// `kernels[p]` reads `buffers[p]` and writes `buffers[1 - p]`.
    kernels: Vec<Kernel>,
    expected: Vec<u32>,
    last_read: Vec<u32>,
    stack: Stack,
}

impl Halo {
    /// Write `init` to A, run `iters` iterations, read A back.
    fn run(&mut self, init: &[u32], iters: usize, rec: &mut Recorder, tracer: &Tracer) {
        let queues = &self.stack.queues;
        let bytes = u32_bytes(init);
        let a = &self.buffers[0];
        rec.op("write", || {
            tracer.span("client.write", || queues[0].write_buffer(a, &bytes).blocking().submit())
        });
        for t in 0..iters {
            let (kernel, output) = (&self.kernels[t % 2], &self.buffers[1 - t % 2]);
            let start = Instant::now();
            let mut events = Vec::new();
            for (server, queue) in queues.iter().enumerate() {
                let launch = queue
                    .launch(kernel, NdRange::linear(HALF).with_offset([server * HALF, 0, 0]))
                    .writes_slice(output, server * HALF * 4, HALF * 4);
                if let Some(event) =
                    rec.op("launch", || tracer.span("client.submit", || launch.submit()))
                {
                    events.push(event);
                }
            }
            let waited = rec.op("wait", || tracer.span("client.wait", || Event::wait_all(&events)));
            if waited.is_some() && events.len() == queues.len() {
                rec.latency(start.elapsed());
            }
        }
        if let Some((data, _)) =
            rec.op("read", || tracer.span("client.read", || queues[0].read_buffer(a).submit()))
        {
            self.last_read = u32s(&data);
        }
    }

    fn expect(&mut self, init: Vec<u32>, iters: usize) {
        let mut current = init;
        let mut next = vec![0; ELEMS];
        for _ in 0..iters {
            host_step(&current, &mut next);
            std::mem::swap(&mut current, &mut next);
        }
        self.expected = current;
    }

    fn check(&self, got: &[u32]) -> Result<(), String> {
        compare("halo_exchange result", got, &self.expected)
    }
}

impl Workload for Halo {
    const WORK_UNIT: &'static str = "stencil iteration";
    const REQUEST: &'static str = "one iteration: both halves launched and waited";

    fn setup(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let stack = tracer.span("client.connect", Stack::inproc_pair)?;
        let program = stack
            .context
            .create_program_with_source(HALO_SOURCE)
            .map_err(|e| format!("program: {e}"))?;
        tracer.span("client.build", || program.build()).map_err(|e| format!("build: {e}"))?;
        let buffers = (0..2)
            .map(|_| {
                stack.context.create_buffer(ELEMS * 4).map_err(|e| format!("create buffer: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut kernels = Vec::new();
        for parity in 0..2 {
            let kernel = program.create_kernel("halo_step").map_err(|e| format!("kernel: {e}"))?;
            kernel.set_arg(0, &buffers[parity]).map_err(|e| format!("set_arg: {e}"))?;
            kernel.set_arg(1, &buffers[1 - parity]).map_err(|e| format!("set_arg: {e}"))?;
            kernel.set_arg(2, Value::uint(ELEMS as u64)).map_err(|e| format!("set_arg: {e}"))?;
            kernels.push(kernel);
        }
        let mut halo =
            Halo { seed, buffers, kernels, expected: Vec::new(), last_read: Vec::new(), stack };
        // Warm-up: two checked iterations.
        let init = initial(seed, u64::MAX);
        let mut warm = Recorder::default();
        halo.run(&init, 2, &mut warm, tracer);
        if warm.failed() > 0 {
            return Err("halo_exchange warm-up failed".into());
        }
        halo.expect(init, 2);
        halo.check(&halo.last_read)?;
        Ok(halo)
    }

    fn round(&mut self, round: u64, rec: &mut Recorder, tracer: &Tracer) -> Result<(), String> {
        let init = initial(self.seed, round);
        let timed = rec.start();
        self.run(&init, ITERS, rec, tracer);
        rec.stop(timed);
        self.expect(init, ITERS);
        if !rec.round_failed() {
            self.check(&self.last_read)?;
        }
        rec.end_round(ITERS as f64);
        Ok(())
    }

    fn check_catches_corruption(&self) -> Result<(), String> {
        let mut corrupted = self.last_read.clone();
        let at = Rng::new(self.seed, &[TAG, 0xbad]).below(corrupted.len());
        corrupted[at] ^= 1;
        expect_mismatch("halo_exchange", self.check(&corrupted))
    }

    fn client(&self) -> &Client {
        &self.stack.client
    }
}
