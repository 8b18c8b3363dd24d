//! `command_stream`: one daemon over TCP loopback; closed-loop launch+wait
//! of a tiny kernel, interleaved with bursts of small batched writes and
//! launches that `finish()` flushes.
//!
//! Per-command cost dominates here: the protocol codec, client batching and
//! events, daemon dispatch and `vocl` queue hops.  Bytes moved and VM work
//! are negligible.

use crate::record::Recorder;
use crate::stack::Stack;
use crate::trace::Tracer;
use crate::util::Rng;
use crate::workload::{compare, expect_mismatch, u32_bytes, u32s, Workload};
use dopencl::{Buffer, Client, Kernel, NdRange};
use std::time::Instant;

const TAG: u64 = 0xc0de;
/// Elements (`uint`) of the one buffer.
const ELEMS: usize = 1024;
/// Work-items of every launch: the kernel increments `a[0..BUMP_ITEMS)`.
const BUMP_ITEMS: usize = 64;
/// Closed-loop launch+wait requests per round.
const LAUNCH_WAITS: usize = 64;
/// Batched (write, launch) pairs per burst; one burst per round.
const BURST_PAIRS: usize = 32;
/// Elements per batched write.
const WRITE_ELEMS: usize = 16;
/// Commands per round: launch+waits, the burst's writes and launches, and
/// the read-back.
const COMMANDS_PER_ROUND: usize = LAUNCH_WAITS + 2 * BURST_PAIRS + 1;

pub const BUMP_SOURCE: &str = r#"
__kernel void bump(__global uint* a) {
    size_t i = get_global_id(0);
    a[i] = a[i] + 1u;
}
"#;

pub struct CommandStream {
    seed: u64,
    buffer: Buffer,
    kernel: Kernel,
    /// Host model of the buffer after every command issued so far.
    model: Vec<u32>,
    last_read: Vec<u32>,
    stack: Stack,
}

fn bump(model: &mut [u32]) {
    for v in &mut model[..BUMP_ITEMS] {
        *v = v.wrapping_add(1);
    }
}

impl CommandStream {
    fn launch_wait(&self, rec: &mut Recorder, tracer: &Tracer) {
        let queue = &self.stack.queues[0];
        let start = Instant::now();
        let done = rec.op("launch_wait", || {
            let event = tracer.span("client.submit", || {
                queue.launch(&self.kernel, NdRange::linear(BUMP_ITEMS)).submit()
            })?;
            tracer.span("client.wait", || event.wait())
        });
        if done.is_some() {
            rec.latency(start.elapsed());
        }
    }

    fn read_back(&mut self, rec: &mut Recorder, tracer: &Tracer) {
        let queue = &self.stack.queues[0];
        let buffer = &self.buffer;
        if let Some((bytes, _)) =
            rec.op("read", || tracer.span("client.read", || queue.read_buffer(buffer).submit()))
        {
            self.last_read = u32s(&bytes);
        }
    }

    fn check(&self, got: &[u32]) -> Result<(), String> {
        compare("command_stream buffer", got, &self.model)
    }
}

impl Workload for CommandStream {
    const WORK_UNIT: &'static str = "command completed";
    const REQUEST: &'static str = "launch of a 64-item kernel plus wait for its event";

    fn setup(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let stack = tracer.span("client.connect", Stack::tcp)?;
        let buffer =
            stack.context.create_buffer(ELEMS * 4).map_err(|e| format!("create buffer: {e}"))?;
        let program = stack
            .context
            .create_program_with_source(BUMP_SOURCE)
            .map_err(|e| format!("program: {e}"))?;
        tracer.span("client.build", || program.build()).map_err(|e| format!("build: {e}"))?;
        let kernel = program.create_kernel("bump").map_err(|e| format!("kernel: {e}"))?;
        kernel.set_arg(0, &buffer).map_err(|e| format!("set_arg: {e}"))?;
        let mut rng = Rng::new(seed, &[TAG, u64::MAX]);
        let model: Vec<u32> = (0..ELEMS).map(|_| rng.next_u32()).collect();
        let mut cs = CommandStream { seed, buffer, kernel, model, last_read: Vec::new(), stack };
        // Warm-up: initial contents, a few launch+waits, a checked read.
        let mut warm = Recorder::default();
        let bytes = u32_bytes(&cs.model);
        let (queue, buffer) = (&cs.stack.queues[0], &cs.buffer);
        warm.op("write", || queue.write_buffer(buffer, &bytes).blocking().submit());
        for _ in 0..16 {
            cs.launch_wait(&mut warm, tracer);
            bump(&mut cs.model);
        }
        cs.read_back(&mut warm, tracer);
        if warm.failed() > 0 {
            return Err("command_stream warm-up failed".into());
        }
        cs.check(&cs.last_read)?;
        Ok(cs)
    }

    fn round(&mut self, round: u64, rec: &mut Recorder, tracer: &Tracer) -> Result<(), String> {
        // The burst's writes: seeded offsets (some overlap the launches'
        // range, so command order matters) and seeded values.
        let mut rng = Rng::new(self.seed, &[TAG, round]);
        let writes: Vec<(usize, Vec<u32>)> = (0..BURST_PAIRS)
            .map(|_| {
                let offset = rng.below(2 * BUMP_ITEMS);
                (offset, (0..WRITE_ELEMS).map(|_| rng.next_u32()).collect())
            })
            .collect();
        let payloads: Vec<Vec<u8>> = writes.iter().map(|(_, v)| u32_bytes(v)).collect();

        let timed = rec.start();
        for _ in 0..LAUNCH_WAITS {
            self.launch_wait(rec, tracer);
        }
        {
            let queue = &self.stack.queues[0];
            let (buffer, kernel) = (&self.buffer, &self.kernel);
            for ((offset, _), payload) in writes.iter().zip(&payloads) {
                rec.op("batched_write", || {
                    tracer.span("client.submit", || {
                        queue.write_buffer(buffer, payload).at_offset(offset * 4).submit()
                    })
                });
                rec.op("batched_launch", || {
                    tracer.span("client.submit", || {
                        queue.launch(kernel, NdRange::linear(BUMP_ITEMS)).submit()
                    })
                });
            }
            rec.op("finish", || tracer.span("client.wait", || queue.finish()));
        }
        self.read_back(rec, tracer);
        rec.stop(timed);

        for _ in 0..LAUNCH_WAITS {
            bump(&mut self.model);
        }
        for (offset, values) in &writes {
            self.model[*offset..offset + WRITE_ELEMS].copy_from_slice(values);
            bump(&mut self.model);
        }
        if rec.round_failed() {
            // The model no longer describes the device buffer; resynchronise
            // from what the device holds so later rounds stay checkable.
            self.model.clone_from(&self.last_read);
        } else {
            self.check(&self.last_read)?;
        }
        rec.end_round(COMMANDS_PER_ROUND as f64);
        Ok(())
    }

    fn check_catches_corruption(&self) -> Result<(), String> {
        let mut corrupted = self.last_read.clone();
        let at = Rng::new(self.seed, &[TAG, 0xbad]).below(corrupted.len());
        corrupted[at] ^= 1;
        expect_mismatch("command_stream", self.check(&corrupted))
    }

    fn client(&self) -> &Client {
        &self.stack.client
    }

    fn summary(&self, rec: &Recorder) -> Vec<String> {
        let p99 = crate::util::quantile(&rec.latencies_us, 0.99);
        vec![format!("launch_wait_p99_us {p99:.1} us over {} samples", rec.latencies_us.len())]
    }
}
