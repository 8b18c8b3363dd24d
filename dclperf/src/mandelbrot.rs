//! `mandelbrot_rows`: the paper's Fig. 4 shape.  Two in-process daemons
//! share one context; the OpenCL C `mandelbrot_rows` kernel is built from
//! source, the image rows are split across both devices, and the rows are
//! read back.
//!
//! The `oclc` VM does almost all the work; transport and coherence sit
//! nearly idle.

use crate::record::Recorder;
use crate::stack::Stack;
use crate::trace::Tracer;
use crate::util::Rng;
use crate::workload::{compare, expect_mismatch, u32s, Workload};
use dopencl::{Buffer, Client, Kernel, NdRange, Value};
use std::time::Instant;
use workloads::mandelbrot::{MandelbrotParams, KERNEL_SOURCE};

const TAG: u64 = 0x3a4d;
pub const WIDTH: usize = 512;
pub const HEIGHT: usize = 384;
pub const MAX_ITER: u32 = 256;
const DEVICES: usize = 2;
const ROWS_PER_DEVICE: usize = HEIGHT / DEVICES;

/// The `float` kernel arguments of one frame.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    pub x_min: f32,
    pub y_min: f32,
    pub dx: f32,
    pub dy: f32,
}

impl Frame {
    /// The paper's complex-plane section at `width`×`height`, shifted by a
    /// seeded sub-pixel offset: every seed renders different pixels, while
    /// the work per frame stays that of the same section.
    pub fn seeded(seed: u64, round: u64, width: usize, height: usize) -> Frame {
        let params = MandelbrotParams { width, height, ..MandelbrotParams::paper() };
        let mut rng = Rng::new(seed, &[TAG, round]);
        let (dx, dy) = (params.dx(), params.dy());
        Frame {
            x_min: (params.x_min + dx * rng.unit_f64()) as f32,
            y_min: (params.y_min + dy * rng.unit_f64()) as f32,
            dx: dx as f32,
            dy: dy as f32,
        }
    }

    /// Host evaluation of the kernel's recurrence in `f32`, in the kernel's
    /// operation order, for global pixel row `gy`.
    pub fn pixel(&self, gx: usize, gy: usize, max_iter: u32) -> u32 {
        let cr = self.x_min + self.dx * gx as f32;
        let ci = self.y_min + self.dy * gy as f32;
        let (mut zr, mut zi) = (0.0f32, 0.0f32);
        let mut iter = 0;
        while zr * zr + zi * zi <= 4.0 && iter < max_iter {
            let t = zr * zr - zi * zi + cr;
            zi = 2.0 * zr * zi + ci;
            zr = t;
            iter += 1;
        }
        iter
    }

    /// The kernel's arguments for `rows` rows starting at `row_offset`.
    pub fn args(&self, width: usize, rows: usize, row_offset: usize, max_iter: u32) -> Vec<Value> {
        vec![
            Value::uint(width as u64),
            Value::uint(rows as u64),
            Value::float(self.x_min),
            Value::float(self.y_min),
            Value::float(self.dx),
            Value::float(self.dy),
            Value::uint(row_offset as u64),
            Value::uint(max_iter as u64),
        ]
    }
}

pub struct Mandelbrot {
    seed: u64,
    kernels: Vec<Kernel>,
    outputs: Vec<Buffer>,
    frame: Frame,
    /// The last image read back, row-major.
    last_image: Vec<u32>,
    stack: Stack,
}

impl Mandelbrot {
    fn set_frame(&mut self, frame: Frame, rec: &mut Recorder) {
        self.frame = frame;
        for (device, kernel) in self.kernels.iter().enumerate() {
            let args = frame.args(WIDTH, ROWS_PER_DEVICE, device * ROWS_PER_DEVICE, MAX_ITER);
            for (i, value) in args.into_iter().enumerate() {
                rec.op("set_arg", || kernel.set_arg(i as u32 + 1, value));
            }
        }
    }

    /// Render `rows` rows on every device and read them back.
    fn render(&mut self, rows: usize, rec: &mut Recorder, tracer: &Tracer) {
        let queues = &self.stack.queues;
        let mut pending = Vec::new();
        for ((queue, kernel), output) in queues.iter().zip(&self.kernels).zip(&self.outputs) {
            rec.op("launch", || {
                tracer.span("client.submit", || {
                    queue.launch(kernel, NdRange::two_d(WIDTH, rows)).submit()
                })
            });
            let read = rec.op("read", || {
                tracer.span("client.submit", || {
                    queue.read_buffer(output).len(rows * WIDTH * 4).submit_async()
                })
            });
            pending.push(read);
        }
        for queue in queues {
            rec.op("flush", || tracer.span("client.flush", || queue.flush()));
        }
        let mut image = Vec::with_capacity(WIDTH * HEIGHT);
        for read in pending.into_iter().flatten() {
            if let Some((bytes, _)) =
                rec.op("read_wait", || tracer.span("client.wait", || read.wait()))
            {
                image.extend(u32s(&bytes));
            }
        }
        self.last_image = image;
    }

    fn check(&self, got: &[u32]) -> Result<(), String> {
        let want: Vec<u32> = (0..HEIGHT)
            .flat_map(|gy| (0..WIDTH).map(move |gx| (gx, gy)))
            .map(|(gx, gy)| self.frame.pixel(gx, gy, MAX_ITER))
            .collect();
        compare("mandelbrot_rows image", got, &want)
    }
}

impl Workload for Mandelbrot {
    const WORK_UNIT: &'static str = "Mpx rendered and read back";
    const REQUEST: &'static str = "one 512x384 frame: both halves launched, waited and read back";

    fn setup(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let stack = tracer.span("client.connect", Stack::inproc_pair)?;
        let program = stack
            .context
            .create_program_with_source(KERNEL_SOURCE)
            .map_err(|e| format!("program: {e}"))?;
        tracer.span("client.build", || program.build()).map_err(|e| format!("build: {e}"))?;
        let mut kernels = Vec::new();
        let mut outputs = Vec::new();
        for _ in 0..DEVICES {
            let kernel =
                program.create_kernel("mandelbrot_rows").map_err(|e| format!("kernel: {e}"))?;
            let output = stack
                .context
                .create_buffer(WIDTH * ROWS_PER_DEVICE * 4)
                .map_err(|e| format!("create buffer: {e}"))?;
            kernel.set_arg(0, &output).map_err(|e| format!("set_arg: {e}"))?;
            kernels.push(kernel);
            outputs.push(output);
        }
        let frame = Frame::seeded(seed, u64::MAX, WIDTH, HEIGHT);
        let mut m = Mandelbrot { seed, kernels, outputs, frame, last_image: Vec::new(), stack };
        // Warm-up: one row per device, which also settles each output
        // buffer on its device.
        let mut warm = Recorder::default();
        m.set_frame(frame, &mut warm);
        m.render(1, &mut warm, tracer);
        if warm.failed() > 0 {
            return Err("mandelbrot_rows warm-up failed".into());
        }
        Ok(m)
    }

    fn round(&mut self, round: u64, rec: &mut Recorder, tracer: &Tracer) -> Result<(), String> {
        let frame = Frame::seeded(self.seed, round, WIDTH, HEIGHT);
        let timed = rec.start();
        let start = Instant::now();
        self.set_frame(frame, rec);
        self.render(ROWS_PER_DEVICE, rec, tracer);
        let elapsed = start.elapsed();
        rec.stop(timed);
        if !rec.round_failed() {
            rec.latency(elapsed);
            self.check(&self.last_image)?;
        }
        rec.end_round((WIDTH * HEIGHT) as f64 / 1e6);
        Ok(())
    }

    fn check_catches_corruption(&self) -> Result<(), String> {
        let mut corrupted = self.last_image.clone();
        let at = Rng::new(self.seed, &[TAG, 0xbad]).below(corrupted.len());
        corrupted[at] ^= 1;
        expect_mismatch("mandelbrot_rows", self.check(&corrupted))
    }

    fn client(&self) -> &Client {
        &self.stack.client
    }
}
