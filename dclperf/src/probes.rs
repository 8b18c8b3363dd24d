//! Per-layer probes of the traced run: each times one layer alone by
//! calling its public functions from the benchmark's own code.

use crate::command_stream::BUMP_SOURCE;
use crate::halo::{self, HALO_SOURCE};
use crate::mandelbrot::Frame;
use crate::stack::{Daemons, Stack};
use crate::trace::Tracer;
use crate::util::{median, Rng};
use dopencl::coherence::{BufferDirectory, ByteRange, CoherenceMode, DeltaPlan};
use dopencl::protocol::{self, BatchCommand, BatchEntry, Request, WireNdRange};
use dopencl::NdRange;
use gcf::rpc::{Endpoint, EndpointHandler, NullHandler};
use gcf::transport::inproc::InprocTransport;
use gcf::transport::tcp::TcpTransport;
use gcf::transport::Transport;
use oclc::{BufferBinding, KernelArgValue};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: usize = 1 << 20;
/// Payload of the bulk probes.
const BULK_BYTES: usize = 64 * MIB;
const BULK_REPEATS: usize = 3;
/// Round trips of the call-latency probes.
const CALLS: usize = 2000;

/// Probe results in report order: (name, value, unit).
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mbps(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / d.as_secs_f64() / 1e6
}

/// Median wall time of `repeats` runs of `f`.
fn timed_median(
    repeats: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<Duration, String> {
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        f()?;
        samples.push(start.elapsed().as_secs_f64());
    }
    Ok(Duration::from_secs_f64(median(&samples)))
}

fn seeded_bytes(seed: u64, tag: u64, len: usize) -> Vec<u8> {
    let mut data = vec![0; len];
    Rng::new(seed, &[0x9e0b, tag]).fill(&mut data);
    data
}

struct Echo;

impl EndpointHandler for Echo {
    fn handle_request(&self, payload: &[u8]) -> Vec<u8> {
        payload.to_vec()
    }
}

/// Two connected gcf endpoints: (client side, echoing server side).
fn endpoint_pair(
    transport: &dyn Transport,
    address: &str,
) -> Result<(Arc<Endpoint>, Arc<Endpoint>), String> {
    let listener = transport.listen(address).map_err(|e| format!("listen: {e}"))?;
    let bound = listener.local_addr();
    std::thread::scope(|scope| {
        let accepted = scope.spawn(|| listener.accept());
        let client = transport.connect(&bound).map_err(|e| format!("connect: {e}"))?;
        let server = accepted.join().map_err(|_| "accept thread panicked".to_string())?;
        let server = server.map_err(|e| format!("accept: {e}"))?;
        Ok((
            Endpoint::new(client, Arc::new(NullHandler), "probe-client"),
            Endpoint::new(server, Arc::new(Echo), "probe-server"),
        ))
    })
}

/// `gcf.*_call_us` and `gcf.*_bulk_MBps` over one transport.
fn gcf_probe(
    tracer: &Tracer,
    seed: u64,
    transport: &dyn Transport,
    address: &str,
) -> Result<(f64, f64), String> {
    let (client, server) = endpoint_pair(transport, address)?;
    let payload = seeded_bytes(seed, 64, 64);
    let mut calls = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        let start = Instant::now();
        let echoed = tracer
            .span("gcf.call", || client.call(payload.clone()))
            .map_err(|e| format!("call: {e}"))?;
        calls.push(us(start.elapsed()));
        if echoed != payload {
            return Err("gcf echo returned different bytes".into());
        }
    }
    let data = seeded_bytes(seed, 65, BULK_BYTES);
    let mut received = Vec::new();
    let bulk = timed_median(BULK_REPEATS, || {
        let stream = client.allocate_id();
        tracer.span("gcf.bulk", || {
            client.send_bulk(stream, &data).map_err(|e| format!("send_bulk: {e}"))?;
            received = server
                .wait_bulk(stream, Duration::from_secs(60))
                .map_err(|e| format!("wait_bulk: {e}"))?;
            Ok::<_, String>(())
        })
    })?;
    if received != data {
        return Err("gcf bulk stream delivered different bytes".into());
    }
    client.close();
    server.close();
    Ok((median(&calls), mbps(BULK_BYTES, bulk)))
}

/// The `EnqueueBatch` of one command_stream burst: 32 (write, launch) pairs
/// and the finishing marker.
fn burst_batch() -> Request {
    let mut entries = Vec::new();
    let mut id = 1;
    let mut entry = |command| {
        id += 1;
        BatchEntry {
            command_id: id,
            queue_id: 7,
            event_id: id + 1000,
            wait_events: Vec::new(),
            command,
        }
    };
    for pair in 0..32u64 {
        entries.push(entry(BatchCommand::WriteBuffer {
            buffer_id: 3,
            offset: pair * 4,
            size: 64,
            stream_id: pair,
        }));
        entries.push(entry(BatchCommand::NdRange {
            kernel_id: 5,
            range: WireNdRange(NdRange::linear(64)),
        }));
    }
    entries.push(entry(BatchCommand::Marker));
    Request::EnqueueBatch { entries }
}

/// `protocol.encode_ns_per_cmd` and `protocol.decode_ns_per_cmd`.
fn protocol_probe() -> Result<(f64, f64), String> {
    let request = burst_batch();
    let commands = match &request {
        Request::EnqueueBatch { entries } => entries.len() as f64,
        _ => unreachable!("burst_batch builds an EnqueueBatch"),
    };
    let bytes = protocol::encode_request(&request);
    if protocol::decode_request(&bytes).map_err(|e| format!("decode: {e}"))? != request {
        return Err("EnqueueBatch does not survive an encode/decode round trip".into());
    }
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    for _ in 0..2000 {
        let start = Instant::now();
        black_box(protocol::encode_request(black_box(&request)));
        encode.push(start.elapsed().as_secs_f64() * 1e9 / commands);
        let start = Instant::now();
        black_box(protocol::decode_request(black_box(&bytes)).map_err(|e| format!("decode: {e}"))?);
        decode.push(start.elapsed().as_secs_f64() * 1e9 / commands);
    }
    Ok((median(&encode), median(&decode)))
}

/// Round trips of an encoded `GetServerInfo` sent to a live TCP daemon over
/// a raw gcf endpoint, alternating with 64-byte echo calls over TCP so both
/// see the same conditions.  Returns the difference of the medians: the
/// daemon's dispatch cost above the bare transport.
fn daemon_probe(tracer: &Tracer, seed: u64) -> Result<f64, String> {
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let daemons = Daemons::start(&transport, &["127.0.0.1:0"])?;
    let conn = transport.connect(&daemons.addresses()[0]).map_err(|e| format!("connect: {e}"))?;
    let endpoint = Endpoint::new(conn, Arc::new(NullHandler), "probe-raw");
    let hello = Request::Hello { client_name: "dclperf-probe".into(), auth_id: None, epoch: 0 };
    endpoint.call(protocol::encode_request(&hello)).map_err(|e| format!("hello: {e}"))?;
    let (echo_client, echo_server) = endpoint_pair(transport.as_ref(), "127.0.0.1:0")?;
    let payload = seeded_bytes(seed, 68, 64);
    let request = protocol::encode_request(&Request::GetServerInfo);
    let (mut daemon_calls, mut echo_calls) = (Vec::with_capacity(CALLS), Vec::with_capacity(CALLS));
    for _ in 0..CALLS {
        let start = Instant::now();
        let reply = tracer
            .span("gcf.call", || endpoint.call(request.clone()))
            .map_err(|e| format!("call: {e}"))?;
        daemon_calls.push(us(start.elapsed()));
        protocol::decode_response(&reply)
            .and_then(|r| r.into_result())
            .map_err(|e| format!("server info: {e}"))?;
        let start = Instant::now();
        tracer
            .span("gcf.call", || echo_client.call(payload.clone()))
            .map_err(|e| format!("echo: {e}"))?;
        echo_calls.push(us(start.elapsed()));
    }
    endpoint.close();
    echo_client.close();
    echo_server.close();
    Ok(median(&daemon_calls) - median(&echo_calls))
}

/// `client.*`: submit / flush / wait timings and 64 MiB transfers through
/// the full client against a TCP daemon.
fn client_probe(tracer: &Tracer, seed: u64, out: &mut Metrics) -> Result<(), String> {
    let stack = Stack::tcp()?;
    let queue = &stack.queues[0];
    let counters =
        stack.context.create_buffer(64 * 4).map_err(|e| format!("create buffer: {e}"))?;
    let program = stack
        .context
        .create_program_with_source(BUMP_SOURCE)
        .map_err(|e| format!("program: {e}"))?;
    tracer.span("client.build", || program.build()).map_err(|e| format!("build: {e}"))?;
    let kernel = program.create_kernel("bump").map_err(|e| format!("kernel: {e}"))?;
    kernel.set_arg(0, &counters).map_err(|e| format!("set_arg: {e}"))?;

    let (mut submit, mut flush, mut wait) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..200 {
        let mut last = None;
        for _ in 0..16 {
            let start = Instant::now();
            let event = tracer
                .span("client.submit", || queue.launch(&kernel, NdRange::linear(64)).submit())
                .map_err(|e| format!("submit: {e}"))?;
            submit.push(us(start.elapsed()));
            last = Some(event);
        }
        let start = Instant::now();
        tracer.span("client.flush", || queue.flush()).map_err(|e| format!("flush: {e}"))?;
        flush.push(us(start.elapsed()));
        let start = Instant::now();
        if let Some(event) = last {
            tracer.span("client.wait", || event.wait()).map_err(|e| format!("wait: {e}"))?;
        }
        wait.push(us(start.elapsed()));
    }
    out.push(("client.submit_us", median(&submit), "us"));
    out.push(("client.flush_us", median(&flush), "us"));
    out.push(("client.wait_us", median(&wait), "us"));

    let buffer =
        stack.context.create_buffer(BULK_BYTES).map_err(|e| format!("create buffer: {e}"))?;
    let data = seeded_bytes(seed, 66, BULK_BYTES);
    let write = timed_median(BULK_REPEATS, || {
        tracer
            .span("client.write", || queue.write_buffer(&buffer, &data).blocking().submit())
            .map(drop)
            .map_err(|e| format!("write: {e}"))
    })?;
    let mut read_back = Vec::new();
    let read = timed_median(BULK_REPEATS, || {
        read_back = tracer
            .span("client.read", || queue.read_buffer(&buffer).submit())
            .map_err(|e| format!("read: {e}"))?
            .0;
        Ok(())
    })?;
    if read_back != data {
        return Err("client probe read back different bytes".into());
    }
    out.push(("client.write_MBps", mbps(BULK_BYTES, write), "MB/s"));
    out.push(("client.read_MBps", mbps(BULK_BYTES, read), "MB/s"));
    Ok(())
}

/// `vocl.*`: the native runtime alone — launch+wait of the same tiny
/// kernel, and 64 MiB writes and reads.
fn vocl_probe(tracer: &Tracer, seed: u64, out: &mut Metrics) -> Result<(), String> {
    let platform = vocl::Platform::test_platform(1);
    let device = Arc::clone(&platform.devices()[0]);
    let context =
        vocl::Context::new(vec![Arc::clone(&device)]).map_err(|e| format!("context: {e}"))?;
    let queue =
        vocl::CommandQueue::new(Arc::clone(&context), device, vocl::QueueProperties::default())
            .map_err(|e| format!("queue: {e}"))?;
    let counters =
        vocl::Buffer::new(Arc::clone(&context), 64 * 4, vocl::MemFlags::READ_WRITE, None)
            .map_err(|e| format!("buffer: {e}"))?;
    let program = vocl::Program::with_source(Arc::clone(&context), BUMP_SOURCE);
    program.build().map_err(|e| format!("build: {e}"))?;
    let kernel = program.create_kernel("bump").map_err(|e| format!("kernel: {e}"))?;
    kernel.set_arg(0, vocl::KernelArg::Buffer(counters)).map_err(|e| format!("set_arg: {e}"))?;

    let mut launches = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        let start = Instant::now();
        tracer
            .span("vocl.launch_wait", || {
                queue.enqueue_nd_range_kernel(&kernel, NdRange::linear(64), Vec::new())?.wait()
            })
            .map_err(|e| format!("launch: {e}"))?;
        launches.push(us(start.elapsed()));
    }
    out.push(("vocl.launch_wait_us", median(&launches), "us"));

    let buffer =
        vocl::Buffer::new(Arc::clone(&context), BULK_BYTES, vocl::MemFlags::READ_WRITE, None)
            .map_err(|e| format!("buffer: {e}"))?;
    let data = seeded_bytes(seed, 67, BULK_BYTES);
    let mut writes = Vec::new();
    for _ in 0..BULK_REPEATS {
        let copy = data.clone();
        let start = Instant::now();
        tracer
            .span("vocl.write", || queue.enqueue_write_buffer(&buffer, 0, copy, Vec::new())?.wait())
            .map_err(|e| format!("write: {e}"))?;
        writes.push(start.elapsed().as_secs_f64());
    }
    let mut read_back = Vec::new();
    let read = timed_median(BULK_REPEATS, || {
        read_back = tracer
            .span("vocl.read", || queue.read_buffer_blocking(&buffer, 0, BULK_BYTES))
            .map_err(|e| format!("read: {e}"))?;
        Ok(())
    })?;
    if read_back != data {
        return Err("vocl probe read back different bytes".into());
    }
    out.push((
        "vocl.write_MBps",
        mbps(BULK_BYTES, Duration::from_secs_f64(median(&writes))),
        "MB/s",
    ));
    out.push(("vocl.read_MBps", mbps(BULK_BYTES, read), "MB/s"));
    Ok(())
}

/// `oclc.*`: builds of the three kernel sources, and the Mandelbrot and
/// halo kernels on the VM alone.
fn oclc_probe(tracer: &Tracer, seed: u64, out: &mut Metrics) -> Result<(), String> {
    let sources = [BUMP_SOURCE, workloads::mandelbrot::KERNEL_SOURCE, HALO_SOURCE];
    let build = timed_median(20, || {
        for source in sources {
            tracer
                .span("oclc.build", || oclc::Program::build(source))
                .map_err(|e| format!("build: {e:?}"))?;
        }
        Ok(())
    })?;
    out.push(("oclc.build_ms", build.as_secs_f64() * 1e3, "ms"));

    // Mandelbrot on a 128x96 rendering of the workload's section.
    let (width, height, max_iter) = (128, 96, crate::mandelbrot::MAX_ITER);
    let program = oclc::Program::build(workloads::mandelbrot::KERNEL_SOURCE)
        .map_err(|e| format!("build: {e:?}"))?;
    let kernel = program.kernel("mandelbrot_rows").ok_or("no mandelbrot_rows kernel")?;
    let frame = Frame::seeded(seed, 0, width, height);
    let mut args = vec![KernelArgValue::Buffer(0)];
    args.extend(frame.args(width, height, 0, max_iter).into_iter().map(KernelArgValue::Scalar));
    let mut image = vec![0u8; width * height * 4];
    let range = NdRange::two_d(width, height);
    for (name, threads) in [("oclc.vm_1t_Mpx_per_s", Some(1)), ("oclc.vm_Mpx_per_s", None)] {
        let run = timed_median(3, || {
            let mut bindings = vec![BufferBinding::new(&mut image)];
            tracer
                .span("oclc.run", || match threads {
                    Some(n) => kernel.execute_vm_with_threads(&range, &args, &mut bindings, n),
                    None => kernel.execute_vm(&range, &args, &mut bindings),
                })
                .map(drop)
                .map_err(|e| format!("mandelbrot on the VM: {e:?}"))
        })?;
        out.push((name, (width * height) as f64 / run.as_secs_f64() / 1e6, "Mpx/s"));
    }
    let want: Vec<u32> = (0..height)
        .flat_map(|y| (0..width).map(move |x| (x, y)))
        .map(|(x, y)| frame.pixel(x, y, max_iter))
        .collect();
    if crate::workload::u32s(&image) != want {
        return Err("VM mandelbrot differs from the host evaluation".into());
    }

    // The halo stencil over the workload's full buffer.
    let program = oclc::Program::build(HALO_SOURCE).map_err(|e| format!("build: {e:?}"))?;
    let kernel = program.kernel("halo_step").ok_or("no halo_step kernel")?;
    let input = halo::initial(seed, 0);
    let mut in_bytes = crate::workload::u32_bytes(&input);
    let mut out_bytes = vec![0u8; in_bytes.len()];
    let args = vec![
        KernelArgValue::Buffer(0),
        KernelArgValue::Buffer(1),
        KernelArgValue::Scalar(vocl::Value::uint(halo::ELEMS as u64)),
    ];
    let range = NdRange::linear(halo::ELEMS);
    let run = timed_median(5, || {
        let mut bindings =
            vec![BufferBinding::new(&mut in_bytes), BufferBinding::new(&mut out_bytes)];
        tracer
            .span("oclc.run", || kernel.execute_vm(&range, &args, &mut bindings))
            .map(drop)
            .map_err(|e| format!("halo stencil on the VM: {e:?}"))
    })?;
    let mut want = vec![0; halo::ELEMS];
    halo::host_step(&input, &mut want);
    if crate::workload::u32s(&out_bytes) != want {
        return Err("VM stencil differs from the host stencil".into());
    }
    out.push(("oclc.stencil_Melem_per_s", halo::ELEMS as f64 / run.as_secs_f64() / 1e6, "Melem/s"));
    Ok(())
}

/// Apply a plan to a standalone directory the way the dOpenCL client does:
/// merge the fetched ranges, read the client copy for each upload, record
/// the uploads.
fn apply_plan(dir: &mut BufferDirectory, server: usize, plan: &DeltaPlan, wire: &[u8]) -> usize {
    for fetch in &plan.fetches {
        dir.record_client_fetch_ranges(
            fetch.source,
            fetch.span,
            &fetch.apply,
            &wire[..fetch.span.len()],
        );
    }
    for upload in &plan.uploads {
        black_box(dir.client_data_range(*upload));
        dir.record_upload_range(server, *upload);
    }
    plan.fetch_bytes() + plan.upload_bytes()
}

/// `coherence.*`: the halo_exchange op sequence replayed on standalone
/// `BufferDirectory`s.  Returns (µs per iteration, delta bytes per
/// iteration in the steady state).
fn coherence_probe(tracer: &Tracer, seed: u64) -> Result<(f64, f64), String> {
    let size = halo::ELEMS * 4;
    let half = size / 2;
    let mut dirs: Vec<BufferDirectory> = (0..2)
        .map(|_| BufferDirectory::new_with_mode([0, 1], size, CoherenceMode::Range))
        .collect();
    dirs[0].record_host_write(0, 0, &crate::workload::u32_bytes(&halo::initial(seed, 0)));
    let wire = vec![0u8; size];
    let (mut per_iter, mut bytes) = (Vec::new(), Vec::new());
    for t in 0..200 {
        let (input, output) = (t % 2, 1 - t % 2);
        let start = Instant::now();
        let mut moved = 0;
        for server in 0..2 {
            let slice = ByteRange::new(server * half, (server + 1) * half);
            let plan = tracer.span("coherence.plan", || dirs[input].plan_delta(server));
            moved += apply_plan(&mut dirs[input], server, &plan, &wire);
            let plan =
                tracer.span("coherence.plan", || dirs[output].plan_delta_range(server, slice));
            moved += apply_plan(&mut dirs[output], server, &plan, &wire);
            dirs[output].record_device_write_range(server, slice);
        }
        per_iter.push(us(start.elapsed()));
        bytes.push(moved as f64);
    }
    for dir in &dirs {
        dir.check_invariants().map_err(|e| format!("directory invariant broken: {e}"))?;
    }
    // The first iterations settle the initial state; the rest repeat.
    Ok((median(&per_iter[4..]), median(&bytes[4..])))
}

/// Run every probe; the results in report order.
pub fn run(tracer: &Tracer, seed: u64) -> Result<Metrics, String> {
    let mut out = Metrics::new();
    let (tcp_call, tcp_bulk) = tracer
        .span("probe.gcf_tcp", || gcf_probe(tracer, seed, &TcpTransport::new(), "127.0.0.1:0"))?;
    let (inproc_call, inproc_bulk) = tracer
        .span("probe.gcf_inproc", || gcf_probe(tracer, seed, &InprocTransport::new(), "probe"))?;
    out.push(("gcf.tcp_call_us", tcp_call, "us"));
    out.push(("gcf.tcp_bulk_MBps", tcp_bulk, "MB/s"));
    out.push(("gcf.inproc_call_us", inproc_call, "us"));
    out.push(("gcf.inproc_bulk_MBps", inproc_bulk, "MB/s"));
    let (encode, decode) = tracer.span("probe.protocol", protocol_probe)?;
    out.push(("protocol.encode_ns_per_cmd", encode, "ns"));
    out.push(("protocol.decode_ns_per_cmd", decode, "ns"));
    let dispatch = tracer.span("probe.daemon", || daemon_probe(tracer, seed))?;
    out.push(("daemon.dispatch_us", dispatch, "us"));
    tracer.span("probe.client", || client_probe(tracer, seed, &mut out))?;
    tracer.span("probe.vocl", || vocl_probe(tracer, seed, &mut out))?;
    tracer.span("probe.oclc", || oclc_probe(tracer, seed, &mut out))?;
    let (plan_us, delta_bytes) =
        tracer.span("probe.coherence", || coherence_probe(tracer, seed))?;
    out.push(("coherence.plan_us_per_iter", plan_us, "us"));
    out.push(("coherence.delta_bytes_per_iter", delta_bytes, "count"));
    Ok(out)
}
