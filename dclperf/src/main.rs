//! dclperf — a wall-clock benchmark of the dOpenCL stack.
//!
//! ```text
//! cargo run --release --manifest-path dclperf/Cargo.toml -- \
//!     --workload <bulk_transfer|command_stream|mandelbrot_rows|halo_exchange|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop driven by one application client thread.
//! A run sets the workload up several times (the median is `setup_s`), then
//! runs whole rounds for `--seconds`, checking every round's outputs
//! against a host computation.  The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  See README.md for the metric definitions.

mod bulk;
mod command_stream;
mod halo;
mod mandelbrot;
mod probes;
mod record;
mod stack;
mod trace;
mod util;
mod workload;

use dcl_bench::report::JsonValue;
use record::Recorder;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workload::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
const WORKLOADS: [&str; 4] =
    ["bulk_transfer", "command_stream", "mandelbrot_rows", "halo_exchange"];
/// Spans whose self time the traced run reports as `trace.<span>.self_us`.
const TRACED_SPANS: [&str; 9] = [
    "round",
    "client.submit",
    "client.flush",
    "client.wait",
    "client.write",
    "client.read",
    "client.build",
    "gcf.call",
    "coherence.plan",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one workload run produced.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// (name, value, unit) in report order.
    metrics: Vec<(String, f64, &'static str)>,
}

/// Where the measured loop stands: the next round number, and the memory
/// high-water mark and operation count right after the first round.
#[derive(Default)]
struct Progress {
    next_round: u64,
    first_round_rss_kib: i64,
    first_round_ops: u64,
}

/// Run whole rounds until `seconds` have passed, continuing the round
/// numbering of `progress`.  The self-check runs after the run's first
/// round.
fn measure<W: Workload>(
    w: &mut W,
    rec: &mut Recorder,
    tracer: &Tracer,
    seconds: f64,
    progress: &mut Progress,
) -> Result<(), String> {
    let start = Instant::now();
    loop {
        tracer.span("round", || w.round(progress.next_round, rec, tracer))?;
        if progress.next_round == 0 {
            w.check_catches_corruption()?;
            progress.first_round_rss_kib = util::usage().max_rss_kib;
            progress.first_round_ops = rec.attempted();
        }
        progress.next_round += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

fn run<W: Workload>(name: &str, args: &Args) -> Result<Outcome, String> {
    let tracer = Tracer::new(args.trace);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut instance: Option<W> = None;
    for _ in 0..SETUPS {
        drop(instance.take());
        let start = Instant::now();
        let w = tracer.span("setup", || W::setup(args.seed, &tracer))?;
        setup_s.push(start.elapsed().as_secs_f64());
        instance = Some(w);
    }
    let mut w = instance.expect("SETUPS > 0");

    let traffic_before = w.client().traffic_stats();
    let mut progress = Progress::default();
    let mut rec = Recorder::default();
    let mut check = Ok(());
    // The traced run measures its first half with tracing off, so the
    // tracing overhead is the difference between the halves.
    let mut untraced = Recorder::default();
    if args.trace {
        tracer.set_recording(false);
        check = measure(&mut w, &mut untraced, &tracer, args.seconds / 2.0, &mut progress);
        tracer.set_recording(true);
    }
    if check.is_ok() {
        let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
        check = measure(&mut w, &mut rec, &tracer, seconds, &mut progress);
    }
    let traffic = w.client().traffic_stats().delta(&traffic_before);
    let end_rss_kib = util::usage().max_rss_kib;

    let correct = match &check {
        Ok(()) => true,
        Err(message) => {
            eprintln!("dclperf: {name}: OUTPUT CHECK FAILED: {message}");
            false
        }
    };
    if rec.round_rates.is_empty() {
        return Err(format!("{name}: no round completed without a failed operation"));
    }

    println!(
        "== {name} (seed {}, {} s, trace {}) ==",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  rounds {} (+{} untraced), outputs {}",
        rec.rounds,
        untraced.rounds,
        if correct { "correct" } else { "WRONG" }
    );
    for (kind, count) in merged_kinds(&rec, &untraced) {
        println!("  op {kind:<16} attempted {:>8}  failed {}", count.attempted, count.failed);
    }
    println!("  work unit: {}; request: {}", W::WORK_UNIT, W::REQUEST);
    for line in w.summary(&rec) {
        println!("  {line}");
    }

    let attempted = rec.attempted() + untraced.attempted();
    let failed = rec.failed() + untraced.failed();
    let mut metrics = Vec::new();
    if !args.trace {
        metrics.push(("setup_s".to_string(), util::median(&setup_s), "s"));
        // The high-water mark after set-up and the first round: it holds
        // the workload's full working set, and unlike the end-of-run mark
        // it does not grow with the number of rounds a run manages.
        let peak_rss_mb = progress.first_round_rss_kib as f64 * 1024.0 / 1e6;
        metrics.push(("peak_rss_MB".to_string(), peak_rss_mb, "MB"));
        metrics.push(("work_per_s".to_string(), util::median(&rec.round_rates), "work/s"));
        metrics.push(("op_p50_us".to_string(), util::median(&rec.latencies_us), "us"));
        metrics.push((
            "cpu_ms_per_work".to_string(),
            (rec.user_s + rec.sys_s) * 1e3 / rec.work,
            "ms",
        ));
    } else {
        let probes = tracer.span("probes", || probes::run(&tracer, args.seed))?;
        for (metric, value, unit) in probes {
            metrics.push((metric.to_string(), value, unit));
        }
        let ops = attempted.max(1) as f64;
        metrics.push(("wire.requests_per_op".into(), traffic.requests_sent as f64 / ops, "count"));
        metrics.push((
            "wire.notifications_per_op".into(),
            traffic.notifications_received as f64 / ops,
            "count",
        ));
        let stream_bytes = traffic.stream_bytes_sent + traffic.stream_bytes_received;
        metrics.push(("wire.stream_bytes_per_op".into(), stream_bytes as f64 / ops, "count"));
        metrics.push(("wire.retries".into(), traffic.retries as f64, "count"));
        metrics.push(("wire.failed_requests".into(), traffic.failed_requests as f64, "count"));
        metrics.push(("proc.cpu_user_s".into(), rec.user_s + untraced.user_s, "s"));
        metrics.push(("proc.cpu_sys_s".into(), rec.sys_s + untraced.sys_s, "s"));
        let growth_kib = (end_rss_kib - progress.first_round_rss_kib) as f64;
        let later_ops = attempted.saturating_sub(progress.first_round_ops).max(1) as f64;
        metrics.push(("proc.rss_growth_KB_per_op".into(), growth_kib * 1.024 / later_ops, "KB"));
        let self_times = tracer.self_times();
        for span in TRACED_SPANS {
            let self_us = self_times
                .get(span)
                .copied()
                .ok_or_else(|| format!("traced run recorded no {span} span"))?;
            metrics.push((format!("trace.{span}.self_us"), self_us, "us"));
        }
        let (off, on) = (util::median(&untraced.round_rates), util::median(&rec.round_rates));
        metrics.push(("trace.overhead_pct".into(), (off / on - 1.0) * 100.0, "%"));
        let path = trace_path(name);
        tracer.write_chrome_trace(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("  chrome trace: {}", path.display());
    }
    for (metric, value, unit) in &metrics {
        println!("  {metric:<34} {value:>14.4} {unit}");
    }
    Ok(Outcome { correct, attempted, failed, metrics })
}

fn merged_kinds(
    a: &Recorder,
    b: &Recorder,
) -> std::collections::BTreeMap<&'static str, record::OpCount> {
    let mut kinds = a.kinds.clone();
    for (kind, count) in &b.kinds {
        let entry = kinds.entry(kind).or_default();
        entry.attempted += count.attempted;
        entry.failed += count.failed;
    }
    kinds
}

/// The Chrome trace goes next to the build output, inside the checkout.
fn trace_path(workload: &str) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("dclperf").join(format!("trace-{workload}.json"))
}

fn run_named(name: &str, args: &Args) -> Result<Outcome, String> {
    match name {
        "bulk_transfer" => run::<bulk::Bulk>(name, args),
        "command_stream" => run::<command_stream::CommandStream>(name, args),
        "mandelbrot_rows" => run::<mandelbrot::Mandelbrot>(name, args),
        "halo_exchange" => run::<halo::Halo>(name, args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dclperf: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for name in &names {
        match run_named(name, &args) {
            Ok(outcome) => {
                correct &= outcome.correct;
                attempted += outcome.attempted;
                failed += outcome.failed;
                for (metric, value, unit) in outcome.metrics {
                    // One workload reports plain names; `all` prefixes them.
                    let key = if names.len() == 1 { metric } else { format!("{name}.{metric}") };
                    metrics.push((key, value, unit));
                }
            }
            Err(e) => {
                eprintln!("dclperf: {name}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some((metric, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("dclperf: metric {metric} is not a finite number");
        std::process::exit(1);
    }
    let result = JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::num(attempted as f64)),
        ("failed".into(), JsonValue::num(failed as f64)),
        (
            "metrics".into(),
            JsonValue::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name,
                            JsonValue::obj([
                                ("value", JsonValue::Num(value)),
                                ("unit", JsonValue::str(unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", util::json_line(&result));
}
