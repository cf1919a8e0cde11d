//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --bursty-rate 500000 --bursty-burst 256 --bursty-quota 1024 \
//!     --workload pairs --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see each module): `pairs` (engine hot path), `stream`
//! (scalar channel path, saturated) and `bursty` (batched channel path,
//! open loop, mostly idle). Every run checks exactly-once delivery and
//! FIFO per producer, prints each metric by name with its unit, and ends
//! with one JSON result line: the end-to-end metrics, or with `--trace 1`
//! the per-layer metrics of a traced run. A correctness violation makes
//! the run exit with code 1.

mod bursty;
mod channel;
mod check;
mod hist;
mod pairs;
mod report;
mod rng;
mod stream;
mod topology;
mod trace;
mod window;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

#[global_allocator]
static ALLOC: alloc_track::TrackingAlloc = alloc_track::TrackingAlloc;

/// Threads a workload keeps busy: every workload runs two workers.
const BUSY_THREADS: usize = 2;

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. A
/// traced run reports each; the ones its workload does not load read 0
/// and are named in a note.
const PER_LAYER: &[(&str, &str)] = &[
    ("kp-queue.enqueue_ns_p50", "ns"),
    ("kp-queue.enqueue_ns_p99", "ns"),
    ("kp-queue.dequeue_ns_p50", "ns"),
    ("kp-queue.dequeue_ns_p99", "ns"),
    ("kp-queue.fallback_rate", "ratio"),
    ("kp-queue.slow_ops_per_op", "ratio"),
    ("kp-queue.helped_fraction", "ratio"),
    ("kp-queue.help_calls_per_op", "ratio"),
    ("kp-queue.node_allocs_per_enqueue", "ratio"),
    ("kp-queue.node_reuses_per_enqueue", "ratio"),
    ("kp-queue.cache_overflows", "count"),
    ("kp-queue.hp.enqueue_ns_p50", "ns"),
    ("kp-queue.hp.dequeue_ns_p50", "ns"),
    ("kp-queue.hp.fallback_rate", "ratio"),
    ("hazard.reclaimed_per_op", "ratio"),
    ("wcq.enqueue_ns_p50", "ns"),
    ("wcq.dequeue_ns_p50", "ns"),
    ("wcq.threshold_resets", "count"),
    ("idpool.register_us", "us"),
    ("alloc.allocs_per_msg", "ratio"),
    ("alloc.peak_heap_mib", "MiB"),
    ("kp-channel.send_ns_p50", "ns"),
    ("kp-channel.send_ns_p99", "ns"),
    ("kp-channel.recv_ns_p50", "ns"),
    ("kp-channel.recv_ns_p99", "ns"),
    ("kp-channel.send_batch_ns_p50", "ns"),
    ("kp-channel.drain_fill", "count"),
    ("kp-channel.park.rx_parks_per_msg", "ratio"),
    ("kp-channel.park.rx_wakes_per_park", "ratio"),
    ("kp-channel.park.tx_parks_per_msg", "ratio"),
    ("kp-channel.async.polls_per_msg", "ratio"),
    ("kp-channel.async.pending_share", "ratio"),
    ("kp-channel.async.wake_to_poll_us_p50", "us"),
    ("kp-channel.async.wake_to_poll_us_p99", "us"),
    ("kp-channel.overload.depth_max", "count"),
    ("kp-channel.overload.quarantines", "count"),
    ("kp-channel.overload.probes", "count"),
    ("generator.lateness_us_p50", "us"),
    ("generator.lateness_us_p99", "us"),
    ("trace.root_self_ns_p50", "ns"),
    ("trace.overhead", "ratio"),
    ("error_ratio", "ratio"),
];

/// The fixed open-loop load of `bursty`, given on the command line so
/// that it lives in `BENCHMARK.json` and never comes from a measurement.
#[derive(Clone, Copy, Debug)]
pub struct BurstyLoad {
    /// Mean offered rate, messages per second.
    pub rate: f64,
    /// Messages per burst.
    pub burst: usize,
    /// Admission depth quota, messages per shard.
    pub quota: usize,
}

pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bursty: Option<BurstyLoad>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload pairs|stream|bursty --seed N --seconds S --trace 0|1 \
         [--bursty-rate MSGS_PER_S --bursty-burst N --bursty-quota N]"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Run, String> {
    let get = |flag: &str| -> Result<Option<String>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or(format!("{flag} needs a value")),
        }
    };
    fn num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<Option<T>, String> {
        v.map(|s| s.parse().map_err(|_| format!("{flag}: cannot parse {s:?}")))
            .transpose()
    }
    let workload = get("--workload")?.ok_or("--workload is required")?;
    if !["pairs", "stream", "bursty"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = num("--seed", get("--seed")?)?.ok_or("--seed is required")?;
    let seconds: f64 = num("--seconds", get("--seconds")?)?.ok_or("--seconds is required")?;
    if !(0.5..=120.0).contains(&seconds) {
        return Err("--seconds must be within 0.5..=120".into());
    }
    let trace = match get("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let rate: Option<f64> = num("--bursty-rate", get("--bursty-rate")?)?;
    let burst: Option<usize> = num("--bursty-burst", get("--bursty-burst")?)?;
    let quota: Option<usize> = num("--bursty-quota", get("--bursty-quota")?)?;
    let bursty = match (rate, burst, quota) {
        (Some(rate), Some(burst), Some(quota)) => {
            if !(1e3..=1e8).contains(&rate) || !(1..=1 << 16).contains(&burst) || quota == 0 {
                return Err("bursty load out of range".into());
            }
            Some(BurstyLoad { rate, burst, quota })
        }
        (None, None, None) => None,
        _ => return Err("--bursty-rate, --bursty-burst and --bursty-quota go together".into()),
    };
    if workload == "bursty" && bursty.is_none() {
        return Err("bursty needs --bursty-rate, --bursty-burst and --bursty-quota".into());
    }
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        bursty,
    })
}

/// Writes a traced run's spans under the build directory and notes where.
pub fn write_spans(run: &Run, spans: &trace::Spans, report: &mut Report) {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    let path = dir
        .join("perfbench")
        .join(format!("trace-{}-seed{}.jsonl", run.workload, run.seed));
    match spans.write_jsonl(&path) {
        Ok(()) => report.note(format!(
            "trace: {} spans ({} dropped past the buffer) written to {}",
            spans.len(),
            spans.dropped(),
            path.display()
        )),
        Err(e) => report.note(format!("trace: could not write {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args) {
        Ok(r) => r,
        Err(e) => return usage(&e),
    };
    let topo = topology::Topology::probe(run.seed);
    if topo.cores < BUSY_THREADS {
        eprintln!(
            "perfbench: {} keeps {BUSY_THREADS} threads busy but the affinity mask allows {} core(s); refusing",
            run.workload, topo.cores
        );
        return ExitCode::from(3);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} busy_threads={BUSY_THREADS}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    println!("# topology {}", topo.json());
    if let Some(b) = run.bursty {
        println!(
            "# bursty load: rate={} msgs/s burst={} depth_quota={}",
            b.rate, b.burst, b.quota
        );
    }

    let mut report = Report::default();
    match run.workload.as_str() {
        "pairs" => pairs::run(&run, &mut report),
        "stream" => stream::run(&run, &mut report),
        "bursty" => bursty::run(&run, &mut report),
        _ => unreachable!("checked by parse"),
    }
    let error_ratio = report::ratio(report.failed as f64, report.attempted as f64);
    report.note(format!(
        "error_ratio = {error_ratio} ({} of {} operations)",
        report.failed, report.attempted
    ));
    if run.trace {
        report.layer("error_ratio", error_ratio, "ratio");
        let mut missing = Vec::new();
        for &(name, unit) in PER_LAYER {
            if !report.per_layer.iter().any(|m| m.name == name) {
                missing.push(name);
                report.layer(name, 0.0, unit);
            }
        }
        if !missing.is_empty() {
            report.note(format!(
                "not loaded by {} (reported as 0): {}",
                run.workload,
                missing.join(" ")
            ));
        }
        report
            .per_layer
            .sort_by_key(|m| PER_LAYER.iter().position(|(n, _)| *n == m.name));
    }
    report.attempted = report.attempted.max(1);
    report.print(run.trace);
    if report.failed > 0 {
        eprintln!("perfbench: correctness violation on {}", run.workload);
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
