//! Records the PR's perf baseline: throughput *and* allocation rate for
//! the fast-path/slow-path execution split against its slow-path-only
//! baseline, written as machine-readable JSON (default `BENCH_PR8.json`).
//!
//! Every row carries a self-describing `engine` field ("kogan-petrank",
//! "wcq", ...) and a `capacity` column (`null` for unbounded engines),
//! so consumers no longer have to decode variant names.
//!
//! Four grids:
//! 1. the PR2/PR3 slow-path grid — {epoch, HP} × {base, opt(1+2)} ×
//!    {pairs, 50-50} × a small thread sweep — so slow-path drift vs the
//!    previous baseline is a row-by-row diff;
//! 2. the PR4 fast-path ablation — each fast variant against its
//!    slow-path-only base (same memory management), with the merged
//!    per-handle fallback counters recorded per cell;
//! 3. the PR5 reaper ablation (DESIGN.md §13) — the same opt_both cells
//!    with `Config::with_reaper()` on, no faults injected, so the
//!    on/off ratio is the pure protocol overhead (acceptance: geomean
//!    ≤1.03×); rows carry the reap/quarantine counters (all zero in a
//!    fault-free run). A separate seeded probe abandons a handle and
//!    measures the observed reap latency plus quarantine count;
//! 4. the PR6 three-way shootout — KP slow path (opt_both), KP fast
//!    path, and the wCQ ring engine on the same cells, with wCQ rows
//!    carrying fallback and threshold-reset columns. The headline is
//!    wCQ's geomean over the KP slow path at ≥4 threads (DESIGN.md §14:
//!    array + FAA vs pointer-chased CAS nodes);
//! 5. the PR7 channel sweep (DESIGN.md §15) — the sharded, batching
//!    channel front-end over both shard engines, shards × batch at a
//!    fixed 2-producer + 2-consumer cell. Each cell carries a
//!    closed-loop throughput median *and* an open-loop bursty-arrival
//!    latency probe at a fixed offered rate (0.4× the engine's
//!    single-shard unbatched throughput, same rate for every cell of
//!    that engine), reported as `p50_ns`/`p99_ns`/`p999_ns` against the
//!    *scheduled* arrival time — coordination-omission-free, see
//!    `harness::channel_load`. The headline is the per-engine speedup
//!    of (shards=4, batch=64) over (shards=1, batch=1), geomean across
//!    engines, acceptance ≥1.3×;
//! 6. the PR8 overload ablation (DESIGN.md §16) — backpressured cells
//!    on a deliberately small ring: the parked bounded send against a
//!    bench-local spin-send (`try_send` + yield, the pre-overload
//!    behavior), and the unbounded KP channel with the admission gate
//!    on against the identical gate-off cell (acceptance: admission
//!    on/off throughput geomean ≥0.97, i.e. ≤3% drift).
//!
//! A separate stalled-reader probe pins the bounded-memory claim: with
//! a registered consumer that never consumes while producers keep
//! feeding the queue, the KP engines grow their live heap per enqueue
//! while wCQ's live bytes stay exactly flat (everything is preallocated
//! at construction; a full ring rejects instead of allocating).
//!
//! The binary installs the counting allocator from `alloc-track`, so
//! `allocs_per_op` is the process-wide truth. Every row carries an
//! `oversubscribed` flag: when a cell runs more worker threads than the
//! machine has cores, its timing measures scheduler interleaving as
//! much as queue throughput, and comparisons against uncontended cells
//! are not apples-to-apples.
//!
//! ```text
//! cargo run -p harness --release --bin bench_record
//! cargo run -p harness --release --bin bench_record -- \
//!     --iters 100000 --reps 5 --out BENCH_PR4.json
//! ```
//!
//! `scripts/bench_record.sh` wraps this with the build step.

use std::fmt::Write as _;
use std::time::Duration;

use harness::args::Args;
use harness::channel_load::{self, CellSpec, OpenLoopSpec};
use harness::hist::LogHistogram;
use harness::{workload, SchedPolicy, Variant};
use kp_channel::{Channel, ChannelConfig, OverloadConfig, TrySendError};
use kp_queue::{Config, WfQueue, WfQueueHp};
use queue_traits::{ConcurrentQueue, FastPathStats, QueueHandle};
use wcq::WcQueue;

#[global_allocator]
static ALLOC: alloc_track::TrackingAlloc = alloc_track::TrackingAlloc;

struct Row {
    queue: &'static str,
    /// Engine family implementing the cell ("kogan-petrank", "wcq").
    engine: &'static str,
    /// Fixed element capacity; `None` (JSON `null`) for unbounded engines.
    capacity: Option<usize>,
    config: &'static str,
    workload: &'static str,
    threads: usize,
    median_secs: f64,
    mops_per_sec: f64,
    allocs_per_op: f64,
    oversubscribed: bool,
    /// Merged fast-path counters across all reps; `None` for cells
    /// without a fast path.
    fast: Option<FastPathStats>,
    /// Summed (reaps, quarantines) across all reps; `Some` only for
    /// reaper-enabled cells (expected (0, 0) in a fault-free run).
    reap: Option<(u64, u64)>,
    /// Summed SCQ threshold-counter resets across all reps; `Some` only
    /// for wCQ cells.
    threshold_resets: Option<u64>,
}

/// Engine family for the legacy grid-1..3 queue names.
fn engine_of(queue: &str) -> &'static str {
    match queue {
        "wcq" | "wcq-bounded" => "wcq",
        _ => "kogan-petrank",
    }
}

/// Producers in every channel-sweep cell.
const CHAN_PRODUCERS: usize = 2;
/// Consumers in every channel-sweep cell.
const CHAN_CONSUMERS: usize = 2;
/// Per-shard ring capacity for the bounded (wCQ) channel cells.
const CHAN_SHARD_CAPACITY: usize = 4096;
/// Messages per scheduled burst in the open-loop latency probe.
const CHAN_BURST: usize = 64;

/// One channel-sweep cell: closed-loop throughput plus the open-loop
/// latency columns filled in by the second pass.
struct ChanRow {
    /// Shard engine ("wcq" bounded ring, "kp" unbounded Kogan–Petrank).
    engine: &'static str,
    shards: usize,
    batch: usize,
    /// Per-shard capacity; `None` (JSON `null`) for the unbounded core.
    capacity: Option<usize>,
    median_secs: f64,
    mops_per_sec: f64,
    allocs_per_msg: f64,
    oversubscribed: bool,
    /// Offered rate of the latency probe, Mmsg/s.
    offered_mops: f64,
    /// Latency samples across all probe reps (histograms merged).
    samples: u64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    max_ns: u64,
    mean_ns: f64,
}

/// Self-describing engine name for the channel JSON rows.
fn engine_label(engine: &str) -> &'static str {
    if engine == "wcq" {
        "wcq"
    } else {
        "kogan-petrank"
    }
}

fn chan_config(shards: usize) -> ChannelConfig {
    ChannelConfig::new()
        .with_shards(shards)
        .with_max_senders(CHAN_PRODUCERS)
        .with_max_receivers(CHAN_CONSUMERS)
}

/// Runs one closed-loop channel cell on a fresh channel of `engine`.
fn chan_closed(engine: &str, shards: usize, spec: &CellSpec) -> Duration {
    if engine == "wcq" {
        let c: Channel<u64, WcQueue<u64>> =
            Channel::wcq(chan_config(shards), CHAN_SHARD_CAPACITY);
        channel_load::run_closed_loop(&c, spec)
    } else {
        let c: Channel<u64, WfQueue<u64>> = Channel::kp(chan_config(shards));
        channel_load::run_closed_loop(&c, spec)
    }
}

/// Runs one open-loop latency probe on a fresh channel of `engine`.
fn chan_open(engine: &str, shards: usize, spec: &OpenLoopSpec) -> LogHistogram {
    if engine == "wcq" {
        let c: Channel<u64, WcQueue<u64>> =
            Channel::wcq(chan_config(shards), CHAN_SHARD_CAPACITY);
        channel_load::run_open_loop(&c, spec)
    } else {
        let c: Channel<u64, WfQueue<u64>> = Channel::kp(chan_config(shards));
        channel_load::run_open_loop(&c, spec)
    }
}

/// One timed rep: returns (duration, heap allocations during the run).
fn rep<F: FnOnce() -> Duration>(f: F) -> (Duration, usize) {
    let a0 = alloc_track::total_allocs();
    let d = f();
    (d, alloc_track::total_allocs() - a0)
}

fn median(durs: &mut [Duration]) -> Duration {
    durs.sort();
    durs[durs.len() / 2]
}

/// Runs `abandon` on its own (immediately dead) thread — the handle it
/// leaks is the sudden-death victim — then drives pairs on a freshly
/// registered survivor until `reaps()` reports the slot was reclaimed.
/// Returns (wall-clock latency, survivor ops executed).
fn run_reap_probe<H: QueueHandle<u64>>(
    abandon: impl FnOnce() + Send,
    register: impl FnOnce() -> H,
    reaps: impl Fn() -> u64,
) -> (Duration, usize) {
    std::thread::scope(|s| {
        s.spawn(abandon);
    });
    let mut h = register();
    let start = std::time::Instant::now();
    let mut ops = 0usize;
    // The cap only guards against a wedged reaper turning the probe
    // into an infinite loop; a healthy reap lands after ~patience ops.
    while reaps() == 0 && ops < 50_000_000 {
        h.enqueue(0);
        let _ = h.dequeue();
        ops += 2;
    }
    (start.elapsed(), ops)
}

fn main() {
    let args = Args::from_env();
    let iters: usize = args.get_or("iters", 50_000);
    let reps: usize = args.get_or("reps", 3);
    let out = args.get("out").unwrap_or("BENCH_PR8.json").to_string();
    let thread_counts: Vec<usize> = match args.get("threads") {
        Some(t) => vec![t.parse().unwrap_or_else(|_| {
            harness::args::bad_value_exit("threads", t, "expected a thread count")
        })],
        None => vec![1, 4],
    };

    let cores = harness::sched::num_cores();
    println!("bench_record: iters/thread = {iters}, reps = {reps}, cores = {cores}");
    // One warning per run, not one per thread count (or per row): the
    // helper is `Once`-guarded, and every grid funnels through it.
    for &threads in &thread_counts {
        harness::sched::warn_if_oversubscribed(threads, cores);
    }

    let configs: [(&str, Config); 2] = [("base", Config::base()), ("opt_both", Config::opt_both())];

    let mut rows: Vec<Row> = Vec::new();

    // Grid 1: the slow-path grid, unchanged from the PR2/PR3 baseline
    // so drift is a row-by-row diff against BENCH_PR3.json.
    for &threads in &thread_counts {
        for (config, cfg) in configs {
            for wl in ["pairs", "fifty_fifty"] {
                for queue in ["wf-epoch", "wf-hp"] {
                    let mut durs = Vec::with_capacity(reps);
                    let mut allocs = Vec::with_capacity(reps);
                    for _ in 0..reps {
                        let (d, a) = match (queue, wl) {
                            ("wf-epoch", "pairs") => rep(|| {
                                let q: WfQueue<u64> = WfQueue::with_config(threads, cfg);
                                workload::run_pairs(&q, threads, iters, SchedPolicy::Unpinned)
                            }),
                            ("wf-epoch", _) => rep(|| {
                                let q: WfQueue<u64> = WfQueue::with_config(threads + 1, cfg);
                                workload::run_fifty_fifty(
                                    &q,
                                    threads,
                                    iters,
                                    1_000,
                                    SchedPolicy::Unpinned,
                                )
                            }),
                            (_, "pairs") => rep(|| {
                                let q: WfQueueHp<u64> = WfQueueHp::with_config(threads, cfg);
                                workload::run_pairs(&q, threads, iters, SchedPolicy::Unpinned)
                            }),
                            _ => rep(|| {
                                let q: WfQueueHp<u64> = WfQueueHp::with_config(threads + 1, cfg);
                                workload::run_fifty_fifty(
                                    &q,
                                    threads,
                                    iters,
                                    1_000,
                                    SchedPolicy::Unpinned,
                                )
                            }),
                        };
                        durs.push(d);
                        allocs.push(a);
                    }
                    rows.push(finish_row(
                        queue, config, wl, threads, iters, cores, durs, allocs, None, None,
                    ));
                }
            }
        }
    }

    // Grid 2: the fast-path ablation cells.
    for &threads in &thread_counts {
        for wl in ["pairs", "fifty_fifty"] {
            for (fast, _base) in Variant::FAST_ABLATION {
                let queue = match fast {
                    Variant::WfFast => "wf-fast",
                    _ => "wf-fast-hp",
                };
                let mut durs = Vec::with_capacity(reps);
                let mut allocs = Vec::with_capacity(reps);
                let mut fp = FastPathStats::default();
                for _ in 0..reps {
                    let a0 = alloc_track::total_allocs();
                    let (d, stats) = match wl {
                        "pairs" => fast.run_pairs_stats(threads, iters, SchedPolicy::Unpinned),
                        _ => fast.run_fifty_fifty_stats(
                            threads,
                            iters,
                            1_000,
                            SchedPolicy::Unpinned,
                        ),
                    };
                    allocs.push(alloc_track::total_allocs() - a0);
                    durs.push(d);
                    fp.merge(&stats);
                }
                rows.push(finish_row(
                    queue,
                    "fast",
                    wl,
                    threads,
                    iters,
                    cores,
                    durs,
                    allocs,
                    Some(fp),
                    None,
                ));
            }
        }
    }

    // Grid 3: the reaper ablation — the grid-1 opt_both cells
    // with the reaper on and no faults injected, so the on/off ratio is
    // pure `reap_tick` overhead. Reap/quarantine counters recorded to
    // prove fault-free runs reap nothing.
    //
    // Patience is deliberately huge: it is a deployment contract on the
    // worst-case descheduling window (DESIGN.md §13.3), and oversubscribed
    // cells park live workers long enough that the default would reap
    // them mid-benchmark. `reap_tick`'s per-op scan cost — the thing this
    // grid measures — does not depend on the patience value.
    let reap_cfg = Config::opt_both().with_reap_patience(usize::MAX >> 1);
    for &threads in &thread_counts {
        for wl in ["pairs", "fifty_fifty"] {
            for queue in ["wf-epoch", "wf-hp"] {
                let mut durs = Vec::with_capacity(reps);
                let mut allocs = Vec::with_capacity(reps);
                let mut reap_counts = (0u64, 0u64);
                for _ in 0..reps {
                    let a0 = alloc_track::total_allocs();
                    let (d, stats) = match (queue, wl) {
                        ("wf-epoch", "pairs") => {
                            let q: WfQueue<u64> = WfQueue::with_config(threads, reap_cfg);
                            let d = workload::run_pairs(&q, threads, iters, SchedPolicy::Unpinned);
                            (d, q.stats())
                        }
                        ("wf-epoch", _) => {
                            let q: WfQueue<u64> = WfQueue::with_config(threads + 1, reap_cfg);
                            let d = workload::run_fifty_fifty(
                                &q,
                                threads,
                                iters,
                                1_000,
                                SchedPolicy::Unpinned,
                            );
                            (d, q.stats())
                        }
                        (_, "pairs") => {
                            let q: WfQueueHp<u64> = WfQueueHp::with_config(threads, reap_cfg);
                            let d = workload::run_pairs(&q, threads, iters, SchedPolicy::Unpinned);
                            (d, q.stats())
                        }
                        _ => {
                            let q: WfQueueHp<u64> = WfQueueHp::with_config(threads + 1, reap_cfg);
                            let d = workload::run_fifty_fifty(
                                &q,
                                threads,
                                iters,
                                1_000,
                                SchedPolicy::Unpinned,
                            );
                            (d, q.stats())
                        }
                    };
                    durs.push(d);
                    allocs.push(alloc_track::total_allocs() - a0);
                    reap_counts.0 += stats.reaps;
                    reap_counts.1 += stats.quarantines;
                }
                rows.push(finish_row(
                    queue,
                    "opt_both+reap",
                    wl,
                    threads,
                    iters,
                    cores,
                    durs,
                    allocs,
                    None,
                    Some(reap_counts),
                ));
            }
        }
    }

    // Grid 4: the wCQ ring engine on the same cells. Rows carry the
    // engine's fallback counters plus the SCQ threshold-reset count.
    for &threads in &thread_counts {
        for wl in ["pairs", "fifty_fifty"] {
            for variant in [Variant::Wcq, Variant::WcqBounded] {
                let queue = match variant {
                    Variant::Wcq => "wcq",
                    _ => "wcq-bounded",
                };
                let cap = variant.capacity().expect("wcq variants are bounded");
                let mut durs = Vec::with_capacity(reps);
                let mut allocs = Vec::with_capacity(reps);
                let mut fp = FastPathStats::default();
                let mut resets = 0u64;
                for _ in 0..reps {
                    let a0 = alloc_track::total_allocs();
                    // +1 handle slot for the 50-50 prefill, as in grid 1.
                    let q: WcQueue<u64> = WcQueue::with_config(
                        threads + 1,
                        wcq::Config::new().with_capacity(cap),
                    );
                    let (d, stats) = match wl {
                        "pairs" => workload::run_pairs_with_stats(
                            &q,
                            threads,
                            iters,
                            SchedPolicy::Unpinned,
                        ),
                        _ => workload::run_fifty_fifty_with_stats(
                            &q,
                            threads,
                            iters,
                            1_000,
                            SchedPolicy::Unpinned,
                        ),
                    };
                    allocs.push(alloc_track::total_allocs() - a0);
                    durs.push(d);
                    fp.merge(&stats);
                    resets += q.threshold_resets();
                }
                rows.push(finish_row_full(
                    queue,
                    "wcq",
                    Some(cap),
                    "default",
                    wl,
                    threads,
                    iters,
                    cores,
                    durs,
                    allocs,
                    Some(fp),
                    None,
                    Some(resets),
                ));
            }
        }
    }

    // Grid 5: the channel sweep — shards × batch over both shard
    // engines at a fixed 2-producer + 2-consumer cell (4 worker
    // threads, the acceptance point). First pass: closed-loop
    // throughput, median of `reps`. Second pass: open-loop bursty
    // latency at a fixed offered rate calibrated per engine to 0.4× its
    // single-shard unbatched closed-loop throughput — the *same* rate
    // for every cell of that engine, so the p50/p99/p999 columns
    // compare configurations at equal load.
    let chan_threads = CHAN_PRODUCERS + CHAN_CONSUMERS;
    let chan_oversub = harness::sched::warn_if_oversubscribed(chan_threads, cores);
    // Channel cells run 4x the global iteration count: with 4 worker
    // threads oversubscribed onto few cores, a cell has to span many
    // scheduler quanta (tens of ms) before its median is a measurement
    // rather than a coin flip on which thread held the core.
    let chan_iters = iters * 4;
    let chan_engines: [&'static str; 2] = ["wcq", "kp"];
    let shard_counts = [1usize, 2, 4];
    let batch_sizes = [1usize, 8, 64];
    let mut chan_rows: Vec<ChanRow> = Vec::new();
    for &engine in &chan_engines {
        for &shards in &shard_counts {
            for &batch in &batch_sizes {
                let spec = CellSpec {
                    producers: CHAN_PRODUCERS,
                    consumers: CHAN_CONSUMERS,
                    iters: chan_iters,
                    batch,
                };
                let mut durs = Vec::with_capacity(reps);
                let mut allocs = Vec::with_capacity(reps);
                for _ in 0..reps {
                    let (d, a) = rep(|| chan_closed(engine, shards, &spec));
                    durs.push(d);
                    allocs.push(a);
                }
                let med = median(&mut durs);
                allocs.sort();
                let msgs = spec.messages() as f64;
                let row = ChanRow {
                    engine,
                    shards,
                    batch,
                    capacity: (engine == "wcq").then_some(CHAN_SHARD_CAPACITY),
                    median_secs: med.as_secs_f64(),
                    mops_per_sec: msgs / med.as_secs_f64() / 1e6,
                    allocs_per_msg: allocs[allocs.len() / 2] as f64 / msgs,
                    oversubscribed: chan_oversub,
                    offered_mops: 0.0,
                    samples: 0,
                    p50_ns: 0,
                    p99_ns: 0,
                    p999_ns: 0,
                    max_ns: 0,
                    mean_ns: 0.0,
                };
                println!(
                    "channel {:4} shards={} batch={:2} t={}{}: {:>8.3} Mmsg/s, \
                     {:.4} allocs/msg",
                    row.engine,
                    row.shards,
                    row.batch,
                    chan_threads,
                    if row.oversubscribed { " (oversub)" } else { "" },
                    row.mops_per_sec,
                    row.allocs_per_msg
                );
                chan_rows.push(row);
            }
        }
    }

    // Latency pass. Bursts are sized from `iters` so a probe offers
    // about as many messages as a closed-loop cell moves.
    for &engine in &chan_engines {
        let base_mops = chan_rows
            .iter()
            .find(|r| r.engine == engine && r.shards == 1 && r.batch == 1)
            .expect("single-shard unbatched baseline row")
            .mops_per_sec;
        let offered_per_sec = 0.4 * base_mops * 1e6;
        let gap = Duration::from_nanos(
            ((CHAN_PRODUCERS * CHAN_BURST) as f64 / offered_per_sec * 1e9) as u64,
        );
        let bursts = (chan_iters / CHAN_BURST).max(8);
        for row in chan_rows.iter_mut().filter(|r| r.engine == engine) {
            let spec = OpenLoopSpec {
                producers: CHAN_PRODUCERS,
                consumers: CHAN_CONSUMERS,
                batch: row.batch,
                burst: CHAN_BURST,
                bursts,
                gap,
            };
            let mut hist = LogHistogram::new();
            for _ in 0..reps {
                hist.merge(&chan_open(engine, row.shards, &spec));
            }
            row.offered_mops = spec.offered_per_sec() / 1e6;
            row.samples = hist.len();
            row.p50_ns = hist.quantile(0.5);
            row.p99_ns = hist.quantile(0.99);
            row.p999_ns = hist.quantile(0.999);
            row.max_ns = hist.max();
            row.mean_ns = hist.mean();
            println!(
                "channel latency {:4} shards={} batch={:2}: p50 {:>7} ns, p99 {:>8} ns, \
                 p999 {:>8} ns ({} samples at {:.3} Mmsg/s offered)",
                row.engine, row.shards, row.batch, row.p50_ns, row.p99_ns, row.p999_ns,
                row.samples, row.offered_mops
            );
        }
    }

    // Grid 6: the overload ablation (DESIGN.md §16). Backpressured
    // cells: a ring small enough that the closed-loop producers outrun
    // the consumers and hit `Full` constantly, so the cell measures the
    // refusal path, not the happy path. Three comparisons:
    //   - wcq park vs spin: the parked bounded send against a
    //     bench-local `try_send` + `yield_now` loop (the pre-overload
    //     sender behavior);
    //   - kp admission on vs off: the same blocking-send cell with and
    //     without a per-shard depth quota (gate overhead + gated parks
    //     vs an unbounded engine that never refuses);
    //   - the admission-on/off ratio is the acceptance number: geomean
    //     ≥0.97 (≤3% drift from the overload machinery).
    const OVERLOAD_RING: usize = 256;
    const OVERLOAD_QUOTA: usize = 256;
    struct OverRow {
        engine: &'static str,
        mode: &'static str,
        capacity: Option<usize>,
        depth_quota: Option<usize>,
        median_secs: f64,
        mops_per_sec: f64,
        allocs_per_msg: f64,
        tx_parks: u64,
        refusals_spun: bool,
    }
    let mut over_rows: Vec<OverRow> = Vec::new();
    {
        // One backpressured closed-loop cell: 2 producers send `iters`
        // values each (parked or spinning on Full), 2 consumers drain
        // batched until disconnect.
        fn overload_cell<Q: queue_traits::ConcurrentQueue<u64>>(
            chan: &Channel<u64, Q>,
            spin: bool,
            iters: usize,
        ) -> Duration {
            let txs: Vec<_> = (0..CHAN_PRODUCERS).map(|_| chan.sender()).collect();
            let rxs: Vec<_> = (0..CHAN_CONSUMERS).map(|_| chan.receiver()).collect();
            let start = std::time::Instant::now();
            std::thread::scope(|s| {
                for (p, mut tx) in txs.into_iter().enumerate() {
                    s.spawn(move || {
                        for i in 0..iters as u64 {
                            let mut v = ((p as u64) << 48) | i;
                            if spin {
                                loop {
                                    match tx.try_send(v) {
                                        Ok(()) => break,
                                        Err(TrySendError::Full(x)) => {
                                            v = x;
                                            std::thread::yield_now();
                                        }
                                        Err(TrySendError::Disconnected(_)) => {
                                            panic!("receivers vanished")
                                        }
                                    }
                                }
                            } else {
                                tx.send(v).expect("receivers vanished");
                            }
                        }
                    });
                }
                for mut rx in rxs {
                    s.spawn(move || {
                        let mut buf = Vec::with_capacity(64);
                        while rx.recv_batch(&mut buf, 64).is_ok() {
                            buf.clear();
                        }
                    });
                }
            });
            start.elapsed()
        }
        let over_cells: [(&'static str, &'static str, Option<usize>, Option<usize>); 4] = [
            ("wcq", "park", Some(OVERLOAD_RING), None),
            ("wcq", "spin", Some(OVERLOAD_RING), None),
            ("kp", "admission-off", None, None),
            ("kp", "admission-on", None, Some(OVERLOAD_QUOTA)),
        ];
        for (engine, mode, capacity, quota) in over_cells {
            let spin = mode == "spin";
            let mut durs = Vec::with_capacity(reps);
            let mut allocs = Vec::with_capacity(reps);
            let mut tx_parks = 0u64;
            for _ in 0..reps {
                let cfg = match quota {
                    Some(q) => chan_config(2)
                        .with_overload(OverloadConfig::disabled().with_depth_quota(q)),
                    None => chan_config(2),
                };
                let (d, a) = if engine == "wcq" {
                    let c: Channel<u64, WcQueue<u64>> = Channel::wcq(cfg, OVERLOAD_RING);
                    let r = rep(|| overload_cell(&c, spin, chan_iters));
                    tx_parks += c.health_snapshot().shards.iter().map(|s| s.tx_parks).sum::<u64>();
                    r
                } else {
                    let c: Channel<u64, WfQueue<u64>> = Channel::kp(cfg);
                    let r = rep(|| overload_cell(&c, spin, chan_iters));
                    tx_parks += c.health_snapshot().shards.iter().map(|s| s.tx_parks).sum::<u64>();
                    r
                };
                durs.push(d);
                allocs.push(a);
            }
            let med = median(&mut durs);
            allocs.sort();
            let msgs = (CHAN_PRODUCERS * chan_iters) as f64;
            let row = OverRow {
                engine,
                mode,
                capacity,
                depth_quota: quota,
                median_secs: med.as_secs_f64(),
                mops_per_sec: msgs / med.as_secs_f64() / 1e6,
                allocs_per_msg: allocs[allocs.len() / 2] as f64 / msgs,
                tx_parks,
                refusals_spun: spin,
            };
            println!(
                "overload {:4} {:13} t={}{}: {:>8.3} Mmsg/s, {:.4} allocs/msg, {} sender parks",
                row.engine,
                row.mode,
                chan_threads,
                if chan_oversub { " (oversub)" } else { "" },
                row.mops_per_sec,
                row.allocs_per_msg,
                row.tx_parks
            );
            over_rows.push(row);
        }
    }
    let over_pick = |engine: &str, mode: &str| {
        over_rows
            .iter()
            .find(|r| r.engine == engine && r.mode == mode)
            .expect("overload ablation cell")
    };
    let park_over_spin =
        over_pick("wcq", "park").mops_per_sec / over_pick("wcq", "spin").mops_per_sec;
    let admission_on_over_off = over_pick("kp", "admission-on").mops_per_sec
        / over_pick("kp", "admission-off").mops_per_sec;
    println!("overload wcq parked-send over spin-send: {park_over_spin:.4}x");
    println!(
        "overload kp admission on over off: {admission_on_over_off:.4}x \
         (acceptance >= 0.97, i.e. <= 3% drift)"
    );

    // Headline comparison for this PR: per engine, the fully batched +
    // sharded cell over the single-shard unbatched one; geomean across
    // engines, acceptance ≥1.3×.
    let mut chan_cmps = String::new();
    let mut chan_log_sum = 0.0f64;
    let mut chan_n = 0usize;
    for &engine in &chan_engines {
        let pick = |shards: usize, batch: usize| {
            chan_rows
                .iter()
                .find(|r| r.engine == engine && r.shards == shards && r.batch == batch)
                .expect("channel sweep cell")
        };
        let best = pick(4, 64);
        let base = pick(1, 1);
        let speedup = best.mops_per_sec / base.mops_per_sec;
        chan_log_sum += speedup.ln();
        chan_n += 1;
        let _ = write!(
            chan_cmps,
            "{}    {{\"engine\": \"{}\", \"batched_sharded_mops\": {:.4}, \
             \"single_unbatched_mops\": {:.4}, \"speedup\": {:.4}}}",
            if chan_cmps.is_empty() { "" } else { ",\n" },
            engine_label(engine),
            best.mops_per_sec,
            base.mops_per_sec,
            speedup
        );
        println!(
            "channel {} (shards=4, batch=64) over (shards=1, batch=1): {:.3}x",
            engine, speedup
        );
    }
    let chan_geomean = (chan_log_sum / chan_n as f64).exp();
    println!(
        "channel batched+sharded over single-shard-unbatched geomean across \
         {chan_n} engines: {chan_geomean:.4}x (acceptance >= 1.3)"
    );

    // Headline comparison for this PR: each fast cell against its
    // slow-path-only base (same memory management, opt_both).
    let mut fast_cmps = String::new();
    let mut log_sum = 0.0f64;
    let mut n_cmps = 0usize;
    for (fast, _) in Variant::FAST_ABLATION {
        let (fast_name, base_name) = match fast {
            Variant::WfFast => ("wf-fast", "wf-epoch"),
            _ => ("wf-fast-hp", "wf-hp"),
        };
        for &threads in &thread_counts {
            for wl in ["pairs", "fifty_fifty"] {
                let f = rows
                    .iter()
                    .find(|r| r.queue == fast_name && r.workload == wl && r.threads == threads)
                    .expect("fast row");
                let b = rows
                    .iter()
                    .find(|r| {
                        r.queue == base_name
                            && r.config == "opt_both"
                            && r.workload == wl
                            && r.threads == threads
                    })
                    .expect("base row");
                let speedup = f.mops_per_sec / b.mops_per_sec;
                log_sum += speedup.ln();
                n_cmps += 1;
                let fp = f.fast.as_ref().expect("fast row has stats");
                let _ = write!(
                    fast_cmps,
                    "{}    {{\"fast\": \"{}\", \"base\": \"{}\", \"workload\": \"{}\", \
                     \"threads\": {}, \"fast_over_base_speedup\": {:.4}, \
                     \"fallback_rate\": {:.6}}}",
                    if fast_cmps.is_empty() { "" } else { ",\n" },
                    fast_name,
                    base_name,
                    wl,
                    threads,
                    speedup,
                    fp.fallback_rate()
                );
                println!(
                    "fast/base {} vs {} {} t={}: {:.3}x (fallback rate {:.4})",
                    fast_name,
                    base_name,
                    wl,
                    threads,
                    speedup,
                    fp.fallback_rate()
                );
            }
        }
    }
    let geomean = (log_sum / n_cmps as f64).exp();
    println!("fast-over-base geomean across {n_cmps} cells: {geomean:.4}x");

    // Headline comparison for this PR: each reaper-on cell against the
    // identical reaper-off cell (acceptance: overhead geomean ≤1.03×,
    // i.e. on/off speedup geomean ≥0.9709).
    let mut reap_cmps = String::new();
    let mut reap_log_sum = 0.0f64;
    let mut reap_n = 0usize;
    for r in rows.iter().filter(|r| r.config == "opt_both+reap") {
        let b = rows
            .iter()
            .find(|b| {
                b.queue == r.queue
                    && b.config == "opt_both"
                    && b.workload == r.workload
                    && b.threads == r.threads
            })
            .expect("reaper-off twin row");
        let speedup = r.mops_per_sec / b.mops_per_sec;
        reap_log_sum += speedup.ln();
        reap_n += 1;
        let (reaps, quarantines) = r.reap.expect("reaper cell has counters");
        let _ = write!(
            reap_cmps,
            "{}    {{\"queue\": \"{}\", \"workload\": \"{}\", \"threads\": {}, \
             \"reap_on_over_off_speedup\": {:.4}, \"reaps\": {}, \"quarantines\": {}}}",
            if reap_cmps.is_empty() { "" } else { ",\n" },
            r.queue,
            r.workload,
            r.threads,
            speedup,
            reaps,
            quarantines
        );
        println!(
            "reaper on/off {} {} t={}: {:.3}x (reaps {}, quarantines {})",
            r.queue, r.workload, r.threads, speedup, reaps, quarantines
        );
    }
    let reap_geomean = (reap_log_sum / reap_n as f64).exp();
    println!("reaper-on-over-off geomean across {reap_n} cells: {reap_geomean:.4}x");

    // Reap-latency probe: abandon a handle for real (mem::forget — the
    // sudden-death half of the fault model) and measure how long a lone
    // survivor takes to revoke the lease and finish the reap, in
    // wall-clock time and in survivor operations. Patience is shrunk so
    // the probe measures the reap machinery, not the (configurable)
    // patience window itself.
    const PROBE_PATIENCE: usize = 64;
    // Floor 0 for the same reason as the shrunk patience: the probe
    // reports reap latency, which a 1 s wall floor would dominate.
    let probe_cfg = Config::opt_both()
        .with_reap_patience(PROBE_PATIENCE)
        .with_reap_min_silence_ms(0);
    let mut probes = String::new();
    for queue in ["wf-epoch", "wf-hp"] {
        let (latency, ops, reaps, quarantines) = if queue == "wf-epoch" {
            let q: WfQueue<u64> = WfQueue::with_config(2, probe_cfg);
            let probe = run_reap_probe(
                || {
                    let mut h = q.register().expect("probe victim slot");
                    for i in 0..16 {
                        h.enqueue(i);
                    }
                    std::mem::forget(h);
                },
                || q.register().expect("probe survivor slot"),
                || q.stats().reaps,
            );
            let s = q.stats();
            (probe.0, probe.1, s.reaps, s.quarantines)
        } else {
            let q: WfQueueHp<u64> = WfQueueHp::with_config(2, probe_cfg);
            let probe = run_reap_probe(
                || {
                    let mut h = q.register().expect("probe victim slot");
                    for i in 0..16 {
                        h.enqueue(i);
                    }
                    std::mem::forget(h);
                },
                || q.register().expect("probe survivor slot"),
                || q.stats().reaps,
            );
            let s = q.stats();
            (probe.0, probe.1, s.reaps, s.quarantines)
        };
        let _ = write!(
            probes,
            "{}    {{\"queue\": \"{}\", \"reap_patience\": {}, \
             \"reap_latency_secs\": {:.6}, \"survivor_ops_until_reap\": {}, \
             \"reaps\": {}, \"quarantines\": {}}}",
            if probes.is_empty() { "" } else { ",\n" },
            queue,
            PROBE_PATIENCE,
            latency.as_secs_f64(),
            ops,
            reaps,
            quarantines
        );
        println!(
            "reap probe {queue}: {:.2?} / {ops} survivor ops until reap \
             (patience {PROBE_PATIENCE}, reaps {reaps}, quarantines {quarantines})",
            latency
        );
    }

    // Headline comparison for this PR: the three-way shootout — each
    // wCQ cell against the KP slow path (wf-epoch opt_both) and
    // the KP fast path (wf-fast) on the identical workload cell. The
    // acceptance geomean counts unbounded-wcq-vs-KP-slow at ≥4 threads.
    let mut shootout = String::new();
    let mut wcq_log_sum = 0.0f64;
    let mut wcq_n = 0usize;
    for r in rows.iter().filter(|r| r.engine == "wcq") {
        let slow = rows
            .iter()
            .find(|b| {
                b.queue == "wf-epoch"
                    && b.config == "opt_both"
                    && b.workload == r.workload
                    && b.threads == r.threads
            })
            .expect("KP slow-path twin row");
        let fast = rows
            .iter()
            .find(|b| b.queue == "wf-fast" && b.workload == r.workload && b.threads == r.threads)
            .expect("KP fast-path twin row");
        let vs_slow = r.mops_per_sec / slow.mops_per_sec;
        let vs_fast = r.mops_per_sec / fast.mops_per_sec;
        if r.queue == "wcq" && r.threads >= 4 {
            wcq_log_sum += vs_slow.ln();
            wcq_n += 1;
        }
        let fp = r.fast.as_ref().expect("wcq row has stats");
        let _ = write!(
            shootout,
            "{}    {{\"queue\": \"{}\", \"capacity\": {}, \"workload\": \"{}\", \
             \"threads\": {}, \"wcq_over_kp_slow\": {:.4}, \"wcq_over_kp_fast\": {:.4}, \
             \"fallback_rate\": {:.6}, \"threshold_resets\": {}}}",
            if shootout.is_empty() { "" } else { ",\n" },
            r.queue,
            r.capacity.expect("wcq rows are bounded"),
            r.workload,
            r.threads,
            vs_slow,
            vs_fast,
            fp.fallback_rate(),
            r.threshold_resets.expect("wcq rows count resets"),
        );
        println!(
            "shootout {} {} t={}: {:.3}x vs KP slow, {:.3}x vs KP fast",
            r.queue, r.workload, r.threads, vs_slow, vs_fast
        );
    }
    let wcq_geomean = if wcq_n > 0 {
        (wcq_log_sum / wcq_n as f64).exp()
    } else {
        f64::NAN
    };
    println!("wcq-over-kp-slow geomean across {wcq_n} cells at >=4 threads: {wcq_geomean:.4}x");

    // Stalled-reader memory probe: a registered consumer goes silent
    // while a producer keeps feeding the queue. The KP engines allocate
    // a node per enqueue, so live heap grows with the backlog; wCQ
    // preallocated everything at construction and rejects on a full
    // ring, so its live-byte growth is exactly zero.
    const STALLED_FEED: usize = 50_000;
    let mut stalled = String::new();
    {
        let q: WfQueue<u64> = WfQueue::with_config(2, Config::opt_both());
        let _reader = q.register().expect("stalled reader slot");
        let mut h = q.register().expect("producer slot");
        let mark = alloc_track::live_bytes();
        for i in 0..STALLED_FEED {
            h.enqueue(i as u64);
        }
        let growth = alloc_track::live_bytes().saturating_sub(mark);
        let _ = writeln!(
            stalled,
            "    {{\"queue\": \"wf-epoch\", \"engine\": \"kogan-petrank\", \"capacity\": null, \
             \"items_offered\": {STALLED_FEED}, \"items_rejected\": 0, \
             \"live_bytes_growth\": {growth}}},"
        );
        println!("stalled reader wf-epoch: +{growth} live bytes after {STALLED_FEED} enqueues");
    }
    {
        let q: WfQueueHp<u64> = WfQueueHp::with_config(2, Config::opt_both());
        let _reader = q.register().expect("stalled reader slot");
        let mut h = q.register().expect("producer slot");
        let mark = alloc_track::live_bytes();
        for i in 0..STALLED_FEED {
            h.enqueue(i as u64);
        }
        let growth = alloc_track::live_bytes().saturating_sub(mark);
        let _ = writeln!(
            stalled,
            "    {{\"queue\": \"wf-hp\", \"engine\": \"kogan-petrank\", \"capacity\": null, \
             \"items_offered\": {STALLED_FEED}, \"items_rejected\": 0, \
             \"live_bytes_growth\": {growth}}},"
        );
        println!("stalled reader wf-hp: +{growth} live bytes after {STALLED_FEED} enqueues");
    }
    {
        let cap = Variant::WcqBounded.capacity().expect("bounded");
        let q: WcQueue<u64> =
            WcQueue::with_config(2, wcq::Config::new().with_capacity(cap));
        let _reader = q.register().expect("stalled reader slot");
        let mut h = q.register().expect("producer slot");
        let mark = alloc_track::live_bytes();
        let mut rejected = 0usize;
        for i in 0..STALLED_FEED {
            if h.try_enqueue(i as u64).is_err() {
                rejected += 1;
            }
        }
        let growth = alloc_track::live_bytes().saturating_sub(mark);
        let _ = writeln!(
            stalled,
            "    {{\"queue\": \"wcq-bounded\", \"engine\": \"wcq\", \"capacity\": {cap}, \
             \"items_offered\": {STALLED_FEED}, \"items_rejected\": {rejected}, \
             \"live_bytes_growth\": {growth}}}"
        );
        println!(
            "stalled reader wcq-bounded: +{growth} live bytes after {STALLED_FEED} offers \
             ({rejected} rejected at capacity {cap})"
        );
        assert_eq!(
            growth, 0,
            "wCQ must not allocate under a stalled reader (bounded-memory claim)"
        );
    }

    let mut json = String::new();
    json.push_str("{\n  \"pr\": 8,\n");
    let _ = writeln!(json, "  \"iters_per_thread\": {iters},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    json.push_str("  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let fast_fields = match &r.fast {
            Some(fp) => format!(
                ", \"fallback_rate\": {:.6}, \"fast_completions\": {}, \
                 \"fast_exhaustions\": {}, \"fast_starvation_demotions\": {}, \
                 \"slow_ops\": {}",
                fp.fallback_rate(),
                fp.fast_completions,
                fp.fast_exhaustions,
                fp.fast_starvation_demotions,
                fp.slow_ops
            ),
            None => String::new(),
        };
        let reap_fields = match &r.reap {
            Some((reaps, quarantines)) => {
                format!(", \"reaps\": {reaps}, \"quarantines\": {quarantines}")
            }
            None => String::new(),
        };
        let reset_fields = match r.threshold_resets {
            Some(n) => format!(", \"threshold_resets\": {n}"),
            None => String::new(),
        };
        let capacity = match r.capacity {
            Some(c) => c.to_string(),
            None => "null".to_string(),
        };
        let _ = writeln!(
            json,
            "    {{\"queue\": \"{}\", \"engine\": \"{}\", \"capacity\": {}, \
             \"config\": \"{}\", \
             \"workload\": \"{}\", \"threads\": {}, \"oversubscribed\": {}, \
             \"median_secs\": {:.6}, \"mops_per_sec\": {:.4}, \
             \"allocs_per_op\": {:.6}{}{}{}}}{}",
            r.queue,
            r.engine,
            capacity,
            r.config,
            r.workload,
            r.threads,
            r.oversubscribed,
            r.median_secs,
            r.mops_per_sec,
            r.allocs_per_op,
            fast_fields,
            reap_fields,
            reset_fields,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"fast_vs_base\": [\n");
    json.push_str(&fast_cmps);
    json.push_str("\n  ],\n");
    let _ = writeln!(json, "  \"fast_vs_base_geomean\": {geomean:.4},");
    json.push_str("  \"reap_on_vs_off\": [\n");
    json.push_str(&reap_cmps);
    json.push_str("\n  ],\n");
    let _ = writeln!(json, "  \"reap_on_vs_off_geomean\": {reap_geomean:.4},");
    json.push_str("  \"reap_probe\": [\n");
    json.push_str(&probes);
    json.push_str("\n  ],\n");
    json.push_str("  \"wcq_shootout\": [\n");
    json.push_str(&shootout);
    json.push_str("\n  ],\n");
    let _ = writeln!(
        json,
        "  \"wcq_over_kp_slow_geomean_4t\": {wcq_geomean:.4},"
    );
    json.push_str("  \"stalled_reader\": [\n");
    json.push_str(&stalled);
    json.push_str("  ],\n");
    json.push_str("  \"channel_sweep\": [\n");
    for (i, r) in chan_rows.iter().enumerate() {
        let capacity = match r.capacity {
            Some(c) => c.to_string(),
            None => "null".to_string(),
        };
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"shards\": {}, \"batch\": {}, \
             \"capacity\": {}, \"producers\": {}, \"consumers\": {}, \
             \"threads\": {}, \"oversubscribed\": {}, \
             \"median_secs\": {:.6}, \"mops_per_sec\": {:.4}, \
             \"allocs_per_msg\": {:.6}, \"offered_mops\": {:.4}, \
             \"latency_samples\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"p999_ns\": {}, \"max_ns\": {}, \"mean_ns\": {:.1}}}{}",
            engine_label(r.engine),
            r.shards,
            r.batch,
            capacity,
            CHAN_PRODUCERS,
            CHAN_CONSUMERS,
            CHAN_PRODUCERS + CHAN_CONSUMERS,
            r.oversubscribed,
            r.median_secs,
            r.mops_per_sec,
            r.allocs_per_msg,
            r.offered_mops,
            r.samples,
            r.p50_ns,
            r.p99_ns,
            r.p999_ns,
            r.max_ns,
            r.mean_ns,
            if i + 1 == chan_rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n  \"channel_batched_sharded_vs_single\": [\n");
    json.push_str(&chan_cmps);
    json.push_str("\n  ],\n");
    let _ = writeln!(
        json,
        "  \"channel_batched_sharded_geomean\": {chan_geomean:.4},"
    );
    json.push_str("  \"overload_ablation\": [\n");
    for (i, r) in over_rows.iter().enumerate() {
        let capacity = match r.capacity {
            Some(c) => c.to_string(),
            None => "null".to_string(),
        };
        let quota = match r.depth_quota {
            Some(q) => q.to_string(),
            None => "null".to_string(),
        };
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"mode\": \"{}\", \"capacity\": {}, \
             \"depth_quota\": {}, \"producers\": {}, \"consumers\": {}, \
             \"oversubscribed\": {}, \"median_secs\": {:.6}, \
             \"mops_per_sec\": {:.4}, \"allocs_per_msg\": {:.6}, \
             \"tx_parks\": {}, \"refusals_spun\": {}}}{}",
            engine_label(r.engine),
            r.mode,
            capacity,
            quota,
            CHAN_PRODUCERS,
            CHAN_CONSUMERS,
            chan_oversub,
            r.median_secs,
            r.mops_per_sec,
            r.allocs_per_msg,
            r.tx_parks,
            r.refusals_spun,
            if i + 1 == over_rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"overload_park_over_spin\": {park_over_spin:.4},");
    let _ = writeln!(
        json,
        "  \"overload_admission_on_over_off\": {admission_on_over_off:.4}"
    );
    json.push_str("}\n");

    std::fs::write(&out, json).expect("write JSON report");
    println!("-> {out}");
}

#[allow(clippy::too_many_arguments)]
fn finish_row(
    queue: &'static str,
    config: &'static str,
    wl: &'static str,
    threads: usize,
    iters: usize,
    cores: usize,
    mut durs: Vec<Duration>,
    mut allocs: Vec<usize>,
    fast: Option<FastPathStats>,
    reap: Option<(u64, u64)>,
) -> Row {
    finish_row_full(
        queue,
        engine_of(queue),
        None,
        config,
        wl,
        threads,
        iters,
        cores,
        durs.split_off(0),
        allocs.split_off(0),
        fast,
        reap,
        None,
    )
}

#[allow(clippy::too_many_arguments)]
fn finish_row_full(
    queue: &'static str,
    engine: &'static str,
    capacity: Option<usize>,
    config: &'static str,
    wl: &'static str,
    threads: usize,
    iters: usize,
    cores: usize,
    mut durs: Vec<Duration>,
    mut allocs: Vec<usize>,
    fast: Option<FastPathStats>,
    reap: Option<(u64, u64)>,
    threshold_resets: Option<u64>,
) -> Row {
    let med = median(&mut durs);
    // Pairs = 2 ops per iteration; 50-50 = 1.
    let ops = (threads * iters * if wl == "pairs" { 2 } else { 1 }) as f64;
    allocs.sort();
    let med_allocs = allocs[allocs.len() / 2] as f64;
    let row = Row {
        queue,
        engine,
        capacity,
        config,
        workload: wl,
        threads,
        median_secs: med.as_secs_f64(),
        mops_per_sec: ops / med.as_secs_f64() / 1e6,
        allocs_per_op: med_allocs / ops,
        oversubscribed: threads > cores,
        fast,
        reap,
        threshold_resets,
    };
    println!(
        "{:10} {:8} {:11} t={}{}: {:>8.3} Mops/s, {:.4} allocs/op{}",
        row.queue,
        row.config,
        row.workload,
        row.threads,
        if row.oversubscribed { " (oversub)" } else { "" },
        row.mops_per_sec,
        row.allocs_per_op,
        match &row.fast {
            Some(fp) => format!(", fallback rate {:.4}", fp.fallback_rate()),
            None => String::new(),
        }
    );
    row
}
