//! `pairs`: the paper's Figure 7 workload. A closed loop of two worker
//! threads, each running `enqueue; dequeue` through its own registered
//! handle on one shared engine that starts empty. A run cycles through
//! three engines round by round: Kogan–Petrank on epochs and on hazard
//! pointers, both with `Config::fast()`, and wCQ.
//!
//! Every dequeue must return a value: each thread enqueues before it
//! dequeues, so the queue holds at least one value whenever a dequeue
//! linearizes. An empty dequeue is counted as an error.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use kp_queue::{Config, StatsSnapshot, WfQueue, WfQueueHp};
use queue_traits::{ConcurrentQueue, FastPathStats, QueueHandle};
use wcq::WcQueue;

use crate::check::{self, Seen, Verdict};
use crate::hist::Histogram;
use crate::report::{median, ratio, Report};
use crate::trace::{Clock, Spans};
use crate::window::{latency, med, settle, speed, sum, Extent, Heap, Windows};
use crate::Run;

const THREADS: usize = 2;
/// Pairs each thread runs before the window opens.
const WARMUP_PAIRS: u64 = 50_000;
/// Pairs between two reads of the clock; the first pair of each chunk is
/// timed for the latency metrics.
const CHUNK: u64 = 64;
/// In a traced window, one timed pair in this many is also recorded as
/// spans.
const SPAN_EVERY_CHUNKS: u64 = 16;
const SPAN_CAP: usize = 4096;

/// An engine under test, with its statistics surfaces.
trait Engine: ConcurrentQueue<u64> {
    const ENQ: &'static str;
    const DEQ: &'static str;
    fn build() -> Self;
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }
    fn threshold_resets(&self) -> u64 {
        0
    }
    fn reclaimed(_h: &Self::Handle<'_>) -> u64 {
        0
    }
}

impl Engine for WfQueue<u64> {
    const ENQ: &'static str = "kp-queue.enqueue";
    const DEQ: &'static str = "kp-queue.dequeue";
    fn build() -> Self {
        WfQueue::with_config(THREADS, Config::fast())
    }
    fn stats(&self) -> StatsSnapshot {
        WfQueue::stats(self)
    }
}

impl Engine for WfQueueHp<u64> {
    const ENQ: &'static str = "kp-queue.hp.enqueue";
    const DEQ: &'static str = "kp-queue.hp.dequeue";
    fn build() -> Self {
        WfQueueHp::with_config(THREADS, Config::fast())
    }
    fn stats(&self) -> StatsSnapshot {
        WfQueueHp::stats(self)
    }
    fn reclaimed(h: &Self::Handle<'_>) -> u64 {
        h.reclaimed() as u64
    }
}

impl Engine for WcQueue<u64> {
    const ENQ: &'static str = "wcq.enqueue";
    const DEQ: &'static str = "wcq.dequeue";
    fn build() -> Self {
        WcQueue::new(THREADS)
    }
    fn threshold_resets(&self) -> u64 {
        WcQueue::threshold_resets(self)
    }
}

/// Per-thread measurement state, allocated before the heap baseline.
struct Tools {
    seen: Seen,
    lat: Histogram,
    spans: Spans,
}

struct Done {
    tools: Tools,
    sent: u64,
    ops: u64,
    empties: u64,
    ready: Instant,
    start: Instant,
    end: Instant,
    fast: FastPathStats,
    reclaimed: u64,
}

/// One window on one engine.
#[derive(Default)]
struct Rep {
    setup_s: f64,
    mops: f64,
    ops: u64,
    lat: Histogram,
    peak_bytes: f64,
    allocs: u64,
    errors: Verdict,
    empties: u64,
    fast: FastPathStats,
    reclaimed: u64,
    stats: StatsSnapshot,
    resets: u64,
}

fn delta(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        enqueues: b.enqueues - a.enqueues,
        dequeues: b.dequeues - a.dequeues,
        helped_appends: b.helped_appends - a.helped_appends,
        helped_locks: b.helped_locks - a.helped_locks,
        help_calls: b.help_calls - a.help_calls,
        node_allocs: b.node_allocs - a.node_allocs,
        node_reuses: b.node_reuses - a.node_reuses,
        cache_overflows: b.cache_overflows - a.cache_overflows,
        ..StatsSnapshot::default()
    }
}

fn fast_delta(a: &FastPathStats, b: &FastPathStats) -> FastPathStats {
    FastPathStats {
        fast_completions: b.fast_completions - a.fast_completions,
        fast_exhaustions: b.fast_exhaustions - a.fast_exhaustions,
        fast_starvation_demotions: b.fast_starvation_demotions - a.fast_starvation_demotions,
        slow_ops: b.slow_ops - a.slow_ops,
    }
}

fn rep<E: Engine>(window: Duration, clock: &Clock, spans: &mut Spans, traced: bool) -> Rep {
    settle();
    let tools: Vec<Tools> = (0..THREADS)
        .map(|_| Tools {
            seen: Seen::new(THREADS),
            lat: Histogram::new(),
            spans: Spans::with_capacity(if traced { SPAN_CAP } else { 0 }),
        })
        .collect();
    // The result's histograms are allocated before the baseline too.
    let mut out = Rep::default();
    let heap = Heap::base();
    let ready = Barrier::new(THREADS + 1);
    let warmed = Barrier::new(THREADS + 1);
    let go = Barrier::new(THREADS + 1);
    let t0 = Instant::now();
    let q = E::build();
    let mut extent = Extent::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = tools
            .into_iter()
            .enumerate()
            .map(|(t, mut tools)| {
                let (q, ready, warmed, go) = (&q, &ready, &warmed, &go);
                s.spawn(move || {
                    let r0 = clock.now();
                    let mut h = q.register().expect("two handles fit");
                    let r1 = clock.now();
                    tools.spans.push("idpool.register", None, t as u64, r0, r1);
                    ready.wait();
                    let ready_at = Instant::now();
                    let mut seq = 0u64;
                    let mut empties = 0u64;
                    for _ in 0..WARMUP_PAIRS {
                        h.enqueue(check::tag(t, seq));
                        seq += 1;
                        match h.dequeue() {
                            Some(v) => tools.seen.observe(v),
                            None => empties += 1,
                        }
                    }
                    warmed.wait();
                    go.wait();
                    let fast0 = h.fast_path_stats().unwrap_or_default();
                    let rec0 = E::reclaimed(&h);
                    let start = Instant::now();
                    let deadline = start + window;
                    let mut chunks = 0u64;
                    loop {
                        let v = check::tag(t, seq);
                        seq += 1;
                        let got = if traced && chunks.is_multiple_of(SPAN_EVERY_CHUNKS) {
                            let a = clock.now();
                            h.enqueue(v);
                            let b = clock.now();
                            let got = h.dequeue();
                            let c = clock.now();
                            tools.spans.push(E::ENQ, Some("pair"), v, a, b);
                            tools.spans.push(E::DEQ, Some("pair"), v, b, c);
                            tools.spans.push("pair", None, v, a, c);
                            tools.lat.record(c - a);
                            got
                        } else {
                            let a = Instant::now();
                            h.enqueue(v);
                            let got = h.dequeue();
                            tools.lat.record(a.elapsed().as_nanos() as u64);
                            got
                        };
                        match got {
                            Some(v) => tools.seen.observe(v),
                            None => empties += 1,
                        }
                        for _ in 1..CHUNK {
                            h.enqueue(check::tag(t, seq));
                            seq += 1;
                            match h.dequeue() {
                                Some(v) => tools.seen.observe(v),
                                None => empties += 1,
                            }
                        }
                        chunks += 1;
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    let end = Instant::now();
                    let fast = fast_delta(&fast0, &h.fast_path_stats().unwrap_or_default());
                    let reclaimed = E::reclaimed(&h) - rec0;
                    Done {
                        tools,
                        sent: seq,
                        ops: 2 * CHUNK * chunks,
                        empties,
                        ready: ready_at,
                        start,
                        end,
                        fast,
                        reclaimed,
                    }
                })
            })
            .collect();
        ready.wait();
        warmed.wait();
        let stats0 = q.stats();
        let resets0 = q.threshold_resets();
        let allocs0 = alloc_track::total_allocs();
        Heap::open_window();
        go.wait();
        let mut seen = Vec::new();
        let mut sent = Vec::new();
        let mut ready_at: Option<Instant> = None;
        for w in workers {
            let d = w.join().expect("pairs worker panicked");
            ready_at = Some(ready_at.map_or(d.ready, |r| r.min(d.ready)));
            extent.add(d.start, d.end);
            out.ops += d.ops;
            out.empties += d.empties;
            out.fast.merge(&d.fast);
            out.reclaimed += d.reclaimed;
            out.lat.merge(&d.tools.lat);
            spans.absorb(d.tools.spans);
            seen.push(d.tools.seen);
            sent.push(d.sent);
        }
        out.peak_bytes = heap.peak() as f64;
        out.allocs = (alloc_track::total_allocs() - allocs0) as u64;
        out.stats = delta(&stats0, &q.stats());
        out.resets = q.threshold_resets() - resets0;
        out.errors = check::verify(&sent, &seen);
        out.setup_s = ready_at
            .expect("workers ran")
            .saturating_duration_since(t0)
            .as_secs_f64();
    });
    drop(q);
    out.mops = out.ops as f64 / extent.secs() / 1e6;
    out
}

pub fn run(run: &Run, report: &mut Report) {
    // Rounds of three windows, one per engine. A traced run alternates
    // untraced and traced rounds, so that the untraced half gives the
    // end-to-end values `trace.overhead` is taken against.
    const ROUNDS: usize = 20;
    let rounds = if run.trace { 2 * ROUNDS } else { ROUNDS };
    let window = Duration::from_secs_f64(run.seconds / (3 * rounds) as f64);
    let clock = Clock::new();
    let (mut kp, mut hp, mut wq) = (Windows::default(), Windows::default(), Windows::default());
    let mut span_bufs: [Spans; 3] = std::array::from_fn(|_| Spans::with_capacity(0));
    let mut setups = Vec::new();
    let mut peaks = Vec::new();
    for r in 0..rounds {
        let traced = run.trace && r % 2 == 1;
        let a = rep::<WfQueue<u64>>(window, &clock, &mut span_bufs[0], traced);
        let b = rep::<WfQueueHp<u64>>(window, &clock, &mut span_bufs[1], traced);
        let c = rep::<WcQueue<u64>>(window, &clock, &mut span_bufs[2], traced);
        if !traced {
            peaks.push(a.peak_bytes.max(b.peak_bytes).max(c.peak_bytes) / (1 << 20) as f64);
        }
        setups.push(a.setup_s + b.setup_s + c.setup_s);
        kp.push(a, traced);
        hp.push(b, traced);
        wq.push(c, traced);
    }
    let [kp_spans, hp_spans, wq_spans] = span_bufs;

    let mut errors = Verdict::default();
    let mut empties = 0;
    for s in [&kp, &hp, &wq] {
        for r in s.all() {
            errors.add(r.errors);
            empties += r.empties;
            report.attempted += r.ops;
        }
    }
    report.failed = errors.errors() + empties;
    report.note(format!(
        "check: lost={} duplicated={} reordered={} empty_dequeues={}",
        errors.lost, errors.duplicated, errors.reordered, empties
    ));

    let mops = |r: &Rep| r.mops;
    report.e2e("throughput_mops", speed(&kp.plain, mops), "Mops/s");
    report.e2e("throughput_hp_mops", speed(&hp.plain, mops), "Mops/s");
    report.e2e("throughput_wcq_mops", speed(&wq.plain, mops), "Mops/s");
    report.e2e(
        "latency_p50_us",
        latency(&kp.plain, |r| r.lat.quantile(0.5) / 1e3),
        "us",
    );
    // The largest of the three engines' footprints. The epoch engine's
    // own peak swings several-fold between windows with the timing of
    // epoch advances, so it is a per-layer number here.
    report.e2e("peak_heap_mib", median(&peaks), "MiB");
    report.e2e("setup_s", median(&setups), "s");
    let mut pooled = Histogram::new();
    kp.plain.iter().for_each(|r| pooled.merge(&r.lat));
    report.note_latency(
        "kp-queue enqueue+dequeue pair latency (sampled)",
        &pooled,
        1e3,
        "us",
    );

    if !run.trace {
        return;
    }
    // Per-layer metrics, from the traced rounds.
    let t = &kp.traced;
    let spans = &kp_spans;
    let ops = sum(t, |r| r.ops as f64);
    let enq = sum(t, |r| r.stats.enqueues as f64);
    let fast = t.iter().fold(FastPathStats::default(), |mut f, r| {
        f.merge(&r.fast);
        f
    });
    report.layer(
        "kp-queue.enqueue_ns_p50",
        spans.durations("kp-queue.enqueue").quantile(0.5),
        "ns",
    );
    report.layer(
        "kp-queue.enqueue_ns_p99",
        spans.durations("kp-queue.enqueue").quantile(0.99),
        "ns",
    );
    report.layer(
        "kp-queue.dequeue_ns_p50",
        spans.durations("kp-queue.dequeue").quantile(0.5),
        "ns",
    );
    report.layer(
        "kp-queue.dequeue_ns_p99",
        spans.durations("kp-queue.dequeue").quantile(0.99),
        "ns",
    );
    report.layer("kp-queue.fallback_rate", fast.fallback_rate(), "ratio");
    report.layer(
        "kp-queue.slow_ops_per_op",
        ratio(fast.slow_ops as f64, ops),
        "ratio",
    );
    report.layer(
        "kp-queue.helped_fraction",
        ratio(
            sum(t, |r| {
                (r.stats.helped_appends + r.stats.helped_locks) as f64
            }),
            ops,
        ),
        "ratio",
    );
    report.layer(
        "kp-queue.help_calls_per_op",
        ratio(sum(t, |r| r.stats.help_calls as f64), ops),
        "ratio",
    );
    report.layer(
        "kp-queue.node_allocs_per_enqueue",
        ratio(sum(t, |r| r.stats.node_allocs as f64), enq),
        "ratio",
    );
    report.layer(
        "kp-queue.node_reuses_per_enqueue",
        ratio(sum(t, |r| r.stats.node_reuses as f64), enq),
        "ratio",
    );
    report.layer(
        "kp-queue.cache_overflows",
        sum(t, |r| r.stats.cache_overflows as f64),
        "count",
    );
    report.layer(
        "alloc.peak_heap_mib",
        med(t, |r| r.peak_bytes / (1 << 20) as f64),
        "MiB",
    );
    report.layer(
        "trace.root_self_ns_p50",
        spans.self_times("pair").quantile(0.5),
        "ns",
    );

    let th = &hp.traced;
    let hp_fast = th.iter().fold(FastPathStats::default(), |mut f, r| {
        f.merge(&r.fast);
        f
    });
    report.layer(
        "kp-queue.hp.enqueue_ns_p50",
        hp_spans.durations("kp-queue.hp.enqueue").quantile(0.5),
        "ns",
    );
    report.layer(
        "kp-queue.hp.dequeue_ns_p50",
        hp_spans.durations("kp-queue.hp.dequeue").quantile(0.5),
        "ns",
    );
    report.layer(
        "kp-queue.hp.fallback_rate",
        hp_fast.fallback_rate(),
        "ratio",
    );
    report.layer(
        "hazard.reclaimed_per_op",
        ratio(sum(th, |r| r.reclaimed as f64), sum(th, |r| r.ops as f64)),
        "ratio",
    );

    report.layer(
        "wcq.enqueue_ns_p50",
        wq_spans.durations("wcq.enqueue").quantile(0.5),
        "ns",
    );
    report.layer(
        "wcq.dequeue_ns_p50",
        wq_spans.durations("wcq.dequeue").quantile(0.5),
        "ns",
    );
    report.layer(
        "wcq.threshold_resets",
        sum(&wq.traced, |r| r.resets as f64),
        "count",
    );

    let mut all_spans = Spans::with_capacity(0);
    for s in [kp_spans, hp_spans, wq_spans] {
        all_spans.absorb(s);
    }
    let registers = all_spans.durations("idpool.register");
    report.layer("idpool.register_us", registers.quantile(0.5) / 1e3, "us");
    report.layer(
        "alloc.allocs_per_msg",
        ratio(sum(t, |r| r.allocs as f64), ops),
        "ratio",
    );
    report.layer(
        "trace.overhead",
        speed(&kp.plain, mops) / speed(&kp.traced, mops) - 1.0,
        "ratio",
    );
    crate::write_spans(run, &all_spans, report);
}
