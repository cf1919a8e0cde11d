//! `bursty`: an open loop on a channel with admission control on (a depth
//! quota a few bursts deep) and the shard-health watchdog on. One
//! producer thread sends fixed-size bursts with `send_batch` on a seeded
//! schedule around a fixed mean rate; one consumer thread awaits
//! `recv_async`, then drains with `try_recv_batch` — the shape of
//! `examples/ingest_server.rs` cut down to two threads.
//!
//! Each message's latency runs from its burst's scheduled time to the
//! moment the consumer holds it, so a stall is charged to every message
//! queued behind it. The consumer parks between bursts: latency comes
//! from the async wake path, the park registry, batched send and the
//! admission gate, while the engine does little.
//!
//! The async consumer is polled on its own thread by a waker that
//! unparks that thread; an executor with worker threads would keep more
//! threads busy than the two the workload is allowed.

use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

use kp_channel::{ChannelConfig, OverloadConfig};
use kp_queue::{WfQueue, WfQueueHp};
use wcq::WcQueue;

use crate::channel::{Core, Health};
use crate::check::{self, Seen, Verdict};
use crate::hist::Histogram;
use crate::report::{median, ratio, Report};
use crate::rng::Rng;
use crate::trace::{Clock, Spans};
use crate::window::{latency, med, settle, speed, sum, Extent, Heap, Windows};
use crate::{BurstyLoad, Run};

/// Bursts sent at the mean gap before the window opens.
const WARMUP_BURSTS: u64 = 200;
/// Most messages one `try_recv_batch` call may take.
const DRAIN_MAX: usize = 256;
/// In a traced window, the first message of one burst in this many is
/// recorded as spans.
const SPAN_EVERY_BURSTS: u64 = 4;
const SPAN_CAP: usize = 32_768;
/// Watchdog patience: the freeze oracle's ticks and wall-clock floor.
const STALL_TICKS: u32 = 4;
const MIN_STALL: Duration = Duration::from_millis(20);
/// The schedule starts this long after the window's start barrier.
const LEAD_NS: u64 = 500_000;

/// Burst send times, in nanoseconds from the window's schedule epoch:
/// gaps drawn uniformly from half to one and a half times the mean gap
/// that the fixed rate and burst size give.
fn schedule(seed: u64, rep: u64, load: &BurstyLoad, window: Duration) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ (rep + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mean = load.burst as f64 / load.rate * 1e9;
    let end = window.as_nanos() as f64;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += mean * (0.5 + rng.unit());
        if t > end {
            return out;
        }
        out.push(t as u64);
    }
}

/// Spins (sleeping through long gaps) until `due` on `clock`.
fn wait_until(clock: &Clock, due: u64) {
    loop {
        let now = clock.now();
        if now >= due {
            return;
        }
        if due - now > 300_000 {
            std::thread::sleep(Duration::from_nanos(due - now - 200_000));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A waker that stamps the time of `wake()` and unparks the polling
/// thread.
struct ThreadWaker {
    thread: Thread,
    clock: Clock,
    woken_at: AtomicU64,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.woken_at
            .store(self.clock.now().max(1), Ordering::Relaxed);
        self.thread.unpark();
    }
}

/// Drives futures on the calling thread, counting polls and timing each
/// wake-to-Ready-poll interval.
struct Poller {
    inner: Arc<ThreadWaker>,
    waker: Waker,
    polls: u64,
    pending: u64,
    wake_to_poll: Histogram,
}

impl Poller {
    fn new(clock: Clock, wake_to_poll: Histogram) -> Poller {
        let inner = Arc::new(ThreadWaker {
            thread: std::thread::current(),
            clock,
            woken_at: AtomicU64::new(0),
        });
        Poller {
            waker: Waker::from(inner.clone()),
            inner,
            polls: 0,
            pending: 0,
            wake_to_poll,
        }
    }

    fn block_on<F: Future>(&mut self, fut: F) -> F::Output {
        let mut fut = pin!(fut);
        let mut cx = Context::from_waker(&self.waker);
        self.inner.woken_at.store(0, Ordering::Relaxed);
        loop {
            self.polls += 1;
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(v) => {
                    let woken = self.inner.woken_at.swap(0, Ordering::Relaxed);
                    if woken != 0 {
                        self.wake_to_poll
                            .record(self.inner.clock.now().saturating_sub(woken));
                    }
                    return v;
                }
                Poll::Pending => {
                    self.pending += 1;
                    std::thread::park();
                }
            }
        }
    }
}

/// Consumer-side measurement state, allocated before the heap baseline.
struct Tools {
    seen: Seen,
    lat: Histogram,
    buf: Vec<u64>,
    spans: Spans,
}

#[derive(Default)]
struct Rep {
    setup_s: f64,
    mops: f64,
    msgs: u64,
    lat: Histogram,
    lateness: Histogram,
    peak_bytes: f64,
    allocs: u64,
    errors: Verdict,
    send_errors: u64,
    health: Health,
    polls: u64,
    pending: u64,
    wake_to_poll: Histogram,
    drain_calls: u64,
    drained: u64,
    depth_max: usize,
}

fn rep<C: Core>(
    run: &Run,
    r: u64,
    window: Duration,
    clock: &Clock,
    spans: &mut Spans,
    traced: bool,
) -> Rep {
    let load = run.bursty.expect("checked by parse");
    let burst = load.burst as u64;
    let sched = schedule(run.seed, r, &load, window);
    let mean_gap = (burst as f64 / load.rate * 1e9) as u64;
    settle();
    let cap = if traced { SPAN_CAP } else { 0 };
    let mut tx_spans = Spans::with_capacity(cap);
    let mut lateness = Histogram::new();
    let tools = Tools {
        seen: Seen::new(1),
        lat: Histogram::new(),
        buf: Vec::with_capacity(DRAIN_MAX),
        spans: Spans::with_capacity(cap),
    };
    let wake_to_poll = Histogram::new();
    let epoch = AtomicU64::new(0);
    // The result's histograms are allocated before the baseline too.
    let mut out = Rep::default();
    let heap = Heap::base();
    let ready = Barrier::new(3);
    let warmed = Barrier::new(3);
    let go = Barrier::new(3);
    let t0 = Instant::now();
    let overload = OverloadConfig::disabled()
        .with_depth_quota(load.quota)
        .with_watchdog(STALL_TICKS, MIN_STALL);
    let chan = C::channel(ChannelConfig::new().with_overload(overload));
    let mut extent = Extent::default();
    let warm_msgs = WARMUP_BURSTS * burst;
    std::thread::scope(|s| {
        let (chan, sched, epoch) = (&chan, &sched[..], &epoch);
        let (ready, warmed, go) = (&ready, &warmed, &go);
        let (tx_spans, lateness) = (&mut tx_spans, &mut lateness);
        let producer = s.spawn(move || {
            let r0 = clock.now();
            let mut tx = chan.sender();
            tx_spans.push("idpool.register", None, 0, r0, clock.now());
            ready.wait();
            let ready_at = Instant::now();
            let mut errors = 0u64;
            let mut depth_max = 0usize;
            let mut send = |first: u64, errors: &mut u64| match tx
                .send_batch((first..first + burst).map(|s| check::tag(0, s)))
            {
                Ok(n) => *errors += burst - n as u64,
                Err(e) => *errors += e.0.len() as u64,
            };
            let warm0 = clock.now();
            for w in 0..WARMUP_BURSTS {
                wait_until(clock, warm0 + w * mean_gap);
                send(w * burst, &mut errors);
            }
            warmed.wait();
            go.wait();
            let base = epoch.load(Ordering::Relaxed);
            let start = Instant::now();
            for (b, &at) in sched.iter().enumerate() {
                let b = b as u64;
                let due = base + at;
                wait_until(clock, due);
                let a = clock.now();
                lateness.record(a - due);
                let first = (WARMUP_BURSTS + b) * burst;
                send(first, &mut errors);
                if traced {
                    if b.is_multiple_of(SPAN_EVERY_BURSTS) {
                        tx_spans.push("kp-channel.send_batch", Some("msg"), first, a, clock.now());
                    }
                    let depth = chan
                        .health_snapshot()
                        .shards
                        .iter()
                        .filter_map(|s| s.depth)
                        .max();
                    depth_max = depth_max.max(depth.unwrap_or(0));
                }
            }
            let end = Instant::now();
            (
                (WARMUP_BURSTS + sched.len() as u64) * burst,
                errors,
                depth_max,
                ready_at,
                start,
                end,
            )
        });
        let consumer = s.spawn(move || {
            let mut tools = tools;
            let r0 = clock.now();
            let mut rx = chan.receiver();
            tools
                .spans
                .push("idpool.register", None, 1, r0, clock.now());
            let mut poller = Poller::new(*clock, wake_to_poll);
            ready.wait();
            let ready_at = Instant::now();
            let mut got = 0u64;
            while got < warm_msgs {
                let Some(v) = poller.block_on(rx.recv_async()) else {
                    break;
                };
                tools.seen.observe(v);
                got += 1;
                loop {
                    let n = rx.try_recv_batch(&mut tools.buf, DRAIN_MAX);
                    got += n as u64;
                    tools.buf.drain(..).for_each(|v| tools.seen.observe(v));
                    if n == 0 {
                        break;
                    }
                }
            }
            warmed.wait();
            go.wait();
            let base = epoch.load(Ordering::Relaxed);
            let (polls0, pending0) = (poller.polls, poller.pending);
            poller.wake_to_poll.clear();
            let (mut calls, mut drained) = (0u64, 0u64);
            let start = Instant::now();
            let take = |tools: &mut Tools, v: u64, a: u64, now: u64, call: &'static str| {
                tools.seen.observe(v);
                let seq = check::seq(v);
                if seq < warm_msgs {
                    return;
                }
                let b = seq / burst - WARMUP_BURSTS;
                let Some(&at) = sched.get(b as usize) else {
                    return;
                };
                let due = base + at;
                tools.lat.record(now.saturating_sub(due));
                if traced && seq.is_multiple_of(burst) && b.is_multiple_of(SPAN_EVERY_BURSTS) {
                    tools.spans.push(call, Some("msg"), seq, a, now);
                    tools.spans.push("msg", None, seq, due, now);
                }
            };
            loop {
                let a = if traced { clock.now() } else { 0 };
                let Some(v) = poller.block_on(rx.recv_async()) else {
                    break;
                };
                take(&mut tools, v, a, clock.now(), "kp-channel.recv_async");
                got += 1;
                loop {
                    let a = if traced { clock.now() } else { 0 };
                    let n = rx.try_recv_batch(&mut tools.buf, DRAIN_MAX);
                    let now = clock.now();
                    calls += 1;
                    drained += n as u64;
                    got += n as u64;
                    let mut buf = std::mem::take(&mut tools.buf);
                    for v in buf.drain(..) {
                        take(&mut tools, v, a, now, "kp-channel.try_recv_batch");
                    }
                    tools.buf = buf;
                    if n == 0 {
                        break;
                    }
                }
            }
            let end = Instant::now();
            let async_counts = (
                poller.polls - polls0,
                poller.pending - pending0,
                poller.wake_to_poll,
            );
            (
                tools,
                got,
                async_counts,
                calls,
                drained,
                ready_at,
                start,
                end,
            )
        });
        ready.wait();
        warmed.wait();
        let h0 = Health::of(&chan.health_snapshot());
        let allocs0 = alloc_track::total_allocs();
        epoch.store(clock.now() + LEAD_NS, Ordering::Relaxed);
        Heap::open_window();
        go.wait();
        let (sent, send_errors, depth_max, p_ready, p_start, p_end) =
            producer.join().expect("producer panicked");
        let (tools, got, (polls, pending, wake_to_poll), calls, drained, c_ready, c_start, c_end) =
            consumer.join().expect("consumer panicked");
        out.peak_bytes = heap.peak() as f64;
        out.allocs = (alloc_track::total_allocs() - allocs0) as u64;
        out.health = h0.until(&Health::of(&chan.health_snapshot()));
        extent.add(p_start, p_end);
        extent.add(c_start, c_end);
        out.msgs = got.saturating_sub(warm_msgs);
        out.send_errors = send_errors;
        out.depth_max = depth_max;
        out.errors = check::verify(&[sent], std::slice::from_ref(&tools.seen));
        out.setup_s = p_ready
            .min(c_ready)
            .saturating_duration_since(t0)
            .as_secs_f64();
        out.polls = polls;
        out.pending = pending;
        out.wake_to_poll = wake_to_poll;
        out.drain_calls = calls;
        out.drained = drained;
        out.lat = tools.lat;
        spans.absorb(tools.spans);
    });
    drop(chan);
    spans.absorb(tx_spans);
    out.lateness = lateness;
    out.mops = out.msgs as f64 / extent.secs() / 1e6;
    out
}

fn pooled(reps: &[Rep], f: impl Fn(&Rep) -> &Histogram) -> Histogram {
    let mut h = Histogram::new();
    reps.iter().for_each(|r| h.merge(f(r)));
    h
}

pub fn run(run: &Run, report: &mut Report) {
    const ROUNDS: u64 = 20;
    let rounds = if run.trace { 2 * ROUNDS } else { ROUNDS };
    let window = Duration::from_secs_f64(run.seconds / (3 * rounds) as f64);
    let clock = Clock::new();
    let (mut kp, mut hp, mut wq) = (Windows::default(), Windows::default(), Windows::default());
    let mut spans = Spans::with_capacity(0);
    let mut scratch = Spans::with_capacity(0);
    let mut setups = Vec::new();
    for r in 0..rounds {
        let traced = run.trace && r % 2 == 1;
        // Each round draws its own schedule from the seed; the three
        // cores of a round see the same one.
        let a = rep::<WfQueue<u64>>(run, r, window, &clock, &mut spans, traced);
        let b = rep::<WfQueueHp<u64>>(run, r, window, &clock, &mut scratch, false);
        let c = rep::<WcQueue<u64>>(run, r, window, &clock, &mut scratch, false);
        setups.push(a.setup_s + b.setup_s + c.setup_s);
        kp.push(a, traced);
        hp.push(b, false);
        wq.push(c, false);
    }

    let mut errors = Verdict::default();
    let mut send_errors = 0;
    for s in [&kp, &hp, &wq] {
        for r in s.all() {
            errors.add(r.errors);
            send_errors += r.send_errors;
            report.attempted += r.msgs;
        }
    }
    report.failed = errors.errors() + send_errors;
    report.note(format!(
        "check: lost={} duplicated={} reordered={} send_errors={}",
        errors.lost, errors.duplicated, errors.reordered, send_errors
    ));

    let p = &kp.plain;
    let mops = |r: &Rep| r.mops;
    report.e2e("throughput_mops", speed(p, mops), "Mops/s");
    report.e2e("throughput_hp_mops", speed(&hp.plain, mops), "Mops/s");
    report.e2e("throughput_wcq_mops", speed(&wq.plain, mops), "Mops/s");
    report.e2e(
        "latency_p50_us",
        latency(p, |r| r.lat.quantile(0.5) / 1e3),
        "us",
    );
    report.e2e(
        "peak_heap_mib",
        med(p, |r| r.peak_bytes / (1 << 20) as f64),
        "MiB",
    );
    report.e2e("setup_s", median(&setups), "s");
    report.note_latency(
        "Channel::kp schedule-to-receive latency",
        &pooled(p, |r| &r.lat),
        1e3,
        "us",
    );
    report.note_latency(
        "Channel::kp over hazard pointers, same",
        &pooled(&hp.plain, |r| &r.lat),
        1e3,
        "us",
    );
    report.note_latency(
        "Channel::wcq, same",
        &pooled(&wq.plain, |r| &r.lat),
        1e3,
        "us",
    );
    let lateness = pooled(p, |r| &r.lateness);
    report.note_latency("generator lateness per burst", &lateness, 1e3, "us");

    if !run.trace {
        return;
    }
    let t = &kp.traced;
    let msgs = sum(t, |r| r.msgs as f64);
    let mut h = Health::default();
    t.iter().for_each(|r| h.add(&r.health));
    let polls = sum(t, |r| r.polls as f64);
    let wake = pooled(t, |r| &r.wake_to_poll);
    report.layer(
        "kp-channel.send_batch_ns_p50",
        spans.durations("kp-channel.send_batch").quantile(0.5),
        "ns",
    );
    report.layer(
        "kp-channel.drain_fill",
        ratio(
            sum(t, |r| r.drained as f64),
            sum(t, |r| r.drain_calls as f64),
        ),
        "count",
    );
    report.layer(
        "kp-channel.park.rx_parks_per_msg",
        ratio(h.rx_parks as f64, msgs),
        "ratio",
    );
    report.layer(
        "kp-channel.park.rx_wakes_per_park",
        ratio(h.rx_wakes as f64, h.rx_parks as f64),
        "ratio",
    );
    report.layer(
        "kp-channel.park.tx_parks_per_msg",
        ratio(h.tx_parks as f64, msgs),
        "ratio",
    );
    report.layer(
        "kp-channel.async.polls_per_msg",
        ratio(polls, msgs),
        "ratio",
    );
    report.layer(
        "kp-channel.async.pending_share",
        ratio(sum(t, |r| r.pending as f64), polls),
        "ratio",
    );
    report.layer(
        "kp-channel.async.wake_to_poll_us_p50",
        wake.quantile(0.5) / 1e3,
        "us",
    );
    report.layer(
        "kp-channel.async.wake_to_poll_us_p99",
        wake.quantile(0.99) / 1e3,
        "us",
    );
    report.layer(
        "kp-channel.overload.depth_max",
        t.iter().map(|r| r.depth_max).max().unwrap_or(0) as f64,
        "count",
    );
    report.layer(
        "kp-channel.overload.quarantines",
        h.quarantines as f64,
        "count",
    );
    report.layer("kp-channel.overload.probes", h.probes as f64, "count");
    report.layer(
        "generator.lateness_us_p50",
        lateness.quantile(0.5) / 1e3,
        "us",
    );
    report.layer(
        "generator.lateness_us_p99",
        lateness.quantile(0.99) / 1e3,
        "us",
    );
    report.layer(
        "idpool.register_us",
        spans.durations("idpool.register").quantile(0.5) / 1e3,
        "us",
    );
    report.layer(
        "alloc.allocs_per_msg",
        ratio(sum(t, |r| r.allocs as f64), msgs),
        "ratio",
    );
    report.layer(
        "alloc.peak_heap_mib",
        med(t, |r| r.peak_bytes / (1 << 20) as f64),
        "MiB",
    );
    report.layer(
        "trace.root_self_ns_p50",
        spans.self_times("msg").quantile(0.5),
        "ns",
    );
    let p50 = |r: &Rep| r.lat.quantile(0.5);
    report.layer(
        "trace.overhead",
        latency(t, p50) / latency(p, p50) - 1.0,
        "ratio",
    );
    crate::write_spans(run, &spans, report);
}
