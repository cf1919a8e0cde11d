//! `stream`: one producer thread calling scalar `send` and one consumer
//! thread calling scalar `recv` on a channel with the default
//! `ChannelConfig` (one shard, overload control off). The scalar channel
//! path does the work, with the cross-thread node hand-off (the producer
//! allocates, the consumer retires).
//!
//! It is a closed loop: the producer never runs more than `CREDIT`
//! messages ahead of the consumer. The consumer handles each message with
//! a fixed amount of work, so it is reliably the slower side and the
//! backlog stays full. A run cycles through three channel cores round by
//! round: `Channel::kp`, the same channel over the hazard-pointer engine,
//! and `Channel::wcq`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use kp_channel::{ChannelConfig, Sender};
use kp_queue::{WfQueue, WfQueueHp};
use wcq::WcQueue;

use crate::channel::{Core, Health};
use crate::check::{self, Seen, Verdict};
use crate::hist::Histogram;
use crate::report::{median, ratio, Report};
use crate::trace::{Clock, Spans};
use crate::window::{latency, med, settle, speed, sum, Extent, Heap, Windows};
use crate::Run;

const WARMUP_MSGS: u64 = 50_000;
/// Messages the producer may run ahead of the consumer.
const CREDIT: u64 = 256;
/// The consumer's fixed work per message, in multiply-xorshift rounds
/// (a few cycles each). Without it the two sides cost about the same, and
/// a window settles at random into one of two regimes: a backlog that
/// never empties, or a consumer that parks after almost every message
/// while the producer pays a wake for each one. Their throughputs differ
/// by up to four times, and the second drifts with the host's wake-up
/// latency. With the work, every window runs in the first regime.
const WORK_ROUNDS: u32 = 200;
/// The consumer publishes its count every this many messages.
const CREDIT_STRIDE: u64 = 64;
/// One message in this many is stamped at send for the latency metrics.
const STAMP_EVERY: u64 = 64;
/// In a traced window, one stamped message in this many is also recorded
/// as spans.
const SPAN_EVERY_STAMPS: u64 = 4;
const SPAN_CAP: usize = 16_384;
/// Messages per second no core reaches; sizes the send-stamp table.
const MAX_RATE: f64 = 50e6;

#[derive(Default)]
struct Rep {
    setup_s: f64,
    mops: f64,
    msgs: u64,
    sent: u64,
    lat: Histogram,
    peak_bytes: f64,
    allocs: u64,
    errors: Verdict,
    send_errors: u64,
    health: Health,
}

struct Producer<'c, 'a, C: Core> {
    tx: Sender<'a, u64, C>,
    stamps: &'c [AtomicU64],
    consumed: &'c AtomicU64,
    credit: u64,
    seq: u64,
    errors: u64,
}

impl<C: Core> Producer<'_, '_, C> {
    #[inline]
    fn send_next(&mut self, clock: &Clock, spans: &mut Spans, traced: bool) {
        let seq = self.seq;
        if seq - self.credit >= CREDIT {
            let mut spins = 0u32;
            loop {
                self.credit = self.consumed.load(Ordering::Acquire);
                if seq - self.credit < CREDIT {
                    break;
                }
                spins += 1;
                if spins.is_multiple_of(1024) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        let v = check::tag(0, seq);
        let sent = if seq.is_multiple_of(STAMP_EVERY) {
            let a = clock.now();
            self.stamps[(seq / STAMP_EVERY) as usize].store(a, Ordering::Relaxed);
            let r = self.tx.send(v);
            if traced && (seq / STAMP_EVERY).is_multiple_of(SPAN_EVERY_STAMPS) {
                spans.push("kp-channel.send", Some("msg"), seq, a, clock.now());
            }
            r
        } else {
            self.tx.send(v)
        };
        if sent.is_err() {
            self.errors += 1;
        }
        self.seq += 1;
    }
}

/// The consumer's stand-in for handling a message.
#[inline]
fn handle_message(v: u64) -> u64 {
    let mut x = v;
    for _ in 0..WORK_ROUNDS {
        x ^= x >> 31;
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    x
}

fn rep<C: Core>(window: Duration, clock: &Clock, spans: &mut Spans, traced: bool) -> Rep {
    settle();
    let slots = ((window.as_secs_f64() * MAX_RATE) as u64 + WARMUP_MSGS) / STAMP_EVERY + 1;
    let stamps: Vec<AtomicU64> = (0..slots).map(|_| AtomicU64::new(0)).collect();
    let consumed = AtomicU64::new(0);
    let cap = if traced { SPAN_CAP } else { 0 };
    let (mut tx_spans, mut rx_spans) = (Spans::with_capacity(cap), Spans::with_capacity(cap));
    let mut seen = Seen::new(1);
    let mut lat = Histogram::new();
    // The result's histograms are allocated before the baseline too.
    let mut out = Rep::default();
    let heap = Heap::base();
    let ready = Barrier::new(3);
    let warmed = Barrier::new(3);
    let go = Barrier::new(3);
    let t0 = Instant::now();
    let chan = C::channel(ChannelConfig::new());
    let mut extent = Extent::default();
    std::thread::scope(|s| {
        let (chan, stamps, consumed) = (&chan, &stamps[..], &consumed);
        let (ready, warmed, go) = (&ready, &warmed, &go);
        let tx_spans = &mut tx_spans;
        let producer = s.spawn(move || {
            let r0 = clock.now();
            let tx = chan.sender();
            tx_spans.push("idpool.register", None, 0, r0, clock.now());
            let mut p = Producer {
                tx,
                stamps,
                consumed,
                credit: 0,
                seq: 0,
                errors: 0,
            };
            ready.wait();
            let ready_at = Instant::now();
            while p.seq < WARMUP_MSGS {
                p.send_next(clock, tx_spans, false);
            }
            warmed.wait();
            go.wait();
            let start = Instant::now();
            let deadline = start + window;
            loop {
                for _ in 0..64 {
                    p.send_next(clock, tx_spans, traced);
                }
                if Instant::now() >= deadline {
                    break;
                }
            }
            let end = Instant::now();
            // Dropping the only sender disconnects the channel: the
            // consumer drains the backlog and stops.
            (p.seq, p.errors, ready_at, start, end)
        });
        let (seen, lat, rx_spans) = (&mut seen, &mut lat, &mut rx_spans);
        let consumer = s.spawn(move || {
            let r0 = clock.now();
            let mut rx = chan.receiver();
            rx_spans.push("idpool.register", None, 1, r0, clock.now());
            ready.wait();
            let ready_at = Instant::now();
            let mut got = 0u64;
            let mut take = |v: u64, got: &mut u64| {
                seen.observe(v);
                *got += 1;
                if (*got).is_multiple_of(CREDIT_STRIDE) {
                    consumed.store(*got, Ordering::Release);
                }
            };
            while got < WARMUP_MSGS {
                match rx.recv() {
                    Ok(v) => take(v, &mut got),
                    Err(_) => break,
                }
            }
            warmed.wait();
            go.wait();
            let mut work = 0u64;
            let start = Instant::now();
            loop {
                let a = if traced { clock.now() } else { 0 };
                let Ok(v) = rx.recv() else { break };
                let seq = check::seq(v);
                let stamped = seq.is_multiple_of(STAMP_EVERY) && seq >= WARMUP_MSGS;
                let stamp = stamps.get((seq / STAMP_EVERY) as usize);
                if let Some(stamp) = stamp.filter(|_| stamped) {
                    let b = clock.now();
                    let sent_at = stamp.load(Ordering::Relaxed);
                    lat.record(b.saturating_sub(sent_at));
                    if traced && (seq / STAMP_EVERY).is_multiple_of(SPAN_EVERY_STAMPS) {
                        rx_spans.push("kp-channel.recv", Some("msg"), seq, a, b);
                        rx_spans.push("msg", None, seq, sent_at, b);
                    }
                }
                work = work.wrapping_add(handle_message(v));
                take(v, &mut got);
            }
            std::hint::black_box(work);
            (got, ready_at, start, Instant::now())
        });
        ready.wait();
        warmed.wait();
        let h0 = Health::of(&chan.health_snapshot());
        let allocs0 = alloc_track::total_allocs();
        Heap::open_window();
        go.wait();
        let (sent, send_errors, p_ready, p_start, p_end) =
            producer.join().expect("producer panicked");
        let (got, c_ready, c_start, c_end) = consumer.join().expect("consumer panicked");
        out.peak_bytes = heap.peak() as f64;
        out.allocs = (alloc_track::total_allocs() - allocs0) as u64;
        out.health = h0.until(&Health::of(&chan.health_snapshot()));
        extent.add(p_start, p_end);
        extent.add(c_start, c_end);
        out.msgs = got.saturating_sub(WARMUP_MSGS);
        out.send_errors = send_errors;
        out.sent = sent;
        out.setup_s = p_ready
            .min(c_ready)
            .saturating_duration_since(t0)
            .as_secs_f64();
    });
    drop(chan);
    out.errors = check::verify(&[out.sent], std::slice::from_ref(&seen));
    spans.absorb(tx_spans);
    spans.absorb(rx_spans);
    out.lat = lat;
    out.mops = out.msgs as f64 / extent.secs() / 1e6;
    out
}

pub fn run(run: &Run, report: &mut Report) {
    const ROUNDS: usize = 20;
    let rounds = if run.trace { 2 * ROUNDS } else { ROUNDS };
    let window = Duration::from_secs_f64(run.seconds / (3 * rounds) as f64);
    let clock = Clock::new();
    let (mut kp, mut hp, mut wq) = (Windows::default(), Windows::default(), Windows::default());
    let mut spans = Spans::with_capacity(0);
    let mut scratch = Spans::with_capacity(0);
    let mut setups = Vec::new();
    for r in 0..rounds {
        let traced = run.trace && r % 2 == 1;
        // Only the `Channel::kp` core is traced; the per-layer metrics
        // describe it.
        let a = rep::<WfQueue<u64>>(window, &clock, &mut spans, traced);
        let b = rep::<WfQueueHp<u64>>(window, &clock, &mut scratch, false);
        let c = rep::<WcQueue<u64>>(window, &clock, &mut scratch, false);
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

    let mops = |r: &Rep| r.mops;
    report.e2e("throughput_mops", speed(&kp.plain, mops), "Mops/s");
    report.e2e("throughput_hp_mops", speed(&hp.plain, mops), "Mops/s");
    report.e2e("throughput_wcq_mops", speed(&wq.plain, mops), "Mops/s");
    report.e2e(
        "latency_p50_us",
        latency(&kp.plain, |r| r.lat.quantile(0.5) / 1e3),
        "us",
    );
    report.e2e(
        "peak_heap_mib",
        med(&kp.plain, |r| r.peak_bytes / (1 << 20) as f64),
        "MiB",
    );
    report.e2e("setup_s", median(&setups), "s");
    let mut pooled = Histogram::new();
    kp.plain.iter().for_each(|r| pooled.merge(&r.lat));
    report.note_latency(
        "Channel::kp send-to-receive latency (sampled)",
        &pooled,
        1e3,
        "us",
    );
    let mut parks = Health::default();
    kp.plain.iter().for_each(|r| parks.add(&r.health));
    report.note(format!(
        "Channel::kp parks over {} windows: rx_parks={} rx_wakes={} tx_parks={}",
        kp.plain.len(),
        parks.rx_parks,
        parks.rx_wakes,
        parks.tx_parks
    ));

    if !run.trace {
        return;
    }
    let t = &kp.traced;
    let msgs = sum(t, |r| r.msgs as f64);
    let mut h = Health::default();
    t.iter().for_each(|r| h.add(&r.health));
    let send = spans.durations("kp-channel.send");
    let recv = spans.durations("kp-channel.recv");
    report.layer("kp-channel.send_ns_p50", send.quantile(0.5), "ns");
    report.layer("kp-channel.send_ns_p99", send.quantile(0.99), "ns");
    report.layer("kp-channel.recv_ns_p50", recv.quantile(0.5), "ns");
    report.layer("kp-channel.recv_ns_p99", recv.quantile(0.99), "ns");
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
    report.layer(
        "trace.overhead",
        speed(&kp.plain, mops) / speed(t, mops) - 1.0,
        "ratio",
    );
    crate::write_spans(run, &spans, report);
}
