//! In-crate functional tests: trait conformance via the shared
//! `queue_traits::testing` helpers, plus the typed full/empty boundary
//! behavior that is specific to this bounded engine.

use std::sync::Barrier;

use kp_sync::atomic::{AtomicUsize, Ordering};

use queue_traits::testing;
use queue_traits::{ConcurrentQueue, QueueHandle};

use crate::{Config, Empty, Full, WcQueue};

fn small(capacity: usize, threads: usize) -> WcQueue<u64> {
    WcQueue::with_config(threads, Config::new().with_capacity(capacity))
}

#[test]
fn sequential_fifo() {
    let q: WcQueue<u64> = WcQueue::new(2);
    testing::check_sequential_fifo(&q);
}

#[test]
fn sequential_fifo_slow_only() {
    let q: WcQueue<u64> = WcQueue::with_config(2, Config::slow_only());
    testing::check_sequential_fifo(&q);
}

#[test]
fn mpmc_conservation() {
    let q: WcQueue<u64> = WcQueue::new(8);
    testing::check_mpmc_conservation(&q, 4, 4, testing::scaled(3_000));
}

#[test]
fn mpmc_conservation_slow_only() {
    let q: WcQueue<u64> = WcQueue::with_config(8, Config::slow_only());
    testing::check_mpmc_conservation(&q, 4, 4, testing::scaled(800));
}

#[test]
fn mpmc_conservation_tiny_ring() {
    // Capacity far below the item count: every enqueue contends with
    // Full and every cycle tag wraps the ring many times over.
    let q = small(8, 8);
    testing::check_mpmc_conservation(&q, 4, 4, testing::scaled(2_000));
}

#[test]
fn owned_payloads_drop_cleanly() {
    let q: WcQueue<Box<u64>> = WcQueue::new(4);
    testing::check_owned_payloads(&q, 4);
}

#[test]
fn registration_capacity_enforced() {
    let q: WcQueue<u64> = WcQueue::new(3);
    testing::check_registration_capacity(&q, 3);
}

#[test]
fn drop_releases_leftover_values() {
    // Values still inside the queue at drop must be dropped exactly once.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Counted;
    impl Drop for Counted {
        fn drop(&mut self) {
            // ord(stats, sc): test scaffolding uses SeqCst counters for
            // simplicity
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    let q: WcQueue<Counted> = WcQueue::with_config(1, Config::new().with_capacity(16));
    {
        let mut h = q.register().unwrap();
        for _ in 0..10 {
            h.try_enqueue(Counted).unwrap();
        }
        for _ in 0..4 {
            drop(h.try_dequeue().unwrap());
        }
    }
    // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
    assert_eq!(DROPS.load(Ordering::SeqCst), 4);
    drop(q);
    // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
    assert_eq!(DROPS.load(Ordering::SeqCst), 10);
}

// ---- typed full/empty boundary behavior ----

#[test]
fn full_and_empty_are_typed_and_exact() {
    let q = small(4, 1);
    let mut h = q.register().unwrap();
    assert_eq!(h.try_dequeue(), Err(Empty));
    for i in 0..4 {
        assert!(h.try_enqueue(i).is_ok());
    }
    // Exactly at capacity: the next enqueue hands the value back.
    let Full(v) = h.try_enqueue(99).unwrap_err();
    assert_eq!(v, 99);
    // FIFO order survives the full episode.
    for i in 0..4 {
        assert_eq!(h.try_dequeue(), Ok(i));
    }
    assert_eq!(h.try_dequeue(), Err(Empty));
    // Every empty dequeue burns one threshold unit; enough of them
    // must drive the counter negative (then the precheck short-outs).
    for _ in 0..32 {
        assert_eq!(h.try_dequeue(), Err(Empty));
    }
    let (aq_th, _) = q.threshold_values();
    assert!(aq_th < 0, "persistently-empty aq must burn its threshold");
    // The freed capacity is immediately reusable.
    assert!(h.try_enqueue(7).is_ok());
    assert_eq!(h.try_dequeue(), Ok(7));
}

#[test]
fn full_and_empty_under_contention() {
    // Producers hammer a tiny ring and count Full rejections; consumers
    // count Empty. The ledger must balance: accepted = consumed + left.
    const THREADS: usize = 4;
    const PER: usize = 2_000;
    let q = small(8, 2 * THREADS);
    let barrier = Barrier::new(2 * THREADS);
    let accepted = AtomicUsize::new(0);
    let rejected = AtomicUsize::new(0);
    let consumed_sum = AtomicUsize::new(0);
    let accepted_sum = AtomicUsize::new(0);
    let consumed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for p in 0..THREADS {
            let (q, barrier) = (&q, &barrier);
            let (accepted, rejected, accepted_sum) = (&accepted, &rejected, &accepted_sum);
            s.spawn(move || {
                let mut h = q.register().unwrap();
                barrier.wait();
                for i in 0..PER {
                    let v = (p * PER + i) as u64;
                    match h.try_enqueue(v) {
                        Ok(()) => {
                            // ord(stats): test scaffolding
                            accepted.fetch_add(1, Ordering::Relaxed);
                            // ord(stats): test scaffolding
                            accepted_sum.fetch_add(v as usize, Ordering::Relaxed);
                        }
                        Err(Full(back)) => {
                            assert_eq!(back, v, "Full must hand back the same value");
                            // ord(stats): test scaffolding
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        for _ in 0..THREADS {
            let (q, barrier) = (&q, &barrier);
            let (consumed, consumed_sum) = (&consumed, &consumed_sum);
            s.spawn(move || {
                let mut h = q.register().unwrap();
                barrier.wait();
                let mut empties = 0usize;
                // Keep draining until the producers are plausibly done.
                while empties < 3_000 {
                    match h.try_dequeue() {
                        Ok(v) => {
                            empties = 0;
                            // ord(stats): test scaffolding
                            consumed.fetch_add(1, Ordering::Relaxed);
                            // ord(stats): test scaffolding
                            consumed_sum.fetch_add(v as usize, Ordering::Relaxed);
                        }
                        Err(Empty) => {
                            empties += 1;
                            std::hint::spin_loop();
                        }
                    }
                }
            });
        }
    });
    let mut h = q.register().unwrap();
    let mut leftover = Vec::new();
    while let Ok(v) = h.try_dequeue() {
        leftover.push(v as usize);
    }
    assert!(leftover.len() <= 8, "leftover cannot exceed capacity");
    // ord(stats): test scaffolding
    let acc = accepted.load(Ordering::Relaxed);
    // ord(stats): test scaffolding
    let rej = rejected.load(Ordering::Relaxed);
    // ord(stats): test scaffolding
    let con = consumed.load(Ordering::Relaxed);
    assert_eq!(acc + rej, THREADS * PER);
    assert_eq!(acc, con + leftover.len(), "accepted = consumed + leftover");
    assert_eq!(
        // ord(stats): test scaffolding
        accepted_sum.load(Ordering::Relaxed),
        // ord(stats): test scaffolding
        consumed_sum.load(Ordering::Relaxed) + leftover.iter().sum::<usize>(),
        "value checksum must balance: no loss, no duplication"
    );
}

#[test]
fn blocking_enqueue_waits_out_a_full_ring() {
    let q = small(2, 2);
    let mut prod = q.register().unwrap();
    let mut cons = q.register().unwrap();
    prod.try_enqueue(1).unwrap();
    prod.try_enqueue(2).unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            // Blocks until the consumer below frees a slot.
            prod.enqueue(3);
        });
        let mut got = Vec::new();
        while got.len() < 3 {
            if let Some(v) = cons.dequeue() {
                got.push(v);
            } else {
                std::thread::yield_now();
            }
        }
        assert_eq!(got, [1, 2, 3]);
    });
}

#[test]
fn fast_path_stats_account_every_op() {
    let q: WcQueue<u64> = WcQueue::new(2);
    let mut h = q.register().unwrap();
    for i in 0..100 {
        h.enqueue(i);
    }
    for _ in 0..100 {
        h.dequeue().unwrap();
    }
    let stats = h.fast_path_stats().unwrap();
    assert_eq!(stats.fast_completions + stats.slow_ops, 200);
    // Single-threaded with default patience: everything stays fast.
    assert_eq!(stats.fast_completions, 200);
    assert_eq!(stats.slow_ops, 0);

    let slow_q: WcQueue<u64> = WcQueue::with_config(2, Config::slow_only());
    let mut h = slow_q.register().unwrap();
    for i in 0..50 {
        h.enqueue(i);
    }
    for _ in 0..50 {
        h.dequeue().unwrap();
    }
    let stats = h.fast_path_stats().unwrap();
    assert_eq!(stats.fast_completions + stats.slow_ops, 100);
    assert_eq!(stats.slow_ops, 100);
    assert_eq!(stats.fast_completions, 0);
}

#[test]
fn threshold_resets_are_observed() {
    let q = small(4, 1);
    assert!(q.capacity() == 4);
    let mut h = q.register().unwrap();
    for round in 0..3 {
        for i in 0..4 {
            h.try_enqueue(round * 4 + i).unwrap();
        }
        for _ in 0..4 {
            h.try_dequeue().unwrap();
        }
        assert_eq!(h.try_dequeue(), Err(Empty));
    }
    assert!(
        q.threshold_resets() > 0,
        "empty/refill cycles must reset the threshold"
    );
}

#[test]
fn depth_gauge_exact_at_quiescence() {
    let q = small(16, 2);
    assert_eq!(q.depth(), 0);
    assert_eq!(q.depth_hint(), Some(0));
    assert_eq!(q.drained_hint(), Some(0));
    assert_eq!(q.capacity_hint(), Some(16));
    assert_eq!(q.pressure_hint(), 0, "wcq has no overflow machinery");

    let mut h = q.register().unwrap();
    for i in 0..10 {
        h.try_enqueue(i).unwrap();
        assert_eq!(q.depth(), i as usize + 1);
    }
    for i in 0..4 {
        h.try_dequeue().unwrap();
        assert_eq!(q.depth(), 10 - (i + 1));
    }
    assert_eq!(q.drained(), 4);
    // Refused operations move neither counter.
    for _ in 0..10 {
        h.try_enqueue(99).ok();
        h.try_dequeue().ok();
    }
    while h.try_dequeue().is_ok() {}
    assert_eq!(q.depth(), 0, "drained queue gauges empty");
    assert_eq!(h.try_dequeue(), Err(Empty));
    assert_eq!(q.depth(), 0, "empty dequeues do not move the gauge");
}

#[test]
fn depth_gauge_exact_at_quiescence_slow_only() {
    // Same invariant with every op forced through the helping slow
    // path, so the slow-path completion also lands exactly one bump.
    let q: WcQueue<u64> = WcQueue::with_config(2, Config::slow_only().with_capacity(8));
    let mut h = q.register().unwrap();
    for i in 0..8 {
        h.try_enqueue(i).unwrap();
    }
    assert_eq!(q.depth(), 8);
    assert!(matches!(h.try_enqueue(8), Err(Full(8))));
    assert_eq!(q.depth(), 8, "refused enqueue does not bump the gauge");
    for _ in 0..8 {
        h.try_dequeue().unwrap();
    }
    assert_eq!(q.depth(), 0);
    assert_eq!(q.drained(), 8);
}

#[test]
fn depth_gauge_settles_under_contention() {
    // 2 producers / 2 consumers churn; after join the gauge must land
    // exactly on the residual count (here: zero) — monotonic counters
    // cannot drift when every op completes normally.
    const PER: u64 = 2_000;
    let q = small(64, 4);
    let taken = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for p in 0..2u64 {
            let q = &q;
            s.spawn(move || {
                let mut h = q.register().unwrap();
                for i in 0..PER {
                    let mut v = (p << 32) | i;
                    loop {
                        match h.try_enqueue(v) {
                            Ok(()) => break,
                            Err(Full(back)) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
        }
        for _ in 0..2 {
            let q = &q;
            let taken = &taken;
            s.spawn(move || {
                let mut h = q.register().unwrap();
                // ord(stats): test scaffolding
                while taken.load(Ordering::Relaxed) < 2 * PER as usize {
                    if h.try_dequeue().is_ok() {
                        // ord(stats): test scaffolding
                        taken.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    assert_eq!(q.depth(), 0, "all values consumed, gauge must agree");
    assert_eq!(q.drained(), 2 * PER);
}
