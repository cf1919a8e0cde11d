//! Unit tests for the hazard-pointer (§3.4) queue.

use queue_traits::testing;

use crate::WfQueueHp;
use crate::{Config, ConcurrentQueue, HelpPolicy};

fn all_configs() -> Vec<Config> {
    vec![
        Config::base(),
        Config::opt1(),
        Config::opt2(),
        Config::opt_both(),
        Config::base().with_validation(),
        Config::opt_both().with_validation(),
        Config::opt_both().with_help(HelpPolicy::RandomChunk { chunk: 2 }),
        Config::fast(),
        Config::fast().with_fast_path(1),
    ]
}

#[test]
fn sequential_fifo_all_variants() {
    for cfg in all_configs() {
        let q: WfQueueHp<u64> = WfQueueHp::with_config(4, cfg);
        testing::check_sequential_fifo(&q);
    }
}

#[test]
fn mpmc_conservation_all_variants() {
    for cfg in all_configs() {
        let q: WfQueueHp<u64> = WfQueueHp::with_config(8, cfg);
        testing::check_mpmc_conservation(&q, 4, 4, testing::scaled(2_000));
    }
}

#[test]
fn owned_payloads() {
    for cfg in [Config::base(), Config::opt_both()] {
        let q: WfQueueHp<Box<u64>> = WfQueueHp::with_config(4, cfg);
        testing::check_owned_payloads(&q, 4);
    }
}

#[test]
fn registration_capacity() {
    let q: WfQueueHp<u64> = WfQueueHp::new(3);
    testing::check_registration_capacity(&q, 3);
}

#[test]
fn empty_dequeues() {
    let q: WfQueueHp<u64> = WfQueueHp::with_config(2, Config::base());
    let mut h = q.register().unwrap();
    for _ in 0..5 {
        assert_eq!(h.dequeue(), None);
    }
    h.enqueue(7);
    assert_eq!(h.dequeue(), Some(7));
    assert_eq!(h.dequeue(), None);
    let s = q.stats();
    assert_eq!(s.empty_dequeues, 6);
    assert_eq!(s.dequeues, 7);
}

#[test]
fn values_dropped_exactly_once() {
    use kp_sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    struct CountDrop(Arc<AtomicUsize>);
    impl Drop for CountDrop {
        fn drop(&mut self) {
            // ord(stats, sc): test scaffolding uses SeqCst counters for
            // simplicity
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let q: WfQueueHp<CountDrop> = WfQueueHp::new(2);
        let mut h = q.register().unwrap();
        for _ in 0..300 {
            h.enqueue(CountDrop(drops.clone()));
        }
        for _ in 0..120 {
            drop(h.dequeue());
        }
        // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
        assert_eq!(drops.load(Ordering::SeqCst), 120, "dequeued values drop");
        drop(h);
    }
    assert_eq!(
        // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
        drops.load(Ordering::SeqCst),
        300,
        "resident values drop exactly once at queue drop"
    );
}

#[test]
fn nodes_are_reclaimed_without_gc() {
    // The point of §3.4: memory is reclaimed while the queue runs, not
    // deferred until drop.
    let q: WfQueueHp<u64> = WfQueueHp::new(2);
    let mut h = q.register().unwrap();
    let n = testing::scaled(20_000) as u64;
    for i in 0..n {
        h.enqueue(i);
        assert_eq!(h.dequeue(), Some(i));
    }
    assert!(
        h.reclaimed() > testing::scaled(10_000),
        "hazard scans must have freed nodes/descriptors during the run (got {})",
        h.reclaimed()
    );
}

#[test]
fn string_payloads_roundtrip() {
    let q: WfQueueHp<String> = WfQueueHp::new(2);
    let mut h = q.register().unwrap();
    for i in 0..1_000 {
        h.enqueue(format!("value-{i}"));
        assert_eq!(h.dequeue().as_deref(), Some(format!("value-{i}").as_str()));
    }
}

#[test]
fn lemma_counters_hold() {
    for cfg in [Config::base(), Config::opt_both()] {
        let q: WfQueueHp<u64> = WfQueueHp::with_config(8, cfg);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register().unwrap();
                    for i in 0..testing::scaled(3_000) as u64 {
                        if (t + i) % 3 == 0 {
                            h.dequeue();
                        } else {
                            h.enqueue(t * 100_000 + i);
                        }
                    }
                });
            }
        });
        let stats = q.stats();
        assert_eq!(stats.appends_total, stats.enqueues, "Lemma 1 ({cfg:?})");
        assert_eq!(
            stats.locks_total,
            stats.dequeues - stats.empty_dequeues,
            "Lemma 2 ({cfg:?})"
        );
        let resident = (stats.enqueues - (stats.dequeues - stats.empty_dequeues)) as usize;
        assert_eq!(q.len_approx_quiescent(), resident);
    }
}

#[test]
fn helping_occurs_under_contention() {
    // Bounded rounds: see the epoch variant's test for why one round
    // can, rarely, finish without any operation overlap.
    let q: WfQueueHp<u64> = WfQueueHp::with_config(8, Config::base());
    let mut rounds = 0u64;
    while rounds < 10 {
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut h = q.register().unwrap();
                    for i in 0..testing::scaled(10_000) as u64 {
                        h.enqueue(i);
                        h.dequeue();
                    }
                });
            }
        });
        rounds += 1;
        if q.stats().help_calls > 0 {
            break;
        }
    }
    let stats = q.stats();
    assert_eq!(stats.ops(), rounds * 8 * 2 * testing::scaled(10_000) as u64);
    assert!(
        stats.help_calls > 0,
        "base policy must help peers under contention: {stats:?}"
    );
}

#[test]
fn fast_path_uncontended_ops_never_fall_back() {
    // Mirror of the epoch test: single-threaded, no contention, so the
    // hazard-pointer fast path completes every op and reclamation (the
    // token gate + hazard scan) still runs.
    let q: WfQueueHp<u64> = WfQueueHp::with_config(4, Config::fast());
    let mut h = q.register().unwrap();
    for i in 0..500 {
        h.enqueue(i);
        assert_eq!(h.dequeue(), Some(i), "fast path must preserve FIFO");
    }
    assert_eq!(h.dequeue(), None);
    let fp = h.fast_path_stats();
    assert_eq!(fp.fast_completions, 1001, "500 enq + 500 deq + 1 empty deq");
    assert_eq!(fp.slow_ops, 0);
    let stats = q.stats();
    assert_eq!(stats.appends_total, stats.enqueues);
    assert_eq!(stats.locks_total, stats.dequeues - stats.empty_dequeues);
}

#[test]
fn fast_path_values_dropped_exactly_once() {
    // The fast dequeue takes the value and half-completes the token
    // gate itself; nothing may be dropped twice or leaked.
    use kp_sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    struct CountDrop(Arc<AtomicUsize>);
    impl Drop for CountDrop {
        fn drop(&mut self) {
            // ord(stats, sc): test scaffolding uses SeqCst counters for
            // simplicity
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let q: WfQueueHp<CountDrop> = WfQueueHp::with_config(2, Config::fast());
        let mut h = q.register().unwrap();
        for _ in 0..300 {
            h.enqueue(CountDrop(drops.clone()));
        }
        for _ in 0..120 {
            drop(h.dequeue());
        }
        // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
        assert_eq!(drops.load(Ordering::SeqCst), 120);
        drop(h);
    }
    // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
    assert_eq!(drops.load(Ordering::SeqCst), 300, "no double drop, no leak");
}

#[test]
fn mixed_fast_and_slow_handles_conserve_values() {
    let q: WfQueueHp<u64> = WfQueueHp::with_config(8, Config::fast().with_fast_path(2));
    let per = testing::scaled(3_000) as u64;
    let total = std::sync::Mutex::new(0u64);
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let q = &q;
            let total = &total;
            s.spawn(move || {
                let mut h = q.register().unwrap();
                if t % 2 == 0 {
                    h.set_fast_path(0); // slow-only
                }
                let mut sum = 0u64;
                for i in 0..per {
                    h.enqueue(t * per + i);
                    if let Some(v) = h.dequeue() {
                        sum += v;
                    }
                }
                if t % 2 == 0 {
                    assert_eq!(h.fast_path_stats().fast_completions, 0);
                }
                *total.lock().unwrap() += sum;
            });
        }
    });
    let mut rest = 0u64;
    let mut h = q.register().unwrap();
    while let Some(v) = h.dequeue() {
        rest += v;
    }
    let expect: u64 = (0..8 * per).sum();
    assert_eq!(*total.lock().unwrap() + rest, expect, "values conserved");
    let stats = q.stats();
    assert_eq!(stats.appends_total, stats.enqueues, "Lemma 1 (mixed)");
    assert_eq!(
        stats.locks_total,
        stats.dequeues - stats.empty_dequeues,
        "Lemma 2 (mixed)"
    );
}

#[test]
fn fast_path_nodes_still_reclaimed() {
    // The fast dequeue's retire path must feed the same pool as the
    // slow one: long runs stay allocation-bounded.
    let q: WfQueueHp<u64> = WfQueueHp::with_config(2, Config::fast());
    let mut h = q.register().unwrap();
    let n = testing::scaled(20_000) as u64;
    for i in 0..n {
        h.enqueue(i);
        assert_eq!(h.dequeue(), Some(i));
    }
    let s = q.stats();
    assert!(
        s.node_allocs < 200,
        "fast path must recycle nodes, not allocate per op (allocs={})",
        s.node_allocs
    );
}

#[test]
fn debug_format() {
    let q: WfQueueHp<u64> = WfQueueHp::new(2);
    assert!(format!("{q:?}").contains("WfQueueHp"));
}

/// Overload gauges on the hazard-pointer engine: the same per-tid
/// summing contract as the epoch engine's test of the same name.
#[test]
fn depth_hint_tracks_residency_at_quiescence() {
    fn assert_quiescent(q: &WfQueueHp<u64>, depth: usize, drained: u64) {
        assert_eq!(q.depth_hint(), Some(depth));
        assert_eq!(q.drained_hint(), Some(drained));
        let s = q.stats();
        assert_eq!(
            s.appends_total, s.enqueues,
            "Lemma 1: one append per enqueue"
        );
        assert_eq!(
            s.locks_total,
            s.dequeues - s.empty_dequeues,
            "Lemma 2: one lock per value"
        );
    }
    for cfg in all_configs() {
        let q: WfQueueHp<u64> = WfQueueHp::with_config(2, cfg);
        assert_quiescent(&q, 0, 0);
        assert_eq!(q.capacity_hint(), None, "unbounded engine");
        let mut producer = q.register().unwrap();
        let mut consumer = q.register().unwrap();
        for i in 0..8 {
            producer.enqueue(i);
        }
        assert_quiescent(&q, 8, 0);
        for _ in 0..5 {
            consumer.dequeue().unwrap();
        }
        assert_quiescent(&q, 3, 5);
        drop(producer);
        drop(consumer);
        assert_quiescent(&q, 3, 5);
        let mut consumer = q.register().unwrap();
        let mut producer = q.register().unwrap();
        producer.enqueue(8);
        assert_quiescent(&q, 4, 5);
        while consumer.dequeue().is_some() {}
        assert_eq!(consumer.dequeue(), None);
        assert_quiescent(&q, 0, 9);
    }
}
