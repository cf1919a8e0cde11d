//! Unit tests for the wait-free queue, run over every paper variant.

use crate::{Config, ConcurrentQueue, HelpPolicy, PhasePolicy, WfQueue};
use queue_traits::testing;

/// All four paper variants plus the random-chunk and validation
/// enhancements — every behavioural test runs on each.
fn all_configs() -> Vec<Config> {
    vec![
        Config::base(),
        Config::opt1(),
        Config::opt2(),
        Config::opt_both(),
        Config::base().with_validation(),
        Config::opt_both().with_validation(),
        Config::base().with_help(HelpPolicy::RandomChunk { chunk: 1 }),
        Config::opt_both().with_help(HelpPolicy::Cyclic { chunk: 3 }),
        Config::fast(),
        Config::fast().with_starvation_patience(4),
        Config::fast().with_fast_path(1),
    ]
}

#[test]
fn sequential_fifo_all_variants() {
    for cfg in all_configs() {
        let q: WfQueue<u64> = WfQueue::with_config(4, cfg);
        testing::check_sequential_fifo(&q);
    }
}

#[test]
fn mpmc_conservation_all_variants() {
    for cfg in all_configs() {
        let q: WfQueue<u64> = WfQueue::with_config(8, cfg);
        testing::check_mpmc_conservation(&q, 4, 4, testing::scaled(3_000));
    }
}

#[test]
fn owned_payloads_base_and_opt() {
    for cfg in [Config::base(), Config::opt_both()] {
        let q: WfQueue<Box<u64>> = WfQueue::with_config(4, cfg);
        testing::check_owned_payloads(&q, 4);
    }
}

#[test]
fn registration_capacity_is_enforced() {
    let q: WfQueue<u64> = WfQueue::new(3);
    testing::check_registration_capacity(&q, 3);
    assert_eq!(q.thread_capacity(), 3);
}

#[test]
fn empty_dequeue_returns_none_repeatedly() {
    let q: WfQueue<u64> = WfQueue::with_config(2, Config::base());
    let mut h = q.register().unwrap();
    for _ in 0..10 {
        assert_eq!(h.dequeue(), None);
    }
    h.enqueue(1);
    assert_eq!(h.dequeue(), Some(1));
    assert_eq!(h.dequeue(), None);
}

#[test]
fn values_survive_handle_churn() {
    // Handles coming and going (virtual-ID reuse, §3.3) must not disturb
    // resident values.
    let q: WfQueue<u64> = WfQueue::new(2);
    {
        let mut h = q.register().unwrap();
        for i in 0..50 {
            h.enqueue(i);
        }
    }
    {
        let mut h = q.register().unwrap();
        for i in 0..25 {
            assert_eq!(h.dequeue(), Some(i));
        }
    }
    let mut h = q.register().unwrap();
    for i in 25..50 {
        assert_eq!(h.dequeue(), Some(i));
    }
    assert_eq!(h.dequeue(), None);
}

#[test]
fn len_and_is_empty() {
    let q: WfQueue<u64> = WfQueue::new(2);
    assert!(q.is_empty());
    assert_eq!(q.len_approx(), 0);
    let mut h = q.register().unwrap();
    for i in 0..7 {
        h.enqueue(i);
    }
    assert!(!q.is_empty());
    assert_eq!(q.len_approx(), 7);
    h.dequeue();
    assert_eq!(q.len_approx(), 6);
}

#[test]
fn drop_releases_resident_values() {
    use kp_sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    struct CountDrop(Arc<AtomicUsize>);
    impl Drop for CountDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let q: WfQueue<CountDrop> = WfQueue::new(2);
        let mut h = q.register().unwrap();
        for _ in 0..100 {
            h.enqueue(CountDrop(drops.clone()));
        }
        for _ in 0..30 {
            drop(h.dequeue());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 30);
        drop(h);
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        100,
        "queue drop must free the remaining 70 values exactly once"
    );
}

#[test]
fn phase_numbers_increase_monotonically() {
    // The doorway property behind wait-freedom: each operation's phase
    // exceeds all phases chosen before it (single-threaded here, so the
    // property must hold exactly).
    for phase_policy in [PhasePolicy::MaxScan, PhasePolicy::AtomicCounter] {
        let q: WfQueue<u64> =
            WfQueue::with_config(4, Config::base().with_phase(phase_policy));
        let mut h = q.register().unwrap();
        let mut last = -1;
        for i in 0..20 {
            let pending = h.begin_enqueue_unhelped(i);
            let ph = pending.phase();
            assert!(ph > last, "phase must increase: {ph} after {last}");
            last = ph;
            pending.finish();
        }
    }
}

#[test]
fn stalled_enqueue_is_completed_by_helper() {
    // The central helping property: a thread that stalls right after
    // publishing its descriptor (paper L63) still gets its operation
    // applied, by any other thread running an operation with a larger
    // phase.
    let q: WfQueue<u64> = WfQueue::with_config(4, Config::base());
    let mut stalled = q.register().unwrap();
    let mut helper = q.register().unwrap();

    let pending = stalled.begin_enqueue_unhelped(42);
    assert!(pending.is_pending());

    helper.enqueue(7); // helper's phase > stalled's ⇒ must help first

    assert!(
        !pending.is_pending(),
        "helper must have completed the stalled enqueue"
    );
    // FIFO: the stalled enqueue (42) linearized before the helper's (7).
    assert_eq!(helper.dequeue(), Some(42));
    assert_eq!(helper.dequeue(), Some(7));
    pending.finish();
    assert!(q.stats().helped_appends >= 1, "help was counted");
}

#[test]
fn stalled_dequeue_is_completed_by_helper() {
    let q: WfQueue<u64> = WfQueue::with_config(4, Config::base());
    let mut stalled = q.register().unwrap();
    let mut helper = q.register().unwrap();

    helper.enqueue(1);
    helper.enqueue(2);

    let pending = stalled.begin_dequeue_unhelped();
    assert!(pending.is_pending());

    helper.enqueue(3); // any op with larger phase helps

    assert!(
        !pending.is_pending(),
        "helper must have completed the stalled dequeue"
    );
    // The stalled dequeue linearized before helper.enqueue(3), so it
    // must return the then-head: 1.
    assert_eq!(pending.finish(), Some(1));
    assert_eq!(helper.dequeue(), Some(2));
    assert_eq!(helper.dequeue(), Some(3));
    assert!(q.stats().helped_locks >= 1);
}

#[test]
fn stalled_dequeue_on_empty_queue_observes_empty() {
    let q: WfQueue<u64> = WfQueue::with_config(4, Config::base());
    let mut stalled = q.register().unwrap();
    let mut helper = q.register().unwrap();

    let pending = stalled.begin_dequeue_unhelped();
    // A helper dequeue on the empty queue resolves the stalled op as
    // "empty" (paper L116–121) rather than handing it a later value.
    assert_eq!(helper.dequeue(), None);
    assert!(!pending.is_pending());
    helper.enqueue(9); // arrives after the stalled deq linearized empty
    assert_eq!(pending.finish(), None, "op linearized on the empty queue");
    assert_eq!(helper.dequeue(), Some(9));
}

#[test]
fn abandoned_pending_op_is_driven_to_completion() {
    let q: WfQueue<u64> = WfQueue::with_config(2, Config::base());
    let mut h = q.register().unwrap();
    {
        let pending = h.begin_enqueue_unhelped(5);
        drop(pending); // Drop must complete the operation
    }
    assert_eq!(h.dequeue(), Some(5));
}

#[test]
fn helping_occurs_under_contention() {
    // Statistical version of the stalled-thread tests: with many threads
    // hammering a base-config queue, some linearization steps are
    // executed by helpers. The allocation-free hot path made single
    // rounds short enough that, under an unlucky scheduler, no two ops
    // overlap — so hammer in bounded rounds until helping shows up.
    let q: WfQueue<u64> = WfQueue::with_config(8, Config::base());
    let mut rounds = 0u64;
    while rounds < 10 {
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut h = q.register().unwrap();
                    for i in 0..testing::scaled(20_000) as u64 {
                        h.enqueue(i);
                        h.dequeue();
                    }
                });
            }
        });
        rounds += 1;
        if q.stats().helped_appends + q.stats().helped_locks > 0 {
            break;
        }
    }
    let stats = q.stats();
    assert_eq!(stats.ops(), rounds * 8 * 2 * testing::scaled(20_000) as u64);
    assert!(
        stats.helped_appends + stats.helped_locks > 0,
        "contention must produce at least some helped operations: {stats:?}"
    );
}

#[test]
fn cyclic_chunk_never_starves_own_op() {
    // With chunk=1 and many slots, a thread mostly helps others; its own
    // op must still complete every time.
    let q: WfQueue<u64> = WfQueue::with_config(16, Config::opt_both());
    let mut h = q.register().unwrap();
    for i in 0..1000 {
        h.enqueue(i);
        assert_eq!(h.dequeue(), Some(i));
    }
}

#[test]
fn lemma_1_and_2_exactly_once() {
    // The paper's Lemmas 1 and 2: for every enqueue, step 1 (the L74
    // append CAS) succeeds exactly once; for every successful dequeue,
    // step 1 (the L135 deqTid CAS) succeeds exactly once — even though
    // many helpers race to execute those steps. At quiescence the global
    // counters must therefore match the operation counts exactly.
    for cfg in [Config::base(), Config::opt1(), Config::opt2(), Config::opt_both()] {
        let q: WfQueue<u64> = WfQueue::with_config(8, cfg);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.register().unwrap();
                    for i in 0..testing::scaled(5_000) as u64 {
                        if (t + i) % 3 == 0 {
                            // bursts of dequeues drive the queue empty
                            h.dequeue();
                        } else {
                            h.enqueue(t * 100_000 + i);
                        }
                    }
                });
            }
        });
        let stats = q.stats();
        assert_eq!(
            stats.appends_total, stats.enqueues,
            "Lemma 1 violated ({cfg:?}): {stats:?}"
        );
        assert_eq!(
            stats.locks_total,
            stats.dequeues - stats.empty_dequeues,
            "Lemma 2 violated ({cfg:?}): {stats:?}"
        );
        // Cross-check against the structure: resident = in - out.
        let resident = (stats.enqueues - (stats.dequeues - stats.empty_dequeues)) as usize;
        assert_eq!(q.len_approx(), resident);
    }
}

#[test]
fn exit_with_pending_enqueue_publishes_dummy_descriptor() {
    // §3.3 "dummy descriptor on exit": a handle dropped while its enqueue
    // is still pending must complete the operation and leave the state
    // slot idle, so the value lands and the slot is immediately reusable.
    for cfg in [Config::base(), Config::opt_both()] {
        let q: WfQueue<u64> = WfQueue::with_config(2, cfg);
        {
            let mut h = q.register().unwrap();
            h.enqueue(1);
            // Walk away mid-operation: descriptor left pending, as if the
            // thread died right after the paper's L63 publish.
            h.begin_enqueue_unhelped(2).abandon();
        } // handle Drop runs the exit cleanup here
        let mut h = q.register().unwrap();
        assert_eq!(h.dequeue(), Some(1));
        assert_eq!(h.dequeue(), Some(2), "abandoned enqueue must land");
        assert_eq!(h.dequeue(), None);
    }
}

#[test]
fn exit_with_pending_dequeue_publishes_dummy_descriptor() {
    let q: WfQueue<u64> = WfQueue::new(2);
    {
        let mut h = q.register().unwrap();
        for i in 0..3 {
            h.enqueue(i);
        }
        h.begin_dequeue_unhelped().abandon();
    } // Drop completes the dequeue; value 0 is consumed-and-discarded
    let mut h = q.register().unwrap();
    assert_eq!(h.dequeue(), Some(1), "FIFO intact after exit cleanup");
    assert_eq!(h.dequeue(), Some(2));
    assert_eq!(h.dequeue(), None);
}

#[test]
fn slot_reused_after_mid_operation_exit_does_not_wedge() {
    // The wedge this guards against: with capacity 1, the departing
    // thread's slot is *guaranteed* to be reused. If its pending
    // descriptor were still in place (or an orphaned node appended with
    // no matching descriptor), every subsequent operation would spin in
    // help_finish_enq forever.
    let q: WfQueue<u64> = WfQueue::new(1);
    for round in 0..10u64 {
        let mut h = q.register().expect("slot must be reclaimable");
        assert_eq!(h.tid(), 0, "capacity-1 pool always hands out slot 0");
        h.begin_enqueue_unhelped(round).abandon();
        drop(h);
        let mut h = q.register().unwrap();
        assert_eq!(h.dequeue(), Some(round), "no wedge, value present");
        assert_eq!(h.dequeue(), None);
    }
}

#[test]
fn fast_path_uncontended_ops_never_fall_back() {
    // Single-threaded, fast path on: every CAS wins first try, so every
    // operation completes fast and the slow path never runs.
    let q: WfQueue<u64> = WfQueue::with_config(4, Config::fast());
    let mut h = q.register().unwrap();
    for i in 0..500 {
        h.enqueue(i);
        assert_eq!(h.dequeue(), Some(i), "fast path must preserve FIFO");
    }
    assert_eq!(h.dequeue(), None);
    let fp = h.fast_path_stats();
    assert_eq!(fp.fast_completions, 1001, "500 enq + 500 deq + 1 empty deq");
    assert_eq!(fp.slow_ops, 0);
    assert_eq!(fp.fallbacks(), 0);
    assert_eq!(fp.fallback_rate(), 0.0);
    // The fast append/lock CASes feed the same Lemma 1/2 counters as
    // the slow path's steps.
    let stats = q.stats();
    assert_eq!(stats.appends_total, stats.enqueues);
    assert_eq!(stats.locks_total, stats.dequeues - stats.empty_dequeues);
}

#[test]
fn set_fast_path_zero_pins_handle_to_slow_path() {
    let q: WfQueue<u64> = WfQueue::with_config(4, Config::fast());
    let mut h = q.register().unwrap();
    h.set_fast_path(0);
    for i in 0..100 {
        h.enqueue(i);
        assert_eq!(h.dequeue(), Some(i));
    }
    let fp = h.fast_path_stats();
    assert_eq!(fp.fast_completions, 0, "pinned handle must never go fast");
    assert_eq!(fp.slow_ops, 200);
}

#[test]
fn fast_path_stats_exposed_through_trait() {
    let q: WfQueue<u64> = WfQueue::with_config(2, Config::fast());
    let mut h = q.register().unwrap();
    h.enqueue(1);
    let fp = queue_traits::QueueHandle::fast_path_stats(&h)
        .expect("kp handles report fast-path stats");
    assert_eq!(fp.fast_completions + fp.slow_ops, 1);
}

#[test]
fn mixed_fast_and_slow_handles_conserve_values() {
    // Half the threads run fast-path-first, half are pinned slow-only;
    // the descriptor protocol must linearize both kinds together.
    let q: WfQueue<u64> = WfQueue::with_config(8, Config::fast().with_fast_path(2));
    let per = testing::scaled(4_000) as u64;
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
                let fp = h.fast_path_stats();
                if t % 2 == 0 {
                    assert_eq!(fp.fast_completions, 0);
                    assert_eq!(fp.slow_ops, 2 * per);
                } else {
                    assert_eq!(
                        fp.fast_completions + fp.fallbacks(),
                        fp.fast_completions + fp.fast_exhaustions + fp.fast_starvation_demotions
                    );
                }
                *total.lock().unwrap() += sum;
            });
        }
    });
    // Drain what's left and check conservation of the value sum.
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
fn starvation_patience_demotes_into_helping() {
    // A peer publishes a descriptor and stalls; a fast handle with tiny
    // patience must notice it within `patience` completions, demote
    // itself, and complete the stalled op via the slow path's helping.
    let q: WfQueue<u64> =
        WfQueue::with_config(4, Config::fast().with_starvation_patience(2));
    let mut stalled = q.register().unwrap();
    let mut fast = q.register().unwrap();
    let pending = stalled.begin_enqueue_unhelped(42);
    assert!(pending.is_pending());
    // Worst case: patience completions per peeked slot, over all slots.
    for i in 0..100 {
        fast.enqueue(1_000 + i);
        if !pending.is_pending() {
            break;
        }
    }
    assert!(
        !pending.is_pending(),
        "starvation peek must demote the fast handle into helping"
    );
    assert!(fast.fast_path_stats().fast_starvation_demotions >= 1);
    pending.finish();
    // Fast ops that completed before the demotion legitimately overtook
    // the (then-unlinearized) stalled enqueue; 42 must still be present
    // exactly once.
    let mut drained = Vec::new();
    while let Some(v) = fast.dequeue() {
        drained.push(v);
    }
    assert_eq!(drained.iter().filter(|&&v| v == 42).count(), 1);
}

#[test]
fn queue_debug_format_mentions_config() {
    let q: WfQueue<u64> = WfQueue::new(2);
    let s = format!("{q:?}");
    assert!(s.contains("WfQueue"), "{s}");
    assert!(s.contains("max_threads"), "{s}");
}

#[test]
fn many_variants_cross_thread_smoke() {
    // 2 producers + 2 consumers on every variant, moving enough values
    // to force multiple epoch collections.
    for cfg in all_configs() {
        let q: WfQueue<u64> = WfQueue::with_config(4, cfg);
        testing::check_mpmc_conservation(&q, 2, 2, testing::scaled(5_000));
        assert!(q.is_empty());
    }
}

/// Exact overload gauges and Lemma 1–2 totals at a quiescent point.
fn assert_quiescent(q: &WfQueue<u64>, depth: usize, drained: u64) {
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

/// The counter-derived overload gauges sum every tid's cells: exact at
/// quiescence on every variant when producer and consumer are different
/// handles, and across handle exit and tid reuse; `empty_dequeues`
/// excluded from drain.
#[test]
fn depth_hint_tracks_residency_at_quiescence() {
    for cfg in all_configs() {
        let q: WfQueue<u64> = WfQueue::with_config(2, cfg);
        assert_quiescent(&q, 0, 0);
        assert_eq!(q.capacity_hint(), None, "KP engine is unbounded");
        let mut producer = q.register().unwrap();
        let mut consumer = q.register().unwrap();
        for i in 0..10 {
            producer.enqueue(i);
        }
        assert_quiescent(&q, 10, 0);
        for _ in 0..4 {
            consumer.dequeue().unwrap();
        }
        assert_quiescent(&q, 6, 4);
        drop(producer);
        drop(consumer);
        assert_quiescent(&q, 6, 4);
        // Both tids are reused; their holders add to the same cells.
        let mut consumer = q.register().unwrap();
        let mut producer = q.register().unwrap();
        for i in 0..3 {
            producer.enqueue(i);
        }
        assert_quiescent(&q, 9, 4);
        // Empty dequeues complete but carry no value: gauge unmoved.
        while consumer.dequeue().is_some() {}
        assert_eq!(consumer.dequeue(), None);
        assert_quiescent(&q, 0, 13);
    }
}
