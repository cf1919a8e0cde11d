//! Allocation regression guard: the steady-state hot path of both
//! queue variants must not touch the heap.
//!
//! The descriptor-reuse design (packed `StateSlot` words + node
//! recycling) exists to make `enqueue`/`dequeue` allocation-free after
//! warm-up. This test pins that property with a counting global
//! allocator: a regression that reintroduces an allocation per
//! operation (a boxed descriptor, an epoch-bag push, a `Vec` growth in
//! the hazard scan) fails loudly here instead of showing up as a
//! throughput mystery in the benchmarks.
//!
//! Everything runs inside ONE `#[test]` function: the allocation
//! counters are process-global, so concurrently running tests in the
//! same binary (the default harness behaviour) would make a strict
//! zero-delta assertion racy.

use kp_queue::{Config, ConcurrentQueue, WfQueue, WfQueueHp};

#[global_allocator]
static ALLOC: alloc_track::TrackingAlloc = alloc_track::TrackingAlloc;

/// Operations to run before measuring: fills the node caches, matures
/// the epoch-tagged recycle queue, and sizes every internal scratch
/// buffer (hazard scan vectors, retire lists).
const WARMUP: usize = 20_000;

/// Operations inside the measured window.
const WINDOW: usize = 20_000;

fn measure<F: FnMut()>(mut op: F) -> usize {
    let before = alloc_track::total_allocs();
    for _ in 0..WINDOW {
        op();
    }
    alloc_track::total_allocs() - before
}

#[test]
fn steady_state_is_allocation_free() {
    // --- Epoch variant, single-threaded balanced pairs -------------
    let q: WfQueue<u64> = WfQueue::with_config(2, Config::opt_both());
    let mut h = q.register().unwrap();
    for i in 0..WARMUP as u64 {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
    }
    let mut i = 0u64;
    let allocs = measure(|| {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
        i += 1;
    });
    assert_eq!(
        allocs, 0,
        "epoch variant: {allocs} heap allocations in {WINDOW} steady-state enqueue+dequeue pairs"
    );
    drop(h);
    drop(q);

    // --- HP variant, single-threaded balanced pairs ----------------
    let q: WfQueueHp<u64> = WfQueueHp::with_config(2, Config::opt_both());
    let mut h = q.register().unwrap();
    for i in 0..WARMUP as u64 {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
    }
    let mut i = 0u64;
    let allocs = measure(|| {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
        i += 1;
    });
    assert_eq!(
        allocs, 0,
        "HP variant: {allocs} heap allocations in {WINDOW} steady-state enqueue+dequeue pairs"
    );
    drop(h);
    drop(q);

    // --- Epoch variant, split producer/consumer ---------------------
    // The channel's shape: one thread only enqueues, another only
    // dequeues. The consumer retires every node and the producer never
    // does, so recycling has to cross handles: the consumer's cache
    // spills mature nodes into the queue's shared pool and the
    // producer steals them. Without that every message allocates.
    let q: WfQueue<u64> = WfQueue::with_config(2, Config::fast());
    let allocs = split_window_allocs(&q);
    assert!(
        allocs * 10 < SPLIT_WINDOW,
        "epoch variant, split producer/consumer: {allocs} allocations in \
         {SPLIT_WINDOW} messages (bound: 0.1 per message)"
    );
    drop(q);

    // --- Epoch variant, alternating batches -------------------------
    // The channel's batched shape: one thread enqueues a 256-value
    // batch, then the other dequeues it, taking turns. Each batch runs
    // under one handle call, so the consumer retires 256 sentinels in
    // one call; unless that call renews its pin, none of them can
    // mature before it returns, the consumer's cache overflows to the
    // collector, and the producer allocates about every other node.
    let q: WfQueue<u64> = WfQueue::with_config(2, Config::fast());
    let allocs = alternating_batch_allocs(&q);
    let values = BATCH_ROUNDS * BATCH as u64;
    assert!(
        allocs * 100 < values,
        "epoch variant, alternating batches: {allocs} allocations in \
         {values} values (bound: 0.01 per value)"
    );
    drop(q);

    // --- Reuse OFF must still allocate (the guard guards something) -
    let q: WfQueue<u64> = WfQueue::with_config(2, Config::opt_both().with_reuse(false));
    let mut h = q.register().unwrap();
    for i in 0..WARMUP as u64 {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
    }
    let mut i = 0u64;
    let allocs = measure(|| {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
        i += 1;
    });
    assert!(
        allocs >= WINDOW,
        "with reuse disabled every enqueue should heap-allocate a node (saw {allocs})"
    );
    drop(h);
    drop(q);

    // --- Multi-threaded bounds --------------------------------------
    // The two variants give different guarantees under contention, and
    // the gap is the paper's §3.4 argument made empirical:
    //
    //  * HP: a preempted thread blocks reclamation of at most the ≤2
    //    nodes its hazard slots cover, so recycling keeps up and the
    //    allocation rate stays vanishingly small (<1% of ops).
    //  * Epoch: a thread descheduled while pinned stalls the global
    //    epoch for its whole timeslice; no cached or pooled node can
    //    mature meanwhile, and enqueues *correctly* fall back to fresh
    //    heap nodes rather than block (reclamation is lock-free, not
    //    wait-free). On an oversubscribed host the worst case is one
    //    allocation per enqueue — 0.5 allocs/op on balanced pairs. The
    //    bound is that ceiling plus 50% headroom: 0.75 allocs/op. Ten
    //    runs per build profile on a 2-core host measured 0.32–0.35
    //    (debug) and 0.28–0.43 (release); twice the worst run is 0.85,
    //    so the 2-core measurement does not justify a tighter bound.
    let threads = 4;
    let per = 10_000u64;

    let q: WfQueueHp<u64> = WfQueueHp::with_config(threads, Config::opt_both());
    let hp_allocs = contended_window_allocs(&q, threads, per);
    let total_ops = threads as u64 * per * 2;
    assert!(
        hp_allocs < total_ops / 100,
        "HP variant under contention: {hp_allocs} allocations across {total_ops} ops"
    );

    let q: WfQueue<u64> = WfQueue::with_config(threads, Config::opt_both());
    let epoch_allocs = contended_window_allocs(&q, threads, per);
    assert!(
        epoch_allocs < total_ops * 3 / 4,
        "epoch variant under contention exceeded the one-node-per-enqueue \
         ceiling plus headroom: {epoch_allocs} across {total_ops} ops"
    );

    // --- Post-contention recovery -----------------------------------
    // The contended fallback must be transient, not a ratchet: once the
    // preempted pins are gone, the retire cache's advance nudges ripen
    // it again and the very same queue returns to the zero-alloc
    // steady state on a single thread.
    let mut h = q.register().unwrap();
    for i in 0..WARMUP as u64 {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
    }
    let mut i = 0u64;
    let allocs = measure(|| {
        h.enqueue(i);
        assert!(h.dequeue().is_some());
        i += 1;
    });
    assert_eq!(
        allocs, 0,
        "epoch variant did not recover the allocation-free steady state \
         after contention: {allocs} allocations in {WINDOW} pairs"
    );
}

/// Messages the split case sends before measuring, and inside the
/// measured window.
const SPLIT_WARMUP: u64 = 20_000;
const SPLIT_WINDOW: u64 = 100_000;
/// How far the split producer may run ahead of the consumer, so the
/// queue stays short the way a credit-based channel keeps it.
const SPLIT_CREDIT: u64 = 256;

/// One producer thread enqueues and one consumer thread dequeues
/// `SPLIT_WARMUP + SPLIT_WINDOW` values, the producer at most
/// `SPLIT_CREDIT` ahead; returns the process-wide heap allocations the
/// consumer saw across the last `SPLIT_WINDOW` of them.
fn split_window_allocs(q: &WfQueue<u64>) -> u64 {
    use kp_sync::atomic::{AtomicU64, Ordering};
    let total = SPLIT_WARMUP + SPLIT_WINDOW;
    let received = AtomicU64::new(0);
    std::thread::scope(|s| {
        let received = &received;
        s.spawn(move || {
            let mut h = q.register().unwrap();
            for i in 0..total {
                while i - received.load(Ordering::Acquire) >= SPLIT_CREDIT {
                    std::thread::yield_now();
                }
                h.enqueue(i);
            }
        });
        let consumer = s.spawn(move || {
            let mut h = q.register().unwrap();
            let mut mark = 0;
            for i in 0..total {
                if i == SPLIT_WARMUP {
                    mark = alloc_track::total_allocs();
                }
                let v = loop {
                    match h.dequeue() {
                        Some(v) => break v,
                        None => std::thread::yield_now(),
                    }
                };
                assert_eq!(v, i, "single-producer FIFO");
                received.store(i + 1, Ordering::Release);
            }
            (alloc_track::total_allocs() - mark) as u64
        });
        consumer.join().unwrap()
    })
}

/// Values per batch in the alternating case, and the number of turns
/// each thread takes before and inside the measured window.
const BATCH: usize = 256;
const BATCH_WARMUP_ROUNDS: u64 = 80;
const BATCH_ROUNDS: u64 = 400;

/// One thread `enqueue_batch`es `BATCH` values, then the other
/// `dequeue_batch`es them, turns passed through an atomic, for
/// `BATCH_WARMUP_ROUNDS + BATCH_ROUNDS` rounds; returns the
/// process-wide heap allocations across the last `BATCH_ROUNDS`.
fn alternating_batch_allocs(q: &WfQueue<u64>) -> u64 {
    use kp_sync::atomic::{AtomicU64, Ordering};
    let rounds = BATCH_WARMUP_ROUNDS + BATCH_ROUNDS;
    // Even: the producer's turn for round `turn / 2`; odd: the consumer's.
    let turn = AtomicU64::new(0);
    let wait_for = |t: u64| {
        while turn.load(Ordering::Acquire) != t {
            std::thread::yield_now();
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = q.register().unwrap();
            let mut batch = Vec::with_capacity(BATCH);
            for r in 0..rounds {
                wait_for(2 * r);
                let first = r * BATCH as u64;
                batch.extend(first..first + BATCH as u64);
                assert_eq!(h.enqueue_batch(&mut batch), BATCH);
                turn.store(2 * r + 1, Ordering::Release);
            }
        });
        let consumer = s.spawn(|| {
            let mut h = q.register().unwrap();
            let mut out = Vec::with_capacity(BATCH);
            let mut mark = 0;
            for r in 0..rounds {
                wait_for(2 * r + 1);
                if r == BATCH_WARMUP_ROUNDS {
                    mark = alloc_track::total_allocs();
                }
                out.clear();
                assert_eq!(h.dequeue_batch(&mut out, BATCH), BATCH);
                let first = r * BATCH as u64;
                assert!(
                    out.iter().copied().eq(first..first + BATCH as u64),
                    "batch FIFO"
                );
                turn.store(2 * r + 2, Ordering::Release);
            }
            (alloc_track::total_allocs() - mark) as u64
        });
        consumer.join().unwrap()
    })
}

/// Warm the queue with one full round, then count process-wide heap
/// allocations across a second, identical round. Thread spawn and
/// registration allocate, so the count is an over-approximation — fine
/// for the loose contended bounds above.
fn contended_window_allocs<Q>(q: &Q, threads: usize, per: u64) -> u64
where
    Q: kp_queue::ConcurrentQueue<u64> + Sync,
{
    use kp_queue::QueueHandle;
    for round in 0..2 {
        if round == 1 {
            ALLOC_MARK.store(alloc_track::total_allocs(), kp_sync::atomic::Ordering::Relaxed);
        }
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let mut h = q.register().unwrap();
                    for i in 0..per {
                        h.enqueue(i);
                        h.dequeue();
                    }
                });
            }
        });
    }
    (alloc_track::total_allocs() - ALLOC_MARK.load(kp_sync::atomic::Ordering::Relaxed)) as u64
}

static ALLOC_MARK: kp_sync::atomic::AtomicUsize = kp_sync::atomic::AtomicUsize::new(0);
