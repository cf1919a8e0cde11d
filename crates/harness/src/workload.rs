//! The paper's two benchmark workloads (§4), generic over any queue
//! implementing [`ConcurrentQueue`].

use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use queue_traits::{ConcurrentQueue, QueueHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::sched::{SchedPolicy, YIELD_EVERY};

/// The **enqueue-dequeue pairs** benchmark (Figures 7 and 9): starting
/// from an empty queue, each of `threads` workers performs `iters`
/// iterations of `enqueue(v); dequeue()`. Returns the total completion
/// time (barrier release to last worker done).
pub fn run_pairs<Q: ConcurrentQueue<u64>>(
    queue: &Q,
    threads: usize,
    iters: usize,
    sched: SchedPolicy,
) -> Duration {
    run_workload(queue, threads, sched, move |h, worker, yields| {
        for i in 0..iters {
            h.enqueue(encode(worker, i));
            std::hint::black_box(h.dequeue());
            maybe_yield(yields, i);
        }
    })
}

/// The **50% enqueues** benchmark (Figure 8): the queue is pre-filled
/// with `prefill` elements (1000 in the paper); each worker performs
/// `iters` operations, each chosen uniformly at random between enqueue
/// and dequeue. Returns the total completion time.
pub fn run_fifty_fifty<Q: ConcurrentQueue<u64>>(
    queue: &Q,
    threads: usize,
    iters: usize,
    prefill: usize,
    sched: SchedPolicy,
) -> Duration {
    {
        let mut h = queue.register().expect("prefill handle");
        for i in 0..prefill {
            h.enqueue(encode(usize::MAX & 0xFFFF, i));
        }
    }
    run_workload(queue, threads, sched, move |h, worker, yields| {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ worker as u64);
        for i in 0..iters {
            if rng.gen::<bool>() {
                h.enqueue(encode(worker, i));
            } else {
                std::hint::black_box(h.dequeue());
            }
            maybe_yield(yields, i);
        }
    })
}

/// Tags a value with its producer so correctness checks can attribute
/// it: high 16 bits worker, low 48 bits sequence.
pub fn encode(worker: usize, seq: usize) -> u64 {
    ((worker as u64 & 0xFFFF) << 48) | (seq as u64 & 0xFFFF_FFFF_FFFF)
}

#[inline]
fn maybe_yield(yields: bool, i: usize) {
    if yields && i % YIELD_EVERY == YIELD_EVERY - 1 {
        std::thread::yield_now();
    }
}

/// Spawns `threads` workers, applies the scheduling policy, releases
/// them through a barrier, and times until all are done.
///
/// The workers stamp the clock themselves (first start to last end):
/// a main-thread timestamp taken after its own barrier release is
/// wrong on an oversubscribed host, where every worker can run to
/// completion before the main thread is rescheduled, shrinking the
/// measured window to nearly zero.
fn run_workload<Q, F>(queue: &Q, threads: usize, sched: SchedPolicy, body: F) -> Duration
where
    Q: ConcurrentQueue<u64>,
    F: Fn(&mut Q::Handle<'_>, usize, bool) + Sync,
{
    assert!(threads > 0);
    let barrier = Barrier::new(threads);
    let body = &body;
    let span = Mutex::new(None::<(Instant, Instant)>);
    // `scope` joins every worker before returning.
    std::thread::scope(|s| {
        for worker in 0..threads {
            let barrier = &barrier;
            let span = &span;
            s.spawn(move || {
                sched.apply(worker);
                let mut h = queue.register().expect("worker registration");
                barrier.wait();
                let t0 = Instant::now();
                body(&mut h, worker, sched.yields());
                let t1 = Instant::now();
                let mut s = span.lock().unwrap();
                *s = Some(match *s {
                    None => (t0, t1),
                    Some((a, b)) => (a.min(t0), b.max(t1)),
                });
            });
        }
    });
    let (first, last) = span.into_inner().unwrap().expect("threads > 0");
    last - first
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_queue::MsQueue;

    #[test]
    fn encode_separates_workers() {
        assert_ne!(encode(0, 5), encode(1, 5));
        assert_eq!(encode(3, 9) >> 48, 3);
        assert_eq!(encode(3, 9) & 0xFFFF_FFFF_FFFF, 9);
    }

    #[test]
    fn pairs_leaves_queue_empty() {
        let q = MsQueue::new();
        let d = run_pairs(&q, 3, 2_000, SchedPolicy::Unpinned);
        assert!(d > Duration::ZERO);
        assert!(q.is_empty(), "each worker dequeues what it enqueued");
    }

    #[test]
    fn fifty_fifty_conserves_elements() {
        use queue_traits::QueueHandle as _;
        let q = MsQueue::new();
        let _ = run_fifty_fifty(&q, 2, 2_000, 100, SchedPolicy::Unpinned);
        // Elements = prefill + (enqueues - successful dequeues); we only
        // sanity-check the queue is still functional and bounded.
        let mut h = q.register().unwrap();
        let mut drained = 0;
        while h.dequeue().is_some() {
            drained += 1;
        }
        assert!(drained <= 100 + 2 * 2_000);
    }

    #[test]
    fn yielding_policy_runs() {
        let q = MsQueue::new();
        let _ = run_pairs(&q, 2, 500, SchedPolicy::Yielding);
        assert!(q.is_empty());
    }

    #[test]
    fn pinned_policy_runs() {
        let q = MsQueue::new();
        let _ = run_pairs(&q, 2, 500, SchedPolicy::Pinned);
        assert!(q.is_empty());
    }
}
