//! End-to-end linearizability checking: record real multi-threaded
//! histories from every queue implementation and verify them against
//! the sequential FIFO specification with the WGL checker.
//!
//! This is the testing counterpart of the paper's §5 proof. Histories
//! are kept small per round (the check is NP-hard) but many rounds run,
//! each with fresh interleavings.

use linearize::{check, History, Outcome, QueueModel, QueueOp, Recorder};
use queue_traits::{ConcurrentQueue, QueueHandle};

use kp_queue::{Config, WfQueue, WfQueueHp};
use ms_queue::{MsQueue, MsQueueHp, MutexQueue};
use wcq::{Config as WcqConfig, WcQueue};

/// Records one round: `threads` workers each perform `ops_per_thread`
/// operations (alternating enqueue-biased and dequeue-biased patterns),
/// returning the merged history.
fn record_round<Q: ConcurrentQueue<u64> + Sync>(
    queue: &Q,
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
) -> History<QueueOp> {
    let recorder = Recorder::new();
    let mut logs = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let recorder = &recorder;
                let queue = &queue;
                s.spawn(move || {
                    let mut h = queue.register().expect("register");
                    let mut log = recorder.log::<QueueOp>(t);
                    // Simple deterministic per-thread op pattern, varied
                    // by the seed so rounds explore different mixes.
                    let mut x = seed ^ (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                    for i in 0..ops_per_thread {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if x % 100 < 55 {
                            let v = ((t as u64) << 32) | i as u64;
                            log.record(|| h.enqueue(v), |_| QueueOp::Enqueue(v));
                        } else {
                            log.record(|| h.dequeue(), |r| QueueOp::Dequeue(*r));
                        }
                    }
                    log
                })
            })
            .collect();
        for h in handles {
            logs.push(h.join().unwrap());
        }
    });
    History::from_logs(logs)
}

fn assert_linearizable<Q: ConcurrentQueue<u64> + Sync>(make: impl Fn() -> Q, name: &str) {
    const ROUNDS: usize = 25;
    const THREADS: usize = 3;
    const OPS: usize = 10;
    for round in 0..ROUNDS {
        let queue = make();
        let history = record_round(&queue, THREADS, OPS, round as u64 * 7919 + 1);
        assert!(history.validate_stamps());
        match check(&QueueModel, &history) {
            Outcome::Linearizable => {}
            Outcome::NotLinearizable => panic!(
                "{name}: round {round} produced a NON-LINEARIZABLE history:\n{:#?}",
                history.ops()
            ),
            Outcome::Unknown => panic!(
                "{name}: round {round} exhausted the checker budget (shrink the round)"
            ),
        }
    }
}

#[test]
fn ms_queue_epoch_is_linearizable() {
    assert_linearizable(MsQueue::<u64>::new, "MsQueue");
}

#[test]
fn ms_queue_hp_is_linearizable() {
    assert_linearizable(MsQueueHp::<u64>::new, "MsQueueHp");
}

#[test]
fn mutex_queue_is_linearizable() {
    assert_linearizable(MutexQueue::<u64>::new, "MutexQueue");
}

#[test]
fn wf_base_is_linearizable() {
    assert_linearizable(|| WfQueue::with_config(4, Config::base()), "WfQueue(base)");
}

#[test]
fn wf_opt1_is_linearizable() {
    assert_linearizable(|| WfQueue::with_config(4, Config::opt1()), "WfQueue(opt1)");
}

#[test]
fn wf_opt2_is_linearizable() {
    assert_linearizable(|| WfQueue::with_config(4, Config::opt2()), "WfQueue(opt2)");
}

#[test]
fn wf_opt_both_is_linearizable() {
    assert_linearizable(
        || WfQueue::with_config(4, Config::opt_both()),
        "WfQueue(opt1+2)",
    );
}

#[test]
fn wf_hazard_pointer_is_linearizable() {
    // The §3.4 variant: same algorithm, wait-free reclamation, value
    // couriered through the descriptor.
    assert_linearizable(
        || WfQueueHp::with_config(4, Config::base()),
        "WfQueueHp(base)",
    );
    assert_linearizable(
        || WfQueueHp::with_config(4, Config::opt_both()),
        "WfQueueHp(opt1+2)",
    );
}

/// Descriptor/node-reuse churn: heavier per-thread op counts than the
/// default rounds, so each thread recycles its state-slot descriptor
/// (version bump per operation) and the node caches serve recycled
/// nodes many times *within one checked history*. A version-tag bug
/// that let a stale helper CAS replay a step, or a node republished
/// before its reader finished, would surface here as a duplicated or
/// invented value that the checker rejects.
#[test]
fn wf_reuse_churn_is_linearizable() {
    const ROUNDS: usize = 6;
    const THREADS: usize = 3;
    const OPS: usize = 20;
    for round in 0..ROUNDS {
        let seed = round as u64 * 104_729 + 13;
        let q = WfQueue::<u64>::with_config(THREADS, Config::opt_both());
        let history = record_round(&q, THREADS, OPS, seed);
        assert!(history.validate_stamps());
        assert_eq!(
            check(&QueueModel, &history),
            Outcome::Linearizable,
            "WfQueue(reuse) round {round}"
        );
        let q = WfQueueHp::<u64>::with_config(THREADS, Config::opt_both());
        let history = record_round(&q, THREADS, OPS, seed);
        assert!(history.validate_stamps());
        assert_eq!(
            check(&QueueModel, &history),
            Outcome::Linearizable,
            "WfQueueHp(reuse) round {round}"
        );
    }
}

/// Fast-path/slow-path interleaving (DESIGN.md §12): half the handles
/// run the bounded lock-free fast path (odd tids), half are pinned to
/// the descriptor slow path (`set_fast_path(0)`, even tids), so every
/// checked history mixes raw MS CASes with helped descriptor-driven
/// ops on the same queue. A fast append the helpers fail to linearize
/// consistently, or a fast `deqTid` lock racing a helper's staged
/// dequeue, shows up here as a value duplicated, invented, or
/// reordered past the FIFO spec. A macro rather than a generic helper:
/// `set_fast_path` lives on the concrete handle types, not the trait.
macro_rules! record_mixed_round {
    ($queue:expr, $threads:expr, $ops:expr, $seed:expr) => {{
        let queue = $queue;
        let (threads, ops_per_thread, seed) = ($threads, $ops, $seed);
        let recorder = Recorder::new();
        let mut logs = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let recorder = &recorder;
                    let queue = &queue;
                    s.spawn(move || {
                        let mut h = queue.register().expect("register");
                        if t % 2 == 0 {
                            h.set_fast_path(0); // slow-path-only handle
                        }
                        let mut log = recorder.log::<QueueOp>(t);
                        let mut x = seed ^ (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                        for i in 0..ops_per_thread {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            if x % 100 < 55 {
                                let v = ((t as u64) << 32) | i as u64;
                                log.record(|| h.enqueue(v), |_| QueueOp::Enqueue(v));
                            } else {
                                log.record(|| h.dequeue(), |r| QueueOp::Dequeue(*r));
                            }
                        }
                        log
                    })
                })
                .collect();
            for h in handles {
                logs.push(h.join().unwrap());
            }
        });
        History::from_logs(logs)
    }};
}

#[test]
fn wf_fast_path_mixed_handles_are_linearizable() {
    const ROUNDS: usize = 12;
    const THREADS: usize = 4;
    const OPS: usize = 10;
    for round in 0..ROUNDS {
        let seed = round as u64 * 6151 + 3;
        let history = record_mixed_round!(
            WfQueue::<u64>::with_config(THREADS, Config::fast()),
            THREADS,
            OPS,
            seed
        );
        assert!(history.validate_stamps());
        assert_eq!(
            check(&QueueModel, &history),
            Outcome::Linearizable,
            "WfQueue(fast, mixed handles) round {round}"
        );
        let history = record_mixed_round!(
            WfQueueHp::<u64>::with_config(THREADS, Config::fast()),
            THREADS,
            OPS,
            seed
        );
        assert!(history.validate_stamps());
        assert_eq!(
            check(&QueueModel, &history),
            Outcome::Linearizable,
            "WfQueueHp(fast, mixed handles) round {round}"
        );
    }
}

/// A starvation-prone mix: one fast handle with patience 1 against
/// slow-path peers, so the demotion paths (budget exhaustion *and*
/// starvation peek) both fire inside checked histories.
#[test]
fn wf_fast_path_low_patience_is_linearizable() {
    const ROUNDS: usize = 8;
    const THREADS: usize = 3;
    const OPS: usize = 10;
    for round in 0..ROUNDS {
        let seed = round as u64 * 31_337 + 11;
        let cfg = Config::fast().with_fast_path(1).with_starvation_patience(1);
        let history =
            record_mixed_round!(WfQueue::<u64>::with_config(THREADS, cfg), THREADS, OPS, seed);
        assert!(history.validate_stamps());
        assert_eq!(
            check(&QueueModel, &history),
            Outcome::Linearizable,
            "WfQueue(fast, patience 1) round {round}"
        );
    }
}

/// The wCQ ring engine (DESIGN.md §14) against the same FIFO spec.
/// Capacity 64 exceeds any possible backlog of these rounds, so the
/// blocking `enqueue` never waits and histories cannot deadlock.
#[test]
fn wcq_is_linearizable() {
    assert_linearizable(
        || WcQueue::with_config(4, WcqConfig::new().with_capacity(64)),
        "WcQueue",
    );
}

/// Patience 0 pins every ring operation to the helping slow path, so
/// each checked history is made of published records driven by
/// whichever thread gets there first — the wait-free machinery with no
/// fast-path ops diluting coverage.
#[test]
fn wcq_slow_path_is_linearizable() {
    assert_linearizable(
        || WcQueue::with_config(4, WcqConfig::slow_only().with_capacity(64)),
        "WcQueue(slow-only)",
    );
}

/// Ring-churn rounds: a 4-slot ring under op counts that lap it many
/// times over, so entry cycle tags advance far within one checked
/// history and the full-queue path fires constantly. `try_enqueue`
/// rejections are no-ops on the queue state and are not recorded
/// (recording a blocking `enqueue` could deadlock a full ring with
/// every thread producing).
#[test]
fn wcq_tiny_ring_churn_is_linearizable() {
    const ROUNDS: usize = 8;
    const THREADS: usize = 3;
    const OPS: usize = 30;
    type MkConfig = fn() -> WcqConfig;
    let configs: [(MkConfig, &str); 2] = [
        (|| WcqConfig::new().with_capacity(4), "default"),
        (|| WcqConfig::slow_only().with_capacity(4), "slow-only"),
    ];
    for (cfg, label) in configs {
        for round in 0..ROUNDS {
            let seed = round as u64 * 92_821 + 5;
            let q = WcQueue::<u64>::with_config(THREADS, cfg());
            let recorder = Recorder::new();
            let mut records = Vec::new();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let recorder = &recorder;
                        let q = &q;
                        s.spawn(move || {
                            let mut h = q.register().expect("register");
                            let mut recs = Vec::new();
                            let mut x = seed ^ (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                            for i in 0..OPS {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                if x % 100 < 55 {
                                    let v = ((t as u64) << 32) | i as u64;
                                    let invoke = recorder.stamp();
                                    let accepted = h.try_enqueue(v).is_ok();
                                    let ret = recorder.stamp();
                                    if accepted {
                                        recs.push(linearize::OpRecord {
                                            thread: t,
                                            op: QueueOp::Enqueue(v),
                                            invoke,
                                            ret,
                                        });
                                    }
                                } else {
                                    let invoke = recorder.stamp();
                                    let r = h.dequeue();
                                    let ret = recorder.stamp();
                                    recs.push(linearize::OpRecord {
                                        thread: t,
                                        op: QueueOp::Dequeue(r),
                                        invoke,
                                        ret,
                                    });
                                }
                            }
                            recs
                        })
                    })
                    .collect();
                for h in handles {
                    records.extend(h.join().unwrap());
                }
            });
            let history = History::from_records(records);
            assert!(history.validate_stamps());
            assert_eq!(
                check(&QueueModel, &history),
                Outcome::Linearizable,
                "WcQueue({label}, tiny ring) round {round}"
            );
        }
    }
}

#[test]
fn wf_with_validation_is_linearizable() {
    assert_linearizable(
        || WfQueue::with_config(4, Config::opt_both().with_validation()),
        "WfQueue(opt1+2+validate)",
    );
}

/// Meta-test: the machinery catches an actually broken "queue" (a
/// stack), guarding against a vacuously green checker integration.
#[test]
fn checker_rejects_a_stack_masquerading_as_a_queue() {
    use parking_lot::Mutex;

    struct LifoQueue(Mutex<Vec<u64>>);
    struct LifoHandle<'q>(&'q LifoQueue);
    impl QueueHandle<u64> for LifoHandle<'_> {
        fn enqueue(&mut self, v: u64) {
            self.0 .0.lock().push(v);
        }
        fn dequeue(&mut self) -> Option<u64> {
            self.0 .0.lock().pop() // LIFO: wrong
        }
    }
    impl ConcurrentQueue<u64> for LifoQueue {
        type Handle<'a> = LifoHandle<'a>;
        fn register(&self) -> Result<LifoHandle<'_>, queue_traits::RegistrationError> {
            Ok(LifoHandle(self))
        }
    }

    // A single-threaded round suffices: enq a, enq b, deq must be b for
    // a stack, which the FIFO model rejects.
    let q = LifoQueue(Mutex::new(Vec::new()));
    let recorder = Recorder::new();
    let mut log = recorder.log::<QueueOp>(0);
    let mut h = q.register().unwrap();
    log.record(|| h.enqueue(1), |_| QueueOp::Enqueue(1));
    log.record(|| h.enqueue(2), |_| QueueOp::Enqueue(2));
    log.record(|| h.dequeue(), |r| QueueOp::Dequeue(*r));
    let history = History::from_logs([log]);
    assert_eq!(check(&QueueModel, &history), Outcome::NotLinearizable);
}
