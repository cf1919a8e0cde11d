//! Chaos torture suite: deterministic fault injection against the
//! wait-free queue. Compiled only with `--features chaos`, which turns
//! the `inject!` sites inside kp-queue/idpool/hazard into calls into the
//! `chaos` crate.
//!
//! Three classes of schedule are forced here that no friendly OS
//! scheduler produces on its own:
//!
//! * **Thread crashes mid-operation** (`Action::Kill` unwinds a
//!   [`chaos::ChaosKill`] out of the operation at a named atomic step).
//!   The paper's §3.3 exit discussion requires the survivors to finish
//!   the dead thread's operation and its virtual ID to be reusable.
//! * **Stalled helpers** (`Action::Stall` parks a thread between two
//!   atomic steps) — the schedules the helping protocol and Michael's
//!   hazard-pointer validate loop exist to survive.
//! * **Yield storms** scrambling every interleaving in between.
//!
//! Each test also feeds the wait-freedom watchdog: `chaos` counts the
//! instrumented shared-memory steps of every completed operation, and
//! [`chaos::Report::assert_linear_bound`] checks the worst case stayed
//! within a budget linear in the thread count (the paper's O(n) claim,
//! checked empirically — valid for the `Cyclic{chunk}` helping policy
//! used below; `ScanAll` would be O(n²)).

#![cfg(feature = "chaos")]

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, Once};

use std::time::Duration;

use chaos::{ChaosKill, FaultPlan, ThreadSel};
use kp_channel::{
    Channel, ChannelConfig, HealthState, OverloadConfig, RecvTimeoutError, SendTimeoutError,
};
use kp_queue::{Config, ConcurrentQueue, WfQueue, WfQueueHp};
use linearize::{check, History, Outcome, QueueModel, QueueOp, Recorder};
use queue_traits::{testing, QueueHandle};
use wcq::{Config as WcqConfig, WcQueue};

/// Planned kills unwind as panics; silence their default backtrace spam
/// (real panics still print). Installed once per test binary.
fn quiet_chaos_kills() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ChaosKill>().is_none() {
                default(info);
            }
        }));
    });
}

/// Checks consumer batches against what the producers actually attempted
/// (in enqueue order, tagged `p * per + i`): nothing invented, nothing
/// duplicated, per-producer FIFO within each batch, and at most
/// `allowed_missing` values unaccounted for (a killed dequeuer's exit
/// cleanup consumes-and-discards at most one value per kill).
fn verify_consumed(
    batches: &[Vec<u64>],
    attempted: &[Vec<u64>],
    per: usize,
    allowed_missing: usize,
) {
    let mut live: HashSet<u64> = HashSet::new();
    for a in attempted {
        live.extend(a.iter().copied());
    }
    let mut seen: HashSet<u64> = HashSet::new();
    for batch in batches {
        let mut last = vec![None::<u64>; attempted.len()];
        for &v in batch {
            assert!(live.contains(&v), "invented value {v}");
            assert!(seen.insert(v), "value {v} dequeued twice");
            let p = (v as usize) / per;
            if let Some(prev) = last[p] {
                assert!(
                    prev < v,
                    "per-producer FIFO violated: {prev} before {v} (producer {p})"
                );
            }
            last[p] = Some(v);
        }
    }
    let missing = live.len() - seen.len();
    assert!(
        missing <= allowed_missing,
        "{missing} values unaccounted for (at most {allowed_missing} allowed)"
    );
}

/// One crash-torture round, shared by the epoch and hazard-pointer
/// variants (`$queue` constructs the queue, `$kill_site` names the
/// instrumented step the victim dies at).
///
/// Four threads take roles by virtual ID: tids 1 and 2 produce, tids 0
/// and 3 consume; the plan kills tid 0 at `$kill_site`. Survivors must
/// finish every operation, the ledger must balance (minus at most one
/// value the victim's exit cleanup discarded), the victim's virtual ID
/// must be re-acquirable, and the watchdog budget must hold.
///
/// With `lag_tail = true` (KP queues only) the victim producer leaves a
/// lagging tail with `fast_append_unswung` before each of its enqueues,
/// so a budget-1 fast enqueue demotes on every turn instead of only on
/// organic interference (see the mid-demotion tests).
macro_rules! kill_torture_round {
    ($queue:expr, $kill_site:literal, $kill_victim:expr, $allow_missing_per_kill:expr) => {
        kill_torture_round!(
            $queue,
            $kill_site,
            $kill_victim,
            $allow_missing_per_kill,
            per = testing::scaled(3_000)
        )
    };
    ($queue:expr, $kill_site:literal, $kill_victim:expr, $allow_missing_per_kill:expr,
     per = $per:expr $(, lag_tail = $lag_tail:expr)?) => {{
        quiet_chaos_kills();
        const N: usize = 4;
        let per = $per;
        let session = chaos::install(
            FaultPlan::new()
                .kill($kill_site, ThreadSel::Id($kill_victim), 2)
                .with_storm(9, 1),
        );
        let q = $queue;
        // Values survive the victim's panic: consumers push each dequeued
        // value into a shared sink immediately, producers record each
        // value just before attempting its enqueue.
        let sinks: Vec<Mutex<Vec<u64>>> = (0..N).map(|_| Mutex::new(Vec::new())).collect();
        let attempted: Vec<Mutex<Vec<u64>>> = (0..2).map(|_| Mutex::new(Vec::new())).collect();
        let barrier = Barrier::new(N);
        let mut kill_count = 0usize;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    let q = &q;
                    let sinks = &sinks;
                    let attempted = &attempted;
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut h = q.register().expect("register");
                        let tid = h.tid();
                        let _token = chaos::register_thread(tid);
                        barrier.wait();
                        match tid {
                            1 | 2 => {
                                let p = tid - 1;
                                for i in 0..per {
                                    let v = (p * per + i) as u64;
                                    attempted[p].lock().unwrap().push(v);
                                    $(
                                        // Even values append without the
                                        // tail swing; the odd enqueue
                                        // after each one finds the tail
                                        // lagging and demotes.
                                        if $lag_tail && tid == $kill_victim && i % 2 == 0 {
                                            h.fast_append_unswung(v);
                                            continue;
                                        }
                                    )?
                                    h.enqueue(v);
                                }
                            }
                            _ => {
                                for _ in 0..3 * per {
                                    if let Some(v) = h.dequeue() {
                                        sinks[tid].lock().unwrap().push(v);
                                    } else {
                                        std::thread::yield_now();
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                if let Err(e) = h.join() {
                    let kill = e
                        .downcast_ref::<ChaosKill>()
                        .expect("only the planned kill may escape a worker");
                    assert_eq!(kill.thread, $kill_victim, "kill hit the planned victim");
                    assert_eq!(kill.site, $kill_site);
                    kill_count += 1;
                }
            }
        });
        let report = session.report();
        assert_eq!(kill_count, 1, "exactly one planned death");
        assert_eq!(report.kills, 1);

        // §3.3 long-lived renaming: the victim's virtual ID (and, for the
        // HP variant, its hazard record) must be reclaimable — all N
        // slots acquirable at once after the crash.
        let mut survivors: Vec<_> = (0..N)
            .map(|_| q.register().expect("every slot reclaimable after a crash"))
            .collect();
        let mut drain = Vec::new();
        while let Some(v) = survivors[0].dequeue() {
            drain.push(v);
        }
        drop(survivors);

        let mut batches: Vec<Vec<u64>> = sinks
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        batches.push(drain);
        let attempted: Vec<Vec<u64>> = attempted
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        verify_consumed(
            &batches,
            &attempted,
            per,
            $allow_missing_per_kill * report.kills as usize,
        );

        assert!(report.ops > 0, "watchdog saw completed operations");
        // Empirical wait-freedom: worst completed op stayed within a
        // budget linear in the thread count. Constants calibrated with
        // ~4x headroom over observed maxima for Cyclic{1} helping.
        report.assert_linear_bound(N, 400, 200);
        report
    }};
}

/// The acceptance scenario: a dequeuer dies **between dequeue step 1
/// (lock-sentinel, the L135 `deqTid` CAS) and step 2 (clear-pending)**.
/// The `kp.clear_pending.deq` site sits exactly in that window — it is
/// reached only after a locked sentinel was observed.
#[test]
fn epoch_dequeuer_killed_between_lock_sentinel_and_clear_pending() {
    let report = kill_torture_round!(
        WfQueue::<u64>::with_config(4, Config::opt_both()),
        "kp.clear_pending.deq",
        0,
        1 // the victim's exit cleanup may consume-and-discard one value
    );
    assert!(report.total_steps > 0);
}

/// An enqueuer dies at the swing-tail step (enqueue step 3, L94). Its
/// in-flight value was already published in its descriptor, so the exit
/// cleanup (or a helper) must make it land: **zero** values may go
/// missing.
#[test]
fn epoch_enqueuer_killed_at_swing_tail_loses_nothing() {
    kill_torture_round!(
        WfQueue::<u64>::with_config(4, Config::opt_both()),
        "kp.swing_tail",
        1, // tid 1 is a producer
        0
    );
}

/// Same acceptance window on the §3.4 hazard-pointer variant. The
/// allowance is one value per kill: beyond the exit-cleanup discard, a
/// kill landing after helpers completed the victim's dequeue but before
/// the victim read the couriered value out of its descriptor leaks that
/// value (documented in DESIGN.md).
#[test]
fn hp_dequeuer_killed_between_lock_sentinel_and_clear_pending() {
    kill_torture_round!(
        WfQueueHp::<u64>::with_config(4, Config::opt_both()),
        "kp_hp.clear_pending.deq",
        0,
        1
    );
}

#[test]
fn hp_enqueuer_killed_at_swing_tail_loses_nothing() {
    kill_torture_round!(
        WfQueueHp::<u64>::with_config(4, Config::opt_both()),
        "kp_hp.swing_tail",
        1,
        0
    );
}

/// A producer dies **mid-demotion**: its fast-path budget is exhausted
/// (budget 1 makes any interference — a lagging tail, a lost append
/// race — demote), the private node has just been rebranded from
/// `FAST_ENQUEUER` to the real tid, and the `kp.fast.demote` site fires
/// *before* the descriptor publish. Killing there leaves a value that
/// was recorded as attempted but never entered the queue — the one
/// legal loss — while the shared structures hold no trace of the op, so
/// survivors must be completely unaffected.
#[test]
fn epoch_enqueuer_killed_mid_demotion() {
    // Organic interference alone can reach the demote site fewer times
    // than the plan's hit index, so the kill would never land: the
    // victim leaves a lagging tail before each enqueue, and the budget-1
    // fast attempt spends its one iteration swinging it and demotes.
    kill_torture_round!(
        WfQueue::<u64>::with_config(4, Config::fast().with_fast_path(1)),
        "kp.fast.demote",
        1, // tid 1 is a producer
        1, // its rebranded-but-unpublished value may vanish
        per = 3_000,
        lag_tail = true
    );
}

/// The same window on the hazard-pointer variant: the rebranded node
/// came from the node pool and dies with the victim (leaked, never
/// published), so beyond that one value the ledger must balance.
#[test]
fn hp_enqueuer_killed_mid_demotion() {
    // A lagging tail before each enqueue, as in the epoch variant above.
    kill_torture_round!(
        WfQueueHp::<u64>::with_config(4, Config::fast().with_fast_path(1)),
        "kp_hp.fast.demote",
        1,
        1,
        per = 3_000,
        lag_tail = true
    );
}

/// Every instrumented epoch-variant site, for seeded plans.
const EPOCH_SITES: &[&str] = &[
    "kp.publish",
    "kp.append",
    "kp.clear_pending.enq",
    "kp.swing_tail",
    "kp.bind_sentinel",
    "kp.lock_sentinel",
    "kp.clear_pending.deq",
    "kp.clear_pending.deq_empty",
    "kp.swing_head",
    "idpool.acquire",
    "idpool.release",
];

/// The epoch sites plus the five fast-path sites (DESIGN.md §12), for
/// seeded plans against a fast-path config.
const EPOCH_FAST_SITES: &[&str] = &[
    "kp.publish",
    "kp.append",
    "kp.clear_pending.enq",
    "kp.swing_tail",
    "kp.bind_sentinel",
    "kp.lock_sentinel",
    "kp.clear_pending.deq",
    "kp.clear_pending.deq_empty",
    "kp.swing_head",
    "kp.fast.enq",
    "kp.fast.swing_tail",
    "kp.fast.deq",
    "kp.fast.swing_head",
    "kp.fast.demote",
    "idpool.acquire",
    "idpool.release",
];

/// Records one small history on a chaos-registered thread group and
/// checks it against the sequential FIFO model (WGL checker). A macro
/// rather than a fn so it works for every engine whose handle exposes
/// an inherent `tid()` (KP epoch/HP and wCQ).
macro_rules! record_and_check {
    ($q:expr, $threads:expr, $ops:expr, $seed:expr) => {{
        let q = $q;
        let threads: usize = $threads;
        let ops: usize = $ops;
        let seed: u64 = $seed;
        let recorder = Recorder::new();
        let mut logs = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let recorder = &recorder;
                    s.spawn(move || {
                        let mut h = q.register().expect("register");
                        let _token = chaos::register_thread(h.tid());
                        let mut log = recorder.log::<QueueOp>(t);
                        let mut x = seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        for i in 0..ops {
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
        let history = History::from_logs(logs);
        assert!(history.validate_stamps());
        match check(&QueueModel, &history) {
            Outcome::Linearizable => {}
            Outcome::NotLinearizable => panic!(
                "seed {seed}: adversarial schedule produced a NON-LINEARIZABLE history:\n{:#?}",
                history.ops()
            ),
            Outcome::Unknown => panic!("seed {seed}: checker budget exhausted"),
        }
    }};
}

/// Linearizability under seeded adversarial stall plans: the same seed
/// always derives the same stall schedule ([`FaultPlan::seeded`]), so a
/// failure here is replayable by seed alone. The seed matrix is the one
/// `scripts/torture.sh` sweeps.
#[test]
fn linearizable_under_seeded_adversarial_stalls() {
    quiet_chaos_kills();
    const THREADS: usize = 3;
    for seed in [1u64, 7, 42, 1337, 0x5EED] {
        let session = chaos::install(FaultPlan::seeded(seed, EPOCH_SITES, THREADS, 10));
        for round in 0..8 {
            // Fresh queue per round: each checked history must be
            // self-contained (no values left over from a previous round).
            let q: WfQueue<u64> = WfQueue::with_config(THREADS, Config::opt_both());
            record_and_check!(&q, THREADS, 12, seed.wrapping_mul(6364136223846793005).wrapping_add(round));
        }
        let report = session.report();
        assert!(report.stalls > 0, "seeded plan must actually stall (seed {seed})");
        report.assert_linear_bound(THREADS, 400, 200);
    }
}

/// The same seeded adversarial stalls against the fast-path config: the
/// plans may now park threads inside the fast windows too (between the
/// fast append and its tail swing, between the fast `deqTid` lock and
/// its head swing, mid-demotion), and every history must still
/// linearize with fast and helped ops interleaved on one queue.
#[test]
fn linearizable_under_seeded_adversarial_stalls_fast_path() {
    quiet_chaos_kills();
    const THREADS: usize = 3;
    for seed in [3u64, 23, 4242, 0xFA57] {
        let session = chaos::install(FaultPlan::seeded(seed, EPOCH_FAST_SITES, THREADS, 10));
        for round in 0..6 {
            let q: WfQueue<u64> =
                WfQueue::with_config(THREADS, Config::fast().with_fast_path(2));
            record_and_check!(&q, THREADS, 12, seed.wrapping_mul(6364136223846793005).wrapping_add(round));
        }
        let report = session.report();
        assert!(report.stalls > 0, "seeded plan must actually stall (seed {seed})");
        report.assert_linear_bound(THREADS, 400, 200);
    }
}

/// A stalled reader parked inside Michael's protect/validate window must
/// neither be handed a reclaimed node nor let the writer's retired list
/// grow without bound. The stall sits exactly between the hazard store
/// and its validation load (`hazard.protect.validate`).
#[test]
fn stalled_hazard_reader_keeps_memory_bounded() {
    quiet_chaos_kills();
    const MAGIC: u64 = 0xFEED_FACE_CAFE_BEEF;
    let session = chaos::install(
        FaultPlan::new()
            .stall("hazard.protect.validate", ThreadSel::Id(0), 1, 40)
            .stall("hazard.protect.validate", ThreadSel::Id(0), 5, 40)
            .with_storm(6, 1),
    );
    let domain = hazard::Domain::new(1);
    let shared: AtomicPtr<AtomicU64> = AtomicPtr::new(Box::into_raw(Box::new(AtomicU64::new(MAGIC))));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            // Reader: protect the current node and read through it.
            let _token = chaos::register_thread(0);
            let p = domain.enter();
            while !stop.load(Ordering::SeqCst) {
                let ptr = p.protect(0, &shared);
                if !ptr.is_null() {
                    // A protected node is alive even if already unlinked.
                    let v = unsafe { (*ptr).load(Ordering::SeqCst) };
                    assert_eq!(v, MAGIC, "protected node was reclaimed under us");
                }
                p.clear(0);
            }
        });
        s.spawn(|| {
            // Writer: unlink-and-retire at full speed.
            let _token = chaos::register_thread(1);
            let mut p = domain.enter();
            let bound = (2 * domain.total_slots()).max(64);
            for _ in 0..testing::scaled(30_000) {
                let fresh = Box::into_raw(Box::new(AtomicU64::new(MAGIC)));
                let old = shared.swap(fresh, Ordering::SeqCst);
                // SAFETY: `old` was just unlinked and is retired once.
                unsafe { p.retire(old) };
                assert!(
                    p.retired_len() <= bound,
                    "retired list exceeded Michael's R = max(2H, 64) bound"
                );
            }
            assert!(p.reclaimed() > 0, "reclamation made progress despite the stalled reader");
            stop.store(true, Ordering::SeqCst);
        });
    });
    let report = session.report();
    assert!(report.stalls >= 2, "the validate-window stalls fired");
    // Last node out.
    let last = shared.swap(std::ptr::null_mut(), Ordering::SeqCst);
    drop(unsafe { Box::from_raw(last) });
}

/// One descriptor-reuse ABA round: thread 0 is parked for a long window
/// exactly between reading a descriptor word and attempting the step
/// CAS on it (the `append`/`lock_sentinel` sites sit in that window).
/// While it sleeps, the other threads churn through operations, so the
/// slot it read from is completed, reset, and republished many times —
/// its version tag climbing with every recycle. When the helper wakes,
/// its CAS carries the *old* version: with alloc-per-transition
/// descriptors the stale pointer could never be confused with a fresh
/// one (fresh allocation ⇒ fresh address), but with in-place slot reuse
/// only the packed version tag stands between the stale CAS and
/// replaying a completed step onto a brand-new operation. A replayed
/// append/lock shows up as a duplicated or lost value, which the WGL
/// linearizability check rejects.
macro_rules! reuse_aba_round {
    ($mk_queue:expr, $append_site:literal, $lock_site:literal) => {{
        quiet_chaos_kills();
        const THREADS: usize = 3;
        for (hit, yields) in [(2u64, 150u32), (5, 400)] {
            let session = chaos::install(
                FaultPlan::new()
                    .stall($append_site, ThreadSel::Id(0), hit, yields)
                    .stall($lock_site, ThreadSel::Id(0), hit + 1, yields)
                    .with_storm(7, 1),
            );
            for round in 0..4u64 {
                let q = $mk_queue;
                let recorder = Recorder::new();
                let mut logs = Vec::new();
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..THREADS)
                        .map(|t| {
                            let recorder = &recorder;
                            let q = &q;
                            s.spawn(move || {
                                let mut h = q.register().expect("register");
                                let _token = chaos::register_thread(h.tid());
                                let mut log = recorder.log::<QueueOp>(t);
                                let mut x = (round + 1) ^ (t as u64 + 1) * 0x9E37;
                                for i in 0..16 {
                                    x ^= x << 13;
                                    x ^= x >> 7;
                                    x ^= x << 17;
                                    if x % 100 < 50 {
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
                let history = History::from_logs(logs);
                assert!(history.validate_stamps());
                match check(&QueueModel, &history) {
                    Outcome::Linearizable => {}
                    Outcome::NotLinearizable => panic!(
                        "stale descriptor CAS replayed a step (round {round}):\n{:#?}",
                        history.ops()
                    ),
                    Outcome::Unknown => panic!("checker budget exhausted"),
                }
            }
            let report = session.report();
            assert!(
                report.stalls > 0,
                "the descriptor-window stall must actually fire"
            );
        }
    }};
}

/// Epoch variant: stalled helper vs recycled descriptor cell. Uses the
/// `ScanAll` base config so thread 0 passes the instrumented window
/// while helping peers, not only while driving its own op.
#[test]
fn epoch_stale_helper_cas_defeated_by_version_tag() {
    reuse_aba_round!(
        WfQueue::<u64>::with_config(3, Config::base()),
        "kp.append",
        "kp.lock_sentinel"
    );
}

/// Hazard-pointer variant of the same ABA window. Node recycling adds a
/// second hazard here: the node address packed into the stale word may
/// have been pooled and republished under a *different* operation, so a
/// successful stale CAS would graft an old node onto a new op. The
/// version tag must reject it identically.
#[test]
fn hp_stale_helper_cas_defeated_by_version_tag() {
    reuse_aba_round!(
        WfQueueHp::<u64>::with_config(3, Config::base()),
        "kp_hp.append",
        "kp_hp.lock_sentinel"
    );
}

/// Deterministic replay: the same plan against the same workload gives
/// the same kill site and ledger shape. (The schedule itself is still
/// OS-dependent; what must be stable is which rule fires and that every
/// run survives it.)
#[test]
fn kill_plans_replay_across_runs() {
    for _ in 0..3 {
        kill_torture_round!(
            WfQueue::<u64>::with_config(4, Config::opt_both()),
            "kp.clear_pending.deq",
            0,
            1
        );
    }
}

// ---------------------------------------------------------------------
// panic-unwind safety (DESIGN.md §13): after a kill unwinds out of an
// operation, the SAME handle must keep working
// ---------------------------------------------------------------------

/// One unwind-reuse round: every thread runs a mixed workload with each
/// operation wrapped in `catch_unwind`, and the plan kills **every**
/// thread once at `$site` (per-thread occurrence counting makes
/// `ThreadSel::Any` fire per thread). A caught kill is not a death
/// here: the thread keeps using the handle it was killed with, so this
/// checks the operation guards restore every handle invariant — the
/// ledger must balance minus at most one value per kill (an enqueue
/// killed before its publish, or a dequeue whose claimed value unwound
/// away), with nothing invented, duplicated, or reordered.
macro_rules! unwind_reuse_round {
    ($queue:expr, $site:expr) => {{
        quiet_chaos_kills();
        const N: usize = 3;
        let per = testing::scaled(1_200);
        let session = chaos::install(
            FaultPlan::new()
                .kill($site, ThreadSel::Any, 2)
                .with_storm(11, 1),
        );
        let q = $queue;
        let sinks: Vec<Mutex<Vec<u64>>> = (0..N).map(|_| Mutex::new(Vec::new())).collect();
        let attempted: Vec<Mutex<Vec<u64>>> = (0..N).map(|_| Mutex::new(Vec::new())).collect();
        let kills = AtomicU64::new(0);
        let barrier = Barrier::new(N);
        std::thread::scope(|s| {
            for _ in 0..N {
                let q = &q;
                let sinks = &sinks;
                let attempted = &attempted;
                let barrier = &barrier;
                let kills = &kills;
                s.spawn(move || {
                    let mut h = q.register().expect("register");
                    let tid = h.tid();
                    let _token = chaos::register_thread(tid);
                    barrier.wait();
                    for i in 0..per {
                        let v = (tid * per + i) as u64;
                        attempted[tid].lock().unwrap().push(v);
                        if let Err(e) = catch_unwind(AssertUnwindSafe(|| h.enqueue(v))) {
                            assert!(
                                e.downcast_ref::<ChaosKill>().is_some(),
                                "only planned kills may escape an operation"
                            );
                            kills.fetch_add(1, Ordering::Relaxed);
                        }
                        // Two dequeues per enqueue keep the queue near
                        // empty, so the empty-dequeue sites fire too.
                        for _ in 0..2 {
                            match catch_unwind(AssertUnwindSafe(|| h.dequeue())) {
                                Ok(Some(v)) => sinks[tid].lock().unwrap().push(v),
                                Ok(None) => {}
                                Err(e) => {
                                    assert!(
                                        e.downcast_ref::<ChaosKill>().is_some(),
                                        "only planned kills may escape an operation"
                                    );
                                    kills.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                });
            }
        });
        let report = session.report();
        let kills = kills.load(Ordering::Relaxed) as usize;
        assert_eq!(report.kills as usize, kills, "every planned kill was caught");
        assert!(
            kills >= 1,
            "site {} never fired — the round tested nothing",
            $site
        );

        // All slots must be re-acquirable (no handle died, so this is
        // the weaker invariant; the kill rounds above cover crashes).
        let mut survivors: Vec<_> = (0..N)
            .map(|_| q.register().expect("slot acquirable after unwind recovery"))
            .collect();
        let mut drain = Vec::new();
        while let Some(v) = survivors[0].dequeue() {
            drain.push(v);
        }
        drop(survivors);
        let mut batches: Vec<Vec<u64>> = sinks
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        batches.push(drain);
        let attempted: Vec<Vec<u64>> = attempted
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();
        verify_consumed(&batches, &attempted, per, kills);
    }};
}

/// The slow-path protocol steps, site-name suffixes shared by both
/// variants (`kp.` / `kp_hp.` prefixes).
const SLOW_STEPS: &[&str] = &[
    "publish",
    "append",
    "clear_pending.enq",
    "swing_tail",
    "bind_sentinel",
    "lock_sentinel",
    "clear_pending.deq",
    "clear_pending.deq_empty",
    "swing_head",
];

/// The fast-path steps (DESIGN.md §12), same convention.
const FAST_STEPS: &[&str] = &[
    "fast.enq",
    "fast.swing_tail",
    "fast.deq",
    "fast.swing_head",
    "fast.demote",
];

#[test]
fn epoch_handles_stay_usable_after_kills_at_every_slow_site() {
    for step in SLOW_STEPS {
        let site = format!("kp.{step}");
        unwind_reuse_round!(
            WfQueue::<u64>::with_config(3, Config::opt_both()),
            site.as_str()
        );
    }
}

/// The slow sites are covered by the round above; a fast-path config
/// reaches them only through demotion (which skips `publish`), so this
/// round covers the five fast-path sites, with budget 1 so every lost
/// race demotes and `fast.demote` fires reliably.
#[test]
fn epoch_handles_stay_usable_after_kills_at_every_fast_site() {
    for step in FAST_STEPS {
        let site = format!("kp.{step}");
        unwind_reuse_round!(
            WfQueue::<u64>::with_config(3, Config::fast().with_fast_path(1)),
            site.as_str()
        );
    }
}

#[test]
fn hp_handles_stay_usable_after_kills_at_every_slow_site() {
    for step in SLOW_STEPS {
        let site = format!("kp_hp.{step}");
        unwind_reuse_round!(
            WfQueueHp::<u64>::with_config(3, Config::opt_both()),
            site.as_str()
        );
    }
}

#[test]
fn hp_handles_stay_usable_after_kills_at_every_fast_site() {
    for step in FAST_STEPS {
        let site = format!("kp_hp.{step}");
        unwind_reuse_round!(
            WfQueueHp::<u64>::with_config(3, Config::fast().with_fast_path(1)),
            site.as_str()
        );
    }
}

// ---------------------------------------------------------------------
// abandoned-handle reaping under chaos (DESIGN.md §13)
// ---------------------------------------------------------------------

/// One kill-then-reap round (the ISSUE acceptance scenario), in three
/// strictly sequential phases so that **at most one live handle exists
/// at any moment** — the lease freeze oracle cannot tell a dead handle
/// from a live-but-descheduled one, so a tiny reap patience is only
/// safe when no live handle can be observed frozen by another:
///
/// 1. A *wedge* thread dies suddenly (no destructors) right after a
///    fast append's linearizing CAS, before the tail swing — the
///    `fast.swing_tail` death state: two linearized values, a claimed
///    slot, and a lagging tail.
/// 2. The *victim*, now the only live handle, runs a mixed workload
///    until the planned kill at `$site` unwinds out of an operation,
///    then forgets its handle — sudden death number two. The wedge's
///    lagging tail is what makes `fast.demote` reachable solo: the
///    victim's first budget-1 fast enqueue spends its one iteration on
///    `help_finish_enq` and demotes.
/// 3. A lone *survivor* operates until both dead slots are reaped;
///    then all three slots must be acquirable at once and the ledger
///    must balance minus at most one value (the killed operation's
///    in-flight value).
///
/// `$storm` seeds the victim's yield-storm period for schedule
/// diversity; `$min_quarantines` is 2 for the HP variant (every
/// forgotten handle leaks its active hazard record) and 0 for epoch
/// (both dead threads exited, so their pins self-cleaned).
macro_rules! reap_after_kill_round {
    ($queue:expr, $site:expr, $hit:expr, $storm:expr, $min_quarantines:expr) => {{
        quiet_chaos_kills();
        const N: usize = 3;
        let per = testing::scaled(2_000);
        let spin = 200_000usize;
        let session = chaos::install(
            FaultPlan::new()
                .kill($site, ThreadSel::Id(0), $hit)
                .with_storm($storm, 1),
        );
        let q = $queue;

        // Phase 1 — the wedge (not chaos-registered: its steps run
        // clean, so the wedge state is deterministic).
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut h = q.register().expect("wedge registers");
                h.enqueue(0);
                h.fast_append_unswung(1);
                std::mem::forget(h);
            });
        });

        // Phase 2 — the victim, the only live handle.
        let mut victim_attempted = Vec::new();
        let mut victim_sink = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                let h = q.register().expect("victim registers");
                let _token = chaos::register_thread(0);
                let mut h = Some(h);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let h = h.as_mut().unwrap();
                    for i in 0..per {
                        let v = (per + i) as u64;
                        victim_attempted.push(v);
                        h.enqueue(v);
                        if let Some(v) = h.dequeue() {
                            victim_sink.push(v);
                        }
                    }
                }));
                let e = result.expect_err("the planned kill must fire");
                assert!(e.downcast_ref::<ChaosKill>().is_some());
                // Sudden death: neither the handle nor its id guard
                // runs a destructor.
                std::mem::forget(h.take());
            });
        });

        // Phase 3 — a lone survivor on the test thread (its epoch
        // participant may reuse a dead thread's registry slot, which is
        // exactly what the reaper's self-token guard must tolerate).
        let mut survivor_attempted = Vec::new();
        let mut survivor_sink = Vec::new();
        {
            let mut h = q.register().expect("survivor registers");
            let mut reaped = false;
            for i in 0..spin {
                let v = (2 * per + i) as u64;
                survivor_attempted.push(v);
                h.enqueue(v);
                if let Some(v) = h.dequeue() {
                    survivor_sink.push(v);
                }
                if q.stats().reaps >= 2 {
                    reaped = true;
                    break;
                }
            }
            assert!(reaped, "dead slots never reaped: {:?}", q.stats());
        }
        let report = session.report();
        assert_eq!(report.kills, 1, "exactly one planned death: {report:?}");
        let stats = q.stats();
        let min_quarantines: u64 = $min_quarantines;
        assert!(
            stats.quarantines >= min_quarantines,
            "expected {min_quarantines} quarantines: {stats:?}"
        );

        // The reaped slots (and the survivor's) must be acquirable at
        // once.
        let mut survivors: Vec<_> = (0..N)
            .map(|_| q.register().expect("every slot reclaimable after a reap"))
            .collect();
        let mut drain = Vec::new();
        while let Some(v) = survivors[0].dequeue() {
            drain.push(v);
        }
        drop(survivors);

        // Ledger: wedge values 0 and 1 (both linearized — the unswung
        // append's CAS is its linearization point), victim band per..,
        // survivor band 2*per.. (bucketed by v/per, so each
        // verify_consumed producer bucket is ascending and the FIFO
        // check holds).
        let batches = vec![victim_sink, survivor_sink, drain];
        let mut attempted: Vec<Vec<u64>> = vec![Vec::new(); (2 * per + spin) / per + 2];
        attempted[0].extend([0, 1]);
        for v in victim_attempted.into_iter().chain(survivor_attempted) {
            attempted[v as usize / per].push(v);
        }
        verify_consumed(&batches, &attempted, per, 1);
    }};
}

/// Reap patience small enough that a few dozen survivor operations
/// revoke a dead lease. Safe *only* because the rounds above never let
/// two live handles coexist: the freeze oracle cannot distinguish dead
/// from descheduled, so a live peer under a yield storm could be
/// falsely frozen at this patience (production sizing is
/// `DEFAULT_REAP_PATIENCE`, see DESIGN.md §13).
const REAP_CFG_PATIENCE: usize = 8;

#[test]
fn epoch_reaper_reclaims_slot_after_kill_seed_matrix() {
    for &storm in &[7u64, 13] {
        // Mid-enqueue: before the step-1 append CAS (descriptor already
        // published — recovery lands the value).
        reap_after_kill_round!(
            WfQueue::<u64>::with_config(
                3,
                Config::opt_both().with_reap_patience(REAP_CFG_PATIENCE)
                    .with_reap_min_silence_ms(0)
            ),
            "kp.append",
            20,
            storm,
            0
        );
        // Mid-dequeue: the step-1 deqTid CAS.
        reap_after_kill_round!(
            WfQueue::<u64>::with_config(
                3,
                Config::opt_both().with_reap_patience(REAP_CFG_PATIENCE)
                    .with_reap_min_silence_ms(0)
            ),
            "kp.lock_sentinel",
            20,
            storm,
            0
        );
        // Mid-demotion: rebranded private node, descriptor not yet
        // published. The wedge's lagging tail makes the victim's first
        // budget-1 fast enqueue demote, so occurrence 0 fires solo.
        reap_after_kill_round!(
            WfQueue::<u64>::with_config(
                3,
                Config::fast()
                    .with_fast_path(1)
                    .with_reap_patience(REAP_CFG_PATIENCE)
                    .with_reap_min_silence_ms(0)
            ),
            "kp.fast.demote",
            0,
            storm,
            0
        );
    }
}

#[test]
fn hp_reaper_reclaims_slot_after_kill_seed_matrix() {
    for &storm in &[7u64, 13] {
        reap_after_kill_round!(
            WfQueueHp::<u64>::with_config(
                3,
                Config::opt_both().with_reap_patience(REAP_CFG_PATIENCE)
                    .with_reap_min_silence_ms(0)
            ),
            "kp_hp.append",
            20,
            storm,
            2
        );
        reap_after_kill_round!(
            WfQueueHp::<u64>::with_config(
                3,
                Config::opt_both().with_reap_patience(REAP_CFG_PATIENCE)
                    .with_reap_min_silence_ms(0)
            ),
            "kp_hp.lock_sentinel",
            20,
            storm,
            2
        );
        reap_after_kill_round!(
            WfQueueHp::<u64>::with_config(
                3,
                Config::fast()
                    .with_fast_path(1)
                    .with_reap_patience(REAP_CFG_PATIENCE)
                    .with_reap_min_silence_ms(0)
            ),
            "kp_hp.fast.demote",
            0,
            storm,
            2
        );
    }
}

// ---------------------------------------------------------------------
// reaper-dies-mid-reap: the takeover path
// ---------------------------------------------------------------------

/// One takeover round: a victim abandons a pending enqueue (sudden
/// death via `begin_enqueue_unhelped` + forget), and the single
/// survivor — whose fast-only config helps nobody, so the pending op
/// waits for the reaper — is killed at reap site `$site` during its
/// first reap attempt, stranding the slot in `Reaping`. The survivor
/// catches the kill, keeps operating (a killed thread's chaos is
/// permanently disarmed), and must then **take over** the stranded
/// reap: `reap_takeovers >= 1`, the victim's value surfaces, and the
/// slot is acquirable again.
macro_rules! reap_takeover_round {
    ($queue:expr, $site:expr) => {{
        quiet_chaos_kills();
        let spin = 200_000usize;
        let session = chaos::install(FaultPlan::new().kill($site, ThreadSel::Any, 0));
        let q = $queue;
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut h = q.register().expect("victim registers");
                h.enqueue(7);
                let pending = h.begin_enqueue_unhelped(42);
                std::mem::forget(pending);
                std::mem::forget(h);
            })
            .join()
            .expect("victim thread exits cleanly");

            let mut h = q.register().expect("survivor registers");
            let tid = h.tid();
            let _token = chaos::register_thread(tid);
            let mut kills = 0usize;
            let mut done = false;
            let mut drained = Vec::new();
            // The reap tick (and with it the planned kill) can fire
            // inside either operation — which one depends on the tick
            // stride's parity against the drive loop — so both are
            // unwind-guarded.
            for i in 0..spin {
                let v = 1_000 + i as u64;
                if let Err(e) = catch_unwind(AssertUnwindSafe(|| h.enqueue(v))) {
                    assert!(
                        e.downcast_ref::<ChaosKill>().is_some(),
                        "only the planned reap-site kill may escape"
                    );
                    kills += 1;
                }
                match catch_unwind(AssertUnwindSafe(|| h.dequeue())) {
                    Ok(Some(v)) => drained.push(v),
                    Ok(None) => {}
                    Err(e) => {
                        assert!(
                            e.downcast_ref::<ChaosKill>().is_some(),
                            "only the planned reap-site kill may escape"
                        );
                        kills += 1;
                    }
                }
                let stats = q.stats();
                if stats.reap_takeovers >= 1 && stats.reaps >= 1 {
                    done = true;
                    break;
                }
            }
            let stats = q.stats();
            assert!(done, "stranded reap never taken over: {stats:?}");
            assert_eq!(kills, 1, "the reap-site kill fires exactly once");
            while let Some(v) = h.dequeue() {
                drained.push(v);
            }
            assert!(drained.contains(&7), "victim's completed enqueue lost");
            assert!(
                drained.contains(&42),
                "victim's pending enqueue lost across the takeover"
            );
            drop(h);
            let all: Vec<_> = (0..2)
                .map(|_| q.register().expect("reaped slot reclaimable"))
                .collect();
            drop(all);
        });
        assert_eq!(session.report().kills, 1);
    }};
}

/// A reaper killed before adoption, before the retire election, and
/// before the lease hand-back — each strands the slot differently
/// (still-pending descriptor / retired-but-leased / fully reaped but
/// leased), and the takeover path must converge from all three.
#[test]
fn epoch_reap_takeover_after_reaper_killed_at_each_reap_site() {
    for site in ["kp.reap.adopt", "kp.reap.retire", "kp.reap.finish"] {
        reap_takeover_round!(
            WfQueue::<u64>::with_config(
                2,
                Config::fast()
                    .with_starvation_patience(usize::MAX)
                    .with_reap_patience(REAP_CFG_PATIENCE)
                    .with_reap_min_silence_ms(0)
            ),
            site
        );
    }
}

#[test]
fn hp_reap_takeover_after_reaper_killed_at_each_reap_site() {
    for site in ["kp_hp.reap.adopt", "kp_hp.reap.retire", "kp_hp.reap.finish"] {
        reap_takeover_round!(
            WfQueueHp::<u64>::with_config(
                2,
                Config::fast()
                    .with_starvation_patience(usize::MAX)
                    .with_reap_patience(REAP_CFG_PATIENCE)
                    .with_reap_min_silence_ms(0)
            ),
            site
        );
    }
}

// ---------------------------------------------------------------------
// wCQ (SCQ ring + helping records) chaos coverage
// ---------------------------------------------------------------------

/// Every instrumented wCQ site (crates/wcq/src/chaos_hooks.rs), for
/// seeded plans. Both index rings (`aq` and `fq`) share the site names,
/// so a stall or kill at `wcq.enq` can land in a producer's value
/// append *or* a consumer's index recycle.
const WCQ_SITES: &[&str] = &[
    "wcq.enq",
    "wcq.deq",
    "wcq.help",
    "wcq.finalize",
    "wcq.threshold",
];

/// Seeded adversarial stalls against the wCQ engine, alternating the
/// default (fast path + helping fallback) and slow-only (every op
/// through an operation record) configs so the plans can park threads
/// inside the helping windows too: mid-help with a ctrl word read but
/// not CASed, between a tentative install and its finalize, between a
/// threshold read and its decrement. Capacity 64 exceeds the maximum
/// backlog a round can build (3 threads x 12 ops), so the blocking
/// `enqueue` never spins on `Full` and every history stays comparable
/// to the unbounded engines'.
#[test]
fn wcq_linearizable_under_seeded_adversarial_stalls() {
    quiet_chaos_kills();
    const THREADS: usize = 3;
    for seed in [2u64, 9, 141, 0xACE5] {
        let session = chaos::install(FaultPlan::seeded(seed, WCQ_SITES, THREADS, 10));
        for round in 0..8u64 {
            let cfg = if round % 2 == 0 {
                WcqConfig::new()
            } else {
                WcqConfig::slow_only()
            };
            let q: WcQueue<u64> = WcQueue::with_config(THREADS, cfg.with_capacity(64));
            record_and_check!(
                &q,
                THREADS,
                12,
                seed.wrapping_mul(6364136223846793005).wrapping_add(round)
            );
        }
        let report = session.report();
        assert!(report.stalls > 0, "seeded plan must actually stall (seed {seed})");
        report.assert_linear_bound(THREADS, 400, 200);
    }
}

/// Capacity for the wCQ kill rounds: comfortably above the ~6k values
/// two producers attempt, so the ring never reports `Full` and the
/// blocking `enqueue` loop cannot spin forever after the consumers
/// exhaust their attempt budgets. (A kill can also leak one data index
/// per round — the victim held it in a local — which this headroom
/// absorbs.)
const WCQ_KILL_CAPACITY: usize = 1 << 14;

/// A producer dies at the top of a ring-enqueue attempt, before its
/// tail FAA: the value is already written to its data slot but the
/// slot's index never enters `aq`, so exactly that one value (and its
/// index) may vanish. Survivors must be unaffected and the victim's
/// handle-drop cleanup must retire its state.
#[test]
fn wcq_enqueuer_killed_before_ring_append() {
    kill_torture_round!(
        WcQueue::<u64>::with_config(4, WcqConfig::new().with_capacity(WCQ_KILL_CAPACITY)),
        "wcq.enq",
        1, // tid 1 is a producer
        1
    );
}

/// A dequeuer dies in the recycle window: it has read the value out of
/// the data slot but dies inside the `fq` enqueue returning the index.
/// The value unwinds away with the stack frame (at most one missing);
/// the index leaks, which the capacity headroom absorbs.
#[test]
fn wcq_dequeuer_killed_mid_index_recycle() {
    kill_torture_round!(
        WcQueue::<u64>::with_config(4, WcqConfig::new().with_capacity(WCQ_KILL_CAPACITY)),
        "wcq.enq", // the recycle is an fq ring-enqueue; victim 0 is a consumer
        0,
        1
    );
}

/// A dequeuer dies at the top of a ring-dequeue attempt, before its
/// head FAA: nothing is claimed yet, so at most the handle-drop
/// cleanup's consume-and-discard goes missing.
#[test]
fn wcq_dequeuer_killed_before_claim() {
    kill_torture_round!(
        WcQueue::<u64>::with_config(4, WcqConfig::new().with_capacity(WCQ_KILL_CAPACITY)),
        "wcq.deq",
        0,
        1
    );
}

/// A thread dies between reading the threshold and writing it (reset or
/// decrement). The threshold is bookkeeping for emptiness detection —
/// a lost update may cost a spurious extra scan but never a value; the
/// ledger must balance minus the usual at-most-one in-flight value.
#[test]
fn wcq_thread_killed_at_threshold_update() {
    kill_torture_round!(
        WcQueue::<u64>::with_config(4, WcqConfig::new().with_capacity(WCQ_KILL_CAPACITY)),
        "wcq.threshold",
        0,
        1
    );
}

/// Slow-only config: a consumer dies mid-help, between reading a ctrl
/// word and acting on it. Its own pending record is finished by its
/// handle-drop cleanup (which may consume-and-discard one claimed
/// value); any peer record it was helping must be finished by the
/// survivors.
#[test]
fn wcq_helper_killed_mid_help() {
    kill_torture_round!(
        WcQueue::<u64>::with_config(
            4,
            WcqConfig::slow_only().with_capacity(WCQ_KILL_CAPACITY)
        ),
        "wcq.help",
        0,
        1
    );
}

/// Slow-only config: a producer dies at a finalize step — after its
/// tentative entry was installed (or its ctrl word moved to DONE) but
/// before the entry's final bit was published. Helpers or the victim's
/// own handle-drop cleanup must finalize-or-invalidate exactly once:
/// the value either lands (and is dequeued) or is cleanly invalidated
/// (one missing), never duplicated.
#[test]
fn wcq_enqueuer_killed_at_finalize() {
    kill_torture_round!(
        WcQueue::<u64>::with_config(
            4,
            WcqConfig::slow_only().with_capacity(WCQ_KILL_CAPACITY)
        ),
        "wcq.finalize",
        1,
        1
    );
}

/// The wCQ handle-death stranding bound (DESIGN.md §14): a ring has no
/// reaper, so a suddenly-dead handle (kill unwinds out of an operation,
/// then the handle is forgotten — no destructor) permanently strands at
/// most **one value and one ring index**: the index it held in a local
/// between taking it from one ring and appending it to the other, plus
/// the value written to that index's data slot. This round kills two
/// handles on a *small* ring, drains it, then fills to `Full` from a
/// fresh handle: the fill must reach at least `capacity - kills` (each
/// dead handle cost at most one index) and the value ledger must be
/// short by at most one value per kill.
#[test]
fn wcq_killed_handles_strand_bounded_capacity() {
    quiet_chaos_kills();
    const CAP: usize = 64;
    const KILLS: usize = 2;
    // Victims enqueue (kill lands in the aq value append) or churn
    // enqueue/dequeue pairs (kill lands in a claim or an fq recycle).
    for (site, victim_dequeues) in [("wcq.enq", false), ("wcq.deq", true)] {
        let session = chaos::install(
            FaultPlan::new()
                // Per-thread occurrence counting: every chaos-registered
                // thread dies at its third visit to the site.
                .kill(site, ThreadSel::Any, 2)
                .with_storm(5, 1),
        );
        let q: WcQueue<u64> = WcQueue::with_config(KILLS + 1, WcqConfig::new().with_capacity(CAP));
        let sink: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let attempted: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        for k in 0..KILLS as u64 {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let h = q.register().expect("victim registers");
                    let _token = chaos::register_thread(h.tid());
                    let mut h = Some(h);
                    let died = catch_unwind(AssertUnwindSafe(|| {
                        let h = h.as_mut().unwrap();
                        for i in 0..16u64 {
                            let v = (k << 32) | i;
                            attempted.lock().unwrap().push(v);
                            h.enqueue(v);
                            if victim_dequeues {
                                if let Ok(x) = h.try_dequeue() {
                                    sink.lock().unwrap().push(x);
                                }
                            }
                        }
                    }));
                    let e = died.expect_err("the planned kill must fire");
                    assert!(e.downcast_ref::<ChaosKill>().is_some());
                    // Sudden death: no handle destructor, so whatever
                    // index the victim held stays stranded.
                    std::mem::forget(h.take());
                });
            });
        }
        let report = session.report();
        assert_eq!(report.kills as usize, KILLS, "both victims died ({site})");

        let mut h = q.register().expect("survivor slot free");
        let mut drained = sink.into_inner().unwrap();
        while let Ok(v) = h.try_dequeue() {
            drained.push(v);
        }
        // Value ledger: nothing invented or duplicated, at most one
        // value stranded per killed handle.
        let attempted = attempted.into_inner().unwrap();
        let live: HashSet<u64> = attempted.iter().copied().collect();
        let mut seen = HashSet::new();
        for &v in &drained {
            assert!(live.contains(&v), "invented value {v:#x}");
            assert!(seen.insert(v), "value {v:#x} dequeued twice");
        }
        let missing = live.len() - seen.len();
        assert!(
            missing <= KILLS,
            "{missing} values missing after {KILLS} kills at {site} (bound: 1 per kill)"
        );

        // Capacity ledger: the drained ring accepts at least
        // CAP - KILLS fresh values before Full.
        let mut filled = 0usize;
        while h.try_enqueue((1 << 60) | filled as u64).is_ok() {
            filled += 1;
        }
        assert!(
            filled >= CAP - KILLS,
            "ring stranded more than one index per kill at {site}: \
             filled {filled} of {CAP} after {KILLS} kills"
        );
        assert!(filled <= CAP, "ring overfilled: {filled} > {CAP}");
    }
}

// ---------------------------------------------------------------------
// channel front-end (DESIGN.md §15) chaos coverage
// ---------------------------------------------------------------------

/// The channel's instrumented sites (crates/kp-channel/src/chaos_hooks.rs)
/// plus the wCQ engine sites underneath them, for seeded stall plans.
/// The `chan.*` sites are stall/storm-only: the waiter registry is a
/// lock, so kill plans must target engine sites instead.
const CHAN_WCQ_SITES: &[&str] = &[
    "chan.route",
    "chan.batch",
    "chan.park",
    "chan.wake",
    "chan.send_park",
    "chan.admit",
    "chan.quarantine",
    "chan.probe",
    "wcq.enq",
    "wcq.deq",
    "wcq.help",
    "wcq.finalize",
    "wcq.threshold",
];

/// One channel round under an installed chaos plan: `producers`
/// blocking senders (mixing scalar and batched sends) against
/// `consumers` receivers alternating `recv_timeout` and `recv_batch`.
/// Every value is tagged `(producer << 48) | seq`; each consumer audits
/// FIFO-per-producer within its own stream (the §15 ordering contract),
/// and the merged streams must be exactly-once. A receiver that times
/// out while senders are still live is a **lost wakeup** — the
/// generous timeout converts what would be a hang into a failure.
fn channel_chaos_round<Q: ConcurrentQueue<u64>>(
    chan: &Channel<u64, Q>,
    producers: usize,
    consumers: usize,
    per: usize,
    throttle: Option<Duration>,
) {
    let txs: Vec<_> = (0..producers).map(|_| chan.sender()).collect();
    let rxs: Vec<_> = (0..consumers).map(|_| chan.receiver()).collect();
    let streams: Vec<Vec<u64>> = std::thread::scope(|s| {
        for (p, mut tx) in txs.into_iter().enumerate() {
            s.spawn(move || {
                let _token = chaos::register_thread(p);
                let p = p as u64;
                let mut seq = 0u64;
                while (seq as usize) < per {
                    if seq % 7 < 2 {
                        let n = 8.min(per as u64 - seq);
                        tx.send_batch((0..n).map(|i| (p << 48) | (seq + i)))
                            .expect("receivers vanished");
                        seq += n;
                    } else {
                        tx.send((p << 48) | seq).expect("receivers vanished");
                        seq += 1;
                    }
                    // A think-time gap drains the shards so receivers
                    // genuinely park — without it the queue never runs
                    // dry and the park/wake protocol goes untested.
                    if let Some(gap) = throttle {
                        if seq.is_multiple_of(8) {
                            std::thread::sleep(gap);
                        }
                    }
                }
            });
        }
        let handles: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(c, mut rx)| {
                s.spawn(move || {
                    let _token = chaos::register_thread(producers + c);
                    let mut stream = Vec::new();
                    let mut buf = Vec::with_capacity(8);
                    loop {
                        // Alternate the two parked paths: the scalar
                        // timeout wait and the batch wait.
                        if stream.len() % 3 == 0 {
                            match rx.recv_timeout(Duration::from_secs(10)) {
                                Ok(v) => stream.push(v),
                                Err(RecvTimeoutError::Disconnected) => break,
                                Err(RecvTimeoutError::Timeout) => {
                                    panic!("lost wakeup: receiver timed out with senders live")
                                }
                            }
                        } else {
                            match rx.recv_batch(&mut buf, 8) {
                                Ok(_) => stream.append(&mut buf),
                                Err(_) => break,
                            }
                        }
                    }
                    stream
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("consumer panicked")).collect()
    });

    let mut seen = HashSet::new();
    for stream in &streams {
        let mut last = vec![None::<u64>; producers];
        for &v in stream {
            assert!(seen.insert(v), "value {v:#x} delivered twice");
            let (p, seq) = ((v >> 48) as usize, v & 0xffff_ffff_ffff);
            if let Some(prev) = last[p] {
                assert!(
                    prev < seq,
                    "producer {p} reordered within one consumer: {prev} before {seq}"
                );
            }
            last[p] = Some(seq);
        }
    }
    assert_eq!(seen.len(), producers * per, "lost values");
}

/// Seeded adversarial stalls across the whole channel stack — routing,
/// batching, the park/wake protocol, and the wCQ engine underneath —
/// must preserve the §15 contract: exactly-once, FIFO per producer
/// within each consumer, and no lost wakeups.
#[test]
fn channel_fifo_per_producer_under_seeded_stalls() {
    quiet_chaos_kills();
    const PRODUCERS: usize = 2;
    const CONSUMERS: usize = 2;
    const THREADS: usize = PRODUCERS + CONSUMERS;
    let per = testing::scaled(1_200);
    for seed in [5u64, 77, 0xC0DE] {
        let session = chaos::install(FaultPlan::seeded(seed, CHAN_WCQ_SITES, THREADS, 12));
        let chan: Channel<u64, WcQueue<u64>> = Channel::wcq(
            ChannelConfig::new()
                .with_shards(2)
                .with_max_senders(PRODUCERS)
                .with_max_receivers(CONSUMERS),
            256,
        );
        channel_chaos_round(&chan, PRODUCERS, CONSUMERS, per, None);
        let report = session.report();
        assert!(report.stalls > 0, "seeded plan must actually stall (seed {seed})");
    }
}

/// The ISSUE acceptance scenario, aimed squarely at the blocking
/// receiver: stalls parked **inside the park window** (between waiter
/// registration and the pre-park re-check) and **inside the wake path**
/// (between the sleepers-gauge read and the waiter pop), under a yield
/// storm, on both shard cores. The Dekker sleepers protocol plus the
/// wake-token pass-on rule must guarantee that no receiver stays parked
/// while a value it could consume sits in a shard — a 10 s timeout
/// turns a lost wakeup into a panic instead of a hang.
#[test]
fn channel_parked_receivers_never_lose_wakeups() {
    quiet_chaos_kills();
    const PRODUCERS: usize = 2;
    const CONSUMERS: usize = 2;
    let per = testing::scaled(800);
    // Early occurrence indices: the round produces a handful of park
    // windows per receiver (throttled producers, small ring), so deep
    // indices would silently never fire and the assert below would
    // reject the run.
    for (hit, yields) in [(0u64, 60u32), (2, 200)] {
        let plan = || {
            FaultPlan::new()
                .stall("chan.park", ThreadSel::Id(2), hit, yields)
                .stall("chan.park", ThreadSel::Id(3), hit + 1, yields)
                .stall("chan.wake", ThreadSel::Id(0), hit, yields)
                .stall("chan.wake", ThreadSel::Id(1), hit + 1, yields)
                .with_storm(9, 1)
        };
        {
            let session = chaos::install(plan());
            let chan: Channel<u64, WcQueue<u64>> = Channel::wcq(
                ChannelConfig::new()
                    .with_shards(2)
                    .with_max_senders(PRODUCERS)
                    .with_max_receivers(CONSUMERS),
                64, // small ring: senders hit Full and the full retry/notify path
            );
            channel_chaos_round(&chan, PRODUCERS, CONSUMERS, per, Some(Duration::from_micros(200)));
            let report = session.report();
            assert!(report.stalls > 0, "park/wake stalls must fire (wcq hit={hit} steps={})", report.total_steps);
        }
        {
            let session = chaos::install(plan());
            let chan: Channel<u64, WfQueue<u64>> = Channel::kp(
                ChannelConfig::new()
                    .with_shards(2)
                    .with_max_senders(PRODUCERS)
                    .with_max_receivers(CONSUMERS),
            );
            channel_chaos_round(&chan, PRODUCERS, CONSUMERS, per, Some(Duration::from_micros(200)));
            let report = session.report();
            assert!(report.stalls > 0, "park/wake stalls must fire (kp hit={hit} steps={})", report.total_steps);
        }
    }
}

/// The sender-side mirror of the round above, aimed at the capacity
/// park path added for overload control (DESIGN.md §16): stalls parked
/// **inside the send-park window** (between a refused sender's waiter
/// registration and its pre-park re-check) and **inside the wake path**
/// (between the tx sleepers-gauge read and the waiter pop), under a
/// yield storm. Producers use `send_timeout` with a generous deadline:
/// a `Timeout` while receivers are still draining IS a lost wakeup,
/// converted from a hang into a panic.
#[test]
fn channel_parked_senders_never_lose_wakeups() {
    quiet_chaos_kills();
    const PRODUCERS: usize = 2;
    const CONSUMERS: usize = 2;
    let per = testing::scaled(600);
    for (hit, yields) in [(0u64, 60u32), (2, 200)] {
        let session = chaos::install(
            FaultPlan::new()
                .stall("chan.send_park", ThreadSel::Id(0), hit, yields)
                .stall("chan.send_park", ThreadSel::Id(1), hit + 1, yields)
                .stall("chan.wake", ThreadSel::Id(2), hit, yields)
                .stall("chan.wake", ThreadSel::Id(3), hit + 1, yields)
                .with_storm(9, 1),
        );
        let chan: Channel<u64, WcQueue<u64>> = Channel::wcq(
            ChannelConfig::new()
                .with_shards(2)
                .with_max_senders(PRODUCERS)
                .with_max_receivers(CONSUMERS),
            16, // tiny ring: senders saturate it and park constantly
        );
        let txs: Vec<_> = (0..PRODUCERS).map(|_| chan.sender()).collect();
        let rxs: Vec<_> = (0..CONSUMERS).map(|_| chan.receiver()).collect();
        let streams: Vec<Vec<u64>> = std::thread::scope(|s| {
            for (p, mut tx) in txs.into_iter().enumerate() {
                s.spawn(move || {
                    let _token = chaos::register_thread(p);
                    let p = p as u64;
                    for seq in 0..per as u64 {
                        match tx.send_timeout((p << 48) | seq, Duration::from_secs(10)) {
                            Ok(()) => {}
                            Err(SendTimeoutError::Timeout(v)) => panic!(
                                "lost wakeup: sender timed out on {v:#x} with receivers live"
                            ),
                            Err(SendTimeoutError::Disconnected(_)) => {
                                panic!("receivers vanished")
                            }
                        }
                    }
                });
            }
            let handles: Vec<_> = rxs
                .into_iter()
                .enumerate()
                .map(|(c, mut rx)| {
                    s.spawn(move || {
                        let _token = chaos::register_thread(PRODUCERS + c);
                        let mut stream = Vec::new();
                        loop {
                            match rx.recv_timeout(Duration::from_secs(10)) {
                                Ok(v) => stream.push(v),
                                Err(RecvTimeoutError::Disconnected) => break,
                                Err(RecvTimeoutError::Timeout) => {
                                    panic!("lost wakeup: receiver timed out with senders live")
                                }
                            }
                            // Think time so the ring refills and the
                            // senders genuinely park again.
                            if stream.len() % 16 == 0 {
                                std::thread::sleep(Duration::from_micros(100));
                            }
                        }
                        stream
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("consumer panicked")).collect()
        });
        let mut seen = HashSet::new();
        for stream in &streams {
            let mut last = [None::<u64>; PRODUCERS];
            for &v in stream {
                assert!(seen.insert(v), "value {v:#x} delivered twice");
                let (p, seq) = ((v >> 48) as usize, v & 0xffff_ffff_ffff);
                if let Some(prev) = last[p] {
                    assert!(prev < seq, "producer {p} reordered: {prev} before {seq}");
                }
                last[p] = Some(seq);
            }
        }
        assert_eq!(seen.len(), PRODUCERS * per, "lost values");
        let report = session.report();
        assert!(
            report.stalls > 0,
            "send-park/wake stalls must fire (hit={hit} steps={})",
            report.total_steps
        );
        let snap = chan.health_snapshot();
        let parks: u64 = snap.shards.iter().map(|s| s.tx_parks).sum();
        assert!(parks > 0, "senders never parked — the round tested nothing: {snap:?}");
    }
}

/// Deadline accuracy under seeded adversarial stalls: with the chaos
/// plan free to park threads inside the park/wake/admit windows, a
/// timed wait may come back late — never early. Both directions are
/// pinned: `recv_timeout` against an empty channel, `send_timeout`
/// against a full ring and against a closed admission gate.
#[test]
fn channel_deadlines_never_fire_early_under_seeded_stalls() {
    quiet_chaos_kills();
    let timeout = Duration::from_millis(30);
    for seed in [11u64, 99, 0xD1A1] {
        let session = chaos::install(FaultPlan::seeded(seed, CHAN_WCQ_SITES, 2, 8));
        {
            // Full bounded ring: the engine refuses, the sender parks.
            let chan: Channel<u64, WcQueue<u64>> = Channel::wcq(
                ChannelConfig::new().with_shards(1).with_max_senders(1).with_max_receivers(1),
                8,
            );
            let mut tx = chan.sender();
            let mut rx = chan.receiver();
            let _token = chaos::register_thread(0);
            while tx.try_send(0).is_ok() {}
            let start = std::time::Instant::now();
            assert!(matches!(
                tx.send_timeout(1, timeout),
                Err(SendTimeoutError::Timeout(1))
            ));
            assert!(
                start.elapsed() >= timeout,
                "send_timeout returned early under stalls (seed {seed})"
            );
            // Empty after a full drain: the receiver parks.
            while rx.try_recv().is_ok() {}
            let start = std::time::Instant::now();
            assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
            assert!(
                start.elapsed() >= timeout,
                "recv_timeout returned early under stalls (seed {seed})"
            );
        }
        {
            // Closed admission gate over the unbounded engine: the
            // bounded re-poll park must still honor the deadline.
            let chan: Channel<u64, WfQueue<u64>> = Channel::kp(
                ChannelConfig::new()
                    .with_shards(1)
                    .with_max_senders(1)
                    .with_max_receivers(1)
                    .with_overload(OverloadConfig::disabled().with_depth_quota(4)),
            );
            let mut tx = chan.sender();
            let _rx = chan.receiver();
            while tx.try_send(0).is_ok() {}
            let start = std::time::Instant::now();
            assert!(matches!(
                tx.send_timeout(1, timeout),
                Err(SendTimeoutError::Timeout(1))
            ));
            assert!(
                start.elapsed() >= timeout,
                "gated send_timeout returned early under stalls (seed {seed})"
            );
        }
        drop(session);
    }
}

/// Kill-mid-quarantine: a consumer thread dies at an engine site while
/// draining a quarantined shard. The quarantine episode must still
/// converge — the surviving drain completes, the shard re-admits, and
/// the ledger balances minus at most the one value that unwound away
/// with the kill. (`chan.*` sites are stall-only, so the kill targets
/// the KP fast-path dequeue step underneath — the path the channel's
/// default `Config::fast()` engines drain through.)
#[test]
fn channel_quarantine_survives_consumer_killed_mid_drain() {
    quiet_chaos_kills();
    let session = chaos::install(
        FaultPlan::new()
            .kill("kp.fast.deq", ThreadSel::Id(0), 5)
            .with_storm(7, 1),
    );
    let chan: Channel<u64, WfQueue<u64>> = Channel::kp(
        ChannelConfig::new()
            .with_shards(1)
            .with_max_senders(1)
            .with_max_receivers(2)
            .with_overload(
                OverloadConfig::disabled()
                    .with_depth_quota(16)
                    .with_watchdog(2, Duration::from_millis(5))
                    .with_tick_interval(Duration::from_millis(1))
                    .with_probe_interval(Duration::from_millis(2)),
            ),
    );
    let mut tx = chan.sender();
    // Stalled-consumer overload: overfill, then offer until quarantined.
    let mut sent = 0u64;
    while tx.try_send(sent).is_ok() {
        sent += 1;
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while chan.health_snapshot().quarantined() == 0 {
        assert!(deadline > std::time::Instant::now(), "never quarantined");
        let _ = tx.try_send(sent);
        std::thread::sleep(Duration::from_millis(2));
    }

    // Mint the survivor before the victim runs: the victim's drop must
    // not be the last receiver leaving (that would latch the channel
    // closed instead of testing recovery).
    let mut rx = chan.receiver();

    // The victim consumer drains the quarantined shard until the
    // planned kill unwinds out of a dequeue; the value it was claiming
    // may unwind away with it (at most one missing).
    let mut drained: Vec<u64> = Vec::new();
    let mut kills = 0usize;
    std::thread::scope(|s| {
        let drained = &mut drained;
        let kills = &mut kills;
        let chan = &chan;
        s.spawn(move || {
            let mut rx = chan.receiver();
            let _token = chaos::register_thread(0);
            loop {
                match catch_unwind(AssertUnwindSafe(|| rx.try_recv())) {
                    Ok(Ok(v)) => drained.push(v),
                    Ok(Err(_)) => break, // empty: stop, the survivor takes over
                    Err(e) => {
                        assert!(
                            e.downcast_ref::<ChaosKill>().is_some(),
                            "only the planned kill may escape"
                        );
                        *kills += 1;
                        break; // sudden death mid-quarantine
                    }
                }
            }
        });
    });
    assert_eq!(kills, 1, "the planned kill must land mid-drain");
    assert_eq!(session.report().kills, 1);

    // The surviving consumer finishes the drain; the shard re-admits.
    while let Ok(v) = rx.try_recv() {
        drained.push(v);
    }
    tx.send_timeout(sent, Duration::from_secs(30))
        .expect("shard never re-admitted after the mid-quarantine kill");
    assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(sent));
    assert_eq!(chan.health_snapshot().shards[0].state, HealthState::Healthy);

    // Ledger: nothing invented or duplicated, at most one value lost
    // to the kill, order preserved across both drain phases.
    let mut seen = HashSet::new();
    let mut last = None::<u64>;
    for &v in &drained {
        assert!(v < sent, "invented value {v}");
        assert!(seen.insert(v), "value {v} dequeued twice");
        if let Some(prev) = last {
            assert!(prev < v, "FIFO broke across the kill: {prev} before {v}");
        }
        last = Some(v);
    }
    let missing = sent as usize - seen.len();
    assert!(missing <= 1, "{missing} values lost to one kill (bound: 1)");
}
