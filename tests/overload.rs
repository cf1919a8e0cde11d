//! Overload-control integration tests (DESIGN.md §16): parked bounded
//! send with deadlines, admission control over the unbounded KP
//! engines, and the shard-health quarantine state machine — exercised
//! through the public channel API over both shard cores.
//!
//! The timing assertions here are one-sided on purpose: a deadline API
//! may return *late* under scheduler noise (CI boxes stall threads for
//! tens of milliseconds), but returning **early** is a correctness bug
//! — a caller pacing a retry loop off `send_timeout` would spin. The
//! upper bounds asserted are deliberately loose.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use wfq_repro::kp_channel::{
    Channel, ChannelConfig, HealthState, OverloadConfig, QuarantinePolicy, RecvTimeoutError,
    SendTimeoutError, TrySendError,
};
use wfq_repro::kp_queue::WfQueue;
use wfq_repro::wcq::WcQueue;

fn cfg(shards: usize, senders: usize, receivers: usize) -> ChannelConfig {
    ChannelConfig::new()
        .with_shards(shards)
        .with_max_senders(senders)
        .with_max_receivers(receivers)
}

/// An aggressive watchdog for tests: 1 ms ticks, 2-tick / 5 ms freeze
/// oracle, 2 ms probe pacing — tuned so a stalled shard quarantines in
/// milliseconds instead of the production-scale seconds.
fn hair_trigger(quota: usize) -> OverloadConfig {
    OverloadConfig::disabled()
        .with_depth_quota(quota)
        .with_watchdog(2, Duration::from_millis(5))
        .with_tick_interval(Duration::from_millis(1))
        .with_probe_interval(Duration::from_millis(2))
}

/// Loose upper bound on how late a timed wait may return on a noisy
/// box. Only the lower bound (never early) is a hard contract.
const SLACK: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------
// deadline accuracy: never early, not unboundedly late
// ---------------------------------------------------------------------

#[test]
fn recv_timeout_is_never_early_and_roughly_on_time() {
    let chan: Channel<u64, WcQueue<u64>> = Channel::wcq(cfg(1, 1, 1), 8);
    let _tx = chan.sender();
    let mut rx = chan.receiver();
    for timeout_ms in [5u64, 25, 60] {
        let timeout = Duration::from_millis(timeout_ms);
        let start = Instant::now();
        assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
        let elapsed = start.elapsed();
        assert!(elapsed >= timeout, "recv_timeout({timeout:?}) returned early at {elapsed:?}");
        assert!(elapsed <= timeout + SLACK, "recv_timeout({timeout:?}) took {elapsed:?}");
    }
}

#[test]
fn recv_deadline_is_never_early() {
    let chan: Channel<u64, WfQueue<u64>> = Channel::kp(cfg(1, 1, 1));
    let _tx = chan.sender();
    let mut rx = chan.receiver();
    let deadline = Instant::now() + Duration::from_millis(30);
    assert_eq!(rx.recv_deadline(deadline), Err(RecvTimeoutError::Timeout));
    assert!(Instant::now() >= deadline, "recv_deadline returned before its deadline");
}

#[test]
fn send_timeout_is_never_early_and_roughly_on_time() {
    let chan: Channel<u64, WcQueue<u64>> = Channel::wcq(cfg(1, 1, 1), 8);
    let mut tx = chan.sender();
    let _rx = chan.receiver();
    for v in 0..8 {
        tx.try_send(v).unwrap();
    }
    for timeout_ms in [5u64, 25, 60] {
        let timeout = Duration::from_millis(timeout_ms);
        let start = Instant::now();
        match tx.send_timeout(99, timeout) {
            Err(SendTimeoutError::Timeout(99)) => {}
            other => panic!("expected Timeout(99), got {other:?}"),
        }
        let elapsed = start.elapsed();
        assert!(elapsed >= timeout, "send_timeout({timeout:?}) returned early at {elapsed:?}");
        assert!(elapsed <= timeout + SLACK, "send_timeout({timeout:?}) took {elapsed:?}");
    }
}

#[test]
fn send_deadline_against_admission_gate_is_never_early() {
    // The refusal here comes from the admission gate (unbounded engine,
    // soft quota), not the ring: the gated park path re-polls on a
    // bounded timer and must still honor the deadline exactly.
    let chan: Channel<u64, WfQueue<u64>> =
        Channel::kp(cfg(1, 1, 1).with_overload(OverloadConfig::disabled().with_depth_quota(4)));
    let mut tx = chan.sender();
    let _rx = chan.receiver();
    while tx.try_send(0).is_ok() {}
    let deadline = Instant::now() + Duration::from_millis(30);
    match tx.send_deadline(1, deadline) {
        Err(SendTimeoutError::Timeout(1)) => {}
        other => panic!("expected Timeout(1), got {other:?}"),
    }
    assert!(Instant::now() >= deadline, "send_deadline returned before its deadline");
}

// ---------------------------------------------------------------------
// parked send: blocked senders sleep, then complete
// ---------------------------------------------------------------------

/// A full ring parks its senders; a receiver draining at its own pace
/// must hand every freed slot to exactly one parked sender until all
/// values land — exactly-once, with the sends actually parking (the
/// snapshot park counters prove they did not spin).
#[test]
fn parked_senders_complete_as_receiver_drains() {
    const SENDERS: usize = 3;
    const PER: usize = 400;
    let chan: Channel<u64, WcQueue<u64>> = Channel::wcq(cfg(2, SENDERS, 1), 16);
    let txs: Vec<_> = (0..SENDERS).map(|_| chan.sender()).collect();
    let mut rx = chan.receiver();
    let streams: Vec<u64> = std::thread::scope(|s| {
        for (p, mut tx) in txs.into_iter().enumerate() {
            s.spawn(move || {
                let p = p as u64;
                for seq in 0..PER as u64 {
                    tx.send((p << 48) | seq).expect("receiver vanished");
                }
            });
        }
        let mut got = Vec::with_capacity(SENDERS * PER);
        let mut buf = Vec::with_capacity(32);
        while got.len() < SENDERS * PER {
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(v) => got.push(v),
                Err(e) => panic!("receiver starved with senders parked: {e:?}"),
            }
            // Drain opportunistically, then let the ring refill so the
            // senders park again (otherwise this is just a throughput
            // test).
            rx.try_recv_batch(&mut buf, 32);
            got.append(&mut buf);
            if got.len() % 97 == 0 {
                std::thread::sleep(Duration::from_micros(300));
            }
        }
        got
    });
    let seen: HashSet<u64> = streams.iter().copied().collect();
    assert_eq!(seen.len(), SENDERS * PER, "lost or duplicated values");
    let snap = chan.health_snapshot();
    let parks: u64 = snap.shards.iter().map(|s| s.tx_parks).sum();
    assert!(parks > 0, "senders never parked — the ring never filled: {snap:?}");
}

/// The same blocking send over the unbounded KP engine with a soft
/// quota: the *gate* (not the engine) refuses, the sender parks on the
/// bounded re-poll path, and a draining receiver releases it.
#[test]
fn quota_gated_senders_complete_as_receiver_drains() {
    const PER: usize = 600;
    let chan: Channel<u64, WfQueue<u64>> =
        Channel::kp(cfg(1, 1, 1).with_overload(OverloadConfig::disabled().with_depth_quota(32)));
    let mut tx = chan.sender();
    let mut rx = chan.receiver();
    std::thread::scope(|s| {
        s.spawn(move || {
            for seq in 0..PER as u64 {
                tx.send(seq).expect("receiver vanished");
            }
        });
        for expect in 0..PER as u64 {
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(v) => assert_eq!(v, expect, "single-producer FIFO broke across the gate"),
                Err(e) => panic!("receiver starved behind the admission gate: {e:?}"),
            }
            if expect % 64 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    });
    // The quota must have actually engaged: depth can never have
    // exceeded quota + in-flight slack. Quiescent now, so depth is 0.
    let snap = chan.health_snapshot();
    assert_eq!(snap.shards[0].depth, Some(0));
}

// ---------------------------------------------------------------------
// quarantine: detection, backpressure, re-admission
// ---------------------------------------------------------------------

/// A consumer stalls; the watchdog must walk the shard Healthy →
/// Suspect → Quarantined, keep refusing (Backpressure preserves FIFO),
/// and re-admit after the consumer resumes and drains — with every
/// value delivered exactly once across the whole episode.
#[test]
fn quarantine_detects_stall_and_readmits_after_drain() {
    let chan: Channel<u64, WfQueue<u64>> =
        Channel::kp(cfg(1, 1, 1).with_overload(hair_trigger(16)));
    let mut tx = chan.sender();
    let mut rx = chan.receiver();
    // Stalled consumer: overfill, then keep offering until quarantined.
    let mut sent = 0u64;
    while tx.try_send(sent).is_ok() {
        sent += 1;
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while chan.health_snapshot().quarantined() == 0 {
        assert!(
            Instant::now() < deadline,
            "watchdog never quarantined a stalled shard: {:?}",
            chan.health_snapshot()
        );
        let _ = tx.try_send(sent); // refused sends tick the watchdog
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(chan.health_snapshot().shards[0].state, HealthState::Quarantined);

    // Backpressure policy: still refusing while quarantined (modulo the
    // paced probe — tolerate a handful of accepted probes).
    let mut probe_accepts = 0u64;
    for _ in 0..50 {
        if tx.try_send(sent).is_ok() {
            sent += 1;
            probe_accepts += 1;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(probe_accepts <= 40, "quarantined shard accepted like a healthy one");

    // Consumer resumes: drain everything, exactly once, in order.
    for expect in 0..sent {
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(expect));
    }
    // Re-admission: blocking send must complete (inline readmit on the
    // refused-send path or at a probe tick).
    tx.send_timeout(sent, Duration::from_secs(30))
        .expect("drained shard never re-admitted");
    assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(sent));
    let snap = chan.health_snapshot();
    assert_eq!(snap.shards[0].state, HealthState::Healthy);
    assert!(snap.shards[0].quarantines >= 1, "the episode was recorded: {snap:?}");
}

/// Reroute policy: with the sticky shard quarantined, sends detour to a
/// healthy shard and every value still arrives exactly once. (FIFO per
/// producer is explicitly forfeited across the detour — documented.)
#[test]
fn reroute_delivers_exactly_once_around_quarantined_shard() {
    let chan: Channel<u64, WfQueue<u64>> = Channel::kp(
        cfg(2, 1, 1).with_overload(hair_trigger(16).with_policy(QuarantinePolicy::Reroute)),
    );
    let mut tx = chan.sender();
    assert_eq!(tx.shard(), 0, "sticky routing starts at shard 0");
    let mut rx = chan.receiver();
    let mut sent = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    while chan.health_snapshot().shards[0].state != HealthState::Quarantined {
        assert!(Instant::now() < deadline, "shard 0 never quarantined");
        if tx.try_send(sent).is_ok() {
            sent += 1;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // Quarantined home shard + Reroute: blocking sends keep completing
    // without waiting for the stalled consumer.
    for _ in 0..200 {
        tx.send_timeout(sent, Duration::from_secs(10))
            .expect("reroute must keep accepting while home shard is quarantined");
        sent += 1;
    }
    assert!(
        chan.health_snapshot().shards[1].depth.unwrap() > 0,
        "detoured values must land on the healthy shard"
    );
    let mut seen = HashSet::new();
    while let Ok(v) = rx.try_recv() {
        assert!(seen.insert(v), "value {v} delivered twice across the detour");
    }
    assert_eq!(seen.len() as u64, sent, "values lost across the detour");
}

// ---------------------------------------------------------------------
// regression: a full, quarantined shard must not deadlock send_batch
// ---------------------------------------------------------------------

/// The trap: a bounded shard is both full (engine refuses) and
/// quarantined (gate refuses). The gate's refusal carries no Dekker
/// wakeup guarantee — re-admission is decided by a gauge, not by a
/// dequeue — so a sender parked unboundedly on it would sleep through
/// the shard's recovery. The gated park path re-polls on a bounded
/// timer; this pins a `send_batch` straddling the sick shard, recovers
/// the consumer, and requires the batch to complete.
#[test]
fn full_quarantined_shard_does_not_deadlock_send_batch() {
    const BATCH: u64 = 200;
    let chan: Channel<u64, WcQueue<u64>> =
        Channel::wcq(cfg(1, 1, 1).with_overload(hair_trigger(8)), 16);
    let mut tx = chan.sender();
    let mut rx = chan.receiver();
    // Fill the ring to Full — beyond the quota of 8, so the shard is
    // overloaded *and* the engine refuses.
    let mut preload = 0u64;
    while tx.try_send(preload).is_ok() {
        preload += 1;
    }
    assert!(preload >= 8, "ring should accept past the soft quota before filling");
    // Let the watchdog confirm the quarantine while nothing drains.
    let deadline = Instant::now() + Duration::from_secs(30);
    while chan.health_snapshot().quarantined() == 0 {
        assert!(Instant::now() < deadline, "shard never quarantined: {:?}", chan.health_snapshot());
        let _ = tx.try_send(preload);
        std::thread::sleep(Duration::from_millis(2));
    }

    let batch_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let done = &batch_done;
        s.spawn(move || {
            // Straddles the sick shard: far larger than ring capacity,
            // so it must park repeatedly against both refusal kinds.
            tx.send_batch(preload..preload + BATCH).expect("receiver vanished");
            done.store(true, Ordering::SeqCst);
        });
        // Give the batch time to wedge against the quarantined shard,
        // then recover the consumer slowly (each drain frees one slot).
        std::thread::sleep(Duration::from_millis(50));
        assert!(!batch_done.load(Ordering::SeqCst), "batch cannot finish against a full ring");
        let mut expect = 0u64;
        let total = preload + BATCH;
        while expect < total {
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(v) => {
                    assert_eq!(v, expect, "FIFO broke across the quarantine episode");
                    expect += 1;
                }
                Err(e) => panic!(
                    "batch sender deadlocked against the quarantined shard \
                     (stuck at {expect}/{total}): {e:?}"
                ),
            }
        }
    });
    assert!(batch_done.load(Ordering::SeqCst), "send_batch never returned");
}

// ---------------------------------------------------------------------
// memory-pressure signal
// ---------------------------------------------------------------------

/// A healthy 1P1C stream over `Channel::kp` is not memory pressure. The
/// consumer retires a node per message and never enqueues, so its
/// retired nodes must reach the producer through the engine's shared
/// pool; if they instead overflowed its retire cache, every message
/// would count as a pressure event and a pressure quota would refuse a
/// stream that is keeping up.
#[test]
fn healthy_kp_stream_reports_no_memory_pressure() {
    const MESSAGES: u64 = 200_000;
    const CREDIT: u64 = 256;
    let chan: Channel<u64, WfQueue<u64>> = Channel::kp(cfg(1, 1, 1));
    let mut tx = chan.sender();
    let mut rx = chan.receiver();
    let received = AtomicU64::new(0);
    std::thread::scope(|s| {
        let received = &received;
        s.spawn(move || {
            for seq in 0..MESSAGES {
                while seq - received.load(Ordering::Acquire) >= CREDIT {
                    std::thread::yield_now();
                }
                tx.try_send(seq)
                    .expect("an unbounded KP shard never refuses");
            }
        });
        for expect in 0..MESSAGES {
            let v = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("stream stalled");
            assert_eq!(v, expect, "single-producer FIFO");
            received.store(expect + 1, Ordering::Release);
        }
    });
    let pressure = chan.health_snapshot().shards[0].pressure;
    assert!(
        pressure * 100 < MESSAGES,
        "{pressure} memory-pressure events over {MESSAGES} messages (bound: 0.01 per message)"
    );
}

// ---------------------------------------------------------------------
// snapshot plumbing
// ---------------------------------------------------------------------

#[test]
fn health_snapshot_reports_park_traffic() {
    let chan: Channel<u64, WcQueue<u64>> = Channel::wcq(cfg(1, 1, 1), 4);
    let mut tx = chan.sender();
    let mut rx = chan.receiver();
    // Force one receiver park (empty) and one sender park (full).
    assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
    for v in 0..4 {
        tx.try_send(v).unwrap();
    }
    assert!(matches!(tx.try_send(4), Err(TrySendError::Full(4))));
    assert!(matches!(
        tx.send_timeout(4, Duration::from_millis(5)),
        Err(SendTimeoutError::Timeout(4))
    ));
    let snap = chan.health_snapshot();
    assert!(snap.rx_parks >= 1, "receiver park not recorded: {snap:?}");
    assert!(snap.shards[0].tx_parks >= 1, "sender park not recorded: {snap:?}");
    assert_eq!(snap.rx_sleepers, 0, "nobody is parked now");
    assert_eq!(snap.shards[0].tx_sleepers, 0);
}
