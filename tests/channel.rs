//! Cross-engine integration tests for the sharded channel front-end
//! (DESIGN.md §15): the same MPMC contract — exactly-once delivery and
//! FIFO per producer within each consumer's stream — exercised over
//! both shard cores (bounded wCQ ring, unbounded Kogan–Petrank), plus
//! the capacity/disconnect edges and the async receiver running on the
//! tokio task pool.

use std::collections::HashSet;
use std::time::Duration;

use wfq_repro::kp_channel::{Channel, ChannelConfig, RecvTimeoutError, TrySendError};
use wfq_repro::kp_queue::{Config, WfQueue, WfQueueHp};
use wfq_repro::traits::ConcurrentQueue;
use wfq_repro::wcq::WcQueue;

fn cfg(shards: usize, senders: usize, receivers: usize) -> ChannelConfig {
    ChannelConfig::new()
        .with_shards(shards)
        .with_max_senders(senders)
        .with_max_receivers(receivers)
}

/// Tags a value with its producer so consumers can audit order.
fn tag(p: u64, seq: u64) -> u64 {
    (p << 48) | seq
}

/// Runs `producers x per` tagged values through `chan` with a mix of
/// scalar and batched sends, collects every consumer's stream, and
/// checks exactly-once delivery plus FIFO-per-producer within each
/// stream (the documented ordering contract: no cross-consumer claim).
fn mpmc_exactly_once<Q: ConcurrentQueue<u64>>(
    chan: &Channel<u64, Q>,
    producers: usize,
    consumers: usize,
    per: usize,
) {
    // Mint every handle up front: minting concurrently with the drop
    // of the last live sender is the documented logical race (a fast
    // producer could finish and drop before the next mint, latching
    // the channel closed).
    let txs: Vec<_> = (0..producers).map(|_| chan.sender()).collect();
    let rxs: Vec<_> = (0..consumers).map(|_| chan.receiver()).collect();
    let streams: Vec<Vec<u64>> = std::thread::scope(|s| {
        for (p, mut tx) in txs.into_iter().enumerate() {
            let p = p as u64;
            s.spawn(move || {
                let mut seq = 0u64;
                while (seq as usize) < per {
                    if seq.is_multiple_of(3) {
                        // A small batch...
                        let n = 8.min(per as u64 - seq);
                        tx.send_batch((0..n).map(|i| tag(p, seq + i)))
                            .expect("receivers vanished");
                        seq += n;
                    } else {
                        // ...then scalar sends, so both paths interleave.
                        tx.send(tag(p, seq)).expect("receivers vanished");
                        seq += 1;
                    }
                }
            });
        }
        let handles: Vec<_> = rxs
            .into_iter()
            .map(|mut rx| {
                s.spawn(move || {
                    let mut stream = Vec::new();
                    let mut buf = Vec::with_capacity(16);
                    while rx.recv_batch(&mut buf, 16).is_ok() {
                        stream.append(&mut buf);
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
                assert!(prev < seq, "producer {p} reordered within one consumer");
            }
            last[p] = Some(seq);
        }
    }
    assert_eq!(seen.len(), producers * per, "lost values");
}

#[test]
fn mpmc_exactly_once_over_wcq_core() {
    for shards in [1, 3] {
        let chan = Channel::wcq(cfg(shards, 3, 2), 256);
        mpmc_exactly_once(&chan, 3, 2, 600);
    }
}

#[test]
fn mpmc_exactly_once_over_kp_core() {
    for shards in [1, 3] {
        let chan = Channel::kp(cfg(shards, 3, 2));
        mpmc_exactly_once(&chan, 3, 2, 600);
    }
}

/// The hazard-pointer engine as a shard core: its batch operations run
/// under the channel's `send_batch`/`recv_batch`.
#[test]
fn mpmc_exactly_once_over_kp_hazard_core() {
    for shards in [1, 3] {
        let chan = Channel::with_factory(cfg(shards, 3, 2), |s| {
            WfQueueHp::with_config(s.threads, Config::fast())
        });
        mpmc_exactly_once(&chan, 3, 2, 600);
    }
}

/// The bounded core surfaces capacity as `Full` without blocking, and
/// the same channel recovers once a receiver drains it.
#[test]
fn bounded_core_full_then_recovers() {
    let chan: Channel<u64, WcQueue<u64>> = Channel::wcq(cfg(1, 1, 1), 64);
    let mut tx = chan.sender();
    let mut rx = chan.receiver();
    let mut accepted = 0u64;
    let overflow = loop {
        match tx.try_send(accepted) {
            Ok(()) => accepted += 1,
            Err(TrySendError::Full(v)) => break v,
            Err(TrySendError::Disconnected(_)) => panic!("receiver still live"),
        }
    };
    assert_eq!(accepted, 64, "ring accepts exactly its capacity");
    assert_eq!(overflow, 64, "rejected value returned intact");
    for expect in 0..accepted {
        assert_eq!(rx.try_recv(), Ok(expect), "drain is FIFO");
    }
    tx.try_send(overflow).expect("drained ring accepts again");
    assert_eq!(rx.try_recv(), Ok(overflow));
}

/// The unbounded core never reports `Full`; a burst far beyond any
/// ring size just grows the queue.
#[test]
fn unbounded_core_absorbs_bursts() {
    let chan: Channel<u64, WfQueue<u64>> = Channel::kp(cfg(1, 1, 1));
    let mut tx = chan.sender();
    let mut rx = chan.receiver();
    let sent = tx.send_batch(0..20_000).expect("receiver live");
    assert_eq!(sent, 20_000);
    let mut buf = Vec::new();
    let mut got = 0;
    while got < 20_000 {
        got += rx.recv_batch(&mut buf, 1024).expect("values present");
        buf.clear();
    }
    assert_eq!(got, 20_000);
}

/// `recv_timeout` reports `Timeout` on a live-but-idle channel and
/// `Disconnected` after the last sender is gone and the queue drained.
#[test]
fn recv_timeout_distinguishes_idle_from_disconnected() {
    let chan: Channel<u64, WcQueue<u64>> = Channel::wcq(cfg(2, 1, 1), 64);
    let tx = chan.sender();
    let mut rx = chan.receiver();
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(10)),
        Err(RecvTimeoutError::Timeout)
    );
    drop(tx);
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(10)),
        Err(RecvTimeoutError::Disconnected)
    );
}

/// The async receiver end to end on the tokio worker pool: OS-thread
/// producers, task consumers awaiting `recv_async`, disconnect resolves
/// every pending future to `None`. Exactly-once and FIFO-per-producer
/// audited per task.
#[test]
fn async_receivers_drain_thread_producers() {
    const PRODUCERS: usize = 2;
    const TASKS: usize = 3;
    const PER: usize = 2_000;
    // `tokio::spawn` wants `'static`; park the channel in a leaked
    // allocation as a process-lifetime service would.
    let chan: &'static Channel<u64, WcQueue<u64>> =
        Box::leak(Box::new(Channel::wcq(cfg(2, PRODUCERS, TASKS), 512)));

    // All senders minted before any can run to completion and drop
    // (see the mint-vs-last-drop note in `mpmc_exactly_once`).
    let txs: Vec<_> = (0..PRODUCERS).map(|_| chan.sender()).collect();
    let producers: Vec<_> = txs
        .into_iter()
        .enumerate()
        .map(|(p, mut tx)| {
            let p = p as u64;
            std::thread::spawn(move || {
                let mut seq = 0u64;
                while (seq as usize) < PER {
                    let n = 32.min(PER as u64 - seq);
                    tx.send_batch((0..n).map(|i| tag(p, seq + i)))
                        .expect("tasks vanished");
                    seq += n;
                }
            })
        })
        .collect();

    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .enable_all()
        .build()
        .expect("runtime");
    let received: usize = rt.block_on(async {
        let mut tasks = Vec::new();
        for _ in 0..TASKS {
            let mut rx = chan.receiver();
            tasks.push(tokio::spawn(async move {
                let mut got = Vec::new();
                while let Some(v) = rx.recv_async().await {
                    got.push(v);
                }
                got
            }));
        }
        for p in producers {
            p.join().expect("producer panicked");
        }
        let mut seen = HashSet::new();
        for t in tasks {
            let stream = t.await.expect("task cancelled");
            let mut last = [None::<u64>; PRODUCERS];
            for v in stream {
                assert!(seen.insert(v), "value {v:#x} delivered twice");
                let (p, seq) = ((v >> 48) as usize, v & 0xffff_ffff_ffff);
                if let Some(prev) = last[p] {
                    assert!(prev < seq, "producer {p} reordered within one task");
                }
                last[p] = Some(seq);
            }
        }
        seen.len()
    });
    assert_eq!(received, PRODUCERS * PER);
}
