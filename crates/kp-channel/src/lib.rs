//! A sharded, batching MPMC channel front-end over any
//! [`queue-traits`](queue_traits) engine.
//!
//! The engines in this workspace (KP and wCQ) pay a helping cost that
//! grows with the number of threads contending on *one* queue instance.
//! This crate recovers scalability the systems way: **shard** the
//! channel across N engine instances with producer-sticky routing,
//! **batch** sends and receives so a burst pays one shard acquisition,
//! and layer **blocking / async receive** on top so the whole thing
//! drops into a service. DESIGN.md §15 documents the ordering contract,
//! the batching linearizability argument, and the waker protocol; §16
//! the overload model; the short version:
//!
//! - **Ordering.** Each [`Sender`] is pinned to one shard at creation
//!   (round-robin assignment), and each shard is itself a linearizable
//!   FIFO, so the channel preserves *FIFO per producer*: two values
//!   sent by the same sender are received in send order. No order is
//!   promised between values from different senders — that is the
//!   relaxation sharding buys its throughput with. (The opt-in
//!   [`QuarantinePolicy::Reroute`] trades this guarantee away; see
//!   its docs.)
//! - **Wakeups.** Blocking and async receivers share one waiter
//!   registry and a Dekker-style `sleepers` gauge: a receiver registers
//!   *then* re-checks every shard before parking, a sender enqueues
//!   *then* checks the gauge. Capacity-blocked senders park on a
//!   symmetric per-shard registry that receivers notify after each
//!   dequeue. Under the total order on the SeqCst gauge operations
//!   and the engines' linearization points, one of the two re-checks
//!   always observes the other side, so no wakeup is lost.
//! - **Capacity and overload.** Over a bounded core (wCQ) a full shard
//!   surfaces as [`TrySendError::Full`] from [`Sender::try_send`],
//!   while [`Sender::send`] treats it as backpressure and *parks*
//!   until a receiver frees a slot; [`Sender::send_timeout`] bounds
//!   the wait. Unbounded cores (KP) never report full from the engine,
//!   but an [`OverloadConfig`] can impose a soft depth/pressure quota
//!   (admission control) and a shard-health watchdog that quarantines
//!   shards whose consumers have stalled — see
//!   [`Channel::health_snapshot`]. Dropping the last sender latches
//!   the channel *disconnected*: receivers drain what remains, then
//!   see [`TryRecvError::Disconnected`].
//!
//! Handles borrow the channel (`Sender<'a, ..>`), matching the
//! register-then-operate usage model of the engines. To move receivers
//! into `'static` contexts (e.g. `tokio::spawn`), give the channel a
//! `'static` home first — `Box::leak(Box::new(chan))` in
//! `examples/ingest_server.rs`.

#![warn(missing_docs)]

mod chaos_hooks;
mod errors;
mod overload;
mod park;
mod receiver;
mod sender;
#[cfg(test)]
mod tests;

pub use errors::{
    RecvError, RecvTimeoutError, SendError, SendTimeoutError, SubscribeError, TryRecvError,
    TrySendError,
};
pub use overload::{HealthSnapshot, HealthState, OverloadConfig, QuarantinePolicy, ShardSnapshot};
pub use receiver::{Receiver, RecvFuture};
pub use sender::Sender;

use kp_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use overload::{Gauges, HealthEvent, ShardHealth};
use park::ParkRegistry;
pub(crate) use park::{WaitGuard, WaiterKind};
use queue_traits::ConcurrentQueue;
use std::marker::PhantomData;
use std::task::Waker;
use std::time::Instant;

use chaos_hooks::inject;

/// Ops between a handle's opportunistic watchdog-tick attempts; the
/// reaper's TICK_STRIDE idea at channel granularity, so hot paths pay
/// one `Instant::now` per stride, not per op.
pub(crate) const TICK_STRIDE: u32 = 16;

/// Sizing knobs for a [`Channel`].
///
/// `max_senders`/`max_receivers` bound how many handles may be live at
/// once; they size each shard's engine thread capacity (every receiver
/// registers on every shard, senders are spread round-robin but bounded
/// pessimistically — which is also what lets `Reroute` senders register
/// lazily on foreign shards).
#[derive(Debug, Clone, Copy)]
pub struct ChannelConfig {
    /// Number of engine instances values are sharded over.
    pub shards: usize,
    /// Upper bound on simultaneously live [`Sender`]s.
    pub max_senders: usize,
    /// Upper bound on simultaneously live [`Receiver`]s.
    pub max_receivers: usize,
    /// Overload-control knobs; [`OverloadConfig::disabled`] by default.
    pub overload: OverloadConfig,
}

impl ChannelConfig {
    /// One shard, 16 senders, 16 receivers, overload control off.
    pub fn new() -> ChannelConfig {
        ChannelConfig {
            shards: 1,
            max_senders: 16,
            max_receivers: 16,
            overload: OverloadConfig::disabled(),
        }
    }

    /// Sets the shard count (≥ 1).
    pub fn with_shards(mut self, shards: usize) -> ChannelConfig {
        assert!(shards >= 1, "a channel needs at least one shard");
        self.shards = shards;
        self
    }

    /// Sets the live-sender bound (≥ 1).
    pub fn with_max_senders(mut self, n: usize) -> ChannelConfig {
        assert!(n >= 1);
        self.max_senders = n;
        self
    }

    /// Sets the live-receiver bound (≥ 1).
    pub fn with_max_receivers(mut self, n: usize) -> ChannelConfig {
        assert!(n >= 1);
        self.max_receivers = n;
        self
    }

    /// Sets the overload-control configuration (DESIGN.md §16).
    pub fn with_overload(mut self, overload: OverloadConfig) -> ChannelConfig {
        self.overload = overload;
        self
    }

    /// Engine thread capacity each shard must provide: every receiver
    /// registers on every shard, and in the worst case every sender
    /// lands on one shard (handles outlive rebalancing; `Reroute`
    /// senders mint lazy foreign-shard handles out of the same
    /// budget).
    pub fn threads_per_shard(&self) -> usize {
        self.max_senders + self.max_receivers
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig::new()
    }
}

/// Everything a shard factory needs to build one engine instance.
#[derive(Debug, Clone, Copy)]
pub struct ShardSpec {
    /// This shard's index, `0..shards`.
    pub index: usize,
    /// Total shard count.
    pub shards: usize,
    /// Minimum thread capacity the engine must register.
    pub threads: usize,
}

/// Admission decision for one send (see [`Channel::admit`]).
pub(crate) enum Gate {
    /// Proceed to the engine.
    Admit,
    /// Refused by quota or quarantine. `reroute` is set when the
    /// refusal came from a quarantined shard under
    /// [`QuarantinePolicy::Reroute`] — the caller should try
    /// [`Channel::reroute_target`] before treating it as `Full`.
    Refuse {
        /// Try another shard instead of backpressuring.
        reroute: bool,
    },
}

/// The sharded channel. Mint handles with [`sender`](Channel::sender) /
/// [`receiver`](Channel::receiver); the channel itself is the shared
/// home the handles borrow.
pub struct Channel<T: Send, Q: ConcurrentQueue<T>> {
    shards: Box<[Q]>,
    /// Round-robin cursor for sticky sender→shard assignment.
    next_shard: AtomicUsize,
    /// Live handle counts; reaching zero latches the matching `closed`.
    tx_live: AtomicUsize,
    rx_live: AtomicUsize,
    /// Latched by the last sender/receiver drop. Once set, that side
    /// never reopens: `try_sender`/`try_receiver` refuse.
    tx_closed: AtomicBool,
    rx_closed: AtomicBool,
    /// Receivers waiting for values.
    rx_parks: ParkRegistry,
    /// Capacity-blocked senders waiting for slots, one registry per
    /// shard: a slot freed on shard `s` can only unblock a sender of
    /// shard `s`, so a global registry would let wake tokens die on
    /// senders of the wrong shard.
    tx_parks: Box<[ParkRegistry]>,
    /// Watchdog state, one per shard.
    health: Box<[ShardHealth]>,
    overload: OverloadConfig,
    /// `overload.enabled()`, cached: the one branch disabled channels
    /// pay per send.
    overload_on: bool,
    /// Wall-clock epoch for the watchdog's millisecond timestamps.
    epoch: Instant,
    /// Channel-epoch ms of the last claimed watchdog tick; claiming is
    /// a CAS so exactly one thread runs each tick's state machine.
    tick_claim: AtomicU64,
    _values: PhantomData<fn(T) -> T>,
}

impl<T: Send, Q: ConcurrentQueue<T>> Channel<T, Q> {
    /// Builds a channel whose shards come from `factory` (called once
    /// per shard, in index order).
    pub fn with_factory(cfg: ChannelConfig, mut factory: impl FnMut(ShardSpec) -> Q) -> Self {
        let threads = cfg.threads_per_shard();
        let shards: Vec<Q> = (0..cfg.shards)
            .map(|index| factory(ShardSpec { index, shards: cfg.shards, threads }))
            .collect();
        for (i, q) in shards.iter().enumerate() {
            assert!(
                q.thread_capacity() >= threads,
                "shard {i} registers only {} handles, config needs {threads}",
                q.thread_capacity()
            );
        }
        Channel {
            tx_parks: shards.iter().map(|_| ParkRegistry::new()).collect(),
            health: shards.iter().map(|_| ShardHealth::new()).collect(),
            shards: shards.into_boxed_slice(),
            next_shard: AtomicUsize::new(0),
            tx_live: AtomicUsize::new(0),
            rx_live: AtomicUsize::new(0),
            tx_closed: AtomicBool::new(false),
            rx_closed: AtomicBool::new(false),
            rx_parks: ParkRegistry::new(),
            overload_on: cfg.overload.enabled(),
            overload: cfg.overload,
            epoch: Instant::now(),
            tick_claim: AtomicU64::new(0),
            _values: PhantomData,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether the send side has closed (last sender dropped).
    pub fn is_disconnected(&self) -> bool {
        // ord(stats): advisory disconnect probe for callers; Acquire pairs with
        // the latch store
        self.tx_closed.load(Ordering::Acquire)
    }

    /// The overload configuration this channel runs with.
    pub fn overload_config(&self) -> &OverloadConfig {
        &self.overload
    }

    /// Mints a sender pinned to the next shard round-robin.
    ///
    /// Minting concurrently with the drop of the last live sender is a
    /// logical race: create the handles you need before the last one
    /// can go away.
    pub fn try_sender(&self) -> Result<Sender<'_, T, Q>, SubscribeError> {
        // ord(helper-guard): refuses to mint on a closed channel; Acquire pairs
        // with the latch store
        if self.tx_closed.load(Ordering::Acquire) {
            return Err(SubscribeError::Closed);
        }
        // ord(stats): round-robin shard assignment ticket; pure routing, no
        // synchronization intent
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let handle = self.shards[shard].register().map_err(SubscribeError::Capacity)?;
        // ord(helper-guard): sender refcount up; Relaxed -- minting is ordered
        // by the &Channel borrow, the AcqRel decrement in sender_dropped
        // carries the ordering
        self.tx_live.fetch_add(1, Ordering::Relaxed);
        Ok(Sender::new(self, handle, shard))
    }

    /// [`try_sender`](Channel::try_sender), panicking on failure.
    pub fn sender(&self) -> Sender<'_, T, Q> {
        self.try_sender().expect("cannot mint channel sender")
    }

    /// Mints a receiver holding one engine handle per shard.
    pub fn try_receiver(&self) -> Result<Receiver<'_, T, Q>, SubscribeError> {
        // ord(helper-guard): refuses to mint on a closed channel; Acquire pairs
        // with the latch store
        if self.rx_closed.load(Ordering::Acquire) {
            return Err(SubscribeError::Closed);
        }
        let mut handles = Vec::with_capacity(self.shards.len());
        for q in self.shards.iter() {
            handles.push(q.register().map_err(SubscribeError::Capacity)?);
        }
        // Stagger each receiver's initial sweep cursor so concurrent
        // receivers start draining *different* shards instead of all
        // contending on shard 0's head.
        // ord(helper-guard): receiver refcount up, doubling as the sweep-cursor
        // stagger ticket; Relaxed for the same reason as try_sender's
        let start = self.rx_live.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        Ok(Receiver::new(self, handles, start))
    }

    /// [`try_receiver`](Channel::try_receiver), panicking on failure.
    pub fn receiver(&self) -> Receiver<'_, T, Q> {
        self.try_receiver().expect("cannot mint channel receiver")
    }

    // ---- receiver-side waiter registry (DESIGN.md §15) ----

    /// Publishes a receiver waiter (Dekker store; see `park.rs`).
    pub(crate) fn register_waiter(&self, kind: WaiterKind) -> u64 {
        self.rx_parks.register(kind)
    }

    /// Withdraws a registration; `false` means a token was spent on
    /// the caller (consume it or pass it on).
    pub(crate) fn cancel_waiter(&self, id: u64) -> bool {
        self.rx_parks.cancel(id)
    }

    /// Re-arms an async registration with a fresh waker.
    pub(crate) fn rearm_waiter(&self, id: u64, waker: &Waker) -> bool {
        self.rx_parks.rearm(id, waker)
    }

    /// Pops and wakes the oldest receiver waiter, if any.
    pub(crate) fn wake_one(&self) -> bool {
        inject!("chan.wake");
        self.rx_parks.wake_one()
    }

    /// Sender-side notification after one enqueue. The gauge load is
    /// the Dekker check: SeqCst, globally ordered after the enqueue.
    pub(crate) fn notify_one(&self) {
        if self.rx_parks.sleepers() > 0 {
            self.wake_one();
        }
    }

    /// Sender-side notification after a batch of `n` enqueues: wakes up
    /// to `n` waiters (one re-check each suffices to drain the batch or
    /// prove it was drained by others).
    pub(crate) fn notify_many(&self, n: usize) {
        if n == 0 {
            return;
        }
        let sleeping = self.rx_parks.sleepers();
        for _ in 0..n.min(sleeping) {
            if !self.wake_one() {
                break;
            }
        }
    }

    /// Wakes every receiver waiter (disconnect broadcast).
    pub(crate) fn wake_all(&self) {
        while self.wake_one() {}
    }

    // ---- sender-side (capacity) waiter registry (DESIGN.md §16) ----

    /// Shard `shard`'s capacity-waiter registry, for senders to park
    /// on.
    pub(crate) fn tx_registry(&self, shard: usize) -> &ParkRegistry {
        &self.tx_parks[shard]
    }

    /// Receiver-side notification after draining `n` values from
    /// `shard`: each freed slot can admit one parked sender. The gauge
    /// load is the symmetric Dekker check, SeqCst-ordered after the
    /// engine dequeue.
    pub(crate) fn notify_tx(&self, shard: usize, n: usize) {
        if n != 0 && self.tx_parks[shard].sleepers() > 0 {
            inject!("chan.wake");
            self.tx_parks[shard].notify_many(n);
        }
    }

    // ---- overload control (DESIGN.md §16) ----

    /// Milliseconds since channel creation (the watchdog clock).
    pub(crate) fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn gauges(&self, shard: usize) -> Gauges {
        let q = &self.shards[shard];
        Gauges {
            depth: q.depth_hint(),
            capacity: q.capacity_hint(),
            drained: q.drained_hint(),
            pressure: q.pressure_hint(),
        }
    }

    /// Opportunistic watchdog tick: claims the next tick slot by CAS
    /// if `tick_interval` has passed, and runs the per-shard state
    /// machine. Called from send/receive paths on a stride, and from
    /// sender park loops directly (a stalled consumer means nobody
    /// else is ticking).
    pub(crate) fn maybe_tick(&self) {
        if !self.overload_on {
            return;
        }
        let now = self.now_ms();
        // ord(stats): tick-due probe on the watchdog's claim word; Relaxed --
        // recency not ordering, a stale read only delays a tick by one interval
        let last = self.tick_claim.load(Ordering::Relaxed);
        if now.saturating_sub(last) < self.overload.tick_interval.as_millis() as u64 {
            return;
        }
        if self
            .tick_claim
            // ord(helper-guard): elects one tick claimant per interval (the
            // threadless watchdog, DESIGN.md SS16.3); Relaxed is sound because
            // the gauges the winner reads are advisory relaxed counters and the
            // state machine publishes through ShardHealth's Release stores, not
            // through this CAS
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        for shard in 0..self.shards.len() {
            let g = self.gauges(shard);
            match self.health[shard].observe(now, &g, &self.overload) {
                Some(HealthEvent::Quarantined) => {
                    inject!("chan.quarantine");
                    // Senders parked on the shard must re-evaluate:
                    // under Reroute they can leave, under Backpressure
                    // they re-park with the bounded-poll floor.
                    self.tx_parks[shard].wake_all();
                }
                Some(HealthEvent::Readmitted) => {
                    self.tx_parks[shard].wake_all();
                }
                None => {}
            }
        }
    }

    /// Admission decision for one send to `shard`. With overload
    /// control disabled this is a single branch.
    pub(crate) fn admit(&self, shard: usize) -> Gate {
        if !self.overload_on {
            return Gate::Admit;
        }
        inject!("chan.admit");
        let h = &self.health[shard];
        if h.state() == HealthState::Quarantined {
            // Inline re-admission: a recovered consumer shows up at
            // the next send, not the next tick.
            let g = self.gauges(shard);
            if h.try_readmit(&g, &self.overload).is_some() {
                self.tx_parks[shard].wake_all();
                return Gate::Admit;
            }
            if h.claim_probe(self.now_ms(), &self.overload) {
                inject!("chan.probe");
                return Gate::Admit;
            }
            return Gate::Refuse {
                reroute: self.overload.policy == QuarantinePolicy::Reroute,
            };
        }
        if h.pressure_hot() {
            return Gate::Refuse { reroute: false };
        }
        if let Some(quota) = self.overload.depth_quota {
            if self.shards[shard].depth_hint().is_some_and(|d| d > quota) {
                return Gate::Refuse { reroute: false };
            }
        }
        Gate::Admit
    }

    /// The next non-quarantined shard after `home`, for
    /// [`QuarantinePolicy::Reroute`]; `None` when every other shard is
    /// also quarantined.
    pub(crate) fn reroute_target(&self, home: usize) -> Option<usize> {
        let n = self.shards.len();
        (1..n)
            .map(|i| (home + i) % n)
            .find(|&s| self.health[s].state() != HealthState::Quarantined)
    }

    /// Shard `i`'s engine, for lazy foreign-shard handle registration.
    pub(crate) fn shard_queue(&self, i: usize) -> &Q {
        &self.shards[i]
    }

    /// Bounded-poll floor for senders parked on an *advisory-gauge*
    /// refusal (quota or quarantine): such parks re-poll at the probe
    /// interval instead of relying on a wakeup, because the gauges
    /// carry no Dekker liveness guarantee. Engine-`Full` parks have
    /// one (receiver dequeues notify the registry) and wait
    /// indefinitely.
    pub(crate) fn gate_poll_interval(&self) -> std::time::Duration {
        self.overload.probe_interval
    }

    /// Operator view: per-shard gauges, quarantine state, and parking
    /// counters. All advisory (relaxed reads of live counters).
    pub fn health_snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            shards: (0..self.shards.len())
                .map(|i| {
                    let g = self.gauges(i);
                    let h = &self.health[i];
                    let p = &self.tx_parks[i];
                    ShardSnapshot {
                        state: h.state(),
                        depth: g.depth,
                        capacity: g.capacity,
                        drained: g.drained,
                        pressure: g.pressure,
                        quarantines: h.quarantine_count(),
                        probes: h.probe_count(),
                        tx_sleepers: p.sleepers(),
                        tx_parks: p.park_count(),
                        tx_wakes: p.wake_count(),
                    }
                })
                .collect(),
            rx_sleepers: self.rx_parks.sleepers(),
            rx_parks: self.rx_parks.park_count(),
            rx_wakes: self.rx_parks.wake_count(),
        }
    }

    // ---- handle drop accounting ----

    pub(crate) fn sender_dropped(&self) {
        // ord(helper-guard): last-sender detection: AcqRel so the ==1 winner
        // observes every peer's sends before latching
        if self.tx_live.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender: latch the disconnect, then broadcast so
            // parked receivers re-check and observe it. The store is
            // ordered before the registry critical section every woken
            // receiver passes through in `cancel_waiter`.
            // ord(doorway): the disconnect latch -- the point after which recv
            // returns Disconnected; Release publishes it to the Acquire polls,
            // and the wake_all broadcast re-checks it under the registry lock
            self.tx_closed.store(true, Ordering::Release);
            self.wake_all();
        }
    }

    pub(crate) fn receiver_dropped(&self) {
        // ord(helper-guard): last-receiver detection: AcqRel mirror of
        // sender_dropped
        if self.rx_live.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Latch first, then broadcast to capacity-parked senders:
            // with no receivers left nobody will ever free a slot, so
            // every parked sender must wake and observe Disconnected.
            // ord(doorway): the send-side disconnect latch; senders poll it in
            // their backpressure loops, so no broadcast is needed
            self.rx_closed.store(true, Ordering::Release);
            for reg in self.tx_parks.iter() {
                reg.wake_all();
            }
        }
    }

    pub(crate) fn rx_closed(&self) -> bool {
        // ord(helper-guard): send-path disconnect poll; Acquire pairs with the
        // latch store
        self.rx_closed.load(Ordering::Acquire)
    }

    pub(crate) fn tx_closed(&self) -> bool {
        // ord(helper-guard): recv-path disconnect poll; Acquire pairs with the
        // latch store
        self.tx_closed.load(Ordering::Acquire)
    }
}

impl<T: Send, Q: ConcurrentQueue<T>> std::fmt::Debug for Channel<T, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Channel")
            .field("shards", &self.shards.len())
            // ord(stats): Debug formatting; approximate values are fine
            .field("tx_live", &self.tx_live.load(Ordering::Relaxed))
            // ord(stats): Debug formatting; approximate values are fine
            .field("rx_live", &self.rx_live.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> Channel<T, wcq::WcQueue<T>> {
    /// A channel over bounded wCQ ring shards, each holding at most
    /// `shard_capacity` values (rounded up to a power of two by the
    /// engine). Full shards surface as [`TrySendError::Full`].
    pub fn wcq(cfg: ChannelConfig, shard_capacity: usize) -> Self {
        Channel::with_factory(cfg, |s| {
            wcq::WcQueue::with_config(s.threads, wcq::Config::new().with_capacity(shard_capacity))
        })
    }
}

impl<T: Send + 'static> Channel<T, kp_queue::WfQueue<T>> {
    /// A channel over unbounded Kogan–Petrank shards; the engine never
    /// reports full, though an [`OverloadConfig`] admission quota can
    /// (DESIGN.md §16).
    ///
    /// Shards run the production fast-path/slow-path configuration
    /// (DESIGN.md §12): the bounded Michael–Scott CAS loop first, the
    /// paper's descriptor-and-helping machinery as the wait-free
    /// fallback. The channel is a front-end, not a measurement rig —
    /// the paper-series slow-only configurations stay available through
    /// [`Channel::with_factory`] for ablation runs.
    pub fn kp(cfg: ChannelConfig) -> Self {
        Channel::with_factory(cfg, |s| {
            kp_queue::WfQueue::with_config(s.threads, kp_queue::Config::fast())
        })
    }
}
