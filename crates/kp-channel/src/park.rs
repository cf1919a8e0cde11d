//! The waiter registry: a FIFO of parked threads / pending task wakers
//! behind a Dekker-style `sleepers` gauge.
//!
//! One instance serves the channel's receivers (waiting for *values*);
//! one instance per shard serves its capacity-blocked senders (waiting
//! for *slots*). Both sides run the same protocol, spelled out in
//! DESIGN.md §15 and §16:
//!
//! - A waiter **registers** (pushing itself and bumping the gauge —
//!   the SeqCst Dekker store), **re-checks** its condition, and only
//!   then parks.
//! - A notifier makes the condition true (enqueue / dequeue at the
//!   engine's linearization point), then **loads the gauge** (SeqCst).
//!   The total order on the SeqCst gauge operations and the engine
//!   steps guarantees one of the two re-checks observes the other
//!   side, so no wakeup is lost.
//! - A popped-but-not-needed wake is a **token** that must be passed
//!   on ([`finish`](ParkRegistry::finish)), never dropped: the FIFO
//!   pop may have skipped the waiter the condition was meant for.
//!
//! The registry also keeps two relaxed statistics counters (`parks`,
//! `wakes`) surfaced through the channel's `HealthSnapshot` — an
//! operator watching parks grow much faster than wakes is watching
//! overload form in real time.

use kp_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::task::Waker;

/// A waiter parked on an OS thread or pending on a task waker.
pub(crate) enum WaiterKind {
    Thread(std::thread::Thread),
    Task(Waker),
}

impl WaiterKind {
    fn wake(self) {
        match self {
            WaiterKind::Thread(t) => t.unpark(),
            WaiterKind::Task(w) => w.wake(),
        }
    }
}

/// FIFO list guarded by the registry mutex; the `sleepers` gauge
/// mirrors its length.
struct WaiterList {
    slots: VecDeque<(u64, WaiterKind)>,
    next_id: u64,
}

/// One parking domain: gauge + FIFO + counters. See the module docs
/// for the protocol.
pub(crate) struct ParkRegistry {
    /// Dekker gauge: number of entries in `waiters`. Notifiers read it
    /// after their engine step to decide whether a wake is needed
    /// without taking the lock on the common path.
    sleepers: AtomicUsize,
    waiters: Mutex<WaiterList>,
    /// Total registrations (relaxed statistic).
    parks: AtomicU64,
    /// Total wake tokens spent — successful pops (relaxed statistic).
    wakes: AtomicU64,
}

impl ParkRegistry {
    pub(crate) fn new() -> Self {
        ParkRegistry {
            sleepers: AtomicUsize::new(0),
            waiters: Mutex::new(WaiterList { slots: VecDeque::new(), next_id: 0 }),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, WaiterList> {
        // The registry stays consistent through a panicking waiter (all
        // mutation is push/remove of plain entries), so poison is not
        // load-bearing here.
        self.waiters.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes a waiter. The gauge increment is the Dekker store: it
    /// is SeqCst so it is globally ordered before the caller's
    /// subsequent condition re-check.
    pub(crate) fn register(&self, kind: WaiterKind) -> u64 {
        let mut w = self.lock();
        let id = w.next_id;
        w.next_id += 1;
        w.slots.push_back((id, kind));
        // ord(doorway, sc=park-dekker): sleepers gauge up under the registry
        // lock: the Dekker publication a notifier's post-step gauge read must
        // observe
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        // ord(stats): total-parks counter for HealthSnapshot; no
        // synchronization intent
        self.parks.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Withdraws a registration. Returns `false` if a notifier already
    /// popped it — a wake token was spent on the caller, who must
    /// either consume it (by re-checking the condition) or pass it on
    /// via [`wake_one`](ParkRegistry::wake_one).
    pub(crate) fn cancel(&self, id: u64) -> bool {
        let mut w = self.lock();
        if let Some(pos) = w.slots.iter().position(|(i, _)| *i == id) {
            w.slots.remove(pos);
            // ord(doorway, sc=park-dekker): sleepers gauge down on withdrawal,
            // balancing register under the registry lock
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            true
        } else {
            false
        }
    }

    /// Withdraws registration `id`, passing a token already spent on it
    /// to the next waiter so a token never dies with a waiter that did
    /// not need it. Every exit from a park — normal, timed out,
    /// spurious, or unwinding — must route through this.
    pub(crate) fn finish(&self, id: u64) {
        if !self.cancel(id) {
            self.wake_one();
        }
    }

    /// Re-arms an existing async registration with a fresh waker, so a
    /// task re-polled with a new context keeps exactly one slot.
    /// Returns `false` if the registration was already popped.
    pub(crate) fn rearm(&self, id: u64, waker: &Waker) -> bool {
        let mut w = self.lock();
        if let Some((_, kind)) = w.slots.iter_mut().find(|(i, _)| *i == id) {
            *kind = WaiterKind::Task(waker.clone());
            true
        } else {
            false
        }
    }

    /// Pops and wakes the oldest waiter, if any.
    pub(crate) fn wake_one(&self) -> bool {
        let popped = {
            let mut w = self.lock();
            let popped = w.slots.pop_front();
            if popped.is_some() {
                // ord(doorway, sc=park-dekker): sleepers gauge down as the
                // notifier pops a waiter; keeps the gauge equal to the FIFO
                // length
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
            popped
        };
        match popped {
            // Wake outside the lock: a waker may run scheduler code.
            Some((_, kind)) => {
                // ord(stats): wake-tokens-spent counter for HealthSnapshot; no
                // synchronization intent
                self.wakes.fetch_add(1, Ordering::Relaxed);
                kind.wake();
                true
            }
            None => false,
        }
    }

    /// Notifier-side check after `n` condition-making steps: wakes up
    /// to `n` waiters (one re-check each suffices to consume the batch
    /// or prove it was consumed by others).
    pub(crate) fn notify_many(&self, n: usize) {
        if n == 0 {
            return;
        }
        // ord(doorway, sc=park-dekker): notifier-side Dekker check after the
        // engine steps: a nonzero gauge means a waiter may have registered
        // before the condition turned true; also bounds the wake fan-out
        let sleeping = self.sleepers.load(Ordering::SeqCst);
        for _ in 0..n.min(sleeping) {
            if !self.wake_one() {
                break;
            }
        }
    }

    /// Wakes every waiter (disconnect / state-change broadcast).
    pub(crate) fn wake_all(&self) {
        while self.wake_one() {}
    }

    /// Current gauge value (diagnostics).
    pub(crate) fn sleepers(&self) -> usize {
        // ord(stats, sc): gauge snapshot for diagnostics and snapshot surfaces;
        // SeqCst matches the gauge's writers for simplicity; callers treat the
        // value as advisory
        self.sleepers.load(Ordering::SeqCst)
    }

    /// Total registrations so far.
    pub(crate) fn park_count(&self) -> u64 {
        // ord(stats): parks-counter snapshot; Relaxed pairs with the Relaxed
        // bump
        self.parks.load(Ordering::Relaxed)
    }

    /// Total wake tokens spent so far.
    pub(crate) fn wake_count(&self) -> u64 {
        // ord(stats): wakes-counter snapshot; Relaxed pairs with the Relaxed
        // bump
        self.wakes.load(Ordering::Relaxed)
    }
}

/// RAII wrapper for a live registration: unwinding out of the window
/// between register and park (a chaos kill inside an engine call, a
/// panicking waker) must not let a wake token die with the stack frame.
/// Dropping the guard without [`disarm`](WaitGuard::disarm) runs the
/// token pass-on rule.
pub(crate) struct WaitGuard<'r> {
    registry: &'r ParkRegistry,
    id: u64,
    armed: bool,
}

impl<'r> WaitGuard<'r> {
    pub(crate) fn new(registry: &'r ParkRegistry, kind: WaiterKind) -> Self {
        let id = registry.register(kind);
        WaitGuard { registry, id, armed: true }
    }

    /// Completes the wait normally: withdraw, passing on any token
    /// spent on us.
    pub(crate) fn finish(mut self) {
        self.armed = false;
        self.registry.finish(self.id);
    }
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.registry.finish(self.id);
        }
    }
}
