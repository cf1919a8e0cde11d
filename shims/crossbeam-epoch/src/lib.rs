//! Offline shim for the `crossbeam-epoch` API subset this workspace
//! uses, backed by a real three-epoch reclamation engine.
//!
//! The scheme is the classic one (Fraser 2004, as used by crossbeam):
//!
//! * A global epoch counter advances when every *pinned* thread has
//!   been observed at the current epoch.
//! * `Guard::defer_destroy` tags garbage with the epoch at retirement;
//!   a retired object may still be reachable by threads pinned at that
//!   epoch or the one before, so it is freed only once the global epoch
//!   has advanced **two** steps past its tag.
//! * Threads keep a small local bag of garbage and migrate it to the
//!   global queue (triggering a collection attempt) when it grows, when
//!   `Guard::flush` is called, or when the thread exits.
//!
//! Pinning, the collector's scan and every epoch bump are `SeqCst`.
//! Unpinning is a `Release` store, as in the real crate: the collector
//! reads a participant's word with a `SeqCst` load, so observing the
//! unpinned word acquires every read the critical section made, and
//! nothing it reached is freed before those reads. (The hazard crate's
//! `Participant::clear` makes the same argument for a hazard slot.)
//!
//! [`advance`] returns at once when the calling thread is pinned at an
//! epoch older than the global one: that pin alone forbids the step,
//! so taking the registry lock to scan every participant would be
//! wasted work.
//!
//! The global epoch and each participant's slot sit on cache lines of
//! their own, so a pin or unpin does not invalidate a peer's line.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------

/// A deferred destructor: a type-erased owned pointer plus its drop glue.
struct Deferred {
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8),
}

// SAFETY: a Deferred is an owned allocation in transit to the collector;
// ownership moves with the struct.
unsafe impl Send for Deferred {}

impl Deferred {
    unsafe fn execute(self) {
        (self.drop_fn)(self.ptr);
    }
}

unsafe fn drop_box<T>(ptr: *mut u8) {
    drop(Box::from_raw(ptr as *mut T));
}

/// Per-thread pin status: `(epoch << 1) | pinned`, plus a liveness flag
/// so exited threads do not block epoch advancement forever. Aligned to
/// a cache line: its owner writes `state` on every pin and unpin.
#[repr(align(128))]
struct Slot {
    /// Forgery-proof participant identity: a monotonically increasing
    /// registration sequence number, never reused. Tokens handed out by
    /// [`participant_token`] are this id — NOT the slot's address — so a
    /// token taken from a thread that has since exited (its slot freed,
    /// the allocation possibly recycled for a new participant) can never
    /// match a different live participant in
    /// [`participant_is_pinned`] / [`quarantine_participant`].
    id: usize,
    state: AtomicUsize,
    dead: AtomicUsize,
}

/// Source of [`Slot::id`]s. Starts at 1 so `0` stays the permanent
/// "no participant" sentinel.
static NEXT_PARTICIPANT_ID: AtomicUsize = AtomicUsize::new(1);

/// The global epoch on a cache line of its own: every pin reads it, and
/// the registry and garbage locks next to it are written on each
/// collection attempt.
#[repr(align(128))]
struct EpochLine(AtomicUsize);

impl Deref for EpochLine {
    type Target = AtomicUsize;

    fn deref(&self) -> &AtomicUsize {
        &self.0
    }
}

struct Global {
    epoch: EpochLine,
    registry: Mutex<Vec<Arc<Slot>>>,
    /// Garbage tagged with its retirement epoch.
    garbage: Mutex<Vec<(usize, Deferred)>>,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        epoch: EpochLine(AtomicUsize::new(2)),
        registry: Mutex::new(Vec::new()),
        garbage: Mutex::new(Vec::new()),
    })
}

/// Tries to advance the global epoch once, then frees every piece of
/// garbage whose tag is at least two epochs old.
///
/// Best-effort by design: if another thread is already collecting, this
/// call returns immediately instead of queueing on the lock. Blocking
/// here would turn the hot-path "nudge" callers (`RetireCache`'s
/// maturity check calls [`advance`] once per failed pop) into a lock
/// convoy whenever the collector is descheduled mid-scan — on an
/// oversubscribed host that costs more than the allocations the nudge
/// exists to avoid. Skipping is always safe: garbage just waits for the
/// next call.
fn collect() {
    let g = global();
    let Ok(mut garbage) = g.garbage.try_lock() else {
        return;
    };
    let epoch = g.epoch.load(Ordering::SeqCst);
    let can_advance = {
        let mut registry = g.registry.lock().unwrap();
        registry.retain(|slot| slot.dead.load(Ordering::SeqCst) == 0 || Arc::strong_count(slot) > 1);
        registry.iter().all(|slot| {
            let s = slot.state.load(Ordering::SeqCst);
            s & 1 == 0 || s >> 1 == epoch
        })
    };
    let epoch = if can_advance {
        // CAS, not a store: a racing [`advance`] (which does not take
        // the garbage lock) may already have moved the epoch further; a
        // blind store would roll it back. On failure, free against the
        // older epoch we validated — strictly conservative.
        let _ = g.epoch.compare_exchange(epoch, epoch + 1, Ordering::SeqCst, Ordering::SeqCst);
        epoch + 1
    } else {
        epoch
    };
    let mut i = 0;
    while i < garbage.len() {
        if garbage[i].0 + 2 <= epoch {
            let (_, d) = garbage.swap_remove(i);
            // SAFETY: no thread pinned at the retirement epoch (or the
            // one before) is still active, so nothing can reach `d`.
            unsafe { d.execute() };
        } else {
            i += 1;
        }
    }
}

/// The current global epoch (starts at 2; see [`advance`]).
///
/// Exposed so callers running their own retire caches (e.g. kp-queue's
/// node recycling) can apply the *same* maturity rule `collect` uses
/// before freeing: an object retired at epoch `e` is unreachable by
/// every pinned thread once `e + 2 <= global_epoch()`.
pub fn global_epoch() -> usize {
    global().epoch.load(Ordering::SeqCst)
}

/// Tries to advance the global epoch by one step (it advances only if
/// every currently pinned thread is pinned at the current epoch).
/// Alloc-free and safe to call while pinned. A caller pinned at the
/// current epoch `e` can still take the step to `e + 1`; once there,
/// its own pin forbids the next one, so a caller pinned at an epoch
/// older than the global one returns before touching the registry
/// lock. A long pinned section must [`Guard::repin`] for its own nudges
/// to move the epoch again.
///
/// Deliberately does NOT sweep the garbage list: callers like
/// `RetireCache::pop` nudge this on their hot path purely to
/// ripen their own caches, and paying an O(garbage) sweep per nudge
/// turned the reuse fast path into the slowest configuration on an
/// oversubscribed host. Sweeping stays with [`collect`] (guard drop
/// every `LOCAL_BAG_FLUSH` retirements, explicit `flush`, thread exit).
/// Best-effort: if the registry is contended, returns without
/// advancing.
pub fn advance() {
    let g = global();
    let epoch = g.epoch.load(Ordering::SeqCst);
    // Relaxed: this thread's own word, which only this thread writes
    // (quarantine writes it only for a thread that never runs again).
    let pinned_behind = LOCAL
        .try_with(|local| {
            let s = local.slot.state.load(Ordering::Relaxed);
            s & 1 == 1 && s >> 1 < epoch
        })
        .unwrap_or(false);
    if pinned_behind {
        return;
    }
    let Ok(registry) = g.registry.try_lock() else {
        return;
    };
    // `epoch` was read before the lock; if it moved since, the scan
    // below validates a stale value and the CAS fails harmlessly.
    let can_advance = registry.iter().all(|slot| {
        let s = slot.state.load(Ordering::SeqCst);
        s & 1 == 0 || s >> 1 == epoch
    });
    if can_advance {
        // CAS so racing advancers cannot double-bump or roll back.
        let _ = g.epoch.compare_exchange(epoch, epoch + 1, Ordering::SeqCst, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------
// Thread-local participant
// ---------------------------------------------------------------------

const LOCAL_BAG_FLUSH: usize = 64;

struct Local {
    slot: Arc<Slot>,
    guard_count: Cell<usize>,
    bag: RefCell<Vec<(usize, Deferred)>>,
}

impl Local {
    fn new() -> Local {
        let slot = Arc::new(Slot {
            id: NEXT_PARTICIPANT_ID.fetch_add(1, Ordering::Relaxed),
            state: AtomicUsize::new(0),
            dead: AtomicUsize::new(0),
        });
        global().registry.lock().unwrap().push(slot.clone());
        Local { slot, guard_count: Cell::new(0), bag: RefCell::new(Vec::new()) }
    }

    fn flush_bag(&self) {
        let mut bag = self.bag.borrow_mut();
        if !bag.is_empty() {
            global().garbage.lock().unwrap().extend(bag.drain(..));
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush_bag();
        self.slot.state.store(0, Ordering::SeqCst);
        self.slot.dead.store(1, Ordering::SeqCst);
        collect();
    }
}

thread_local! {
    static LOCAL: Local = Local::new();
}

// ---------------------------------------------------------------------
// Participant introspection and quarantine
// ---------------------------------------------------------------------

/// An opaque token identifying the calling thread's epoch participant
/// (its registry slot's registration sequence id). Stable for the
/// lifetime of the thread; `0` is never a valid token. Returns `0` when
/// thread-local storage is being torn down.
///
/// Tokens exist so an external liveness layer (kp-queue's handle
/// reaper) can later pass a dead thread's token to
/// [`quarantine_participant`]. Ids are never reused, so a token that
/// outlives its thread can only ever fail to match — it cannot be
/// forged onto an unrelated participant the way a recycled slot
/// address could.
pub fn participant_token() -> usize {
    LOCAL.try_with(|local| local.slot.id).unwrap_or(0)
}

/// True when the participant behind `token` is currently registered and
/// pinned. Advisory (the state may change immediately after the load);
/// used to decide whether a suspected-dead participant is actually
/// wedging epoch advancement before resorting to
/// [`quarantine_participant`].
pub fn participant_is_pinned(token: usize) -> bool {
    if token == 0 {
        return false;
    }
    let g = global();
    let registry = match g.registry.lock() {
        Ok(r) => r,
        Err(poisoned) => poisoned.into_inner(),
    };
    registry
        .iter()
        .any(|slot| slot.id == token && slot.state.load(Ordering::SeqCst) & 1 == 1)
}

/// Forcibly marks the participant behind `token` unpinned and dead, so
/// the global epoch can advance past it and its wedged garbage becomes
/// collectible. Returns `true` when a matching participant was found.
///
/// This exists for *abandoned* participants: a thread that leaked a
/// [`Guard`] and then died (or is permanently wedged) stays pinned at a
/// stale epoch forever, blocking reclamation globally. Normal thread
/// exit self-cleans (the thread-local participant's drop does exactly
/// what this function does); quarantine is the escape hatch for threads
/// that never run destructors.
///
/// # Safety
///
/// The thread behind `token` must never again create, drop, or use an
/// epoch [`Guard`] (it has exited, or is permanently wedged and will
/// never resume). If it is alive and pinned, erasing its pin lets the
/// collector free memory it may still dereference — use-after-free.
pub unsafe fn quarantine_participant(token: usize) -> bool {
    if token == 0 {
        return false;
    }
    let g = global();
    let found = {
        let registry = match g.registry.lock() {
            Ok(r) => r,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut found = false;
        for slot in registry.iter() {
            if slot.id == token {
                slot.state.store(0, Ordering::SeqCst);
                slot.dead.store(1, Ordering::SeqCst);
                found = true;
                break;
            }
        }
        found
    };
    if found {
        collect();
    }
    found
}

// ---------------------------------------------------------------------
// Guard and pinning
// ---------------------------------------------------------------------

/// A pinned-epoch witness. While a thread holds at least one `Guard`,
/// memory it can reach through [`Atomic`] loads will not be freed.
pub struct Guard {
    unprotected: bool,
}

/// Pins the current thread and returns a guard.
pub fn pin() -> Guard {
    LOCAL.with(|local| {
        let count = local.guard_count.get();
        if count == 0 {
            let g = global();
            loop {
                let epoch = g.epoch.load(Ordering::SeqCst);
                local.slot.state.store((epoch << 1) | 1, Ordering::SeqCst);
                // Re-check so we never stay pinned at a stale epoch,
                // which would stall advancement (not a safety issue,
                // but a progress one).
                if g.epoch.load(Ordering::SeqCst) == epoch {
                    break;
                }
            }
        }
        local.guard_count.set(count + 1);
    });
    Guard { unprotected: false }
}

/// Returns a guard that performs no pinning and destroys deferred
/// garbage immediately.
///
/// # Safety
///
/// The caller must guarantee no other thread is concurrently accessing
/// the data structure (e.g. inside `Drop` of the owning structure).
pub unsafe fn unprotected() -> &'static Guard {
    static UNPROTECTED: Guard = Guard { unprotected: true };
    &UNPROTECTED
}

impl Guard {
    /// Defers destruction of the object `ptr` points to until no pinned
    /// thread can still reach it.
    ///
    /// # Safety
    ///
    /// `ptr` must be an owned, unlinked allocation created by
    /// [`Owned::new`]; no new references to it may be created after
    /// this call.
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        debug_assert!(!ptr.is_null(), "defer_destroy on null");
        let deferred =
            Deferred { ptr: ptr.raw as *mut u8, drop_fn: drop_box::<T> };
        if self.unprotected {
            deferred.execute();
            return;
        }
        let epoch = global().epoch.load(Ordering::SeqCst);
        let mut pending = Some(deferred);
        let flush = LOCAL
            .try_with(|local| {
                let mut bag = local.bag.borrow_mut();
                bag.push((epoch, pending.take().expect("deferred consumed twice")));
                bag.len() >= LOCAL_BAG_FLUSH
            })
            .unwrap_or(false);
        if let Some(d) = pending {
            // Thread-local storage is being torn down: hand the garbage
            // straight to the collector.
            global().garbage.lock().unwrap().push((epoch, d));
        }
        if flush {
            self.flush();
        }
    }

    /// Migrates this thread's local garbage to the global queue and
    /// attempts a collection.
    pub fn flush(&self) {
        if self.unprotected {
            collect();
            return;
        }
        let _ = LOCAL.try_with(|local| local.flush_bag());
        collect();
    }

    /// Unpins and immediately re-pins the thread, allowing the global
    /// epoch to make progress across long-running pinned sections.
    pub fn repin(&mut self) {
        if self.unprotected {
            return;
        }
        LOCAL.with(|local| {
            if local.guard_count.get() == 1 {
                let g = global();
                loop {
                    let epoch = g.epoch.load(Ordering::SeqCst);
                    local.slot.state.store((epoch << 1) | 1, Ordering::SeqCst);
                    if g.epoch.load(Ordering::SeqCst) == epoch {
                        break;
                    }
                }
            }
        });
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.unprotected {
            return;
        }
        let _ = LOCAL.try_with(|local| {
            let count = local.guard_count.get();
            local.guard_count.set(count - 1);
            if count == 1 {
                // Release suffices (module docs): the collector's SeqCst
                // load of this word acquires the critical section's reads.
                local.slot.state.store(0, Ordering::Release);
                if local.bag.borrow().len() >= LOCAL_BAG_FLUSH {
                    local.flush_bag();
                    collect();
                }
            }
        });
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Guard")
    }
}

// ---------------------------------------------------------------------
// Pointer types
// ---------------------------------------------------------------------

/// An owned heap allocation that can be published into an [`Atomic`].
pub struct Owned<T> {
    raw: *mut T,
}

impl<T> Owned<T> {
    /// Allocates `value` on the heap.
    pub fn new(value: T) -> Owned<T> {
        Owned { raw: Box::into_raw(Box::new(value)) }
    }

    /// Converts into a [`Shared`] tied to `_guard`'s lifetime,
    /// relinquishing ownership to the data structure.
    pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
        let raw = self.raw;
        std::mem::forget(self);
        Shared { raw, _marker: PhantomData }
    }

    /// Consumes the owned pointer, returning the boxed value.
    pub fn into_box(self) -> Box<T> {
        let raw = self.raw;
        std::mem::forget(self);
        // SAFETY: `raw` came from Box::into_raw and is still owned.
        unsafe { Box::from_raw(raw) }
    }
}

impl<T> Deref for Owned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: `raw` is a live owned allocation.
        unsafe { &*self.raw }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        // SAFETY: still owned; dropping frees the allocation.
        unsafe { drop(Box::from_raw(self.raw)) };
    }
}

impl<T: fmt::Debug> fmt::Debug for Owned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Owned").field(&**self).finish()
    }
}

/// A pointer valid for the lifetime of a [`Guard`] borrow.
pub struct Shared<'g, T> {
    raw: *const T,
    _marker: PhantomData<&'g T>,
}

impl<'g, T> Clone for Shared<'g, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'g, T> Copy for Shared<'g, T> {}

impl<'g, T> PartialEq for Shared<'g, T> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.raw, other.raw)
    }
}

impl<'g, T> Eq for Shared<'g, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null pointer.
    pub fn null() -> Shared<'g, T> {
        Shared { raw: std::ptr::null(), _marker: PhantomData }
    }

    pub fn is_null(&self) -> bool {
        self.raw.is_null()
    }

    /// The raw pointer value.
    pub fn as_raw(&self) -> *const T {
        self.raw
    }

    /// Dereferences the pointer.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and point to a live object
    /// protected by the guard this `Shared` borrows.
    pub unsafe fn deref(&self) -> &'g T {
        &*self.raw
    }

    /// Same as [`deref`](Self::deref) but returns `None` for null.
    ///
    /// # Safety
    ///
    /// As for [`deref`](Self::deref).
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        self.raw.as_ref()
    }

    /// Reclaims ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The caller must be the unique owner (typically during `Drop` of
    /// the data structure, under [`unprotected`]).
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.is_null(), "into_owned on null");
        Owned { raw: self.raw as *mut T }
    }
}

impl<'g, T> From<*const T> for Shared<'g, T> {
    fn from(raw: *const T) -> Self {
        Shared { raw, _marker: PhantomData }
    }
}

impl<'g, T> fmt::Debug for Shared<'g, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Shared").field(&self.raw).finish()
    }
}

/// Types that can be published into an [`Atomic`]: [`Owned`] and
/// [`Shared`].
pub trait Pointer<T> {
    fn into_ptr(self) -> *mut T;
    /// # Safety
    /// `raw` must carry whatever ownership the original pointer had.
    unsafe fn from_ptr(raw: *mut T) -> Self;
}

impl<T> Pointer<T> for Owned<T> {
    fn into_ptr(self) -> *mut T {
        let raw = self.raw;
        std::mem::forget(self);
        raw
    }

    unsafe fn from_ptr(raw: *mut T) -> Self {
        Owned { raw }
    }
}

impl<'g, T> Pointer<T> for Shared<'g, T> {
    fn into_ptr(self) -> *mut T {
        self.raw as *mut T
    }

    unsafe fn from_ptr(raw: *mut T) -> Self {
        Shared { raw, _marker: PhantomData }
    }
}

/// Error returned by a failed [`Atomic::compare_exchange`].
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value the atomic actually held.
    pub current: Shared<'g, T>,
    /// The proposed value, handed back to the caller.
    pub new: P,
}

// ---------------------------------------------------------------------
// Atomic
// ---------------------------------------------------------------------

/// An atomic pointer into epoch-protected memory.
pub struct Atomic<T> {
    inner: AtomicPtr<T>,
}

unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// A null pointer.
    pub fn null() -> Atomic<T> {
        Atomic { inner: AtomicPtr::new(std::ptr::null_mut()) }
    }

    /// Allocates `value` and stores a pointer to it.
    pub fn new(value: T) -> Atomic<T> {
        Atomic { inner: AtomicPtr::new(Box::into_raw(Box::new(value))) }
    }

    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared { raw: self.inner.load(ord), _marker: PhantomData }
    }

    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.inner.store(new.into_ptr(), ord);
    }

    pub fn swap<'g, P: Pointer<T>>(&self, new: P, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared { raw: self.inner.swap(new.into_ptr(), ord), _marker: PhantomData }
    }

    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_ptr = new.into_ptr();
        match self.inner.compare_exchange(current.raw as *mut T, new_ptr, success, failure) {
            Ok(prev) => Ok(Shared { raw: prev, _marker: PhantomData }),
            Err(actual) => Err(CompareExchangeError {
                current: Shared { raw: actual, _marker: PhantomData },
                // SAFETY: the CAS failed, so ownership of `new` never
                // transferred; reconstituting it returns that ownership.
                new: unsafe { P::from_ptr(new_ptr) },
            }),
        }
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Atomic::null()
    }
}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Atomic").field(&self.inner.load(Ordering::Relaxed)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc as StdArc;

    /// Serializes every test that pins. The epoch is process-global, so
    /// a sibling test holding a pin (or churning pins on four threads)
    /// starves another test's bounded wait for the epoch to advance.
    static EPOCH_TESTS: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        // A failed test poisons the lock; the next one still runs.
        EPOCH_TESTS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    struct CountsDrops(StdArc<AtomicUsize>);
    impl Drop for CountsDrops {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn unprotected_defer_is_immediate() {
        let drops = StdArc::new(AtomicUsize::new(0));
        let a = Atomic::new(CountsDrops(drops.clone()));
        let guard = unsafe { unprotected() };
        let s = a.load(Ordering::SeqCst, guard);
        unsafe { guard.defer_destroy(s) };
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pinned_defer_waits_for_epochs() {
        let _serial = serial();
        let drops = StdArc::new(AtomicUsize::new(0));
        let a = Atomic::new(CountsDrops(drops.clone()));
        {
            let guard = pin();
            let s = a.load(Ordering::SeqCst, &guard);
            unsafe { guard.defer_destroy(s) };
            a.store(Shared::null(), Ordering::SeqCst);
        }
        // Repeated pin+flush cycles let the epoch advance and the
        // garbage drain. Generously bounded: a concurrent test may hold
        // the epoch back transiently.
        for _ in 0..10_000 {
            if drops.load(Ordering::SeqCst) == 1 {
                break;
            }
            pin().flush();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn quarantine_unwedges_a_leaked_pin() {
        let _serial = serial();
        // A thread leaks a Guard and parks forever: it stays pinned at
        // its entry epoch, so the global epoch can never advance more
        // than one step past it. Quarantining the participant removes
        // the wedge.
        let (tx, rx) = std::sync::mpsc::channel();
        let (park_tx, park_rx) = std::sync::mpsc::channel::<()>();
        // Detached on purpose: the thread models one that never exits
        // (its TLS destructors never run while the test observes it).
        std::thread::spawn(move || {
            std::mem::forget(pin()); // leaked guard: pinned forever
            tx.send(participant_token()).unwrap();
            let _ = park_rx.recv(); // blocks until the test ends
        });
        let token = rx.recv().unwrap();
        assert!(token != 0);
        assert!(participant_is_pinned(token));
        let wedge_epoch = global_epoch();
        for _ in 0..64 {
            advance();
        }
        assert!(
            global_epoch() <= wedge_epoch + 1,
            "a participant pinned at epoch e blocks advancement beyond e+1"
        );
        // SAFETY: the victim thread is parked on a channel the test
        // never signals; it will never touch an epoch guard again.
        assert!(unsafe { quarantine_participant(token) });
        assert!(!participant_is_pinned(token));
        let mut unwedged = false;
        for _ in 0..10_000 {
            advance();
            if global_epoch() > wedge_epoch + 1 {
                unwedged = true;
                break;
            }
        }
        assert!(unwedged, "epoch advances once the wedge is quarantined");
        assert!(
            !unsafe { quarantine_participant(0) },
            "token 0 is never valid"
        );
        drop(park_tx);
    }

    #[test]
    fn advance_while_pinned_behind_waits_for_repin() {
        let _serial = serial();
        let mut guard = pin();
        // Our own pinned word, not `global_epoch()`: an exiting thread's
        // collection may step the epoch once at any moment.
        let pinned_at = LOCAL.with(|local| local.slot.state.load(Ordering::Relaxed) >> 1);
        // Pinned at the current epoch, this thread may take one step.
        for _ in 0..10_000 {
            advance();
            if global_epoch() > pinned_at {
                break;
            }
        }
        let behind = global_epoch();
        assert_eq!(
            behind,
            pinned_at + 1,
            "a pin at the current epoch allows one step"
        );
        // Now pinned behind the global epoch: its own pin forbids the
        // next step, however often it nudges.
        for _ in 0..64 {
            advance();
        }
        assert_eq!(
            global_epoch(),
            behind,
            "a thread pinned behind the epoch moved it"
        );
        // Renewing the pin at the current epoch lets its nudges move
        // the epoch again.
        guard.repin();
        for _ in 0..10_000 {
            advance();
            if global_epoch() > behind {
                break;
            }
        }
        assert_eq!(
            global_epoch(),
            behind + 1,
            "advance after repin moves the epoch"
        );
        drop(guard);
    }

    #[test]
    fn stale_token_never_matches_a_new_participant() {
        let _serial = serial();
        // Regression: tokens used to be raw Arc addresses of registry
        // slots, so a dead thread's freed slot could be reallocated at
        // the same address for a new thread and the stale token would
        // then name — and quarantine — a live participant. With ids the
        // stale token must simply stop matching anything.
        let stale = std::thread::spawn(|| {
            pin(); // register, then exit cleanly (slot marked dead)
            participant_token()
        })
        .join()
        .unwrap();
        assert!(stale != 0);
        // Churn new participants so a freed slot allocation would get
        // recycled if addresses were still the identity.
        for _ in 0..64 {
            let fresh = std::thread::spawn(move || {
                std::mem::forget(pin()); // stays registered and pinned
                let token = participant_token();
                assert!(token != stale, "participant ids are never reused");
                token
            })
            .join()
            .unwrap();
            assert!(
                !participant_is_pinned(stale),
                "a dead thread's token matches a live pinned participant"
            );
            // SAFETY: the fresh thread has exited; its leaked pin is
            // exactly what quarantine exists to clear.
            unsafe { quarantine_participant(fresh) };
        }
        // Quarantining the stale token is harmless whether or not the
        // dead slot is still registered — it can only re-mark a slot
        // that is already dead, never a live participant.
        unsafe { quarantine_participant(stale) };
        assert!(!participant_is_pinned(stale));
    }

    #[test]
    fn cas_failure_returns_ownership() {
        let _serial = serial();
        let drops = StdArc::new(AtomicUsize::new(0));
        let a = Atomic::new(CountsDrops(drops.clone()));
        let guard = pin();
        let stale = Shared::null();
        let res = a.compare_exchange(
            stale,
            Owned::new(CountsDrops(drops.clone())),
            Ordering::SeqCst,
            Ordering::SeqCst,
            &guard,
        );
        let err = match res {
            Err(e) => e,
            Ok(_) => panic!("CAS against wrong expected value must fail"),
        };
        assert!(!err.current.is_null());
        drop(err); // dropping the error frees the proposed Owned
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_churn_is_safe() {
        let _serial = serial();
        let a = StdArc::new(Atomic::new(0u64));
        let mut handles = Vec::new();
        for t in 0..4 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    let guard = pin();
                    let cur = a.load(Ordering::SeqCst, &guard);
                    let next = Owned::new(t * 1_000_000 + i);
                    if a.compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst, &guard).is_ok()
                        && !cur.is_null()
                    {
                        unsafe { guard.defer_destroy(cur) };
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let guard = unsafe { unprotected() };
        let last = a.load(Ordering::SeqCst, guard);
        if !last.is_null() {
            unsafe { guard.defer_destroy(last) };
        }
        for _ in 0..8 {
            pin().flush();
        }
    }
}
