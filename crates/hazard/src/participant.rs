//! Per-thread hazard-pointer state: protection slots and the retired list.

use std::ptr;
use kp_sync::atomic::{AtomicPtr, Ordering};

use crate::domain::{Domain, Record};
use crate::retired::Retired;

// Fault-injection sites (`hazard.protect` / `hazard.retire` /
// `hazard.scan`), compiled away unless the `chaos` feature is on — see
// the `chaos` crate.
#[cfg(feature = "chaos")]
macro_rules! inject {
    ($site:expr) => {
        ::chaos::hit($site)
    };
}
#[cfg(not(feature = "chaos"))]
macro_rules! inject {
    ($site:expr) => {};
}

/// A thread's membership in a [`Domain`].
///
/// Holds `K` hazard slots (see [`Domain::slots_per_record`]) and a private
/// retired list. Not `Sync`: one participant per thread. It is `Send`, so
/// it may be created on one thread and moved into a worker.
pub struct Participant<'d> {
    domain: &'d Domain,
    record: *mut Record,
    retired: Vec<Retired>,
    /// Scratch buffer for the hazard snapshot, reused across scans so
    /// steady-state reclamation allocates nothing.
    hazard_scratch: Vec<*mut u8>,
    /// Number of successful reclamations, for tests/diagnostics.
    reclaimed: usize,
}

// SAFETY: the record pointer is only mutated through atomics; moving the
// participant between threads is fine because all accesses go through
// `&mut self` or atomics.
unsafe impl Send for Participant<'_> {}

impl<'d> Participant<'d> {
    pub(crate) fn new(domain: &'d Domain, record: *mut Record) -> Self {
        Participant {
            domain,
            record,
            // Pre-size past the scan threshold (plus headroom for a few
            // adopted orphans) so pushes never grow the Vec in steady
            // state.
            retired: Vec::with_capacity(domain.scan_threshold() + 64),
            hazard_scratch: Vec::with_capacity(domain.total_slots() + 16),
            reclaimed: 0,
        }
    }

    fn slots(&self) -> &[AtomicPtr<u8>] {
        // SAFETY: records live as long as the domain, which outlives `'d`.
        unsafe { &(*self.record).hazards }
    }

    /// The domain this participant belongs to.
    pub fn domain(&self) -> &'d Domain {
        self.domain
    }

    /// An opaque token identifying this participant's hazard record
    /// (stable for the life of the domain; never `0`). An external
    /// liveness layer can pass it to [`Domain::quarantine`] if this
    /// participant is abandoned without running its destructor.
    pub fn record_token(&self) -> usize {
        self.record as usize
    }

    /// Number of objects this participant has reclaimed so far.
    pub fn reclaimed(&self) -> usize {
        self.reclaimed
    }

    /// Number of objects currently parked on this participant's retired
    /// list.
    pub fn retired_len(&self) -> usize {
        self.retired.len()
    }

    /// Publishes `ptr` in hazard slot `slot`.
    ///
    /// SeqCst so the store is globally ordered before the caller's
    /// subsequent validation load — the classic store-load fence hazard
    /// pointers require.
    ///
    /// This is the *raw* interface: the caller must re-validate that the
    /// object is still reachable (e.g. re-load the source pointer) after
    /// this call and retry if not. Prefer [`protect`](Self::protect).
    pub fn set<T>(&self, slot: usize, ptr: *mut T) {
        // ord(reclamation, sc=hazard-pub): publishes a hazard pointer
        self.slots()[slot].store(ptr.cast(), Ordering::SeqCst);
    }

    /// Clears hazard slot `slot`.
    pub fn clear(&self, slot: usize) {
        // ord(reclamation): un-publishes after the protected access; Release
        // keeps the access before the clear
        self.slots()[slot].store(ptr::null_mut(), Ordering::Release);
    }

    /// Reads `src` and protects the loaded pointer in slot `slot`,
    /// retrying until the protection is stable (the pointer re-read from
    /// `src` is unchanged after publishing the hazard).
    ///
    /// On return, if the result is non-null it will not be reclaimed
    /// until the slot is overwritten or cleared — provided the data
    /// structure retires objects only after unlinking them from `src`.
    pub fn protect<T>(&self, slot: usize, src: &AtomicPtr<T>) -> *mut T {
        inject!("hazard.protect");
        // ord(reclamation): first read of the target pointer; Acquire so a
        // non-null result dereferences an initialised object
        let mut p = src.load(Ordering::Acquire);
        loop {
            self.set(slot, p);
            // A stall here — hazard published but not yet validated — is
            // the schedule Michael's protocol exists to survive.
            inject!("hazard.protect.validate");
            // ord(reclamation, sc=hazard-pub): validation re-read ordered after
            // the hazard store
            let q = src.load(Ordering::SeqCst);
            if q == p {
                return p;
            }
            p = q;
        }
    }

    /// Hands `ptr` to the reclamation machinery.
    ///
    /// # Safety
    ///
    /// * `ptr` came from `Box::into_raw` and ownership is transferred.
    /// * The object has been unlinked: no thread can create a *new*
    ///   reference to it after this call (threads holding hazard
    ///   protection established earlier are exactly what the scan checks).
    /// * `retire` is called at most once per object.
    pub unsafe fn retire<T: Send>(&mut self, ptr: *mut T) {
        inject!("hazard.retire");
        debug_assert!(!ptr.is_null(), "retiring a null pointer");
        // SAFETY: forwarded from the caller.
        self.retired.push(unsafe { Retired::new(ptr) });
        if self.retired.len() >= self.domain.scan_threshold() {
            self.scan();
        }
    }

    /// [`retire`](Self::retire) with a custom disposal function instead
    /// of `Box::from_raw`: once no hazard pointer covers `ptr`, the
    /// scan calls `drop_fn(ptr, ctx)`. This is how kp-queue routes
    /// reclaimed nodes into its reuse pool rather than the allocator.
    ///
    /// # Safety
    ///
    /// * The object has been unlinked: no thread can create a *new*
    ///   reference to it after this call.
    /// * `drop_fn(ptr, ctx)` fully disposes of the object exactly once;
    ///   at most one `retire_with`/`retire` call per object.
    /// * `ptr` and `ctx` must remain valid until `drop_fn` runs, on
    ///   whatever thread runs it (orphan adoption may move the retiree
    ///   to another participant, or to `Domain::drop`).
    pub unsafe fn retire_with(
        &mut self,
        ptr: *mut u8,
        ctx: *mut u8,
        drop_fn: unsafe fn(*mut u8, *mut u8),
    ) {
        inject!("hazard.retire");
        debug_assert!(!ptr.is_null(), "retiring a null pointer");
        // SAFETY: forwarded from the caller.
        self.retired.push(unsafe { Retired::with_fn(ptr, ctx, drop_fn) });
        if self.retired.len() >= self.domain.scan_threshold() {
            self.scan();
        }
    }

    /// Reclaims every retired object not covered by a hazard pointer.
    ///
    /// Also adopts orphaned retired lists left behind by departed
    /// participants. Bounded work: one pass over the domain's hazard
    /// slots plus one pass over the retired list — wait-free. And
    /// allocation-free in steady state: the hazard snapshot lands in a
    /// reused scratch buffer and survivors are compacted in place with
    /// `swap_remove` (order is irrelevant to correctness).
    pub fn scan(&mut self) {
        inject!("hazard.scan");
        self.retired.extend(self.domain.take_orphans());
        if self.retired.is_empty() {
            return;
        }
        self.domain.collect_hazards_into(&mut self.hazard_scratch);
        let mut i = 0;
        while i < self.retired.len() {
            if self.hazard_scratch.binary_search(&self.retired[i].ptr).is_ok() {
                i += 1;
            } else {
                let r = self.retired.swap_remove(i);
                // SAFETY: object unlinked (retire contract) and no hazard
                // covers it at a point after it was unlinked, so no thread
                // can still acquire a reference.
                unsafe { r.reclaim() };
                self.reclaimed += 1;
            }
        }
    }
}

impl Drop for Participant<'_> {
    fn drop(&mut self) {
        // Last chance to free eagerly, then abandon leftovers for
        // adoption and return the record to the domain.
        self.scan();
        for slot in self.slots() {
            // ord(reclamation): clears remaining hazards before the record is
            // recycled
            slot.store(ptr::null_mut(), Ordering::Release);
        }
        if !self.retired.is_empty() {
            self.domain.push_orphans(std::mem::take(&mut self.retired));
        }
        // SAFETY: record outlives participant.
        // ord(reclamation): returns the record; Release publishes the slot
        // clears to the next claimant (pairs with enter's claim CAS)
        unsafe { (*self.record).active.store(false, Ordering::Release) };
    }
}

impl std::fmt::Debug for Participant<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Participant")
            .field("retired", &self.retired.len())
            .field("reclaimed", &self.reclaimed)
            .finish()
    }
}
