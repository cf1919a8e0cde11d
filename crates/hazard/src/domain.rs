//! The global state of a hazard-pointer instance: the record list and the
//! orphaned-retired stack.

use std::ptr;
use kp_sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

use crate::participant::Participant;
use crate::retired::Retired;

/// One thread's entry in the domain: `K` hazard slots plus an `active`
/// flag used to hand records from departed threads to new ones.
pub(crate) struct Record {
    /// Next record in the grow-only global list.
    pub(crate) next: *mut Record,
    /// Claimed by a live participant?
    pub(crate) active: AtomicBool,
    /// The hazard slots. Null = slot empty.
    pub(crate) hazards: Box<[AtomicPtr<u8>]>,
}

/// A batch of retired objects abandoned by a departing participant,
/// stacked on the domain for adoption.
struct OrphanBatch {
    next: *mut OrphanBatch,
    retired: Vec<Retired>,
}

/// An independent hazard-pointer universe.
///
/// Objects retired in one domain are only checked against hazard slots of
/// the *same* domain, so each data structure (or group of structures
/// sharing nodes) should use its own domain.
pub struct Domain {
    /// Head of the grow-only record list.
    records: AtomicPtr<Record>,
    /// Hazard slots per record (`K`).
    slots_per_record: usize,
    /// Total records ever created; `H = slots_per_record * record_count`.
    record_count: AtomicUsize,
    /// Retired lists abandoned by departed participants.
    orphans: AtomicPtr<OrphanBatch>,
}

// SAFETY: all shared state is atomics; raw pointers are only dereferenced
// under the protocol documented on each method.
unsafe impl Send for Domain {}
// SAFETY: as for Send — all shared access is through atomics.
unsafe impl Sync for Domain {}

impl Domain {
    /// Creates a domain whose participants each get `slots_per_record`
    /// hazard slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots_per_record` is zero.
    pub fn new(slots_per_record: usize) -> Self {
        assert!(slots_per_record > 0, "need at least one hazard slot");
        Domain {
            records: AtomicPtr::new(ptr::null_mut()),
            slots_per_record,
            record_count: AtomicUsize::new(0),
            orphans: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Number of hazard slots per participant.
    pub fn slots_per_record(&self) -> usize {
        self.slots_per_record
    }

    /// Total hazard slots in the domain (`H` in Michael's analysis).
    pub fn total_slots(&self) -> usize {
        // ord(reclamation): sizes the hazard snapshot; Acquire pairs with
        // enter's record-publishing AcqRel fetch_add
        self.record_count.load(Ordering::Acquire) * self.slots_per_record
    }

    /// Joins the domain, claiming (or creating) a hazard record.
    ///
    /// Wait-free: reusing scans the finite record list with one CAS per
    /// record; appending is a bounded-retry CAS loop only contended by
    /// other *new* records (and in any case bounded by the number of
    /// concurrent joiners, a property we accept as "wait-free for all
    /// practical purposes", exactly like the paper's phase counter).
    pub fn enter(&self) -> Participant<'_> {
        // Try to adopt an inactive record first.
        // ord(reclamation): record-list head read; Acquire makes each record's
        // fields visible before the reuse probe
        let mut cur = self.records.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: records are never freed while the domain is alive.
            let rec = unsafe { &*cur };
            // ord(reclamation): speculative availability probe; the claim
            // itself is the CAS below
            if !rec.active.load(Ordering::Relaxed)
                && rec
                    .active
                    // ord(reclamation): claims a retired record: AcqRel
                    // acquires the previous owner's slot clears and publishes
                    // the claim; a failed probe carries no data dependency
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return Participant::new(self, cur);
            }
            cur = rec.next;
        }
        // Allocate and push a fresh record.
        let hazards = (0..self.slots_per_record)
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let rec = Box::into_raw(Box::new(Record {
            next: ptr::null_mut(),
            active: AtomicBool::new(true),
            hazards,
        }));
        // ord(reclamation): re-reads the list head for the publish CAS
        let mut head = self.records.load(Ordering::Acquire);
        loop {
            // SAFETY: `rec` is not yet shared.
            unsafe { (*rec).next = head };
            match self
                .records
                // ord(reclamation): publishes a new record; the failure Acquire
                // is load-bearing: the retry writes the observed head into the
                // record's plain `next`, which later traversers dereference, so
                // the pointee's initialisation must be visible
                .compare_exchange(head, rec, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        // ord(reclamation): publishes the enlarged slot count; AcqRel orders it
        // with the record push
        self.record_count.fetch_add(1, Ordering::AcqRel);
        Participant::new(self, rec)
    }

    /// Snapshot of every non-null hazard pointer in the domain, sorted
    /// (and deduplicated) for binary search, written into a caller-owned
    /// buffer so a steady-state scan allocates nothing — the buffer
    /// amortizes to the domain's slot count and is reused across scans
    /// by `Participant`. SeqCst loads pair with the SeqCst hazard
    /// publishes in `Participant::protect`.
    pub(crate) fn collect_hazards_into(&self, out: &mut Vec<*mut u8>) {
        out.clear();
        // ord(reclamation, sc=hazard-scan): the scan's hazard snapshot
        let mut cur = self.records.load(Ordering::SeqCst);
        while !cur.is_null() {
            // SAFETY: records live as long as the domain.
            let rec = unsafe { &*cur };
            for slot in rec.hazards.iter() {
                // ord(reclamation, sc=hazard-scan): the scan's hazard snapshot
                let p = slot.load(Ordering::SeqCst);
                if !p.is_null() {
                    out.push(p);
                }
            }
            cur = rec.next;
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Pops the entire orphan stack; the caller adopts the contents.
    pub(crate) fn take_orphans(&self) -> Vec<Retired> {
        // ord(reclamation): adopts the orphan list: acquires the exiting
        // thread's retirements, releases the emptied head
        let mut head = self.orphans.swap(ptr::null_mut(), Ordering::AcqRel);
        let mut out = Vec::new();
        while !head.is_null() {
            // SAFETY: we exclusively own the popped stack.
            let batch = unsafe { Box::from_raw(head) };
            out.extend(batch.retired);
            head = batch.next;
        }
        out
    }

    /// Pushes a departing participant's leftovers for later adoption.
    pub(crate) fn push_orphans(&self, retired: Vec<Retired>) {
        if retired.is_empty() {
            return;
        }
        let batch = Box::into_raw(Box::new(OrphanBatch {
            next: ptr::null_mut(),
            retired,
        }));
        // ord(reclamation): orphan head read for the push CAS
        let mut head = self.orphans.load(Ordering::Acquire);
        loop {
            // SAFETY: `batch` is not yet shared.
            unsafe { (*batch).next = head };
            match self
                .orphans
                // ord(reclamation): publishes orphaned retirements; failure
                // Acquire is load-bearing for the same plain-`next` republish
                // reason as enter's record push
                .compare_exchange(head, batch, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Forcibly clears the hazard slots of an abandoned participant's
    /// record and returns the record to the domain for adoption.
    /// `token` is the value [`Participant::record_token`] returned for
    /// the abandoned participant. Returns `true` when a matching active
    /// record was found.
    ///
    /// A leaked [`Participant`] never runs its destructor: its published
    /// hazards pin retired objects forever and its record stays claimed.
    /// Quarantine replicates the destructor's record cleanup (null every
    /// slot, deactivate) — but *not* the private retired-list handoff,
    /// which is unreachable from the record. Those retirees leak,
    /// bounded by the scan threshold (`Domain::scan_threshold`), the
    /// documented cost of an abandoned participant.
    ///
    /// [`Participant::record_token`]: crate::Participant::record_token
    ///
    /// # Safety
    ///
    /// The participant behind `token` must never be used again (its
    /// owner leaked it and will never call methods on it, or its thread
    /// has exited). Clearing the hazards of a participant still in use
    /// lets the scan reclaim objects it is actively dereferencing —
    /// use-after-free; and deactivating its record lets a new
    /// participant share the slots — both UB.
    pub unsafe fn quarantine(&self, token: usize) -> bool {
        if token == 0 {
            return false;
        }
        // ord(reclamation): record-list head read; Acquire makes each record's
        // fields visible before the token match
        let mut cur = self.records.load(Ordering::Acquire);
        while !cur.is_null() {
            if cur as usize == token {
                // SAFETY: records are never freed while the domain lives.
                let rec = unsafe { &*cur };
                // ord(reclamation): confirms the record is still active before
                // clearing; the reaper's exclusivity comes from the lease
                // election, not this load
                if !rec.active.load(Ordering::Acquire) {
                    // Already quarantined (or the leak was cleaned up
                    // some other way); don't disturb a possible adopter.
                    return false;
                }
                // Mirror Participant::drop's record half: SeqCst clears
                // so in-flight scans (SeqCst hazard snapshot) observe
                // the nulls, then hand the record back for adoption.
                for slot in rec.hazards.iter() {
                    // ord(reclamation, sc=hazard-scan): clears an abandoned
                    // hazard slot; SeqCst so the clear enters the total order
                    // before the next scan's snapshot (store-load, SS11.3) -- a
                    // weaker clear could let a dead record protect a node
                    // forever
                    slot.store(ptr::null_mut(), Ordering::SeqCst);
                }
                // ord(reclamation): returns the quarantined record to the free
                // pool; Release publishes the slot clears to the next claimant
                // (pairs with enter's claim CAS)
                rec.active.store(false, Ordering::Release);
                return true;
            }
            // SAFETY: as above — the list is grow-only and immortal.
            cur = unsafe { (*cur).next };
        }
        false
    }

    /// Retire threshold: scan when a local retired list reaches this size.
    /// Michael's analysis wants `R = H + Θ(H)`; we use `max(2H, 64)` so
    /// small domains still batch enough to amortize the scan.
    pub(crate) fn scan_threshold(&self) -> usize {
        (2 * self.total_slots()).max(64)
    }
}

impl Drop for Domain {
    fn drop(&mut self) {
        // No participant can outlive the domain (they borrow it), so no
        // hazard slot is set and every retired object is reclaimable.
        for r in self.take_orphans() {
            // SAFETY: no hazards remain; each object reclaimed once.
            unsafe { r.reclaim() };
        }
        let mut cur = *self.records.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access in Drop; records were Box-allocated.
            let rec = unsafe { Box::from_raw(cur) };
            debug_assert!(
                // ord(reclamation): exclusive (&mut) teardown; no concurrent
                // access remains
                !rec.active.load(Ordering::Relaxed),
                "participant outlived its domain"
            );
            cur = rec.next;
        }
    }
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domain")
            .field("slots_per_record", &self.slots_per_record)
            // ord(stats): Debug formatting; approximate values are fine
            .field("records", &self.record_count.load(Ordering::Relaxed))
            .finish()
    }
}
