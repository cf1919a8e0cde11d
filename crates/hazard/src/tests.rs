//! Unit tests for the hazard-pointer domain.

use kp_sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use crate::Domain;

/// An object whose drop increments a shared counter.
struct Counting {
    drops: Arc<AtomicUsize>,
    #[allow(dead_code)]
    payload: u64,
}

impl Drop for Counting {
    fn drop(&mut self) {
        // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

fn counting(drops: &Arc<AtomicUsize>) -> *mut Counting {
    Box::into_raw(Box::new(Counting {
        drops: drops.clone(),
        payload: 7,
    }))
}

#[test]
fn retire_without_hazard_reclaims_on_scan() {
    let drops = Arc::new(AtomicUsize::new(0));
    let domain = Domain::new(2);
    let mut p = domain.enter();
    for _ in 0..10 {
        // SAFETY: counting() leaks a fresh Box; each is retired exactly once.
        unsafe { p.retire(counting(&drops)) };
    }
    // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
    assert_eq!(drops.load(Ordering::SeqCst), 0, "below threshold: parked");
    p.scan();
    // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
    assert_eq!(drops.load(Ordering::SeqCst), 10);
    assert_eq!(p.reclaimed(), 10);
}

#[test]
fn protected_object_survives_scan() {
    let drops = Arc::new(AtomicUsize::new(0));
    let domain = Domain::new(1);
    let obj = counting(&drops);
    let shared = AtomicPtr::new(obj);

    let protector = domain.enter();
    let mut retirer = domain.enter();

    let got = protector.protect(0, &shared);
    assert_eq!(got, obj);

    // Unlink and retire while the other participant holds protection.
    // ord(stats): test scaffolding
    let old = shared.swap(std::ptr::null_mut(), Ordering::AcqRel);
    // SAFETY: `old` was unlinked from `shared`; retired exactly once.
    unsafe { retirer.retire(old) };
    retirer.scan();
    // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
    assert_eq!(drops.load(Ordering::SeqCst), 0, "hazard must block reclaim");
    assert_eq!(retirer.retired_len(), 1);

    protector.clear(0);
    retirer.scan();
    // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
    assert_eq!(drops.load(Ordering::SeqCst), 1, "cleared hazard frees it");
}

#[test]
fn threshold_triggers_automatic_scan() {
    let drops = Arc::new(AtomicUsize::new(0));
    let domain = Domain::new(1);
    let mut p = domain.enter();
    let threshold = domain.scan_threshold();
    for _ in 0..threshold {
        // SAFETY: counting() leaks a fresh Box; each is retired exactly once.
        unsafe { p.retire(counting(&drops)) };
    }
    assert_eq!(
        // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
        drops.load(Ordering::SeqCst),
        threshold,
        "hitting the threshold must reclaim everything unprotected"
    );
}

#[test]
fn domain_drop_frees_orphans() {
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let domain = Domain::new(1);
        let holder = domain.enter(); // keeps a hazard so the retirer can't free
        let obj = counting(&drops);
        let shared = AtomicPtr::new(obj);
        let got = holder.protect(0, &shared);
        assert!(!got.is_null());

        {
            let mut retirer = domain.enter();
            // SAFETY: the swapped-out pointer is unlinked; retired exactly once.
            // ord(stats): test scaffolding
            unsafe { retirer.retire(shared.swap(std::ptr::null_mut(), Ordering::AcqRel)) };
            // retirer drops here; the protected object becomes an orphan.
        }
        // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(holder);
        // Domain drop adopts orphans and frees them.
    }
    // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}

#[test]
fn record_reuse_after_departure() {
    let domain = Domain::new(1);
    {
        let _a = domain.enter();
        let _b = domain.enter();
        assert_eq!(domain.total_slots(), 2);
    }
    // Both departed: re-entering should reuse records, not grow the list.
    let _c = domain.enter();
    let _d = domain.enter();
    assert_eq!(domain.total_slots(), 2, "records must be recycled");
}

#[test]
fn orphans_adopted_by_next_scan() {
    let drops = Arc::new(AtomicUsize::new(0));
    let domain = Domain::new(1);
    let holder = domain.enter();
    let obj = counting(&drops);
    let shared = AtomicPtr::new(obj);
    holder.protect(0, &shared);
    {
        let mut retirer = domain.enter();
        // SAFETY: the swapped-out pointer is unlinked; retired exactly once.
        // ord(stats): test scaffolding
        unsafe { retirer.retire(shared.swap(std::ptr::null_mut(), Ordering::AcqRel)) };
    } // orphaned, still protected
    holder.clear(0);
    let mut adopter = domain.enter();
    adopter.scan();
    // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
    assert_eq!(drops.load(Ordering::SeqCst), 1, "adopter frees the orphan");
}

#[test]
fn protect_follows_moving_pointer() {
    // protect() must re-validate: if the source changes between load and
    // hazard publish, it retries with the new value.
    let domain = Domain::new(1);
    let a = Box::into_raw(Box::new(1u64));
    let shared = AtomicPtr::new(a);
    let p = domain.enter();
    let got = p.protect(0, &shared);
    assert_eq!(got, a);
    // SAFETY: single-threaded test; `a` is unlinked and dropped exactly once.
    unsafe { drop(Box::from_raw(a)) };
}

#[test]
fn concurrent_stress_no_use_after_free() {
    // Threads repeatedly publish a fresh object into a shared cell,
    // retiring the displaced one, while readers protect-and-read. Any
    // use-after-free would be seen as a wrong payload (under ASan/MIRI it
    // would abort; here we rely on the payload check plus drop counts).
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const OPS: usize = if cfg!(debug_assertions) { 3_000 } else { 20_000 };

    let drops = Arc::new(AtomicUsize::new(0));
    let domain = Domain::new(1);
    let shared = AtomicPtr::new(counting(&drops));
    let barrier = Barrier::new(WRITERS + READERS);
    let created = AtomicUsize::new(1);

    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            s.spawn(|| {
                let mut p = domain.enter();
                barrier.wait();
                for _ in 0..OPS {
                    let fresh = counting(&drops);
                    // ord(stats): test scaffolding
                    created.fetch_add(1, Ordering::Relaxed);
                    // ord(stats): test scaffolding
                    let old = shared.swap(fresh, Ordering::AcqRel);
                    // SAFETY: `old` was just unlinked by the swap; retired exactly once.
                    unsafe { p.retire(old) };
                }
            });
        }
        for _ in 0..READERS {
            s.spawn(|| {
                let p = domain.enter();
                barrier.wait();
                for _ in 0..OPS {
                    let obj = p.protect(0, &shared);
                    // SAFETY: protected by hazard slot 0.
                    let val = unsafe { (*obj).payload };
                    assert_eq!(val, 7, "payload corrupted: use-after-free");
                    p.clear(0);
                }
            });
        }
    });

    // Free the final resident object.
    // ord(stats): test scaffolding
    let last = shared.swap(std::ptr::null_mut(), Ordering::AcqRel);
    // SAFETY: all threads joined; `last` is the only remaining object.
    unsafe { drop(Box::from_raw(last)) };
    drop(domain);
    assert_eq!(
        // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
        drops.load(Ordering::SeqCst),
        // ord(stats): test scaffolding
        created.load(Ordering::Relaxed),
        "every created object must be dropped exactly once"
    );
}

#[test]
fn quarantine_clears_abandoned_hazards_and_recycles_the_record() {
    // A participant publishes a hazard and is then leaked (its
    // destructor never runs): the hazard pins the retired object and
    // the record stays claimed forever. Quarantine must undo both.
    let drops = Arc::new(AtomicUsize::new(0));
    let domain = Domain::new(1);

    let obj = counting(&drops);
    let shared = AtomicPtr::new(obj);
    let abandoned = domain.enter();
    abandoned.protect(0, &shared);
    let token = abandoned.record_token();
    assert!(token != 0);
    std::mem::forget(abandoned); // leaked: Drop never clears the slot

    let mut retirer = domain.enter();
    // SAFETY: swapped out of `shared`; retired exactly once.
    // ord(stats): test scaffolding
    unsafe { retirer.retire(shared.swap(std::ptr::null_mut(), Ordering::AcqRel)) };
    retirer.scan();
    // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
    assert_eq!(drops.load(Ordering::SeqCst), 0, "leaked hazard still pins");

    // SAFETY: the leaked participant is unreachable — forget() consumed
    // the only handle to it; no code can ever use its record again.
    assert!(unsafe { domain.quarantine(token) });
    retirer.scan();
    // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
    assert_eq!(drops.load(Ordering::SeqCst), 1, "quarantine unpins");

    // SAFETY: same leaked participant as above; still unreachable.
    assert!(
        !unsafe { domain.quarantine(token) },
        "second quarantine is a no-op (record already returned)"
    );
    // SAFETY: 0 never names a participant; the call must refuse it.
    assert!(!unsafe { domain.quarantine(0) }, "token 0 is never valid");

    // The quarantined record is adoptable: re-entering must not grow
    // the record list.
    let slots_before = domain.total_slots();
    let adopter = domain.enter();
    assert_eq!(domain.total_slots(), slots_before, "record recycled");
    drop(adopter);
    drop(retirer);
}

#[test]
fn two_domains_are_isolated() {
    // A hazard in domain A must not block reclamation in domain B.
    let drops = Arc::new(AtomicUsize::new(0));
    let da = Domain::new(1);
    let db = Domain::new(1);

    let obj = counting(&drops);
    let shared = AtomicPtr::new(obj);
    let pa = da.enter();
    pa.protect(0, &shared); // protected in A only

    let mut pb = db.enter();
    // SAFETY: swapped out of `shared`; retired exactly once.
    // ord(stats): test scaffolding
    unsafe { pb.retire(shared.swap(std::ptr::null_mut(), Ordering::AcqRel)) };
    pb.scan();
    assert_eq!(
        // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
        drops.load(Ordering::SeqCst),
        1,
        "domain B ignores domain A's hazards (objects must not straddle domains)"
    );
}
