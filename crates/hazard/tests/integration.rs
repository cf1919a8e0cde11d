//! Integration tests driving the hazard-pointer domain through a real
//! lock-free data structure (a Treiber stack built inside the test) —
//! the classical validation workload from Michael's paper — plus
//! lifecycle edge cases that unit tests don't reach.

use kp_sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use hazard::Domain;

/// A minimal Treiber stack using the domain under test.
struct Stack<T> {
    head: AtomicPtr<StackNode<T>>,
    domain: Domain,
}

struct StackNode<T> {
    value: T,
    next: *mut StackNode<T>,
}

// SAFETY: the stack shares only its atomic head across threads; payloads
// are bounded by `T: Send` and move with node ownership.
unsafe impl<T: Send> Send for Stack<T> {}
// SAFETY: as for Send.
unsafe impl<T: Send> Sync for Stack<T> {}
// SAFETY: the raw `next` pointer is only dereferenced under the hazard
// protocol; the node owns its T.
unsafe impl<T: Send> Send for StackNode<T> {}

impl<T: Send> Stack<T> {
    fn new() -> Self {
        Stack {
            head: AtomicPtr::new(std::ptr::null_mut()),
            domain: Domain::new(1),
        }
    }

    fn push(&self, value: T) {
        let node = Box::into_raw(Box::new(StackNode {
            value,
            next: std::ptr::null_mut(),
        }));
        // ord(reclamation): test fixture: Treiber push publishing nodes whose
        // reclamation is under test
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: node not yet shared.
            unsafe { (*node).next = head };
            match self
                .head
                // ord(reclamation): test fixture: Treiber push publishing nodes
                // whose reclamation is under test
                .compare_exchange(head, node, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    fn pop(&self, p: &mut hazard::Participant<'_>) -> Option<T>
    where
        T: Copy,
    {
        loop {
            let head = p.protect(0, &self.head);
            if head.is_null() {
                p.clear(0);
                return None;
            }
            // SAFETY: protected by slot 0.
            let next = unsafe { (*head).next };
            if self
                .head
                // ord(reclamation): test fixture: Treiber pop; failure Acquire
                // re-reads the head it will traverse from
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // SAFETY: we own the popped node; value is Copy.
                let value = unsafe { (*head).value };
                p.clear(0);
                // SAFETY: unlinked by our CAS.
                unsafe { p.retire(head) };
                return Some(value);
            }
        }
    }
}

impl<T> Drop for Stack<T> {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next;
        }
    }
}

#[test]
fn treiber_stack_conservation_under_contention() {
    const THREADS: usize = 6;
    const PER: usize = if cfg!(debug_assertions) { 3_000 } else { 20_000 };
    let stack = Stack::new();
    let popped = AtomicUsize::new(0);
    let sum = AtomicUsize::new(0);
    let barrier = Barrier::new(THREADS);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let stack = &stack;
            let popped = &popped;
            let sum = &sum;
            let barrier = &barrier;
            s.spawn(move || {
                let mut p = stack.domain.enter();
                barrier.wait();
                for i in 0..PER {
                    stack.push(t * PER + i);
                    if let Some(v) = stack.pop(&mut p) {
                        // ord(stats): test scaffolding
                        popped.fetch_add(1, Ordering::Relaxed);
                        // ord(stats): test scaffolding
                        sum.fetch_add(v, Ordering::Relaxed);
                        assert!(v < THREADS * PER, "corrupted value {v}: use-after-free?");
                    }
                }
            });
        }
    });
    // ord(stats): test scaffolding
    assert!(popped.load(Ordering::Relaxed) <= THREADS * PER);
}

#[test]
fn domain_survives_many_participant_generations() {
    // Records must be recycled across thread generations, keeping the
    // domain's footprint bounded.
    let domain = Domain::new(2);
    for _gen in 0..20 {
        std::thread::scope(|s| {
            for _ in 0..4 {
                let domain = &domain;
                s.spawn(move || {
                    let mut p = domain.enter();
                    for _ in 0..100 {
                        let obj = Box::into_raw(Box::new(123u64));
                        // SAFETY: obj uniquely owned, never shared.
                        unsafe { p.retire(obj) };
                    }
                    p.scan();
                });
            }
        });
    }
    assert!(
        domain.total_slots() <= 4 * 2,
        "records must be recycled, not grown per generation (slots = {})",
        domain.total_slots()
    );
}

#[test]
fn retired_under_protection_survives_until_release_across_threads() {
    let drops = Arc::new(AtomicUsize::new(0));
    struct D(Arc<AtomicUsize>, u64);
    impl Drop for D {
        fn drop(&mut self) {
            // ord(stats, sc): test scaffolding uses SeqCst counters for
            // simplicity
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    let domain = Domain::new(1);
    let shared = AtomicPtr::new(Box::into_raw(Box::new(D(drops.clone(), 7))));
    let (hold_tx, hold_rx) = std::sync::mpsc::channel::<()>();
    let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();

    std::thread::scope(|s| {
        // Reader thread: protects, signals, waits, validates payload.
        {
            let domain = &domain;
            let shared = &shared;
            s.spawn(move || {
                let p = domain.enter();
                let obj = p.protect(0, shared);
                held_tx.send(()).unwrap();
                hold_rx.recv().unwrap();
                // Still safe to read despite a concurrent retire + scan.
                // SAFETY: hazard slot 0 covers obj.
                assert_eq!(unsafe { (*obj).1 }, 7);
                p.clear(0);
            });
        }
        // Writer thread: unlinks, retires, scans — must not free yet.
        held_rx.recv().unwrap();
        let mut p = domain.enter();
        // ord(stats): test scaffolding
        let old = shared.swap(std::ptr::null_mut(), Ordering::AcqRel);
        // SAFETY: unlinked above.
        unsafe { p.retire(old) };
        p.scan();
        // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
        assert_eq!(drops.load(Ordering::SeqCst), 0, "protected: must survive");
        hold_tx.send(()).unwrap();
    });

    // Reader gone: now it can be freed.
    let mut p = domain.enter();
    p.scan();
    // ord(stats, sc): test scaffolding uses SeqCst counters for simplicity
    assert_eq!(drops.load(Ordering::SeqCst), 1);
}
