//! Type-erased retired objects awaiting reclamation.

/// A heap object that has been unlinked from its data structure and is
/// waiting for no hazard pointer to cover it.
pub(crate) struct Retired {
    /// Address of the object (also the value hazard slots are compared
    /// against).
    pub(crate) ptr: *mut u8,
    /// Opaque context forwarded to `drop_fn` (null for plain
    /// [`Retired::new`] retirees). Lets data structures route reclaimed
    /// objects somewhere other than the allocator — e.g. kp-queue's
    /// node pool.
    pub(crate) ctx: *mut u8,
    /// Disposes of the object. Captures the concrete type.
    pub(crate) drop_fn: unsafe fn(*mut u8, *mut u8),
}

impl Retired {
    /// Type-erases `ptr`, which must have come from `Box::into_raw`.
    ///
    /// # Safety
    ///
    /// `ptr` must be a valid, uniquely owned `Box<T>` allocation.
    pub(crate) unsafe fn new<T>(ptr: *mut T) -> Self {
        // SAFETY contract: `p` must be the `Box::into_raw::<T>` pointer this
        // `Retired` was built from (guaranteed by `new` below).
        unsafe fn drop_box<T>(p: *mut u8, _ctx: *mut u8) {
            // SAFETY: `p` was produced by `Box::into_raw::<T>` in
            // `Retired::new` and is reclaimed exactly once.
            unsafe { drop(Box::from_raw(p.cast::<T>())) }
        }
        Retired {
            ptr: ptr.cast(),
            ctx: std::ptr::null_mut(),
            drop_fn: drop_box::<T>,
        }
    }

    /// A retiree with a custom disposal function and context.
    ///
    /// # Safety
    ///
    /// `drop_fn(ptr, ctx)` must fully dispose of the object exactly
    /// once, and `ctx` must stay valid until then (including across
    /// orphan adoption by another thread — both pointers may cross
    /// threads, which is why `Retired: Send` is asserted below and
    /// guarded by the `Send` bounds on the public retire entry points).
    pub(crate) unsafe fn with_fn(ptr: *mut u8, ctx: *mut u8, drop_fn: unsafe fn(*mut u8, *mut u8)) -> Self {
        Retired { ptr, ctx, drop_fn }
    }

    /// Disposes of the object.
    ///
    /// # Safety
    ///
    /// No thread may hold a hazard pointer to `self.ptr`, and `reclaim`
    /// must be called at most once.
    pub(crate) unsafe fn reclaim(self) {
        // SAFETY: the caller upholds this fn's contract (no live hazard to
        // `ptr`, called at most once), which is exactly `drop_fn`'s contract.
        unsafe { (self.drop_fn)(self.ptr, self.ctx) }
    }
}

// SAFETY: Retired objects are moved between threads (orphan adoption). The
// underlying objects are required to be `Send` by the retire entry
// points' bounds; custom drop_fns take the same obligation via
// `with_fn`'s safety contract.
unsafe impl Send for Retired {}

#[cfg(test)]
mod tests {
    use super::*;
    use kp_sync::atomic::{AtomicUsize, Ordering};

    static DROPS: AtomicUsize = AtomicUsize::new(0);

    struct Counting;
    impl Drop for Counting {
        fn drop(&mut self) {
            // ord(stats, sc): test scaffolding uses SeqCst for simplicity
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn reclaim_runs_drop() {
        // ord(stats, sc): test scaffolding uses SeqCst for simplicity
        let before = DROPS.load(Ordering::SeqCst);
        // SAFETY: the Box is freshly leaked and uniquely owned.
        let r = unsafe { Retired::new(Box::into_raw(Box::new(Counting))) };
        // SAFETY: no hazard pointers exist; reclaimed exactly once.
        unsafe { r.reclaim() };
        // ord(stats, sc): test scaffolding uses SeqCst for simplicity
        assert_eq!(DROPS.load(Ordering::SeqCst), before + 1);
    }

    #[test]
    fn with_fn_forwards_the_context() {
        // SAFETY: unsafe only to match `drop_fn`'s signature; requires `ctx`
        // to point at a live AtomicUsize.
        unsafe fn record(p: *mut u8, ctx: *mut u8) {
            // SAFETY: test wiring — ctx is the AtomicUsize below.
            // ord(stats, sc): test scaffolding uses SeqCst for simplicity
            unsafe { (*ctx.cast::<AtomicUsize>()).store(p as usize, Ordering::SeqCst) };
        }
        let seen = AtomicUsize::new(0);
        let obj = 0xC0u8;
        // SAFETY: `obj` and `seen` outlive `r`; `record` upholds with_fn's contract.
        let r = unsafe {
            Retired::with_fn(
                &obj as *const u8 as *mut u8,
                &seen as *const AtomicUsize as *mut u8,
                record,
            )
        };
        // SAFETY: called once; `record` only stores to `seen`.
        unsafe { r.reclaim() };
        // ord(stats, sc): test scaffolding uses SeqCst for simplicity
        assert_eq!(seen.load(Ordering::SeqCst), &obj as *const u8 as usize);
    }
}
