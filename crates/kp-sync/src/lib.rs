//! The workspace's synchronization facade: **the** import point for
//! atomic types and cache padding in the concurrent crates.
//!
//! The crates the `atomics-audit` gate scans — `kp-queue`, `hazard`,
//! `idpool`, `wcq` and `kp-channel` — import every atomic primitive and
//! [`CachePadded`] from here instead of from `std::sync::atomic` /
//! `crossbeam_utils` directly. The audit enforces this (rule `facade`),
//! which buys two things:
//!
//! 1. **A single choke point.** Every atomic the queue stack executes
//!    is visible to static tooling by scanning one import graph, and a
//!    grep for `std::sync::atomic` inside those crates coming up empty
//!    is itself a checkable invariant.
//! 2. **A backend seam.** A loom/shuttle-style exhaustively-scheduled
//!    test backend drops in by switching this crate's re-exports — no
//!    edits in the algorithm crates. The `loom-backend` feature marks
//!    the seam today (see below); `kp-model` remains the in-tree
//!    sequentially-consistent explorer until a vendored scheduler
//!    exists.
//!
//! The re-exports are `std`'s own types, so the facade costs nothing:
//! no wrappers, no generics, no codegen difference.

#![warn(missing_docs)]
#![no_std]

#[cfg(feature = "loom-backend")]
compile_error!(
    "kp-sync/loom-backend is a seam, not an implementation: vendor a \
     loom-compatible scheduler under shims/ and replace the re-exports \
     in kp_sync::atomic with its types (the algorithm crates need no \
     changes — that is the point of the facade)."
);

/// Atomic integer/pointer types and memory orderings.
///
/// Today these are exactly `core::sync::atomic`'s types. The module
/// exists so the concurrent crates name one path that a different
/// backend (an exhaustive scheduler, an instrumented build) can take
/// over wholesale.
pub mod atomic {
    pub use core::sync::atomic::{
        compiler_fence, fence, AtomicBool, AtomicI64, AtomicIsize, AtomicPtr, AtomicU32,
        AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

pub use crossbeam_utils::CachePadded;

#[cfg(test)]
mod tests {
    use super::atomic::{AtomicUsize, Ordering};
    use super::CachePadded;

    #[test]
    fn facade_types_are_std_types() {
        // The facade must be a pure re-export: zero representation cost.
        assert_eq!(
            core::mem::size_of::<AtomicUsize>(),
            core::mem::size_of::<core::sync::atomic::AtomicUsize>()
        );
        let a = AtomicUsize::new(1);
        a.store(2, Ordering::Release);
        assert_eq!(a.load(Ordering::Acquire), 2);
        let p = CachePadded::new(AtomicUsize::new(7));
        assert_eq!(p.load(Ordering::Relaxed), 7);
    }
}
