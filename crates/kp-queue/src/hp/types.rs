//! Node layout and hazard-slot assignments for the HP variant.
//!
//! Per-thread operation state lives in the shared packed `StateSlot`
//! words (`crate::desc`) — descriptors are no longer heap objects, so
//! there is no descriptor type here and no descriptor hazard slot. Only
//! queue *nodes* need protection:
//!
//! | slot | protects |
//! |------|----------|
//! | [`H_NODE`] | the node loaded from `head`/`tail` |
//! | [`H_NEXT`] | that node's successor, across the head swing |

use kp_sync::atomic::{AtomicIsize, AtomicPtr, AtomicU8, Ordering};
use std::cell::UnsafeCell;
use std::ptr;

pub(crate) use crate::node::{FAST_DEQUEUER, FAST_ENQUEUER, NO_DEQUEUER};
use crate::pool::{NodePool, PoolNode};

/// Hazard slot index for the head/tail anchor node.
pub(crate) const H_NODE: usize = 0;
/// Hazard slot index for the anchor's successor.
pub(crate) const H_NEXT: usize = 1;
/// Hazard slots per participant.
pub(crate) const H_SLOTS: usize = 2;

/// Set by the dequeue owner once it has taken the node's value.
pub(crate) const TOKEN_CONSUMED: u8 = 1;
/// Set by the hazard scan once no hazard pointer covers the retired node.
pub(crate) const TOKEN_RECLAIM_READY: u8 = 2;

/// List node (paper Figure 1 `Node`, hazard-pointer edition).
///
/// 64-byte aligned for the same two reasons as the epoch variant's
/// `Node`: the address must fit the control word's 42 address bits
/// (`crate::desc` packs addresses shifted right by 6), and recycled
/// nodes must not share cache lines.
///
/// Value ownership runs through `value` — an `UnsafeCell`, *not* the
/// old `ManuallyDrop` courier: exactly one thread (the dequeue owner
/// whose completed descriptor word points at this node) `take`s it, and
/// the two-token disposal gate in `tokens` keeps the node allocated
/// until that happened (see [`reclaim_into_pool`]). A node freed with its value
/// still present (queue teardown) drops the `Option<T>` normally.
#[repr(align(64))]
pub(crate) struct NodeHp<T> {
    /// The payload; `None` once consumed (and in sentinels).
    pub(crate) value: UnsafeCell<Option<T>>,
    /// FIFO link. Null until the node is appended.
    pub(crate) next: AtomicPtr<NodeHp<T>>,
    /// Id of the enqueuer, for `help_finish_enq` (paper L91). A plain
    /// field: written only while the node is exclusively owned (fresh
    /// allocation, or pool reuse before republication).
    pub(crate) enq_tid: usize,
    /// Id of the dequeuer that bound this node as its sentinel, or
    /// [`NO_DEQUEUER`]. The CAS on this field is the dequeue
    /// linearization point (paper L135).
    pub(crate) deq_tid: AtomicIsize,
    /// Two-token disposal gate: [`TOKEN_CONSUMED`] |
    /// [`TOKEN_RECLAIM_READY`]. Whichever `fetch_or` observes the other
    /// bit already set releases the node (see [`reclaim_into_pool`]
    /// and the dequeue epilogue).
    pub(crate) tokens: AtomicU8,
    /// Freelist link; meaningful only while the pool owns the node.
    pub(crate) free_next: AtomicPtr<NodeHp<T>>,
}

impl<T> NodeHp<T> {
    pub(crate) fn boxed(value: Option<T>, enq_tid: usize) -> *mut Self {
        Box::into_raw(Box::new(NodeHp {
            value: UnsafeCell::new(value),
            next: AtomicPtr::new(ptr::null_mut()),
            enq_tid,
            deq_tid: AtomicIsize::new(NO_DEQUEUER),
            tokens: AtomicU8::new(0),
            free_next: AtomicPtr::new(ptr::null_mut()),
        }))
    }

    /// The initial sentinel. Its `tokens` start with [`TOKEN_CONSUMED`]
    /// pre-set: a sentinel that never was a value node has no owner to
    /// consume it, so the hazard scan alone completes the gate and the
    /// node goes straight to the pool.
    pub(crate) fn sentinel() -> *mut Self {
        let node = Self::boxed(None, usize::MAX);
        // SAFETY: not yet shared.
        unsafe { (*node).tokens = AtomicU8::new(TOKEN_CONSUMED) };
        node
    }
}

// SAFETY: `NodeHp`s are boxed at birth, and `free_next` is meaningful
// only while the pool or a stealer owns the node: the token gate
// releases a node only after every other thread is done with it.
unsafe impl<T> PoolNode for NodeHp<T> {
    fn free_next(&self) -> *mut Self {
        self.free_next.load(Ordering::Relaxed)
    }

    fn set_free_next(&self, next: *mut Self) {
        self.free_next.store(next, Ordering::Relaxed);
    }
}

/// The disposal half of the token gate, handed to
/// `Participant::retire_with` when a sentinel is unlinked: called by
/// whichever scan finds the node uncovered by hazards.
///
/// # Safety
///
/// `ptr` is the retired `NodeHp<T>`, `ctx` the queue's `NodePool`; both
/// outlive the call (the pool is dropped after the hazard domain —
/// field order in `WfQueueHp`).
pub(crate) unsafe fn reclaim_into_pool<T>(ptr: *mut u8, ctx: *mut u8) {
    let node = ptr.cast::<NodeHp<T>>();
    // SAFETY: caller contract.
    let pool = unsafe { &*ctx.cast::<NodePool<NodeHp<T>>>() };
    // SAFETY: node is retired, so it stays allocated until both tokens
    // are observed; the fetch_or is the observation.
    let prev = unsafe {
        (*node)
            .tokens
            .fetch_or(TOKEN_RECLAIM_READY, Ordering::AcqRel)
    };
    if prev & TOKEN_CONSUMED != 0 {
        // SAFETY: both tokens set — nobody else can touch the node: the
        // scan cleared it of hazards and the owner is done with the
        // value (its fetch_or happened-before ours).
        unsafe { pool.release(node) };
    }
    // else: the dequeue owner has not consumed the value yet; its
    // CONSUMED fetch_or will observe our bit and release. If the owner
    // died mid-operation the node stays in limbo — the bounded
    // kill-window leak documented in DESIGN.md.
}

// SAFETY: cross-thread access follows the protocol in the module docs:
// `value` is touched only by the node's exclusive owner (before
// publication) and by the unique dequeue owner (token gate); everything
// else is atomics or exclusively-owned plain writes.
unsafe impl<T: Send> Send for NodeHp<T> {}
// SAFETY: as for Send.
unsafe impl<T: Send> Sync for NodeHp<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_alignment_matches_the_packed_word() {
        assert_eq!(std::mem::align_of::<NodeHp<u8>>(), crate::desc::NODE_ALIGN);
        assert_eq!(
            std::mem::align_of::<NodeHp<[u128; 9]>>(),
            crate::desc::NODE_ALIGN
        );
    }

    #[test]
    fn fresh_nodes_start_ungated() {
        let n = NodeHp::boxed(Some(5u32), 2);
        // SAFETY: `n` is freshly leaked and exclusively owned by the test.
        unsafe {
            assert_eq!(*(*n).value.get(), Some(5));
            assert_eq!((*n).enq_tid, 2);
            assert_eq!((*n).deq_tid.load(Ordering::Relaxed), NO_DEQUEUER);
            assert_eq!((*n).tokens.load(Ordering::Relaxed), 0);
            drop(Box::from_raw(n));
        }
    }

    #[test]
    fn sentinels_are_born_consumed() {
        let s: *mut NodeHp<u32> = NodeHp::sentinel();
        // SAFETY: `s` is freshly leaked and exclusively owned by the test.
        unsafe {
            assert_eq!((*s).tokens.load(Ordering::Relaxed), TOKEN_CONSUMED);
            assert!((*(*s).value.get()).is_none());
            drop(Box::from_raw(s));
        }
    }

    #[test]
    fn token_gate_disposes_exactly_once() {
        let pool: NodePool<NodeHp<u32>> = NodePool::new(true);
        let ctx = &pool as *const NodePool<NodeHp<u32>> as *mut u8;
        // Order 1: scan first (READY), then owner consumes. The scan
        // must NOT release; the owner's fetch_or sees READY and does.
        let n = NodeHp::boxed(Some(7), 0);
        // SAFETY: `n` is live; this simulates the scan's disposal call.
        unsafe { reclaim_into_pool::<u32>(n.cast(), ctx) };
        assert!(pool.steal().is_null(), "not yet");
        // SAFETY: `n` is still live — the two-token gate is not yet complete.
        let prev = unsafe { (*n).tokens.fetch_or(TOKEN_CONSUMED, Ordering::AcqRel) };
        assert_eq!(prev, TOKEN_RECLAIM_READY);
        // SAFETY: owner epilogue — `n` carries both tokens; the pool takes ownership.
        unsafe { pool.release(n) }; // what the owner's epilogue does
        assert_eq!(pool.steal(), n);
        // Order 2: owner first, then scan releases.
        // SAFETY: `n` was stolen back above; the test owns it exclusively.
        unsafe { (*n).tokens.store(TOKEN_CONSUMED, Ordering::Relaxed) };
        // SAFETY: reverse order — the scan's disposal runs after the owner's token.
        unsafe { reclaim_into_pool::<u32>(n.cast(), ctx) };
        assert_eq!(pool.steal(), n, "scan observed CONSUMED and released");
        // SAFETY: `n` left the pool via steal; freed exactly once.
        unsafe { drop(Box::from_raw(n)) };
    }
}
