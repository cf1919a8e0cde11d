//! The linked-list node (paper Figure 1, `class Node`).

use kp_sync::atomic::{AtomicIsize, Ordering};
use std::cell::UnsafeCell;

use crossbeam_epoch::{self as epoch, Atomic, Shared};

use crate::pool::PoolNode;

/// `deqTid`'s "unlocked" value.
pub(crate) const NO_DEQUEUER: isize = -1;

/// `enq_tid` sentinel marking a node appended by the descriptor-free
/// fast path. Helpers reaching such a node in `help_finish_enq` must not
/// look for an owner descriptor (there is none): step 2 is skipped and
/// the tail is swung unconditionally. Distinct from `usize::MAX` (the
/// initial sentinel) so the two cases cannot be confused in debugging.
pub(crate) const FAST_ENQUEUER: usize = usize::MAX - 1;

/// `deq_tid` value a fast-path dequeue locks the sentinel with. Like
/// `FAST_ENQUEUER`, it tells `help_finish_deq` there is no descriptor to
/// complete (step 2 skipped); the head swing and sentinel retirement
/// proceed exactly as for a slow-path lock.
pub(crate) const FAST_DEQUEUER: isize = -2;

/// A node of the queue's underlying singly-linked list.
///
/// Compared with the Michael–Scott node, the paper adds two fields that
/// let helpers identify *whose* operation a structural change belongs to:
///
/// * `enq_tid` — the (virtual) ID of the thread inserting this node,
///   written once at construction; helpers use it to find the owner's
///   entry in the `state` array (Figure 4, line 89).
/// * `deq_tid` — the ID of the thread whose dequeue removes this node
///   from the list, CASed from −1 exactly once (Figure 6, line 135);
///   this CAS is the linearization point of a successful dequeue.
///
/// The 64-byte alignment serves two masters: it lets the address pack
/// into a [`StateSlot`](crate::desc) ctrl word (`addr >> 6` fits the
/// 42-bit field), and it keeps recycled nodes from false-sharing.
#[repr(align(64))]
pub(crate) struct Node<T> {
    /// `None` only for sentinels whose payload was already taken (or the
    /// initial sentinel, which never had one). Taken exactly once, by the
    /// unique thread whose dequeue locked this node's predecessor.
    pub(crate) value: UnsafeCell<Option<T>>,
    pub(crate) next: Atomic<Node<T>>,
    /// Plain (non-atomic) because it is written only while the node is
    /// exclusively owned: at construction, or on reuse *before* the
    /// owner republishes it (see `WfHandle::alloc_node` — the maturity
    /// rule guarantees no helper still holds the node). `usize::MAX`
    /// for the initial sentinel (never a dangling node, so never read).
    pub(crate) enq_tid: usize,
    pub(crate) deq_tid: AtomicIsize,
}

impl<T> Node<T> {
    pub(crate) fn new(value: Option<T>, enq_tid: usize) -> Self {
        Node {
            value: UnsafeCell::new(value),
            next: Atomic::null(),
            enq_tid,
            deq_tid: AtomicIsize::new(NO_DEQUEUER),
        }
    }

    pub(crate) fn sentinel() -> Self {
        Node::new(None, usize::MAX)
    }
}

// SAFETY: nodes are boxed at birth (`alloc_node`'s `Box::into_raw`;
// the initial sentinel's `Owned` is a `Box` too). A node enters the
// pool only once mature — no pinned thread can reach it any more, and
// none can later, since it is unlinked — so its `next` link is free for
// the pool and the node's stealer to use (`crate::recycle`).
unsafe impl<T> PoolNode for Node<T> {
    fn free_next(&self) -> *mut Self {
        // SAFETY: the unprotected guard only names the load's lifetime;
        // no pin is needed to keep a pooled node alive (see above).
        let guard = unsafe { epoch::unprotected() };
        self.next.load(Ordering::Relaxed, guard).as_raw() as *mut Self
    }

    fn set_free_next(&self, next: *mut Self) {
        self.next
            .store(Shared::from(next as *const Self), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_node_is_unlocked() {
        let n: Node<u32> = Node::new(Some(5), 3);
        assert_eq!(n.deq_tid.load(Ordering::Relaxed), NO_DEQUEUER);
        assert_eq!(n.enq_tid, 3);
        // SAFETY: `n` is owned by the test; no concurrent access to the cell.
        assert_eq!(unsafe { (*n.value.get()).take() }, Some(5));
    }

    #[test]
    fn sentinel_has_no_value() {
        let s: Node<u32> = Node::sentinel();
        // SAFETY: `s` is owned by the test; no concurrent access to the cell.
        assert!(unsafe { (*s.value.get()).is_none() });
        assert_eq!(s.enq_tid, usize::MAX);
    }

    #[test]
    fn node_alignment_matches_the_packed_word() {
        assert_eq!(std::mem::align_of::<Node<u8>>(), crate::desc::NODE_ALIGN);
        assert!(std::mem::align_of::<Node<[u64; 9]>>() >= crate::desc::NODE_ALIGN);
    }
}
