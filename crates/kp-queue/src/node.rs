//! The linked-list node (paper Figure 1, `class Node`).

use kp_sync::atomic::{AtomicIsize, AtomicPtr, AtomicU8, Ordering};
use std::cell::UnsafeCell;
use std::ptr;

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

/// Set in `tokens` once the dequeue owner has taken the node's value.
pub(crate) const TOKEN_CONSUMED: u8 = 1;
/// Set in `tokens` once the hazard scan found the retired node
/// uncovered.
pub(crate) const TOKEN_RECLAIM_READY: u8 = 2;

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
pub struct Node<T> {
    /// `None` only for sentinels whose payload was already taken (or the
    /// initial sentinel, which never had one). Taken exactly once, by the
    /// owner of the dequeue whose completed descriptor word names this
    /// node (or by the fast dequeuer that locked its predecessor).
    pub(crate) value: UnsafeCell<Option<T>>,
    /// FIFO link, null until the node is appended; doubles as the pool
    /// link once the node is recycled ([`PoolNode`]).
    pub(crate) next: AtomicPtr<Node<T>>,
    /// Plain (non-atomic) because it is written only while the node is
    /// exclusively owned: at construction, or on reuse *before* the
    /// owner republishes it (see `KpHandle::alloc_node`). `usize::MAX`
    /// for the initial sentinel (never a dangling node, so never read).
    pub(crate) enq_tid: usize,
    pub(crate) deq_tid: AtomicIsize,
    /// The hazard backend's two-token disposal gate:
    /// [`TOKEN_CONSUMED`] | [`TOKEN_RECLAIM_READY`]; whichever
    /// `fetch_or` observes the other bit releases the node. The epoch
    /// backend never touches it.
    pub(crate) tokens: AtomicU8,
}

impl<T> Node<T> {
    pub(crate) fn new(value: Option<T>, enq_tid: usize) -> Self {
        Node {
            value: UnsafeCell::new(value),
            next: AtomicPtr::new(ptr::null_mut()),
            enq_tid,
            deq_tid: AtomicIsize::new(NO_DEQUEUER),
            tokens: AtomicU8::new(0),
        }
    }

    /// A fresh heap node; every node is a `Box` (the pool and the
    /// reclamation backends free them as such).
    pub(crate) fn boxed(value: Option<T>, enq_tid: usize) -> *mut Self {
        Box::into_raw(Box::new(Node::new(value, enq_tid)))
    }

    /// The initial sentinel. Its `tokens` start with [`TOKEN_CONSUMED`]
    /// set: a sentinel that never was a value node has no owner to
    /// consume it, so the hazard scan alone completes the gate.
    pub(crate) fn sentinel() -> Self {
        let node = Node::new(None, usize::MAX);
        // ord(reclamation): single-threaded initialisation before the structure
        // is shared
        node.tokens.store(TOKEN_CONSUMED, Ordering::Relaxed);
        node
    }

    /// Re-initialises a recycled node to carry `value` for `enq_tid`.
    ///
    /// # Safety
    ///
    /// The caller owns `node` exclusively (it came from a reclamation
    /// backend's node source) and publishes it afterwards with a SeqCst
    /// store or CAS, which releases these plain/Relaxed writes to any
    /// helper that reads the node through the descriptor or the list.
    pub(crate) unsafe fn reuse(node: *mut Self, value: T, enq_tid: usize) {
        // SAFETY: exclusive ownership (caller contract).
        unsafe {
            // ord(reclamation): re-initialises a recycled node while
            // exclusively owned, before republication
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
            // ord(reclamation): re-initialises a recycled node while
            // exclusively owned, before republication
            (*node).deq_tid.store(NO_DEQUEUER, Ordering::Relaxed);
            // ord(reclamation): re-initialises a recycled node while
            // exclusively owned, before republication
            (*node).tokens.store(0, Ordering::Relaxed);
            (*node).enq_tid = enq_tid;
            *(*node).value.get() = Some(value);
        }
    }
}

// SAFETY: nodes are boxed at birth (`Node::boxed`, and the initial
// sentinel). A node enters the pool only once no thread can reach it —
// epoch: mature, so no pin that could observe it remains; hazard: the
// token gate closed, so no hazard covers it and its value is taken —
// and since it is unlinked none can reach it later, so its `next` link
// is free for the pool and the node's stealer to use.
unsafe impl<T> PoolNode for Node<T> {
    fn free_next(&self) -> *mut Self {
        // ord(reclamation): pool link through an unreachable node's next
        // (matured, or released by the token gate), read by its exclusive owner
        // (stealer or pool teardown); Relaxed -- the pool's Release CAS /
        // Acquire swap order it
        self.next.load(Ordering::Relaxed)
    }

    fn set_free_next(&self, next: *mut Self) {
        // ord(reclamation): relinks an unreachable, exclusively owned node's
        // next into a pool chain before the pool's Release CAS publishes it
        self.next.store(next, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_node_is_unlocked() {
        let n: Node<u32> = Node::new(Some(5), 3);
        // ord(stats): test scaffolding
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

    #[test]
    fn fresh_nodes_start_ungated() {
        let n = Node::boxed(Some(5u32), 2);
        // SAFETY: `n` is freshly leaked and exclusively owned by the test.
        unsafe {
            assert_eq!(*(*n).value.get(), Some(5));
            assert_eq!((*n).enq_tid, 2);
            // ord(stats): test scaffolding
            assert_eq!((*n).deq_tid.load(Ordering::Relaxed), NO_DEQUEUER);
            // ord(stats): test scaffolding
            assert_eq!((*n).tokens.load(Ordering::Relaxed), 0);
            drop(Box::from_raw(n));
        }
    }

    #[test]
    fn sentinels_are_born_consumed() {
        let s: Node<u32> = Node::sentinel();
        // ord(stats): test scaffolding
        assert_eq!(s.tokens.load(Ordering::Relaxed), TOKEN_CONSUMED);
        // SAFETY: `s` is owned by the test; no concurrent access to the cell.
        assert!(unsafe { (*s.value.get()).is_none() });
    }
}
