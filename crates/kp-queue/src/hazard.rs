//! The hazard-pointer backend — the paper's §3.4, implemented in full,
//! behind [`WfQueueHp`](crate::WfQueueHp).
//!
//! The epoch-based [`WfQueue`](crate::WfQueue) matches the paper's Java
//! presentation (which leans on the GC), but epoch reclamation is only
//! lock-free: one stalled thread can stall *all* reclamation. §3.4
//! prescribes Michael's hazard pointers to make memory management
//! wait-free too. This backend retires nodes as soon as `head` passes
//! them (end of `help_finish_deq`), exactly as §3.4 wants.
//!
//! ## Descriptors are words, not objects
//!
//! `state[tid]` is an in-place packed
//! [`StateSlot`](crate::desc::StateSlot) — a version-tagged control
//! word plus a phase word — instead of a pointer to a heap `OpDesc`.
//! For hazard pointers this is a double win: the hot path stops
//! allocating *and* the descriptor hazard slot (with its
//! protect/validate dance on every descriptor read) disappears, because
//! a one-word atomic load has no lifetime to protect. Only two hazard
//! slots per thread remain:
//!
//! | slot | protects |
//! |---|---|
//! | [`H_NODE`] | the `head`/`tail` node an operation is working on |
//! | [`H_NEXT`] | that node's successor (validated via a `head`/`tail` re-read: while the anchor is still in place, the successor cannot have been retired) |
//!
//! ## The node hand-off (replacing §3.4's value field)
//!
//! §3.4 suggests couriering the dequeued *value* inside the descriptor
//! so the owner never touches retired nodes. A packed word cannot carry
//! a `T`, so the completed dequeue word instead points at the **value
//! node** (the new sentinel, `first.next`) — the one hand-off both
//! backends share — and the owner dereferences it *without* a hazard
//! slot, made safe by a two-token disposal gate on every node
//! (`tokens`): a node is released — to the reuse pool or the allocator
//! — only after (a) the hazard scan found it uncovered
//! ([`TOKEN_RECLAIM_READY`]) *and* (b) its dequeue owner took the value
//! ([`TOKEN_CONSUMED`], set by [`Backend::consume`]). Each side sets
//! its token with an `AcqRel` `fetch_or`; whichever observes the
//! other's bit performs the release, exactly once. Since (b) is
//! executed by the owner itself, the owner's epilogue dereference can
//! never race with the node's disposal.
//!
//! If a thread dies between its dequeue's completion and its epilogue,
//! the value node stays in limbo: one node + one value leak per killed
//! thread, the same bounded kill-window loss the torture suite's
//! conservation check already budgets for (`allowed_missing`). A panic
//! that unwinds through `dequeue` does *not* leak — the unwind recovery
//! claims the unclaimed result (see `deq_in_flight`).
//!
//! Disposal feeds the queue's `NodePool` (`crate::pool`), which both
//! backends' enqueues steal from, so steady-state operations are
//! allocation-free.
//!
//! [`TOKEN_RECLAIM_READY`]: crate::node::TOKEN_RECLAIM_READY
//! [`TOKEN_CONSUMED`]: crate::node::TOKEN_CONSUMED

use std::mem::ManuallyDrop;

use kp_sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use kp_sync::CachePadded;

use hazard::{Domain, Participant};

use crate::chaos_hooks::{sites, Sites};
use crate::handle::KpHandle;
use crate::node::{Node, TOKEN_CONSUMED, TOKEN_RECLAIM_READY};
use crate::pool::{NodePool, Spare};
use crate::queue::KpQueue;
use crate::reclaim::{Backend, Reclaim, H_NEXT};

/// Hazard slots per participant ([`H_NODE`](crate::reclaim::H_NODE)
/// and [`H_NEXT`]).
const H_SLOTS: usize = 2;

/// Hazard-pointer reclamation (the paper's §3.4).
#[derive(Debug)]
pub enum Hazard {}

/// A handle's hazard state.
pub struct HazardLocal<'q, T> {
    /// Manually dropped so a reaped handle's exit can *leak* the record:
    /// the reaper already quarantined it (slots nulled, parked for
    /// adoption), and a successor may have adopted it — running
    /// `Participant::drop` then would clobber the adopter's live
    /// hazards.
    participant: ManuallyDrop<Participant<'q>>,
    /// Nodes stolen from the queue's pool for this handle's enqueues.
    spare: Spare<Node<T>>,
}

impl Reclaim for Hazard {}

impl Backend for Hazard {
    const NAME: &'static str = "WfQueueHp";
    const SITES: Sites = sites!("kp_hp");

    type QueueState = Domain;
    type HandleState<'q, T: Send + 'q> = HazardLocal<'q, T>;
    type Guard = ();

    fn queue_state() -> Domain {
        Domain::new(H_SLOTS)
    }

    fn enter<'q, T: Send + 'q>(domain: &'q Domain, token: &AtomicUsize) -> HazardLocal<'q, T> {
        let participant = domain.enter();
        // Published before the handle can operate: if this handle dies,
        // a reaper quarantines the record through this token so its
        // hazards stop blocking reclamation.
        // ord(reclamation, sc=token): publishes the new participant's
        // hazard-record token for a future reap (DESIGN.md SS13.4)
        token.store(participant.record_token(), Ordering::SeqCst);
        HazardLocal {
            participant: ManuallyDrop::new(participant),
            spare: Spare::new(),
        }
    }

    #[inline]
    fn announce<T: Send>(_local: &mut HazardLocal<'_, T>, _token: &AtomicUsize) {}

    #[inline]
    fn pin() {}

    #[inline]
    fn repin(_guard: &mut ()) {}

    #[inline]
    fn protect<T: Send>(
        local: &HazardLocal<'_, T>,
        slot: usize,
        src: &AtomicPtr<Node<T>>,
    ) -> *mut Node<T> {
        local.participant.protect(slot, src)
    }

    #[inline]
    fn protect_next<T: Send>(
        local: &HazardLocal<'_, T>,
        next: *mut Node<T>,
        src: &AtomicPtr<Node<T>>,
        anchor: *mut Node<T>,
    ) -> bool {
        local.participant.set(H_NEXT, next);
        // ord(reclamation, sc=hazard-pub): validating head/tail re-read after
        // publishing the successor's hazard: the anchor still in place proves
        // the successor was not retired
        src.load(Ordering::SeqCst) == anchor
    }

    #[inline]
    fn clear<T: Send>(local: &HazardLocal<'_, T>, slot: usize) {
        local.participant.clear(slot);
    }

    // SAFETY: the caller upholds the `Backend::retire` contract.
    #[inline]
    unsafe fn retire<T: Send>(
        local: &mut HazardLocal<'_, T>,
        _guard: &(),
        node: *mut Node<T>,
        pool: &NodePool<Node<T>>,
    ) -> bool {
        let ctx = (pool as *const NodePool<Node<T>>).cast_mut().cast();
        // SAFETY: `node` was unlinked by the unique head-CAS winner and
        // is retired once (caller contract); `ctx` outlives every
        // reclaim, because the queue boxes its pool and drops it after
        // the domain (field order in `KpQueue`). Disposal runs through
        // the node's token gate so the dequeue owner's hazard-free
        // epilogue dereference stays safe.
        unsafe {
            local
                .participant
                .retire_with(node.cast(), ctx, reclaim_into_pool::<T>)
        };
        // Refusals are counted pool-side (`NodePool::overflows`).
        false
    }

    // SAFETY: the caller upholds the `Backend::consume` contract.
    #[inline]
    unsafe fn consume<T>(node: *mut Node<T>, pool: &NodePool<Node<T>>) {
        // SAFETY: the gate keeps `node` allocated until this fetch_or —
        // the owner's half, executed once (caller contract).
        // ord(reclamation): owner's half of the two-token disposal gate; AcqRel
        // makes exactly one side observe both tokens and free the node
        let prev = unsafe { (*node).tokens.fetch_or(TOKEN_CONSUMED, Ordering::AcqRel) };
        if prev & TOKEN_RECLAIM_READY != 0 {
            // SAFETY: both tokens observed — the scan found the node
            // uncovered and the value is taken; disposal is ours.
            unsafe { pool.release(node) };
        }
    }

    #[inline]
    fn pop_node<T: Send>(
        local: &mut HazardLocal<'_, T>,
        pool: &NodePool<Node<T>>,
    ) -> Option<*mut Node<T>> {
        local.spare.pop(pool)
    }

    // SAFETY: the caller upholds the `Backend::quarantine` contract.
    unsafe fn quarantine(
        domain: &Domain,
        _tokens: &[CachePadded<AtomicUsize>],
        _victim: usize,
        token: usize,
    ) -> bool {
        // The victim's leaked hazard record gets its slots nulled and is
        // parked for adoption, so its stale hazards stop excluding nodes
        // from reclamation. No pinned-check is needed — a record is
        // per-handle, not per-OS-thread, so a revoked lease means no
        // legitimate user remains.
        //
        // SAFETY: the lease revocation poisons the handle (its next op
        // panics in `op_prologue`), and a reaped handle's exit leaks its
        // record instead of touching it, so no legitimate user of the
        // record remains.
        unsafe { domain.quarantine(token) }
    }

    fn drain<T: Send>(local: &mut HazardLocal<'_, T>, _guard: &(), pool: &NodePool<Node<T>>) {
        local.spare.give_back(pool);
    }

    fn exiting(token: &AtomicUsize) {
        // Before the ID can be recycled: a later reap of this slot must
        // not quarantine our (dropped, possibly re-adopted) record.
        // ord(reclamation, sc=token): retracts the hazard-record token before
        // the exit cleanup, before the id can recycle; mirrors enter's
        // publication
        token.store(0, Ordering::SeqCst);
    }

    // SAFETY: the caller upholds the `Backend::exit` contract.
    unsafe fn exit<T: Send>(local: &mut HazardLocal<'_, T>, _guard: (), _token: &AtomicUsize) {
        // SAFETY: dropped exactly once (caller contract) — a reaped
        // handle never gets here, leaking the quarantined record on
        // purpose. The participant clears its slots and parks leftover
        // retirees for adoption.
        unsafe { ManuallyDrop::drop(&mut local.participant) };
    }
}

/// The disposal half of the token gate, handed to
/// `Participant::retire_with` when a sentinel is unlinked: called by
/// whichever scan finds the node uncovered by hazards.
///
/// # Safety
///
/// `ptr` is the retired `Node<T>`, `ctx` the queue's `NodePool`; both
/// outlive the call (the pool is dropped after the hazard domain —
/// field order in `KpQueue`).
pub(crate) unsafe fn reclaim_into_pool<T>(ptr: *mut u8, ctx: *mut u8) {
    let node = ptr.cast::<Node<T>>();
    // SAFETY: caller contract.
    let pool = unsafe { &*ctx.cast::<NodePool<Node<T>>>() };
    // SAFETY: node is retired, so it stays allocated until both tokens
    // are observed; the fetch_or is the observation.
    let prev = unsafe {
        (*node)
            .tokens
            // ord(reclamation): scan's half of the two-token disposal gate;
            // AcqRel mirrors consume
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

impl<T: Send> KpQueue<T, Hazard> {
    /// Approximate length (O(n); callers must be externally quiesced —
    /// unlike the epoch engine there is no pin to keep a traversal
    /// safe, so this walks only when no concurrent dequeuers run;
    /// intended for tests and diagnostics).
    pub fn len_approx_quiescent(&self) -> usize {
        self.count_from_head()
    }
}

impl<T: Send> KpHandle<'_, T, Hazard> {
    /// Objects reclaimed so far through this handle's hazard record
    /// (diagnostics; proves reclamation happens without a GC).
    pub fn reclaimed(&self) -> usize {
        self.local.participant.reclaimed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_gate_disposes_exactly_once() {
        let pool: NodePool<Node<u32>> = NodePool::new();
        let ctx = &pool as *const NodePool<Node<u32>> as *mut u8;
        // Order 1: scan first (READY), then owner consumes. The scan
        // must NOT release; the owner's fetch_or sees READY and does.
        let n = Node::boxed(Some(7), 0);
        // SAFETY: `n` is live; this simulates the scan's disposal call.
        unsafe { reclaim_into_pool::<u32>(n.cast(), ctx) };
        assert!(pool.steal().is_null(), "not yet");
        // SAFETY: `n` is still live — the two-token gate is not yet complete.
        // ord(stats): test drives the two-token gate directly
        let prev = unsafe { (*n).tokens.fetch_or(TOKEN_CONSUMED, Ordering::AcqRel) };
        assert_eq!(prev, TOKEN_RECLAIM_READY);
        // SAFETY: owner epilogue — `n` carries both tokens; the pool takes ownership.
        unsafe { pool.release(n) }; // what the owner's epilogue does
        assert_eq!(pool.steal(), n);
        // Order 2: owner first, then scan releases.
        // SAFETY: `n` was stolen back above; the test owns it exclusively.
        // ord(stats): test drives the two-token gate directly
        unsafe { (*n).tokens.store(TOKEN_CONSUMED, Ordering::Relaxed) };
        // SAFETY: reverse order — the scan's disposal runs after the owner's token.
        unsafe { reclaim_into_pool::<u32>(n.cast(), ctx) };
        assert_eq!(pool.steal(), n, "scan observed CONSUMED and released");
        // SAFETY: `n` left the pool via steal; freed exactly once.
        unsafe { drop(Box::from_raw(n)) };
    }
}
