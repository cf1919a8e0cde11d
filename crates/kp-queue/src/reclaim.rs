//! The reclamation seam of the Kogan–Petrank core. The paper gives one
//! algorithm (§3.2, Figures 1–6) and says a runtime without a garbage
//! collector changes only its memory management (§3.4), so the core is
//! written once and [`Backend`] is that memory management: the epoch
//! backend (`crate::epoch`) and the hazard-pointer backend
//! (`crate::hazard`).

use kp_sync::atomic::{AtomicPtr, AtomicUsize};
use kp_sync::CachePadded;

use crate::chaos_hooks::Sites;
use crate::node::Node;
use crate::pool::NodePool;

pub use crate::epoch::Epoch;
pub use crate::hazard::Hazard;

/// Hazard slot of the node an operation loaded from `head` or `tail`.
pub(crate) const H_NODE: usize = 0;
/// Hazard slot of that node's successor.
pub(crate) const H_NEXT: usize = 1;

/// A memory-reclamation backend for the Kogan–Petrank core: [`Epoch`]
/// (lock-free epoch reclamation, behind [`WfQueue`](crate::WfQueue)) or
/// [`Hazard`] (the paper's §3.4 wait-free hazard pointers, behind
/// [`WfQueueHp`](crate::WfQueueHp)).
///
/// The algorithm is written once, in [`KpQueue`](crate::KpQueue) and
/// [`KpHandle`](crate::KpHandle). Sealed: the two backends are the
/// reproduction's configurations, not an extension point.
pub trait Reclaim: Backend {}

/// The backend operations behind [`Reclaim`], one per difference
/// between the two backends, each with one meaning. Not reachable from
/// outside the crate, which is what seals [`Reclaim`].
pub trait Backend: Sized + Send + Sync + 'static {
    /// The public name of the queue type over this backend (`Debug`).
    const NAME: &'static str;

    /// The chaos injection-site names (`kp.*` / `kp_hp.*`).
    const SITES: Sites;

    /// Per-queue state (the hazard domain; nothing for epochs).
    type QueueState: Send + Sync;

    /// Per-handle state: the epoch retire cache, or the hazard
    /// participant with its spare node chain.
    type HandleState<'q, T: Send + 'q>: Send;

    /// Per-operation protection: an epoch pin, or nothing (hazard
    /// pointers protect per dereference).
    type Guard;

    /// A new queue's backend state.
    fn queue_state() -> Self::QueueState;

    /// The state of a handle registering with the queue; `token` is its
    /// slot in the queue's reaper-token table. The hazard backend
    /// publishes its record token there now.
    fn enter<'q, T: Send + 'q>(
        queue: &'q Self::QueueState,
        token: &AtomicUsize,
    ) -> Self::HandleState<'q, T>;

    /// The reaper prologue of every operation (reaper enabled only),
    /// *before* it pins: the epoch backend publishes the thread's
    /// participant token in `token` when it changed (DESIGN.md §13.4's
    /// publisher scan relies on that order).
    fn announce<T: Send>(local: &mut Self::HandleState<'_, T>, token: &AtomicUsize);

    /// Starts an operation's protection.
    fn pin() -> Self::Guard;

    /// Renews the protection between two completed operations of a
    /// batch, so the batch does not hold back reclamation.
    fn repin(guard: &mut Self::Guard);

    /// Loads `src` (`head` or `tail`) so the node it names may be
    /// dereferenced: a SeqCst load under the epoch pin, or
    /// publish-and-validate into hazard `slot`.
    fn protect<T: Send>(
        local: &Self::HandleState<'_, T>,
        slot: usize,
        src: &AtomicPtr<Node<T>>,
    ) -> *mut Node<T>;

    /// Makes `next`, read from `anchor.next`, safe to dereference;
    /// `false` means `src` no longer names `anchor`, so `next` must not
    /// be used. The hazard backend publishes `next` in [`H_NEXT`] and
    /// re-reads `src` (while `anchor` is still in place its successor
    /// cannot have been retired); under an epoch pin `next` is safe
    /// already: `true` without a re-read.
    fn protect_next<T: Send>(
        local: &Self::HandleState<'_, T>,
        next: *mut Node<T>,
        src: &AtomicPtr<Node<T>>,
        anchor: *mut Node<T>,
    ) -> bool;

    /// Drops the protection of hazard `slot` (no-op for epochs).
    fn clear<T: Send>(local: &Self::HandleState<'_, T>, slot: usize);

    /// Hands over a sentinel unlinked by a winning head swing; `true`
    /// when it overflowed recycling (memory pressure, DESIGN.md §13.5).
    ///
    /// # Safety
    ///
    /// `node` is unlinked and retired exactly once (by the unique
    /// winner of the head CAS); `pool` is the queue's pool.
    unsafe fn retire<T: Send>(
        local: &mut Self::HandleState<'_, T>,
        guard: &Self::Guard,
        node: *mut Node<T>,
        pool: &NodePool<Node<T>>,
    ) -> bool;

    /// The dequeue owner took the value out of the value node its
    /// operation was handed. The node stays allocated until then: under
    /// the epoch pin taken before the operation was published (the node
    /// is retired only after the hand-off), or by the hazard backend's
    /// two-token gate, which this call completes. The epoch version is
    /// empty, so its hot path pays no atomic read-modify-write.
    ///
    /// # Safety
    ///
    /// `node` is the value node of a completed dequeue, consumed once,
    /// by that dequeue's unique owner (or its reaper / fast dequeuer).
    unsafe fn consume<T>(node: *mut Node<T>, pool: &NodePool<Node<T>>);

    /// A node no other thread can reach, for an enqueue (`None`:
    /// allocate): the epoch cache's mature front, else the spare chain
    /// stolen whole from `pool`.
    fn pop_node<T: Send>(
        local: &mut Self::HandleState<'_, T>,
        pool: &NodePool<Node<T>>,
    ) -> Option<*mut Node<T>>;

    /// Quarantines the participation behind `token`, the nonzero token
    /// reaped slot `victim` had published (`tokens`, the whole table, is
    /// already zeroed at `victim`); `true` if a participant was found.
    ///
    /// # Safety
    ///
    /// The victim's lease was revoked (its handle is poisoned) and the
    /// caller won the slot's `try_retire` election.
    unsafe fn quarantine(
        queue: &Self::QueueState,
        tokens: &[CachePadded<AtomicUsize>],
        victim: usize,
        token: usize,
    ) -> bool;

    /// Handle exit, reaped or not: returns the handle's private nodes to
    /// `pool` (the epoch cache's immature rest to the collector).
    fn drain<T: Send>(
        local: &mut Self::HandleState<'_, T>,
        guard: &Self::Guard,
        pool: &NodePool<Node<T>>,
    );

    /// Handle exit with the lease confirmed, before the cleanup. The
    /// hazard backend retracts its record token, so a reaper revoking
    /// the lease mid-cleanup cannot quarantine a record the handle
    /// still uses; the epoch token must stay published while the
    /// cleanup runs pinned (the publisher scan).
    fn exiting(token: &AtomicUsize);

    /// Last step of a lease-holding handle's exit, after
    /// [`drain`](Backend::drain): the epoch backend unpins and then
    /// retracts its token; the hazard backend drops its participant.
    ///
    /// # Safety
    ///
    /// Called at most once per handle state, which is not used again.
    unsafe fn exit<T: Send>(
        local: &mut Self::HandleState<'_, T>,
        guard: Self::Guard,
        token: &AtomicUsize,
    );
}
