//! The epoch backend: the paper's GC-reliant presentation (§3.2) on
//! crossbeam-epoch, behind [`WfQueue`](crate::WfQueue).
//!
//! Every operation runs pinned, so every node it reaches stays
//! allocated — and, because recycling applies the collector's own
//! maturity rule, un-reused — until it unpins. Protection is therefore
//! free: `protect` is a plain SeqCst load and `protect_next` needs no
//! re-read. Retired sentinels go to the handle's `RetireCache`
//! (`crate::recycle`), which feeds the handle's enqueues and spills
//! into the queue's shared pool.
//!
//! Epoch reclamation is lock-free rather than wait-free: a thread
//! stalled inside a pin stalls all maturity. The reaper can quarantine
//! a *dead* pinned participant (DESIGN.md §13.4); the fully wait-free
//! answer is the [`Hazard`](crate::Hazard) backend.

use kp_sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use kp_sync::CachePadded;

use crossbeam_epoch::{self as epoch, Guard};

use crate::chaos_hooks::{sites, Sites};
use crate::node::Node;
use crate::pool::NodePool;
use crate::queue::KpQueue;
use crate::recycle::RetireCache;
use crate::reclaim::{Backend, Reclaim};

/// Epoch-based reclamation (crossbeam-epoch) with node recycling.
#[derive(Debug)]
pub enum Epoch {}

/// A handle's epoch state.
pub struct EpochLocal<T> {
    /// Retired sentinels awaiting reuse (see `crate::recycle`).
    cache: RetireCache<T>,
    /// `crossbeam_epoch::participant_token()` of the OS thread that last
    /// ran an operation, mirrored into the queue's token table on change
    /// (reaper enabled only).
    token: usize,
}

impl Reclaim for Epoch {}

impl Backend for Epoch {
    const NAME: &'static str = "WfQueue";
    const SITES: Sites = sites!("kp");

    type QueueState = ();
    type HandleState<'q, T: Send + 'q> = EpochLocal<T>;
    type Guard = Guard;

    fn queue_state() {}

    fn enter<'q, T: Send + 'q>(_queue: &'q (), _token: &AtomicUsize) -> EpochLocal<T> {
        EpochLocal {
            cache: RetireCache::new(),
            token: 0,
        }
    }

    #[inline]
    fn announce<T: Send>(local: &mut EpochLocal<T>, token: &AtomicUsize) {
        let current = epoch::participant_token();
        if current != local.token {
            local.token = current;
            // ord(reclamation, sc=token): publishes the handle's
            // epoch-participant token for a future reap (DESIGN.md SS13.4)
            token.store(current, Ordering::SeqCst);
        }
    }

    #[inline]
    fn pin() -> Guard {
        epoch::pin()
    }

    #[inline]
    fn repin(guard: &mut Guard) {
        guard.repin();
    }

    #[inline]
    fn protect<T: Send>(
        _local: &EpochLocal<T>,
        _slot: usize,
        src: &AtomicPtr<Node<T>>,
    ) -> *mut Node<T> {
        // ord(helper-guard, sc=help): the head/tail read opening every help and
        // fast-path loop (L69, L86, L111, L142); the operation's pin already
        // protects the node
        src.load(Ordering::SeqCst)
    }

    #[inline]
    fn protect_next<T: Send>(
        _local: &EpochLocal<T>,
        _next: *mut Node<T>,
        _src: &AtomicPtr<Node<T>>,
        _anchor: *mut Node<T>,
    ) -> bool {
        true
    }

    #[inline]
    fn clear<T: Send>(_local: &EpochLocal<T>, _slot: usize) {}

    // SAFETY: the caller upholds the `Backend::retire` contract.
    #[inline]
    unsafe fn retire<T: Send>(
        local: &mut EpochLocal<T>,
        guard: &Guard,
        node: *mut Node<T>,
        pool: &NodePool<Node<T>>,
    ) -> bool {
        // SAFETY: forwarded from the caller (`RetireCache::push`'s
        // contract is the same unlinked-and-retired-once rule).
        unsafe { local.cache.push(node, guard, pool) }
    }

    // SAFETY: the caller upholds the `Backend::consume` contract.
    #[inline]
    unsafe fn consume<T>(_node: *mut Node<T>, _pool: &NodePool<Node<T>>) {}

    #[inline]
    fn pop_node<T: Send>(
        local: &mut EpochLocal<T>,
        pool: &NodePool<Node<T>>,
    ) -> Option<*mut Node<T>> {
        local.cache.pop(pool)
    }

    // SAFETY: the caller upholds the `Backend::quarantine` contract.
    unsafe fn quarantine(
        _queue: &(),
        tokens: &[CachePadded<AtomicUsize>],
        victim: usize,
        token: usize,
    ) -> bool {
        // Quarantine the victim's epoch participation, but only when it
        // is actually wedged (a pin leaked at death). An unpinned
        // participant needs nothing: a live pin() re-reads the global
        // epoch, and a dead thread's TLS destructor already
        // deregistered it.
        //
        // `token == participant_token()`: the victim handle last ran on
        // *this* OS thread (epoch participation is per-thread, and
        // several virtual ids can share a thread). Our own participant
        // is pinned right now — by us, the reaper — not wedged by the
        // dead handle; quarantining it would erase our live pin. Skip:
        // nothing is wedged in that case.
        //
        // The publisher scan generalizes that to *any* live handle
        // sharing the victim's OS thread: a handle publishes its token
        // (`announce`, in the operation prologue) before it pins, so a
        // handle currently inside an operation on that thread is
        // visible in some other token slot — its pin is live, not
        // wedged, and must not be erased. Two reapers racing on two
        // abandoned slots that share a token cannot *both* skip: each
        // swapped its victim's slot to 0 before calling here (SeqCst),
        // so at least one scan runs after both swaps and finds no
        // publisher. A double quarantine is idempotent. Residual
        // window: a brand-new handle's first publish on the victim's
        // thread racing this scan — see DESIGN.md §13.4 (the wall-clock
        // reap floor makes it require a patience-window-long preemption
        // inside a few-instruction prologue).
        let shared_by_live_handle = || {
            tokens
                .iter()
                .enumerate()
                // ord(reclamation, sc): publisher scan (DESIGN.md SS13.4):
                // spares the quarantine when any live handle still publishes
                // the victim's token; SeqCst: the scan must be ordered after
                // this reaper's own token swap in the single total order with
                // every other reaper's swap+scan and every handle's
                // publish-before-pin, or two racing reapers could both see the
                // other's not-yet-swapped victim entry and both skip a
                // genuinely wedged quarantine
                .any(|(i, t)| i != victim && t.load(Ordering::SeqCst) == token)
        };
        token != epoch::participant_token()
            && !shared_by_live_handle()
            && epoch::participant_is_pinned(token)
            // SAFETY: the lease revocation (begin_reap/takeover)
            // poisons the handle — a surviving owner's next op panics
            // before touching the queue — so the participant is never
            // used for this queue again; using it from *another* queue
            // on the same (dead by contract) thread is the documented
            // lease-contract violation (DESIGN.md §13).
            && unsafe { epoch::quarantine_participant(token) }
    }

    fn drain<T: Send>(local: &mut EpochLocal<T>, guard: &Guard, pool: &NodePool<Node<T>>) {
        // Reuse ends with the handle: mature nodes and the spare chain
        // go back to the shared pool, the rest to the epoch collector.
        local.cache.drain(guard, pool);
    }

    fn exiting(_token: &AtomicUsize) {}

    // SAFETY: the caller upholds the `Backend::exit` contract.
    unsafe fn exit<T: Send>(_local: &mut EpochLocal<T>, guard: Guard, token: &AtomicUsize) {
        // Retract the published epoch token only after unpinning, and
        // before the ID can be recycled: while we were pinned, a reaper
        // quarantining another abandoned slot with the same token had to
        // see our publication (publisher scan, DESIGN.md §13.4) and
        // spare our live pin; once unpinned there is nothing of ours
        // left to protect, and clearing the slot stops a later reap of
        // this ID's next lease from acting on a stale token.
        drop(guard);
        // ord(reclamation, sc=token): retracts the epoch token after the exit's
        // unpin, before the id can recycle; mirrors announce's publication
        token.store(0, Ordering::SeqCst);
    }
}

impl<T: Send> KpQueue<T, Epoch> {
    /// Approximate number of elements (O(n) walk; diagnostics only),
    /// kept safe against concurrent dequeues by an epoch pin.
    pub fn len_approx(&self) -> usize {
        let _guard = epoch::pin();
        self.count_from_head()
    }

    /// True if the queue is observed empty.
    pub fn is_empty(&self) -> bool {
        let _guard = epoch::pin();
        self.head_next().is_null()
    }
}
