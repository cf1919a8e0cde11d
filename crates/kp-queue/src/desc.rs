//! The operation descriptor (paper Figure 1, `class OpDesc`) — packed
//! per-slot edition.
//!
//! The paper's Java presentation allocates a fresh `OpDesc` object for
//! every state transition and lets the GC reclaim displaced ones; §3.3
//! explicitly suggests reusing descriptor objects instead. This module
//! is that enhancement taken to its limit: the descriptor is not a heap
//! object at all but a pair of atomic words owned by the slot —
//!
//! * `ctrl` packs `pending` (bit 0), `enqueue` (bit 1), a 20-bit
//!   version tag (bits 2..22), and the node address divided by its
//!   64-byte alignment (bits 22..64, covering the full 48-bit
//!   user-space address range);
//! * `phase` holds the operation's i64 phase number, written only by
//!   the slot's owner when publishing an operation (helpers never
//!   change an operation's phase, so transitions touch `ctrl` alone).
//!
//! Every descriptor transition is a single CAS on `ctrl` that also
//! bumps the version tag, so a CAS by a helper holding a stale view
//! fails even when the *fields* it read match the current ones — the
//! ABA pattern that node recycling would otherwise enable (a node
//! address can legitimately reappear in a later operation's word).
//!
//! Protocol invariants the packing relies on (established in
//! `crate::queue`):
//!
//! 1. **Completed words are final.** Helpers only CAS words whose
//!    `pending` bit is set; a "transition" out of a completed word is
//!    always a no-op (the desired fields already hold) and skips the
//!    CAS entirely (see [`StateSlot::cas_ctrl`]). Hence the owner may
//!    *store* — not CAS — over a completed word when publishing its
//!    next operation, without racing any helper CAS. (The abandoned-
//!    handle reaper's [`StateSlot::try_retire`] is the one audited
//!    exception; it runs only after the owner's idpool lease has been
//!    revoked, so no owner store exists to race.)
//! 2. **Phase before ctrl; ctrl before phase.** The owner stores
//!    `phase` before `ctrl` ([`StateSlot::publish`]); readers load
//!    `ctrl` before `phase` ([`StateSlot::view`]). A mixed-generation
//!    read can therefore only *over*-estimate the phase belonging to
//!    the ctrl word it saw — harmless (a helper declines to help an op
//!    that looks too young; the owner drives its own op regardless) —
//!    and never under-estimate it, which would break the L117–L119
//!    empty-dequeue guard: a helper must not complete a freshly
//!    published dequeue as "empty" using an emptiness observation made
//!    before that dequeue's phase was chosen.
//! 3. **Version wrap.** The tag wraps after 2^20 transitions. A stale
//!    helper is fooled only if it sleeps across exactly k·2^20
//!    transitions of one slot *and* the same field bits reassemble.
//!    Each operation performs at least two transitions, so that is
//!    ≥ ~500k complete operations by the slot's owner within a single
//!    stalled read-to-CAS window of the helper — accepted as
//!    unreachable, like every bounded-tag scheme.

use kp_sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Queue nodes are 64-byte aligned (`#[repr(align(64))]`) so their
/// addresses fit the ctrl word's 42-bit address field.
pub(crate) const NODE_ALIGN: usize = 64;

const PENDING_BIT: u64 = 1;
const ENQUEUE_BIT: u64 = 1 << 1;
const VERSION_SHIFT: u32 = 2;
const VERSION_BITS: u32 = 20;
const VERSION_MASK: u64 = ((1u64 << VERSION_BITS) - 1) << VERSION_SHIFT;
const VERSION_ONE: u64 = 1 << VERSION_SHIFT;
const ADDR_SHIFT: u32 = VERSION_SHIFT + VERSION_BITS;

/// One loaded value of a slot's `ctrl` word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct CtrlWord(u64);

impl CtrlWord {
    fn pack(node_addr: usize, pending: bool, enqueue: bool) -> u64 {
        debug_assert_eq!(
            node_addr % NODE_ALIGN,
            0,
            "node address must be {NODE_ALIGN}-byte aligned"
        );
        debug_assert!(
            (node_addr as u64) < 1 << 48,
            "node address exceeds the packable 48-bit range"
        );
        ((node_addr as u64 >> 6) << ADDR_SHIFT)
            | if pending { PENDING_BIT } else { 0 }
            | if enqueue { ENQUEUE_BIT } else { 0 }
    }

    /// `true` from publication until the operation is linearized *and*
    /// acknowledged (step 2 of the three-step scheme).
    pub(crate) fn pending(self) -> bool {
        self.0 & PENDING_BIT != 0
    }

    /// `true` for enqueue, `false` for dequeue.
    pub(crate) fn enqueue(self) -> bool {
        self.0 & ENQUEUE_BIT != 0
    }

    /// The packed node address:
    ///
    /// * enqueue: the node carrying the value to insert;
    /// * dequeue, pending: the sentinel preceding the value to return
    ///   (stage 0 of `help_deq`), or null before stage 0;
    /// * dequeue, completed: the *value node* handed to the owner (step
    ///   2 of `help_finish_deq`), or null for an empty-queue result.
    pub(crate) fn node_addr(self) -> usize {
        ((self.0 >> ADDR_SHIFT) << 6) as usize
    }

    pub(crate) fn node_is_null(self) -> bool {
        self.0 >> ADDR_SHIFT == 0
    }

    pub(crate) fn node_ptr<N>(self) -> *mut N {
        self.node_addr() as *mut N
    }

    /// The word with its version tag masked off — what a transition
    /// compares to decide whether it is already done.
    fn fields(self) -> u64 {
        self.0 & !VERSION_MASK
    }

    /// This word's version tag advanced by one, wrapping in place.
    fn next_version(self) -> u64 {
        ((self.0 & VERSION_MASK) + VERSION_ONE) & VERSION_MASK
    }

    #[cfg(test)]
    pub(crate) fn version(self) -> u64 {
        (self.0 & VERSION_MASK) >> VERSION_SHIFT
    }
}

/// One thread's entry in the `state` array: a reusable descriptor.
///
/// Replaces the seed's `Atomic<OpDesc<T>>` (one heap allocation plus an
/// epoch retirement per transition) with two in-place atomic words —
/// the steady-state descriptor path performs zero heap allocations.
pub(crate) struct StateSlot {
    ctrl: AtomicU64,
    phase: AtomicI64,
    /// Liveness heartbeat for the abandoned-handle reaper (DESIGN.md
    /// §13): the slot's owner bumps it once per operation (and on
    /// explicit keepalives). It lives beside the ctrl word rather than
    /// inside it because the packed word has zero free bits
    /// (1 pending + 1 enqueue + 20 version + 42 address = 64); the ctrl
    /// version tag already witnesses descriptor transitions, so the
    /// beat's job is covering fast-path operations and keepalives,
    /// which never touch `ctrl`.
    beat: AtomicU64,
}

impl StateSlot {
    /// The initial per-slot descriptor (constructor, Figure 1 line 33):
    /// phase −1, not pending.
    pub(crate) fn initial() -> Self {
        StateSlot {
            ctrl: AtomicU64::new(CtrlWord::pack(0, false, true)),
            phase: AtomicI64::new(-1),
            beat: AtomicU64::new(0),
        }
    }

    /// The slot's heartbeat counter. Relaxed: the reaper only compares
    /// successive reads for *equality* across a patience window; no
    /// ordering with other memory is implied or needed.
    pub(crate) fn load_beat(&self) -> u64 {
        // ord(stats): heartbeat read for the freeze oracle (DESIGN.md SS13.3);
        // Relaxed -- liveness detection needs recency, not ordering, and a
        // missed bump only delays a reap by one patience window
        self.beat.load(Ordering::Relaxed)
    }

    /// Owner-only: advances the heartbeat. Single-writer counter, so a
    /// load + store (no RMW) suffices; Relaxed as for [`load_beat`].
    ///
    /// [`load_beat`]: StateSlot::load_beat
    pub(crate) fn bump_beat(&self) {
        // ord(stats): heartbeat bump (owner is the only writer); Relaxed for
        // the same reason as load_beat
        self.beat.store(
            // ord(stats): heartbeat bump (owner is the only writer); Relaxed
            // for the same reason as load_beat
            self.beat.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
    }

    /// Advances the heartbeat from a context that may no longer own the
    /// slot: handle `Drop` bumps *before* checking whether its lease
    /// still holds (so a reaper mid-window restarts its patience), and
    /// by then the slot may already belong to a successor. A real RMW,
    /// unlike [`bump_beat`]'s load + store, cannot swallow the
    /// successor's concurrent increment — a stale dropper's fetch_add
    /// at worst delays the next reap by one observation. Relaxed as for
    /// [`load_beat`].
    ///
    /// [`bump_beat`]: StateSlot::bump_beat
    /// [`load_beat`]: StateSlot::load_beat
    pub(crate) fn bump_beat_shared(&self) {
        // ord(stats): heartbeat bump from handle Drop, which may race a
        // successor owner after a reap; a real RMW (unlike bump_beat's
        // load+store) cannot swallow the successor's increment, and Relaxed
        // suffices as for load_beat
        self.beat.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn load_ctrl(&self, ord: Ordering) -> CtrlWord {
        // ord(helper-guard): caller-chosen ordering: SeqCst on help paths
        // (pending-check coherence), Acquire in epilogues
        CtrlWord(self.ctrl.load(ord))
    }

    /// The slot's phase word alone (`maxPhase()` scans only this).
    pub(crate) fn load_phase(&self, ord: Ordering) -> i64 {
        // ord(doorway): phase read for the Lemma-1 helping decision; callers
        // pass SeqCst on hot paths
        self.phase.load(ord)
    }

    /// Loads the descriptor as a `(ctrl, phase)` pair, ctrl **first**
    /// (invariant 2 in the module docs). Acquire suffices for the
    /// phase: if the ctrl load observed generation g's word, the phase
    /// store of generation g happens-before it (owner's store order)
    /// and write-read coherence forces this later load to return it or
    /// a newer (higher) phase.
    pub(crate) fn view(&self, ctrl_ord: Ordering) -> (CtrlWord, i64) {
        // ord(helper-guard): ctrl half of the (ctrl, phase) snapshot,
        // caller-chosen ordering
        let w = CtrlWord(self.ctrl.load(ctrl_ord));
        // ord(helper-guard): phase half; publish stores phase before ctrl, so
        // Acquire here sees the phase that belongs to the observed ctrl
        (w, self.phase.load(Ordering::Acquire))
    }

    /// Owner-only: publishes a fresh pending operation (L63/L100).
    ///
    /// A plain store is sound by invariant 1 (the displaced word is
    /// completed, and completed words are final — no helper CAS targets
    /// them). Both stores are SeqCst: the doorway property needs the
    /// phase to be globally visible no later than the pending bit, and
    /// the pending bit to be visible before the owner's subsequent
    /// structural reads (`help_enq`'s tail checks).
    pub(crate) fn publish(&self, phase: i64, node_addr: usize, enqueue: bool) {
        // Own slot; the current word is final, so Relaxed reads the
        // one value any thread could read.
        // ord(helper-guard): own slot's version bits; the owner is the only
        // writer between publishes
        let cur = CtrlWord(self.ctrl.load(Ordering::Relaxed));
        debug_assert!(!cur.pending(), "publishing over a pending operation");
        // ord(doorway, sc=doorway): announces the operation's phase
        self.phase.store(phase, Ordering::SeqCst);
        // ord(doorway, sc=doorway): descriptor becomes pending; must follow its
        // phase in the total order
        self.ctrl.store(
            CtrlWord::pack(node_addr, true, enqueue) | cur.next_version(),
            Ordering::SeqCst,
        );
    }

    /// Owner-only: restores the idle descriptor (§3.3 "dummy descriptor
    /// on exit"), with a version bump so stale helper CASes keep
    /// failing after the slot is handed to its next owner.
    pub(crate) fn reset(&self) {
        // ord(helper-guard): own slot's version bits; owner-only write window
        let cur = CtrlWord(self.ctrl.load(Ordering::Relaxed));
        // ord(doorway, sc=reset): idle-transition phase store
        self.phase.store(-1, Ordering::SeqCst);
        // ord(doorway, sc=reset): idle-transition ctrl store
        self.ctrl.store(
            CtrlWord::pack(0, false, true) | cur.next_version(),
            Ordering::SeqCst,
        );
    }

    /// One descriptor state transition: CAS `cur → (fields, ver+1)`,
    /// keeping the phase (helpers never change an operation's phase).
    ///
    /// When the requested fields already hold in `cur`, the transition
    /// is reported complete *without* a CAS. This "no-op skip" is
    /// load-bearing, not an optimization: it is what makes invariant 1
    /// (completed words are final) true, which in turn makes the
    /// owner's plain-store `publish` race-free.
    pub(crate) fn cas_ctrl(
        &self,
        cur: CtrlWord,
        node_addr: usize,
        pending: bool,
        enqueue: bool,
    ) -> bool {
        let fields = CtrlWord::pack(node_addr, pending, enqueue);
        if cur.fields() == fields {
            return true;
        }
        debug_assert!(
            cur.pending(),
            "only pending descriptors are ever transitioned (invariant 1)"
        );
        self.ctrl
            // ord(linearization, sc=ctrl, steps=AckEnq+AckDeq+Stage0Empty+Stage0NonEmpty+Restage):
            // the version-tagged exactly-once descriptor transition (step 2 of
            // Figures 5-6)
            .compare_exchange(
                cur.0,
                fields | cur.next_version(),
                Ordering::SeqCst,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Reaper-only: conditionally retires the descriptor, CASing the
    /// exact word `cur` (version included) to the idle word with a
    /// bumped version. Unlike [`cas_ctrl`](StateSlot::cas_ctrl) there is
    /// no no-op skip and the word need not be pending: the CAS is the
    /// *election* — among racing reapers of the same abandoned slot (a
    /// stalled reaper plus its takeover successor), exactly one wins,
    /// and only the winner may perform the destructive claim of the
    /// victim's dequeue result.
    ///
    /// The slot's `phase` is deliberately left untouched: a stale-phase
    /// idle word is harmless (helpers ignore non-pending descriptors
    /// and `maxPhase` stays monotone), whereas a late `phase` store by
    /// a stalled reaper could land under a successor lease's freshly
    /// published operation and break the phase-before-ctrl invariant.
    ///
    /// This is the one exception to invariant 1 (helpers never CAS
    /// completed words): it is sound because the reap protocol
    /// (`idpool::begin_reap`) has revoked the owner's lease first, so no
    /// owner store can race it — an owner publishing after its lease
    /// was revoked is a lease-contract violation (DESIGN.md §13).
    pub(crate) fn try_retire(&self, cur: CtrlWord) -> bool {
        debug_assert!(
            !cur.pending(),
            "reap must complete the pending op before retiring the slot"
        );
        self.ctrl
            // ord(linearization, sc, steps=ReapClaim): the reap election CAS:
            // blanks the victim's observed descriptor word exactly once, and
            // the unique winner owns the destructive reap steps (orphaned
            // result claim, quarantine) -- the claim-safety rule of DESIGN.md
            // SS13.4; SeqCst: the retirement must enter the single total order
            // with helpers' SeqCst pending checks, or a helper could act on a
            // blanked descriptor (and two stale-word reapers could both win the
            // election)
            .compare_exchange(
                cur.0,
                CtrlWord::pack(0, false, true) | cur.next_version(),
                Ordering::SeqCst,
                Ordering::Relaxed,
            )
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_descriptor_is_idle() {
        let s = StateSlot::initial();
        let (w, phase) = s.view(Ordering::SeqCst);
        assert_eq!(phase, -1);
        assert!(!w.pending());
        assert!(w.enqueue());
        assert!(w.node_is_null());
        assert_eq!(w.node_addr(), 0);
    }

    #[test]
    fn pack_roundtrips_fields_and_address() {
        let s = StateSlot::initial();
        let addr = 0x7f12_3456_70c0usize; // 64-byte aligned, < 2^48
        s.publish(41, addr, false);
        let (w, phase) = s.view(Ordering::SeqCst);
        assert_eq!(phase, 41);
        assert!(w.pending());
        assert!(!w.enqueue());
        assert_eq!(w.node_addr(), addr);
        assert!(!w.node_is_null());
        assert_eq!(w.node_ptr::<u64>() as usize, addr);
    }

    #[test]
    fn transitions_bump_the_version() {
        let s = StateSlot::initial();
        s.publish(0, 64, true);
        let w0 = s.load_ctrl(Ordering::SeqCst);
        assert!(s.cas_ctrl(w0, 64, false, true));
        let w1 = s.load_ctrl(Ordering::SeqCst);
        assert_eq!(w1.version(), (w0.version() + 1) % (1 << VERSION_BITS));
    }

    #[test]
    fn noop_transition_skips_the_cas() {
        let s = StateSlot::initial();
        s.publish(7, 128, true);
        let w = s.load_ctrl(Ordering::SeqCst);
        assert!(s.cas_ctrl(w, 128, false, true), "real transition");
        let done = s.load_ctrl(Ordering::SeqCst);
        // Same fields again: must succeed without touching the word.
        assert!(s.cas_ctrl(done, 128, false, true));
        assert_eq!(s.load_ctrl(Ordering::SeqCst), done, "no version bump");
    }

    #[test]
    fn stale_cas_fails_after_recycling() {
        // The ABA scenario the version tag exists to defeat: a helper
        // reads the word, stalls while the slot runs k complete
        // operations that reassemble the *same field bits* (possible
        // once nodes are recycled), then attempts its CAS.
        let s = StateSlot::initial();
        s.publish(1, 192, true);
        let stale = s.load_ctrl(Ordering::SeqCst); // helper's stale view
        for i in 0..3 {
            // complete + republish with the same (recycled) node addr
            let w = s.load_ctrl(Ordering::SeqCst);
            assert!(s.cas_ctrl(w, 192, false, true));
            s.publish(2 + i, 192, true);
        }
        let now = s.load_ctrl(Ordering::SeqCst);
        assert_eq!(now.fields(), stale.fields(), "fields reassembled");
        assert_ne!(now, stale, "but the version differs");
        assert!(
            !s.cas_ctrl(stale, 192, false, true),
            "stale helper CAS must fail"
        );
        assert_eq!(s.load_ctrl(Ordering::SeqCst), now, "word untouched");
    }

    #[test]
    fn reset_is_idle_with_a_version_bump() {
        let s = StateSlot::initial();
        s.publish(9, 256, false);
        let w = s.load_ctrl(Ordering::SeqCst);
        assert!(s.cas_ctrl(w, 256, false, false));
        let before = s.load_ctrl(Ordering::SeqCst);
        s.reset();
        let (after, phase) = s.view(Ordering::SeqCst);
        assert_eq!(phase, -1);
        assert!(!after.pending());
        assert!(after.enqueue());
        assert!(after.node_is_null());
        assert_ne!(after, before, "reset must bump the version");
    }

    #[test]
    fn try_retire_is_an_exclusive_election() {
        let s = StateSlot::initial();
        s.publish(3, 320, true);
        let w = s.load_ctrl(Ordering::SeqCst);
        assert!(s.cas_ctrl(w, 320, false, true), "complete the op first");
        let completed = s.load_ctrl(Ordering::SeqCst);
        assert!(s.try_retire(completed), "first reaper wins");
        let idle = s.load_ctrl(Ordering::SeqCst);
        assert!(!idle.pending() && idle.node_is_null());
        assert_ne!(idle, completed, "retire bumps the version");
        assert!(
            !s.try_retire(completed),
            "a stalled co-reaper's retire must lose the election"
        );
        // Even on an already-idle word the CAS elects exactly one winner.
        assert!(s.try_retire(idle), "idle slots are still retireable once");
        assert!(!s.try_retire(idle));
    }

    #[test]
    fn heartbeat_is_owner_monotonic() {
        let s = StateSlot::initial();
        assert_eq!(s.load_beat(), 0);
        s.bump_beat();
        s.bump_beat();
        assert_eq!(s.load_beat(), 2);
    }

    #[test]
    fn version_wraps_in_place() {
        let w = CtrlWord(CtrlWord::pack(0x4000, true, true) | VERSION_MASK);
        let bumped = CtrlWord(w.fields() | w.next_version());
        assert_eq!(bumped.version(), 0, "wraps to zero");
        assert_eq!(bumped.node_addr(), 0x4000, "without spilling into the address");
        assert!(bumped.pending());
    }

    mod proptests {
        use super::super::*;
        use proptest::prelude::*;

        /// A 64-byte-aligned address inside the packable 48-bit range.
        fn aligned_addr() -> impl Strategy<Value = usize> {
            (0u64..(1 << 42)).prop_map(|blocks| (blocks << 6) as usize)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn pack_roundtrips_every_field(
                addr in aligned_addr(),
                pending in any::<bool>(),
                enqueue in any::<bool>(),
                version in 0u64..(1 << VERSION_BITS),
            ) {
                let w = CtrlWord(CtrlWord::pack(addr, pending, enqueue) | (version << VERSION_SHIFT));
                prop_assert_eq!(w.node_addr(), addr);
                prop_assert_eq!(w.pending(), pending);
                prop_assert_eq!(w.enqueue(), enqueue);
                prop_assert_eq!(w.version(), version);
                prop_assert_eq!(w.node_is_null(), addr == 0);
            }

            #[test]
            fn version_bump_wraps_mod_2_pow_20_and_never_leaks(
                addr in aligned_addr(),
                pending in any::<bool>(),
                enqueue in any::<bool>(),
                version in 0u64..(1 << VERSION_BITS),
                bumps in 1u64..2048,
            ) {
                let mut w = CtrlWord(
                    CtrlWord::pack(addr, pending, enqueue) | (version << VERSION_SHIFT),
                );
                for _ in 0..bumps {
                    w = CtrlWord(w.fields() | w.next_version());
                }
                prop_assert_eq!(
                    w.version(),
                    (version + bumps) & ((1 << VERSION_BITS) - 1),
                    "version advances mod 2^20"
                );
                // The tag never spills into neighbouring fields: even
                // across wraparound the address and flag bits are intact.
                prop_assert_eq!(w.node_addr(), addr);
                prop_assert_eq!(w.pending(), pending);
                prop_assert_eq!(w.enqueue(), enqueue);
            }

            #[test]
            fn unpacked_addresses_are_always_node_aligned(
                raw in 0u64..u64::MAX,
            ) {
                // Whatever bit pattern a load observes, the decoded
                // address is a multiple of NODE_ALIGN — the decoder
                // cannot fabricate a misaligned node pointer.
                let w = CtrlWord(raw);
                prop_assert_eq!(w.node_addr() % NODE_ALIGN, 0);
            }
        }
    }
}
