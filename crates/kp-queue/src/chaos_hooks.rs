//! Fault-injection hooks, compiled away unless the `chaos` cargo
//! feature is enabled.
//!
//! Every atomic step of the protocol is labeled with an
//! `inject!("site")` call placed immediately *before* the step, so a
//! fault plan (see the `chaos` crate) can stall or kill a thread in the
//! window between any two steps — the schedules the paper's helping
//! scheme exists to survive. With the feature off the macro expands to
//! nothing and the op-scope functions are empty `#[inline(always)]`
//! bodies, so the production queue pays zero cost.
//!
//! The core is written once for both reclamation backends, so each
//! backend supplies the names through its [`Sites`] table: every site
//! below exists as `kp.<site>` on the epoch engine (`WfQueue`) and as
//! `kp_hp.<site>` on the hazard-pointer engine (`WfQueueHp`).
//!
//! | site | window it opens |
//! |---|---|
//! | `publish` | after phase selection, before the L63/L100 descriptor publish |
//! | `append` | before the L74 `next` CAS (enqueue step 1) |
//! | `clear_pending.enq` | before the L92–93 descriptor CAS (enqueue step 2) |
//! | `swing_tail` | before the L94 tail CAS (enqueue step 3) |
//! | `bind_sentinel` | before the L129–134 stage-0 descriptor CAS |
//! | `lock_sentinel` | before the L135 `deqTid` CAS (dequeue step 1) |
//! | `clear_pending.deq` | after observing a locked sentinel, before the L148–149 CAS (dequeue step 2) |
//! | `clear_pending.deq_empty` | before the L118–120 empty-result CAS |
//! | `swing_head` | before the L150 head CAS (dequeue step 3) |
//! | `fast.enq` | top of each fast-path enqueue iteration, before its append CAS attempt (so a plan can hit every retry) |
//! | `fast.swing_tail` | after a fast append won, before its best-effort tail CAS |
//! | `fast.deq` | top of each fast-path dequeue iteration, before its `deqTid` CAS attempt |
//! | `fast.swing_head` | after a fast lock won (value already taken), before its best-effort head CAS |
//! | `fast.demote` | after fast-path exhaustion, before the slow-path descriptor publish (enqueue: the private node is already rebranded with the real tid) |
//! | `reap.adopt` | reap rights won (`begin_reap`/`takeover_reap` done), before the victim's descriptor is read for adoption |
//! | `reap.retire` | victim's op adopted and tail/head driven, before the `try_retire` election CAS |
//! | `reap.finish` | destructive steps done (or election lost), before `finish_reap` returns the lease — a kill here strands the slot in `Reaping` for the takeover path |

/// One backend's injection-site names (see the table above); built by
/// [`sites!`] so both tables share one list of suffixes.
#[cfg_attr(not(feature = "chaos"), allow(dead_code))]
pub struct Sites {
    pub(crate) publish: &'static str,
    pub(crate) append: &'static str,
    pub(crate) clear_pending_enq: &'static str,
    pub(crate) swing_tail: &'static str,
    pub(crate) bind_sentinel: &'static str,
    pub(crate) lock_sentinel: &'static str,
    pub(crate) clear_pending_deq: &'static str,
    pub(crate) clear_pending_deq_empty: &'static str,
    pub(crate) swing_head: &'static str,
    pub(crate) fast_enq: &'static str,
    pub(crate) fast_swing_tail: &'static str,
    pub(crate) fast_deq: &'static str,
    pub(crate) fast_swing_head: &'static str,
    pub(crate) fast_demote: &'static str,
    pub(crate) reap_adopt: &'static str,
    pub(crate) reap_retire: &'static str,
    pub(crate) reap_finish: &'static str,
}

/// The [`Sites`] table for one name prefix.
macro_rules! sites {
    ($prefix:literal) => {
        $crate::chaos_hooks::Sites {
            publish: concat!($prefix, ".publish"),
            append: concat!($prefix, ".append"),
            clear_pending_enq: concat!($prefix, ".clear_pending.enq"),
            swing_tail: concat!($prefix, ".swing_tail"),
            bind_sentinel: concat!($prefix, ".bind_sentinel"),
            lock_sentinel: concat!($prefix, ".lock_sentinel"),
            clear_pending_deq: concat!($prefix, ".clear_pending.deq"),
            clear_pending_deq_empty: concat!($prefix, ".clear_pending.deq_empty"),
            swing_head: concat!($prefix, ".swing_head"),
            fast_enq: concat!($prefix, ".fast.enq"),
            fast_swing_tail: concat!($prefix, ".fast.swing_tail"),
            fast_deq: concat!($prefix, ".fast.deq"),
            fast_swing_head: concat!($prefix, ".fast.swing_head"),
            fast_demote: concat!($prefix, ".fast.demote"),
            reap_adopt: concat!($prefix, ".reap.adopt"),
            reap_retire: concat!($prefix, ".reap.retire"),
            reap_finish: concat!($prefix, ".reap.finish"),
        }
    };
}

pub(crate) use sites;

#[cfg(feature = "chaos")]
macro_rules! inject {
    ($site:expr) => {
        ::chaos::hit($site)
    };
}

#[cfg(not(feature = "chaos"))]
macro_rules! inject {
    ($site:expr) => {};
}

pub(crate) use inject;

/// Watchdog: the calling thread is entering a queue operation.
#[cfg(feature = "chaos")]
pub(crate) fn op_begin() {
    ::chaos::op_begin();
}

#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub(crate) fn op_begin() {}

/// Watchdog: the operation entered via [`op_begin`] completed normally.
/// Deliberately not a drop guard: a killed operation never completes,
/// so its partial step count must not be reported.
#[cfg(feature = "chaos")]
pub(crate) fn op_end() {
    ::chaos::op_end();
}

#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub(crate) fn op_end() {}
