//! The wait-free queue with **hazard-pointer** memory management —
//! the paper's §3.4, implemented in full.
//!
//! The epoch-based [`WfQueue`](crate::WfQueue) matches the paper's Java
//! presentation (which leans on the GC), but epoch reclamation is only
//! lock-free: one stalled thread can stall *all* reclamation. §3.4
//! prescribes Michael's hazard pointers to make memory management
//! wait-free too. [`WfQueueHp`] keeps nodes retired as soon as `head`
//! passes them (end of `help_finish_deq`), exactly as §3.4 wants.
//!
//! ## Descriptors are words, not objects
//!
//! Like the epoch variant, `state[tid]` is an in-place packed
//! [`StateSlot`](crate::desc::StateSlot) — a version-tagged control
//! word plus a phase word — instead of a pointer to a heap `OpDesc`.
//! For the HP variant this is a double win: the hot path stops
//! allocating *and* the descriptor hazard slot (with its
//! protect/validate dance on every descriptor read) disappears, because
//! a one-word atomic load has no lifetime to protect. Only two hazard
//! slots per thread remain:
//!
//! | slot | protects |
//! |---|---|
//! | 0 | the `head`/`tail` node an operation is working on |
//! | 1 | that node's successor (validated via a `head`/`tail` re-read: while the anchor is still in place, the successor cannot have been retired) |
//!
//! ## The node hand-off (replacing §3.4's value field)
//!
//! §3.4 suggests couriering the dequeued *value* inside the descriptor
//! so the owner never touches retired nodes. A packed word cannot carry
//! a `T`, so the completed dequeue word instead points at the **value
//! node** (the new sentinel, `first.next`), and the owner dereferences
//! it *without* a hazard slot, made safe by a two-token disposal gate
//! on every node (`tokens`): a node is released — to the reuse pool or
//! the allocator — only after (a) the hazard scan found it uncovered
//! ([`TOKEN_RECLAIM_READY`](types::TOKEN_RECLAIM_READY)) *and* (b) its
//! dequeue owner took the value ([`TOKEN_CONSUMED`](types::TOKEN_CONSUMED)).
//! Each side sets its token with an `AcqRel` `fetch_or`; whichever
//! observes the other's bit performs the release, exactly once. Since
//! (b) is executed by the owner itself, the owner's epilogue dereference
//! can never race with the node's disposal.
//!
//! If a thread dies between its dequeue's completion and its epilogue,
//! the value node stays in limbo: one node + one value leak per killed
//! thread, the same bounded kill-window loss the torture suite's
//! conservation check already budgets for (`allowed_missing`). A panic
//! that unwinds through `dequeue` does *not* leak — the handle's `Drop`
//! claims the unclaimed result (see `deq_in_flight`).
//!
//! ## Node reuse
//!
//! Disposal feeds the queue's `NodePool` (`crate::pool`): a shared
//! steal-all freelist, refilling a per-handle cache, making steady-state
//! HP operations allocation-free just like the epoch variant's
//! `RetireCache`. With
//! `Config::reuse_nodes` off, disposal falls through to the allocator —
//! the ablation baseline.

mod handle;
mod queue;
pub(crate) mod types;

pub use handle::{PendingOpHp, WfHpHandle};
pub use queue::WfQueueHp;

#[cfg(test)]
mod tests;
