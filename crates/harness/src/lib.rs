//! Benchmark harness reproducing the paper's evaluation (§4).
//!
//! The paper measures total completion time of two benchmarks over
//! 1–16 threads, comparing Michael & Scott's lock-free queue (**LF**)
//! against the wait-free algorithm's variants:
//!
//! * **enqueue-dequeue pairs** — empty initial queue; each thread
//!   repeats `enqueue; dequeue` (Figure 7, and Figure 9 for the
//!   optimization ablation);
//! * **50% enqueues** — queue pre-filled with 1000 elements; each
//!   thread flips a fair coin per iteration (Figure 8);
//! * **space overhead** — live heap of the wait-free queues relative to
//!   the lock-free one as the initial queue size grows (Figure 10);
//!
//! plus this reproduction's extension experiment: per-operation latency
//! tails, the operational meaning of wait-freedom.
//!
//! The paper ran on three machine/OS configurations and found the
//! LF-vs-WF gap to be governed by scheduling behaviour. We substitute
//! three *scheduler configurations* on one host ([`SchedPolicy`]):
//! pinned threads, unpinned threads, and unpinned threads with frequent
//! voluntary yields (oversubscription-friendly). See DESIGN.md §3.
//!
//! Each figure has a binary (`fig7`, `fig8`, `fig9`, `fig10`,
//! `latency`) that prints the paper-shaped table and writes CSV files.

#![warn(missing_docs)]

pub mod args;
pub mod figures;
pub mod latency;
pub mod report;
pub mod sched;
pub mod space;
pub mod stats;
pub mod variants;
pub mod workload;

pub use sched::SchedPolicy;
pub use variants::Variant;
