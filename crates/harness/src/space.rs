//! Live-space measurement for Figure 10.
//!
//! The paper pre-fills each queue with `size` elements, runs the pairs
//! workload with 8 threads, and samples the live heap via the JVM's GC
//! log; the reported number is the ratio of the wait-free queues' live
//! set to the lock-free queue's. Here the `fig10` binary installs the
//! `alloc-track` counting allocator and this module samples it around
//! the same protocol.


use queue_traits::{ConcurrentQueue, QueueHandle};

use crate::sched::SchedPolicy;
use crate::workload;

/// Drives the epoch collector until deferred destructions drain — the
/// analog of the paper's "periodically invoked GC". Each `pin().flush()`
/// migrates this thread's deferred garbage to the global queue and
/// attempts collection; repeating lets the global epoch advance far
/// enough to free everything unreachable.
pub fn drain_deferred() {
    for _ in 0..64 {
        crossbeam_epoch::pin().flush();
    }
}

/// Result of one live-space measurement.
#[derive(Debug, Clone, Copy)]
pub struct SpaceSample {
    /// Initial queue size (elements).
    pub size: usize,
    /// Live bytes attributable to the queue while the workload ran
    /// (average of the periodic samples, minus the pre-creation
    /// baseline).
    pub live_bytes: f64,
}

/// Measures the live heap occupied by `queue` pre-filled with `size`
/// elements while `threads` workers run `iters` pairs iterations.
///
/// Sampling protocol (paper §4, Figure 10): a sampler thread takes
/// `samples` readings of the live-byte counter spread over the run
/// (standing in for the periodically forced GC reports); the result
/// averages those readings relative to the baseline captured before the
/// queue was created.
///
/// Requires the `alloc-track` allocator to be installed in the calling
/// binary; with the default allocator every reading is zero.
pub fn measure_live<Q: ConcurrentQueue<u64>>(
    make: impl FnOnce() -> Q,
    size: usize,
    threads: usize,
    iters: usize,
    samples: usize,
) -> SpaceSample {
    // Clean slate: collect garbage deferred by earlier measurements so
    // it neither inflates the baseline nor deflates readings when freed
    // mid-run.
    drain_deferred();
    let baseline = alloc_track::live_bytes();
    let queue = make();
    {
        let mut h = queue.register().expect("prefill handle");
        for i in 0..size {
            h.enqueue(workload::encode(0xFFF, i));
        }
    }
    // The paper samples the live set right after a forced GC, i.e. with
    // transient garbage removed. The epoch-collector analog: run the
    // workload in `samples` rounds and read the counter at the quiescent
    // point after each round, once deferred destructions have drained
    // (with all workers parked, repeated pin/flush cycles collect
    // everything unreachable). Each reading therefore covers exactly the
    // resident structure: nodes, descriptors, state array.
    let mut readings = Vec::with_capacity(samples);
    let per_round = (iters / samples.max(1)).max(1);
    for _ in 0..samples.max(1) {
        workload::run_pairs(&queue, threads, per_round, SchedPolicy::Unpinned);
        drain_deferred();
        readings.push(alloc_track::live_bytes().saturating_sub(baseline) as f64);
    }
    let live = readings.iter().sum::<f64>() / readings.len() as f64;
    drop(queue);
    drain_deferred();
    SpaceSample {
        size,
        live_bytes: live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_queue::MsQueue;

    #[test]
    fn measure_runs_without_tracking_allocator() {
        // Without alloc-track installed the reading is 0, but the
        // protocol (prefill, workload, sampling) must still work.
        let s = measure_live(MsQueue::<u64>::new, 100, 2, 200, 3);
        assert_eq!(s.size, 100);
        assert!(s.live_bytes >= 0.0);
    }
}
