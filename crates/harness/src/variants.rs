//! The queue contenders, matching the series labels of the paper's
//! figures.

use std::time::Duration;

use kp_queue::{Config, WfQueue, WfQueueHp};
use ms_queue::{MsQueue, MsQueueHp, MutexQueue};

use crate::sched::SchedPolicy;
use crate::workload;

/// A queue implementation under benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Michael & Scott lock-free queue, epoch reclamation — the paper's
    /// **LF** series.
    Lf,
    /// Michael & Scott on hazard pointers (reclamation ablation; not a
    /// paper series).
    LfHp,
    /// Kogan–Petrank, base algorithm — the paper's **base WF**.
    WfBase,
    /// Kogan–Petrank with optimization 1 — **opt WF (1)**.
    WfOpt1,
    /// Kogan–Petrank with optimization 2 — **opt WF (2)**.
    WfOpt2,
    /// Kogan–Petrank with both optimizations — **opt WF (1+2)**.
    WfOptBoth,
    /// Kogan–Petrank opt (1+2) on hazard pointers (§3.4): fully
    /// wait-free including memory management (reclamation ablation; not
    /// a paper series).
    WfHp,
    /// Coarse mutex around a `VecDeque` (context baseline).
    Mutex,
}

impl Variant {
    /// The three series of Figures 7 and 8.
    pub const FIG7: [Variant; 3] = [Variant::Lf, Variant::WfBase, Variant::WfOptBoth];

    /// The four series of Figure 9 (optimization ablation).
    pub const FIG9: [Variant; 4] = [
        Variant::WfBase,
        Variant::WfOptBoth,
        Variant::WfOpt1,
        Variant::WfOpt2,
    ];

    /// Everything, for exhaustive sweeps.
    pub const ALL: [Variant; 8] = [
        Variant::Lf,
        Variant::LfHp,
        Variant::WfBase,
        Variant::WfOpt1,
        Variant::WfOpt2,
        Variant::WfOptBoth,
        Variant::WfHp,
        Variant::Mutex,
    ];

    /// Series label, matching the paper's legends where applicable.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Lf => "LF",
            Variant::LfHp => "LF (hazard)",
            Variant::WfBase => "base WF",
            Variant::WfOpt1 => "opt WF (1)",
            Variant::WfOpt2 => "opt WF (2)",
            Variant::WfOptBoth => "opt WF (1+2)",
            Variant::WfHp => "WF (hazard)",
            Variant::Mutex => "mutex",
        }
    }

    /// The `Config` for wait-free variants, `None` for the baselines.
    pub fn wf_config(&self) -> Option<Config> {
        match self {
            Variant::WfBase => Some(Config::base()),
            Variant::WfOpt1 => Some(Config::opt1()),
            Variant::WfOpt2 => Some(Config::opt2()),
            Variant::WfOptBoth => Some(Config::opt_both()),
            _ => None,
        }
    }

    /// Runs the pairs benchmark (Figures 7/9) on a fresh queue.
    pub fn run_pairs(&self, threads: usize, iters: usize, sched: SchedPolicy) -> Duration {
        match self {
            Variant::Lf => workload::run_pairs(&MsQueue::new(), threads, iters, sched),
            Variant::LfHp => workload::run_pairs(&MsQueueHp::new(), threads, iters, sched),
            Variant::WfHp => {
                let q: WfQueueHp<u64> = WfQueueHp::with_config(threads, Config::opt_both());
                workload::run_pairs(&q, threads, iters, sched)
            }
            Variant::Mutex => workload::run_pairs(&MutexQueue::new(), threads, iters, sched),
            wf => {
                let cfg = wf.wf_config().expect("wait-free variant");
                let q: WfQueue<u64> = WfQueue::with_config(threads, cfg);
                workload::run_pairs(&q, threads, iters, sched)
            }
        }
    }

    /// Runs the 50%-enqueues benchmark (Figure 8) on a fresh queue.
    pub fn run_fifty_fifty(
        &self,
        threads: usize,
        iters: usize,
        prefill: usize,
        sched: SchedPolicy,
    ) -> Duration {
        match self {
            Variant::Lf => {
                workload::run_fifty_fifty(&MsQueue::new(), threads, iters, prefill, sched)
            }
            Variant::LfHp => {
                workload::run_fifty_fifty(&MsQueueHp::new(), threads, iters, prefill, sched)
            }
            Variant::WfHp => {
                let q: WfQueueHp<u64> = WfQueueHp::with_config(threads + 1, Config::opt_both());
                workload::run_fifty_fifty(&q, threads, iters, prefill, sched)
            }
            Variant::Mutex => {
                workload::run_fifty_fifty(&MutexQueue::new(), threads, iters, prefill, sched)
            }
            wf => {
                let cfg = wf.wf_config().expect("wait-free variant");
                // +1 slot: the prefill handle coexists conceptually; it
                // is dropped before workers start, but sizing generously
                // costs one array entry.
                let q: WfQueue<u64> = WfQueue::with_config(threads + 1, cfg);
                workload::run_fifty_fifty(&q, threads, iters, prefill, sched)
            }
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wf_configs_only_for_wf() {
        assert!(Variant::Lf.wf_config().is_none());
        assert!(Variant::Mutex.wf_config().is_none());
        assert_eq!(Variant::WfBase.wf_config(), Some(Config::base()));
        assert_eq!(Variant::WfOptBoth.wf_config(), Some(Config::opt_both()));
    }

    #[test]
    fn every_variant_runs_pairs() {
        for v in Variant::ALL {
            let d = v.run_pairs(2, 300, SchedPolicy::Unpinned);
            assert!(d > Duration::ZERO, "{v}");
        }
    }

    #[test]
    fn every_variant_runs_fifty_fifty() {
        for v in Variant::ALL {
            let d = v.run_fifty_fifty(2, 300, 50, SchedPolicy::Unpinned);
            assert!(d > Duration::ZERO, "{v}");
        }
    }
}
