//! Scheduler configurations — the reproduction's substitute for the
//! paper's three machine/OS configurations.
//!
//! The paper's central performance finding is that the LF-vs-WF gap is
//! "intimately related to the system configuration": scheduling policy
//! and thread placement decide which interleavings occur, and helping
//! pays off exactly when threads get preempted mid-operation. We expose
//! that axis directly instead of installing three operating systems.

use std::fmt;

/// How worker threads are placed and how often they yield.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Pin worker `t` to core `t mod ncores`. Stable placement,
    /// fewest migrations — the configuration friendliest to the
    /// lock-free queue (analogous to the paper's RedHat machine, where
    /// LF wins throughout).
    Pinned,
    /// Default OS placement. Migrations and preemptions occur at the
    /// scheduler's whim (analogous to the paper's Ubuntu machine).
    Unpinned,
    /// Default placement plus a voluntary `yield_now` every
    /// `YIELD_EVERY` operations, emulating aggressive time-slicing /
    /// oversubscription (analogous to the paper's CentOS machine, the
    /// one where the optimized wait-free queue overtakes LF once
    /// threads exceed cores).
    Yielding,
}

/// Operation period between voluntary yields under
/// [`SchedPolicy::Yielding`].
pub const YIELD_EVERY: usize = 64;

impl SchedPolicy {
    /// All configurations, in the order the figures print them.
    pub const ALL: [SchedPolicy; 3] = [
        SchedPolicy::Pinned,
        SchedPolicy::Unpinned,
        SchedPolicy::Yielding,
    ];

    /// Short name used in tables and CSV file names.
    pub fn label(&self) -> &'static str {
        match self {
            SchedPolicy::Pinned => "pinned",
            SchedPolicy::Unpinned => "unpinned",
            SchedPolicy::Yielding => "yielding",
        }
    }

    /// Which paper sub-figure this configuration stands in for.
    pub fn paper_analog(&self) -> &'static str {
        match self {
            SchedPolicy::Pinned => "RedHat-operated machine (b)",
            SchedPolicy::Unpinned => "Ubuntu-operated machine (c)",
            SchedPolicy::Yielding => "CentOS-operated machine (a)",
        }
    }

    /// Applies the placement part of the policy to the calling worker
    /// thread (`worker` = 0-based index). No-op for unpinned policies or
    /// when affinity syscalls are unavailable.
    pub fn apply(&self, worker: usize) {
        if let SchedPolicy::Pinned = self {
            pin_to_core(worker % num_cores());
        }
    }

    /// True if workers should interleave voluntary yields.
    pub fn yields(&self) -> bool {
        matches!(self, SchedPolicy::Yielding)
    }

    /// Parses a label as produced by [`label`](Self::label).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pinned" => Some(SchedPolicy::Pinned),
            "unpinned" => Some(SchedPolicy::Unpinned),
            "yielding" => Some(SchedPolicy::Yielding),
            _ => None,
        }
    }
}

impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Number of online cores.
pub fn num_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pins the calling thread to `core` (Linux; silent no-op elsewhere or
/// on failure — pinning is a performance knob, not a correctness one).
pub fn pin_to_core(core: usize) {
    #[cfg(target_os = "linux")]
    // SAFETY: CPU_* macros manipulate a plain stack-allocated cpu_set_t;
    // sched_setaffinity only reads it.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_ZERO(&mut set);
        libc::CPU_SET(core % libc::CPU_SETSIZE as usize, &mut set);
        let _ = libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set);
    }
    #[cfg(not(target_os = "linux"))]
    let _ = core;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for p in SchedPolicy::ALL {
            assert_eq!(SchedPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(SchedPolicy::parse("bogus"), None);
    }

    #[test]
    fn yielding_flag() {
        assert!(SchedPolicy::Yielding.yields());
        assert!(!SchedPolicy::Pinned.yields());
        assert!(!SchedPolicy::Unpinned.yields());
    }

    #[test]
    fn pinning_does_not_crash() {
        SchedPolicy::Pinned.apply(0);
        SchedPolicy::Pinned.apply(31); // wraps modulo cores
        SchedPolicy::Unpinned.apply(0);
        assert!(num_cores() >= 1);
    }
}
