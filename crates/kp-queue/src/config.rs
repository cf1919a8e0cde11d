//! Runtime configuration selecting among the paper's algorithm variants.

/// How a thread chooses which peers to help on each operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelpPolicy {
    /// The base algorithm (Figure 2 `help()`): scan the entire `state`
    /// array and help every pending operation with phase ≤ own phase.
    ScanAll,
    /// Optimization 1 (§3.3): examine only `chunk` entries per operation,
    /// advancing cyclically through the array (plus the thread's own
    /// entry). Wait-freedom is preserved because each index is revisited
    /// at least once every `ceil(n / chunk)` operations.
    Cyclic {
        /// Entries examined per operation (`k` in the paper, `1 ≤ k < n`).
        chunk: usize,
    },
    /// The paper's alternative to `Cyclic`: examine `chunk` entries
    /// starting at a random index, giving *probabilistic* wait-freedom.
    RandomChunk {
        /// Entries examined per operation.
        chunk: usize,
    },
}

/// How a thread obtains its phase number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhasePolicy {
    /// The base algorithm (Figure 2 `maxPhase()`): scan the `state` array
    /// and pick the maximum phase plus one. O(n) per operation.
    MaxScan,
    /// Optimization 2 (§3.3): a shared monotone counter bumped with an
    /// atomic read-modify-write. O(1) per operation. (The paper uses a
    /// CAS whose failure may be ignored — a failed CAS means another
    /// thread took the same phase, and equal phases are benign; a
    /// fetch-add is the equivalent primitive with unique results.)
    AtomicCounter,
}

/// Default bound on fast-path CAS-loop iterations when the fast path is
/// enabled via [`Config::fast`]. Small on purpose: each failed iteration
/// already proves a concurrent operation succeeded, so a long fast loop
/// only delays the (helping) slow path under sustained contention.
pub const DEFAULT_FAST_FAILURES: usize = 8;

/// Default number of consecutive fast-path operations a handle completes
/// before it peeks one `state` slot for a starving slow-path peer.
pub const DEFAULT_STARVATION_PATIENCE: usize = 64;

/// Default reap patience when the reaper is enabled via
/// [`Config::with_reaper`]: how many of a live handle's *own* completed
/// operations a peer slot must sit frozen (heartbeat, descriptor word,
/// and phase all unchanged) before the observer revokes its lease and
/// reaps it. Large on purpose — a reap of a live-but-idle handle that
/// neither operates nor calls `keepalive()` is a lease-contract
/// violation (DESIGN.md §13), so the default trades reap latency for a
/// wide safety margin.
pub const DEFAULT_REAP_PATIENCE: usize = 1024;

/// Default wall-clock silence floor (milliseconds) for declaring a slot
/// frozen — see [`Config::reap_min_silence_ms`]. One second: orders of
/// magnitude above routine scheduler preemption and page-fault stalls,
/// yet short enough that an abandoned slot is still reclaimed promptly.
pub const DEFAULT_REAP_MIN_SILENCE_MS: u64 = 1000;

/// Variant selection for a [`WfQueue`](crate::WfQueue) or a
/// [`WfQueueHp`](crate::WfQueueHp).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Helping policy (optimization 1 axis).
    pub help: HelpPolicy,
    /// Phase-number policy (optimization 2 axis).
    pub phase: PhasePolicy,
    /// §3.3 enhancement #3: read the `pending` flag before attempting
    /// the (costly) descriptor CAS in the two `help_finish_*` methods.
    pub validate_before_cas: bool,
    /// Fast-path/slow-path execution (Kogan–Petrank 2012 methodology):
    /// each operation first runs up to this many iterations of the raw
    /// Michael–Scott CAS loop — no descriptor publish, no phase, no
    /// helping — and falls back to the paper's wait-free slow path on
    /// exhaustion. `0` (the default) disables the fast path entirely;
    /// wait-freedom holds for any value because every failed fast
    /// iteration implies a contending operation succeeded, so the
    /// fallback is reached after bounded global progress.
    pub max_fast_failures: usize,
    /// Every this-many consecutive fast-path operations, a handle peeks
    /// one `state`-array slot (cyclically) and demotes its own operation
    /// to the slow path if that peer is pending — bounding how long a
    /// slow-path operation can starve while peers keep winning the fast
    /// path. `0` disables the peek (fast ops then only help when they
    /// themselves fall back).
    pub starvation_patience: usize,
    /// Abandoned-handle reaper (DESIGN.md §13): `0` (the default)
    /// disables it — handles then bear no heartbeat or scan cost and the
    /// paper-series configurations behave exactly as before. When
    /// non-zero, every `TICK_STRIDE`-th (16th) completed operation
    /// examines one peer slot (cyclically, bounded steps); a slot whose
    /// heartbeat, descriptor word, and phase stay frozen across this
    /// many of the observer's own *inspections* (so
    /// `TICK_STRIDE * reap_patience` of its operations) is declared
    /// abandoned: its lease is revoked, its
    /// pending operation adopted through the ordinary helping machinery,
    /// its ID retired for reuse, and its epoch/hazard participation
    /// quarantined so reclamation advances again.
    pub reap_patience: usize,
    /// Wall-clock floor on the freeze declaration, in milliseconds.
    /// `reap_patience` counts the *observer's* operations, and on a
    /// fast queue the whole window elapses in low milliseconds — well
    /// inside a routine OS preemption of the observed handle. A slot is
    /// therefore only declared frozen once its snapshot has *also* held
    /// still for this much wall time after the op-count patience ran
    /// out. `0` disables the floor (tests and latency probes only: it
    /// shrinks the window in which a merely-descheduled live handle is
    /// indistinguishable from a dead one to the op-count patience
    /// alone).
    pub reap_min_silence_ms: u64,
}

impl Config {
    /// The base algorithm of §3.2 — the paper's `base WF` series.
    pub const fn base() -> Self {
        Config {
            help: HelpPolicy::ScanAll,
            phase: PhasePolicy::MaxScan,
            validate_before_cas: false,
            max_fast_failures: 0,
            starvation_patience: DEFAULT_STARVATION_PATIENCE,
            reap_patience: 0,
            reap_min_silence_ms: DEFAULT_REAP_MIN_SILENCE_MS,
        }
    }

    /// Optimization 1 only — the paper's `opt WF (1)` series.
    pub const fn opt1() -> Self {
        Config {
            help: HelpPolicy::Cyclic { chunk: 1 },
            phase: PhasePolicy::MaxScan,
            validate_before_cas: false,
            max_fast_failures: 0,
            starvation_patience: DEFAULT_STARVATION_PATIENCE,
            reap_patience: 0,
            reap_min_silence_ms: DEFAULT_REAP_MIN_SILENCE_MS,
        }
    }

    /// Optimization 2 only — the paper's `opt WF (2)` series.
    pub const fn opt2() -> Self {
        Config {
            help: HelpPolicy::ScanAll,
            phase: PhasePolicy::AtomicCounter,
            validate_before_cas: false,
            max_fast_failures: 0,
            starvation_patience: DEFAULT_STARVATION_PATIENCE,
            reap_patience: 0,
            reap_min_silence_ms: DEFAULT_REAP_MIN_SILENCE_MS,
        }
    }

    /// Both optimizations — the paper's `opt WF (1+2)` series.
    pub const fn opt_both() -> Self {
        Config {
            help: HelpPolicy::Cyclic { chunk: 1 },
            phase: PhasePolicy::AtomicCounter,
            validate_before_cas: false,
            max_fast_failures: 0,
            starvation_patience: DEFAULT_STARVATION_PATIENCE,
            reap_patience: 0,
            reap_min_silence_ms: DEFAULT_REAP_MIN_SILENCE_MS,
        }
    }

    /// Enables the validation-before-CAS enhancement (§3.3 #3).
    pub const fn with_validation(mut self) -> Self {
        self.validate_before_cas = true;
        self
    }

    /// Sets the helping policy.
    pub const fn with_help(mut self, help: HelpPolicy) -> Self {
        self.help = help;
        self
    }

    /// Sets the phase policy.
    pub const fn with_phase(mut self, phase: PhasePolicy) -> Self {
        self.phase = phase;
        self
    }

    /// Fast-path/slow-path execution on top of `opt WF (1+2)`: the
    /// lock-free Michael–Scott CAS loop first, the paper's helping
    /// machinery as the wait-free fallback.
    pub const fn fast() -> Self {
        Config::opt_both().with_fast_path(DEFAULT_FAST_FAILURES)
    }

    /// Sets the fast-path CAS-failure bound (`0` disables the fast
    /// path).
    pub const fn with_fast_path(mut self, max_fast_failures: usize) -> Self {
        self.max_fast_failures = max_fast_failures;
        self
    }

    /// Sets the starvation-peek period (`0` disables the peek).
    pub const fn with_starvation_patience(mut self, patience: usize) -> Self {
        self.starvation_patience = patience;
        self
    }

    /// Enables the abandoned-handle reaper with
    /// [`DEFAULT_REAP_PATIENCE`]. See [`Config::reap_patience`].
    pub const fn with_reaper(self) -> Self {
        self.with_reap_patience(DEFAULT_REAP_PATIENCE)
    }

    /// Sets the reap patience directly (`0` disables the reaper).
    pub const fn with_reap_patience(mut self, patience: usize) -> Self {
        self.reap_patience = patience;
        self
    }

    /// Sets the wall-clock silence floor on the freeze declaration
    /// (`0` disables it — tests and latency probes only; see
    /// [`Config::reap_min_silence_ms`]).
    pub const fn with_reap_min_silence_ms(mut self, ms: u64) -> Self {
        self.reap_min_silence_ms = ms;
        self
    }

    /// Whether handles run the lease/heartbeat/reap protocol.
    pub const fn reaper_enabled(&self) -> bool {
        self.reap_patience > 0
    }

    /// Whether operations attempt the descriptor-free fast path first.
    pub const fn fast_path_enabled(&self) -> bool {
        self.max_fast_failures > 0
    }

    /// Short label used by the harness and benches ("base", "opt1", …).
    pub fn label(&self) -> &'static str {
        match (self.help, self.phase) {
            (HelpPolicy::ScanAll, PhasePolicy::MaxScan) => "base WF",
            (HelpPolicy::Cyclic { .. }, PhasePolicy::MaxScan) => "opt WF (1)",
            (HelpPolicy::ScanAll, PhasePolicy::AtomicCounter) => "opt WF (2)",
            (HelpPolicy::Cyclic { .. }, PhasePolicy::AtomicCounter) => "opt WF (1+2)",
            (HelpPolicy::RandomChunk { .. }, PhasePolicy::MaxScan) => "opt WF (rand)",
            (HelpPolicy::RandomChunk { .. }, PhasePolicy::AtomicCounter) => "opt WF (rand+2)",
        }
    }
}

impl Default for Config {
    /// Defaults to the best-performing variant, `opt WF (1+2)`.
    fn default() -> Self {
        Config::opt_both()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_series() {
        assert_eq!(Config::base().label(), "base WF");
        assert_eq!(Config::opt1().label(), "opt WF (1)");
        assert_eq!(Config::opt2().label(), "opt WF (2)");
        assert_eq!(Config::opt_both().label(), "opt WF (1+2)");
    }

    #[test]
    fn builders_compose() {
        let c = Config::base()
            .with_validation()
            .with_help(HelpPolicy::RandomChunk { chunk: 2 })
            .with_phase(PhasePolicy::AtomicCounter);
        assert!(c.validate_before_cas);
        assert_eq!(c.help, HelpPolicy::RandomChunk { chunk: 2 });
        assert_eq!(c.phase, PhasePolicy::AtomicCounter);
        assert_eq!(c.label(), "opt WF (rand+2)");
    }

    #[test]
    fn default_is_opt_both() {
        assert_eq!(Config::default(), Config::opt_both());
    }

    #[test]
    fn reaper_defaults_off_and_toggles() {
        assert!(!Config::default().reaper_enabled());
        assert!(!Config::base().reaper_enabled());
        assert!(!Config::fast().reaper_enabled());
        let r = Config::opt_both().with_reaper();
        assert!(r.reaper_enabled());
        assert_eq!(r.reap_patience, DEFAULT_REAP_PATIENCE);
        assert_eq!(
            r.label(),
            "opt WF (1+2)",
            "the reaper is orthogonal to the paper-series label"
        );
        assert_eq!(Config::base().with_reap_patience(3).reap_patience, 3);
        assert!(!Config::base().with_reap_patience(0).reaper_enabled());
    }

    #[test]
    fn reap_wall_floor_defaults_on_and_toggles() {
        assert_eq!(
            Config::default().reap_min_silence_ms,
            DEFAULT_REAP_MIN_SILENCE_MS,
            "the floor guards even explicitly-enabled reapers by default"
        );
        assert_eq!(
            Config::opt_both().with_reaper().reap_min_silence_ms,
            DEFAULT_REAP_MIN_SILENCE_MS
        );
        let c = Config::fast().with_reaper().with_reap_min_silence_ms(0);
        assert_eq!(c.reap_min_silence_ms, 0);
        assert_eq!(
            Config::base().with_reap_min_silence_ms(250).reap_min_silence_ms,
            250
        );
    }

    #[test]
    fn fast_path_defaults_off_and_toggles() {
        assert!(!Config::default().fast_path_enabled());
        assert!(!Config::base().fast_path_enabled());
        let f = Config::fast();
        assert!(f.fast_path_enabled());
        assert_eq!(f.max_fast_failures, DEFAULT_FAST_FAILURES);
        assert_eq!(
            f.label(),
            "opt WF (1+2)",
            "fast path is orthogonal to the paper-series label"
        );
        let c = Config::opt_both()
            .with_fast_path(3)
            .with_starvation_patience(7);
        assert_eq!(c.max_fast_failures, 3);
        assert_eq!(c.starvation_patience, 7);
        assert!(!Config::opt_both().with_fast_path(0).fast_path_enabled());
    }
}
