//! Overload control: admission quotas and the shard-health watchdog
//! (DESIGN.md §16).
//!
//! Three cooperating mechanisms, all off by default:
//!
//! - **Admission quotas** convert sends into `Full` backpressure before
//!   an *unbounded* engine melts: a soft depth quota checked against
//!   the engine's counter-derived [`depth_hint`], and a pressure quota
//!   checked against the per-tick growth of the engine's
//!   [`pressure_hint`] (the PR-6 `cache_overflows` signal). Bounded
//!   engines already refuse at capacity; quotas compose with that.
//! - The **shard-health watchdog** runs the reaper's freeze-oracle
//!   pattern at channel granularity: a shard that looks overloaded
//!   becomes *Suspect*; if its drain counter then fails to advance for
//!   `stall_ticks` consecutive ticks *and* `min_stall` of wall time
//!   (both must pass — ticks alone are too fast under scheduler noise,
//!   wall time alone too slow under load), it is *Quarantined*.
//! - **Quarantine** refuses the shard's sends under the configured
//!   [`QuarantinePolicy`], letting one paced *probe* send through per
//!   `probe_interval` so a recovered consumer shows up as drain
//!   progress; progress plus a sub-quota depth re-admits the shard.
//!
//! The gauges are *advisory* — monotonic relaxed counters, exact only
//! at quiescence — so nothing here may carry a liveness obligation on
//! its own: every refusal path in the sender pairs a gauge decision
//! with a bounded re-poll (`park_timeout`), never an unbounded park.
//! The watchdog itself needs no thread: send/receive paths tick it
//! through a stride counter, and ticks are claimed by CAS so one
//! thread at a time runs the state machine.
//!
//! [`depth_hint`]: queue_traits::ConcurrentQueue::depth_hint
//! [`pressure_hint`]: queue_traits::ConcurrentQueue::pressure_hint

use kp_sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// What a quarantined shard does with the sends routed to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuarantinePolicy {
    /// Refuse the send (`Full`): the producer blocks or sheds load,
    /// and FIFO-per-producer is preserved — a producer's values never
    /// take a detour around its earlier ones. The default.
    #[default]
    Backpressure,
    /// Route the send to the next healthy shard instead. Keeps
    /// producers moving while one consumer is wedged, **but breaks
    /// FIFO-per-producer across the reroute boundary**: values sent
    /// after the reroute can be received before values parked in the
    /// quarantined shard. Opt in only when ordering does not matter.
    Reroute,
}

/// Knobs for the overload subsystem. [`OverloadConfig::disabled`] (the
/// default) compiles the whole thing down to one branch per send.
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Soft cap on a shard's resident values; a send finding the depth
    /// gauge above it is refused `Full`. `None` disables depth
    /// admission. Meaningful for unbounded engines; engines without a
    /// depth gauge ignore it.
    pub depth_quota: Option<usize>,
    /// Cap on a shard's *per-tick growth* of the memory-pressure
    /// signal (engine cache/pool overflow events). Growth is compared
    /// per watchdog tick, so the signal recovers when pressure stops —
    /// the raw counter is monotonic and would latch forever. `None`
    /// disables pressure admission.
    pub pressure_quota: Option<u64>,
    /// What quarantined shards do with sends. Ignored while the
    /// watchdog is off.
    pub policy: QuarantinePolicy,
    /// Enables the shard-health watchdog (Suspect → Quarantine
    /// transitions). Without it, quotas still apply but shards are
    /// never quarantined.
    pub watchdog: bool,
    /// Consecutive no-drain-progress ticks before a Suspect shard is
    /// quarantined (the freeze oracle's patience).
    pub stall_ticks: u32,
    /// Wall-clock floor on the same transition: Suspect for at least
    /// this long, regardless of how fast ticks fire.
    pub min_stall: Duration,
    /// Target spacing of watchdog ticks. Ticks are claimed oppor-
    /// tunistically from send/receive paths, so this is a floor, not a
    /// schedule: an idle channel ticks late or never (and an idle
    /// shard cannot be quarantined — nothing is being refused).
    pub tick_interval: Duration,
    /// Spacing of probe sends admitted into a quarantined shard, and
    /// the re-poll bound for senders parked on an advisory-gauge
    /// refusal.
    pub probe_interval: Duration,
}

impl OverloadConfig {
    /// Everything off: no quotas, no watchdog, zero per-send cost
    /// beyond one branch.
    pub fn disabled() -> Self {
        OverloadConfig {
            depth_quota: None,
            pressure_quota: None,
            policy: QuarantinePolicy::Backpressure,
            watchdog: false,
            stall_ticks: 4,
            min_stall: Duration::from_millis(20),
            tick_interval: Duration::from_millis(5),
            probe_interval: Duration::from_millis(10),
        }
    }

    /// Sets the depth quota (see [`depth_quota`](Self::depth_quota)).
    pub fn with_depth_quota(mut self, quota: usize) -> Self {
        assert!(quota >= 1, "a zero quota would refuse every send");
        self.depth_quota = Some(quota);
        self
    }

    /// Sets the pressure quota (per-tick overflow-event growth).
    pub fn with_pressure_quota(mut self, quota: u64) -> Self {
        self.pressure_quota = Some(quota);
        self
    }

    /// Sets the quarantine policy.
    pub fn with_policy(mut self, policy: QuarantinePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables the watchdog with the given freeze-oracle patience.
    pub fn with_watchdog(mut self, stall_ticks: u32, min_stall: Duration) -> Self {
        assert!(stall_ticks >= 1, "patience of zero would quarantine on first sight");
        self.watchdog = true;
        self.stall_ticks = stall_ticks;
        self.min_stall = min_stall;
        self
    }

    /// Sets the watchdog tick spacing.
    pub fn with_tick_interval(mut self, interval: Duration) -> Self {
        self.tick_interval = interval;
        self
    }

    /// Sets the probe-send spacing / refusal re-poll bound.
    pub fn with_probe_interval(mut self, interval: Duration) -> Self {
        assert!(interval > Duration::ZERO, "probes need a nonzero pace");
        self.probe_interval = interval;
        self
    }

    /// Whether any mechanism is on (the one branch the disabled
    /// configuration pays).
    pub(crate) fn enabled(&self) -> bool {
        self.depth_quota.is_some() || self.pressure_quota.is_some() || self.watchdog
    }
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig::disabled()
    }
}

/// A shard's position in the watchdog state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Accepting sends normally.
    Healthy,
    /// Looked overloaded at a tick; the freeze oracle is counting
    /// no-progress ticks. Still accepting sends.
    Suspect,
    /// Confirmed stalled: sends are refused (or rerouted) except for
    /// paced probes.
    Quarantined,
}

const ST_HEALTHY: u8 = 0;
const ST_SUSPECT: u8 = 1;
const ST_QUARANTINED: u8 = 2;

fn decode(st: u8) -> HealthState {
    match st {
        ST_HEALTHY => HealthState::Healthy,
        ST_SUSPECT => HealthState::Suspect,
        _ => HealthState::Quarantined,
    }
}

/// One tick's worth of engine gauges for a shard, read by the tick
/// claimant and handed to [`ShardHealth::observe`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gauges {
    pub(crate) depth: Option<usize>,
    pub(crate) capacity: Option<usize>,
    pub(crate) drained: Option<u64>,
    pub(crate) pressure: u64,
}

/// State-machine events the channel layer reacts to (chaos sites,
/// waking parked senders).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HealthEvent {
    Quarantined,
    Readmitted,
}

/// Per-shard watchdog state. All fields are atomics because senders
/// read the state (and CAS re-admission) concurrently with the tick
/// claimant; orderings are Acquire/Release on `state` — the gauges it
/// summarizes are advisory, so the state word itself is the only
/// cross-thread handoff — and Relaxed on the pure statistics.
pub(crate) struct ShardHealth {
    state: AtomicU8,
    /// `1` while the last tick saw pressure growth over quota; senders
    /// read it instead of recomputing the delta (which would race the
    /// tick claimant's `prev_pressure` swap).
    hot: AtomicU8,
    /// Pressure reading at the previous tick (delta base).
    prev_pressure: AtomicU64,
    /// Drain counter at suspicion time: the freeze-oracle baseline.
    baseline_drained: AtomicU64,
    /// Consecutive no-progress ticks while Suspect.
    stall_ticks: AtomicU32,
    /// Wall clock (channel-epoch ms) when suspicion started.
    suspect_since_ms: AtomicU64,
    /// Wall clock of the last probe admitted into quarantine; claimed
    /// by CAS so probes stay paced under sender contention.
    last_probe_ms: AtomicU64,
    /// Statistics: times quarantined / probes admitted.
    quarantines: AtomicU64,
    probes: AtomicU64,
}

impl ShardHealth {
    pub(crate) fn new() -> Self {
        ShardHealth {
            state: AtomicU8::new(ST_HEALTHY),
            hot: AtomicU8::new(0),
            prev_pressure: AtomicU64::new(0),
            baseline_drained: AtomicU64::new(0),
            stall_ticks: AtomicU32::new(0),
            suspect_since_ms: AtomicU64::new(0),
            last_probe_ms: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            probes: AtomicU64::new(0),
        }
    }

    pub(crate) fn state(&self) -> HealthState {
        // ord(helper-guard): watchdog-state read; Acquire pairs with the
        // Release transitions so a sender acting on Quarantined sees the
        // transition's bookkeeping (baseline, probe pacing)
        decode(self.state.load(Ordering::Acquire))
    }

    /// Whether the last tick flagged pressure growth over quota.
    pub(crate) fn pressure_hot(&self) -> bool {
        // ord(helper-guard): reads the tick claimant's pressure verdict;
        // Acquire pairs with observe's Release store -- senders must not
        // recompute the delta themselves (it would race the claimant's
        // prev_pressure swap)
        self.hot.load(Ordering::Acquire) != 0
    }

    pub(crate) fn quarantine_count(&self) -> u64 {
        // ord(stats): quarantine-counter snapshot; Relaxed pairs with the
        // Relaxed bump
        self.quarantines.load(Ordering::Relaxed)
    }

    pub(crate) fn probe_count(&self) -> u64 {
        // ord(stats): probe-counter snapshot; Relaxed pairs with the Relaxed
        // bump
        self.probes.load(Ordering::Relaxed)
    }

    /// Does the shard *look* overloaded right now? True when depth
    /// exceeds the quota, the ring is at capacity, or the last tick
    /// flagged pressure. With no gauge and no flag: healthy.
    fn overloaded(&self, g: &Gauges, cfg: &OverloadConfig) -> bool {
        if self.pressure_hot() {
            return true;
        }
        let Some(depth) = g.depth else { return false };
        if cfg.depth_quota.is_some_and(|q| depth > q) {
            return true;
        }
        g.capacity.is_some_and(|c| depth >= c)
    }

    /// One watchdog tick for this shard. Called by the single tick
    /// claimant; the only concurrent mutation is the inline
    /// re-admission CAS in [`try_readmit`](Self::try_readmit), which
    /// the Quarantined branch's own CAS arbitrates against.
    pub(crate) fn observe(
        &self,
        now_ms: u64,
        g: &Gauges,
        cfg: &OverloadConfig,
    ) -> Option<HealthEvent> {
        if let Some(quota) = cfg.pressure_quota {
            // ord(helper-guard): per-tick pressure delta base: swap installs
            // this tick's reading and returns the last; single tick claimant,
            // so Relaxed suffices -- readers take the verdict from `hot`, never
            // from this word
            let prev = self.prev_pressure.swap(g.pressure, Ordering::Relaxed);
            let grew = g.pressure.saturating_sub(prev) > quota;
            // ord(helper-guard): publishes the pressure verdict; Release so a
            // sender's Acquire read observes a coherent flag
            self.hot.store(grew as u8, Ordering::Release);
        }
        if !cfg.watchdog {
            return None;
        }
        match self.state() {
            HealthState::Healthy => {
                // Suspicion needs a drain gauge to baseline against;
                // without one the oracle cannot run.
                if let (true, Some(drained)) = (self.overloaded(g, cfg), g.drained) {
                    // ord(helper-guard): freeze-oracle baseline: drain counter
                    // at suspicion time; Relaxed -- only the tick claimant and
                    // the inline re-admission read it, both advisory
                    self.baseline_drained.store(drained, Ordering::Relaxed);
                    // ord(helper-guard): no-progress tick counter reset;
                    // tick-claimant-private between ticks
                    self.stall_ticks.store(0, Ordering::Relaxed);
                    // ord(helper-guard): suspicion wall-clock stamp for the
                    // min_stall floor; tick-claimant-private
                    self.suspect_since_ms.store(now_ms, Ordering::Relaxed);
                    // ord(helper-guard): Healthy -> Suspect; Release publishes
                    // the baseline/stamp stores above to a future claimant's
                    // Acquire state read
                    self.state.store(ST_SUSPECT, Ordering::Release);
                }
                None
            }
            HealthState::Suspect => {
                let progressed = g
                    .drained
                    // ord(helper-guard): baseline read for the progress check;
                    // Relaxed, advisory gauge comparison
                    .is_some_and(|d| d > self.baseline_drained.load(Ordering::Relaxed));
                if progressed || !self.overloaded(g, cfg) {
                    // ord(helper-guard): Suspect -> Healthy (drain progressed
                    // or load receded); Release for symmetry with the other
                    // transitions
                    self.state.store(ST_HEALTHY, Ordering::Release);
                    return None;
                }
                // ord(helper-guard): counts a no-progress tick toward the
                // stall_ticks patience; tick-claimant-private between ticks
                let ticks = self.stall_ticks.fetch_add(1, Ordering::Relaxed) + 1;
                // ord(helper-guard): suspicion stamp read for the wall-clock
                // floor; tick-claimant-private
                let stalled_ms = now_ms.saturating_sub(self.suspect_since_ms.load(Ordering::Relaxed));
                if ticks >= cfg.stall_ticks && stalled_ms >= cfg.min_stall.as_millis() as u64 {
                    // ord(stats): times-quarantined counter; no synchronization
                    // intent
                    self.quarantines.fetch_add(1, Ordering::Relaxed);
                    // Pace the first probe a full interval out: the
                    // shard was *just* observed stalled.
                    // ord(helper-guard): paces the first probe a full interval
                    // out from the quarantine instant; claimed later by CAS in
                    // claim_probe
                    self.last_probe_ms.store(now_ms, Ordering::Relaxed);
                    // ord(helper-guard): Suspect -> Quarantined; Release
                    // publishes the probe pacing and counters to senders'
                    // Acquire state reads
                    self.state.store(ST_QUARANTINED, Ordering::Release);
                    return Some(HealthEvent::Quarantined);
                }
                None
            }
            HealthState::Quarantined => self.try_readmit(g, cfg),
        }
    }

    /// Re-admission check: drain progressed past the quarantine-time
    /// baseline *and* the shard no longer looks overloaded. Runs at
    /// ticks and inline on refused sends (promptness: a recovered
    /// consumer re-admits at the next refusal, not the next tick).
    pub(crate) fn try_readmit(&self, g: &Gauges, cfg: &OverloadConfig) -> Option<HealthEvent> {
        let progressed = g
            .drained
            // ord(helper-guard): baseline read for the re-admission progress
            // check; Relaxed, advisory gauge comparison
            .is_some_and(|d| d > self.baseline_drained.load(Ordering::Relaxed));
        if progressed
            && !self.overloaded(g, cfg)
            && self
                .state
                // ord(helper-guard): Quarantined -> Healthy re-admission CAS,
                // raced by the tick claimant and every refused sender (inline
                // promptness); a CAS so exactly one winner reports the
                // Readmitted event (and wakes the shard's parked senders);
                // AcqRel publishes the winner's view, failure Acquire only
                // observes the state
                .compare_exchange(
                    ST_QUARANTINED,
                    ST_HEALTHY,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
        {
            return Some(HealthEvent::Readmitted);
        }
        None
    }

    /// Claims the next paced probe slot, if due. The winning sender's
    /// value is admitted into the quarantined shard so a recovered
    /// consumer can prove itself by draining it.
    pub(crate) fn claim_probe(&self, now_ms: u64, cfg: &OverloadConfig) -> bool {
        // ord(helper-guard): probe-due probe; Relaxed -- staleness only delays
        // a probe
        let last = self.last_probe_ms.load(Ordering::Relaxed);
        if now_ms.saturating_sub(last) < cfg.probe_interval.as_millis() as u64 {
            return false;
        }
        let won = self
            .last_probe_ms
            // ord(helper-guard): elects one paced probe per interval among
            // refused senders; Relaxed is sound -- the admitted value travels
            // through the engine's own synchronization, this CAS only rations
            // the slots
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok();
        if won {
            // ord(stats): probes-admitted counter; no synchronization intent
            self.probes.fetch_add(1, Ordering::Relaxed);
        }
        won
    }
}

/// Operator-facing point-in-time view of one shard (see
/// [`HealthSnapshot`]).
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Watchdog state.
    pub state: HealthState,
    /// Resident-value gauge, `None` when the engine cannot say.
    pub depth: Option<usize>,
    /// Fixed capacity, `None` for unbounded engines.
    pub capacity: Option<usize>,
    /// Monotonic drained-value count, `None` when untracked.
    pub drained: Option<u64>,
    /// Monotonic memory-pressure events.
    pub pressure: u64,
    /// Times this shard has been quarantined.
    pub quarantines: u64,
    /// Probe sends admitted while quarantined.
    pub probes: u64,
    /// Senders currently parked waiting for this shard.
    pub tx_sleepers: usize,
    /// Total sender parks / wake tokens on this shard.
    pub tx_parks: u64,
    /// Total sender wakes on this shard.
    pub tx_wakes: u64,
}

/// Operator-facing point-in-time view of the channel's overload state:
/// per-shard gauges and quarantine status plus the receiver-side
/// parking counters. All numbers are advisory (relaxed reads of live
/// counters) — a monitoring surface, not a synchronization one.
#[derive(Debug, Clone)]
pub struct HealthSnapshot {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// Receivers currently parked.
    pub rx_sleepers: usize,
    /// Total receiver parks.
    pub rx_parks: u64,
    /// Total receiver wake tokens spent.
    pub rx_wakes: u64,
}

impl HealthSnapshot {
    /// Shards currently quarantined.
    pub fn quarantined(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.state == HealthState::Quarantined)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OverloadConfig {
        OverloadConfig::disabled()
            .with_depth_quota(100)
            .with_watchdog(3, Duration::from_millis(10))
    }

    fn g(depth: usize, drained: u64) -> Gauges {
        Gauges { depth: Some(depth), capacity: None, drained: Some(drained), pressure: 0 }
    }

    #[test]
    fn healthy_shard_stays_healthy_under_quota() {
        let h = ShardHealth::new();
        let c = cfg();
        for t in 0..10 {
            assert_eq!(h.observe(t * 5, &g(50, t * 7), &c), None);
            assert_eq!(h.state(), HealthState::Healthy);
        }
    }

    #[test]
    fn freeze_oracle_needs_ticks_and_wall_time() {
        let h = ShardHealth::new();
        let c = cfg();
        // Over quota, no drain progress: Suspect at tick 0.
        assert_eq!(h.observe(0, &g(150, 40), &c), None);
        assert_eq!(h.state(), HealthState::Suspect);
        // Three fast ticks satisfy the tick patience but not the
        // 10 ms wall floor.
        for t in 1..=3 {
            assert_eq!(h.observe(t, &g(150, 40), &c), None);
        }
        assert_eq!(h.state(), HealthState::Suspect, "wall floor must hold the oracle");
        // A tick past the wall floor confirms.
        assert_eq!(h.observe(12, &g(150, 40), &c), Some(HealthEvent::Quarantined));
        assert_eq!(h.state(), HealthState::Quarantined);
    }

    #[test]
    fn drain_progress_clears_suspicion() {
        let h = ShardHealth::new();
        let c = cfg();
        h.observe(0, &g(150, 40), &c);
        assert_eq!(h.state(), HealthState::Suspect);
        // Consumer moved: back to Healthy even though still over quota.
        h.observe(5, &g(150, 41), &c);
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn quarantine_readmits_on_progress_under_quota() {
        let h = ShardHealth::new();
        let c = cfg();
        h.observe(0, &g(150, 40), &c);
        for t in [5, 10, 15] {
            h.observe(t, &g(150, 40), &c);
        }
        assert_eq!(h.state(), HealthState::Quarantined);
        // Progress alone is not enough while still over quota...
        assert_eq!(h.try_readmit(&g(150, 60), &c), None);
        assert_eq!(h.state(), HealthState::Quarantined);
        // ...progress plus sub-quota depth re-admits (inline path).
        assert_eq!(h.try_readmit(&g(20, 90), &c), Some(HealthEvent::Readmitted));
        assert_eq!(h.state(), HealthState::Healthy);
        assert_eq!(h.quarantine_count(), 1);
    }

    #[test]
    fn probes_are_paced() {
        let h = ShardHealth::new();
        let c = cfg().with_probe_interval(Duration::from_millis(10));
        h.observe(0, &g(150, 40), &c);
        for t in [5, 10, 15] {
            h.observe(t, &g(150, 40), &c);
        }
        assert_eq!(h.state(), HealthState::Quarantined);
        // Quarantined at t=15; the first probe is due an interval later.
        assert!(!h.claim_probe(20, &c));
        assert!(h.claim_probe(26, &c));
        assert!(!h.claim_probe(27, &c), "second claim in the window must lose");
        assert!(h.claim_probe(40, &c));
        assert_eq!(h.probe_count(), 2);
    }

    #[test]
    fn pressure_quota_is_per_tick_growth() {
        let h = ShardHealth::new();
        let c = OverloadConfig::disabled()
            .with_pressure_quota(10)
            .with_watchdog(2, Duration::from_millis(0));
        let gp = |drained: u64, pressure: u64| Gauges {
            depth: Some(0),
            capacity: None,
            drained: Some(drained),
            pressure,
        };
        // First tick absorbs the baseline jump (prev starts at 0), so
        // a large absolute count alone flags once, then recovers.
        h.observe(0, &gp(0, 500), &c);
        assert!(h.pressure_hot(), "delta 500 > 10");
        h.observe(5, &gp(0, 502), &c);
        assert!(!h.pressure_hot(), "delta 2 <= 10: monotonic counter must not latch");
    }

    #[test]
    fn no_drain_gauge_means_no_quarantine() {
        // An engine without a drain gauge: drained is None — the oracle
        // cannot baseline, so it must refuse to suspect at all.
        let h = ShardHealth::new();
        let c = cfg();
        let blind = Gauges { depth: Some(1_000), capacity: None, drained: None, pressure: 0 };
        for t in 0..20 {
            assert_eq!(h.observe(t * 10, &blind, &c), None);
        }
        assert_eq!(h.state(), HealthState::Healthy);
    }
}
