//! What `stream` and `bursty` share: the three channel cores they run
//! over, and counter deltas from `health_snapshot()`.

use kp_channel::{Channel, ChannelConfig, HealthSnapshot};
use kp_queue::{Config, WfQueue, WfQueueHp};
use queue_traits::ConcurrentQueue;
use wcq::WcQueue;

/// wCQ shard capacity: far above any backlog either workload allows, so
/// the bounded core never reports full.
const WCQ_SHARD_CAPACITY: usize = 1 << 16;

/// A channel core: `Channel::kp` (what a user gets by default), the same
/// channel over the hazard-pointer engine, and `Channel::wcq`.
pub trait Core: ConcurrentQueue<u64> + Sized {
    fn channel(cfg: ChannelConfig) -> Channel<u64, Self>;
}

impl Core for WfQueue<u64> {
    fn channel(cfg: ChannelConfig) -> Channel<u64, Self> {
        Channel::kp(cfg)
    }
}

impl Core for WfQueueHp<u64> {
    fn channel(cfg: ChannelConfig) -> Channel<u64, Self> {
        Channel::with_factory(cfg, |s| WfQueueHp::with_config(s.threads, Config::fast()))
    }
}

impl Core for WcQueue<u64> {
    fn channel(cfg: ChannelConfig) -> Channel<u64, Self> {
        Channel::wcq(cfg, WCQ_SHARD_CAPACITY)
    }
}

/// Park and overload counters over a window.
#[derive(Default, Clone, Copy)]
pub struct Health {
    pub rx_parks: u64,
    pub rx_wakes: u64,
    pub tx_parks: u64,
    pub quarantines: u64,
    pub probes: u64,
}

impl Health {
    pub fn of(s: &HealthSnapshot) -> Health {
        Health {
            rx_parks: s.rx_parks,
            rx_wakes: s.rx_wakes,
            tx_parks: s.shards.iter().map(|x| x.tx_parks).sum(),
            quarantines: s.shards.iter().map(|x| x.quarantines).sum(),
            probes: s.shards.iter().map(|x| x.probes).sum(),
        }
    }

    /// `later - self`.
    pub fn until(&self, later: &Health) -> Health {
        Health {
            rx_parks: later.rx_parks - self.rx_parks,
            rx_wakes: later.rx_wakes - self.rx_wakes,
            tx_parks: later.tx_parks - self.tx_parks,
            quarantines: later.quarantines - self.quarantines,
            probes: later.probes - self.probes,
        }
    }

    pub fn add(&mut self, o: &Health) {
        self.rx_parks += o.rx_parks;
        self.rx_wakes += o.rx_wakes;
        self.tx_parks += o.tx_parks;
        self.quarantines += o.quarantines;
        self.probes += o.probes;
    }
}
