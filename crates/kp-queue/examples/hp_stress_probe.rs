//! Diagnostic probe for the hazard-pointer queue under oversubscription:
//! runs the contention workload while a sampler prints the queue's
//! helping counters, so a stall's location can be read off which
//! counters stop moving. Exits nonzero on stall. (Kept as an example so
//! the probe ships with the crate; it doubles as a soak test.)

use kp_sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use kp_queue::{Config, ConcurrentQueue, WfQueueHp};

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let iters: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let rounds: usize = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);

    for round in 0..rounds {
        let q: WfQueueHp<u64> = WfQueueHp::with_config(threads, Config::base());
        let done = AtomicUsize::new(0);
        let progress: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let q = &q;
                let done = &done;
                let progress = &progress;
                s.spawn(move || {
                    let mut h = q.register().unwrap();
                    for i in 0..iters {
                        h.enqueue(i as u64);
                        h.dequeue();
                        // ord(stats): stress-probe progress reporting
                        progress[t].store(i, Ordering::Relaxed);
                    }
                    // ord(stats): stress-probe progress reporting
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Watchdog: declare a stall if no global progress for 5s.
            let mut last: Vec<usize> = vec![0; threads];
            let mut last_change = Instant::now();
            loop {
                std::thread::sleep(Duration::from_millis(500));
                // ord(stats): stress-probe progress reporting
                if done.load(Ordering::Relaxed) == threads {
                    return;
                }
                let now: Vec<usize> =
                    // ord(stats): stress-probe progress reporting
                    progress.iter().map(|p| p.load(Ordering::Relaxed)).collect();
                if now != last {
                    last = now;
                    last_change = Instant::now();
                } else if last_change.elapsed() > Duration::from_secs(5) {
                    eprintln!(
                        "STALL in round {round} after {:?}: per-thread progress {last:?}, stats {:?}",
                        start.elapsed(),
                        q.stats()
                    );
                    // Exit from inside the scope: joining the stuck
                    // workers would hang the probe itself.
                    std::process::exit(1);
                }
            }
        });
        println!(
            "round {round}: ok in {:?} (helped: {} appends, {} locks)",
            start.elapsed(),
            q.stats().helped_appends,
            q.stats().helped_locks
        );
    }
    println!("no stall detected");
}
