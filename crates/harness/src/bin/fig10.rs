//! Figure 10: live-space overhead of the wait-free queues relative to
//! the lock-free one, as a function of the initial queue size.
//!
//! The paper pre-fills queues with 1..10^7 elements (decade steps),
//! runs the pairs benchmark with 8 threads while sampling the live
//! heap, and plots `WF / LF`. Small queues show a ratio near 1 (the
//! heap is dominated by non-queue objects); large queues converge to
//! ~1.5× because every wait-free node carries the extra
//! `enqTid`/`deqTid` fields. Here the asymptote is whatever the node
//! layouts cost, alignment included, so the binary reports it as the
//! measured bytes per element at the largest size.
//!
//! This binary installs the `alloc-track` counting allocator — the
//! stand-in for the JVM's `-verbose:gc` live-set reports.

use std::path::Path;

use harness::args::{Args, BenchArgs};
use harness::report::{render_table, write_csv, Series};
use harness::space::measure_live;
use harness::Variant;
use kp_queue::WfQueue;
use ms_queue::MsQueue;

#[global_allocator]
static ALLOC: alloc_track::TrackingAlloc = alloc_track::TrackingAlloc;

fn main() {
    let args = Args::from_env();
    let bench = BenchArgs::parse(&args);
    // The paper sweeps to 10^7; default to 10^6 so the default run fits
    // small machines, with --max-size restoring paper scale.
    let max_size: usize = args.get_or("max-size", 1_000_000);
    if max_size == 0 {
        harness::args::bad_value_exit("max-size", "0", "expected at least 1");
    }
    let threads: usize = args.get_or("threads", 8);
    let iters = bench.iters.min(20_000);
    let samples: usize = args.get_or("samples", 9); // paper: nine GC samples

    println!(
        "Figure 10: space overhead | threads = {threads}, iters = {iters}, samples/run = {samples}"
    );

    let mut sizes = Vec::new();
    let mut s = 1usize;
    while s <= max_size {
        sizes.push(s);
        s *= 10;
    }

    let mut ratio_base = Series::new("base WF / LF");
    let mut ratio_opt = Series::new("opt WF (1+2) / LF");
    let mut abs_lf = Series::new("LF bytes");
    let mut abs_base = Series::new("base WF bytes");
    let mut abs_opt = Series::new("opt WF (1+2) bytes");

    for &size in &sizes {
        let lf = measure_live(MsQueue::<u64>::new, size, threads, iters, samples);
        let base_cfg = Variant::WfBase.wf_config().unwrap();
        let opt_cfg = Variant::WfOptBoth.wf_config().unwrap();
        let base = measure_live(
            || WfQueue::<u64>::with_config(threads + 1, base_cfg),
            size,
            threads,
            iters,
            samples,
        );
        let opt = measure_live(
            || WfQueue::<u64>::with_config(threads + 1, opt_cfg),
            size,
            threads,
            iters,
            samples,
        );
        let lf_bytes = lf.live_bytes.max(1.0);
        ratio_base.push(size, base.live_bytes / lf_bytes);
        ratio_opt.push(size, opt.live_bytes / lf_bytes);
        abs_lf.push(size, lf.live_bytes);
        abs_base.push(size, base.live_bytes);
        abs_opt.push(size, opt.live_bytes);
    }

    let ratios = [ratio_base, ratio_opt];
    print!(
        "{}",
        render_table("Fig 10 — live space ratio vs initial size", "size", "ratio", &ratios)
    );
    let absolutes = [abs_lf, abs_base, abs_opt];
    print!(
        "{}",
        render_table("Fig 10 (aux) — live bytes", "size", "bytes", &absolutes)
    );
    // The asymptote: resident bytes per element at the largest size.
    let largest = *sizes.last().expect("max-size >= 1 gives one size");
    let [lf, base, opt] = absolutes
        .each_ref()
        .map(|s| s.at(largest).expect("every series has every size") / largest as f64);
    println!(
        "measured bytes/element at size {largest}: LF = {lf:.1} B, base WF = {base:.1} B, \
         opt WF (1+2) = {opt:.1} B; ratio = {:.3} (base), {:.3} (opt)",
        base / lf,
        opt / lf
    );

    let path = Path::new(&bench.out_dir).join("fig10.csv");
    write_csv(&path, "size", &ratios).expect("write CSV");
    let path_abs = Path::new(&bench.out_dir).join("fig10_bytes.csv");
    write_csv(&path_abs, "size", &absolutes).expect("write CSV");
    println!("-> {}\n-> {}", path.display(), path_abs.display());
}
