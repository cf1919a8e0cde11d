//! What every timed window shares: starting from the same process state,
//! the heap baseline, and the window's extent from the workers' stamps.

use std::time::Instant;

use crate::report::quantile;

/// Frees the epoch collector's deferred garbage left by earlier windows,
/// so that every window starts from the same live heap. Called with no
/// worker threads alive: the calling thread is then the only participant,
/// and each flush advances the epoch by one.
pub fn settle() {
    for _ in 0..4 {
        crossbeam_epoch::pin().flush();
    }
}

/// The live heap a window started from; the window's peak is reported
/// above it.
pub struct Heap {
    base: usize,
}

impl Heap {
    /// Call before constructing anything the window measures.
    pub fn base() -> Heap {
        Heap {
            base: alloc_track::live_bytes(),
        }
    }

    /// Call at the start of the timed window.
    pub fn open_window() {
        alloc_track::reset_peak();
    }

    /// Highest live heap since [`Heap::open_window`], above the base, in
    /// bytes.
    pub fn peak(&self) -> usize {
        alloc_track::peak_bytes().saturating_sub(self.base)
    }
}

/// One engine's or core's windows over a run. A traced run alternates
/// untraced and traced rounds: the untraced windows give the end-to-end
/// values, the traced ones the per-layer values.
pub struct Windows<R> {
    pub plain: Vec<R>,
    pub traced: Vec<R>,
}

impl<R> Default for Windows<R> {
    fn default() -> Self {
        Windows {
            plain: Vec::new(),
            traced: Vec::new(),
        }
    }
}

impl<R> Windows<R> {
    pub fn push(&mut self, r: R, traced: bool) {
        if traced {
            self.traced.push(r)
        } else {
            self.plain.push(r)
        }
    }

    pub fn all(&self) -> impl Iterator<Item = &R> {
        self.plain.iter().chain(&self.traced)
    }
}

fn values<R>(reps: &[R], f: impl Fn(&R) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// A speed over windows: the upper quartile of the per-window values,
/// that is the windows least disturbed by other tenants of the host. A
/// change in the code moves every window, these included.
pub fn speed<R>(reps: &[R], f: impl Fn(&R) -> f64) -> f64 {
    quantile(&values(reps, f), 0.75)
}

/// A latency over windows: the lower quartile of the per-window values,
/// for the same reason as [`speed`].
pub fn latency<R>(reps: &[R], f: impl Fn(&R) -> f64) -> f64 {
    quantile(&values(reps, f), 0.25)
}

pub fn med<R>(reps: &[R], f: impl Fn(&R) -> f64) -> f64 {
    quantile(&values(reps, f), 0.5)
}

pub fn sum<R>(reps: &[R], f: impl Fn(&R) -> f64) -> f64 {
    reps.iter().map(f).sum()
}

/// A window's extent: from the first worker's post-barrier start to the
/// last worker's end, each stamped by the worker itself.
#[derive(Default)]
pub struct Extent {
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Extent {
    pub fn add(&mut self, start: Instant, end: Instant) {
        self.first = Some(self.first.map_or(start, |f| f.min(start)));
        self.last = Some(self.last.map_or(end, |l| l.max(end)));
    }

    pub fn secs(&self) -> f64 {
        match (self.first, self.last) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
            _ => 0.0,
        }
    }
}
