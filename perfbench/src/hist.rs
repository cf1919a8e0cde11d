//! A fixed-footprint log-linear histogram for nanosecond samples.
//!
//! Each octave is split into `SUB` linear sub-buckets (relative bucket
//! width under 1%). Quantiles interpolate linearly inside the bucket the
//! rank falls in, so a reported percentile moves continuously with the
//! data instead of snapping to a bucket edge. `record` allocates nothing.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const OCTAVES: usize = 64 - SUB_BITS as usize;
const BUCKETS: usize = 2 * SUB + (OCTAVES - 1) * SUB;

pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

#[inline]
fn index_of(v: u64) -> usize {
    if v < (2 * SUB) as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB - 1);
    SUB + octave * SUB + sub
}

/// Smallest value mapping to bucket `index`, and the bucket's width.
fn bucket_span(index: usize) -> (u64, u64) {
    if index < 2 * SUB {
        return (index as u64, 1);
    }
    let octave = (index - SUB) / SUB;
    let sub = (index - SUB) % SUB;
    let base = 1u64 << (octave + SUB_BITS as usize);
    let width = base >> SUB_BITS;
    (base + sub as u64 * width, width)
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.max = 0;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (0 < q < 1), interpolated inside its bucket; 0.0
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (lo, width) = bucket_span(i);
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return (lo as f64 + frac * width as f64).min(self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }

    /// Samples strictly beyond the `q`-quantile's rank.
    pub fn beyond(&self, q: f64) -> u64 {
        self.total - ((q * self.total as f64).ceil() as u64).min(self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for v in [
            0u64,
            1,
            255,
            256,
            257,
            1000,
            123_456,
            9_876_543_210,
            u64::MAX,
        ] {
            let (lo, width) = bucket_span(index_of(v));
            assert!(
                lo <= v && v - lo < width,
                "{v} outside bucket [{lo}, +{width})"
            );
        }
    }

    #[test]
    fn quantiles_track_uniform_data() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.01, "p50 {p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.01, "p99 {p99}");
        assert_eq!(h.beyond(0.99), 1_000);
    }
}
