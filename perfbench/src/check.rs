//! The correctness check every workload runs: each payload carries its
//! producer id and a per-producer sequence number, and the check proves
//! exactly-once delivery and FIFO order per producer.
//!
//! A consumer keeps, per producer, the last sequence number it saw (FIFO:
//! each must exceed the previous one), a count, and an order-independent
//! digest (a wrapping sum of a mixing hash). Across consumers, exactly-once
//! holds when each producer's counts sum to what it sent and the digests
//! sum to the digest of `0..sent`; a lost value masked by a duplicate
//! still changes the digest. The hot path is a few integer operations on
//! consumer-local state, so it perturbs no shared cache line.

const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// The payload for `producer`'s `seq`-th value.
#[inline]
pub fn tag(producer: usize, seq: u64) -> u64 {
    ((producer as u64) << SEQ_BITS) | seq
}

/// The sequence number a payload carries.
#[inline]
pub fn seq(v: u64) -> u64 {
    v & SEQ_MASK
}

#[inline]
fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one consumer received.
#[derive(Clone)]
pub struct Seen {
    last: Vec<Option<u64>>,
    count: Vec<u64>,
    digest: Vec<u64>,
    reordered: u64,
    foreign: u64,
}

impl Seen {
    pub fn new(producers: usize) -> Seen {
        Seen {
            last: vec![None; producers],
            count: vec![0; producers],
            digest: vec![0; producers],
            reordered: 0,
            foreign: 0,
        }
    }

    #[inline]
    pub fn observe(&mut self, v: u64) {
        let p = (v >> SEQ_BITS) as usize;
        let seq = seq(v);
        if p >= self.last.len() {
            self.foreign += 1;
            return;
        }
        if self.last[p].is_some_and(|prev| seq <= prev) {
            self.reordered += 1;
        }
        self.last[p] = Some(seq);
        self.count[p] += 1;
        self.digest[p] = self.digest[p].wrapping_add(mix(v));
    }
}

/// Violations found by [`verify`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub lost: u64,
    pub duplicated: u64,
    pub reordered: u64,
}

impl Verdict {
    pub fn errors(&self) -> u64 {
        self.lost + self.duplicated + self.reordered
    }

    pub fn add(&mut self, other: Verdict) {
        self.lost += other.lost;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
    }
}

/// Checks what the consumers saw against `sent[p]`, the number of values
/// producer `p` sent (sequence numbers `0..sent[p]`).
pub fn verify(sent: &[u64], seen: &[Seen]) -> Verdict {
    let mut v = Verdict::default();
    for s in seen {
        v.reordered += s.reordered;
        v.duplicated += s.foreign;
    }
    for (p, &n) in sent.iter().enumerate() {
        let got: u64 = seen.iter().map(|s| s.count[p]).sum();
        let digest = seen.iter().fold(0u64, |d, s| d.wrapping_add(s.digest[p]));
        if got < n {
            v.lost += n - got;
        } else if got > n {
            v.duplicated += got - n;
        } else {
            let want = (0..n).fold(0u64, |d, seq| d.wrapping_add(mix(tag(p, seq))));
            if digest != want {
                // Equal counts with a different multiset: at least one
                // value went missing and another arrived twice.
                v.lost += 1;
                v.duplicated += 1;
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Producer 0 sends 0..10 and producer 1 sends 0..5; the consumers
    /// receive them interleaved, split across two consumers.
    fn deliver(stream: &[u64]) -> Verdict {
        let mut a = Seen::new(2);
        let mut b = Seen::new(2);
        for (i, &v) in stream.iter().enumerate() {
            if i % 3 == 0 {
                b.observe(v)
            } else {
                a.observe(v)
            }
        }
        verify(&[10, 5], &[a, b])
    }

    fn clean() -> Vec<u64> {
        let mut out = Vec::new();
        for seq in 0..10 {
            out.push(tag(0, seq));
            if seq < 5 {
                out.push(tag(1, seq));
            }
        }
        out
    }

    #[test]
    fn clean_delivery_passes() {
        assert_eq!(deliver(&clean()), Verdict::default());
    }

    #[test]
    fn catches_a_lost_message() {
        let mut s = clean();
        s.remove(4);
        let v = deliver(&s);
        assert_eq!(v.lost, 1);
        assert!(v.errors() >= 1);
    }

    #[test]
    fn catches_a_duplicated_message() {
        let mut s = clean();
        let dup = s[6];
        s.push(dup);
        let v = deliver(&s);
        assert!(v.duplicated >= 1, "{v:?}");
    }

    #[test]
    fn catches_a_reordered_message() {
        let mut a = Seen::new(1);
        for seq in [0, 2, 1, 3] {
            a.observe(tag(0, seq));
        }
        let v = verify(&[4], &[a]);
        assert_eq!(
            v,
            Verdict {
                lost: 0,
                duplicated: 0,
                reordered: 1
            }
        );
    }

    #[test]
    fn catches_a_loss_masked_by_a_duplicate() {
        let mut a = Seen::new(1);
        for seq in [0, 1, 2, 2] {
            a.observe(tag(0, seq));
        }
        // Count matches (4 sent, 4 received) but seq 3 never arrived.
        let v = verify(&[4], &[a]);
        assert!(v.lost >= 1 && v.duplicated >= 1, "{v:?}");
    }

    #[test]
    fn catches_a_value_from_an_unknown_producer() {
        let mut a = Seen::new(1);
        a.observe(tag(0, 0));
        a.observe(tag(7, 0));
        assert!(verify(&[1], &[a]).errors() >= 1);
    }
}
