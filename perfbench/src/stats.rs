//! Percentiles, medians, the run digest and the benchmark's input RNG.

/// Nearest-rank percentile: the smallest sample with at least `p` % of
/// the samples at or below it (`lc_load::percentile`, the repo's one
/// percentile helper). 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    lc_load::percentile(samples, p)
}

/// Median of `values` (nearest rank, so always one of the values).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// A percentile is reported only when at least 10 samples lie beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// Relative width of a [`LogHist`] bucket.
const GROWTH: f64 = 1.01;

/// Log-bucketed histogram of host latencies (ns): 1 % buckets, so
/// percentiles pooled over every call of a run take fixed memory and
/// are off by at most half a bucket.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
}

impl LogHist {
    /// Count one sample; bucket `i` ≥ 1 holds `[G^(i-1), G^i)`, bucket 0
    /// everything below 1.
    pub fn record(&mut self, v: f64) {
        let i = if v < 1.0 {
            0
        } else {
            (v.ln() / GROWTH.ln()) as usize + 1
        };
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Samples counted.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile, placed inside its bucket by the rank's
    /// position among the bucket's samples (0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        let rank = ((p / 100.0) * self.n as f64).ceil().max(1.0) as u64;
        let mut before = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if before + c >= rank && c > 0 {
                if i == 0 {
                    return 0.5;
                }
                let within = (rank - before) as f64 - 0.5;
                return GROWTH.powf(i as f64 - 1.0 + within / c as f64);
            }
            before += c;
        }
        0.0
    }
}

/// FNV-1a over every virtual-time output of a run: a speed-only change
/// to the program must leave it identical.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold in a word.
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold in a float by its bits.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The seed of input set `set` of workload seed `seed` (set 0 is the
/// seed itself).
pub fn sub_seed(seed: u64, set: usize) -> u64 {
    seed ^ (set as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// SplitMix64: the benchmark's input generator. Inputs are a pure
/// function of the workload seed; the program never sees the seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        // Hand-worked: n = 5, rank = ceil(p/100 * 5).
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), 15.0); // rank 1
        assert_eq!(percentile(&v, 30.0), 20.0); // rank 2
        assert_eq!(percentile(&v, 40.0), 20.0); // rank 2 exactly
        assert_eq!(percentile(&v, 50.0), 35.0); // rank 3
        assert_eq!(percentile(&v, 100.0), 50.0); // rank 5
                                                 // Unsorted input, n = 10: p90 is rank 9, p99 rank 10.
        let w = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0, 10.0];
        assert_eq!(percentile(&w, 90.0), 9.0);
        assert_eq!(percentile(&w, 99.0), 10.0);
        assert_eq!(median(&w), 5.0); // rank 5 of 10
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn log_hist_pools_within_a_bucket() {
        let mut a = LogHist::default();
        let mut b = LogHist::default();
        (1..=50).for_each(|v| a.record(f64::from(v) * 100.0));
        (51..=100).for_each(|v| b.record(f64::from(v) * 100.0));
        a.merge(&b);
        assert_eq!(a.len(), 100);
        // Nearest rank over 100..=10 000 step 100: p50 = 5 000, p99 = 9 900.
        assert!((a.percentile(50.0) / 5_000.0 - 1.0).abs() < 0.01);
        assert!((a.percentile(99.0) / 9_900.0 - 1.0).abs() < 0.01);
        assert_eq!(LogHist::default().percentile(50.0), 0.0);
    }

    #[test]
    fn percentile_support_needs_ten_beyond() {
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert!(supported(1_000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(supported(10_000, 99.9));
        assert!(!supported(9_999, 99.9));
    }

    #[test]
    fn rng_and_digest_are_pure() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(7, 2).next());
        let mut d = Digest::default();
        d.u64(9);
        let mut e = Digest::default();
        e.u64(9);
        assert_eq!(d.value(), e.value());
        e.u64(1);
        assert_ne!(d.value(), e.value());
    }
}
