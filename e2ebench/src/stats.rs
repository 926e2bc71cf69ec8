//! Order statistics over latency samples, and a seeded generator.

/// Samples that must lie strictly above a tail percentile before it is
/// reported: fewer would let one outlier set the number.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile of `sorted` (ascending), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every input and every op order.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one independent stream of a run's seed.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_refuses_fewer_than_ten_beyond() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90: exactly ten samples beyond it.
        assert_eq!(tail_percentile(&sorted, 90.0), Some(90.0));
        // p99 of 100 samples leaves one sample beyond: refused.
        assert_eq!(tail_percentile(&sorted, 99.0), None);
        assert_eq!(tail_percentile(&sorted[..99], 90.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn splitmix_streams_are_reproducible() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix::new(7, 1).next_u64(),
            SplitMix::new(7, 2).next_u64()
        );
        let mut v: Vec<usize> = (0..10).collect();
        SplitMix::new(3, 0).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
