//! Order statistics and the run digest.

/// Samples that must lie strictly beyond a reported percentile. Below
/// this the tail is a handful of points, and "p99" would really be the
/// maximum under another name.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order) for `q` in (0, 1].
///
/// Returns `None` unless at least [`MIN_BEYOND`] samples lie beyond the
/// chosen rank, so a p99 needs at least 1000 samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// FNV-1a 64: a fixed, documented hash, unlike std's `DefaultHasher`,
/// so a digest printed today can be compared with one printed by a
/// later toolchain.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feed raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feed a string followed by a separator, so `("ab","c")` and
    /// `("a","bc")` differ.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    /// Feed an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            percentile(&short, 0.99),
            None,
            "would be the max in disguise"
        );
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p50_is_order_independent() {
        let mut v: Vec<f64> = (0..40).map(|i| ((i * 7) % 40) as f64).collect();
        let a = percentile(&v, 0.5);
        v.reverse();
        assert_eq!(a, percentile(&v, 0.5));
        assert_eq!(a, Some(19.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
