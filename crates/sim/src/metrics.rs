//! Measurement helpers: latency summaries.

use crate::time::SimDuration;

/// An online summary of duration samples (latencies, RTTs).
///
/// Stores all samples so exact percentiles can be computed; the
/// experiment scales here (thousands of pings) make that cheap.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencySummary {
    samples: Vec<SimDuration>,
    sorted: bool,
}

impl LatencySummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.samples.is_empty() {
            return None;
        }
        let total: u64 = self.samples.iter().map(|d| d.as_nanos()).sum();
        Some(SimDuration::from_nanos(total / self.samples.len() as u64))
    }

    /// Minimum sample, or `None` if empty.
    pub fn min(&self) -> Option<SimDuration> {
        self.samples.iter().copied().min()
    }

    /// Maximum sample, or `None` if empty.
    pub fn max(&self) -> Option<SimDuration> {
        self.samples.iter().copied().max()
    }

    /// The `p`-th percentile (0.0..=100.0) by nearest-rank, or `None`
    /// if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn percentile(&mut self, p: f64) -> Option<SimDuration> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        Some(self.samples[rank.saturating_sub(1)])
    }

    /// All samples, in insertion order (or sorted order if a percentile
    /// was computed since the last insert).
    pub fn samples(&self) -> &[SimDuration] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let mut s = LatencySummary::new();
        for ms in [5u64, 1, 3, 2, 4] {
            s.record(SimDuration::from_millis(ms));
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), Some(SimDuration::from_millis(3)));
        assert_eq!(s.min(), Some(SimDuration::from_millis(1)));
        assert_eq!(s.max(), Some(SimDuration::from_millis(5)));
        assert_eq!(s.percentile(50.0), Some(SimDuration::from_millis(3)));
        assert_eq!(s.percentile(100.0), Some(SimDuration::from_millis(5)));
        assert_eq!(s.percentile(0.0), Some(SimDuration::from_millis(1)));
    }

    #[test]
    fn summary_empty() {
        let mut s = LatencySummary::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.percentile(50.0), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_out_of_range() {
        let mut s = LatencySummary::new();
        s.record(SimDuration::from_millis(1));
        let _ = s.percentile(101.0);
    }
}
