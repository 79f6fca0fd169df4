//! Sliced request-volume time series.
//!
//! §3.4: the cloud service "builds a time series model for the volume of
//! requests received …, sliced along various dimensions (client AS'es,
//! data center locations, etc.)". A [`SliceKey`] is one point in that
//! dimension cross-product; [`SlicedSeries`] holds a fixed-interval count
//! series per slice and can roll up along any subset of dimensions.

use std::collections::HashMap;

/// One slice of the request stream: (service, client AS, metro).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SliceKey {
    /// Service identifier (e.g. VoIP vs file hosting — §1's example).
    pub service: u32,
    /// Client autonomous system ("ISP").
    pub asn: u32,
    /// Client metro area.
    pub metro: u32,
}

/// A dimension of the slice space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dimension {
    /// The service dimension.
    Service,
    /// The client-AS dimension.
    Asn,
    /// The metro dimension.
    Metro,
}

impl SliceKey {
    /// The key's value along `dim`.
    pub fn get(&self, dim: Dimension) -> u32 {
        match dim {
            Dimension::Service => self.service,
            Dimension::Asn => self.asn,
            Dimension::Metro => self.metro,
        }
    }
}

/// A fixed-interval count series.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Bin width in seconds.
    pub bin_secs: u64,
    /// Counts per bin.
    pub bins: Vec<f64>,
}

impl TimeSeries {
    /// A zeroed series of `n` bins of `bin_secs` each.
    pub fn zeros(bin_secs: u64, n: usize) -> Self {
        assert!(bin_secs > 0);
        TimeSeries {
            bin_secs,
            bins: vec![0.0; n],
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True if the series has no bins.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Add `count` at time `t_secs` (ignored beyond the horizon).
    pub fn add(&mut self, t_secs: u64, count: f64) {
        let idx = (t_secs / self.bin_secs) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += count;
        }
    }

    /// Element-wise sum with another series of identical shape.
    pub fn add_series(&mut self, other: &TimeSeries) {
        assert_eq!(self.bin_secs, other.bin_secs, "bin width mismatch");
        assert_eq!(self.bins.len(), other.bins.len(), "length mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }

    /// Sum of bins in `[from, to)`.
    pub fn window_sum(&self, from: usize, to: usize) -> f64 {
        self.bins[from.min(self.bins.len())..to.min(self.bins.len())]
            .iter()
            .sum()
    }
}

/// Per-slice series over a common time grid.
#[derive(Debug, Clone)]
pub struct SlicedSeries {
    bin_secs: u64,
    n_bins: usize,
    slices: HashMap<SliceKey, TimeSeries>,
}

impl SlicedSeries {
    /// An empty sliced series over `n_bins` bins of `bin_secs`.
    pub fn new(bin_secs: u64, n_bins: usize) -> Self {
        SlicedSeries {
            bin_secs,
            n_bins,
            slices: HashMap::new(),
        }
    }

    /// Bin width, seconds.
    pub fn bin_secs(&self) -> u64 {
        self.bin_secs
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Record `count` requests for `slice` at `t_secs`.
    pub fn add(&mut self, slice: SliceKey, t_secs: u64, count: f64) {
        let bin_secs = self.bin_secs;
        let n = self.n_bins;
        self.slices
            .entry(slice)
            .or_insert_with(|| TimeSeries::zeros(bin_secs, n))
            .add(t_secs, count);
    }

    /// The slices present.
    pub fn keys(&self) -> impl Iterator<Item = &SliceKey> {
        self.slices.keys()
    }

    /// A slice's series.
    pub fn series(&self, slice: &SliceKey) -> Option<&TimeSeries> {
        self.slices.get(slice)
    }

    /// Number of distinct slices.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// The all-up total series.
    pub fn total(&self) -> TimeSeries {
        self.rollup(|_| true)
    }

    /// Sum the series of every slice matching `pred`.
    pub fn rollup(&self, pred: impl Fn(&SliceKey) -> bool) -> TimeSeries {
        let mut out = TimeSeries::zeros(self.bin_secs, self.n_bins);
        for (k, s) in &self.slices {
            if pred(k) {
                out.add_series(s);
            }
        }
        out
    }

    /// Distinct values along `dim`.
    pub fn values_of(&self, dim: Dimension) -> Vec<u32> {
        let mut vals: Vec<u32> = self.slices.keys().map(|k| k.get(dim)).collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: u32, a: u32, m: u32) -> SliceKey {
        SliceKey {
            service: s,
            asn: a,
            metro: m,
        }
    }

    #[test]
    fn binning_and_horizon() {
        let mut ts = TimeSeries::zeros(60, 10);
        ts.add(0, 1.0);
        ts.add(59, 1.0);
        ts.add(60, 1.0);
        ts.add(10_000, 5.0); // beyond horizon: dropped
        assert_eq!(ts.bins[0], 2.0);
        assert_eq!(ts.bins[1], 1.0);
        assert_eq!(ts.window_sum(0, 10), 3.0);
    }

    #[test]
    fn rollups_sum_matching_slices() {
        let mut s = SlicedSeries::new(60, 5);
        s.add(key(1, 100, 7), 0, 10.0);
        s.add(key(1, 200, 7), 0, 20.0);
        s.add(key(2, 100, 8), 0, 40.0);
        let total = s.total();
        assert_eq!(total.bins[0], 70.0);
        let asn100 = s.rollup(|k| k.asn == 100);
        assert_eq!(asn100.bins[0], 50.0);
        let svc1_metro7 = s.rollup(|k| k.service == 1 && k.metro == 7);
        assert_eq!(svc1_metro7.bins[0], 30.0);
    }

    #[test]
    fn values_of_lists_dimension_values() {
        let mut s = SlicedSeries::new(60, 5);
        s.add(key(1, 100, 7), 0, 1.0);
        s.add(key(1, 200, 7), 0, 1.0);
        s.add(key(2, 100, 9), 0, 1.0);
        assert_eq!(s.values_of(Dimension::Asn), vec![100, 200]);
        assert_eq!(s.values_of(Dimension::Metro), vec![7, 9]);
        assert_eq!(s.values_of(Dimension::Service), vec![1, 2]);
        assert_eq!(s.slice_count(), 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_series_shape_checked() {
        let mut a = TimeSeries::zeros(60, 5);
        let b = TimeSeries::zeros(60, 6);
        a.add_series(&b);
    }
}
