//! Zone histogram containers.

use serde::{Deserialize, Serialize};
use zonal_gpusim::TrackedBufU64;

/// Dense per-zone histograms: `n_zones × n_bins` counts in one flat array,
/// the host-side mirror of the paper's `his_d_polygon` device array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZoneHistograms {
    n_zones: usize,
    n_bins: usize,
    data: Vec<u64>,
}

impl ZoneHistograms {
    pub fn new(n_zones: usize, n_bins: usize) -> Self {
        ZoneHistograms {
            n_zones,
            n_bins,
            data: vec![0; n_zones * n_bins],
        }
    }

    /// Reassemble from a flat vector (e.g. a [`TrackedBufU64`] drained
    /// after a kernel).
    pub fn from_flat(n_zones: usize, n_bins: usize, data: Vec<u64>) -> Self {
        assert_eq!(
            data.len(),
            n_zones * n_bins,
            "flat histogram shape mismatch"
        );
        ZoneHistograms {
            n_zones,
            n_bins,
            data,
        }
    }

    /// Allocate the matching atomic device buffer (zeroed). The buffer is
    /// sanitizer-tracked under the paper's device-array name, so sanitized
    /// kernel runs report against `his_d_polygon`; without the `sanitize`
    /// feature it is a zero-cost wrapper over the plain atomic buffer.
    pub fn device_buffer(n_zones: usize, n_bins: usize) -> TrackedBufU64 {
        TrackedBufU64::labelled("his_d_polygon", n_zones * n_bins)
    }

    #[inline]
    pub fn n_zones(&self) -> usize {
        self.n_zones
    }

    #[inline]
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// One zone's histogram.
    #[inline]
    pub fn zone(&self, z: usize) -> &[u64] {
        &self.data[z * self.n_bins..(z + 1) * self.n_bins]
    }

    #[inline]
    pub fn get(&self, z: usize, bin: usize) -> u64 {
        self.data[z * self.n_bins + bin]
    }

    #[inline]
    pub fn add(&mut self, z: usize, bin: usize, count: u64) {
        self.data[z * self.n_bins + bin] += count;
    }

    /// Element-wise accumulate another result (the master-node combine of
    /// the cluster experiment, and the per-partition accumulate of the
    /// single-node run).
    pub fn merge(&mut self, other: &ZoneHistograms) {
        assert_eq!(self.n_zones, other.n_zones, "zone count mismatch");
        assert_eq!(self.n_bins, other.n_bins, "bin count mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Total cells counted in zone `z`.
    pub fn zone_total(&self, z: usize) -> u64 {
        self.zone(z).iter().sum()
    }

    /// Total cells counted over all zones.
    pub fn total(&self) -> u64 {
        self.data.iter().sum()
    }

    /// Flat view (`zone * n_bins + bin` layout).
    pub fn flat(&self) -> &[u64] {
        &self.data
    }

    /// Serialized byte size of the result (the device→host output transfer
    /// the end-to-end time accounts for). The paper stores bins as 4-byte
    /// integers.
    pub fn output_bytes(&self) -> u64 {
        Self::output_bytes_of(self.n_zones, self.n_bins)
    }

    /// [`ZoneHistograms::output_bytes`] for a result of this shape.
    pub(crate) fn output_bytes_of(n_zones: usize, n_bins: usize) -> u64 {
        (n_zones * n_bins * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let h = ZoneHistograms::new(3, 10);
        assert_eq!(h.total(), 0);
        assert_eq!(h.zone(2).len(), 10);
    }

    #[test]
    fn add_and_get() {
        let mut h = ZoneHistograms::new(2, 5);
        h.add(1, 3, 7);
        h.add(1, 3, 2);
        h.add(0, 0, 1);
        assert_eq!(h.get(1, 3), 9);
        assert_eq!(h.zone_total(1), 9);
        assert_eq!(h.total(), 10);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ZoneHistograms::new(2, 4);
        a.add(0, 1, 5);
        let mut b = ZoneHistograms::new(2, 4);
        b.add(0, 1, 3);
        b.add(1, 2, 10);
        a.merge(&b);
        assert_eq!(a.get(0, 1), 8);
        assert_eq!(a.get(1, 2), 10);
        assert_eq!(a.total(), 18);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn merge_shape_checked() {
        let mut a = ZoneHistograms::new(2, 4);
        let b = ZoneHistograms::new(2, 5);
        a.merge(&b);
    }

    #[test]
    fn from_flat_roundtrip() {
        let h = ZoneHistograms::from_flat(2, 3, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(h.zone(0), &[1, 2, 3]);
        assert_eq!(h.zone(1), &[4, 5, 6]);
        assert_eq!(h.flat(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn device_buffer_matches_layout() {
        let buf = ZoneHistograms::device_buffer(2, 3);
        buf.add(3 + 2, 42);
        let h = ZoneHistograms::from_flat(2, 3, buf.into_vec());
        assert_eq!(h.get(1, 2), 42);
    }

    #[test]
    fn output_bytes_uses_u32_bins() {
        let h = ZoneHistograms::new(3100, 5000);
        assert_eq!(h.output_bytes(), 3100 * 5000 * 4);
    }
}
