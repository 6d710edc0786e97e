//! The paper's outlier verdict for nonuniform communication-volume sets
//! (§4.2.1).
//!
//! The optimized `MPI_Allgatherv` must decide — in time no worse than the
//! linear scan the existing implementation already performs to compute the
//! total volume — whether the communication-volume set contains outliers:
//! `outliers ⇔ ratio > threshold`, where the ratio is the maximum over
//! the bulk quantile found by two Floyd–Rivest selections. The ratio and
//! the selection are defined once, in [`ncd_simnet::volume`]
//! (re-exported here as [`crate::k_select`] and
//! [`crate::outlier_ratio_of`]); this module only thresholds it.

use ncd_simnet::volume::outlier_ratio_of;

/// Decision produced by [`detect_outliers`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VolumeShape {
    /// Volumes are roughly uniform — the classic algorithms apply.
    Uniform,
    /// A small subset of the volumes is far outside the bulk — use the
    /// binomial-pattern algorithms.
    Outliers,
}

/// The paper's outlier-ratio test (equation 1) over a communication-volume
/// set.
///
/// * `fraction` — `OUTLIER_FRACT`: the quantile encompassing "the bulk" of
///   the messages (e.g. 0.9).
/// * `ratio_threshold` — how far the maximum must sit above the bulk
///   quantile to count as an outlier.
///
/// Degenerate sets are handled conservatively: an all-zero set is Uniform;
/// a set whose bulk quantile is zero but whose maximum is not is Outliers
/// (division by zero means "infinitely skewed").
pub fn detect_outliers(volumes: &[usize], fraction: f64, ratio_threshold: f64) -> VolumeShape {
    detect_outliers_with_ratio(volumes, fraction, ratio_threshold).0
}

/// [`detect_outliers`], but also returning the computed max/bulk ratio so
/// callers can report the evidence behind the verdict. Degenerate cases
/// report a ratio of `0.0` (too small or all-zero sets) or `f64::INFINITY`
/// (zero bulk with a nonzero maximum).
pub fn detect_outliers_with_ratio(
    volumes: &[usize],
    fraction: f64,
    ratio_threshold: f64,
) -> (VolumeShape, f64) {
    let set: Vec<u64> = volumes.iter().map(|&v| v as u64).collect();
    let ratio = outlier_ratio_of(&set, fraction);
    if ratio == 0.0 {
        (VolumeShape::Uniform, 0.0)
    } else if ratio.is_infinite() || ratio > ratio_threshold {
        (VolumeShape::Outliers, ratio)
    } else {
        (VolumeShape::Uniform, ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_volumes_are_uniform() {
        let vols = vec![1024usize; 64];
        assert_eq!(detect_outliers(&vols, 0.9, 8.0), VolumeShape::Uniform);
    }

    #[test]
    fn single_huge_sender_is_outlier() {
        // Figure 14's workload: one rank sends 32 KB, the rest one double.
        let mut vols = vec![8usize; 64];
        vols[0] = 32 * 1024;
        assert_eq!(detect_outliers(&vols, 0.9, 8.0), VolumeShape::Outliers);
    }

    #[test]
    fn mild_spread_is_uniform() {
        let vols: Vec<usize> = (0..64).map(|i| 1000 + i * 10).collect();
        assert_eq!(detect_outliers(&vols, 0.9, 8.0), VolumeShape::Uniform);
    }

    #[test]
    fn zero_bulk_with_nonzero_max_is_outlier() {
        // Nearest-neighbour-style set: mostly zeros.
        let mut vols = vec![0usize; 64];
        vols[1] = 800;
        vols[63] = 800;
        assert_eq!(detect_outliers(&vols, 0.9, 8.0), VolumeShape::Outliers);
    }

    #[test]
    fn all_zero_is_uniform() {
        assert_eq!(
            detect_outliers(&[0, 0, 0, 0], 0.9, 8.0),
            VolumeShape::Uniform
        );
    }

    #[test]
    fn tiny_sets_are_uniform() {
        assert_eq!(detect_outliers(&[], 0.9, 8.0), VolumeShape::Uniform);
        assert_eq!(detect_outliers(&[123], 0.9, 8.0), VolumeShape::Uniform);
    }

    #[test]
    fn threshold_is_respected() {
        let mut vols = vec![100usize; 10];
        vols[0] = 500; // 5x the bulk
        assert_eq!(detect_outliers(&vols, 0.9, 8.0), VolumeShape::Uniform);
        assert_eq!(detect_outliers(&vols, 0.9, 4.0), VolumeShape::Outliers);
    }

    #[test]
    fn ratio_is_reported_with_the_verdict() {
        let mut vols = vec![100usize; 10];
        vols[0] = 500;
        let (shape, ratio) = detect_outliers_with_ratio(&vols, 0.9, 4.0);
        assert_eq!(shape, VolumeShape::Outliers);
        assert!((ratio - 5.0).abs() < 1e-12, "ratio {ratio}");

        let (shape, ratio) = detect_outliers_with_ratio(&[7, 7, 7, 7], 0.9, 8.0);
        assert_eq!(shape, VolumeShape::Uniform);
        assert!((ratio - 1.0).abs() < 1e-12);

        let mut zeros = vec![0usize; 20];
        zeros[7] = 9;
        let (shape, ratio) = detect_outliers_with_ratio(&zeros, 0.9, 8.0);
        assert_eq!(shape, VolumeShape::Outliers);
        assert!(ratio.is_infinite());

        assert_eq!(
            detect_outliers_with_ratio(&[], 0.9, 8.0),
            (VolumeShape::Uniform, 0.0)
        );
    }
}
