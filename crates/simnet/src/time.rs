//! Simulated time and the LogGP-style cost model.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) of simulated time, in nanoseconds.
///
/// `SimTime` is a plain `u64` under the hood so that clock arithmetic is
/// exact and platform-independent; fractional costs produced by the model
/// are rounded to the nearest nanosecond at the point they are charged.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    pub fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from (possibly fractional) nanoseconds, rounding to
    /// nearest with ties away from zero; negative values and NaN give
    /// zero, values past `u64::MAX` saturate.
    ///
    /// Every cost charged to a clock passes through here. `f64::round`
    /// is a library call on baseline x86-64, so the rounding is done in
    /// integers: below 2^52 the truncation and the fraction left over
    /// are both exact, and from 2^52 on every `f64` is already whole.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        const WHOLE_FROM: f64 = (1u64 << 52) as f64;
        let x = ns.max(0.0);
        if x < WHOLE_FROM {
            let t = x as i64;
            SimTime((t + (x - t as f64 >= 0.5) as i64) as u64)
        } else {
            SimTime(x as u64)
        }
    }

    pub fn as_ns(self) -> u64 {
        self.0
    }

    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction, handy for computing spans between clocks.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_us())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// LogGP-style cost model translating executed operations into simulated
/// nanoseconds.
///
/// The defaults are loosely calibrated to the paper's testbed — an
/// InfiniBand DDR fabric (MT25208 HCAs, 144-port switch) with ~2005-era
/// Intel EM64T / AMD Opteron nodes:
///
/// * `latency_ns` — one-way wire latency `L` (≈ 4 µs end-to-end MPI).
/// * `bandwidth_bytes_per_us` — sustained point-to-point bandwidth `G⁻¹`
///   (≈ 1.2 GB/s for IB DDR through an MPI stack of the time).
/// * `send_overhead_ns` / `recv_overhead_ns` — per-message CPU overhead `o`.
/// * `copy_bandwidth_bytes_per_us` — memcpy bandwidth for packing/unpacking
///   into intermediate buffers (≈ 2.5 GB/s on DDR/DDR2 SDRAM).
/// * `segment_pack_cost_ns` — fixed per-contiguous-segment cost of the
///   datatype engine while *packing* (loop and address-generation overhead).
/// * `segment_search_cost_ns` — fixed per-segment cost while *searching* a
///   datatype for a lost context (signature-only traversal: cheaper than
///   packing because no data is touched, but it is exactly the term that the
///   baseline engine pays quadratically).
/// * `flop_ns` — cost of one floating-point operation for the compute phases
///   of the PETSc-level benchmarks (≈ 2005-era scalar FPU throughput).
/// * `noise_ns` — amplitude of uniformly distributed per-operation jitter
///   modelling OS scheduling noise; the paper's testbed mixed two different
///   clusters, and Section 5.3 explicitly attributes part of the Alltoallw
///   result to this natural skew.
#[derive(Clone, Debug)]
pub struct CostModel {
    pub latency_ns: f64,
    pub bandwidth_bytes_per_us: f64,
    pub send_overhead_ns: f64,
    pub recv_overhead_ns: f64,
    pub copy_bandwidth_bytes_per_us: f64,
    pub segment_pack_cost_ns: f64,
    pub segment_search_cost_ns: f64,
    pub indexed_copy_cost_ns: f64,
    pub flop_ns: f64,
    pub noise_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            latency_ns: 4_000.0,
            bandwidth_bytes_per_us: 1_200.0,
            send_overhead_ns: 800.0,
            recv_overhead_ns: 800.0,
            copy_bandwidth_bytes_per_us: 2_500.0,
            segment_pack_cost_ns: 40.0,
            segment_search_cost_ns: 4.0,
            indexed_copy_cost_ns: 35.0,
            flop_ns: 0.8,
            noise_ns: 0.0,
        }
    }
}

impl CostModel {
    /// A model with per-operation jitter enabled, for experiments that study
    /// skew sensitivity (Figure 15 of the paper).
    pub fn with_noise(mut self, noise_ns: f64) -> Self {
        self.noise_ns = noise_ns;
        self
    }

    /// Time the wire is occupied transferring `bytes` (serialization time).
    pub fn wire_ns(&self, bytes: usize) -> f64 {
        bytes as f64 / self.bandwidth_bytes_per_us * 1_000.0
    }

    /// Time to memcpy `bytes` during packing/unpacking.
    pub fn copy_ns(&self, bytes: usize) -> f64 {
        bytes as f64 / self.copy_bandwidth_bytes_per_us * 1_000.0
    }

    /// CPU time to process `segments` contiguous pieces while packing
    /// (excludes the byte-copy term, which is charged via [`copy_ns`]).
    ///
    /// [`copy_ns`]: CostModel::copy_ns
    pub fn pack_segments_ns(&self, segments: u64) -> f64 {
        segments as f64 * self.segment_pack_cost_ns
    }

    /// CPU time to walk `segments` signature entries while re-searching a
    /// datatype for a lost context.
    pub fn search_segments_ns(&self, segments: u64) -> f64 {
        segments as f64 * self.segment_search_cost_ns
    }

    /// CPU time for `flops` floating point operations.
    pub fn compute_ns(&self, flops: u64) -> f64 {
        flops as f64 * self.flop_ns
    }

    /// CPU time of a hand-rolled copy loop over `runs` contiguous runs of
    /// `bytes` total (the hand-tuned scatter's pack/unpack).
    pub fn indexed_copy_ns(&self, bytes: usize, runs: u64) -> f64 {
        self.copy_ns(bytes) + runs as f64 * self.indexed_copy_cost_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simtime_conversions_round_trip() {
        let t = SimTime::from_ns_f64(12.5 * 1_000.0);
        assert_eq!(t.as_ns(), 12_500);
        assert!((t.as_us() - 12.5).abs() < 1e-9);
        assert_eq!(SimTime::from_ns(3_000_000).as_ms(), 3.0);
        assert_eq!(SimTime::from_ns_f64(-5.0), SimTime::ZERO);
        assert_eq!(SimTime::from_ns_f64(2.6), SimTime(3));
    }

    /// The rounding `from_ns_f64` must reproduce bit for bit.
    fn oracle(ns: f64) -> SimTime {
        SimTime(ns.max(0.0).round() as u64)
    }

    #[test]
    fn from_ns_f64_matches_round_at_the_edges() {
        let two52 = (1u64 << 52) as f64;
        let two53 = (1u64 << 53) as f64;
        let two64 = 18_446_744_073_709_551_616.0;
        let cases = [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            -0.5,
            -1.5,
            -5.0,
            1234.5,
            1234.499999,
            two52 - 1.5,
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            two64,
            two64 * 2.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for ns in cases {
            assert_eq!(SimTime::from_ns_f64(ns), oracle(ns), "{ns:?}");
        }
        assert_eq!(SimTime::from_ns_f64(0.5), SimTime(1));
        assert_eq!(SimTime::from_ns_f64(two52 - 0.5), SimTime(1 << 52));
        assert_eq!(SimTime::from_ns_f64(f64::INFINITY), SimTime(u64::MAX));
        assert_eq!(SimTime::from_ns_f64(f64::NAN), SimTime::ZERO);
    }

    proptest! {
        /// Any bit pattern: every sign, exponent and NaN payload.
        #[test]
        fn from_ns_f64_matches_round_on_any_bits(bits in 0u64..u64::MAX) {
            let ns = f64::from_bits(bits);
            prop_assert_eq!(SimTime::from_ns_f64(ns), oracle(ns));
        }

        /// Quarter-nanosecond steps up to 2^54: ties, near-ties and the
        /// 2^52 boundary, densely.
        #[test]
        fn from_ns_f64_matches_round_on_quarters(k in 0u64..1 << 56, below in any::<bool>()) {
            let ns = k as f64 * 0.25;
            let ns = if below { f64::from_bits(ns.to_bits().saturating_sub(1)) } else { ns };
            prop_assert_eq!(SimTime::from_ns_f64(ns), oracle(ns));
        }

        /// The magnitudes costs actually have.
        #[test]
        fn from_ns_f64_matches_round_on_costs(ns in -1.0e3f64..1.0e12) {
            prop_assert_eq!(SimTime::from_ns_f64(ns), oracle(ns));
        }
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime(100);
        let b = SimTime(40);
        assert_eq!(a + b, SimTime(140));
        assert_eq!(a - b, SimTime(60));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime(140));
        let total: SimTime = [a, b, c].into_iter().sum();
        assert_eq!(total, SimTime(280));
    }

    #[test]
    fn simtime_display_picks_unit() {
        assert_eq!(SimTime(999).to_string(), "999ns");
        assert_eq!(SimTime(1_500).to_string(), "1.500us");
        assert_eq!(SimTime(2_500_000).to_string(), "2.500ms");
        assert_eq!(SimTime(3_000_000_000).to_string(), "3.000s");
    }

    #[test]
    fn cost_model_wire_time_scales_linearly() {
        let m = CostModel::default();
        let one = m.wire_ns(1_200);
        assert!((one - 1_000.0).abs() < 1e-6); // 1200 B at 1200 B/us = 1 us
        assert!((m.wire_ns(2_400) - 2.0 * one).abs() < 1e-6);
    }

    #[test]
    fn cost_model_search_cheaper_than_pack_per_segment() {
        let m = CostModel::default();
        assert!(m.search_segments_ns(1000) < m.pack_segments_ns(1000));
    }

    #[test]
    fn cost_model_zero_is_zero() {
        let m = CostModel::default();
        assert_eq!(m.wire_ns(0), 0.0);
        assert_eq!(m.copy_ns(0), 0.0);
        assert_eq!(m.pack_segments_ns(0), 0.0);
        assert_eq!(m.search_segments_ns(0), 0.0);
        assert_eq!(m.compute_ns(0), 0.0);
    }
}
