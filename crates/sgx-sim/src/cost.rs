//! The SGX latency model measured in §VI-D (Fig. 6) of the paper.
//!
//! Startup of an SGX process has two components:
//!
//! 1. **PSW service startup** — because containers stay unprivileged, each
//!    pod runs its own Platform Software / AESM instance, costing a roughly
//!    constant ≈100 ms.
//! 2. **Enclave memory allocation** — all enclave memory must be committed
//!    (and measured for attestation) at build time. The paper observes two
//!    linear regimes: 1.6 ms/MiB while the request fits in the usable EPC,
//!    and a fixed ≈200 ms penalty plus 4.5 ms/MiB beyond it.
//!
//! Standard (non-SGX) jobs start in under a millisecond.
//!
//! On top of startup, the model exposes the *paging slowdown* suffered by
//! enclaves whose aggregate working set over-commits the EPC — up to the
//! 1000× reported by SCONE and quoted in §V-A.

use rand::{Rng, RngExt};

use des::rng::sample_normal;
use des::SimDuration;

use crate::units::ByteSize;

/// Parameters of the startup/latency model. All defaults come straight
/// from the paper's measurements.
///
/// # Examples
///
/// ```
/// use sgx_sim::cost::CostModel;
/// use sgx_sim::units::ByteSize;
///
/// let model = CostModel::paper_defaults();
/// // Allocating 32 MiB inside the usable EPC: 32 × 1.6 ms = 51.2 ms.
/// let d = model.allocation_time(ByteSize::from_mib(32), ByteSize::from_mib_f64(93.5));
/// assert_eq!(d.as_millis(), 51);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Mean PSW/AESM service startup time, ms (paper: ≈100 ms).
    pub psw_startup_ms: f64,
    /// Standard deviation of PSW startup, ms ("virtually the same in all
    /// runs" — small jitter).
    pub psw_startup_jitter_ms: f64,
    /// Allocation rate below the usable-EPC limit, ms per MiB (paper: 1.6).
    pub alloc_ms_per_mib_below: f64,
    /// Allocation rate above the usable-EPC limit, ms per MiB (paper: 4.5).
    pub alloc_ms_per_mib_above: f64,
    /// Fixed delay added once the request crosses the usable-EPC limit,
    /// ms (paper: ≈200 ms).
    pub alloc_over_limit_fixed_ms: f64,
    /// Upper bound on standard-job startup, ms (paper: "steadily took less
    /// than 1 ms").
    pub standard_startup_max_ms: f64,
    /// Maximum paging slowdown factor (SCONE: up to 1000×).
    pub max_paging_slowdown: f64,
    /// How quickly slowdown ramps with over-commitment; the slowdown for an
    /// over-commit ratio `r > 1` is
    /// `min(max, 1 + slope · (r − 1))`.
    pub paging_slowdown_slope: f64,
    /// Effective network throughput between nodes, MiB/s (the paper's
    /// testbed uses a 1 Gbit/s switched network ≈ 119 MiB/s).
    pub network_mib_per_sec: f64,
    /// Fixed cost of establishing the attested migration channel
    /// (mutual remote attestation + key agreement), ms.
    pub migration_handshake_ms: f64,
}

impl CostModel {
    /// The constants measured in the paper.
    pub fn paper_defaults() -> Self {
        CostModel {
            psw_startup_ms: 100.0,
            psw_startup_jitter_ms: 3.0,
            alloc_ms_per_mib_below: 1.6,
            alloc_ms_per_mib_above: 4.5,
            alloc_over_limit_fixed_ms: 200.0,
            standard_startup_max_ms: 1.0,
            max_paging_slowdown: 1000.0,
            // Calibrated so a 2× over-commit costs ~10×: well past "avoid
            // at all cost" while staying below the SCONE worst case.
            paging_slowdown_slope: 9.0,
            network_mib_per_sec: 119.2,
            migration_handshake_ms: 50.0,
        }
    }

    /// Time to ship `bytes` across the cluster network plus the attested
    /// channel handshake — the latency of an enclave migration (§VIII).
    pub fn migration_transfer(&self, bytes: ByteSize) -> SimDuration {
        let transfer_ms = bytes.as_mib_f64() / self.network_mib_per_sec * 1000.0;
        SimDuration::from_millis_f64(self.migration_handshake_ms + transfer_ms)
    }

    /// Deterministic (jitter-free) PSW startup time.
    pub fn psw_startup(&self) -> SimDuration {
        SimDuration::from_millis_f64(self.psw_startup_ms)
    }

    /// PSW startup with Gaussian jitter, clamped at zero.
    pub fn psw_startup_jittered<R: Rng + RngExt + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let ms = sample_normal(rng, self.psw_startup_ms, self.psw_startup_jitter_ms).max(0.0);
        SimDuration::from_millis_f64(ms)
    }

    /// Enclave memory allocation time for a `request` given the machine's
    /// `usable` EPC, reproducing the two linear regimes of Fig. 6.
    pub fn allocation_time(&self, request: ByteSize, usable: ByteSize) -> SimDuration {
        let req_mib = request.as_mib_f64();
        let usable_mib = usable.as_mib_f64();
        let ms = if req_mib <= usable_mib {
            self.alloc_ms_per_mib_below * req_mib
        } else {
            self.alloc_ms_per_mib_below * usable_mib
                + self.alloc_over_limit_fixed_ms
                + self.alloc_ms_per_mib_above * (req_mib - usable_mib)
        };
        SimDuration::from_millis_f64(ms)
    }

    /// Full SGX process startup: PSW service plus enclave allocation.
    pub fn sgx_startup<R: Rng + RngExt + ?Sized>(
        &self,
        rng: &mut R,
        request: ByteSize,
        usable: ByteSize,
    ) -> SimDuration {
        self.psw_startup_jittered(rng) + self.allocation_time(request, usable)
    }

    /// Startup time of a standard (non-SGX) job: uniform below the paper's
    /// 1 ms bound.
    pub fn standard_startup<R: Rng + RngExt + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let ms = rng.random_range(0.0..self.standard_startup_max_ms);
        SimDuration::from_millis_f64(ms)
    }

    /// Runtime slowdown factor for enclaves on a machine whose committed
    /// EPC over-commits the usable EPC by `overcommit_ratio` (committed ÷
    /// usable). Returns 1.0 at or below full occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `overcommit_ratio` is negative or non-finite.
    pub fn paging_slowdown(&self, overcommit_ratio: f64) -> f64 {
        assert!(
            overcommit_ratio.is_finite() && overcommit_ratio >= 0.0,
            "overcommit ratio must be finite and non-negative, got {overcommit_ratio}"
        );
        if overcommit_ratio <= 1.0 {
            1.0
        } else {
            (1.0 + self.paging_slowdown_slope * (overcommit_ratio - 1.0))
                .min(self.max_paging_slowdown)
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::USABLE_EPC;
    use des::rng::seeded_rng;

    #[test]
    fn allocation_below_limit_is_linear_at_1_6ms_per_mib() {
        let m = CostModel::paper_defaults();
        let d = m.allocation_time(ByteSize::from_mib(64), USABLE_EPC);
        assert!((d.as_millis_f64() - 102.4).abs() < 0.1, "{d}");
    }

    #[test]
    fn allocation_above_limit_adds_fixed_delay_and_steeper_slope() {
        let m = CostModel::paper_defaults();
        let d = m.allocation_time(ByteSize::from_mib(128), USABLE_EPC);
        // 93.5 × 1.6 + 200 + (128 − 93.5) × 4.5 = 149.6 + 200 + 155.25
        assert!((d.as_millis_f64() - 504.85).abs() < 0.1, "{d}");
    }

    #[test]
    fn allocation_is_continuous_up_to_the_fixed_jump() {
        let m = CostModel::paper_defaults();
        let just_below = m.allocation_time(ByteSize::from_mib_f64(93.5), USABLE_EPC);
        let just_above = m.allocation_time(ByteSize::from_mib_f64(93.6), USABLE_EPC);
        let jump = just_above.as_millis_f64() - just_below.as_millis_f64();
        assert!((jump - 200.45).abs() < 0.1, "jump={jump}");
    }

    #[test]
    fn psw_startup_is_about_100ms() {
        let m = CostModel::paper_defaults();
        assert_eq!(m.psw_startup().as_millis(), 100);
        let mut rng = seeded_rng(1);
        let mean = (0..1000)
            .map(|_| m.psw_startup_jittered(&mut rng).as_millis_f64())
            .sum::<f64>()
            / 1000.0;
        assert!((mean - 100.0).abs() < 1.0, "mean={mean}");
    }

    #[test]
    fn standard_startup_below_1ms() {
        let m = CostModel::paper_defaults();
        let mut rng = seeded_rng(2);
        for _ in 0..1000 {
            assert!(m.standard_startup(&mut rng) <= SimDuration::from_millis(1));
        }
    }

    #[test]
    fn sgx_startup_combines_both_terms() {
        let m = CostModel::paper_defaults();
        let mut rng = seeded_rng(3);
        let d = m.sgx_startup(&mut rng, ByteSize::from_mib(32), USABLE_EPC);
        // ≈ 100 ms PSW + 51.2 ms allocation.
        assert!(d.as_millis() > 130 && d.as_millis() < 180, "{d}");
    }

    #[test]
    fn paging_slowdown_kicks_in_above_full_occupancy() {
        let m = CostModel::paper_defaults();
        assert_eq!(m.paging_slowdown(0.0), 1.0);
        assert_eq!(m.paging_slowdown(1.0), 1.0);
        assert!(m.paging_slowdown(1.5) > 1.0);
        assert!(m.paging_slowdown(2.0) > m.paging_slowdown(1.5));
        assert_eq!(m.paging_slowdown(1e6), m.max_paging_slowdown);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn paging_slowdown_rejects_negative_ratio() {
        let m = CostModel::paper_defaults();
        let _ = m.paging_slowdown(-0.1);
    }

    #[test]
    fn migration_transfer_scales_with_size() {
        let m = CostModel::paper_defaults();
        let empty = m.migration_transfer(ByteSize::ZERO);
        assert_eq!(empty.as_millis(), 50); // handshake only
                                           // ≈119.2 MiB takes ≈1 s on the 1 Gbit/s network.
        let one_sec = m.migration_transfer(ByteSize::from_mib_f64(119.2));
        assert!((one_sec.as_millis_f64() - 1050.0).abs() < 1.0, "{one_sec}");
    }
}
