//! Property-based tests for the workload models.

use proptest::prelude::*;

use borg_trace::{JobId, JobKind, WorkloadJob};
use des::{SimDuration, SimTime};
use sgx_sim::units::{ByteSize, USABLE_EPC};
use stress::Stressor;

fn arbitrary_job(kind: JobKind) -> impl Strategy<Value = WorkloadJob> {
    (1u64..100_000, 1u64..100_000, 1u64..300).prop_map(move |(req_kib, use_kib, dur)| WorkloadJob {
        id: JobId::new(1),
        submit: SimTime::ZERO,
        duration: SimDuration::from_secs(dur),
        kind,
        mem_request: ByteSize::from_kib(req_kib),
        mem_usage: ByteSize::from_kib(use_kib),
    })
}

proptest! {
    /// A job's stressor allocates exactly its actual usage, in the memory
    /// kind matching the job kind.
    #[test]
    fn job_stressors_allocate_actual_usage_sgx(job in arbitrary_job(JobKind::Sgx)) {
        let plan = Stressor::for_job(&job).plan_on(USABLE_EPC);
        prop_assert!(plan.requires_sgx);
        prop_assert_eq!(plan.epc_allocation, job.mem_usage.to_epc_pages_ceil());
        prop_assert_eq!(plan.standard_allocation, ByteSize::ZERO);
        prop_assert!(Stressor::for_job(&job).image().bundles_psw());
    }

    #[test]
    fn job_stressors_allocate_actual_usage_standard(job in arbitrary_job(JobKind::Standard)) {
        let plan = Stressor::for_job(&job).plan_on(USABLE_EPC);
        prop_assert!(!plan.requires_sgx);
        prop_assert_eq!(plan.standard_allocation, job.mem_usage);
        prop_assert!(plan.epc_allocation.is_zero());
    }

    /// The malicious stressor's footprint scales linearly with the node's
    /// EPC while its declared request stays a single page.
    #[test]
    fn malicious_footprint_scales_with_node(fraction in 0.01f64..1.0, node_mib in 1u64..512) {
        let stressor = Stressor::malicious(fraction);
        let node = ByteSize::from_mib(node_mib);
        let plan = stressor.plan_on(node);
        let expected = node.mul_f64(fraction).to_epc_pages_ceil();
        prop_assert_eq!(plan.epc_allocation, expected);
        prop_assert!(plan.requires_sgx);
        // Page rounding never inflates by more than one page.
        let exact_bytes = node.as_bytes() as f64 * fraction;
        prop_assert!(plan.epc_allocation.to_bytes().as_bytes() as f64 >= exact_bytes - 1.0);
        prop_assert!(
            plan.epc_allocation.to_bytes().as_bytes() as f64 <= exact_bytes + 4096.0 + 1.0
        );
    }
}
