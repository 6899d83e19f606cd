//! Property-based tests for the EPC allocator and driver invariants.

use proptest::prelude::*;

use sgx_sim::driver::SgxDriver;
use sgx_sim::epc::{Epc, EpcConfig};
use sgx_sim::units::{ByteSize, EpcPages};
use sgx_sim::{CgroupPath, Pid};

/// A randomly generated EPC operation.
#[derive(Debug, Clone)]
enum Op {
    Register,
    Commit { enclave: usize, pages: u64 },
    Release { enclave: usize, pages: u64 },
    Touch { enclave: usize, pages: u64 },
    Deregister { enclave: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Register),
        (0usize..8, 1u64..400).prop_map(|(enclave, pages)| Op::Commit { enclave, pages }),
        (0usize..8, 1u64..400).prop_map(|(enclave, pages)| Op::Release { enclave, pages }),
        (0usize..8, 1u64..400).prop_map(|(enclave, pages)| Op::Touch { enclave, pages }),
        (0usize..8).prop_map(|enclave| Op::Deregister { enclave }),
    ]
}

fn tiny_config(paging: bool) -> EpcConfig {
    EpcConfig {
        prm: ByteSize::from_bytes(1000 * 4096 * 2),
        usable: ByteSize::from_bytes(1000 * 4096),
        paging_enabled: paging,
    }
}

proptest! {
    /// After any sequence of operations, `free + Σ resident == total` and
    /// `resident + paged_out == committed` per enclave.
    #[test]
    fn epc_invariants_hold_under_arbitrary_ops(
        ops in prop::collection::vec(op_strategy(), 1..120),
        paging in any::<bool>(),
    ) {
        let mut epc = Epc::new(tiny_config(paging));
        let mut ids = Vec::new();
        for op in ops {
            match op {
                Op::Register => ids.push(epc.register_enclave()),
                Op::Commit { enclave, pages } => {
                    if let Some(&id) = ids.get(enclave) {
                        let _ = epc.commit(id, EpcPages::new(pages));
                    }
                }
                Op::Release { enclave, pages } => {
                    if let Some(&id) = ids.get(enclave) {
                        let _ = epc.release(id, EpcPages::new(pages));
                    }
                }
                Op::Touch { enclave, pages } => {
                    if let Some(&id) = ids.get(enclave) {
                        let _ = epc.touch(id, EpcPages::new(pages));
                    }
                }
                Op::Deregister { enclave } => {
                    if let Some(&id) = ids.get(enclave) {
                        let _ = epc.deregister_enclave(id);
                    }
                }
            }
            prop_assert!(epc.check_invariants());
        }
    }

    /// With paging disabled, committed pages can never exceed the usable
    /// EPC, no matter what sequence of commits is attempted.
    #[test]
    fn no_paging_means_no_overcommit(
        commits in prop::collection::vec((0usize..4, 1u64..600), 1..60),
    ) {
        let mut epc = Epc::new(tiny_config(false));
        let ids: Vec<_> = (0..4).map(|_| epc.register_enclave()).collect();
        for (slot, pages) in commits {
            let _ = epc.commit(ids[slot], EpcPages::new(pages));
            prop_assert!(epc.committed_pages() <= epc.total_pages());
            prop_assert!(epc.overcommit_ratio() <= 1.0 + f64::EPSILON);
        }
    }

    /// The driver's admission check is airtight: whatever a pod commits,
    /// initialisation only succeeds when the pod is within its limit.
    #[test]
    fn admission_check_is_sound(
        limit in 1u64..2000,
        sizes in prop::collection::vec(1u64..1500, 1..6),
    ) {
        let mut driver = SgxDriver::sgx1_default();
        let pod = CgroupPath::new("/kubepods/prop-pod");
        driver.set_pod_limit(&pod, EpcPages::new(limit)).unwrap();
        let mut owned = 0u64;
        for (i, pages) in sizes.iter().enumerate() {
            let enclave = driver.create_enclave(Pid::new(i as u32), pod.clone());
            driver.add_pages(enclave, EpcPages::new(*pages)).unwrap();
            let admitted = driver.init_enclave(enclave).is_ok();
            prop_assert_eq!(admitted, owned + pages <= limit);
            if admitted {
                owned += pages;
            } else {
                // A denied enclave is torn down by its owner.
                driver.destroy_enclave(enclave).unwrap();
            }
        }
        prop_assert!(driver.pages_for_pod(&pod) <= EpcPages::new(limit) || owned <= limit);
    }

    /// Free-page module parameter always mirrors EPC accounting.
    #[test]
    fn module_params_track_accounting(
        sizes in prop::collection::vec(1u64..500, 1..10),
    ) {
        let mut driver = SgxDriver::sgx1_default();
        driver.set_enforce_limits(false);
        let pod = CgroupPath::new("/kubepods/p");
        let mut enclaves = Vec::new();
        for (i, pages) in sizes.iter().enumerate() {
            let e = driver.create_enclave(Pid::new(i as u32), pod.clone());
            driver.add_pages(e, EpcPages::new(*pages)).unwrap();
            enclaves.push(e);
        }
        let committed: u64 = sizes.iter().sum();
        prop_assert_eq!(
            driver.sgx_nr_free_pages().count(),
            23_936 - committed
        );
        for e in enclaves {
            driver.destroy_enclave(e).unwrap();
        }
        prop_assert_eq!(driver.sgx_nr_free_pages().count(), 23_936);
    }
}
