//! Property-based tests for the EPC allocator and driver invariants.

use proptest::prelude::*;

use sgx_sim::driver::SgxDriver;
use sgx_sim::enclave::EnclaveState;
use sgx_sim::epc::{Epc, EpcConfig};
use sgx_sim::migration::MigrationKey;
use sgx_sim::units::{ByteSize, EpcPages};
use sgx_sim::{CgroupPath, EnclaveId, SgxError, SgxVersion};

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

/// A driver call. Each is made on one of two machines; pods are picked
/// from [`PODS`] and enclaves from every id the machine ever handed out
/// (destroyed ones included), both by index.
#[derive(Debug, Clone)]
enum DriverOp {
    SetLimit {
        pod: usize,
        limit: u64,
    },
    Create {
        pod: usize,
    },
    Add {
        enclave: usize,
        pages: u64,
    },
    Init {
        enclave: usize,
    },
    Augment {
        enclave: usize,
        pages: u64,
    },
    Trim {
        enclave: usize,
        pages: u64,
    },
    Destroy {
        enclave: usize,
    },
    RemovePod {
        pod: usize,
    },
    /// Checkpoint an enclave and restore it on the other machine under
    /// `pod`, which need not be the pod it left.
    Migrate {
        enclave: usize,
        pod: usize,
    },
    Enforce(bool),
}

const PODS: [&str; 5] = [
    "/kubepods/pod-1",
    "/kubepods/pod-2",
    "/kubepods/pod-3",
    "/kubepods/pod-10",
    "/kubepods/besteffort/pod-1",
];

fn driver_op_strategy() -> impl Strategy<Value = (usize, DriverOp)> {
    let pod = || 0usize..PODS.len();
    let enclave = || 0usize..12;
    let pages = || 0u64..300;
    let create = || pod().prop_map(|pod| DriverOp::Create { pod });
    let add = || (enclave(), pages()).prop_map(|(enclave, pages)| DriverOp::Add { enclave, pages });
    let init = || enclave().prop_map(|enclave| DriverOp::Init { enclave });
    // Creating, filling and initialising are drawn twice as often as the
    // rest, so pods reach several live enclaves.
    let op = prop_oneof![
        (pod(), 0u64..700).prop_map(|(pod, limit)| DriverOp::SetLimit { pod, limit }),
        create(),
        create(),
        add(),
        add(),
        init(),
        init(),
        (enclave(), pages()).prop_map(|(enclave, pages)| DriverOp::Augment { enclave, pages }),
        (enclave(), pages()).prop_map(|(enclave, pages)| DriverOp::Trim { enclave, pages }),
        enclave().prop_map(|enclave| DriverOp::Destroy { enclave }),
        pod().prop_map(|pod| DriverOp::RemovePod { pod }),
        (enclave(), pod()).prop_map(|(enclave, pod)| DriverOp::Migrate { enclave, pod }),
        any::<bool>().prop_map(DriverOp::Enforce),
    ];
    (0usize..2, op)
}

/// One machine and what the test knows of it without asking the driver's
/// accounts: the limits it set, whether it enforces them, and every
/// enclave id the driver returned.
struct Machine {
    driver: SgxDriver,
    limits: [Option<EpcPages>; PODS.len()],
    enforce: bool,
    ids: Vec<EnclaveId>,
}

impl Machine {
    fn new(platform: u64, paging: bool) -> Self {
        Machine {
            driver: SgxDriver::new(SgxVersion::Sgx2, tiny_config(paging)).with_platform(platform),
            limits: [None; PODS.len()],
            enforce: true,
            ids: Vec::new(),
        }
    }

    fn pick(&self, enclave: usize) -> Option<EnclaveId> {
        (!self.ids.is_empty()).then(|| self.ids[enclave % self.ids.len()])
    }

    /// Σ committed over the enclaves naming `pod` — the oracle.
    fn scan(&self, pod: &CgroupPath) -> EpcPages {
        self.driver
            .enclaves()
            .filter(|e| e.pod() == pod)
            .map(|e| e.committed())
            .sum()
    }

    /// What the limit check must answer for `pod` owning `owned` pages.
    fn admission(&self, pod: &CgroupPath, owned: EpcPages) -> Result<(), SgxError> {
        if !self.enforce {
            return Ok(());
        }
        let at = PODS
            .iter()
            .position(|p| *p == pod.as_str())
            .expect("a test pod");
        match self.limits[at] {
            None => Err(SgxError::NoPodLimit { pod: pod.clone() }),
            Some(limit) if owned > limit => Err(SgxError::PodLimitExceeded {
                pod: pod.clone(),
                owned,
                limit,
            }),
            Some(_) => Ok(()),
        }
    }

    /// What `EAUG` of `pages` must answer past the limit check: the EPC's
    /// capacity errors when paging is off.
    fn capacity(&self, committed: EpcPages, pages: EpcPages, paging: bool) -> Result<(), SgxError> {
        let epc = self.driver.epc();
        if paging {
            Ok(())
        } else if committed + pages > epc.total_pages() {
            Err(SgxError::EpcOverCapacity {
                requested: committed + pages,
                usable: epc.total_pages(),
            })
        } else if pages > epc.free_pages() {
            Err(SgxError::EpcExhausted {
                requested: pages,
                free: epc.free_pages(),
            })
        } else {
            Ok(())
        }
    }
}

/// Holds `outcome` to `expected`: `None` for an unknown enclave, `Some(None)`
/// for one in the wrong lifecycle state, `Some(Some(answer))` otherwise.
fn check_outcome(
    id: EnclaveId,
    expected: Option<Option<Result<(), SgxError>>>,
    outcome: Result<(), SgxError>,
) -> Result<(), TestCaseError> {
    match expected {
        None => prop_assert_eq!(outcome, Err(SgxError::UnknownEnclave(id))),
        Some(None) => prop_assert!(
            matches!(outcome, Err(SgxError::InvalidState { .. })),
            "{:?}",
            outcome
        ),
        Some(Some(expected)) => prop_assert_eq!(outcome, expected),
    }
    Ok(())
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
            let committed: EpcPages = ids
                .iter()
                .filter_map(|&id| epc.usage(id))
                .map(|usage| usage.committed)
                .sum();
            prop_assert_eq!(epc.committed_pages(), committed);
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
        for pages in sizes.iter() {
            let enclave = driver.create_enclave(pod.clone());
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
        for pages in sizes.iter() {
            let e = driver.create_enclave(pod.clone());
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The driver's per-pod account equals, after every call, the sum of
    /// the pod's enclaves counted one by one, and the admission checks of
    /// `EINIT` and `EAUG` answer what that count predicts — with several
    /// enclaves under one cgroup, cgroups that never set a limit, limits
    /// set twice, enclaves destroyed singly, by pod removal and by
    /// migration, and enforcement switched on and off.
    #[test]
    fn pod_accounts_equal_a_scan_of_the_enclaves(
        ops in prop::collection::vec(driver_op_strategy(), 1..100),
        paging in any::<bool>(),
    ) {
        let mut machines = [Machine::new(0, paging), Machine::new(1, paging)];
        let pods: Vec<CgroupPath> = PODS.iter().map(|&p| CgroupPath::new(p)).collect();
        for (step, (machine, op)) in ops.into_iter().enumerate() {
            let [zero, one] = &mut machines;
            let (m, other) = if machine == 0 { (zero, one) } else { (one, zero) };
            match op {
                DriverOp::SetLimit { pod, limit } => {
                    let limit = EpcPages::new(limit);
                    let expected = match m.limits[pod] {
                        None => Ok(()),
                        Some(_) => Err(SgxError::LimitAlreadySet { pod: pods[pod].clone() }),
                    };
                    prop_assert_eq!(m.driver.set_pod_limit(&pods[pod], limit), expected);
                    m.limits[pod].get_or_insert(limit);
                }
                DriverOp::Create { pod } => {
                    let id = m.driver.create_enclave(pods[pod].clone());
                    m.ids.push(id);
                }
                DriverOp::Add { enclave, pages } => {
                    if let Some(id) = m.pick(enclave) {
                        let _ = m.driver.add_pages(id, EpcPages::new(pages));
                    }
                }
                DriverOp::Init { enclave } => {
                    if let Some(id) = m.pick(enclave) {
                        let expected = m.driver.enclave(id).map(|e| {
                            (e.state() == EnclaveState::Created)
                                .then(|| m.admission(e.pod(), m.scan(e.pod())))
                        });
                        check_outcome(id, expected, m.driver.init_enclave(id))?;
                    }
                }
                DriverOp::Augment { enclave, pages } => {
                    if let Some(id) = m.pick(enclave) {
                        let pages = EpcPages::new(pages);
                        let expected = m.driver.enclave(id).map(|e| {
                            (e.state() == EnclaveState::Initialized).then(|| {
                                m.admission(e.pod(), m.scan(e.pod()) + pages)
                                    .and_then(|()| m.capacity(e.committed(), pages, paging))
                            })
                        });
                        check_outcome(id, expected, m.driver.augment_pages(id, pages).map(drop))?;
                    }
                }
                DriverOp::Trim { enclave, pages } => {
                    if let Some(id) = m.pick(enclave) {
                        let _ = m.driver.trim_pages(id, EpcPages::new(pages));
                    }
                }
                DriverOp::Destroy { enclave } => {
                    if let Some(id) = m.pick(enclave) {
                        let _ = m.driver.destroy_enclave(id);
                    }
                }
                DriverOp::RemovePod { pod } => {
                    m.driver.remove_pod(&pods[pod]);
                    m.limits[pod] = None;
                    prop_assert!(
                        m.driver.enclaves().all(|e| e.pod() != &pods[pod]),
                        "step {}: an enclave outlived its pod", step
                    );
                }
                DriverOp::Migrate { enclave, pod } => {
                    let key = MigrationKey::derive(0, 1, step as u64);
                    let checkpoint = m
                        .pick(enclave)
                        .and_then(|id| m.driver.checkpoint_enclave(id, "svc", key).ok());
                    if let Some(checkpoint) = checkpoint {
                        if let Ok(id) = other.driver.restore_enclave(pods[pod].clone(), checkpoint, key) {
                            other.ids.push(id);
                        }
                    }
                }
                DriverOp::Enforce(on) => {
                    m.driver.set_enforce_limits(on);
                    m.enforce = on;
                }
            }

            for (at, m) in machines.iter().enumerate() {
                for pod in &pods {
                    prop_assert_eq!(
                        m.driver.pages_for_pod(pod),
                        m.scan(pod),
                        "step {}, machine {}, {}", step, at, pod
                    );
                }
                let committed: EpcPages = m.driver.enclaves().map(|e| e.committed()).sum();
                prop_assert_eq!(m.driver.epc().committed_pages(), committed);
                prop_assert!(m.driver.epc().check_invariants());
            }
        }
    }
}
