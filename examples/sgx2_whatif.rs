//! §VI-G — what changes with SGX 2?
//!
//! Two views: (1) the EDMM programming model at the driver level —
//! enclaves growing and shrinking after `EINIT`, with the pod limit still
//! enforced; (2) the scheduling impact of the larger EPCs SGX 2 enables,
//! i.e. the Fig. 7 sweep condensed to turnaround numbers.
//!
//! ```text
//! cargo run --release -p examples --bin sgx2_whatif
//! ```

use sgx_orchestrator::prelude::*;
use sgx_sim::driver::SgxDriver;
use sgx_sim::{CgroupPath, SgxError};
use simulation::analysis::mean_waiting_secs;

fn main() {
    // --- EDMM at the driver level. --------------------------------------
    println!("SGX2 EDMM (dynamic memory management):");
    let mut driver = SgxDriver::sgx2_default();
    let pod = CgroupPath::new("/kubepods/elastic-service");
    driver
        .set_pod_limit(&pod, EpcPages::from_mib_ceil(32))
        .unwrap();
    let enclave = driver.create_enclave(pod.clone());
    driver
        .add_pages(enclave, EpcPages::from_mib_ceil(8))
        .unwrap();
    driver.init_enclave(enclave).unwrap();
    println!("  initialised with 8 MiB committed");

    driver
        .augment_pages(enclave, EpcPages::from_mib_ceil(16))
        .unwrap();
    println!(
        "  EAUG +16 MiB while running -> pod now owns {}",
        driver.pages_for_pod(&pod)
    );
    driver
        .trim_pages(enclave, EpcPages::from_mib_ceil(20))
        .unwrap();
    println!(
        "  trim -20 MiB               -> pod now owns {}",
        driver.pages_for_pod(&pod)
    );
    let denied = driver.augment_pages(enclave, EpcPages::from_mib_ceil(40));
    assert!(matches!(denied, Err(SgxError::PodLimitExceeded { .. })));
    println!("  EAUG past the pod limit    -> denied (enforcement is SGX2-ready)");

    // On SGX1 the same call is impossible.
    let mut sgx1 = SgxDriver::sgx1_default();
    sgx1.set_pod_limit(&pod, EpcPages::from_mib_ceil(32))
        .unwrap();
    let e1 = sgx1.create_enclave(pod.clone());
    sgx1.add_pages(e1, EpcPages::from_mib_ceil(8)).unwrap();
    sgx1.init_enclave(e1).unwrap();
    assert!(matches!(
        sgx1.augment_pages(e1, EpcPages::ONE),
        Err(SgxError::DynamicMemoryUnsupported)
    ));
    println!("  (the same EAUG on SGX1: DynamicMemoryUnsupported)");

    // --- Scheduling impact of bigger EPCs. -------------------------------
    println!("\nscheduling impact of larger EPCs (quick trace, 100 % SGX jobs):");
    for mib in [32u64, 64, 128, 256] {
        let result = Experiment::quick(42)
            .sgx_ratio(1.0)
            .epc_total(ByteSize::from_mib(mib))
            .run();
        println!(
            "  EPC {mib:>3} MiB: mean wait {:>7.1} s, makespan {}",
            mean_waiting_secs(&result, None),
            result.end_time(),
        );
    }
    println!("(the full Fig. 7 sweep: cargo run --release -p bench --bin fig7_epc_sweep)");
}
