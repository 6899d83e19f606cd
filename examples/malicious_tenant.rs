//! The §VI-F attack, end to end: a malicious container declares a single
//! EPC page but maps half of its node's enclave memory. With the paper's
//! strict driver-side enforcement it is killed at `EINIT`; without it, it
//! squats and honest tenants queue behind it.
//!
//! ```text
//! cargo run --release -p examples --bin malicious_tenant
//! ```

use sgx_orchestrator::prelude::*;
use sgx_sim::driver::SgxDriver;
use sgx_sim::CgroupPath;
use simulation::analysis::mean_waiting_secs;

fn main() {
    // --- Driver level: watch the admission check fire. -----------------
    println!("driver-level view (modified isgx, §V-E):");
    let mut driver = SgxDriver::sgx1_default();
    let pod = CgroupPath::new("/kubepods/malicious-pod");
    driver.set_pod_limit(&pod, EpcPages::ONE).unwrap();

    let enclave = driver.create_enclave(pod.clone());
    driver
        .add_pages(enclave, ByteSize::from_mib_f64(46.75).to_epc_pages_ceil())
        .unwrap();
    match driver.init_enclave(enclave) {
        Err(cause) => println!("  EINIT denied: {cause}"),
        Ok(()) => unreachable!("the admission check must deny this enclave"),
    }
    // The Kubelet tears the killed pod down, returning its pages.
    driver.remove_pod(&pod);
    println!(
        "  after teardown: total={} free={} denied_inits={}",
        driver.sgx_nr_total_epc_pages(),
        driver.sgx_nr_free_pages(),
        driver.denied_inits(),
    );

    // --- Cluster level: the Fig. 11 comparison. ------------------------
    println!("\ncluster-level view (quick trace, 100 % SGX jobs):");
    for (label, enforce) in [("limits enforced", true), ("limits disabled", false)] {
        let result = Experiment::quick(42)
            .sgx_ratio(1.0)
            .limits(enforce)
            .malicious(0.5)
            .run();
        let malicious_denied = result
            .runs()
            .iter()
            .filter(|r| {
                r.malicious && matches!(r.record.outcome, orchestrator::PodOutcome::Denied { .. })
            })
            .count();
        println!(
            "  {label:<16}: honest mean wait {:>6.1} s | malicious pods denied {malicious_denied}/2 \
             | honest jobs killed at launch {}",
            mean_waiting_secs(&result, None),
            result.denied_count().saturating_sub(malicious_denied),
        );
    }
    println!("\n(at paper scale the gap widens to the Fig. 11 CDFs; run fig11_malicious)");
}
