//! EPC allocator and driver admission throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sgx_sim::driver::SgxDriver;
use sgx_sim::epc::{Epc, EpcConfig};
use sgx_sim::units::EpcPages;
use sgx_sim::{CgroupPath, Pid};

fn bench_commit_release(c: &mut Criterion) {
    let mut group = c.benchmark_group("epc/commit_release");
    for pages in [64u64, 1024, 8192] {
        group.bench_with_input(BenchmarkId::from_parameter(pages), &pages, |b, &pages| {
            let mut epc = Epc::new(EpcConfig::sgx1_default());
            let enclave = epc.register_enclave();
            b.iter(|| {
                epc.commit(enclave, EpcPages::new(pages)).unwrap();
                epc.release(enclave, EpcPages::new(pages)).unwrap();
                black_box(epc.free_pages())
            });
        });
    }
    group.finish();
}

fn bench_paging_pressure(c: &mut Criterion) {
    c.bench_function("epc/overcommit_eviction", |b| {
        b.iter_with_setup(
            || {
                let mut epc = Epc::new(EpcConfig::sgx1_default());
                let a = epc.register_enclave();
                let v = epc.register_enclave();
                epc.commit(a, EpcPages::new(20_000)).unwrap();
                (epc, v)
            },
            |(mut epc, victim)| {
                // Forces ~16 k evictions.
                black_box(epc.commit(victim, EpcPages::new(20_000)).unwrap().evicted)
            },
        );
    });
}

fn bench_enclave_lifecycle(c: &mut Criterion) {
    c.bench_function("driver/enclave_lifecycle", |b| {
        let mut driver = SgxDriver::sgx1_default();
        let pod = CgroupPath::new("/kubepods/bench");
        driver.set_pod_limit(&pod, EpcPages::new(10_000)).unwrap();
        b.iter(|| {
            let e = driver.create_enclave(Pid::new(1), pod.clone());
            driver.add_pages(e, EpcPages::new(2048)).unwrap();
            driver.init_enclave(e).unwrap();
            driver.destroy_enclave(e).unwrap();
            black_box(driver.sgx_nr_free_pages())
        });
    });
}

fn bench_admission_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("driver/admission_denied");
    group.bench_function("per_init", |b| {
        let mut driver = SgxDriver::sgx1_default();
        let pod = CgroupPath::new("/kubepods/limited");
        driver.set_pod_limit(&pod, EpcPages::ONE).unwrap();
        b.iter(|| {
            let e = driver.create_enclave(Pid::new(1), pod.clone());
            driver.add_pages(e, EpcPages::new(256)).unwrap();
            let denied = driver.init_enclave(e).is_err();
            driver.destroy_enclave(e).unwrap();
            black_box(denied)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_commit_release,
    bench_paging_pressure,
    bench_enclave_lifecycle,
    bench_admission_check
);
criterion_main!(benches);
