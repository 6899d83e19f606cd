//! Property test: the driver's per-enclave tables — its enclave records
//! and the EPC's page usage, each one id-sorted row an enclave — answer
//! what a model keeping `BTreeMap`s answers. Random create / add / init /
//! augment / trim / ecall / destroy / checkpoint-and-restore /
//! `remove_pod` sequences, with limits set and enforcement toggled, run
//! on two SGX2 machines whose EPC pages or refuses when full. The model
//! restates the EPC accounting (eviction takes the enclave with the most
//! resident pages, the lowest id on a tie) over its own maps. After every
//! call the call's answer, `enclave(id)` and `epc().usage(id)` for every
//! id the machine ever handed out, the id order of `enclaves()`,
//! `sgx_nr_free_pages()`, `denied_inits()` and `check_invariants()` must
//! equal the model's — so every eviction victim does too.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use proptest::prelude::*;

use sgx_sim::driver::SgxDriver;
use sgx_sim::enclave::EnclaveState;
use sgx_sim::epc::{EnclaveUsage, EpcConfig, PagingActivity};
use sgx_sim::migration::MigrationKey;
use sgx_sim::units::{ByteSize, EpcPages};
use sgx_sim::{CgroupPath, EnclaveId, SgxError, SgxVersion};

const PODS: [&str; 3] = ["/kubepods/pod-1", "/kubepods/pod-2", "/kubepods/pod-10"];

/// Usable pages of each machine's EPC.
const USABLE: u64 = 300;

#[derive(Debug, Clone)]
enum Op {
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
    Ecall {
        enclave: usize,
        pages: u64,
    },
    Destroy {
        enclave: usize,
    },
    /// Checkpoint an enclave and restore it under `pod` on machine `to`
    /// (this one or the other).
    Migrate {
        enclave: usize,
        pod: usize,
        to: usize,
    },
    RemovePod {
        pod: usize,
    },
    Enforce(bool),
}

fn ops() -> impl Strategy<Value = Vec<(usize, Op)>> {
    let pod = || 0usize..PODS.len();
    let enclave = || 0usize..16;
    // Half the page counts are multiples of 40, so enclaves often hold
    // equal resident pages and eviction's tie-break decides.
    let pages = || prop_oneof![0u64..160, (0u64..4).prop_map(|k| k * 40)];
    let create = || pod().prop_map(|pod| Op::Create { pod });
    let add = || (enclave(), pages()).prop_map(|(enclave, pages)| Op::Add { enclave, pages });
    let init = || enclave().prop_map(|enclave| Op::Init { enclave });
    let ecall = || (enclave(), pages()).prop_map(|(enclave, pages)| Op::Ecall { enclave, pages });
    // Creating and filling are drawn three and four times as often as
    // the rest, so a machine's EPC fills and pages.
    let op = prop_oneof![
        (pod(), 0u64..600).prop_map(|(pod, limit)| Op::SetLimit { pod, limit }),
        create(),
        create(),
        create(),
        add(),
        add(),
        add(),
        add(),
        init(),
        init(),
        (enclave(), pages()).prop_map(|(enclave, pages)| Op::Augment { enclave, pages }),
        (enclave(), pages()).prop_map(|(enclave, pages)| Op::Trim { enclave, pages }),
        ecall(),
        ecall(),
        enclave().prop_map(|enclave| Op::Destroy { enclave }),
        (enclave(), pod(), 0usize..2).prop_map(|(enclave, pod, to)| Op::Migrate {
            enclave,
            pod,
            to
        }),
        pod().prop_map(|pod| Op::RemovePod { pod }),
        any::<bool>().prop_map(Op::Enforce),
    ];
    prop::collection::vec((0usize..2, op), 1..160)
}

/// What the model knows of an enclave's record.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    pod: usize,
    state: EnclaveState,
    committed: EpcPages,
    ecalls: u64,
}

/// One machine's driver as the model keeps it.
#[derive(Debug)]
struct Model {
    paging: bool,
    free: EpcPages,
    records: BTreeMap<EnclaveId, Record>,
    usage: BTreeMap<EnclaveId, EnclaveUsage>,
    limits: BTreeMap<usize, EpcPages>,
    enforce: bool,
    denied_inits: u64,
    /// The number the next enclave id shows.
    next_id: u64,
}

fn number(id: EnclaveId) -> u64 {
    let shown = format!("{id:?}");
    shown["EnclaveId(".len()..shown.len() - 1]
        .parse()
        .expect("EnclaveId(n)")
}

fn path(pod: usize) -> CgroupPath {
    CgroupPath::new(PODS[pod])
}

/// The error with its reason text dropped: the model names the variant
/// and the enclave, not the wording.
fn plain(error: SgxError) -> SgxError {
    match error {
        SgxError::InvalidState { enclave, .. } => SgxError::InvalidState {
            enclave,
            reason: "",
        },
        other => other,
    }
}

impl Model {
    fn new(paging: bool) -> Self {
        Model {
            paging,
            free: EpcPages::new(USABLE),
            records: BTreeMap::new(),
            usage: BTreeMap::new(),
            limits: BTreeMap::new(),
            enforce: true,
            denied_inits: 0,
            next_id: 0,
        }
    }

    fn invalid(id: EnclaveId) -> SgxError {
        SgxError::InvalidState {
            enclave: id,
            reason: "",
        }
    }

    /// The record of `id`, which must be in `state`.
    fn record(&self, id: EnclaveId, state: EnclaveState) -> Result<&Record, SgxError> {
        let record = self.records.get(&id).ok_or(SgxError::UnknownEnclave(id))?;
        if record.state == state {
            Ok(record)
        } else {
            Err(Self::invalid(id))
        }
    }

    /// Pages `pod`'s enclaves own.
    fn owned(&self, pod: usize) -> EpcPages {
        self.records
            .values()
            .filter(|record| record.pod == pod)
            .map(|record| record.committed)
            .sum()
    }

    fn check_limit(&self, pod: usize, growth: EpcPages) -> Result<(), SgxError> {
        if !self.enforce {
            return Ok(());
        }
        let limit = *self
            .limits
            .get(&pod)
            .ok_or(SgxError::NoPodLimit { pod: path(pod) })?;
        let owned = self.owned(pod) + growth;
        if owned > limit {
            return Err(SgxError::PodLimitExceeded {
                pod: path(pod),
                owned,
                limit,
            });
        }
        Ok(())
    }

    /// Pages out `target` resident pages, one victim at a time: the
    /// enclave in the table with the most resident pages, the first in id
    /// order on a tie. The enclave being served is out of the table
    /// meanwhile, so it is never its own victim.
    fn evict(&mut self, target: EpcPages) -> EpcPages {
        let mut evicted = EpcPages::ZERO;
        while evicted < target {
            let mut victim: Option<&mut EnclaveUsage> = None;
            for usage in self.usage.values_mut() {
                let better = match &victim {
                    None => !usage.resident.is_zero(),
                    Some(best) => usage.resident > best.resident,
                };
                if better {
                    victim = Some(usage);
                }
            }
            let Some(usage) = victim else { break };
            let take = (target - evicted).min(usage.resident);
            usage.resident -= take;
            usage.paged_out += take;
            self.free += take;
            evicted += take;
        }
        evicted
    }

    /// The EPC side of `EADD`/`EAUG` onto `usage`, which is out of the
    /// table while it is served.
    fn commit(
        &mut self,
        usage: &mut EnclaveUsage,
        pages: EpcPages,
    ) -> Result<PagingActivity, SgxError> {
        let total = EpcPages::new(USABLE);
        if !self.paging {
            if usage.committed + pages > total {
                return Err(SgxError::EpcOverCapacity {
                    requested: usage.committed + pages,
                    usable: total,
                });
            }
            if pages > self.free {
                return Err(SgxError::EpcExhausted {
                    requested: pages,
                    free: self.free,
                });
            }
        }
        let evicted = self.evict(pages.saturating_sub(self.free));
        let grabbed = pages.min(self.free);
        self.free -= grabbed;
        usage.committed += pages;
        usage.resident += grabbed;
        usage.paged_out += pages - grabbed;
        Ok(PagingActivity { evicted, faults: 0 })
    }

    /// `commit` on a registered enclave, and its record's count.
    fn grow(&mut self, id: EnclaveId, pages: EpcPages) -> Result<PagingActivity, SgxError> {
        let mut usage = self.usage.remove(&id).expect("a registered enclave");
        let outcome = self.commit(&mut usage, pages);
        self.usage.insert(id, usage);
        if outcome.is_ok() {
            self.records.get_mut(&id).expect("registered").committed += pages;
        }
        outcome
    }

    fn mint(&mut self, id: EnclaveId) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            number(id),
            self.next_id,
            "ids are minted in ascending order"
        );
        self.next_id += 1;
        Ok(())
    }

    fn create(&mut self, id: EnclaveId, pod: usize) {
        let record = Record {
            pod,
            state: EnclaveState::Created,
            committed: EpcPages::ZERO,
            ecalls: 0,
        };
        self.records.insert(id, record);
        self.usage.insert(id, EnclaveUsage::default());
    }

    fn add(&mut self, id: EnclaveId, pages: EpcPages) -> Result<PagingActivity, SgxError> {
        self.record(id, EnclaveState::Created)?;
        self.grow(id, pages)
    }

    fn init(&mut self, id: EnclaveId) -> Result<(), SgxError> {
        let pod = self.record(id, EnclaveState::Created)?.pod;
        if let Err(denied) = self.check_limit(pod, EpcPages::ZERO) {
            self.denied_inits += 1;
            return Err(denied);
        }
        self.records.get_mut(&id).expect("registered").state = EnclaveState::Initialized;
        Ok(())
    }

    fn augment(&mut self, id: EnclaveId, pages: EpcPages) -> Result<PagingActivity, SgxError> {
        let pod = self.record(id, EnclaveState::Initialized)?.pod;
        self.check_limit(pod, pages)?;
        self.grow(id, pages)
    }

    fn trim(&mut self, id: EnclaveId, pages: EpcPages) -> Result<(), SgxError> {
        self.record(id, EnclaveState::Initialized)?;
        let usage = self.usage.get_mut(&id).expect("registered");
        if usage.committed < pages {
            return Err(Self::invalid(id));
        }
        let from_swap = pages.min(usage.paged_out);
        let from_resident = pages - from_swap;
        usage.paged_out -= from_swap;
        usage.resident -= from_resident;
        usage.committed -= pages;
        self.free += from_resident;
        self.records.get_mut(&id).expect("registered").committed -= pages;
        Ok(())
    }

    fn ecall(&mut self, id: EnclaveId, pages: EpcPages) -> Result<PagingActivity, SgxError> {
        self.record(id, EnclaveState::Initialized)?;
        let mut usage = self.usage.remove(&id).expect("registered");
        let mut activity = PagingActivity::default();
        if pages > usage.committed {
            self.usage.insert(id, usage);
            return Err(Self::invalid(id));
        }
        let missing = pages.saturating_sub(usage.resident);
        if !missing.is_zero() {
            activity.evicted = self.evict(missing.saturating_sub(self.free));
            let faulted = missing.min(self.free);
            self.free -= faulted;
            usage.resident += faulted;
            usage.paged_out -= faulted;
            usage.faults += faulted.count();
            activity.faults = faulted.count();
        }
        self.usage.insert(id, usage);
        self.records.get_mut(&id).expect("registered").ecalls += 1;
        Ok(activity)
    }

    fn destroy(&mut self, id: EnclaveId) -> Result<EnclaveUsage, SgxError> {
        self.records
            .remove(&id)
            .ok_or(SgxError::UnknownEnclave(id))?;
        let usage = self.usage.remove(&id).expect("registered");
        self.free += usage.resident;
        Ok(usage)
    }

    fn remove_pod(&mut self, pod: usize) {
        self.limits.remove(&pod);
        let ids: Vec<EnclaveId> = self
            .records
            .iter()
            .filter(|(_, record)| record.pod == pod)
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            self.destroy(id).expect("listed above");
        }
    }

    /// A restore under `pod` of `committed` pages and `ecalls` calls:
    /// `ECREATE`, `EADD`, `EINIT`, and on failure the new enclave is
    /// destroyed again (what it paged out of others stays paged out).
    /// Returns the record and usage of the restored enclave.
    fn restore(
        &mut self,
        pod: usize,
        committed: EpcPages,
        ecalls: u64,
    ) -> Result<(Record, EnclaveUsage), SgxError> {
        let mut usage = EnclaveUsage::default();
        let added = self.commit(&mut usage, committed);
        let outcome = added.and_then(|_| {
            let owned = self.owned(pod) + committed;
            let check = if !self.enforce {
                Ok(())
            } else {
                match self.limits.get(&pod) {
                    None => Err(SgxError::NoPodLimit { pod: path(pod) }),
                    Some(&limit) if owned > limit => Err(SgxError::PodLimitExceeded {
                        pod: path(pod),
                        owned,
                        limit,
                    }),
                    Some(_) => Ok(()),
                }
            };
            check.inspect_err(|_| self.denied_inits += 1)
        });
        match outcome {
            Ok(()) => Ok((
                Record {
                    pod,
                    state: EnclaveState::Initialized,
                    committed,
                    ecalls,
                },
                usage,
            )),
            Err(error) => {
                self.free += usage.resident;
                Err(error)
            }
        }
    }
}

struct Machine {
    driver: SgxDriver,
    model: Model,
    /// Every id the driver handed out, destroyed ones included.
    ids: Vec<EnclaveId>,
}

impl Machine {
    fn new(platform: u64, paging: bool) -> Self {
        let config = EpcConfig {
            prm: ByteSize::from_bytes(USABLE * 4096 * 2),
            usable: ByteSize::from_bytes(USABLE * 4096),
            paging_enabled: paging,
        };
        Machine {
            driver: SgxDriver::new(SgxVersion::Sgx2, config).with_platform(platform),
            model: Model::new(paging),
            ids: Vec::new(),
        }
    }

    fn pick(&self, enclave: usize) -> Option<EnclaveId> {
        (!self.ids.is_empty()).then(|| self.ids[enclave % self.ids.len()])
    }

    /// Every question the tables answer, against the model.
    fn check(&self) -> Result<(), TestCaseError> {
        let driver = &self.driver;
        let model = &self.model;
        for &id in &self.ids {
            let record = driver.enclave(id).map(|enclave| {
                prop_assert_eq!(enclave.id(), id);
                let pod = PODS
                    .iter()
                    .position(|p| *p == enclave.pod().as_str())
                    .expect("a test pod");
                Ok(Record {
                    pod,
                    state: enclave.state(),
                    committed: enclave.committed(),
                    ecalls: enclave.ecalls(),
                })
            });
            let record = record.transpose()?;
            prop_assert_eq!(record.as_ref(), model.records.get(&id), "{}", id);
            prop_assert_eq!(
                driver.epc().usage(id),
                model.usage.get(&id).copied(),
                "{}",
                id
            );
        }
        let walked: Vec<EnclaveId> = driver.enclaves().map(|enclave| enclave.id()).collect();
        prop_assert_eq!(walked, model.records.keys().copied().collect::<Vec<_>>());
        prop_assert_eq!(driver.sgx_nr_free_pages(), model.free);
        prop_assert_eq!(driver.denied_inits(), model.denied_inits);
        prop_assert!(driver.epc().check_invariants());
        let committed: EpcPages = model.usage.values().map(|usage| usage.committed).sum();
        prop_assert_eq!(driver.epc().committed_pages(), committed);
        Ok(())
    }
}

/// The machine `at` and the other one.
fn pair(machines: &mut [Machine; 2], at: usize) -> (&mut Machine, &mut Machine) {
    let [a, b] = machines;
    if at == 0 {
        (a, b)
    } else {
        (b, a)
    }
}

fn apply(machines: &mut [Machine; 2], at: usize, op: &Op) -> Result<(), TestCaseError> {
    let (m, other) = pair(machines, at);
    match *op {
        Op::SetLimit { pod, limit } => {
            let limit = EpcPages::new(limit);
            let outcome = m.driver.set_pod_limit(&path(pod), limit);
            match m.model.limits.entry(pod) {
                Entry::Occupied(_) => {
                    prop_assert_eq!(outcome, Err(SgxError::LimitAlreadySet { pod: path(pod) }))
                }
                Entry::Vacant(unset) => {
                    prop_assert_eq!(outcome, Ok(()));
                    unset.insert(limit);
                }
            }
        }
        Op::Create { pod } => {
            let id = m.driver.create_enclave(path(pod));
            m.model.mint(id)?;
            m.model.create(id, pod);
            m.ids.push(id);
        }
        Op::Add { enclave, pages } => {
            let Some(id) = m.pick(enclave) else {
                return Ok(());
            };
            let pages = EpcPages::new(pages);
            let outcome = m.driver.add_pages(id, pages).map_err(plain);
            prop_assert_eq!(outcome, m.model.add(id, pages));
        }
        Op::Init { enclave } => {
            let Some(id) = m.pick(enclave) else {
                return Ok(());
            };
            let outcome = m.driver.init_enclave(id).map_err(plain);
            prop_assert_eq!(outcome, m.model.init(id));
        }
        Op::Augment { enclave, pages } => {
            let Some(id) = m.pick(enclave) else {
                return Ok(());
            };
            let pages = EpcPages::new(pages);
            let outcome = m.driver.augment_pages(id, pages).map_err(plain);
            prop_assert_eq!(outcome, m.model.augment(id, pages));
        }
        Op::Trim { enclave, pages } => {
            let Some(id) = m.pick(enclave) else {
                return Ok(());
            };
            let pages = EpcPages::new(pages);
            let outcome = m.driver.trim_pages(id, pages).map_err(plain);
            prop_assert_eq!(outcome, m.model.trim(id, pages));
        }
        Op::Ecall { enclave, pages } => {
            let Some(id) = m.pick(enclave) else {
                return Ok(());
            };
            let pages = EpcPages::new(pages);
            let outcome = m.driver.ecall(id, pages).map_err(plain);
            prop_assert_eq!(outcome, m.model.ecall(id, pages));
        }
        Op::Destroy { enclave } => {
            let Some(id) = m.pick(enclave) else {
                return Ok(());
            };
            let outcome = m.driver.destroy_enclave(id);
            prop_assert_eq!(outcome, m.model.destroy(id));
        }
        Op::RemovePod { pod } => {
            m.driver.remove_pod(&path(pod));
            m.model.remove_pod(pod);
        }
        Op::Enforce(enforce) => {
            m.driver.set_enforce_limits(enforce);
            m.model.enforce = enforce;
        }
        Op::Migrate { enclave, pod, to } => {
            let Some(id) = m.pick(enclave) else {
                return Ok(());
            };
            let key = MigrationKey::derive(1, 2, 3);
            let outcome = m.driver.checkpoint_enclave(id, "svc", key);
            let source = m.model.record(id, EnclaveState::Initialized).cloned();
            let checkpoint = match (outcome, source) {
                (Ok(checkpoint), Ok(source)) => {
                    prop_assert_eq!(checkpoint.committed(), source.committed);
                    m.model.destroy(id).expect("checked above");
                    (checkpoint, source.ecalls)
                }
                (outcome, source) => {
                    prop_assert_eq!(outcome.map(drop).map_err(plain), source.map(drop));
                    return Ok(());
                }
            };
            // The checkpoint goes to `to`: this machine (0) or the other.
            let target = if to == 0 { m } else { other };
            let (checkpoint, ecalls) = checkpoint;
            let committed = checkpoint.committed();
            let restored = target.driver.restore_enclave(path(pod), checkpoint, key);
            let expected = target.model.restore(pod, committed, ecalls);
            // A restore mints an id whether or not it succeeds.
            target.model.next_id += 1;
            match (restored, expected) {
                (Ok(id), Ok((record, usage))) => {
                    prop_assert_eq!(number(id), target.model.next_id - 1);
                    target.model.records.insert(id, record);
                    target.model.usage.insert(id, usage);
                    target.ids.push(id);
                }
                (restored, expected) => {
                    prop_assert_eq!(
                        restored.map(drop).map_err(|refused| plain(refused.error)),
                        expected.map(drop)
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn the_enclave_tables_answer_what_btree_maps_answer(
        paging in (any::<bool>(), any::<bool>()),
        ops in ops(),
    ) {
        let mut machines = [Machine::new(1, paging.0), Machine::new(2, paging.1)];
        for (step, (at, op)) in ops.iter().enumerate() {
            apply(&mut machines, *at, op)
                .map_err(|e| TestCaseError::fail(format!("step {step} {op:?}: {e}")))?;
            for machine in &machines {
                machine
                    .check()
                    .map_err(|e| TestCaseError::fail(format!("after step {step} {op:?}: {e}")))?;
            }
        }
    }
}
