//! Resource accounting and billing.
//!
//! The paper's trust model (§III) has providers "interested in offering an
//! efficient service… for selfish economic reasons", and §VI-F spells out
//! the incentive structure that strict limits create:
//!
//! > *"if the user declares too high a limit for his container, then the
//! > infrastructure provider will charge him for the additional
//! > resources. On the other hand, declaring too low resource usages will
//! > lead to the container being denied service."*
//!
//! This module implements that accounting: pods are billed for their
//! **advertised requests** (what the scheduler reserved) over their
//! **running time** — so over-declaring costs money, under-declaring
//! costs service, and declaring truthfully is the equilibrium.

use cluster::api::PodUid;

use crate::server::{PodOutcome, PodRecord};

/// Unit prices. EPC is priced per MiB·hour and standard memory per
/// GiB·hour; the ~800× price gap mirrors the ~788× scarcity gap of the
/// paper's cluster (187 MiB of EPC vs 144 GiB of memory, §VI-E).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceSheet {
    /// Price of one GiB·hour of standard memory.
    pub memory_gib_hour: f64,
    /// Price of one MiB·hour of EPC.
    pub epc_mib_hour: f64,
}

impl PriceSheet {
    /// Default prices: memory at a nominal 0.005/GiB·h; EPC priced by the
    /// same capacity-scarcity ratio as the paper's cluster.
    pub fn paper_cluster() -> Self {
        PriceSheet {
            memory_gib_hour: 0.005,
            // 144 GiB of memory vs 187 MiB of EPC ⇒ one MiB of EPC is as
            // scarce as ≈788 MiB of memory.
            epc_mib_hour: 0.005 * (144.0 * 1024.0 / 187.0) / 1024.0,
        }
    }
}

impl Default for PriceSheet {
    fn default() -> Self {
        PriceSheet::paper_cluster()
    }
}

/// One pod's bill.
#[derive(Debug, Clone, PartialEq)]
pub struct InvoiceLine {
    /// The pod billed.
    pub uid: PodUid,
    /// Pod name.
    pub name: String,
    /// Hours the reservation was held (start → finish).
    pub reserved_hours: f64,
    /// Charge for the standard-memory reservation.
    pub memory_cost: f64,
    /// Charge for the EPC reservation.
    pub epc_cost: f64,
}

impl InvoiceLine {
    /// Total charge for the pod.
    pub(crate) fn total(&self) -> f64 {
        self.memory_cost + self.epc_cost
    }
}

/// A bill covering a set of pod records.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Invoice {
    lines: Vec<InvoiceLine>,
}

impl Invoice {
    /// Bills every record that held resources (ran to completion, is
    /// still running at `Invoice` time — not billed, it has no finish —
    /// or was denied, which holds nothing and costs nothing).
    ///
    /// Pods are charged for their advertised **requests** over the time
    /// the reservation was held. Lines follow the records' order —
    /// uid order for an [`Orchestrator::records`](crate::Orchestrator::records)
    /// table or a replay's runs.
    pub fn compute<'a>(
        records: impl IntoIterator<Item = &'a PodRecord>,
        prices: &PriceSheet,
    ) -> Self {
        let mut lines = Vec::new();
        for record in records {
            if !matches!(record.outcome, PodOutcome::Completed { .. }) {
                continue;
            }
            let (Some(start), Some(finish)) = (record.started_at, record.finished_at) else {
                continue;
            };
            let hours = finish.saturating_since(start).as_hours_f64();
            lines.push(InvoiceLine {
                uid: record.uid,
                name: record.name.clone(),
                reserved_hours: hours,
                memory_cost: record.mem_request.as_gib_f64() * hours * prices.memory_gib_hour,
                epc_cost: record.epc_request.as_mib_f64() * hours * prices.epc_mib_hour,
            });
        }
        Invoice { lines }
    }

    /// The individual lines, in uid order.
    pub fn lines(&self) -> &[InvoiceLine] {
        &self.lines
    }

    /// Grand total.
    pub fn total(&self) -> f64 {
        self.lines.iter().map(InvoiceLine::total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Orchestrator, OrchestratorConfig};
    use cluster::api::PodSpec;
    use cluster::topology::ClusterSpec;
    use des::SimTime;
    use sgx_sim::units::{ByteSize, EpcPages};
    use stress::Stressor;

    fn line_for(invoice: &Invoice, uid: PodUid) -> Option<&InvoiceLine> {
        invoice.lines().iter().find(|l| l.uid == uid)
    }

    fn run_and_bill(specs: Vec<PodSpec>) -> (Vec<PodUid>, Invoice) {
        let mut orch = Orchestrator::new(ClusterSpec::paper_cluster(), OrchestratorConfig::paper());
        let uids: Vec<PodUid> = specs
            .into_iter()
            .map(|s| orch.submit(s, SimTime::ZERO))
            .collect();
        orch.scheduler_pass(SimTime::from_secs(5));
        for &uid in &uids {
            // Denied pods cannot complete; ignore those errors.
            let _ = orch.complete_pod(uid, SimTime::from_secs(3605));
        }
        let invoice = Invoice::compute(orch.records(), &PriceSheet::paper_cluster());
        (uids, invoice)
    }

    #[test]
    fn over_declaring_costs_more_than_truthful() {
        // Two pods using 8 MiB of EPC for an hour; one truthfully requests
        // 8 MiB, the other over-declares 32 MiB.
        let truthful = PodSpec::builder("truthful")
            .sgx_resources(ByteSize::from_mib(8))
            .build();
        let greedy = PodSpec::builder("greedy")
            .requirements(cluster::api::ResourceRequirements::exact(
                cluster::api::Resources::with_epc(ByteSize::ZERO, EpcPages::from_mib_ceil(32)),
            ))
            .stressor(Stressor::epc(ByteSize::from_mib(8)))
            .build();
        let (uids, invoice) = run_and_bill(vec![truthful, greedy]);
        let t = line_for(&invoice, uids[0]).expect("truthful billed");
        let g = line_for(&invoice, uids[1]).expect("greedy billed");
        assert!(
            g.total() > 3.5 * t.total(),
            "over-declaring must cost ≈4×: {} vs {}",
            g.total(),
            t.total()
        );
        assert!((invoice.total() - (t.total() + g.total())).abs() < 1e-12);
    }

    #[test]
    fn under_declaring_is_denied_and_unbilled() {
        let cheat = PodSpec::builder("cheat")
            .requirements(cluster::api::ResourceRequirements::exact(
                cluster::api::Resources::with_epc(ByteSize::ZERO, EpcPages::ONE),
            ))
            .stressor(Stressor::epc(ByteSize::from_mib(16)))
            .build();
        let (uids, invoice) = run_and_bill(vec![cheat]);
        // Denied service (§VI-F) — and no revenue for the provider.
        assert!(line_for(&invoice, uids[0]).is_none());
        assert_eq!(invoice.total(), 0.0);
    }

    #[test]
    fn epc_is_priced_by_scarcity() {
        let prices = PriceSheet::paper_cluster();
        // One MiB·hour of EPC costs as much as ≈788 MiB·hours of memory.
        let ratio = prices.epc_mib_hour / (prices.memory_gib_hour / 1024.0);
        assert!((ratio - 788.6).abs() < 1.0, "ratio={ratio}");
    }

    #[test]
    fn hours_reflect_running_time() {
        let spec = PodSpec::builder("hour-long")
            .sgx_resources(ByteSize::from_mib(10))
            .build();
        let (uids, invoice) = run_and_bill(vec![spec]);
        let line = line_for(&invoice, uids[0]).unwrap();
        assert!(
            (line.reserved_hours - 1.0).abs() < 0.01,
            "{}",
            line.reserved_hours
        );
        assert_eq!(line.memory_cost, 0.0);
        assert!(line.epc_cost > 0.0);
    }
}
