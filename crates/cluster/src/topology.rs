//! Whole-cluster assembly.

use std::collections::BTreeMap;

use sgx_sim::units::ByteSize;

use crate::api::NodeName;
use crate::machine::MachineSpec;
use crate::node::{Node, NodeRole};

/// Declarative description of a cluster: named machines and their roles.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    members: Vec<(String, MachineSpec, NodeRole)>,
}

impl ClusterSpec {
    /// An empty spec.
    pub fn new() -> Self {
        ClusterSpec {
            members: Vec::new(),
        }
    }

    /// The paper's testbed (§VI-A): one Dell R330 master, two Dell R330
    /// workers (64 GiB each), two i7-6700 SGX nodes (8 GiB + 93.5 MiB
    /// usable EPC each).
    pub fn paper_cluster() -> Self {
        ClusterSpec::new()
            .with_node("master", MachineSpec::dell_r330(), NodeRole::Master)
            .with_node("std-1", MachineSpec::dell_r330(), NodeRole::Worker)
            .with_node("std-2", MachineSpec::dell_r330(), NodeRole::Worker)
            .with_node("sgx-1", MachineSpec::sgx_node(), NodeRole::Worker)
            .with_node("sgx-2", MachineSpec::sgx_node(), NodeRole::Worker)
    }

    /// The paper's testbed with the SGX nodes' usable EPC overridden —
    /// the §VI-D simulation sweep (32, 64, 128, 256 MiB).
    pub fn paper_cluster_with_epc(usable: ByteSize) -> Self {
        ClusterSpec::new()
            .with_node("master", MachineSpec::dell_r330(), NodeRole::Master)
            .with_node("std-1", MachineSpec::dell_r330(), NodeRole::Worker)
            .with_node("std-2", MachineSpec::dell_r330(), NodeRole::Worker)
            .with_node(
                "sgx-1",
                MachineSpec::sgx_node_with_usable_epc(usable),
                NodeRole::Worker,
            )
            .with_node(
                "sgx-2",
                MachineSpec::sgx_node_with_usable_epc(usable),
                NodeRole::Worker,
            )
    }

    /// The §VI-D *simulation* cluster: like the paper cluster but with a
    /// single SGX node carrying the whole simulated EPC of the given
    /// usable size. The Fig. 7 sweep labels runs by total EPC (32–256
    /// MiB); concentrating it on one node keeps every ≤ 23.4 MiB job
    /// schedulable even at the 32 MiB point.
    pub fn sim_cluster_with_total_epc(usable: ByteSize) -> Self {
        ClusterSpec::new()
            .with_node("master", MachineSpec::dell_r330(), NodeRole::Master)
            .with_node("std-1", MachineSpec::dell_r330(), NodeRole::Worker)
            .with_node("std-2", MachineSpec::dell_r330(), NodeRole::Worker)
            .with_node(
                "sgx-1",
                MachineSpec::sgx_node_with_usable_epc(usable),
                NodeRole::Worker,
            )
    }

    /// Adds a node (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn with_node(mut self, name: impl Into<String>, spec: MachineSpec, role: NodeRole) -> Self {
        let name = name.into();
        assert!(
            self.members.iter().all(|(n, ..)| *n != name),
            "duplicate node name `{name}`"
        );
        self.members.push((name, spec, role));
        self
    }

    /// The declared members.
    pub fn members(&self) -> &[(String, MachineSpec, NodeRole)] {
        &self.members
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec::new()
    }
}

/// A running cluster: the instantiated nodes, keyed (and iterated) by name
/// so traversal order is deterministic.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: BTreeMap<NodeName, Node>,
}

impl Cluster {
    /// Instantiates every node of a spec.
    pub fn build(spec: &ClusterSpec) -> Self {
        let nodes = spec
            .members()
            .iter()
            .map(|(name, machine, role)| {
                let name = NodeName::new(name.clone());
                (name.clone(), Node::new(name, *machine, *role))
            })
            .collect();
        Cluster { nodes }
    }

    /// All nodes in name order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values()
    }

    /// All nodes, mutably, in name order.
    pub fn nodes_mut(&mut self) -> impl Iterator<Item = &mut Node> {
        self.nodes.values_mut()
    }

    /// Worker nodes (the master is excluded), in name order.
    pub fn schedulable_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values().filter(|n| n.is_schedulable())
    }

    /// All worker nodes in name order, **including cordoned ones** — the
    /// set a scheduling snapshot captures, with cordon state carried as a
    /// flag instead of by omission so filter plugins can reject (and
    /// report on) cordoned nodes explicitly.
    pub fn workers(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .values()
            .filter(|n| n.role() == crate::node::NodeRole::Worker)
    }

    /// SGX-capable worker nodes, in name order.
    pub fn sgx_nodes(&self) -> impl Iterator<Item = &Node> {
        self.schedulable_nodes().filter(|n| n.has_sgx())
    }

    /// Registers a node at runtime — the autoscaler's scale-up path.
    /// Returns the name on success.
    ///
    /// # Errors
    ///
    /// Returns [`crate::error::ClusterError::NodeAlreadyRegistered`] when
    /// the name is taken; the existing node is left untouched.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        spec: MachineSpec,
        role: NodeRole,
    ) -> Result<NodeName, crate::error::ClusterError> {
        let name = NodeName::new(name.into());
        if self.nodes.contains_key(&name) {
            return Err(crate::error::ClusterError::NodeAlreadyRegistered(name));
        }
        self.nodes
            .insert(name.clone(), Node::new(name.clone(), spec, role));
        Ok(name)
    }

    /// Deregisters a node, returning it (with whatever pods it still
    /// hosts) — the autoscaler's scale-down path. `None` when no node of
    /// that name exists.
    pub fn remove_node(&mut self, name: &NodeName) -> Option<Node> {
        self.nodes.remove(name)
    }

    /// Looks a node up by name.
    pub fn node(&self, name: &NodeName) -> Option<&Node> {
        self.nodes.get(name)
    }

    /// Looks a node up by name, mutably.
    pub fn node_mut(&mut self, name: &NodeName) -> Option<&mut Node> {
        self.nodes.get_mut(name)
    }

    /// Total usable EPC across SGX workers.
    pub fn total_epc(&self) -> ByteSize {
        self.sgx_nodes().map(|n| n.spec().usable_epc()).sum()
    }

    /// Total ordinary memory across workers.
    pub fn total_memory(&self) -> ByteSize {
        self.schedulable_nodes()
            .map(|n| n.allocatable_memory())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_topology() {
        let cluster = Cluster::build(&ClusterSpec::paper_cluster());
        assert_eq!(cluster.nodes().count(), 5);
        assert_eq!(cluster.schedulable_nodes().count(), 4);
        assert_eq!(cluster.sgx_nodes().count(), 2);
        // §VI-E: 2 × 93.5 MiB of EPC vs 144 GiB of ordinary memory.
        assert_eq!(cluster.total_epc(), ByteSize::from_mib_f64(187.0));
        assert_eq!(cluster.total_memory(), ByteSize::from_gib(144));
    }

    #[test]
    fn epc_override_applies_to_sgx_nodes_only() {
        let cluster = Cluster::build(&ClusterSpec::paper_cluster_with_epc(ByteSize::from_mib(
            256,
        )));
        assert_eq!(cluster.total_epc(), ByteSize::from_mib(512));
        assert_eq!(cluster.total_memory(), ByteSize::from_gib(144));
    }

    #[test]
    fn lookup_and_iteration_order() {
        let cluster = Cluster::build(&ClusterSpec::paper_cluster());
        assert!(cluster.node(&NodeName::new("sgx-1")).is_some());
        assert!(cluster.node(&NodeName::new("nope")).is_none());
        let names: Vec<&str> = cluster.nodes().map(|n| n.name().as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn empty_cluster() {
        let cluster = Cluster::build(&ClusterSpec::new());
        assert_eq!(cluster.nodes().count(), 0);
        assert_eq!(cluster.total_epc(), ByteSize::ZERO);
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_rejected() {
        let _ = ClusterSpec::new()
            .with_node("n", MachineSpec::dell_r330(), NodeRole::Worker)
            .with_node("n", MachineSpec::sgx_node(), NodeRole::Worker);
    }
}
