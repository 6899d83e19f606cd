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

/// The address of one node incarnation in a [`Cluster`]'s slot table.
///
/// Removing a node bumps its slot's generation, so a key taken before the
/// removal fails every lookup afterwards — also once a node of the same
/// name (or any other) has been registered into the reused slot. State
/// kept per key beside the cluster can therefore tell a fresh incarnation
/// from its predecessor without being torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeKey {
    index: u32,
    generation: u32,
}

impl NodeKey {
    /// The slot index: dense, reused after a removal, stable while the
    /// node is registered.
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The incarnation of the slot this key addresses.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// One entry of the slot table: the node it holds, if any, and how many
/// nodes it has held before.
#[derive(Debug, Clone, Default)]
struct Slot {
    generation: u32,
    node: Option<Node>,
}

/// A running cluster: a table of node slots addressed by [`NodeKey`],
/// with a name index that every name-taking method goes through once.
/// Every walk visits nodes in name order, so traversal order is
/// deterministic and "lowest name first" is iteration order.
#[derive(Debug, Clone)]
pub struct Cluster {
    slots: Vec<Slot>,
    /// Slots emptied by a removal, reused last-freed first.
    free: Vec<u32>,
    by_name: BTreeMap<NodeName, NodeKey>,
}

impl Cluster {
    /// Instantiates every node of a spec.
    pub fn build(spec: &ClusterSpec) -> Self {
        let mut cluster = Cluster {
            slots: Vec::new(),
            free: Vec::new(),
            by_name: BTreeMap::new(),
        };
        for (name, machine, role) in spec.members() {
            cluster
                .add_node(name.clone(), *machine, *role)
                .expect("a spec's names are distinct");
        }
        cluster
    }

    /// Every registered node with its key, in name order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeKey, &Node)> {
        self.by_name.values().map(|&key| {
            let node = self.slots[key.index()].node.as_ref();
            (key, node.expect("an indexed slot holds its node"))
        })
    }

    /// All nodes in name order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.entries().map(|(_, node)| node)
    }

    /// All nodes, mutably, in name order.
    pub fn nodes_mut(&mut self) -> impl Iterator<Item = &mut Node> {
        let mut held: Vec<Option<&mut Node>> = self
            .slots
            .iter_mut()
            .map(|slot| slot.node.as_mut())
            .collect();
        self.by_name.values().map(move |key| {
            held[key.index()]
                .take()
                .expect("an indexed slot holds its node")
        })
    }

    /// Worker nodes (the master is excluded), in name order.
    pub fn schedulable_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes().filter(|n| n.is_schedulable())
    }

    /// All worker nodes in name order, **including cordoned ones** — the
    /// set a scheduling snapshot captures, with cordon state carried as a
    /// flag instead of by omission so filter plugins can reject (and
    /// report on) cordoned nodes explicitly.
    pub fn workers(&self) -> impl Iterator<Item = &Node> {
        self.nodes().filter(|n| n.role() == NodeRole::Worker)
    }

    /// SGX-capable worker nodes, in name order.
    pub fn sgx_nodes(&self) -> impl Iterator<Item = &Node> {
        self.schedulable_nodes().filter(|n| n.has_sgx())
    }

    /// Registers a node at runtime — the autoscaler's scale-up path — in
    /// the most recently freed slot, or a new one. Returns the name on
    /// success.
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
        if self.by_name.contains_key(&name) {
            return Err(crate::error::ClusterError::NodeAlreadyRegistered(name));
        }
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot::default());
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 slots")
        });
        let slot = &mut self.slots[index as usize];
        slot.node = Some(Node::new(name.clone(), spec, role));
        let key = NodeKey {
            index,
            generation: slot.generation,
        };
        self.by_name.insert(name.clone(), key);
        Ok(name)
    }

    /// Deregisters a node, returning it (with whatever pods it still
    /// hosts) — the autoscaler's scale-down path. `None` when no node of
    /// that name exists. Every key of the node fails its lookup from now
    /// on.
    pub fn remove_node(&mut self, name: &NodeName) -> Option<Node> {
        let key = self.by_name.remove(name)?;
        let slot = &mut self.slots[key.index()];
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(key.index);
        slot.node.take()
    }

    /// The key of the node registered under `name`.
    pub fn key_of(&self, name: &NodeName) -> Option<NodeKey> {
        self.by_name.get(name).copied()
    }

    /// The node `key` addresses; `None` once that incarnation is gone.
    pub fn get(&self, key: NodeKey) -> Option<&Node> {
        let slot = self.slots.get(key.index())?;
        slot.node
            .as_ref()
            .filter(|_| slot.generation == key.generation)
    }

    /// The node `key` addresses, mutably; `None` once that incarnation
    /// is gone.
    pub fn get_mut(&mut self, key: NodeKey) -> Option<&mut Node> {
        let slot = self.slots.get_mut(key.index())?;
        slot.node
            .as_mut()
            .filter(|_| slot.generation == key.generation)
    }

    /// Looks a node up by name.
    pub fn node(&self, name: &NodeName) -> Option<&Node> {
        self.get(self.key_of(name)?)
    }

    /// Looks a node up by name, mutably.
    pub fn node_mut(&mut self, name: &NodeName) -> Option<&mut Node> {
        self.get_mut(self.key_of(name)?)
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
    fn a_key_from_before_a_removal_fails_once_the_slot_is_reused() {
        let mut cluster = Cluster::build(&ClusterSpec::paper_cluster());
        let name = NodeName::new("sgx-1");
        let stale = cluster.key_of(&name).unwrap();
        assert!(cluster.get(stale).is_some());
        assert!(cluster.remove_node(&name).is_some());
        assert!(cluster.get(stale).is_none());

        // Same name, same machine, same (recycled) slot: a new incarnation.
        cluster
            .add_node("sgx-1", MachineSpec::sgx_node(), NodeRole::Worker)
            .unwrap();
        let fresh = cluster.key_of(&name).unwrap();
        assert_eq!(fresh.index(), stale.index(), "the freed slot is reused");
        assert_ne!(fresh, stale);
        assert!(cluster.get(stale).is_none());
        assert!(cluster.get_mut(stale).is_none());
        assert_eq!(cluster.get(fresh).map(Node::name), Some(&name));
        // The name index and the walks see only the live incarnation.
        assert_eq!(cluster.nodes().count(), 5);
        assert_eq!(
            cluster
                .entries()
                .find(|(_, n)| *n.name() == name)
                .map(|(k, _)| k),
            Some(fresh)
        );
    }

    #[test]
    fn walks_stay_in_name_order_across_slot_reuse() {
        let mut cluster = Cluster::build(&ClusterSpec::paper_cluster());
        cluster.remove_node(&NodeName::new("std-2"));
        // Lands in std-2's slot, between master and sgx-1 by name.
        cluster
            .add_node("a-new", MachineSpec::dell_r330(), NodeRole::Worker)
            .unwrap();
        let order = ["a-new", "master", "sgx-1", "sgx-2", "std-1"];
        let names: Vec<&str> = cluster.nodes().map(|n| n.name().as_str()).collect();
        assert_eq!(names, order);
        let names: Vec<String> = cluster
            .nodes_mut()
            .map(|n| n.name().as_str().to_string())
            .collect();
        assert_eq!(names, order);
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
