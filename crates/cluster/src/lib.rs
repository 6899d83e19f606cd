//! Node-side cluster substrate: machines, the Kubelet agent and the
//! metric probes.
//!
//! This crate models everything that runs *on the nodes* of the paper's
//! architecture (Fig. 2):
//!
//! * [`machine`] — hardware specifications, including the paper's exact
//!   testbed (Dell R330 / Xeon E3-1270 v6 / 64 GiB workers and i7-6700 /
//!   8 GiB SGX nodes).
//! * [`api`] — the Kubernetes-style API objects nodes consume: pod
//!   specifications with resource requests and limits.
//! * [`node`] — a cluster node with its Kubelet behaviour: admission,
//!   cgroup setup, the cgo bridge that communicates EPC limits to the
//!   driver (§V-D), container startup against the simulated SGX driver,
//!   and teardown. What the paper's device plugin (§V-A) advertises —
//!   **each usable EPC page as an independent resource item**, so
//!   multiple SGX pods can share one node — is
//!   [`node::Node::allocatable_epc`].
//! * [`probe`] — the Heapster memory probe and the custom SGX probe
//!   (§V-C) producing the `memory/usage` and `sgx/epc` series the
//!   scheduler queries.
//! * [`topology`] — whole-cluster assembly, including
//!   [`topology::ClusterSpec::paper_cluster`].
//!
//! # Examples
//!
//! ```
//! use cluster::api::{PodSpec, Resources};
//! use cluster::topology::{Cluster, ClusterSpec};
//! use des::{SimDuration, SimTime};
//! use sgx_sim::units::{ByteSize, EpcPages};
//!
//! let mut cluster = Cluster::build(&ClusterSpec::paper_cluster());
//! assert_eq!(cluster.schedulable_nodes().count(), 4); // master excluded
//! assert_eq!(cluster.sgx_nodes().count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod machine;
pub mod node;
pub mod probe;
pub mod topology;

mod error;

pub use error::ClusterError;
