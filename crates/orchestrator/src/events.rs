//! Cluster event stream — the analogue of `kubectl get events`.
//!
//! Every consequential orchestrator action appends an event: submissions,
//! scheduling decisions, driver denials, completions, migrations, node
//! lifecycle. The stream is what an operator (or a test) reads to
//! understand *why* the cluster is in its current state; the paper's
//! own debugging of denied pods (§VI-F) is exactly this kind of trail.

use cluster::api::{NodeName, PodUid};
use des::SimTime;

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A pod entered the pending queue.
    Submitted {
        /// The pod.
        uid: PodUid,
    },
    /// A pod's requests exceed every node; it will never run.
    Unschedulable {
        /// The pod.
        uid: PodUid,
    },
    /// The scheduler bound a pod to a node and its containers started.
    Scheduled {
        /// The pod.
        uid: PodUid,
        /// The chosen node.
        node: NodeName,
    },
    /// The driver killed the pod at enclave initialisation (§V-D).
    DeniedAtInit {
        /// The pod.
        uid: PodUid,
        /// Where the launch was attempted.
        node: NodeName,
    },
    /// The pod finished its work and died.
    Completed {
        /// The pod.
        uid: PodUid,
        /// Where it ran.
        node: NodeName,
    },
    /// A live migration moved the pod (§VIII).
    Migrated {
        /// The pod.
        uid: PodUid,
        /// Source node.
        from: NodeName,
        /// Target node.
        to: NodeName,
    },
    /// A node was cordoned (drain or crash).
    NodeCordoned {
        /// The node.
        node: NodeName,
    },
    /// A node was un-cordoned (drain finished or crash recovered).
    NodeUncordoned {
        /// The node.
        node: NodeName,
    },
    /// A node crashed, losing `pods` pods (each re-queued).
    NodeFailed {
        /// The node.
        node: NodeName,
        /// Number of pods lost and re-queued.
        pods: usize,
    },
    /// A node registered at runtime (autoscaler scale-up or a kubelet
    /// joining).
    NodeAdded {
        /// The node.
        node: NodeName,
    },
    /// A node was drained and deregistered (autoscaler scale-down);
    /// `pods` pods had no migration target and were re-queued.
    NodeRemoved {
        /// The node.
        node: NodeName,
        /// Number of pods evicted and re-queued (migrated pods are
        /// reported by their own [`EventKind::Migrated`] events).
        pods: usize,
    },
}

/// One timestamped entry of the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterEvent {
    /// When it happened (virtual time).
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}

impl std::fmt::Display for ClusterEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ", self.at)?;
        match &self.kind {
            EventKind::Submitted { uid } => write!(f, "{uid} submitted"),
            EventKind::Unschedulable { uid } => {
                write!(f, "{uid} unschedulable: requests exceed every node")
            }
            EventKind::Scheduled { uid, node } => write!(f, "{uid} scheduled onto {node}"),
            EventKind::DeniedAtInit { uid, node } => {
                write!(f, "{uid} killed at enclave init on {node} (EPC limit)")
            }
            EventKind::Completed { uid, node } => write!(f, "{uid} completed on {node}"),
            EventKind::Migrated { uid, from, to } => {
                write!(f, "{uid} migrated {from} -> {to}")
            }
            EventKind::NodeCordoned { node } => write!(f, "node {node} cordoned"),
            EventKind::NodeUncordoned { node } => write!(f, "node {node} uncordoned"),
            EventKind::NodeFailed { node, pods } => {
                write!(f, "node {node} failed; {pods} pods re-queued")
            }
            EventKind::NodeAdded { node } => write!(f, "node {node} registered"),
            EventKind::NodeRemoved { node, pods } => {
                write!(f, "node {node} deregistered; {pods} pods re-queued")
            }
        }
    }
}

/// The bounded event log (oldest entries are dropped past the cap, like a
/// real API server's event TTL).
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: std::collections::VecDeque<ClusterEvent>,
    capacity: usize,
}

impl EventLog {
    /// A log keeping at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "event log capacity must be positive");
        EventLog {
            events: std::collections::VecDeque::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// Appends an event, evicting the oldest when full. The buffer grows
    /// by doubling, but never past the cap: a full log holds exactly
    /// `capacity` slots.
    pub(crate) fn record(&mut self, at: SimTime, kind: EventKind) {
        let held = self.events.len();
        if held == self.capacity {
            self.events.pop_front();
        } else if held == self.events.capacity() {
            self.events.reserve_exact(held.min(self.capacity - held));
        }
        self.events.push_back(ClusterEvent { at, kind });
    }

    /// The retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &ClusterEvent> {
        self.events.iter()
    }

    /// The retained events, oldest first, in the log's own buffer.
    pub(crate) fn into_vec(self) -> Vec<ClusterEvent> {
        self.events.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_caps_and_counts_drops() {
        let mut log = EventLog::with_capacity(3);
        for i in 0..5 {
            log.record(
                SimTime::from_secs(i),
                EventKind::Submitted {
                    uid: PodUid::new(i),
                },
            );
        }
        assert_eq!(log.iter().count(), 3);
        let first = log.iter().next().unwrap();
        assert_eq!(first.at, SimTime::from_secs(2)); // 0 and 1 evicted
    }

    #[test]
    fn an_overfilled_log_stops_growing_at_its_cap() {
        let cap = 5_000;
        let mut log = EventLog::with_capacity(cap);
        for i in 0..3 * cap as u64 + 7 {
            log.record(
                SimTime::from_micros(i),
                EventKind::Submitted {
                    uid: PodUid::new(i),
                },
            );
        }
        assert_eq!(log.events.capacity(), cap);
        let kept: Vec<u64> = log.iter().map(|event| event.at.as_micros()).collect();
        let newest: Vec<u64> = (2 * cap as u64 + 7..3 * cap as u64 + 7).collect();
        assert_eq!(kept, newest);
    }

    #[test]
    fn events_display() {
        let e = ClusterEvent {
            at: SimTime::from_secs(5),
            kind: EventKind::Migrated {
                uid: PodUid::new(1),
                from: NodeName::new("a"),
                to: NodeName::new("b"),
            },
        };
        assert_eq!(e.to_string(), "t+5.0s pod-1 migrated a -> b");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = EventLog::with_capacity(0);
    }
}
