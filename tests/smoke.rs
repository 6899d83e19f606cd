//! Workspace smoke test: the DES kernel drives virtual time deterministically.

use des::{EventQueue, SimTime};

#[test]
fn event_queue_round_trip() {
    let mut q = EventQueue::new();
    q.schedule(SimTime::from_secs(1), "a");
    q.schedule(SimTime::from_secs(2), "b");
    assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
    assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    assert_eq!(q.now(), SimTime::from_secs(2));
}
