//! Breadth-first exhaustive exploration with state-hash deduplication.
//!
//! Plain stateright-style search, written in-repo since the build is
//! offline: a hash set of canonicalized states for deduplication (the
//! one place a state is kept once expanded), a frontier that owns the
//! states still to expand, parent links for counterexample traces, and
//! a bound that turns the same search into a smoke test.

use std::collections::{BTreeMap, HashSet, VecDeque};

use crate::invariants::{check_state, check_transition, Violation};
use crate::machine::Model;
use crate::state::Action;

/// Exploration limits.
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// Stop discovering once this many distinct states exist. The run
    /// is marked truncated when the cap fires.
    pub max_states: usize,
    /// Stop as soon as this invariant has its first violation; that
    /// counterexample is the one an unbounded search reports for it. The
    /// run is marked truncated when it stops early.
    pub stop_at: Option<&'static str>,
}

impl Bounds {
    /// No cap: explore the full reachable space.
    pub fn exhaustive() -> Self {
        Bounds {
            max_states: usize::MAX,
            stop_at: None,
        }
    }

    /// A smoke bound: explore at most `max_states` distinct states.
    pub fn smoke(max_states: usize) -> Self {
        Bounds {
            max_states,
            stop_at: None,
        }
    }

    /// No cap, but stop at the first violation of `invariant`: the
    /// search that finds a known bug's shortest counterexample.
    pub fn until_violated(invariant: &'static str) -> Self {
        Bounds {
            stop_at: Some(invariant),
            ..Bounds::exhaustive()
        }
    }
}

/// What an exploration found.
#[derive(Debug)]
pub struct Report {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions explored (including ones into already-known states).
    pub transitions: usize,
    /// Whether the search stopped before the space was exhausted: the
    /// state cap fired, or the invariant it stops at failed.
    pub truncated: bool,
    /// Longest action path from the initial state to any visited state.
    pub max_depth: usize,
    /// First counterexample found per violated invariant, shortest
    /// trace first.
    pub violations: Vec<Violation>,
}

impl Report {
    /// The violation for one invariant, if that invariant failed.
    pub fn violation(&self, invariant: &str) -> Option<&Violation> {
        self.violations.iter().find(|v| v.invariant == invariant)
    }
}

/// Explores every state reachable from [`Model::initial`] breadth-first,
/// deduplicating structurally identical states, and checks the invariant
/// catalogue on each new state and each transition. BFS order makes
/// every reported trace a shortest counterexample.
pub fn explore(model: &Model, bounds: &Bounds) -> Report {
    let mut seen = HashSet::new();
    let mut parent: Vec<Option<(usize, Action)>> = Vec::new();
    let mut depth: Vec<usize> = Vec::new();
    let mut frontier = VecDeque::new();
    // First violation per invariant; BTreeMap for deterministic order.
    let mut violations: BTreeMap<&'static str, Violation> = BTreeMap::new();
    let mut transitions = 0;
    let stop = |violations: &BTreeMap<&'static str, Violation>| {
        bounds
            .stop_at
            .is_some_and(|name| violations.contains_key(name))
    };

    let initial = model.initial();
    seen.insert(initial.clone());
    parent.push(None);
    depth.push(0);
    for (invariant, detail, continuation, alternative) in check_state(model, &initial) {
        violations.entry(invariant).or_insert(Violation {
            invariant,
            detail,
            trace: Vec::new(),
            continuation,
            alternative,
        });
    }
    frontier.push_back((0, initial));

    let mut truncated = stop(&violations);
    'search: while !truncated {
        let Some((current, state)) = frontier.pop_front() else {
            break;
        };
        for action in model.enabled_actions(&state) {
            let (next, effects) = model.step(&state, action);
            transitions += 1;
            for (invariant, detail, continuation, alternative) in check_transition(action, &effects)
            {
                violations.entry(invariant).or_insert_with(|| Violation {
                    invariant,
                    detail,
                    trace: trace_to(&parent, current),
                    continuation,
                    alternative,
                });
            }
            if stop(&violations) {
                truncated = true;
                break 'search;
            }
            if seen.contains(&next) {
                continue;
            }
            let id = parent.len();
            seen.insert(next.clone());
            parent.push(Some((current, action)));
            depth.push(depth[current] + 1);
            for (invariant, detail, continuation, alternative) in check_state(model, &next) {
                violations.entry(invariant).or_insert_with(|| Violation {
                    invariant,
                    detail,
                    trace: trace_to_child(&parent, current, action),
                    continuation,
                    alternative,
                });
            }
            frontier.push_back((id, next));
            if seen.len() >= bounds.max_states || stop(&violations) {
                truncated = true;
                break 'search;
            }
        }
    }

    Report {
        states: seen.len(),
        transitions,
        truncated,
        max_depth: depth.iter().copied().max().unwrap_or(0),
        violations: violations.into_values().collect(),
    }
}

/// The action path from the initial state to `state`.
fn trace_to(parent: &[Option<(usize, Action)>], mut state: usize) -> Vec<Action> {
    let mut actions = Vec::new();
    while let Some((prev, action)) = parent[state] {
        actions.push(action);
        state = prev;
    }
    actions.reverse();
    actions
}

/// The action path to a just-discovered child of `state` via `action`.
fn trace_to_child(parent: &[Option<(usize, Action)>], state: usize, action: Action) -> Vec<Action> {
    let mut actions = trace_to(parent, state);
    actions.push(action);
    actions
}
