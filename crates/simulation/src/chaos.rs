//! Deterministic fault injection for the probe→tsdb metrics pipeline.
//!
//! A [`FaultPlan`] describes, from a single seed, every way the
//! monitoring path can misbehave during a replay:
//!
//! * **scrape drops** — a scraped frame is lost before it reaches the
//!   database (rate per frame),
//! * **probe silence windows** — a node's probes stop reporting entirely
//!   for a scheduled interval (the headline staleness scenario),
//! * **delayed frames** — a frame is held in flight and delivered later,
//!   arriving out of time order at the store,
//! * **write failures** — the database write of a frame fails and the
//!   transport retries it with bounded exponential backoff
//!   ([`RetryPolicy`]), dropping the frame once the budget is exhausted.
//!   There is one store, so [`FaultStats::write_failures_by_shard`]
//!   only ever holds key `0`; the map stays because a replay result's
//!   `Debug` form, which the policy goldens digest, includes it.
//!
//! A `FaultInjector` consumes the plan: it owns a seeded RNG (derived
//! from the plan seed, independent of every other stream in the replay)
//! and tallies a [`FaultStats`] as the replay asks it to judge frames.
//! Everything is a pure function of `(plan, call sequence)`, so a replay
//! with a given plan is bit-identical across runs, and
//! [`FaultPlan::none`] — which the replay engine bypasses entirely — is
//! bit-identical to a replay with no injector at all (property-tested in
//! `tests/chaos_props.rs`).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::RngExt;

use cluster::probe::RetryPolicy;
use des::rng::{derive_seed, seeded_rng};
use des::{SimDuration, SimTime};

/// A scheduled probe-silence window: the named node's scrapes are
/// swallowed for `[from_secs, until_secs)` of simulated time. Silence is
/// schedule-driven, not random — it models a wedged DaemonSet pod, the
/// failure mode that makes a loaded node read as idle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSilence {
    /// Node whose probes go quiet.
    pub node: String,
    /// Window start, seconds into the replay (inclusive).
    pub from_secs: u64,
    /// Window end, seconds into the replay (exclusive).
    pub until_secs: u64,
}

impl ProbeSilence {
    /// Whether `now` falls inside the window.
    pub(crate) fn covers(&self, now: SimTime) -> bool {
        let from = SimTime::from_secs(self.from_secs);
        let until = SimTime::from_secs(self.until_secs);
        from <= now && now < until
    }
}

/// A seeded description of every fault the metrics pipeline suffers
/// during one replay. All rates are per-frame probabilities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault RNG stream (independent of the replay seed).
    pub seed: u64,
    /// Probability a scraped frame is dropped outright.
    pub scrape_drop_rate: f64,
    /// Probability a scraped frame is delayed instead of delivered
    /// inline.
    pub delay_rate: f64,
    /// Upper bound of the (uniform) delay drawn for delayed frames.
    pub max_delay: SimDuration,
    /// Probability a frame's database write fails (each delivery attempt
    /// draws independently).
    pub write_fail_rate: f64,
    /// Retry policy of the probe transport for failed writes.
    pub retry: RetryPolicy,
    /// Scheduled per-node probe silence windows.
    pub silences: Vec<ProbeSilence>,
}

impl FaultPlan {
    /// The fault-free plan: all rates zero, no silences. The replay
    /// engine special-cases it to the exact lossless code path.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            scrape_drop_rate: 0.0,
            delay_rate: 0.0,
            max_delay: SimDuration::ZERO,
            write_fail_rate: 0.0,
            retry: RetryPolicy::paper_defaults(),
            silences: Vec::new(),
        }
    }

    /// `true` when the plan can never perturb anything: every rate is
    /// zero and no silence window is scheduled.
    pub fn is_noop(&self) -> bool {
        self.scrape_drop_rate == 0.0
            && self.delay_rate == 0.0
            && self.write_fail_rate == 0.0
            && self.silences.is_empty()
    }

    /// Same plan with a different fault seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds random scrape drops at `rate`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` lies in `[0, 1]`.
    pub fn with_scrape_drops(mut self, rate: f64) -> Self {
        assert_rate(rate, "scrape drop rate");
        self.scrape_drop_rate = rate;
        self
    }

    /// Delays frames at `rate`, each by a uniform draw in
    /// `[0, max_delay]`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` lies in `[0, 1]`.
    pub fn with_delays(mut self, rate: f64, max_delay: SimDuration) -> Self {
        assert_rate(rate, "delay rate");
        self.delay_rate = rate;
        self.max_delay = max_delay;
        self
    }

    /// Fails database writes at `rate` per delivery attempt.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` lies in `[0, 1]`.
    pub fn with_write_failures(mut self, rate: f64) -> Self {
        assert_rate(rate, "write failure rate");
        self.write_fail_rate = rate;
        self
    }

    /// Overrides the transport retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Schedules a probe silence window.
    pub fn with_silence(mut self, silence: ProbeSilence) -> Self {
        self.silences.push(silence);
        self
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

fn assert_rate(rate: f64, what: &str) {
    assert!(
        (0.0..=1.0).contains(&rate),
        "{what} must be in [0, 1], got {rate}"
    );
}

/// What the injector decided to do with one scraped frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameFate {
    /// Deliver inline, this instant (still subject to write failures).
    Deliver,
    /// The node's probes are inside a silence window: the frame never
    /// existed.
    Silenced,
    /// Lost in transit.
    Dropped,
    /// Held in flight; deliver after this delay.
    Delayed(SimDuration),
}

/// Counters of everything the injector did to the pipeline, plus the
/// transport's own retry accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames the probes produced (before any fault).
    pub frames_scraped: u64,
    /// Frames swallowed by silence windows.
    pub frames_silenced: u64,
    /// Frames dropped in transit.
    pub frames_dropped: u64,
    /// Frames delivered late (out of order at the store).
    pub frames_delayed: u64,
    /// Individual database write failures (one frame can fail several
    /// times across retries).
    pub write_failures: u64,
    /// Redelivery attempts the transport scheduled.
    pub frames_retried: u64,
    /// Frames abandoned after the retry budget ran out.
    pub frames_lost: u64,
    /// Frames that reached the database.
    pub frames_delivered: u64,
    /// Write failures by the store the frame was written to. A replay
    /// has one store, so the only key is `0` (a failed empty frame is
    /// counted under no key); the name predates the single store.
    pub write_failures_by_shard: BTreeMap<usize, u64>,
}

impl FaultStats {
    /// `true` when no fault of any kind fired.
    pub fn is_clean(&self) -> bool {
        self.frames_silenced == 0
            && self.frames_dropped == 0
            && self.frames_delayed == 0
            && self.write_failures == 0
            && self.frames_lost == 0
    }
}

/// Executes a [`FaultPlan`] over a replay: judges frames, draws delays
/// and write failures from its own seeded stream, and tallies
/// [`FaultStats`].
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for `plan`. The RNG stream is derived from
    /// the plan seed alone, so two injectors with the same plan make the
    /// same decisions in the same call order.
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = seeded_rng(derive_seed(plan.seed, "chaos"));
        FaultInjector {
            plan,
            rng,
            stats: FaultStats::default(),
        }
    }

    /// The plan being executed.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The tally so far.
    pub(crate) fn into_stats(self) -> FaultStats {
        self.stats
    }

    /// Whether `node`'s probes are inside a silence window at `now`.
    /// Schedule-driven: consumes no randomness.
    pub(crate) fn silenced(&self, node: &str, now: SimTime) -> bool {
        self.plan
            .silences
            .iter()
            .any(|s| s.node == node && s.covers(now))
    }

    /// Decides the fate of one frame scraped from `node` at `now`.
    ///
    /// Draw order per judged frame is fixed (silence check consumes no
    /// randomness; then one drop draw; then one delay draw, plus one
    /// magnitude draw when it fires) — part of the determinism contract.
    pub(crate) fn judge_frame(&mut self, node: &str, now: SimTime) -> FrameFate {
        self.stats.frames_scraped += 1;
        if self.silenced(node, now) {
            self.stats.frames_silenced += 1;
            return FrameFate::Silenced;
        }
        if self.rng.random::<f64>() < self.plan.scrape_drop_rate {
            self.stats.frames_dropped += 1;
            return FrameFate::Dropped;
        }
        if self.rng.random::<f64>() < self.plan.delay_rate {
            let delay = self.plan.max_delay.mul_f64(self.rng.random::<f64>());
            if delay > SimDuration::ZERO {
                self.stats.frames_delayed += 1;
                return FrameFate::Delayed(delay);
            }
            // A zero-magnitude delay is an inline delivery.
        }
        FrameFate::Deliver
    }

    /// Draws whether one delivery attempt's database write fails; on
    /// failure the blame is recorded against `shards` (the replay passes
    /// its one store, `0`, for a non-empty frame).
    pub(crate) fn draw_write_failure(&mut self, shards: &[usize]) -> bool {
        if self.rng.random::<f64>() < self.plan.write_fail_rate {
            self.stats.write_failures += 1;
            for &shard in shards {
                *self.stats.write_failures_by_shard.entry(shard).or_insert(0) += 1;
            }
            true
        } else {
            false
        }
    }

    /// Records a scheduled redelivery attempt.
    pub(crate) fn note_retry(&mut self) {
        self.stats.frames_retried += 1;
    }

    /// Records a frame abandoned after exhausting its retries.
    pub(crate) fn note_lost(&mut self) {
        self.stats.frames_lost += 1;
    }

    /// Records a frame that reached the database.
    pub(crate) fn note_delivered(&mut self) {
        self.stats.frames_delivered += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_plan() -> FaultPlan {
        FaultPlan::none()
            .with_seed(7)
            .with_scrape_drops(0.3)
            .with_delays(0.3, SimDuration::from_secs(20))
            .with_write_failures(0.2)
            .with_silence(ProbeSilence {
                node: "sgx-1".to_string(),
                from_secs: 100,
                until_secs: 200,
            })
    }

    #[test]
    fn noop_detection() {
        assert!(FaultPlan::none().is_noop());
        assert!(FaultPlan::default().is_noop());
        // A zero-rate plan with a silence window is NOT a no-op.
        assert!(!FaultPlan::none()
            .with_silence(ProbeSilence {
                node: "sgx-1".to_string(),
                from_secs: 0,
                until_secs: 1,
            })
            .is_noop());
        assert!(!FaultPlan::none().with_scrape_drops(0.01).is_noop());
        assert!(!FaultPlan::none()
            .with_delays(0.5, SimDuration::from_secs(5))
            .is_noop());
        assert!(!FaultPlan::none().with_write_failures(0.1).is_noop());
        // Changing only seed or retry keeps it a no-op.
        assert!(FaultPlan::none()
            .with_seed(99)
            .with_retry(RetryPolicy {
                max_retries: 9,
                backoff: SimDuration::from_secs(1),
            })
            .is_noop());
    }

    #[test]
    #[should_panic(expected = "scrape drop rate")]
    fn rates_are_validated() {
        let _ = FaultPlan::none().with_scrape_drops(1.5);
    }

    #[test]
    fn silence_windows_are_per_node_and_half_open() {
        let injector = FaultInjector::new(lossy_plan());
        assert!(!injector.silenced("sgx-1", SimTime::from_secs(99)));
        assert!(injector.silenced("sgx-1", SimTime::from_secs(100)));
        assert!(injector.silenced("sgx-1", SimTime::from_secs(199)));
        assert!(!injector.silenced("sgx-1", SimTime::from_secs(200)));
        assert!(!injector.silenced("sgx-2", SimTime::from_secs(150)));
    }

    #[test]
    fn same_plan_same_decisions() {
        let mut a = FaultInjector::new(lossy_plan());
        let mut b = FaultInjector::new(lossy_plan());
        for i in 0..500u64 {
            let now = SimTime::from_secs(i * 10);
            assert_eq!(a.judge_frame("sgx-1", now), b.judge_frame("sgx-1", now));
            assert_eq!(a.draw_write_failure(&[0, 1]), b.draw_write_failure(&[0, 1]));
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn lossy_plan_produces_every_fault_kind() {
        let mut injector = FaultInjector::new(lossy_plan());
        for i in 0..2_000u64 {
            match injector.judge_frame("sgx-1", SimTime::from_secs(i)) {
                FrameFate::Deliver => {
                    let failed = injector.draw_write_failure(&[2]);
                    if failed {
                        injector.note_lost();
                    } else {
                        injector.note_delivered();
                    }
                }
                FrameFate::Delayed(delay) => {
                    assert!(delay > SimDuration::ZERO);
                    assert!(delay <= SimDuration::from_secs(20));
                }
                FrameFate::Silenced | FrameFate::Dropped => {}
            }
        }
        let stats = &injector.stats;
        assert!(!stats.is_clean());
        assert_eq!(stats.frames_scraped, 2_000);
        assert!(stats.frames_silenced >= 100); // the whole window
        assert!(stats.frames_dropped > 0);
        assert!(stats.frames_delayed > 0);
        assert!(stats.write_failures > 0);
        assert_eq!(
            stats.write_failures_by_shard.get(&2).copied(),
            Some(stats.write_failures)
        );
        assert_eq!(
            stats.frames_scraped,
            stats.frames_silenced
                + stats.frames_dropped
                + stats.frames_delayed
                + stats.frames_delivered
                + stats.frames_lost
        );
    }

    #[test]
    fn zero_rate_injector_delivers_everything() {
        let mut injector = FaultInjector::new(FaultPlan::none());
        for i in 0..100u64 {
            assert_eq!(
                injector.judge_frame("sgx-1", SimTime::from_secs(i)),
                FrameFate::Deliver
            );
            assert!(!injector.draw_write_failure(&[0]));
        }
        assert!(injector.stats.is_clean());
        assert_eq!(injector.into_stats().frames_scraped, 100);
    }
}
