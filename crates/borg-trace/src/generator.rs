//! Calibrated synthetic trace generation.
//!
//! The generator reproduces the three marginals the paper publishes about
//! the Borg trace:
//!
//! * **Fig. 3** — maximal memory usage: a heavy-tailed distribution of
//!   capacity fractions in `(0, 0.5]`, bulk far below 0.1 ([`MemoryModel`]).
//! * **Fig. 4** — job duration: bounded at 300 s ([`DurationModel`]).
//! * **Fig. 5** — concurrent running jobs: a 125k–145k band over the first
//!   24 h with a dip around the slice the paper replays
//!   ([`ConcurrencyProfile`]).
//!
//! A note on scale: the public trace's *job-level* concurrency (Fig. 5)
//! and the replayed-job count §VI-F mentions (663 after keeping every
//! 1200th job of a one-hour slice) cannot both be produced by one process
//! with durations ≤ 300 s. The generator follows Figs. 4/5/10:
//! [`GeneratorConfig::paper_scale`] matches the Fig. 3–5 statistics and
//! [`GeneratorConfig::replay_scale`] is the same process cut at the end
//! of the replayed slice, so the §VI-B pipeline yields ≈4 100 jobs (4,142
//! at seed 42), not 663. The conflict and the choice are recorded under
//! "Calibration conflicts" in `EXPERIMENTS.md`.
//!
//! Arrivals are a non-homogeneous Poisson process sampled by thinning at
//! full rate — ≈1 950 candidates per job the §VI-B pipeline keeps — so
//! the accept/reject test is squeezed between bounds that rarely need the
//! profile evaluated ([`TraceStream`]; "Arrival process: exact squeeze
//! thinning" in `DESIGN.md`), and each step is decoded with an inline
//! `ln` whose sum the fold proves equal to the libm step's ("The step
//! squeeze").

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::LazyLock;
use std::thread::Scope;

use rand::rngs::StdRng;
use rand::{Rng, RngExt};

use des::rng::{derive_seed, sample_log_normal, seeded_rng};
use des::{SimDuration, SimTime};

use crate::job::{JobId, Trace, TraceJob};

/// Job-duration model: log-normal, truncated to `(min, max]` by rejection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurationModel {
    /// Mean of the underlying normal (of log-seconds).
    pub log_mean: f64,
    /// Standard deviation of the underlying normal.
    pub log_sigma: f64,
    /// Shortest representable job.
    pub min: SimDuration,
    /// Longest job in the trace — 300 s per Fig. 4.
    pub max: SimDuration,
}

impl DurationModel {
    /// Calibrated against Fig. 4 *and* the aggregate load implied by the
    /// Fig. 7 makespans (≈600 k MiB·s of EPC work across the replayed
    /// jobs): median ≈ 85 s, everything ≤ 300 s, mean ≈ 100 s.
    pub(crate) fn paper_calibrated() -> Self {
        DurationModel {
            log_mean: 85.0_f64.ln(),
            log_sigma: 0.85,
            min: SimDuration::from_secs(1),
            max: SimDuration::from_secs(300),
        }
    }

    /// Draws one duration.
    pub fn sample(&self, rng: &mut StdRng) -> SimDuration {
        loop {
            let secs = sample_log_normal(rng, self.log_mean, self.log_sigma);
            let d = SimDuration::from_secs_f64(secs);
            if d >= self.min && d <= self.max {
                return d;
            }
        }
    }

    /// Monte-Carlo estimate of the mean duration in seconds, used to turn
    /// a concurrency target into an arrival rate (Little's law).
    pub(crate) fn mean_secs(&self) -> f64 {
        let mut rng = seeded_rng(derive_seed(0xD0, "duration-mean"));
        let n = 20_000;
        (0..n)
            .map(|_| self.sample(&mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64
    }
}

/// Memory model: maximal usage fraction (Fig. 3) plus the relation between
/// advertised and actual usage (§VI-F's 44-in-663 over-users).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Mean of the underlying normal of the log max-usage fraction.
    pub log_median_fraction: f64,
    /// Sigma of the underlying normal.
    pub log_sigma: f64,
    /// Smallest representable fraction.
    pub min_fraction: f64,
    /// Largest observed fraction — 0.5 per Fig. 3.
    pub max_fraction: f64,
    /// Mean of the log over-statement factor (advertised ÷ actual).
    pub overstatement_log_mean: f64,
    /// Sigma of the log over-statement factor. Calibrated so ≈6.6 % of
    /// jobs advertise *less* than they use (the paper's 44-in-663 rate).
    pub overstatement_log_sigma: f64,
    /// Probability a job comes from the heavy tail of Fig. 3 (fractions
    /// spread up to 0.5) rather than the log-normal bulk.
    pub tail_weight: f64,
    /// Lower edge of the heavy tail.
    pub tail_min: f64,
}

impl MemoryModel {
    /// Calibrated against Fig. 3 (bulk of the mass far below 0.1, thin
    /// tail to 0.5), the §VI-F over-user rate, and the aggregate EPC
    /// demand implied by the Fig. 7 makespans (mean usage fraction
    /// ≈ 0.016 of the SGX multiplier).
    pub(crate) fn paper_calibrated() -> Self {
        MemoryModel {
            log_median_fraction: 0.006_f64.ln(),
            log_sigma: 0.85,
            min_fraction: 0.001,
            max_fraction: 0.5,
            overstatement_log_mean: 1.5_f64.ln(),
            overstatement_log_sigma: 0.27,
            tail_weight: 0.045,
            tail_min: 0.05,
        }
    }

    /// Draws `(assigned_fraction, max_usage_fraction)`.
    pub fn sample(&self, rng: &mut StdRng) -> (f64, f64) {
        let max_usage = if rng.random::<f64>() < self.tail_weight {
            rng.random_range(self.tail_min..self.max_fraction)
        } else {
            sample_log_normal(rng, self.log_median_fraction, self.log_sigma)
                .clamp(self.min_fraction, self.max_fraction)
        };
        let factor = sample_log_normal(
            rng,
            self.overstatement_log_mean,
            self.overstatement_log_sigma,
        );
        let assigned = (max_usage * factor).clamp(self.min_fraction, 1.0);
        (assigned, max_usage)
    }
}

/// Diurnal load-shape multiplier applied to the arrival rate, producing the
/// Fig. 5 band, including the dip around the hour the paper replays
/// ("the less job-intensive" slice of the first 24 h).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrencyProfile {
    /// Amplitude of the slow (8 h period) oscillation.
    pub slow_amplitude: f64,
    /// Amplitude of the fast (3 h period) oscillation.
    pub fast_amplitude: f64,
    /// Depth of the Gaussian dip centred on the replay slice.
    pub dip_depth: f64,
    /// Centre of the dip.
    pub dip_center: SimDuration,
    /// Width (standard deviation) of the dip.
    pub dip_width: SimDuration,
    /// Amplitude of the minutes-scale burst oscillation. Production
    /// arrivals are bursty well below the hour scale; these bursts are
    /// what drives the paper's heavy SGX queueing (Figs. 8/10) at a mean
    /// utilisation below 1. They average out at the multi-hour
    /// granularity Fig. 5 is plotted at.
    pub burst_amplitude: f64,
    /// Period of the burst oscillation.
    pub burst_period: SimDuration,
}

impl ConcurrencyProfile {
    /// Shape calibrated to Fig. 5: a ±7 % band (at hour granularity) with
    /// a dip near t ≈ 2.3 h, plus ±55 % bursts on a 30-minute period.
    pub fn paper_calibrated() -> Self {
        ConcurrencyProfile {
            slow_amplitude: 0.05,
            fast_amplitude: 0.025,
            dip_depth: 0.05,
            dip_center: SimDuration::from_secs(8280), // middle of [6480, 10080)
            dip_width: SimDuration::from_mins(45),
            burst_amplitude: 0.55,
            burst_period: SimDuration::from_secs(1800),
        }
    }

    /// A flat profile (multiplier 1 everywhere), useful in tests.
    pub fn flat() -> Self {
        ConcurrencyProfile {
            slow_amplitude: 0.0,
            fast_amplitude: 0.0,
            dip_depth: 0.0,
            dip_center: SimDuration::ZERO,
            dip_width: SimDuration::from_secs(1),
            burst_amplitude: 0.0,
            burst_period: SimDuration::from_secs(1),
        }
    }

    /// Period of the slow oscillation, seconds.
    const SLOW_PERIOD_SECS: f64 = 8.0 * 3600.0;
    /// Period of the fast oscillation, seconds.
    const FAST_PERIOD_SECS: f64 = 3.0 * 3600.0;

    /// The load multiplier at elapsed time `t` (≈1.0, bounded away from 0).
    pub fn multiplier(&self, t: SimDuration) -> f64 {
        use std::f64::consts::TAU;
        let secs = t.as_secs_f64();
        let slow = self.slow_amplitude * (TAU * secs / Self::SLOW_PERIOD_SECS).sin();
        let fast = self.fast_amplitude * (TAU * secs / Self::FAST_PERIOD_SECS + 1.3).sin();
        let z = (secs - self.dip_center.as_secs_f64()) / self.dip_width.as_secs_f64();
        let dip = self.dip_depth * (-0.5 * z * z).exp();
        let burst =
            1.0 + self.burst_amplitude * (TAU * secs / self.burst_period.as_secs_f64() + 0.7).sin();
        ((1.0 + slow + fast - dip) * burst).max(0.05)
    }

    /// Largest multiplier the profile can produce (used as the thinning
    /// envelope for non-homogeneous Poisson sampling).
    pub fn max_multiplier(&self) -> f64 {
        (1.0 + self.slow_amplitude + self.fast_amplitude) * (1.0 + self.burst_amplitude)
    }

    /// Upper bound on `|d multiplier / dt|`, per second, at every `t` —
    /// the second thinning bound, next to
    /// [`max_multiplier`](Self::max_multiplier). The multiplier is
    /// `max(0.05, envelope · burst)`; by the product rule its slope is at
    /// most `|envelope′|·|burst| + |envelope|·|burst′|`, each sinusoid
    /// `a·sin(ωt + φ)` contributes `a·ω` to a slope, the Gaussian dip's
    /// slope peaks at `depth·e^{-1/2}/width` (at one width from its
    /// centre), and the floor only ever flattens.
    fn lipschitz(&self) -> f64 {
        use std::f64::consts::TAU;
        let envelope_slope = self.slow_amplitude * TAU / Self::SLOW_PERIOD_SECS
            + self.fast_amplitude * TAU / Self::FAST_PERIOD_SECS
            + self.dip_depth * (-0.5_f64).exp() / self.dip_width.as_secs_f64();
        let burst_slope = self.burst_amplitude * TAU / self.burst_period.as_secs_f64();
        envelope_slope * (1.0 + self.burst_amplitude)
            + (1.0 + self.slow_amplitude + self.fast_amplitude) * burst_slope
    }

    /// Panics unless both thinning bounds hold for this profile. The
    /// fields are public, so a profile can be built for which
    /// [`max_multiplier`](Self::max_multiplier) is not a maximum (a
    /// negative depth raises the load above it; a depth above 1 lets two
    /// negative factors multiply above it) or for which
    /// [`multiplier`](Self::multiplier) is NaN until its floor flattens
    /// it to 0.05 (a zero period or width, a non-finite amplitude).
    fn assert_well_formed(&self) {
        for (field, value) in [
            ("slow_amplitude", self.slow_amplitude),
            ("fast_amplitude", self.fast_amplitude),
            ("burst_amplitude", self.burst_amplitude),
        ] {
            assert!(
                value.is_finite() && value >= 0.0,
                "profile {field} must be non-negative and finite, got {value}"
            );
        }
        assert!(
            (0.0..=1.0).contains(&self.dip_depth),
            "profile dip_depth must lie in [0, 1], got {}",
            self.dip_depth
        );
        assert!(
            !self.dip_width.is_zero(),
            "profile dip_width must be non-zero"
        );
        assert!(
            !self.burst_period.is_zero(),
            "profile burst_period must be non-zero"
        );
    }
}

/// Full generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Base seed; every derived random stream is a pure function of it.
    pub seed: u64,
    /// Trace horizon (jobs submit in `[0, horizon)`).
    pub horizon: SimDuration,
    /// Target mean number of concurrently running jobs.
    pub mean_concurrency: f64,
    /// Diurnal shape.
    pub profile: ConcurrencyProfile,
    /// Duration distribution.
    pub duration: DurationModel,
    /// Memory distribution.
    pub memory: MemoryModel,
}

impl GeneratorConfig {
    /// Statistics-grade preset matching Figs. 3–5: 24 h horizon, 135k mean
    /// concurrency. Materialising this trace would need ≈10⁸ jobs, so use
    /// it with [`generate_sampled`](Self::generate_sampled) or
    /// [`fluid_concurrency`](Self::fluid_concurrency).
    pub fn paper_scale(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            horizon: SimDuration::from_hours(24),
            mean_concurrency: 135_000.0,
            profile: ConcurrencyProfile::paper_calibrated(),
            duration: DurationModel::paper_calibrated(),
            memory: MemoryModel::paper_calibrated(),
        }
    }

    /// Replay-grade preset: the same process as [`paper_scale`](Self::paper_scale)
    /// (Fig. 5's 135k concurrency) with the horizon cut at the end of the
    /// replayed slice. Feeding it through the §VI-B pipeline (slice
    /// `[6480, 10080)`, keep every 1200th job) yields ≈4 100 jobs (4,142
    /// at seed 42) whose summed useful duration is ≈110 h — consistent
    /// with Fig. 5 and the Fig. 10 "Trace" bar (94 h). The paper's §VI-F
    /// mentions 663 replayed jobs, which cannot be reconciled with those
    /// two figures under Fig. 4's 300 s duration bound; this reproduction
    /// follows Figs. 4/5/10 and keeps the §VI-F *rate* of over-users
    /// (≈6.6 %). The conflict is recorded under "Calibration conflicts"
    /// in `EXPERIMENTS.md`.
    pub fn replay_scale(seed: u64) -> Self {
        GeneratorConfig {
            horizon: SimDuration::from_secs(10_080),
            ..GeneratorConfig::paper_scale(seed)
        }
    }

    /// Full-trace-scale preset for autoscaled replays: the same process
    /// as [`paper_scale`](Self::paper_scale) — Fig. 5's 135k mean
    /// concurrency, bursty profile — with the horizon cut to ten
    /// minutes so the trace is materialisable (≈800 k jobs, millions of
    /// pod events). At this concurrency the implied cluster is in the
    /// Borg cell's 12,500-machine class; replaying it against the
    /// five-node paper cluster only makes sense with the cluster
    /// autoscaler enabled. Tune with
    /// [`with_mean_concurrency`](Self::with_mean_concurrency) and
    /// [`with_horizon`](Self::with_horizon).
    pub fn full_scale(seed: u64) -> Self {
        GeneratorConfig {
            horizon: SimDuration::from_mins(10),
            ..GeneratorConfig::paper_scale(seed)
        }
    }

    /// Overrides the target mean concurrency (and with it, via Little's
    /// law, the arrival rate).
    ///
    /// # Panics
    ///
    /// Panics unless `mean_concurrency` is positive and finite.
    pub fn with_mean_concurrency(mut self, mean_concurrency: f64) -> Self {
        assert!(
            mean_concurrency.is_finite() && mean_concurrency > 0.0,
            "mean concurrency must be positive and finite"
        );
        self.mean_concurrency = mean_concurrency;
        self
    }

    /// Overrides the trace horizon.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn with_horizon(mut self, horizon: SimDuration) -> Self {
        assert!(!horizon.is_zero(), "horizon must be non-zero");
        self.horizon = horizon;
        self
    }

    /// Small preset for unit tests and examples: one hour, ≈30 concurrent
    /// jobs, flat profile.
    pub fn small(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            horizon: SimDuration::from_hours(1),
            mean_concurrency: 30.0,
            profile: ConcurrencyProfile::flat(),
            duration: DurationModel::paper_calibrated(),
            memory: MemoryModel::paper_calibrated(),
        }
    }

    /// The base arrival rate (jobs per second) implied by the concurrency
    /// target via Little's law.
    pub fn base_rate(&self) -> f64 {
        self.mean_concurrency / self.duration.mean_secs()
    }

    /// Materialises the whole trace. Intended for configurations whose
    /// job count is tractable (`small`, `replay_scale`); equivalent to
    /// `generate_sampled(1)`.
    pub fn generate(&self) -> Trace {
        self.generate_sampled(1)
    }

    /// Materialises every `keep_every`-th arrival of the trace (counting
    /// all arrivals, materialising one in `keep_every`) — the paper's
    /// frequency reduction fused into generation so that full-scale traces
    /// never exist in memory.
    ///
    /// Equivalent to collecting [`stream_sampled`](Self::stream_sampled),
    /// bit for bit. A trace that outgrows its first block of candidates is
    /// decoded on two threads when the machine has two cores: a scoped
    /// helper is offered a fixed share of the blocks, and this thread
    /// folds every block in candidate order, decoding an offered block
    /// itself rather than wait for it ("Draws in blocks, on two cores" in
    /// `DESIGN.md`). The helper is joined before this returns.
    ///
    /// # Panics
    ///
    /// Panics if `keep_every` is zero.
    pub fn generate_sampled(&self, keep_every: usize) -> Trace {
        let mut stream = self.stream_sampled(keep_every);
        let decoder = stream.decoder;
        let mut jobs = Vec::new();
        let wanted = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let mut decoded = 0usize;
            let mut two_cores = None;
            let mut helper = None;
            while let Some(job) = stream.next_with(|rng, block| {
                let index = decoded;
                decoded += 1;
                if index == 0 || !*two_cores.get_or_insert_with(more_than_one_core) {
                    return decoder.fill(rng, block);
                }
                helper
                    .get_or_insert_with(|| Helper::spawn(scope, decoder, rng.clone(), &wanted))
                    .refill(index, decoder, rng, block);
            }) {
                jobs.push(job);
            }
        });
        Trace::from_jobs(jobs)
    }

    /// Pull-based variant of [`generate_sampled`](Self::generate_sampled):
    /// yields the same jobs in the same (submission) order, one at a time,
    /// without ever materialising the trace. The streaming workload
    /// frontends are built on this iterator, so the *trace* of a
    /// multi-day horizon costs O(in-flight) memory instead of O(total
    /// jobs). A replay of it still keeps every pod's history to its end
    /// (the orchestrator's pod table, the engine's origins, the result's
    /// runs), which grows with total jobs.
    ///
    /// # Panics
    ///
    /// Panics if `keep_every` is zero, or if the profile is malformed: an
    /// amplitude that is negative or non-finite, a `dip_depth` outside
    /// `[0, 1]`, or a zero `dip_width` or `burst_period`.
    pub fn stream_sampled(&self, keep_every: usize) -> TraceStream {
        assert!(keep_every > 0, "keep_every must be at least 1");
        self.profile.assert_well_formed();
        let base_rate = self.base_rate();
        let lambda_max = base_rate * self.profile.max_multiplier();
        assert!(
            lambda_max.is_finite() && lambda_max > 0.0,
            "the candidate rate must be positive and finite, got {lambda_max}"
        );
        TraceStream {
            config: *self,
            // Independent streams: skipping a job's attributes must not
            // perturb the arrival process.
            arrivals_rng: seeded_rng(derive_seed(self.seed, "arrivals")),
            attrs_rng: seeded_rng(derive_seed(self.seed, "attributes")),
            base_rate,
            decoder: Decoder {
                lambda_max,
                neg_inv_rate: -1.0 / lambda_max,
                max_multiplier: self.profile.max_multiplier(),
            },
            keep_every,
            t: 0.0,
            arrival_index: 0,
            countdown: keep_every,
            squeeze: Squeeze::new(&self.profile),
            block: Block::default(),
            #[cfg(test)]
            exact_fold: None,
        }
    }

    /// Computes the expected concurrent-jobs curve (Fig. 5) without
    /// materialising any job, by convolving the arrival-rate profile with
    /// the duration survival function, plus Poisson-scale noise.
    ///
    /// Returns `(time, concurrency)` samples every `step`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    pub fn fluid_concurrency(&self, step: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!step.is_zero(), "step must be non-zero");
        let step_secs = step.as_secs_f64();
        let steps = (self.horizon.as_secs_f64() / step_secs).ceil() as usize;

        // Survival function of the duration distribution, estimated once by
        // Monte Carlo at 1 s resolution (the integration step below — it
        // must be fine relative to the ≤300 s durations, independent of the
        // output `step`).
        let delta = 1.0_f64;
        let max_dur_buckets = self.duration.max.as_secs_f64().ceil() as usize + 1;
        let mut survival = vec![0.0_f64; max_dur_buckets];
        let mut rng = seeded_rng(derive_seed(self.seed, "fluid-survival"));
        let n = 20_000;
        for _ in 0..n {
            let d = self.duration.sample(&mut rng).as_secs_f64();
            let buckets = (d / delta).ceil() as usize;
            for s in survival.iter_mut().take(buckets) {
                *s += 1.0;
            }
        }
        for s in &mut survival {
            *s /= n as f64;
        }

        let base_rate = self.base_rate();
        let mut noise_rng = seeded_rng(derive_seed(self.seed, "fluid-noise"));
        (0..steps)
            .map(|i| {
                let t = SimDuration::from_secs_f64(i as f64 * step_secs);
                // running(t) = Σ_k λ(t − kδ) · S(kδ) · δ  with δ = 1 s.
                let mut running = 0.0;
                for (k, s) in survival.iter().enumerate() {
                    let at = i as f64 * step_secs - k as f64 * delta;
                    if at < 0.0 {
                        break;
                    }
                    let rate = base_rate * self.profile.multiplier(SimDuration::from_secs_f64(at));
                    running += rate * s * delta;
                }
                let noisy = if running > 0.0 {
                    running + des::rng::sample_normal(&mut noise_rng, 0.0, running.sqrt())
                } else {
                    0.0
                };
                (SimTime::ZERO + t, noisy.max(0.0))
            })
            .collect()
    }
}

/// Streaming job source produced by
/// [`GeneratorConfig::stream_sampled`]: a lazy non-homogeneous Poisson
/// process with thinning, yielding [`TraceJob`]s in submission order.
///
/// The `arrivals` draws are decoded 4,096 candidates at a time and
/// folded in order; the `attributes` stream is drawn only for a kept job.
/// Where a block comes from does not change a bit — the `arrivals` stream
/// feeds two draws a candidate and nothing else — so collecting the
/// iterator reproduces `generate_sampled` bit for bit.
#[derive(Debug, Clone)]
pub struct TraceStream {
    config: GeneratorConfig,
    /// Positioned after the last decoded block.
    arrivals_rng: StdRng,
    attrs_rng: StdRng,
    /// [`GeneratorConfig::base_rate`] of `config` — a 20,000-sample
    /// Monte Carlo, so computed once and kept.
    base_rate: f64,
    decoder: Decoder,
    keep_every: usize,
    t: f64,
    arrival_index: usize,
    /// Acceptances left until the next kept one, in `1..=keep_every`.
    countdown: usize,
    squeeze: Squeeze,
    block: Block,
    /// The reference fold, checked at every candidate when set.
    #[cfg(test)]
    exact_fold: Option<ExactFold>,
}

impl TraceStream {
    /// Mean arrivals per second before thinning and sampling.
    pub(crate) fn base_rate(&self) -> f64 {
        self.base_rate
    }

    /// Folds candidates in order up to the next kept job, or `None` at the
    /// horizon. `refill` replaces a used-up block with the next one and
    /// moves the `arrivals` stream past it.
    ///
    /// Only rare candidates branch: a step the rounding test cannot prove
    /// (it is computed exactly instead), the horizon, an expired bracket,
    /// a threshold inside the bracket (each of these pays for the
    /// squeeze's evaluation) and a kept job. Everything else is decided by
    /// one comparison and counted by a 0/1 add.
    fn next_with(
        &mut self,
        mut refill: impl FnMut(&mut StdRng, &mut Vec<Candidate>),
    ) -> Option<TraceJob> {
        let horizon = self.config.horizon.as_secs_f64();
        let lambda_max = self.decoder.lambda_max;
        let slack = self.decoder.absolute_slack();
        let mut t = self.t;
        let mut index = self.arrival_index;
        let mut countdown = self.countdown;
        loop {
            if self.block.next == self.block.candidates.len() {
                refill(&mut self.arrivals_rng, &mut self.block.candidates);
                self.block.next = 0;
            }
            let (mut lo, mut hi) = (self.squeeze.lo, self.squeeze.hi);
            let mut limit = self.squeeze.until.min(horizon);
            let half_ulp = self.decoder.half_ulp_floor(t);
            let start = self.block.next;
            let mut folded = self.block.candidates.len() - start;
            let mut stop = None;
            for (offset, &[step, threshold, u]) in self.block.candidates[start..].iter().enumerate()
            {
                // The decoded step is within `step·STEP_RELATIVE + slack`
                // of `-u.ln() / λmax` ("The step squeeze" in DESIGN.md).
                let bound = step * STEP_RELATIVE + slack;
                t = if let Some(sum) = proven_sum(t, step, bound, half_ulp) {
                    sum
                } else {
                    #[cfg(test)]
                    {
                        self.squeeze.work.exact_steps += 1;
                    }
                    exact_step(t, u, lambda_max)
                };
                #[cfg(test)]
                if let Some(exact) = &mut self.exact_fold {
                    exact.check(t);
                }
                // `|` and `&`, not `||` and `&&`: one rarely taken branch
                // instead of one on the side of the bracket a threshold
                // fell, which is a coin toss at a 61 % acceptance rate.
                let accepted = if (t >= limit) | ((lo < threshold) & (threshold <= hi)) {
                    if t >= horizon {
                        stop = Some(false);
                        folded = offset + 1;
                        break;
                    }
                    let accepted = self.squeeze.evaluate(&self.config.profile, t, threshold);
                    (lo, hi) = (self.squeeze.lo, self.squeeze.hi);
                    limit = self.squeeze.until.min(horizon);
                    accepted
                } else {
                    threshold <= lo
                };
                #[cfg(test)]
                {
                    self.squeeze.work.candidates += 1;
                }
                index += usize::from(accepted);
                countdown -= usize::from(accepted);
                if countdown == 0 {
                    countdown = self.keep_every;
                    stop = Some(true);
                    folded = offset + 1;
                    break;
                }
            }
            self.block.next = start + folded;
            if let Some(kept) = stop {
                self.t = t;
                self.arrival_index = index;
                self.countdown = countdown;
                return kept.then(|| self.job(index, t));
            }
        }
    }

    /// The kept `index`-th arrival at `t`, its attributes drawn.
    fn job(&mut self, index: usize, t: f64) -> TraceJob {
        let duration = self.config.duration.sample(&mut self.attrs_rng);
        let (assigned, max_usage) = self.config.memory.sample(&mut self.attrs_rng);
        TraceJob {
            id: JobId::new(index as u64),
            submit: SimTime::from_secs_f64(t),
            duration,
            assigned_mem_fraction: assigned,
            max_mem_fraction: max_usage,
        }
    }
}

impl Iterator for TraceStream {
    type Item = TraceJob;

    fn next(&mut self) -> Option<TraceJob> {
        let decoder = self.decoder;
        self.next_with(|rng, block| decoder.fill(rng, block))
    }
}

/// A decoded candidate, `[step, threshold, u]`: the step to it from
/// [`ln_approx`], its threshold `u'·max_multiplier()`, and the draw
/// `u = 1 - random()` the fold computes the exact step from when the
/// rounding test cannot prove the decoded one.
type Candidate = [f64; 3];

/// Candidates decoded at a time: 96 KiB of them.
const BLOCK: usize = 4096;

/// Once a helper runs, it is offered block `k` unless `k` is a multiple
/// of `PERIOD`: two blocks in three. The folding thread also folds every
/// block (≈7 ns a candidate, against ≈13 ns to decode one, timed in one
/// spell) and the helper steps past the blocks it leaves (≈2.3 ns); two
/// in three beat one in two and three in four when alternated ("The
/// split is a constant" in `DESIGN.md`).
const PERIOD: usize = 3;

/// Blocks in circulation while a helper runs, the one being folded
/// included: 384 KiB of draws in flight at most.
const POOL: usize = 4;

/// Whether the machine offers a second core to decode on.
fn more_than_one_core() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
}

/// Bound on `|decoded step − exact step|` in the fold's rounding test,
/// `step·STEP_RELATIVE + LN_ABSOLUTE/λmax`. Against `ln u`:
/// [`ln_approx`] is within `2^-52·|ln u| + 2^-52` (see there) and libm's
/// `ln` within 1 ulp, `2^-52·|ln u|`, so the two `ln`s differ by at most
/// `2^-51·|ln u| + 2^-52`. The exact step's divide, the decoded step's
/// multiply and the rounding of `-1/λmax` add `3·2^-53` relative, which
/// makes `|decoded − exact| ≤ 2^-49·step + 2^-51/λmax` (`step` stands
/// for `|ln u|/λmax` within `2^-50` relative). The constants are 2^9 and
/// 2^7 times that, so the roundings of the test's own sum (`2^-52`
/// relative) cannot eat the margin either.
const STEP_RELATIVE: f64 = 1.0 / (1u64 << 40) as f64;
/// See [`STEP_RELATIVE`].
const LN_ABSOLUTE: f64 = 1.0 / (1u64 << 44) as f64;

/// Turns `arrivals` draws into thinning candidates: the draws of
/// `des::rng::sample_exponential` (`u = 1 - random()`, exact step
/// `-u.ln()/λmax`), then the threshold's. The step is decoded with no
/// call and no divide, `ln_approx(u)·(-1/λmax)`.
#[derive(Debug, Clone, Copy)]
struct Decoder {
    lambda_max: f64,
    /// `-1/λmax`.
    neg_inv_rate: f64,
    max_multiplier: f64,
}

impl Decoder {
    /// Replaces `block` with the next [`BLOCK`] candidates of `rng`.
    fn fill(self, rng: &mut StdRng, block: &mut Vec<Candidate>) {
        let table = ln_table();
        block.clear();
        block.extend((0..BLOCK).map(|_| {
            let u = 1.0 - rng.random::<f64>();
            let step = ln_approx(u, table) * self.neg_inv_rate;
            [step, rng.random::<f64>() * self.max_multiplier, u]
        }));
    }

    /// Moves `rng` past one block without decoding it.
    fn skip(rng: &mut StdRng) {
        for _ in 0..2 * BLOCK {
            rng.next_u64();
        }
    }

    /// The part of the step bound that does not scale with the step.
    fn absolute_slack(self) -> f64 {
        LN_ABSOLUTE / self.lambda_max
    }

    /// Half an ulp of the binade `t` lies in: `t` only grows, so no
    /// later sum has a smaller gap on the side `t + step` can fall (a
    /// sum at the binade's own power of two is at most `t`, and its
    /// narrower gap lies below it). Or 0 — every step exact — below 1 s
    /// and below the longest step a draw can make (`u ≥ 2^-53`: under
    /// `37/λmax`), so that `t ≥ step` as Fast2Sum requires.
    fn half_ulp_floor(self, t: f64) -> f64 {
        if t >= (64.0 / self.lambda_max).max(1.0) {
            f64::from_bits(t.to_bits() & EXPONENT) * (f64::EPSILON / 2.0)
        } else {
            0.0
        }
    }
}

/// `t + step`, when every step within `bound` of `step` is proved to
/// round `t` to that same value; `None` when one may not. Fast2Sum
/// (`|t| ≥ |step|`, which [`Decoder::half_ulp_floor`] guards) makes the
/// residual exact, `t + step = sum + residual`, so a step `s` within
/// `bound` puts `t + s` within `|residual| + bound` of `sum`; strictly
/// under `half_ulp`, half the gap to `sum`'s neighbour on that side,
/// it rounds to `sum`, and no tie is possible. The test's own
/// roundings only err towards `None` (rounding is monotone and
/// `half_ulp` is a float).
#[inline(always)]
fn proven_sum(t: f64, step: f64, bound: f64, half_ulp: f64) -> Option<f64> {
    let sum = t + step;
    let residual = step - (sum - t);
    (residual.abs() + bound < half_ulp).then_some(sum)
}

/// `t` plus the step of draw `u` as `des::rng::sample_exponential`
/// computes it. Out of line and cold, so that the fold keeps `t` in a
/// register rather than spilling it around a call it rarely makes.
#[cold]
#[inline(never)]
fn exact_step(t: f64, u: f64, lambda_max: f64) -> f64 {
    t + (-u.ln() / lambda_max)
}

/// Buckets of [`ln_approx`]'s table, one per value of the top 7 mantissa
/// bits.
const LN_BUCKETS: usize = 128;
const EXPONENT: u64 = 0x7FF0_0000_0000_0000;
const MANTISSA: u64 = 0x000F_FFFF_FFFF_FFFF;
const BUCKET: u64 = 0x000F_E000_0000_0000;
/// Half a bucket: `BUCKET`'s bits plus this one are the bucket's centre.
const HALF_BUCKET: u64 = 0x0000_1000_0000_0000;
/// `ln 2` split as fdlibm does: `LN_2_HI` has 32 significant bits, so
/// `k·LN_2_HI` is exact for every binary exponent `k`.
const LN_2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN_2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);

/// `[1/c, ln c]` at the centre `c` of each bucket of `[1, 2)`.
type LnTable = [[f64; 2]; LN_BUCKETS];

fn ln_table() -> &'static LnTable {
    static TABLE: LazyLock<LnTable> = LazyLock::new(|| {
        std::array::from_fn(|i| {
            let c = 1.0 + (i as f64 + 0.5) / LN_BUCKETS as f64;
            [1.0 / c, c.ln()]
        })
    });
    &TABLE
}

/// `ln u` for a normal `u` in `(0, 1]`, with no call: `u = 2^k·m` with
/// `m` in `[1, 2)`, `c` the centre of `m`'s bucket and `r = (m − c)/c`,
/// so `ln u = k·ln 2 + ln c + log1p(r)` with `|r| < 2^-8`.
///
/// Error: `m − c` is exact (both on the `2^-52` grid, under `2^-8`
/// apart), so `r` carries the two roundings of `1/c` and the product,
/// under `2^-60`; the degree-6 Taylor series of `log1p` leaves
/// `|r|^7/7 < 2^-58`; libm's `ln c` is within 1 ulp, `2^-53`;
/// `k·LN_2_HI` is exact and `k·LN_2_LO` off by `2^-80`; the two final
/// additions round to within `2^-53` of `|hi| < |ln u| + 2^-8` and of
/// `|ln u|`. In all, under `2^-52·|ln u| + 2^-52`.
#[inline]
fn ln_approx(u: f64, table: &LnTable) -> f64 {
    let bits = u.to_bits();
    let k = ((bits >> 52) as i64 - 1023) as f64;
    let one = 1.0f64.to_bits();
    let m = f64::from_bits((bits & MANTISSA) | one);
    let c = f64::from_bits((bits & BUCKET) | HALF_BUCKET | one);
    let [inv_c, ln_c] = table[(bits >> 45) as usize & (LN_BUCKETS - 1)];
    let r = (m - c) * inv_c;
    let log1p = r + r * r * (-0.5 + r * (1.0 / 3.0 + r * (-0.25 + r * (0.2 + r * (-1.0 / 6.0)))));
    (k * LN_2_HI + ln_c) + (k * LN_2_LO + log1p)
}

/// Decoded candidates and the next one to fold. Its `Debug` names the
/// position only.
#[derive(Clone, Default)]
struct Block {
    candidates: Vec<Candidate>,
    next: usize,
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Block")
            .field("next", &self.next)
            .field("len", &self.candidates.len())
            .finish()
    }
}

#[cfg(test)]
thread_local! {
    /// Helpers this thread started, for the one-block test.
    static HELPERS_STARTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A decoded block: its index, its candidates, and the `arrivals` stream
/// positioned after it.
type Decoded = (usize, Vec<Candidate>, StdRng);

/// The folding thread's end of a helper that decodes the blocks `k ≥ 1`
/// with `k % PERIOD != 0` from its own copy of the `arrivals` stream,
/// stepping it past the other blocks. It decides nothing: it
/// hands over draws, and the stream position after them. The folding
/// thread never waits for it: a block the helper has not handed over yet
/// is decoded where it is needed, and the helper told to step past it.
struct Helper<'scope> {
    decoded: Receiver<Decoded>,
    spent: Sender<Vec<Candidate>>,
    /// Blocks below this one are the folding thread's, whoever they were
    /// offered to.
    wanted: &'scope AtomicUsize,
}

impl<'scope> Helper<'scope> {
    /// Starts the helper at block 1; `rng` is positioned after block 0.
    /// Dropping the returned end stops it at its next send or receive.
    fn spawn(
        scope: &'scope Scope<'scope, '_>,
        decoder: Decoder,
        mut rng: StdRng,
        wanted: &'scope AtomicUsize,
    ) -> Self {
        #[cfg(test)]
        HELPERS_STARTED.with(|started| started.set(started.get() + 1));
        let (decoded, decoded_rx) = mpsc::channel::<Decoded>();
        let (spent_tx, spent) = mpsc::channel::<Vec<Candidate>>();
        // The folding thread holds the pool's last block. Allocated here,
        // the pool goes back to this thread's heap when generation ends,
        // for the replay to reuse.
        for _ in 1..POOL {
            let _ = spent_tx.send(Vec::with_capacity(BLOCK));
        }
        scope.spawn(move || {
            for k in 1usize.. {
                if k.is_multiple_of(PERIOD) || k < wanted.load(Relaxed) {
                    Decoder::skip(&mut rng);
                    continue;
                }
                let Ok(mut block) = spent.recv() else {
                    return;
                };
                decoder.fill(&mut rng, &mut block);
                if decoded.send((k, block, rng.clone())).is_err() {
                    return;
                }
            }
        });
        Helper {
            decoded: decoded_rx,
            spent: spent_tx,
            wanted,
        }
    }

    /// Puts block `index` (≥ 1) in `block` and moves `rng` past it.
    fn refill(&self, index: usize, decoder: Decoder, rng: &mut StdRng, block: &mut Vec<Candidate>) {
        if !index.is_multiple_of(PERIOD) {
            // Blocks arrive in order; one below `index` is the helper's
            // copy of a block decoded here while it was still at it.
            while let Ok((k, decoded, after)) = self.decoded.try_recv() {
                if k < index {
                    self.recycle(decoded);
                    continue;
                }
                debug_assert_eq!(k, index, "the helper skips only what was taken");
                *rng = after;
                self.recycle(std::mem::replace(block, decoded));
                return;
            }
            // Not there yet: decode it here, and let the helper step past.
            self.wanted.store(index + 1, Relaxed);
        }
        decoder.fill(rng, block);
    }

    /// Hands a block back for the helper to decode into.
    fn recycle(&self, block: Vec<Candidate>) {
        // The helper stops on its own only by panicking, which the scope
        // reports.
        let _ = self.spent.send(block);
    }
}

/// Exact squeeze for the thinning test `threshold ≤ multiplier(t)`.
///
/// The multiplier is Lipschitz ([`ConcurrencyProfile::lipschitz`]) and a
/// stream's `t` only grows, so one exact evaluation brackets every
/// candidate of the next `width` seconds within `± margin`: a threshold
/// above the bracket is rejected and one at or below it accepted by
/// comparison alone, and only a threshold inside the bracket — or a
/// candidate past its end — pays for an evaluation, which starts the
/// next bracket. Either way the answer is the evaluation's answer.
#[derive(Debug, Clone)]
struct Squeeze {
    /// How long a bracket stays valid, seconds (infinite for a flat
    /// profile, negative — every candidate evaluates — for one faster
    /// than the slack below).
    width: f64,
    /// Half-width of a bracket.
    margin: f64,
    /// The current bracket: holds for candidates in `[.., until)`.
    until: f64,
    lo: f64,
    hi: f64,
    #[cfg(test)]
    work: SqueezeWork,
}

/// Candidates decided, exact evaluations paid and steps the rounding
/// test left to `ln`, for the work gates.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
struct SqueezeWork {
    candidates: u64,
    evaluations: u64,
    exact_steps: u64,
}

/// The fold as it was before the step squeeze, `t += sample_exponential`
/// on its own copy of the `arrivals` stream: the reference every
/// candidate's `t` is held to, bit for bit.
#[cfg(test)]
#[derive(Debug, Clone)]
struct ExactFold {
    rng: StdRng,
    lambda_max: f64,
    t: f64,
    candidates: u64,
}

#[cfg(test)]
impl ExactFold {
    fn check(&mut self, t: f64) {
        self.t += des::rng::sample_exponential(&mut self.rng, self.lambda_max);
        let _: f64 = self.rng.random();
        self.candidates += 1;
        assert_eq!(
            t.to_bits(),
            self.t.to_bits(),
            "candidate {}: {t} folded, {} exactly",
            self.candidates,
            self.t
        );
    }
}

impl Squeeze {
    /// Share of `max_multiplier()` a bracket spans, i.e. the share of
    /// candidates whose threshold lands inside it.
    const UNDECIDED_BAND: f64 = 1e-3;
    /// `multiplier` reads `t` rounded to a microsecond, so two instants
    /// `d` apart are evaluated up to `d + 1 µs` apart; the second
    /// microsecond covers `f64` rounding of `t` itself and of the phase
    /// arguments (relative 10⁻¹⁵, below 1 µs for any `t` under 30 years).
    const QUANTISATION_SLACK_SECS: f64 = 2e-6;
    /// Share of `max_multiplier()` set aside for the rounding of
    /// `multiplier`'s own arithmetic (a few ulps, 10⁻¹⁶ relative).
    const ROUNDING_GUARD: f64 = 1e-12;

    fn new(profile: &ConcurrencyProfile) -> Self {
        let max = profile.max_multiplier();
        let margin = 0.5 * Self::UNDECIDED_BAND * max;
        // margin ≥ lipschitz · (width + slack) + guard, solved for width.
        let width = (margin - Self::ROUNDING_GUARD * max) / profile.lipschitz()
            - Self::QUANTISATION_SLACK_SECS;
        Squeeze {
            width,
            margin,
            until: f64::NEG_INFINITY,
            lo: 0.0,
            hi: 0.0,
            #[cfg(test)]
            work: SqueezeWork::default(),
        }
    }

    /// `threshold ≤ profile.multiplier(t)` by evaluation, starting the
    /// next bracket at `t`. [`TraceStream::next_with`] decides a candidate
    /// by comparison instead while `t < until` and the threshold lies
    /// outside `(lo, hi]`.
    fn evaluate(&mut self, profile: &ConcurrencyProfile, t: f64, threshold: f64) -> bool {
        #[cfg(test)]
        {
            self.work.evaluations += 1;
        }
        let local = profile.multiplier(SimDuration::from_secs_f64(t));
        self.until = t + self.width;
        self.lo = local - self.margin;
        self.hi = local + self.margin;
        threshold <= local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = GeneratorConfig::small(7).generate();
        let b = GeneratorConfig::small(7).generate();
        assert_eq!(a, b);
        let c = GeneratorConfig::small(8).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn durations_respect_fig4_bound() {
        let trace = GeneratorConfig::small(1).generate();
        assert!(trace
            .iter()
            .all(|j| j.duration <= SimDuration::from_secs(300)));
        assert!(trace
            .iter()
            .any(|j| j.duration > SimDuration::from_secs(60)));
    }

    #[test]
    fn memory_fractions_respect_fig3_bound() {
        let trace = GeneratorConfig::small(2).generate();
        assert!(trace.iter().all(|j| j.max_mem_fraction <= 0.5));
        assert!(trace.iter().all(|j| j.max_mem_fraction >= 0.001));
        // The bulk is small: median well below 0.1 (Fig. 3).
        let mut fractions: Vec<f64> = trace.iter().map(|j| j.max_mem_fraction).collect();
        fractions.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(fractions[fractions.len() / 2] < 0.1);
    }

    #[test]
    fn over_user_fraction_near_44_of_663() {
        // Large sample for a tight estimate.
        let mut config = GeneratorConfig::small(3);
        config.mean_concurrency = 300.0;
        config.horizon = SimDuration::from_hours(4);
        let trace = config.generate();
        assert!(trace.len() > 5_000, "len={}", trace.len());
        let ratio = trace.over_user_count() as f64 / trace.len() as f64;
        let target = 44.0 / 663.0;
        assert!(
            (ratio - target).abs() < 0.03,
            "over-user ratio {ratio} vs target {target}"
        );
    }

    #[test]
    fn concurrency_matches_littles_law() {
        let config = GeneratorConfig::small(4);
        let trace = config.generate();
        // Average concurrency over the middle of the window (avoids ramp-up).
        let samples: Vec<usize> = (900..2700)
            .step_by(60)
            .map(|sec| {
                let at = SimTime::from_secs(sec);
                trace
                    .iter()
                    .filter(|j| j.submit <= at && j.submit + j.duration > at)
                    .count()
            })
            .collect();
        let mean = samples.iter().sum::<usize>() as f64 / samples.len() as f64;
        assert!(
            (mean - 30.0).abs() < 6.0,
            "mean concurrency {mean}, expected ≈30"
        );
    }

    #[test]
    fn sampled_generation_thins_the_job_stream() {
        let full = GeneratorConfig::small(5).generate();
        let sampled = GeneratorConfig::small(5).generate_sampled(10);
        let ratio = full.len() as f64 / sampled.len().max(1) as f64;
        assert!((ratio - 10.0).abs() < 1.5, "ratio={ratio}");
        // Sampled jobs are a subset of the full stream (same ids).
        let ids: std::collections::HashSet<u64> = full.iter().map(|j| j.id.as_u64()).collect();
        assert!(sampled.iter().all(|j| ids.contains(&j.id.as_u64())));
    }

    #[test]
    fn replay_scale_matches_fig5_and_fig10() {
        let trace = GeneratorConfig::replay_scale(6).generate_sampled(1200);
        // The slice keeps jobs submitted in [6480, 10080).
        let in_slice: Vec<_> = trace
            .iter()
            .filter(|j| {
                j.submit >= SimTime::from_secs(6480) && j.submit < SimTime::from_secs(10_080)
            })
            .collect();
        // ≈4 100 jobs (Fig. 5's 135k concurrency through the §VI-B
        // pipeline, dipped around the slice).
        assert!(
            (3_300..=4_300).contains(&in_slice.len()),
            "slice job count {}, expected ≈4 100",
            in_slice.len()
        );
        // Their useful duration sums to ≈110 h (Fig. 10 "Trace": 94 h).
        let total_hours: f64 = in_slice.iter().map(|j| j.duration.as_hours_f64()).sum();
        assert!(
            (80.0..=120.0).contains(&total_hours),
            "total useful duration {total_hours:.0} h, expected ≈110 h"
        );
    }

    #[test]
    fn profile_dip_sits_on_the_replay_slice() {
        // Judge the slow envelope with bursts disabled.
        let mut p = ConcurrencyProfile::paper_calibrated();
        p.burst_amplitude = 0.0;
        let at_dip = p.multiplier(SimDuration::from_secs(8280));
        let away = p.multiplier(SimDuration::from_hours(12));
        assert!(at_dip < away, "dip {at_dip} vs away {away}");
        assert!(p.max_multiplier() >= 1.0);
        // The envelope stays in a plausible band.
        for h in 0..24 {
            let m = p.multiplier(SimDuration::from_hours(h));
            assert!((0.85..=1.15).contains(&m), "m(t={h}h)={m}");
        }
    }

    #[test]
    fn bursts_average_out_over_their_period() {
        let p = ConcurrencyProfile::paper_calibrated();
        // Instantaneous multipliers swing by ±50 %…
        let samples: Vec<f64> = (0..1800)
            .map(|s| p.multiplier(SimDuration::from_secs(40_000 + s)))
            .collect();
        let min = samples.iter().cloned().fold(f64::MAX, f64::min);
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        assert!(min < 0.7, "min={min}");
        assert!(max > 1.3, "max={max}");
        // ...but the period average matches the slow envelope.
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((0.9..=1.1).contains(&mean), "mean={mean}");
        assert!(p.max_multiplier() > 1.5);
    }

    #[test]
    fn fluid_concurrency_matches_target_band() {
        let config = GeneratorConfig::paper_scale(9);
        let series = config.fluid_concurrency(SimDuration::from_mins(1));
        assert_eq!(series.len(), 1440);
        // Fig. 5's band holds at hour granularity (bursts average out);
        // skip the ramp-up and average over 60-min windows — an exact
        // multiple of the 30-min burst period, avoiding aliasing.
        let hourly: Vec<f64> = series[30..]
            .chunks(60)
            .filter(|c| c.len() == 66)
            .map(|c| c.iter().map(|&(_, v)| v).sum::<f64>() / 66.0)
            .collect();
        assert!(
            hourly.iter().all(|c| (115_000.0..155_000.0).contains(c)),
            "band violated: min={:?} max={:?}",
            hourly.iter().map(|&c| c as u64).min(),
            hourly.iter().map(|&c| c as u64).max()
        );
    }

    #[test]
    #[should_panic(expected = "keep_every")]
    fn zero_keep_every_panics() {
        let _ = GeneratorConfig::small(0).generate_sampled(0);
    }

    #[test]
    fn stream_sampled_matches_generate_sampled() {
        for keep_every in [1usize, 7] {
            let materialised = GeneratorConfig::small(12).generate_sampled(keep_every);
            let streamed: Vec<_> = GeneratorConfig::small(12)
                .stream_sampled(keep_every)
                .collect();
            assert!(materialised.iter().eq(streamed.iter()));
        }
        // Exhausted streams stay exhausted.
        let mut stream = GeneratorConfig::small(12).stream_sampled(1);
        for _ in stream.by_ref() {}
        assert!(stream.next().is_none());
    }

    /// `replay_scale(42)` cut after about `blocks` blocks of candidates.
    fn blocks_of_replay_scale(blocks: f64) -> GeneratorConfig {
        let config = GeneratorConfig::replay_scale(42);
        let lambda_max = config.base_rate() * config.profile.max_multiplier();
        let secs = blocks * BLOCK as f64 / lambda_max;
        config.with_horizon(SimDuration::from_secs_f64(secs))
    }

    #[test]
    fn a_one_block_trace_starts_no_helper() {
        let started = || HELPERS_STARTED.with(std::cell::Cell::get);
        // `small` draws ≈1,100 candidates an hour.
        let trace = GeneratorConfig::small(7).generate();
        assert!(trace.len() > 500);
        assert_eq!(started(), 0);
        let _ = blocks_of_replay_scale(0.5).generate_sampled(1);
        assert_eq!(started(), 0);
        // Outgrowing the first block starts one, given a second core.
        let _ = blocks_of_replay_scale(3.5).generate_sampled(1);
        assert_eq!(started(), usize::from(more_than_one_core()));
    }

    #[test]
    fn an_exhausted_stream_stays_exhausted() {
        for keep_every in [1, 7] {
            let mut stream = blocks_of_replay_scale(2.5).stream_sampled(keep_every);
            let jobs = stream.by_ref().count();
            assert!(jobs > 0);
            let at_end = stream.clone();
            // Each call folds one more candidate past the horizon, through
            // the end of the block and into the next.
            for _ in 0..2 * BLOCK {
                assert!(stream.next().is_none());
            }
            assert!(stream.t >= at_end.t);
            assert_eq!(stream.arrival_index, at_end.arrival_index);
        }
    }

    #[test]
    fn a_clone_taken_mid_block_equals_its_original() {
        for keep_every in [1, 7, 1200] {
            let mut stream = blocks_of_replay_scale(3.5).stream_sampled(keep_every);
            for _ in 0..3 {
                stream.next().expect("a job in each block");
            }
            let block = &stream.block;
            assert!(
                0 < block.next && block.next < block.candidates.len(),
                "{block:?}"
            );
            let clone = stream.clone();
            assert!(clone.eq(stream));
        }
    }

    #[test]
    fn a_stream_is_clone_and_send_and_its_debug_omits_the_block() {
        fn clone_and_send<T: Clone + Send>() {}
        clone_and_send::<TraceStream>();
        let mut stream = GeneratorConfig::small(1).stream_sampled(1);
        stream.next();
        let debug = format!("{stream:?}");
        assert!(debug.contains("Block { next: 1, len: 4096 }"), "{debug}");
        assert!(debug.len() < 2_000, "{}", debug.len());
    }

    #[test]
    fn full_scale_is_paper_scale_with_a_short_horizon() {
        let full = GeneratorConfig::full_scale(11);
        let paper = GeneratorConfig::paper_scale(11);
        assert_eq!(full.horizon, SimDuration::from_mins(10));
        assert_eq!(full.mean_concurrency, paper.mean_concurrency);
        assert_eq!(full.profile, paper.profile);
        // The builders override exactly their field.
        let tuned = full
            .with_mean_concurrency(20_000.0)
            .with_horizon(SimDuration::from_mins(3));
        assert_eq!(tuned.mean_concurrency, 20_000.0);
        assert_eq!(tuned.horizon, SimDuration::from_mins(3));
        assert_eq!(tuned.duration, full.duration);
    }

    #[test]
    #[should_panic(expected = "mean concurrency")]
    fn non_positive_concurrency_panics() {
        let _ = GeneratorConfig::full_scale(0).with_mean_concurrency(0.0);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_panics() {
        let _ = GeneratorConfig::full_scale(0).with_horizon(SimDuration::ZERO);
    }

    fn stream_with(edit: impl FnOnce(&mut ConcurrencyProfile)) -> TraceStream {
        let mut config = GeneratorConfig::replay_scale(0);
        edit(&mut config.profile);
        config.stream_sampled(1)
    }

    #[test]
    #[should_panic(expected = "dip_depth must lie in [0, 1]")]
    fn negative_dip_depth_panics() {
        // multiplier() would exceed max_multiplier() around the dip.
        let _ = stream_with(|p| p.dip_depth = -0.2);
    }

    #[test]
    #[should_panic(expected = "dip_depth must lie in [0, 1]")]
    fn dip_deeper_than_the_load_panics() {
        let _ = stream_with(|p| p.dip_depth = 1.5);
    }

    #[test]
    #[should_panic(expected = "burst_period must be non-zero")]
    fn zero_burst_period_panics() {
        // multiplier() would be NaN, floored to 0.05 without a word.
        let _ = stream_with(|p| p.burst_period = SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "dip_width must be non-zero")]
    fn zero_dip_width_panics() {
        let _ = stream_with(|p| p.dip_width = SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "slow_amplitude must be non-negative and finite")]
    fn nan_amplitude_panics() {
        let _ = stream_with(|p| p.slow_amplitude = f64::NAN);
    }

    #[test]
    #[should_panic(expected = "burst_amplitude must be non-negative and finite")]
    fn infinite_amplitude_panics() {
        let _ = stream_with(|p| p.burst_amplitude = f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "fast_amplitude must be non-negative and finite")]
    fn negative_amplitude_panics() {
        let _ = stream_with(|p| p.fast_amplitude = -0.01);
    }

    fn random_profile(rng: &mut StdRng) -> ConcurrencyProfile {
        ConcurrencyProfile {
            slow_amplitude: rng.random_range(0.0..0.9),
            fast_amplitude: rng.random_range(0.0..0.9),
            dip_depth: if rng.random() {
                rng.random_range(0.0..0.9)
            } else {
                0.0
            },
            dip_center: SimDuration::from_secs(rng.random_range(0..28_800u64)),
            dip_width: SimDuration::from_secs(rng.random_range(60..28_800u64)),
            burst_amplitude: rng.random_range(0.0..0.9),
            burst_period: SimDuration::from_secs(rng.random_range(60..28_800u64)),
        }
    }

    /// The bound itself, not the luck of a draw: a margin short by a
    /// sliver is otherwise met by a threshold once in millions of
    /// candidates. Every bracket must contain the multiplier — as the
    /// stream reads it, at the microsecond `t` rounds to — at every
    /// instant the bracket answers for, its edges and the instants where
    /// the rounding flips included.
    #[test]
    fn squeeze_brackets_contain_the_multiplier_at_every_instant() {
        let mut rng = seeded_rng(derive_seed(0x5C, "squeeze-bound"));
        let mut profiles = vec![
            ConcurrencyProfile::paper_calibrated(),
            ConcurrencyProfile::flat(),
        ];
        profiles.extend((0..14).map(|_| random_profile(&mut rng)));
        for profile in profiles {
            let reach = Squeeze::new(&profile).width.min(3600.0);
            assert!(reach > 0.0, "{profile:?}");
            for _ in 0..100 {
                let start = rng.random_range(0.0..30.0 * 3600.0);
                let mut squeeze = Squeeze::new(&profile);
                squeeze.evaluate(&profile, start, 0.0);
                let (lo, hi, until) = (squeeze.lo, squeeze.hi, squeeze.until);
                assert!(hi - lo <= 1.001e-3 * profile.max_multiplier());

                let mut probes = vec![start, start + reach - 1e-6, start + reach - 2e-6];
                if until.is_finite() {
                    probes.push(f64::from_bits(until.to_bits() - 1));
                }
                for _ in 0..500 {
                    let t = start + rng.random_range(0.0..reach);
                    // `t`, and the two sides of the half-microsecond it
                    // rounds across.
                    let flip = ((t * 1e6).floor() + 0.5) / 1e6;
                    probes.extend([t, flip - 1e-9, flip + 1e-9]);
                }
                for t in probes {
                    if t < start || t >= until {
                        continue;
                    }
                    let exact = profile.multiplier(SimDuration::from_secs_f64(t));
                    assert!(
                        lo <= exact && exact <= hi,
                        "{exact} outside [{lo}, {hi}] at {t} (bracket from {start}): {profile:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn squeeze_evaluates_a_sliver_of_the_replay_scale_candidates() {
        let mut stream = GeneratorConfig::replay_scale(42).stream_sampled(1200);
        assert_eq!(stream.by_ref().count(), 11_918);
        let work = stream.squeeze.work;
        assert!(work.candidates > 20_000_000, "{work:?}");
        // Under 0.5 % of candidates pay for a profile evaluation, and
        // under 1 % for their step's `ln`.
        assert!(work.evaluations * 200 < work.candidates, "{work:?}");
        assert!(work.exact_steps * 100 < work.candidates, "{work:?}");
    }

    /// `config`'s stream with every candidate's `t` held to the exact fold.
    fn checked_stream(config: &GeneratorConfig, keep_every: usize) -> TraceStream {
        let mut stream = config.stream_sampled(keep_every);
        stream.exact_fold = Some(ExactFold {
            rng: seeded_rng(derive_seed(config.seed, "arrivals")),
            lambda_max: stream.decoder.lambda_max,
            t: 0.0,
            candidates: 0,
        });
        stream
    }

    /// Runs `stream` to its end, its decoded steps skewed to the edge of
    /// the fold's bound if `skew`; returns the candidates checked and the
    /// steps left to `ln`.
    fn fold_checked(mut stream: TraceStream, skew: bool) -> (u64, u64) {
        let decoder = stream.decoder;
        let mut sides = seeded_rng(derive_seed(stream.config.seed, "skew"));
        while stream
            .next_with(|rng, block| {
                decoder.fill(rng, block);
                if skew {
                    skew_to_the_bound(decoder, &mut sides, block);
                }
            })
            .is_some()
        {}
        let checked = stream
            .exact_fold
            .as_ref()
            .map_or(0, |exact| exact.candidates);
        assert_eq!(
            checked,
            stream.squeeze.work.candidates + 1,
            "the one past the horizon"
        );
        (checked, stream.squeeze.work.exact_steps)
    }

    /// Moves every decoded step to `exact ± bound` or `exact ± bound/2`,
    /// just inside the bound the fold allows it: a decoder as wrong as
    /// the proof admits, for which the fold must still land on the exact
    /// fold's bits.
    fn skew_to_the_bound(decoder: Decoder, sides: &mut StdRng, block: &mut [Candidate]) {
        let slack = decoder.absolute_slack();
        // A 2^-8 share of the bound, 2^-48 of the step, is room for the
        // rounding of the sum below (2^-53 of the step).
        let inside = 1.0 - 1.0 / 256.0;
        for candidate in block {
            let [step, _, u] = *candidate;
            let exact = -u.ln() / decoder.lambda_max;
            let side = [-1.0, -0.5, 0.5, 1.0][sides.random_range(0..4u64) as usize];
            candidate[0] = exact + side * (step * STEP_RELATIVE + slack) * inside;
        }
    }

    #[test]
    fn every_candidate_steps_like_the_exact_fold() {
        // 138 k candidates up to 60 s, through the binades where the test
        // often cannot prove a step, as decoded and skewed to the bound;
        // `small` steps ≈3 s, so its bound almost never fits in half an
        // ulp.
        let short = GeneratorConfig::replay_scale(42).with_horizon(SimDuration::from_secs(60));
        for skew in [false, true] {
            let (candidates, exact) = fold_checked(checked_stream(&short, 1), skew);
            assert!(candidates > 100_000, "{candidates}");
            assert!(exact < candidates / 2, "{exact} of {candidates}");
        }
        for seed in [3, 7] {
            let (candidates, exact) =
                fold_checked(checked_stream(&GeneratorConfig::small(seed), 7), false);
            assert!(candidates > 500, "{candidates}");
            assert!(exact * 100 > candidates * 99, "{exact} of {candidates}");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "93 M candidates: run in release")]
    fn every_candidate_of_three_paper_traces_steps_like_the_exact_fold() {
        for (seed, skew) in [(42, false), (7, false), (2018, false), (42, true)] {
            let config = GeneratorConfig::replay_scale(seed);
            let (candidates, exact) = fold_checked(checked_stream(&config, 1200), skew);
            assert!(candidates > 20_000_000, "{candidates}");
            assert!(exact * 100 < candidates, "{exact} of {candidates}");
            eprintln!("replay_scale({seed}), skewed {skew}: {exact} of {candidates} steps exact");
        }
    }

    #[test]
    fn a_proven_sum_rounds_like_every_step_within_its_bound() {
        // A tie: `t` odd, `|residual| + bound` exactly half an ulp, and a
        // step at the bound's edge puts `t + s` on the midpoint, which
        // rounds to the even neighbour, not to `t + step`.
        let half_ulp = 2f64.powi(-43);
        let t = 1024.0 + 2.0 * half_ulp;
        let (step, bound) = (half_ulp / 2.0, half_ulp / 2.0);
        assert_ne!(t + (step + bound), t + step);
        assert_eq!(proven_sum(t, step, bound, half_ulp), None);

        // `t` grown from the `t0` the half ulp was taken at, across binade
        // edges and from `t0` a power of two; steps at and inside the
        // bound's edges.
        let decoder = GeneratorConfig::replay_scale(0).stream_sampled(1).decoder;
        let mut rng = seeded_rng(derive_seed(0x2F, "proven-sum"));
        let mut proven = 0;
        for _ in 0..400_000 {
            let binade = 2f64.powi(rng.random_range(0..14u64) as i32);
            let (t0, t) = if rng.random_bool(0.2) {
                (binade, binade)
            } else {
                let t0 = binade * rng.random_range(1.0..2.0);
                (t0, t0 + rng.random_range(0.0..t0))
            };
            let half_ulp = decoder.half_ulp_floor(t0);
            let step = rng.random_range(0.0..1e-3);
            let bound = half_ulp * rng.random_range(0.0..1.0);
            let Some(sum) = proven_sum(t, step, bound, half_ulp) else {
                continue;
            };
            proven += 1;
            for side in [-1.0, -0.5, 0.5, 1.0] {
                let s = step + side * bound;
                if (s - step).abs() <= bound {
                    assert_eq!(
                        (t + s).to_bits(),
                        sum.to_bits(),
                        "{t} + {s} ({step} ± {bound})"
                    );
                }
            }
        }
        assert!(proven > 100_000, "{proven}");
    }

    /// Worst `|ln_approx(u) − u.ln()|` over `us`, as a share of the bound
    /// the fold allows for it, and the worst absolute error.
    fn worst_ln_error(us: impl IntoIterator<Item = f64>) -> (f64, f64) {
        let table = ln_table();
        us.into_iter().fold((0.0f64, 0.0f64), |(share, abs), u| {
            assert!(u > 0.0 && u <= 1.0, "{u}");
            let approx = ln_approx(u, table);
            let error = (approx - u.ln()).abs();
            let bound = approx.abs() * STEP_RELATIVE + LN_ABSOLUTE;
            (share.max(error / bound), abs.max(error))
        })
    }

    #[test]
    fn ln_approx_stays_within_a_sixteenth_of_the_fold_bound() {
        assert_eq!(LN_2_HI + LN_2_LO, std::f64::consts::LN_2);
        let mut rng = seeded_rng(derive_seed(0x1A, "ln-approx"));
        let draws = worst_ln_error((0..10_000_000).map(|_| 1.0 - rng.random::<f64>()));
        // Every bucket edge of the binades next to 1, in the middle and at
        // the smallest draw, ± 2,000 ulps.
        let edges = [-1i32, -2, -27, -53].into_iter().flat_map(|k| {
            (0..LN_BUCKETS as u64).flat_map(move |bucket| {
                let edge = (1.0 + bucket as f64 / LN_BUCKETS as f64) * 2f64.powi(k);
                (-2_000i64..=2_000)
                    .map(move |ulps| f64::from_bits(edge.to_bits().wrapping_add_signed(ulps)))
                    .filter(|&u| u <= 1.0)
            })
        });
        let edges = worst_ln_error(edges);
        // The extremes of `1 - random()`, and the draws next to them.
        let step = f64::EPSILON / 2.0;
        let extremes = worst_ln_error(
            (0..2_000u32).flat_map(|k| [1.0 - f64::from(k) * step, f64::from(k + 1) * step]),
        );
        for (name, (share, abs)) in [("draws", draws), ("edges", edges), ("extremes", extremes)] {
            eprintln!("{name}: worst error {abs:.3e}, {share:.3e} of the bound");
            assert!(
                share <= 1.0 / 16.0,
                "{name}: {share} of the bound ({abs:e})"
            );
        }
    }

    #[test]
    fn flat_profile_is_one_bracket() {
        let mut stream = GeneratorConfig::small(3).stream_sampled(1);
        let jobs = stream.by_ref().count() as u64;
        let work = stream.squeeze.work;
        // Thinning never rejects under a flat profile...
        assert_eq!(work.candidates, jobs);
        // ...and only thresholds within the band of 1.0 evaluate it.
        assert!(work.evaluations * 200 < work.candidates, "{work:?}");
        assert_eq!(stream.squeeze.until, f64::INFINITY);
    }
}
