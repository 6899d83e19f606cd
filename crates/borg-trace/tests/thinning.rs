//! The arrival process is pinned to the bit: the squeeze in
//! `TraceStream::next` may skip profile evaluations, never change a job.
//!
//! Two anchors. The digests below were recorded at the commit *before*
//! the squeeze existed (every candidate evaluated the profile), on a
//! calibrated — rejecting — profile that no policy golden covers. The
//! proptest holds the stream equal to that old loop, kept here as the
//! reference, over arbitrary profiles. Decoding draws in blocks, and on a
//! second thread in `generate_sampled`, must not change a job either:
//! the last two tests hold that path to the same digest and loop.

use borg_trace::{ConcurrencyProfile, GeneratorConfig, JobId, TraceJob};
use des::rng::{derive_seed, sample_exponential, seeded_rng};
use des::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::RngExt;

/// FNV-1a over the `Debug` rendering of every job, one per line (exact
/// shortest-roundtrip floats: equal digests mean equal bit patterns).
fn stream_digest(config: &GeneratorConfig, keep_every: usize) -> (usize, u64) {
    digest(config.stream_sampled(keep_every))
}

fn digest(stream: impl IntoIterator<Item = TraceJob>) -> (usize, u64) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut jobs = 0;
    for job in stream {
        jobs += 1;
        for &b in format!("{job:?}\n").as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (jobs, hash)
}

#[test]
fn calibrated_stream_digests_are_unchanged() {
    // (seed, horizon [s], keep_every, jobs, digest) of `replay_scale`.
    // The third row is the raw trace every `paper_replay` cell slices.
    let golden = [
        (42, 60, 1, 118_397, 0x4ea1_a29d_d4a4_d097_u64),
        (42, 900, 50, 32_459, 0xdc76_f7b1_99f4_31e3),
        (42, 10_080, 1200, 11_918, 0x65af_c4cb_8e72_f5de),
        (7, 900, 50, 32_503, 0xecc9_8969_37a4_3ade),
    ];
    for (seed, horizon, keep_every, jobs, digest) in golden {
        let config =
            GeneratorConfig::replay_scale(seed).with_horizon(SimDuration::from_secs(horizon));
        assert_eq!(
            stream_digest(&config, keep_every),
            (jobs, digest),
            "replay_scale({seed}), {horizon} s, keep_every {keep_every}"
        );
    }
}

#[test]
fn generate_sampled_reproduces_the_raw_paper_trace() {
    // The third golden row, through the materialising path: decoded on
    // two threads wherever the machine has two cores.
    let trace = GeneratorConfig::replay_scale(42).generate_sampled(1200);
    assert_eq!(
        digest(trace.into_iter().copied()),
        (11_918, 0x65af_c4cb_8e72_f5de)
    );
}

/// Thinning as it was before the squeeze: every candidate evaluates the
/// profile. Draw for draw what `TraceStream::next` must reproduce.
fn reference_stream(config: &GeneratorConfig, keep_every: usize) -> Vec<TraceJob> {
    let mut arrivals_rng = seeded_rng(derive_seed(config.seed, "arrivals"));
    let mut attrs_rng = seeded_rng(derive_seed(config.seed, "attributes"));
    let lambda_max = config.base_rate() * config.profile.max_multiplier();
    let horizon = config.horizon.as_secs_f64();
    let mut jobs = Vec::new();
    let mut t = 0.0;
    let mut arrival_index = 0usize;
    loop {
        t += sample_exponential(&mut arrivals_rng, lambda_max);
        if t >= horizon {
            return jobs;
        }
        let local = config.profile.multiplier(SimDuration::from_secs_f64(t));
        if arrivals_rng.random::<f64>() * config.profile.max_multiplier() > local {
            continue;
        }
        arrival_index += 1;
        if !arrival_index.is_multiple_of(keep_every) {
            continue;
        }
        let duration = config.duration.sample(&mut attrs_rng);
        let (assigned, max_usage) = config.memory.sample(&mut attrs_rng);
        jobs.push(TraceJob {
            id: JobId::new(arrival_index as u64),
            submit: SimTime::from_secs_f64(t),
            duration,
            assigned_mem_fraction: assigned,
            max_mem_fraction: max_usage,
        });
    }
}

fn profiles() -> impl Strategy<Value = ConcurrencyProfile> {
    let random = (
        (0.0f64..0.9, 0.0f64..0.9, 0.0f64..0.9),
        (0.0f64..0.9, any::<bool>(), 0u64..28_800, 60u64..28_800),
        60u64..28_800,
    )
        .prop_map(
            |((slow, fast, burst), (depth, dip, center, width), period)| ConcurrencyProfile {
                slow_amplitude: slow,
                fast_amplitude: fast,
                dip_depth: if dip { depth } else { 0.0 },
                dip_center: SimDuration::from_secs(center),
                dip_width: SimDuration::from_secs(width),
                burst_amplitude: burst,
                burst_period: SimDuration::from_secs(period),
            },
        );
    // Bursts faster than the squeeze's quantisation slack: no bracket
    // outlives its own candidate, every one evaluates the profile.
    prop_oneof![
        random,
        Just(ConcurrencyProfile::paper_calibrated()),
        Just(ConcurrencyProfile::flat()),
        Just(frantic()),
    ]
}

/// Candidates the generator decodes at a time (`BLOCK` in
/// `generator.rs`); the horizons below end on its boundaries.
const BLOCK: u64 = 4096;

/// The instant of candidate `n` (counting from 1) of `config`'s arrival
/// process: the same two draws a candidate as the reference loop.
fn candidate_time(config: &GeneratorConfig, n: u64) -> f64 {
    let mut arrivals_rng = seeded_rng(derive_seed(config.seed, "arrivals"));
    let lambda_max = config.base_rate() * config.profile.max_multiplier();
    let mut t = 0.0;
    for _ in 0..n {
        t += sample_exponential(&mut arrivals_rng, lambda_max);
        let _: f64 = arrivals_rng.random();
    }
    t
}

fn frantic() -> ConcurrencyProfile {
    ConcurrencyProfile {
        burst_period: SimDuration::from_micros(100),
        ..ConcurrencyProfile::paper_calibrated()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stream_equals_the_unconditional_evaluation_loop(
        profile in profiles(),
        seed in 0u64..10_000,
        concurrency in 50.0f64..1_500.0,
        horizon_mins in 5u64..90,
        keep_every in prop_oneof![Just(1usize), 2usize..=50, 51usize..=2_000],
        clone_after in 0usize..40,
    ) {
        let mut config = GeneratorConfig::small(seed)
            .with_mean_concurrency(concurrency)
            .with_horizon(SimDuration::from_mins(horizon_mins));
        config.profile = profile;
        let reference = reference_stream(&config, keep_every);

        let mut stream = config.stream_sampled(keep_every);
        let head: Vec<TraceJob> = stream.by_ref().take(clone_after).collect();
        // A clone taken mid-stream carries the squeeze's bracket with it.
        let tail_of_clone: Vec<TraceJob> = stream.clone().collect();
        let tail: Vec<TraceJob> = stream.collect();

        prop_assert_eq!(&tail, &tail_of_clone);
        let streamed: Vec<TraceJob> = head.into_iter().chain(tail).collect();
        prop_assert_eq!(streamed, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The materialising path over many blocks — on two threads wherever
    /// the machine has two cores — equals the reference loop, with the
    /// horizon falling anywhere in a block or within one candidate of
    /// its boundary.
    #[test]
    fn generate_sampled_equals_the_unconditional_evaluation_loop(
        profile in prop_oneof![
            Just(ConcurrencyProfile::flat()),
            Just(frantic()),
            Just(ConcurrencyProfile::paper_calibrated()),
        ],
        seed in 0u64..10_000,
        concurrency in 50.0f64..1_500.0,
        blocks in 1u64..8,
        last in prop_oneof![-1i64..=1, 2i64..4_000],
        keep_every in prop_oneof![Just(1usize), Just(7), Just(1200)],
    ) {
        let mut config = GeneratorConfig::small(seed).with_mean_concurrency(concurrency);
        config.profile = profile;
        // The last candidate before the horizon is candidate `n`.
        let n = (blocks * BLOCK).checked_add_signed(last).unwrap();
        let end = candidate_time(&config, n);
        let config = config.with_horizon(SimDuration::from_micros((end * 1e6).ceil() as u64 + 1));

        let reference = reference_stream(&config, keep_every);
        let generated = config.generate_sampled(keep_every);
        prop_assert!(generated.into_iter().eq(reference.iter()));
    }
}
